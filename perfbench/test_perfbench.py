"""Tests of the benchmark itself, on workloads small enough to run in seconds."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import gausstube
from gausstube import _mc

import bench
import tracing
from workloads import WORKLOADS, Workload, _gkf_check

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(name: str, **config) -> Workload:
    """A workload of the same shape as ``name`` with small sample counts."""
    w = WORKLOADS[name]
    return replace(w, name=f"tiny-{name}", config={**w.config, **config})


TINY = [
    _tiny("torus-ec", space={"kind": "torus", "lengths": [2 * math.pi] * 2, "grid": 40},
          N=40000, reps=100),
    _tiny("converge-hessian", n_grid=[8, 64], N=10000),
    _tiny("interval-gkf", N=40000, reps=100),
    _tiny("tube-projection", N=40000, rho_grid=[0.1]),
]


def _snapshot() -> dict:
    """Identity of every attribute a traced run may replace."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "gausstube" or name.startswith("gausstube."):
            for key, value in vars(mod).items():
                out[(name, key)] = id(value)
    for cls in (gausstube.CylFunctional, gausstube.SpatialCov, gausstube.RunResult):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = id(value)
    return out


def _numbers(metrics: dict) -> bool:
    return all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values()
    )


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_out")
    before = _snapshot()
    runs = {w.name: bench.measure(w, 3, 0.0, True, out) for w in TINY}
    return before, _snapshot(), runs


def test_wrapped_attributes_are_restored(traced_runs):
    before, after, runs = traced_runs
    assert after == before
    hit = set()
    for result, record in runs.values():
        spans = json.loads(Path(record["spans_file"]).read_text())
        hit |= {s["name"] for s in spans}
    # every wrapper was installed and reached on at least one workload
    assert {name for _, _, name, _ in tracing.TARGETS} <= hit


def test_restored_when_the_traced_call_raises():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.traced(tracing.Tracer("raise")):
            assert _snapshot() != before
            1 / 0
    assert _snapshot() == before


def test_layer_self_times_within_traced_wall(traced_runs):
    _, _, runs = traced_runs
    for name, (result, _) in runs.items():
        m = result["metrics"]
        total = sum(m[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
        assert 0.0 < total <= m["trace.wall_s"]["value"], name


def test_traced_payload_matches_and_checks_pass(traced_runs):
    _, _, runs = traced_runs
    for name, (result, record) in runs.items():
        assert result["correct"] and result["failed"] == 0, (name, record["checks"])
        assert any(c["name"].startswith("traced payload") and c["ok"] for c in record["checks"])


def test_self_time_splits_overlap_between_threads():
    s = tracing.Span
    spans = [
        s(1, "mc.run_blocks", 0.0, 10.0, None, 1, "r"),
        s(2, "mc.block", 1.0, 9.0, 1, 2, "r"),  # two blocks side by side
        s(3, "mc.block", 1.0, 5.0, 1, 3, "r"),
        s(4, "fields.basis", 2.0, 4.0, 2, 2, "r"),
    ]
    got = tracing.self_times(spans)
    assert got[1] == pytest.approx(2.0)  # 0-1 and 9-10, blocks cover the rest
    assert got[4] == pytest.approx(1.0)  # shares 2-4 with block 3
    assert got[3] == pytest.approx(0.5 + 1.0 + 0.5)
    assert got[2] == pytest.approx(0.5 + 0.5 + 4.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_every_metric_is_emitted_with_its_unit(traced_runs, tmp_path):
    _, _, runs = traced_runs
    spec_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    spec_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    required_e2e = {"run_s", "setup_s", "cpu_s", "time_to_tol_s", "peak_rss_mb"}
    required_layer = {
        "fields.basis.calls", "fields.basis.busy_s", "fields.basis.bytes_computed",
        "fields.simulate_field.calls", "fields.simulate_field.self_s",
        "fields.simulate_field.us_p50", "fields.simulate_field.us_p90",
        "fields.euler_char.calls", "fields.euler_char.busy_s",
        "fields.ec_mc_levels.busy_s", "fields.validate_assumptions.busy_s",
        "cylinder.value_batch.rows", "cylinder.value_batch.busy_s",
        "cylinder.grad_batch.rows", "cylinder.grad_batch.busy_s",
        "cylinder.hess_batch.rows", "cylinder.hess_batch.busy_s",
        "cylinder.hess_batch.bytes_computed",
        "malliavin.jacobian_coeffs_batch.rows", "malliavin.jacobian_coeffs_batch.busy_s",
        "malliavin.jacobian_coeffs_batch.us_per_row",
        "gmf.gmf_surface_mc.calls", "gmf.gmf_surface_mc.self_s", "gmf.samples",
        "gmf.window_frac", "gmf.skip_frac",
        "tube.distances.calls", "tube.distances.busy_s", "tube.solves",
        "tube.us_per_solve", "tube.solver_failures",
        "mc.run_blocks.calls", "mc.run_blocks.busy_s", "mc.blocks", "mc.pool_util",
        "mc.fsum_arrays.busy_s",
        "harness.run.self_s", "harness.report.busy_s", "harness.save.bytes",
        "harness.save.busy_s", "trace.overhead_s",
    }
    assert required_e2e <= set(spec_e2e) and required_layer <= set(spec_layer)

    result, _ = bench.measure(TINY[2], 5, 0.0, False, tmp_path)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec_e2e
    assert _numbers(result["metrics"]) and result["correct"]
    for name, (result, _) in runs.items():
        assert {k: m["unit"] for k, m in result["metrics"].items()} == spec_layer, name
        assert _numbers(result["metrics"]), name


def test_raising_workload_is_counted_not_fatal(tmp_path):
    broken = _tiny("interval-gkf", J=0)  # rejected by harness.run after validation
    for trace in (False, True):
        result, record = bench.measure(broken, 1, 0.0, trace, tmp_path)
        assert result["failed"] == result["attempted"] >= 2
        assert not result["correct"]
        assert record["check_fail_frac"] == 1.0


def test_output_checks_do_not_depend_on_the_benchmark_seed(tmp_path):
    w = TINY[2]
    records = [bench.measure(w, seed, 0.0, False, tmp_path)[1] for seed in (1, 2)]
    checks = [
        [c for c in r["checks"] if not c["name"].startswith("replication ")] for r in records
    ]
    assert checks[0] == checks[1]
    assert len(checks[0]) == w.check_reps + len(w.config["u_levels"])
    timed = [[rep["seed"] for rep in r["replications"]] for r in records]
    assert set(timed[0]).isdisjoint(timed[1])


def test_tracer_under_thread_contention():
    """More pool threads than cores and a short switch interval lose no span."""
    tracer = tracing.Tracer("stress")
    n_blocks, inner = 64, 20

    def fn(i):
        for _ in range(inner):
            with tracer.span("fields.inner"):
                pass
        return i

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracing.traced(tracer):
            out = gausstube.fields.run_blocks(fn, n_blocks, 4)
    finally:
        sys.setswitchinterval(old)
    assert out == list(range(n_blocks))
    by_id = {s.sid: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans) == 1 + n_blocks * (1 + inner)
    (root,) = [s for s in tracer.spans if s.name == "mc.run_blocks"]
    blocks = [s for s in tracer.spans if s.name == "mc.block"]
    assert all(b.parent == root.sid for b in blocks)
    assert all(by_id[s.parent].name == "mc.block" and by_id[s.parent].thread == s.thread
               for s in tracer.spans if s.name == "fields.inner")


def test_gkf_band_is_the_criterion_band():
    def result(ec, ec_se, rhs, rhs_se):
        row = {"u": 1.0, "ec_mean": ec, "ec_stderr": ec_se, "rhs": rhs, "rhs_stderr": rhs_se}
        return SimpleNamespace(rows=[row])

    sigma = math.hypot(0.3, 0.4)
    assert _gkf_check(0.0)([result(1.0 + 2.99 * sigma, 0.3, 1.0, 0.4)])[0].ok
    assert not _gkf_check(0.0)([result(1.0 + 3.01 * sigma, 0.3, 1.0, 0.4)])[0].ok
    # the 10% floor of criterion 9 applies only where it is wider than 3 sigma
    assert _gkf_check(0.10)([result(10.9, 0.01, 10.0, 0.01)])[0].ok
    assert not _gkf_check(0.10)([result(11.1, 0.01, 10.0, 0.01)])[0].ok
    # pooling two replications halves the variance of the mean
    pooled = _gkf_check(0.0)([result(1.0 + 2.5 * sigma, 0.3, 1.0, 0.4)] * 2)[0]
    assert not pooled.ok


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "torus-ec", "--seed", "1",
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_block_size_in_provenance(traced_runs):
    _, _, runs = traced_runs
    for _, record in runs.values():
        prov = record["provenance"]
        assert prov["block_size"] == _mc.BLOCK_SIZE
        assert prov["nproc"] >= 1 and prov["workers"] >= 1
        assert prov["thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
