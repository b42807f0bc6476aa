"""One benchmark run of one workload through ``gausstube.harness.run``.

Both modes first run the workload's check replications: a fixed set of
config seeds, untimed, whose pooled estimate is held to the acceptance band
(see workloads.py).  They are also the warm-up, so that timed runs do not
pay first-touch memory costs.

Untraced mode (trace off) then times replications of the workload until the
given number of seconds is used, each with its own config seed derived from
the benchmark seed, and reports the end-to-end metrics as medians over them.
Set-up time is measured in fresh interpreter processes.

Traced mode then repeats, until the seconds are used, a pair of runs with
one config seed: untraced and traced.  It requires the two payloads of a
pair to be equal bit for bit, saves and reports each traced result as the
CLI would, and reports each per-layer metric as the median over the traced
runs.

Every replication also counts as one check: it fails if the call raised or
returned a number that is not finite.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

import gausstube
from gausstube import _mc, harness

from run import ROOT, THREAD_ENV
from tracing import Tracer, layer_metrics, traced
from workloads import Check, Workload

MIN_REPS = 3
MAX_REPS = 200
SETUP_RUNS = 9
SETUP_CODE = (
    "import json, sys\n"
    "import gausstube\n"
    "from gausstube.harness import ExperimentConfig\n"
    "ExperimentConfig.from_dict(json.loads(sys.argv[1]))\n"
)


@dataclass
class Rep:
    seed: int
    run_s: float
    cpu_s: float
    result: Optional[harness.RunResult]
    error: Optional[str]


def rep_seed(seed: int, i: int) -> int:
    """Config seed of replication i of a run with benchmark seed ``seed``."""
    return seed * 1000 + i


def run_once(config: dict) -> Rep:
    """One ``harness.run`` call; an exception is recorded, not raised."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        result, error = harness.run(harness.ExperimentConfig.from_dict(config)), None
    except Exception:
        result, error = None, traceback.format_exc()
    return Rep(config["seed"], time.perf_counter() - t0, time.process_time() - c0, result, error)


def check_runs(w: Workload) -> list[Rep]:
    """The replications the output check pools: the same config seeds in every run."""
    return [run_once({**w.config, "seed": w.check_seed + i}) for i in range(w.check_reps)]


def repeat(step, seconds: float, min_reps: int) -> list:
    """``step(0), step(1), ...`` until the next would overrun ``seconds`` (at least min_reps)."""
    out, took = [], []
    start = time.perf_counter()
    while len(out) < MAX_REPS:
        t0 = time.perf_counter()
        out.append(step(len(out)))
        took.append(time.perf_counter() - t0)
        if len(out) >= min_reps and time.perf_counter() - start + statistics.median(took) > seconds:
            break
    return out


def setup_times(w: Workload, runs: int = SETUP_RUNS) -> list[float]:
    """Wall time of fresh processes that import gausstube and validate the config."""
    payload = json.dumps({**w.config, "seed": 0})
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, payload],
            cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return times


def sound(name: str, rep: Rep) -> Check:
    """The call returned, and every number in its rows is finite."""
    label = f"{name} seed={rep.seed}"
    if rep.error is not None:
        return Check(label, False, rep.error.strip().splitlines()[-1])
    bad = [
        key for row in rep.result.rows for key, value in row.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    return Check(label, not bad, f"not finite: {sorted(set(bad))}" if bad else "finite")


def output_checks(w: Workload, reps: list[Rep]) -> list[Check]:
    """Each check replication is sound, and their pooled estimate is in the band."""
    checks = [sound("check replication", r) for r in reps]
    ok = [r.result for r in reps if r.result is not None]
    if ok:
        try:
            checks += w.check(ok)
        except Exception:
            checks.append(Check("output check", False, traceback.format_exc()))
    return checks


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown: {exc}"
    return proc.stdout.strip() or "unknown"


def provenance(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": w.config,
        "tol": w.tol,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": w.config.get("workers", 1),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gausstube": gausstube.__version__,
        "gausstube_path": str(Path(gausstube.__file__).resolve().parent),
        "git_commit": git_commit(),
        "block_size": _mc.BLOCK_SIZE,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[dict, list[Check], dict]:
    checks: list[Check] = []
    try:
        setup = setup_times(w)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        setup = []
        checks.append(Check("set-up process", False, str(exc)))
    t0 = time.perf_counter()
    ref = check_runs(w)
    checks += output_checks(w, ref)
    reps = repeat(lambda i: run_once({**w.config, "seed": rep_seed(seed, i)}),
                  seconds - (time.perf_counter() - t0), MIN_REPS)
    checks += [sound("replication", r) for r in reps]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    to_tol = [
        r.run_s * (w.headline_se(r.result) / w.tol) ** 2 for r in reps if r.result is not None
    ]
    metrics = {
        "run_s": _metric(statistics.median(r.run_s for r in reps), "s"),
        "setup_s": _metric(statistics.median(setup) if setup else None, "s"),
        "cpu_s": _metric(statistics.median(r.cpu_s for r in reps), "s"),
        "time_to_tol_s": _metric(statistics.median(to_tol) if to_tol else None, "s"),
        "peak_rss_mb": _metric(peak_rss_mib, "MiB"),
    }
    details = {
        "samples": {
            "run_s": len(reps), "cpu_s": len(reps), "time_to_tol_s": len(to_tol),
            "setup_s": len(setup),
        },
        "check_replications": [_rep_record(r) for r in ref],
        "replications": [_rep_record(r) for r in reps],
        "setup_s": setup,
        "time_to_tol_s": to_tol,
    }
    return metrics, checks, details


def _rep_record(r: Rep) -> dict:
    return {"seed": r.seed, "run_s": r.run_s, "cpu_s": r.cpu_s, "error": r.error,
            "rows": r.result.rows if r.result is not None else None}


@dataclass
class TracedPair:
    plain: Rep
    traced: Rep
    tracer: Tracer
    wall_s: float


def traced_pair(w: Workload, seed: int, out_dir: Path, traced_first: bool) -> TracedPair:
    """Run one config seed untraced and traced, the traced result saved and reported.

    Callers alternate the order, so that the overhead does not carry whatever
    the first of two back-to-back runs pays.
    """
    config = {**w.config, "seed": seed}
    tracer = Tracer(run_id=f"{w.name}-{seed}")
    plain = None if traced_first else run_once(config)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        t0 = time.perf_counter()
        with traced(tracer):
            rep = run_once(config)
            if rep.result is not None:
                rep.result.save(Path(tmp) / "result.json")
                harness.report([rep.result], tmp)
        wall = time.perf_counter() - t0
    if plain is None:
        plain = run_once(config)
    return TracedPair(plain, rep, tracer, wall)


def per_layer(w: Workload, seed: int, seconds: float, out_dir: Path) -> tuple[dict, list[Check], dict]:
    t0 = time.perf_counter()
    ref = check_runs(w)
    checks = output_checks(w, ref)
    pairs = repeat(lambda i: traced_pair(w, rep_seed(seed, i), out_dir, i % 2 == 1),
                   seconds - (time.perf_counter() - t0), 1)
    per_rep, units, samples = [], {}, {}
    for p in pairs:
        checks += [sound("untraced run", p.plain), sound("traced run", p.traced)]
        if p.plain.result is not None and p.traced.result is not None:
            same = json.dumps(p.plain.result.payload(), sort_keys=True) == json.dumps(
                p.traced.result.payload(), sort_keys=True
            )
            checks.append(Check(f"traced payload == untraced payload seed={p.plain.seed}", same,
                                "bit-exact" if same else "payloads differ"))
        raw, counts = layer_metrics(p.tracer.spans)
        raw["trace.run_s"] = (p.traced.run_s, "s")
        raw["trace.overhead_s"] = (p.traced.run_s - p.plain.run_s, "s")
        raw["trace.wall_s"] = (p.wall_s, "s")
        raw["trace.spans"] = (len(p.tracer.spans), "count")
        per_rep.append({name: value for name, (value, _) in raw.items()})
        units.update({name: unit for name, (_, unit) in raw.items()})
        for name, n in counts.items():
            samples.setdefault(name, []).append(n)
    metrics = {
        name: _metric(statistics.median(r[name] for r in per_rep), unit)
        for name, unit in units.items()
    }
    spans_path = out_dir / f"{w.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps([asdict(s) for p in pairs for s in p.tracer.spans]))
    details = {
        "check_replications": [_rep_record(r) for r in ref],
        # a percentile is taken over one traced run's calls, then the median over runs
        "samples": {"traced_runs": len(pairs), **samples},
        "traced_runs": per_rep,
        "spans_file": str(spans_path),
    }
    return metrics, checks, details


def measure(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, dict]:
    """Run the workload; return the result line and a record of the run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics, checks, details = per_layer(w, seed, seconds, out_dir)
    else:
        metrics, checks, details = end_to_end(w, seed, seconds)
    failed = sum(not c.ok for c in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "provenance": provenance(w, seed, seconds, trace),
        "check_fail_frac": failed / len(checks) if checks else 0.0,
        "checks": [asdict(c) for c in checks],
        **details,
        "result": result,
    }
    (out_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return result, record
