"""The benchmark's four workloads: configs, accuracy targets and output checks.

Each workload is a config that ``gausstube.harness.run`` accepts.  The shape
fields (space, covariance, potential, levels, n, J, workers) set which layers
do the work and are kept from the experiments they stand for; only the
sample counts (``reps``, ``N``) are scaled so that one run takes a few
seconds on a 2-core machine.  README.md in this directory says why each
workload exists and what each layer metric should move.

Checks use the band of the matching acceptance criterion in
``tests/test_acceptance.py``, applied to the estimate pooled over a fixed
set of ``check_reps`` replications whose config seeds start at that
criterion's seed (``check_seed``): one check per level, index or radius per
run.  The set does not depend on the benchmark seed or on how many timed
replications fit in a run, so a check's outcome is a property of the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # everything but "seed"
    tol: float  # target standard error for time_to_tol_s
    check_seed: int  # seed of the matching acceptance test
    check_reps: int  # replications pooled by the output check
    headline_se: Callable  # RunResult -> float
    check: Callable  # list[RunResult] -> list[Check]


def _pool(results, key_rows, value, stderr):
    """Mean of k independent estimates and the standard error of that mean."""
    k = len(results)
    rows = [key_rows(r) for r in results]
    out = []
    for i in range(len(rows[0])):
        mean = sum(r[i][value] for r in rows) / k
        se = math.sqrt(sum(r[i][stderr] ** 2 for r in rows)) / k
        out.append((rows[0][i], mean, se))
    return out


def _gkf_se(result) -> float:
    return max(math.hypot(r["ec_stderr"], r["rhs_stderr"]) for r in result.rows)


def _gkf_check(rel_floor: float):
    """|EC - RHS| <= max(3 combined stderr, rel_floor |RHS|) at every level."""

    def check(results):
        ec = _pool(results, lambda r: r.rows, "ec_mean", "ec_stderr")
        rhs = _pool(results, lambda r: r.rows, "rhs", "rhs_stderr")
        out = []
        for (row, ec_mean, ec_se), (_, rhs_mean, rhs_se) in zip(ec, rhs):
            gap = abs(ec_mean - rhs_mean)
            band = max(3.0 * math.hypot(ec_se, rhs_se), rel_floor * abs(rhs_mean))
            out.append(
                Check(f"gkf u={row['u']}", gap <= band,
                      f"|EC {ec_mean:.4f} - RHS {rhs_mean:.4f}| = {gap:.4f} vs {band:.4f}")
            )
        return out

    return check


def _top_n_rows(result):
    top = max(r["n"] for r in result.rows)
    return [r for r in result.rows if r["n"] == top]


def _converge_se(result) -> float:
    return max(r["stderr"] for r in _top_n_rows(result))


def _converge_check(results):
    """Criterion 7 at the largest n: err <= max(4 stderr, 10% of the target).

    A target that is exactly zero is read at the scale of the target vector.
    """
    pooled = _pool(results, _top_n_rows, "estimate", "stderr")
    scale = max(abs(row["target"]) for row, _, _ in pooled)
    out = []
    for row, est, se in pooled:
        target = row["target"]
        band = max(4.0 * se, 0.10 * (abs(target) if target != 0.0 else scale))
        err = abs(est - target)
        out.append(
            Check(f"converge n={row['n']} M_{row['j']}", err <= band,
                  f"|{est:.4f} - {target:.4f}| = {err:.4f} vs {band:.4f}")
        )
    return out


def _tube_se(result) -> float:
    return max(r["stderr"] for r in result.rows)


def _tube_check(results):
    """The noise-floor test: |residual| <= 4 stderr at every radius."""
    pooled = _pool(results, lambda r: r.rows, "residual", "stderr")
    return [
        Check(f"noise_floor rho={row['rho']}", abs(res) <= 4.0 * se,
              f"|residual {res:.5f}| vs {4.0 * se:.5f}")
        for row, res, se in pooled
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="torus-ec",
            why="field side heavy: wave basis rebuilt per replication, Ito time loop and "
            "EC counting on 160k torus vertices; the GMF side is small",
            config={
                "experiment": "gkf",
                "space": {"kind": "torus", "lengths": [TWO_PI, TWO_PI], "grid": 400},
                "cov": {"preset": "torus-pair", "frequency": 2.0},
                "potential": "one",
                "u_levels": [0.5, 1.0, 1.5, 2.0],
                "n": 16,
                "J": 2,
                "N": 65536,
                "reps": 150,
                "workers": 2,
            },
            tol=0.05,
            check_seed=20_240_683,
            check_reps=4,
            headline_se=_gkf_se,
            check=_gkf_check(0.0),
        ),
        Workload(
            name="converge-hessian",
            why="curvature-kernel heavy: F_n Hessian stacks and the Jacobian series at "
            "n up to 64, no fields, one level per n",
            config={
                "experiment": "converge",
                "potential": "identity",
                "u": 0.0,
                "J": 3,
                "n_grid": [8, 16, 32, 64],
                "N": 65536,
                "workers": 2,
            },
            tol=0.003,
            check_seed=20_240_607,
            check_reps=1,
            headline_se=_converge_se,
            check=_converge_check,
        ),
        Workload(
            name="interval-gkf",
            why="headline stochastic-integral identity, single-threaded; J=1 builds no "
            "Hessian and no Jacobian series, so those mechanisms are bypassed",
            config={
                "experiment": "gkf",
                "space": {"kind": "interval", "length": 10.0, "grid": 400},
                "cov": {"preset": "cosine", "frequency": 1.0},
                "potential": "identity",
                "u_levels": [0.0, 0.5, 1.0],
                "n": 64,
                "J": 1,
                "N": 200000,
                "reps": 1000,
                "workers": 1,
            },
            tol=0.05,
            check_seed=20_240_609,
            check_reps=2,
            headline_se=_gkf_se,
            check=_gkf_check(0.10),
        ),
        Workload(
            name="tube-projection",
            why="the only workload that runs tube.distances and the per-point projection "
            "solver, a Python loop holding the GIL",
            config={
                "experiment": "tube",
                "region": {"kind": "ball", "radius": 2.0, "dim": 3},
                "method": "projection",
                "J": 6,
                "N": 65536,
                "rho_grid": [0.05, 0.1, 0.2, 0.3, 0.4],
                "workers": 2,
            },
            tol=0.001,
            check_seed=20_240_603,
            check_reps=1,
            headline_se=_tube_se,
            check=_tube_check,
        ),
    )
}
