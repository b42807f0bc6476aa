"""Direct Monte Carlo measurement of Gaussian tube volumes.

γ_k(Tube(A, ρ)) is estimated as the fraction of canonical Gaussian samples
whose Euclidean distance to A is at most ρ.  This route never touches the
surface-integral machinery, so it validates the Minkowski-functional tube
series independently.  Distances come either from closed forms (half-space,
ball, two-sided slab complement) or from a projection solver for general
convex sub-level regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from ._mc import as_seed_sequence, block_sizes, run_blocks
from .errors import ProjectionError
from .functionals import coordinate, norm, quadratic
from .gmf import GmfVector, RegionSpec, assemble_tube_series

#: KKT residual of a converged projection; a retraction stops at |F − u| ≤ it·(1 + |u|).
PROJECTION_TOL = 1e-8

#: Gaussian points at which :func:`projection_oracle` checks the Hessian is PSD.
CONVEXITY_PROBES = 100

#: Outer projected-gradient iterations a projection may take before it fails.
PROJECTION_MAXITER = 500

#: Newton steps a retraction to the level set may take before it fails.
RETRACTION_MAXITER = 60


@dataclass(frozen=True)
class DistanceOracle:
    """Euclidean distance to a region, d(x) = inf{‖x−y‖ : y ∈ A}.

    ``formula`` maps a (B, k) stack to its B distances, NaN where a solve
    failed.  ``method`` labels how: ``'closed-form'`` (a vectorized
    expression) or ``'projection'`` (projected-gradient descent on the
    boundary level set with Armijo backtracking, KKT residual below
    ``PROJECTION_TOL`` within ``PROJECTION_MAXITER`` iterations).
    d(x) = 0 exactly when x lies in the region; d is 1-Lipschitz.
    """

    region: RegionSpec
    method: str
    formula: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.method not in ("closed-form", "projection"):
            raise ValueError(f"unknown distance method {self.method!r}")


def halfspace_oracle(u: float, dim: int) -> DistanceOracle:
    """Distance to the excursion half-space {x₁ ≥ u}: (u − x₁)⁺."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    region = RegionSpec(coordinate(dim), u, "excursion")
    return DistanceOracle(
        region, "closed-form",
        formula=lambda x: np.clip(u - x[:, 0], 0.0, None),
    )


def ball_oracle(radius: float, dim: int) -> DistanceOracle:
    """Distance to the ball {‖x‖ ≤ R}: (‖x‖ − R)⁺."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    region = RegionSpec(norm(dim), radius, "sub-level")
    return DistanceOracle(
        region, "closed-form",
        formula=lambda x: np.clip(np.linalg.norm(x, axis=1) - radius, 0.0, None),
    )


def two_sided_oracle(a: float, dim: int) -> DistanceOracle:
    """Distance to the two-sheeted region {|x₁| ≥ a}: (a − |x₁|)⁺.

    The region is cut out smoothly as {x₁² ≥ a²}.
    """
    if a <= 0:
        raise ValueError(f"threshold must be positive, got {a}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    quad = np.zeros((dim, dim))
    quad[0, 0] = 2.0  # F(x) = x₁²
    region = RegionSpec(quadratic(quad), a * a, "excursion")
    return DistanceOracle(
        region, "closed-form",
        formula=lambda x: np.clip(a - np.abs(x[:, 0]), 0.0, None),
    )


def projection_oracle(region: RegionSpec) -> DistanceOracle:
    """Projection-solver oracle for a convex region.

    Convexity is assumed, not verified globally; a sampled check (Hessian
    PSD at ``CONVEXITY_PROBES`` Gaussian points of a fixed seed) runs once
    here and rejects clearly non-convex functionals, and functionals
    without ``hessians``.
    """
    if region.functional.hessians is None:
        raise ValueError("the projection solver's convexity check needs hessians")
    probes = np.random.default_rng(0).standard_normal((CONVEXITY_PROBES, region.dim))
    hess = region.functional.hessians(probes)
    min_eig = float(np.min(np.linalg.eigvalsh(hess)))
    if min_eig < -1e-6 * max(1.0, float(np.max(np.abs(hess)))):
        raise ValueError(
            f"functional fails the sampled convexity check (min Hessian "
            f"eigenvalue {min_eig:.3e}); projection distances need a convex level structure"
        )
    return DistanceOracle(region, "projection", formula=partial(_projection_distances, region))


def _sq_norms(v: np.ndarray) -> np.ndarray:
    return np.einsum("bi,bi->b", v, v)


def _retract_to_level(func, y: np.ndarray, u: float, tol_f: float):
    """Damped Newton steps along ∇F back to the level set {F = u}, row by row.

    Returns the retracted (m, k) stack and a mask of the rows that reached
    |F − u| ≤ ``tol_f`` within ``RETRACTION_MAXITER`` steps; a row whose
    gradient vanishes first fails.
    """
    y = y.copy()
    ok = np.zeros(y.shape[0], dtype=bool)
    active = np.arange(y.shape[0])
    for _ in range(RETRACTION_MAXITER):
        if active.size == 0:
            break
        r = func.values(y[active]) - u
        done = np.abs(r) <= tol_f
        ok[active[done]] = True
        active, r = active[~done], r[~done]
        g = func.grads(y[active])
        gn2 = _sq_norms(g)
        moving = gn2 != 0.0
        active, r, g, gn2 = active[moving], r[moving], g[moving], gn2[moving]
        y[active] -= r[:, None] * g / gn2[:, None]
    return y, ok


def _project_exterior(region: RegionSpec, x: np.ndarray) -> np.ndarray:
    """Distances from a (m, k) stack of exterior points to the region's boundary.

    Projected gradient on the level set, all rows at once: a row stays
    active until its KKT tangential residual drops below ``PROJECTION_TOL``
    (or its distance is 0), and fails — NaN — when a retraction does not
    converge, 40 Armijo halvings find no sufficient decrease, or
    ``PROJECTION_MAXITER`` iterations pass.
    """
    func = region.functional
    u = region.level
    tol_f = PROJECTION_TOL * (1.0 + abs(u))

    out = np.full(x.shape[0], np.nan)
    y, ok = _retract_to_level(func, x, u, tol_f)
    active = np.nonzero(ok)[0]
    for _ in range(PROJECTION_MAXITER):
        if active.size == 0:
            break
        xa, ya = x[active], y[active]
        g = func.grads(ya)
        n = g / np.linalg.norm(g, axis=1)[:, None]
        d = ya - xa
        dist2 = _sq_norms(d)
        gt = d - np.einsum("bi,bi->b", d, n)[:, None] * n  # tangential part; KKT wants it zero
        gt_norm2 = _sq_norms(gt)
        res = np.sqrt(gt_norm2) / np.maximum(1.0, np.sqrt(dist2))
        zero = dist2 == 0.0
        out[active[zero]] = 0.0
        conv = ~zero & (res < PROJECTION_TOL)
        out[active[conv]] = np.sqrt(dist2[conv])
        live = ~(zero | conv)
        active, xa, ya, gt = active[live], xa[live], ya[live], gt[live]
        dist2, gt_norm2 = dist2[live], gt_norm2[live]

        # Armijo backtracking; ``trying`` indexes the rows still halving
        step = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        trying = np.arange(active.size)
        for _ in range(40):
            if trying.size == 0:
                break
            y_try, retracted = _retract_to_level(
                func, ya[trying] - step[trying, None] * gt[trying], u, tol_f
            )
            decrease = _sq_norms(y_try - xa[trying]) <= (
                dist2[trying] - 1e-4 * step[trying] * gt_norm2[trying]
            )
            good = retracted & decrease
            y[active[trying[good]]] = y_try[good]
            accepted[trying[good]] = True
            trying = trying[retracted & ~decrease]
            step[trying] *= 0.5
        active = active[accepted]
    return out


def _projection_distances(region: RegionSpec, x: np.ndarray) -> np.ndarray:
    """0 inside the region, the projection distance of each exterior point outside."""
    out = np.zeros(x.shape[0])
    exterior = np.nonzero(~region.contains_values(region.functional.values(x)))[0]
    out[exterior] = _project_exterior(region, x[exterior])
    return out


def distances(oracle: DistanceOracle, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Distances for a (B,k) stack; returns (values, solver_failures).

    Failed projections are reported as NaN and counted.
    """
    d = np.asarray(oracle.formula(np.asarray(x, dtype=float)), dtype=float)
    return d, int(np.count_nonzero(np.isnan(d)))


def tube_volumes_mc(
    oracle: DistanceOracle,
    rho_grid,
    n_samples: int,
    rng=0,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate γ_k(Tube(A, ρ)) = P(d(X) ≤ ρ) with binomial standard errors.

    The distances do not depend on ρ, so one sample set serves the whole
    grid: each block solves its distances once and counts d ≤ ρ for every
    ρ.  Entry i is bit-identical to a call with ``rho_grid = [rho_grid[i]]``
    and the same ``rng``.  Any failed projection solve raises ProjectionError:
    failures are not missing at random, so dropping them would bias the estimate.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    if rho_grid.ndim != 1 or rho_grid.size == 0:
        raise ValueError("rho_grid must be a non-empty list of radii")
    if not np.all(rho_grid >= 0):
        raise ValueError(f"every rho must be >= 0, got {rho_grid.tolist()}")
    root = as_seed_sequence(rng)
    sizes = block_sizes(n_samples)
    children = root.spawn(len(sizes))

    def one_block(b: int):
        gen = np.random.default_rng(children[b])
        x = oracle.region.functional.sample(gen, sizes[b])
        d, failures = distances(oracle, x)
        return [int(np.count_nonzero(d <= rho)) for rho in rho_grid], failures

    results = run_blocks(one_block, len(sizes), workers)
    failures = sum(r[1] for r in results)
    if failures:
        raise ProjectionError(f"{failures} of {n_samples} projection solves failed")
    est = np.sum([r[0] for r in results], axis=0) / n_samples
    return est, np.sqrt(est * (1.0 - est) / n_samples)


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the tube series against direct tube-volume Monte Carlo."""

    rho_grid: np.ndarray
    tube_estimates: np.ndarray
    tube_stderr: np.ndarray
    series_values: np.ndarray
    residuals: np.ndarray
    max_abs_residual: float
    slope: Optional[float]
    noise_floor: bool

    def rows(self) -> list[dict]:
        out = []
        for i, rho in enumerate(self.rho_grid):
            out.append(
                {
                    "rho": float(rho),
                    "tube_mc": float(self.tube_estimates[i]),
                    "stderr": float(self.tube_stderr[i]),
                    "series": float(self.series_values[i]),
                    "residual": float(self.residuals[i]),
                }
            )
        return out


def validate_tube_series(
    oracle: DistanceOracle,
    gmfs: GmfVector,
    rho_grid,
    n_samples: int,
    rng=0,
    workers: int = 1,
) -> ValidationReport:
    """Compare tube-volume Monte Carlo with the truncated Minkowski series.

    Reports per-ρ residuals r(ρ) = tube_mc − series, the maximum |r|, and
    the log–log slope of |r| against ρ fitted on the points with ρ > 0 and
    |r| > 2·stderr; the slope is None when fewer than two such points
    remain, in which case the residuals sit at the Monte Carlo noise floor.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    est, se = tube_volumes_mc(
        oracle, rho_grid, n_samples, rng=as_seed_sequence(rng).spawn(1)[0], workers=workers
    )
    series = np.array([assemble_tube_series(gmfs, float(rho)) for rho in rho_grid])
    residuals = est - series

    signal = (np.abs(residuals) > 2.0 * se) & (rho_grid > 0)  # log ρ needs ρ > 0
    slope = None
    if int(signal.sum()) >= 2:
        lx = np.log(rho_grid[signal])
        ly = np.log(np.abs(residuals[signal]))
        slope = float(np.polyfit(lx, ly, 1)[0])
    noise_floor = bool(np.all(np.abs(residuals) <= 4.0 * se))
    return ValidationReport(
        rho_grid=rho_grid,
        tube_estimates=est,
        tube_stderr=se,
        series_values=series,
        residuals=residuals,
        max_abs_residual=float(np.max(np.abs(residuals))),
        slope=slope,
        noise_floor=noise_floor,
    )
