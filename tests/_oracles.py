"""Independent oracles and test-only helpers shared by the unit and acceptance suites."""

import json
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gausstube import tube
from gausstube._mc import as_seed_sequence, block_sizes, fsum_arrays
from gausstube.errors import GausstubeError, ProjectionError
from gausstube.fields import FieldSample, ParamSpace, simulate_field
from gausstube.functionals import quadratic
from gausstube.gmf import KERNEL_CUT, RegionSpec
from gausstube.malliavin import (
    DEFAULT_GRAD_FLOOR,
    SmoothFunctional,
    dense_moments,
    grad_norms,
    hessian_moments,
    jacobian_coeffs,
)
from gausstube.series import exp_series, hermite_all
from gausstube.tube import PROJECTION_TOL, distances


def eigen_product_series(lams, order):
    """Expand prod_i (1 + rho*lam_i) e^{-rho*lam_i} by per-eigenvalue convolution.

    Deliberately avoids the library's trace-power route so the two paths
    stay independent.
    """
    out = np.zeros(order + 1)
    out[0] = 1.0
    for lam in lams:
        e = np.array([(-lam) ** m / math.factorial(m) for m in range(order + 1)])
        f = e.copy()
        f[1:] += lam * e[:-1]
        out = np.convolve(out, f)[: order + 1]
    return out


def det2_series(a: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of ρ ↦ det₂(I + ρA) = Π(1+ρλᵢ)e^{−ρλᵢ}, shape (order+1,).

    Uses log det₂(I+ρA) = Σ_{m≥2} (−1)^{m+1} tr(Aᵐ) ρᵐ/m with the traces
    of ``hessian_moments``, so no eigendecomposition is needed: the τ-only
    part of ``jacobian_coeffs_from_moments``, without τ₁ and the −ρ²/2 term.
    Coefficient 0 is 1 and coefficient 1 is 0 for every A (the exponential
    factor cancels the trace).
    """
    a = np.asarray(a, dtype=float)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    tau, _ = hessian_moments(a[None], np.zeros((1, a.shape[0])), order)
    expo = np.zeros((order + 1, 1))
    for m in range(2, order + 1):
        expo[m] = (1.0 if m % 2 else -1.0) * tau[m - 1, 0] / m
    return exp_series(expo)[:, 0]


def wave_cov(cov, x, y):
    """C(x, y) = Σ_k w_k² cos⟨ω_k, x−y⟩ of ``cov`` between the rows of two point
    arrays, (B,); a single point is a one-row array."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return np.cos((x - y) @ cov.frequencies.T) @ cov.weights**2


def lambda2_fd(cov, step=1e-4):
    """Mixed-partial finite difference ∂²C/∂x_a∂y_b of ``cov`` at the diagonal."""
    d = cov.dim
    out = np.empty((d, d))
    for a in range(d):
        for b in range(d):
            ea = np.zeros(d)
            eb = np.zeros(d)
            ea[a] = step
            eb[b] = step
            out[a, b] = (
                wave_cov(cov, ea, eb)
                - wave_cov(cov, ea, -eb)
                - wave_cov(cov, -ea, eb)
                + wave_cov(cov, -ea, -eb)
            )[0] / (4.0 * step * step)
    return out


def grid_points(space):
    """All grid points of ``space`` as a (G, dim) array (row-major over the grid)."""
    axes = np.meshgrid(*map(space.axis_points, range(space.dim)), indexing="ij")
    return np.column_stack([axis.ravel() for axis in axes])


def dense_basis(space, cov):
    """The (2K, G) wave basis of ``cov`` by the phase route: the (G, K) phases
    ⟨ω_k, x⟩ of every grid point, then w_k·cos and w_k·sin of each."""
    phase = grid_points(space) @ cov.frequencies.T
    waves = np.concatenate([cov.weights * np.cos(phase), cov.weights * np.sin(phase)], axis=1)
    return np.ascontiguousarray(waves.T)


def _wave_increments(space, cov, time_n, seed):
    """The wave basis and the (time_n, 2K) increments ``simulate_field`` draws from ``seed``."""
    basis = cov.basis(space)
    gen = np.random.default_rng(as_seed_sequence(seed))
    return basis, gen.standard_normal((time_n, basis.shape[0])) / np.sqrt(time_n)


def ito_loop_field(space, cov, potential, time_n, seed):
    """Flat field values of ``simulate_field(..., [seed])`` by the left-point time loop.

    Draws the increments from ``seed`` exactly as ``simulate_field`` does and
    sums V(b)·db one time step at a time, whatever V is.  Each step's db is
    the product the library's loop computes for one row of its block, the
    (1, 1, 2K) increment stack times the basis, so the two loops agree bit
    for bit.
    """
    basis, increments = _wave_increments(space, cov, time_n, seed)
    b = np.zeros(basis.shape[1])
    f = np.zeros(basis.shape[1])
    for i in range(time_n):
        db = (increments[None, i : i + 1] @ basis)[0, 0]
        f += potential.value(b) * db
        b += db
    return f


def driving_paths(space, cov, time_n, seed):
    """The (time_n + 1, 2K) Brownian wave paths behind ``simulate_field(..., [seed])``.

    B^x(i/time_n) is row i times the wave-basis column of x.
    """
    _, increments = _wave_increments(space, cov, time_n, seed)
    return np.vstack([np.zeros((1, increments.shape[1])), np.cumsum(increments, axis=0)])


def spawned_field_stats(space, cov, potential, u_levels, time_n, reps, rng, statistic):
    """``(means, stderrs)`` of ``statistic(sample, u_levels)`` over ``reps`` fields
    seeded one replication at a time.

    Field i is drawn alone, from the state of ``np.random.default_rng`` on
    child i of ``as_seed_sequence(rng).spawn(reps)``: a SeedSequence and a
    Generator per replication, the seeding rule the field estimators
    reproduce in one vectorized pass.  Unlike them, it advances ``rng``'s
    spawn counter.
    """
    basis = cov.basis(space)
    rows = []
    for child in as_seed_sequence(rng).spawn(reps):
        state = np.random.default_rng(child).bit_generator.state
        rows.append(statistic(simulate_field(space, basis, potential, time_n, [state]), u_levels))
    stats = np.concatenate(rows, axis=1, dtype=float)
    return stats.mean(axis=1), stats.std(axis=1, ddof=1) / np.sqrt(reps)


def series_mul(a, b) -> np.ndarray:
    """Cauchy product of two coefficient arrays, truncated at their common order J."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(
            f"series_mul: order mismatch ({a.shape[0] - 1} vs {b.shape[0] - 1}); "
            "operands must be truncated at the same degree"
        )
    return np.convolve(a, b)[: a.shape[0]]


def half_norm_squared(dim: int) -> SmoothFunctional:
    """F(x) = ‖x‖²/2; convex with gradient x and Hessian I."""

    def hessians(x):
        return np.broadcast_to(np.eye(dim), (x.shape[0], dim, dim)).copy()

    return SmoothFunctional(
        dim=dim,
        values=lambda x: 0.5 * np.einsum("bi,bi->b", x, x),
        grads=lambda x: x.copy(),
        hessians=hessians,
        moments_batch=dense_moments(hessians),
    )


def affine_quadratic(a, b, c=0.0) -> SmoothFunctional:
    """F(x) = ½ xᵀA x + bᵀx + c: ``gausstube.functionals.quadratic`` plus a linear
    and a constant term, which no region of the library needs."""
    quad = quadratic(a)
    b = np.asarray(b, dtype=float)
    return SmoothFunctional(
        dim=quad.dim,
        values=lambda x: quad.values(x) + x @ b + c,
        grads=lambda x: quad.grads(x) + b,
        hessians=quad.hessians,
        moments_batch=quad.moments_batch,
    )


@dataclass(frozen=True)
class VectorField:
    """A vector field on ℝᵏ with a Jacobian oracle.

    ``jacobian(x)[i, j]`` is ∂Vᵢ/∂xⱼ(x).
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def constant(cls, h: np.ndarray) -> "VectorField":
        h = np.asarray(h, dtype=float)
        k = h.shape[0]
        return cls(dim=k, value=lambda x: h, jacobian=lambda x: np.zeros((k, k)))

    @classmethod
    def linear(cls, a: np.ndarray) -> "VectorField":
        """x ↦ A x."""
        a = np.asarray(a, dtype=float)
        return cls(dim=a.shape[0], value=lambda x: a @ x, jacobian=lambda x: a)


def divergence(v: VectorField, x: np.ndarray) -> float:
    """Gaussian divergence δ(V)(x) = ⟨V(x), x⟩ − tr ∇V(x)."""
    x = np.asarray(x, dtype=float)
    return float(np.dot(v.value(x), x) - np.trace(v.jacobian(x)))


class ValidityRadiusError(GausstubeError, ValueError):
    """Tube radius left the region where the change-of-measure density is positive."""


def ramer_density(
    eta: VectorField, rho: float, x: np.ndarray, check_positive: bool = True
) -> float:
    """Change-of-variables density Y_ρ^η(x) for the shift x ↦ x + ρη(x).

    Evaluates det₂ by the exact determinant route, independent of the
    library's trace-power series.  For small ρ the det₂ factor is positive
    and no modulus is applied; a non-positive factor means ρ left the
    validity radius of the expansion and raises :class:`ValidityRadiusError`.

    The ρ = 0 density is exactly 1.  For a constant field η ≡ h the density
    reduces to the Cameron–Martin factor exp(−ρ⟨h,x⟩ − ρ²‖h‖²/2), and the
    corresponding shift identity reads E[g(x − ρh)] = E[g(x)·Y_ρ^h(x)].
    """
    x = np.asarray(x, dtype=float)
    e = np.asarray(eta.value(x), dtype=float)
    jac = np.asarray(eta.jacobian(x), dtype=float)
    k = e.shape[0]
    det_factor = float(np.linalg.det(np.eye(k) + rho * jac))
    if check_positive and det_factor <= 0.0:
        raise ValidityRadiusError(
            f"det(I + rho*grad eta) = {det_factor:.3e} <= 0 at rho={rho}; "
            "sample lies outside the validity radius"
        )
    delta = float(np.dot(e, x) - np.trace(jac))
    log_y = (
        -rho * np.trace(jac)  # turns det into det2
        - rho * delta
        - 0.5 * rho**2 * float(np.dot(e, e))
    )
    return det_factor * float(np.exp(log_y))


def unit_normal(
    func: SmoothFunctional,
    orientation: int,
    x: np.ndarray,
    grad_floor: float = DEFAULT_GRAD_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normal η = s·∇F/‖∇F‖ and its Jacobian ∇η at one point.

    ``orientation`` s is +1 for sub-level regions {F ≤ u} and −1 for
    excursion regions {F ≥ u}.  The Jacobian is the exact derivative of the
    normalized gradient,

        ∇η = s·(∇²F/‖∇F‖ − ∇F (∇F)ᵀ ∇²F / ‖∇F‖³).
    """
    if orientation not in (+1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    x = np.asarray(x, dtype=float)
    g = func.grads(x[None])[0]
    gn = float(np.linalg.norm(g))
    if gn < grad_floor:
        raise ValueError(f"gradient norm {gn:.3e} below floor {grad_floor:.1e} at x={x!r}")
    h = func.hessians(x[None])[0]
    eta = orientation * g / gn
    hg = h @ g
    eta_jac = orientation * (h / gn - np.outer(g, hg) / gn**3)
    return eta, eta_jac


def jacobian_series(func, x, order, orientation):
    """``jacobian_coeffs`` at the rows of x with ``func``'s gradients and moments:
    ``(coeffs, degenerate)``, coeffs (order+1, B)."""
    grads = func.grads(x)
    return jacobian_coeffs(
        x, grads, grad_norms(grads), lambda v: func.moments_batch(x, v, order), orientation
    )


def reference_jacobian_coeffs(func, orientation, x, order, grad_floor=DEFAULT_GRAD_FLOOR):
    """The Jacobian series at one point, (order+1,), from the dense normal Jacobian ∇η.

    Assembles exp(−ρ·δ(η) − ρ²/2 + Σ_{m≥2} (−1)^{m+1} tr((∇η)ᵐ) ρᵐ/m) from
    trace powers of ∇η.  It shares only the functional's oracles and the
    final exponentiation with the library's moment route (determinant lemma
    on τ_m = tr(Hᵐ), μ_k = vᵀHᵏv).
    """
    x = np.asarray(x, dtype=float)
    eta, eta_jac = unit_normal(func, orientation, x, grad_floor)
    expo = np.zeros(order + 1)
    if order >= 1:
        expo[1] = -(float(np.dot(eta, x)) - np.trace(eta_jac))
    p = eta_jac
    for m in range(2, order + 1):
        p = p @ eta_jac
        expo[m] = (-1) ** (m + 1) * np.trace(p) / m
    if order >= 2:
        expo[2] -= 0.5
    return exp_series(expo[:, None])[:, 0]


def dense_surface_sums(func, kind, levels, order, n_samples, eps, rng):
    """The co-area estimator of ``gmf_surface_mc_levels`` with dense block sums.

    Draws the estimator's samples (the same blocks and substreams of
    ``rng``) and, at the given bandwidth ``eps``, builds each level's full
    (block, J+1) weight array: column 0 the region indicator, columns 1..J
    the weights j!·c_j·‖∇F‖·κ_ε on the kernel window and zero elsewhere.  Its
    block sums are ``w.sum(axis=0)`` and ``w.T @ w`` over every row.  Returns,
    per level, ``(values, cov, n_window, n_degenerate)``.
    """
    regions = [RegionSpec(func, float(u), kind) for u in levels]
    sizes = block_sizes(n_samples)
    children = as_seed_sequence(rng).spawn(len(sizes) + 1)
    factorials = np.array([math.factorial(j) for j in range(order)], dtype=float)
    parts = [[] for _ in regions]
    for b, size in enumerate(sizes):
        x = func.sample(np.random.default_rng(children[b + 1]), size)
        fv = func.values(x)
        for region, acc in zip(regions, parts):
            t = (fv - region.level) / eps
            idx = np.nonzero(np.abs(t) <= KERNEL_CUT)[0]
            w = np.zeros((size, order + 1))
            w[:, 0] = region.contains_values(fv)
            n_degenerate = 0
            if order >= 1 and idx.size:
                xw = x[idx]
                grads = func.grads(xw)
                gn = np.linalg.norm(grads, axis=1)
                if order >= 2:
                    coeffs, degenerate = jacobian_coeffs(
                        xw, grads, grad_norms(grads),
                        lambda v: func.moments_batch(xw, v, order - 1),
                        region.orientation,
                    )
                else:
                    degenerate = gn < DEFAULT_GRAD_FLOOR
                    coeffs = np.where(degenerate, 0.0, 1.0)[None, :]
                kappa = np.exp(-0.5 * t[idx] ** 2) / (eps * math.sqrt(2.0 * math.pi))
                base = np.where(degenerate, 0.0, gn * kappa)
                w[idx, 1:] = (coeffs * base * factorials[:, None]).T
                n_degenerate = int(degenerate.sum())
            acc.append((w.sum(axis=0), w.T @ w, idx.size, n_degenerate))
    n = float(n_samples)
    out = []
    for acc in parts:
        mean = fsum_arrays([a[0] for a in acc]) / n
        s2 = fsum_arrays([a[1] for a in acc])
        cov = (s2 - n * np.outer(mean, mean)) / (n - 1.0) / n
        out.append((mean, cov, sum(a[2] for a in acc), sum(a[3] for a in acc)))
    return out


def normal_field(
    func: SmoothFunctional,
    orientation: int,
    grad_floor: float = DEFAULT_GRAD_FLOOR,
) -> VectorField:
    """The outward unit normal of {F ≤ u} / {F ≥ u} packaged as a VectorField."""

    def value(x):
        return unit_normal(func, orientation, x, grad_floor)[0]

    def jacobian(x):
        return unit_normal(func, orientation, x, grad_floor)[1]

    return VectorField(dim=func.dim, value=value, jacobian=jacobian)


def check_derivatives(
    func: SmoothFunctional,
    rng: np.random.Generator,
    n_probes: int = 50,
    rel_tol: float = 1e-5,
) -> None:
    """Verify gradients and Hessians against central finite differences at Gaussian probes.

    The step is 1e−4·(1+‖x‖); gradients of ``values`` and Hessians of
    ``grads`` must match to relative error ``rel_tol``, and the Hessian must
    be symmetric to 1e−10.  A functional without ``hessians`` has only its
    gradient checked.  Each probe evaluates the batch oracles on one stack
    of the point and its 2k shifted copies, so this checks what the Monte
    Carlo kernels evaluate.  Raises AssertionError on failure.
    """
    k = func.dim
    for _ in range(n_probes):
        x = rng.standard_normal(k)
        step = 1e-4 * (1.0 + np.linalg.norm(x))
        shifts = step * np.eye(k)
        stack = np.concatenate([x[None], x + shifts, x - shifts])
        values, grads = func.values(stack), func.grads(stack)
        g = grads[0]
        g_fd = (values[1 : k + 1] - values[k + 1 :]) / (2 * step)
        h_fd = ((grads[1 : k + 1] - grads[k + 1 :]) / (2 * step)).T
        scale_g = max(1.0, float(np.linalg.norm(g)))
        if np.linalg.norm(g_fd - g) > rel_tol * scale_g:
            raise AssertionError(
                f"gradient mismatch at x={x!r}: |fd-grad| = "
                f"{np.linalg.norm(g_fd - g):.3e} (scale {scale_g:.3e})"
            )
        if func.hessians is None:
            continue
        h = func.hessians(x[None])[0]
        if np.max(np.abs(h - h.T)) > 1e-10:
            raise AssertionError(f"Hessian not symmetric at x={x!r}")
        scale_h = max(1.0, float(np.linalg.norm(h)))
        if np.linalg.norm(h_fd - h) > rel_tol * scale_h:
            raise AssertionError(
                f"Hessian mismatch at x={x!r}: |fd-hess| = "
                f"{np.linalg.norm(h_fd - h):.3e} (scale {scale_h:.3e})"
            )


def check_jacobian(
    field: VectorField,
    rng: np.random.Generator,
    n_probes: int = 50,
    rel_tol: float = 1e-5,
) -> None:
    """Finite-difference validation of a VectorField's Jacobian oracle."""
    k = field.dim
    for _ in range(n_probes):
        x = rng.standard_normal(k)
        step = 1e-4 * (1.0 + np.linalg.norm(x))
        jac = np.asarray(field.jacobian(x), dtype=float)
        jac_fd = np.empty((k, k))
        for i in range(k):
            e = np.zeros(k)
            e[i] = step
            jac_fd[:, i] = (np.asarray(field.value(x + e)) - np.asarray(field.value(x - e))) / (2 * step)
        scale = max(1.0, float(np.linalg.norm(jac)))
        if np.linalg.norm(jac_fd - jac) > rel_tol * scale:
            raise AssertionError(
                f"Jacobian mismatch at x={x!r}: |fd-jac| = "
                f"{np.linalg.norm(jac_fd - jac):.3e}"
            )


@dataclass(frozen=True)
class HermiteEval:
    """A single Hermite evaluation (degree, argument, value) record."""

    degree: int
    argument: float
    value: float

    @classmethod
    def at(cls, degree: int, argument: float) -> "HermiteEval":
        return cls(degree, float(argument), float(hermite_all(degree, argument)[degree]))


def retract_to_level(func, y, u, tol_f):
    """Damped Newton steps along ∇F back to the level set {F = u} (one point)."""
    for _ in range(tube.RETRACTION_MAXITER):
        f = float(func.values(y[None])[0])
        if abs(f - u) <= tol_f:
            return y
        g = func.grads(y[None])[0]
        gn2 = float(np.dot(g, g))
        if gn2 == 0.0:
            break
        y = y - (f - u) * g / gn2
    residual = abs(float(func.values(y[None])[0]) - u)
    raise ProjectionError(f"level-set retraction failed to converge (|F - u| = {residual:.1e})")


def project_distance(oracle, x):
    """Distance from one exterior point to the boundary via projected gradient.

    The per-point reference for ``gausstube.tube.distances``: the same
    retraction, KKT test, Armijo backtracking and iteration caps, one point
    at a time with the scalar oracles.
    """
    region = oracle.region
    func = region.functional
    u = region.level
    tol = PROJECTION_TOL
    tol_f = tol * (1.0 + abs(u))

    y = retract_to_level(func, x.copy(), u, tol_f)
    res = math.inf
    for _ in range(tube.PROJECTION_MAXITER):
        g = func.grads(y[None])[0]
        n = g / np.linalg.norm(g)
        d = y - x
        dist2 = float(np.dot(d, d))
        if dist2 == 0.0:
            return 0.0
        gt = d - np.dot(d, n) * n
        gt_norm2 = float(np.dot(gt, gt))
        res = math.sqrt(gt_norm2) / max(1.0, math.sqrt(dist2))
        if res < tol:
            return math.sqrt(dist2)
        step = 1.0
        accepted = False
        for _ in range(40):
            y_try = retract_to_level(func, y - step * gt, u, tol_f)
            if float(np.dot(y_try - x, y_try - x)) <= dist2 - 1e-4 * step * gt_norm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        y = y_try
    raise ProjectionError(
        f"projection did not reach KKT residual {tol:.1e} in "
        f"{tube.PROJECTION_MAXITER} iterations (residual {res:.1e})"
    )


def dist_to_region(oracle, x):
    """Euclidean distance from a single point: ``gausstube.tube.distances`` on one row."""
    d, failures = distances(oracle, np.asarray(x, dtype=float)[None, :])
    if failures:
        raise ProjectionError(
            f"projection failed to reach KKT residual {PROJECTION_TOL:.1e} "
            f"within {tube.PROJECTION_MAXITER} iterations"
        )
    return float(d[0])


def reference_distances(oracle, x):
    """(distances, failure mask) of a (B, k) stack, one ``project_distance`` per exterior point."""
    region = oracle.region
    out = np.zeros(x.shape[0])
    failed = np.zeros(x.shape[0], dtype=bool)
    inside = region.contains_values(region.functional.values(x))
    for i, row in enumerate(x):
        if inside[i]:
            continue
        try:
            out[i] = project_distance(oracle, row)
        except ProjectionError:
            out[i] = np.nan
            failed[i] = True
    return out, failed


def reference_euler_char(sample: FieldSample, u: float) -> np.ndarray:
    """(R,) χ of {f ≥ u}, one field of the block at a time, counted kind by
    kind: #V − #E (+ #squares on the torus).

    The library counts the same vertex-thresholded complex as a product of
    axes, for every level and field at once; this hand-written count per
    kind and per field is its oracle.
    """
    kind = sample.space.kind
    out = []
    for values in sample.f_values:
        above = values >= u
        v = int(above.sum())
        if kind == "interval":
            out.append(v - int(np.count_nonzero(above[:-1] & above[1:])))
        elif kind == "circle":
            out.append(v - int(np.count_nonzero(above & np.roll(above, -1))))
        else:
            right = np.roll(above, -1, axis=0)
            up = np.roll(above, -1, axis=1)
            e = int(np.count_nonzero(above & right)) + int(np.count_nonzero(above & up))
            f = int(np.count_nonzero(above & right & up & np.roll(right, -1, axis=1)))
            out.append(v - e + f)
    return np.array(out)


_EXPORT_MAGIC = b"GTFS"
_EXPORT_VERSION = 1


def save_field(sample: FieldSample, path, u_levels=()) -> None:
    """Write a field sample as magic + version + JSON header + raw float64.

    Layout (little endian): 4-byte magic ``GTFS``, uint32 version, uint32
    header length, UTF-8 JSON header, then the C-order float64 values of the
    (R, *grid) block.
    The header records kind, lengths, grid and any threshold levels of
    interest.
    """
    header = {
        "version": _EXPORT_VERSION,
        "kind": sample.space.kind,
        "lengths": list(sample.space.lengths),
        "grid": sample.space.grid,
        "u_levels": list(map(float, u_levels)),
        "shape": list(sample.f_values.shape),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_EXPORT_MAGIC)
        fh.write(struct.pack("<II", _EXPORT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(sample.f_values, dtype="<f8").tobytes())


def load_field(path) -> tuple[FieldSample, dict]:
    """Read a sample written by :func:`save_field`; returns (sample, header)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _EXPORT_MAGIC:
            raise ValueError(f"not a field export (magic {magic!r})")
        version, hlen = struct.unpack("<II", fh.read(8))
        if version != _EXPORT_VERSION:
            raise ValueError(f"unsupported export version {version}")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(header["shape"])
    space = ParamSpace(header["kind"], tuple(header["lengths"]), header["grid"])
    sample = FieldSample(space=space, f_values=data)
    return sample, header
