"""Independent oracles and test-only helpers shared by the unit and acceptance suites."""

import json
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gausstube import tube
from gausstube._mc import as_seed_sequence
from gausstube.errors import GausstubeError, ProjectionError
from gausstube.fields import FieldSample, ParamSpace
from gausstube.functionals import quadratic
from gausstube.malliavin import DEFAULT_GRAD_FLOOR, SmoothFunctional
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
                cov.C(ea, eb) - cov.C(ea, -eb) - cov.C(-ea, eb) + cov.C(-ea, -eb)
            ) / (4.0 * step * step)
    return out


def _wave_increments(space, cov, time_n, seed):
    """The wave basis and the (time_n, 2K) increments ``simulate_field`` draws from ``seed``."""
    basis = cov.wave_basis(space)
    gen = np.random.default_rng(as_seed_sequence(seed))
    return basis, gen.standard_normal((time_n, basis.shape[1])) / np.sqrt(time_n)


def ito_loop_field(space, cov, potential, time_n, seed):
    """Flat field values of ``simulate_field`` by the left-point time loop.

    Draws the increments from ``seed`` exactly as ``simulate_field`` does and
    sums V(b)·db one time step at a time, whatever V is.
    """
    basis, increments = _wave_increments(space, cov, time_n, seed)
    b = np.zeros(basis.shape[0])
    f = np.zeros(basis.shape[0])
    for i in range(time_n):
        db = basis @ increments[i]
        f += potential.value(b) * db
        b += db
    return f


def driving_paths(space, cov, time_n, seed):
    """The (time_n + 1, 2K) Brownian wave paths behind ``simulate_field(..., rng=seed)``.

    B^x(i/time_n) is row i times the wave-basis row of x.
    """
    _, increments = _wave_increments(space, cov, time_n, seed)
    return np.vstack([np.zeros((1, increments.shape[1])), np.cumsum(increments, axis=0)])


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
    return SmoothFunctional(
        dim=dim,
        values=lambda x: 0.5 * np.einsum("bi,bi->b", x, x),
        grads=lambda x: x.copy(),
        hessians=lambda x: np.broadcast_to(np.eye(dim), (x.shape[0], dim, dim)).copy(),
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
    return exp_series(expo[None])[0]


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


def reference_euler_char(sample: FieldSample, u: float) -> int:
    """χ of {f ≥ u} counted kind by kind: #V − #E (+ #squares on the torus).

    The library counts the same vertex-thresholded complex as a product of
    axes; this hand-written count per kind is its oracle.
    """
    above = sample.f_values >= u
    kind = sample.space.kind
    if kind == "interval":
        v = int(above.sum())
        e = int(np.count_nonzero(above[:-1] & above[1:]))
        return v - e
    if kind == "circle":
        v = int(above.sum())
        e = int(np.count_nonzero(above & np.roll(above, -1)))
        return v - e
    v = int(above.sum())
    right = np.roll(above, -1, axis=0)
    up = np.roll(above, -1, axis=1)
    e = int(np.count_nonzero(above & right)) + int(np.count_nonzero(above & up))
    f = int(np.count_nonzero(above & right & up & np.roll(right, -1, axis=1)))
    return v - e + f


_EXPORT_MAGIC = b"GTFS"
_EXPORT_VERSION = 1


def save_field(sample: FieldSample, path, u_levels=()) -> None:
    """Write a field sample as magic + version + JSON header + raw float64.

    Layout (little endian): 4-byte magic ``GTFS``, uint32 version, uint32
    header length, UTF-8 JSON header, then the C-order float64 grid values.
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
