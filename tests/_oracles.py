"""Independent oracles and test-only helpers shared by the unit and acceptance suites."""

import math
from dataclasses import dataclass

import numpy as np

from gausstube.errors import ProjectionError
from gausstube.malliavin import DEFAULT_GRAD_FLOOR, SmoothFunctional, VectorField, unit_normal
from gausstube.series import hermite


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
        return cls(degree, float(argument), hermite(degree, argument))


def retract_to_level(func, y, u, tol_f, maxiter=60):
    """Damped Newton steps along ∇F back to the level set {F = u} (one point)."""
    for _ in range(maxiter):
        f = func.value(y)
        if abs(f - u) <= tol_f:
            return y
        g = np.asarray(func.grad(y), dtype=float)
        gn2 = float(np.dot(g, g))
        if gn2 == 0.0:
            break
        y = y - (f - u) * g / gn2
    raise ProjectionError("level-set retraction failed to converge", abs(func.value(y) - u))


def project_distance(oracle, x):
    """Distance from one exterior point to the boundary via projected gradient.

    The per-point reference for ``gausstube.tube.distances``: the same
    retraction, KKT test, Armijo backtracking and iteration caps, one point
    at a time with the scalar oracles.
    """
    region = oracle.region
    func = region.functional
    u = region.level
    tol = oracle.tol
    tol_f = tol * (1.0 + abs(u))

    y = retract_to_level(func, x.copy(), u, tol_f)
    res = math.inf
    for _ in range(oracle.maxiter):
        g = np.asarray(func.grad(y), dtype=float)
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
        f"projection did not reach KKT residual {tol:.1e} in {oracle.maxiter} iterations",
        res,
    )


def reference_distances(oracle, x):
    """(distances, failure mask) of a (B, k) stack, one ``project_distance`` per exterior point."""
    region = oracle.region
    out = np.zeros(x.shape[0])
    failed = np.zeros(x.shape[0], dtype=bool)
    for i, row in enumerate(x):
        if region.contains(row):
            continue
        try:
            out[i] = project_distance(oracle, row)
        except ProjectionError:
            out[i] = np.nan
            failed[i] = True
    return out, failed
