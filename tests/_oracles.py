"""Independent oracles and test-only helpers shared by the unit and acceptance suites."""

import math
from dataclasses import dataclass

import numpy as np

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
