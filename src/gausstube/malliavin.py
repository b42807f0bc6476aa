"""Finite-dimensional Gaussian calculus: divergence, unit normals, det₂, Ramer densities.

Everything here lives on ℝᵏ with the canonical Gaussian measure.  The
divergence is the Gaussian one,

    δ(V)(x) = Σᵢ Vᵢ(x)·xᵢ − Σᵢ ∂Vᵢ/∂xᵢ(x),

i.e. minus the Riemannian divergence under the Gaussian weight, so that
δ(eᵢ) has law N(0,1).  The Carleman–Fredholm determinant

    det₂(I + ρA) = Π (1 + ρλᵢ) e^{−ρλᵢ}

enters the change-of-variables density for the shift x ↦ x + ρη(x):

    Y_ρ^η(x) = det₂(I + ρ∇η(x)) · exp(−ρ·δ(η)(x) − ρ²‖η(x)‖²/2).

Two independent evaluation routes are kept: an exact one,
det(I+ρA)·exp(−ρ·tr A), for point values, and an eigenvalue-free power
series exp(Σ_{m≥2} (−1)^{m+1} tr(Aᵐ) ρᵐ/m) for coefficient extraction.
All functions are pure; the supplied oracles must be stateless so Monte
Carlo loops can evaluate them concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegeneratePointError, ValidityRadiusError
from .series import DEFAULT_ORDER, TruncSeries, series_exp

#: Gradient norms below this are treated as numerically degenerate points.
DEFAULT_GRAD_FLOOR = 1e-10


@dataclass(frozen=True)
class SmoothFunctional:
    """A scalar functional on ℝᵏ with gradient and Hessian oracles.

    ``value``, ``grad`` and ``hess`` act on a single point (a (k,) array).
    The optional ``*_batch`` oracles act on (B, k) stacks and exist purely
    for speed; when absent the per-point oracle is applied row by row.
    ``moments_batch(x, v, order)`` returns the curvature moments
    (τ, μ) of :func:`hessian_moments` without a dense Hessian stack, for
    functionals whose Hessian has structure; when absent they are taken
    from the Hessian stack.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    value_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    moments_batch: Optional[
        Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray]]
    ] = None

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.value_batch is not None:
            return np.asarray(self.value_batch(x), dtype=float)
        return np.array([self.value(row) for row in x], dtype=float)

    def grads(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad_batch is not None:
            return np.asarray(self.grad_batch(x), dtype=float)
        return np.stack([np.asarray(self.grad(row), dtype=float) for row in x])

    def hessians(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hess_batch is not None:
            return np.asarray(self.hess_batch(x), dtype=float)
        return np.stack([np.asarray(self.hess(row), dtype=float) for row in x])

    def moments(
        self, x: np.ndarray, v: np.ndarray, order: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Curvature moments (τ, μ) of :func:`hessian_moments` at the rows of
        x, from ``moments_batch`` when the functional has one and from its
        Hessian stack otherwise."""
        x = np.asarray(x, dtype=float)
        if self.moments_batch is not None:
            return self.moments_batch(x, v, order)
        return hessian_moments(self.hessians(x), v, order)


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


def unit_normal(
    func: SmoothFunctional,
    orientation: int,
    x: np.ndarray,
    grad_floor: float = DEFAULT_GRAD_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normal η = s·∇F/‖∇F‖ and its Jacobian ∇η at x.

    ``orientation`` is +1 for sub-level regions {F ≤ u} and −1 for excursion
    regions {F ≥ u}, so η always points out of the region.  The Jacobian is
    the exact derivative of the normalized gradient,

        ∇η = s·(∇²F/‖∇F‖ − ∇F (∇F)ᵀ ∇²F / ‖∇F‖³).

    Raises :class:`DegeneratePointError` when ‖∇F(x)‖ falls below
    ``grad_floor``: such points are excluded from surface integrals.
    """
    if orientation not in (+1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    x = np.asarray(x, dtype=float)
    g = np.asarray(func.grad(x), dtype=float)
    gn = float(np.linalg.norm(g))
    if gn < grad_floor:
        raise DegeneratePointError(
            f"gradient norm {gn:.3e} below floor {grad_floor:.1e} at x={x!r}"
        )
    h = np.asarray(func.hess(x), dtype=float)
    eta = orientation * g / gn
    hg = h @ g
    eta_jac = orientation * (h / gn - np.outer(g, hg) / gn**3)
    return eta, eta_jac


def _trace_powers(a: np.ndarray, max_power: int) -> np.ndarray:
    """tr(A^m) for m = 1..max_power by repeated dense multiplication."""
    traces = np.empty(max_power)
    p = a
    traces[0] = np.trace(p)
    for m in range(2, max_power + 1):
        p = p @ a
        traces[m - 1] = np.trace(p)
    return traces


def det2_series(a: np.ndarray, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Coefficients of ρ ↦ det₂(I + ρA) = Π(1+ρλᵢ)e^{−ρλᵢ}.

    Uses log det₂(I+ρA) = Σ_{m≥2} (−1)^{m+1} tr(Aᵐ) ρᵐ/m, so no
    eigendecomposition is needed; coefficient 0 is 1 and coefficient 1 is 0
    for every A (the exponential factor cancels the trace).
    """
    a = np.asarray(a, dtype=float)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    expo = np.zeros(order + 1)
    if order >= 2:
        traces = _trace_powers(a, order)
        for m in range(2, order + 1):
            expo[m] = ((-1) ** (m + 1)) * traces[m - 1] / m
    return series_exp(TruncSeries(order, expo))


def det2_exact(a: np.ndarray) -> float:
    """det₂(I + A) evaluated exactly as det(I + A)·exp(−tr A)."""
    a = np.asarray(a, dtype=float)
    k = a.shape[0]
    return float(np.linalg.det(np.eye(k) + a) * np.exp(-np.trace(a)))


def ramer_density(
    eta: VectorField, rho: float, x: np.ndarray, check_positive: bool = True
) -> float:
    """Change-of-variables density Y_ρ^η(x) for the shift x ↦ x + ρη(x).

    Evaluates det₂ by the exact determinant route.  For small ρ the det₂
    factor is positive and no modulus is applied; a non-positive factor
    means ρ left the validity radius of the expansion and raises
    :class:`ValidityRadiusError` so the caller can discard the sample.

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


def jacobian_series(
    func: SmoothFunctional,
    orientation: int,
    x: np.ndarray,
    order: int = DEFAULT_ORDER,
    grad_floor: float = DEFAULT_GRAD_FLOOR,
) -> TruncSeries:
    """Taylor coefficients of ρ ↦ det₂(I+ρ∇η)·exp(−ρδ(η)−ρ²/2) at x.

    η is the outward unit normal of the region cut out by ``func`` at the
    given orientation; the whole integrand is assembled inside one
    series_exp:

        exp( −ρ·δ(η) − ρ²/2 + Σ_{m=2..J} (−1)^{m+1} tr((∇η)ᵐ) ρᵐ/m ).

    Coefficient 0 is always 1.  Integrating j!·coefficient_j against the
    Gaussian surface measure of the region boundary gives the (j+1)-th
    Gaussian Minkowski functional.
    """
    x = np.asarray(x, dtype=float)
    eta, eta_jac = unit_normal(func, orientation, x, grad_floor)
    delta = float(np.dot(eta, x) - np.trace(eta_jac))
    expo = np.zeros(order + 1)
    if order >= 1:
        expo[1] = -delta
    if order >= 2:
        traces = _trace_powers(eta_jac, order)
        expo[2] = -0.5 - 0.5 * traces[1]
        for m in range(3, order + 1):
            expo[m] = ((-1) ** (m + 1)) * traces[m - 1] / m
    return series_exp(TruncSeries(order, expo))


def hessian_moments(
    hessians: np.ndarray, v: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Curvature moments of a dense Hessian stack.

    Returns ``(tau, mu)``, both (B, order): ``tau[:, m−1] = tr(Hᵐ)`` and
    ``mu[:, k−1] = vᵀHᵏv`` for each row's Hessian H and direction v.  This
    is the reference for, and the fallback of, the structured
    ``SmoothFunctional.moments_batch`` oracles.
    """
    h = np.asarray(hessians, dtype=float)
    nb = h.shape[0]
    tau = np.empty((nb, order))
    mu = np.empty((nb, order))
    if order >= 1:
        tau[:, 0] = np.einsum("bii->b", h)
    if order >= 2:
        tau[:, 1] = np.einsum("bij,bji->b", h, h)
    if order >= 3:
        p = np.matmul(h, h)
        for m in range(3, order + 1):
            p = np.matmul(p, h)
            tau[:, m - 1] = np.einsum("bii->b", p)
    w = v
    for k in range(1, order + 1):
        w = np.einsum("bij,bj->bi", h, w)
        mu[:, k - 1] = np.einsum("bi,bi->b", v, w)
    return tau, mu


def jacobian_coeffs_from_moments(
    eta_x: np.ndarray, scale: np.ndarray, tau: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """Taylor coefficients of the Jacobian series from curvature moments.

    With v = ∇F/‖∇F‖, P = I − vvᵀ and s the orientation, the normal's
    Jacobian is ∇η = (s/‖∇F‖)·PH.  So the integrand of
    :func:`jacobian_series` is exp(−ρ·η·x − ρ²/2)·det(I + tPH) with
    t = ρ·``scale``, ``scale`` = s/‖∇F‖, and by the matrix determinant lemma

        log det(I + tPH) = Σ_m (−1)^{m+1} τ_m tᵐ/m
                           + log(1 − Σ_{k≥1} (−1)^{k−1} μ_k tᵏ),

    with τ_m = tr(Hᵐ) and μ_k = vᵀHᵏv.  ``eta_x`` (B,) is η·x; ``tau`` and
    ``mu`` are (B, J) as :func:`hessian_moments` returns them.  Returns the
    (B, J+1) coefficients; coefficient 0 is 1.
    """
    nb, order = tau.shape
    m = np.arange(1, order + 1)
    signed = (-1.0) ** (m + 1) * np.asarray(scale)[:, None] ** m
    expo = np.zeros((nb, order + 1))
    expo[:, 1:] = signed * tau / m
    # log(1 + w) with w_k = −(−1)^{k−1} μ_k scaleᵏ, from (1 + w)·L′ = w′
    w = -signed * mu
    log_w = np.zeros((nb, order + 1))
    for k in range(1, order + 1):
        acc = k * w[:, k - 1]
        for i in range(1, k):
            acc -= i * log_w[:, i] * w[:, k - i - 1]
        log_w[:, k] = acc / k
    expo += log_w
    if order >= 1:
        expo[:, 1] -= eta_x
    if order >= 2:
        expo[:, 2] -= 0.5
    # exp of the exponent series, e_n = (1/n) Σ_m m·a_m·e_{n−m}
    coeffs = np.zeros((nb, order + 1))
    coeffs[:, 0] = 1.0
    for n in range(1, order + 1):
        acc = np.zeros(nb)
        for j in range(1, n + 1):
            acc += j * expo[:, j] * coeffs[:, n - j]
        coeffs[:, n] = acc / n
    return coeffs


def jacobian_coeffs(
    x: np.ndarray,
    grads: np.ndarray,
    moments: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    orientation: int,
    grad_floor: float = DEFAULT_GRAD_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian-series coefficients at a stack of points, from their moments.

    Unit normals v come from ``grads``; ``moments(v)`` returns the (B, J)
    moments (τ, μ) of :func:`hessian_moments`, for instance
    ``lambda v: func.moments(x, v, J)``.  Returns ``(coeffs, degenerate)``
    as :func:`jacobian_coeffs_batch` does.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(grads, dtype=float)
    gn = np.linalg.norm(g, axis=1)
    degenerate = gn < grad_floor
    gn_safe = np.where(degenerate, 1.0, gn)
    v = g / gn_safe[:, None]
    tau, mu = moments(v)
    s = float(orientation)
    eta_x = s * np.einsum("bi,bi->b", v, x)
    coeffs = jacobian_coeffs_from_moments(eta_x, s / gn_safe, tau, mu)
    coeffs[degenerate] = 0.0
    return coeffs, degenerate


def jacobian_coeffs_batch(
    x: np.ndarray,
    grads: np.ndarray,
    hessians: np.ndarray,
    orientation: int,
    order: int,
    grad_floor: float = DEFAULT_GRAD_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`jacobian_series` over a stack of points.

    Parameters are stacks: ``x`` (B,k), ``grads`` (B,k), ``hessians``
    (B,k,k).  Returns ``(coeffs, degenerate)`` where ``coeffs`` is (B, J+1)
    and ``degenerate`` marks rows whose gradient norm fell below the floor
    (their coefficients are set to 0 and must be skipped by the caller).
    This is the dense route: moments from :func:`hessian_moments`, then
    :func:`jacobian_coeffs_from_moments`.
    """
    h = np.asarray(hessians, dtype=float)
    return jacobian_coeffs(
        x, grads, lambda v: hessian_moments(h, v, order), orientation, grad_floor
    )


def check_derivatives(
    func: SmoothFunctional,
    rng: np.random.Generator,
    n_probes: int = 50,
    rel_tol: float = 1e-5,
) -> None:
    """Verify grad/hess against central finite differences at Gaussian probes.

    The step is 1e−4·(1+‖x‖); gradients of ``value`` and Hessians of
    ``grad`` must match to relative error ``rel_tol``, and the Hessian must
    be symmetric to 1e−10.  Raises AssertionError on failure.
    """
    k = func.dim
    for _ in range(n_probes):
        x = rng.standard_normal(k)
        step = 1e-4 * (1.0 + np.linalg.norm(x))
        g = np.asarray(func.grad(x), dtype=float)
        g_fd = np.empty(k)
        h_fd = np.empty((k, k))
        for i in range(k):
            e = np.zeros(k)
            e[i] = step
            g_fd[i] = (func.value(x + e) - func.value(x - e)) / (2 * step)
            h_fd[:, i] = (np.asarray(func.grad(x + e)) - np.asarray(func.grad(x - e))) / (2 * step)
        scale_g = max(1.0, float(np.linalg.norm(g)))
        if np.linalg.norm(g_fd - g) > rel_tol * scale_g:
            raise AssertionError(
                f"gradient mismatch at x={x!r}: |fd-grad| = "
                f"{np.linalg.norm(g_fd - g):.3e} (scale {scale_g:.3e})"
            )
        h = np.asarray(func.hess(x), dtype=float)
        if np.max(np.abs(h - h.T)) > 1e-10:
            raise AssertionError(f"Hessian not symmetric at x={x!r}")
        scale_h = max(1.0, float(np.linalg.norm(h)))
        if np.linalg.norm(h_fd - h) > rel_tol * scale_h:
            raise AssertionError(
                f"Hessian mismatch at x={x!r}: |fd-hess| = "
                f"{np.linalg.norm(h_fd - h):.3e} (scale {scale_h:.3e})"
            )
