"""Finite-dimensional Gaussian calculus: smooth functionals, det₂ and the Jacobian series.

Everything here lives on ℝᵏ with the canonical Gaussian measure.  A region's
outward unit normal η shifts x ↦ x + ρη(x), and the change of variables of
that shift has the density

    Y_ρ^η(x) = det₂(I + ρ∇η(x)) · exp(−ρ·δ(η)(x) − ρ²‖η(x)‖²/2),

with the Gaussian divergence δ(η)(x) = Σᵢ ηᵢ(x)·xᵢ − Σᵢ ∂ηᵢ/∂xᵢ(x) and the
Carleman–Fredholm determinant det₂(I + ρA) = Π (1 + ρλᵢ) e^{−ρλᵢ}.  Its
Taylor coefficients in ρ, integrated against the Gaussian surface measure
of the region's boundary, give the Gaussian Minkowski functionals.  They
are computed without eigenvalues, from the curvature moments
τ_m = tr(Hᵐ) and μ_k = vᵀHᵏv of the Hessian H of the defining functional
and its unit gradient v (``jacobian_coeffs``).  All functions are pure;
the supplied oracles must be stateless so Monte Carlo loops can evaluate
them concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .series import exp_series

#: Gradient norms below this are treated as numerically degenerate points.
DEFAULT_GRAD_FLOOR = 1e-10

# moments_batch(x, v, order) -> (tau, mu), each (order, B)
_Moments = Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SmoothFunctional:
    """A scalar functional on ℝᵏ with value, gradient and curvature oracles.

    ``values``, ``grads`` and ``hessians`` act on (B, k) stacks and return
    (B,), (B, k) and (B, k, k) arrays; a single point is a one-row stack.
    ``moments_batch(x, v, order)`` returns the (order, B) curvature moments
    (τ, μ) of :func:`hessian_moments`; it is the estimators' only curvature
    oracle and is needed only for series orders J ≥ 2.  A functional whose
    Hessian has structure computes them without a dense stack; one with
    only a dense Hessian passes :func:`dense_moments` of it.  ``hessians``
    is read only by the projection solver's convexity check.

    The Monte Carlo estimators average over canonical Gaussian points of
    ℝᵏ, drawn by :meth:`sample`.  The optional ``draw(gen, size)`` replaces
    that law with another (size, k) one: a functional reduced to fewer
    coordinates, such as F_n on its meridian plane, draws the reduced
    coordinates of a Gaussian point, and its ``moments_batch`` returns the
    moments of the full Hessian.
    """

    dim: int
    values: Callable[[np.ndarray], np.ndarray]
    grads: Callable[[np.ndarray], np.ndarray]
    hessians: Optional[Callable[[np.ndarray], np.ndarray]] = None
    moments_batch: Optional[_Moments] = None
    draw: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """``size`` points, (size, k), of the law the estimators average over."""
        if self.draw is not None:
            return self.draw(gen, size)
        return gen.standard_normal((size, self.dim))


def hessian_moments(
    hessians: np.ndarray, v: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Curvature moments of a dense Hessian stack.

    Returns ``(tau, mu)``, both (order, B): ``tau[m−1] = tr(Hᵐ)`` and
    ``mu[k−1] = vᵀHᵏv`` for each sample's Hessian H and direction v, one
    contiguous row per moment.  This is the reference for the structured
    ``SmoothFunctional.moments_batch`` oracles, and the oracle of a dense
    functional through :func:`dense_moments`.
    """
    h = np.asarray(hessians, dtype=float)
    nb = h.shape[0]
    tau = np.empty((order, nb))
    mu = np.empty((order, nb))
    if order >= 1:
        tau[0] = np.einsum("bii->b", h)
    if order >= 2:
        tau[1] = np.einsum("bij,bji->b", h, h)
    if order >= 3:
        p = np.matmul(h, h)
        for m in range(3, order + 1):
            p = np.matmul(p, h)
            tau[m - 1] = np.einsum("bii->b", p)
    w = v
    for k in range(1, order + 1):
        w = np.einsum("bij,bj->bi", h, w)
        mu[k - 1] = np.einsum("bi,bi->b", v, w)
    return tau, mu


def dense_moments(hessians: Callable[[np.ndarray], np.ndarray]) -> _Moments:
    """A ``moments_batch`` oracle: :func:`hessian_moments` of ``hessians(x)`` on
    row chunks of x, each (chunk, k, k) stack at most 2²² floats (32 MiB)."""

    def moments_batch(x, v, order):
        n, k = x.shape
        step = max(1, (1 << 22) // (k * k))
        tau, mu = np.empty((2, order, n))
        for start in range(0, n, step):
            rows = slice(start, start + step)
            tau[:, rows], mu[:, rows] = hessian_moments(hessians(x[rows]), v[rows], order)
        return tau, mu

    return moments_batch


def jacobian_coeffs_from_moments(
    eta_x: np.ndarray, scale: np.ndarray, tau: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """Taylor coefficients of the Jacobian series from curvature moments.

    With v = ∇F/‖∇F‖, P = I − vvᵀ and s the orientation, the normal's
    Jacobian is ∇η = (s/‖∇F‖)·PH.  So the Jacobian series
    det₂(I+ρ∇η)·exp(−ρδ(η)−ρ²/2) is exp(−ρ·η·x − ρ²/2)·det(I + tPH) with
    t = ρ·``scale``, ``scale`` = s/‖∇F‖, and by the matrix determinant lemma

        log det(I + tPH) = Σ_m (−1)^{m+1} τ_m tᵐ/m
                           + log(1 − Σ_{k≥1} (−1)^{k−1} μ_k tᵏ),

    with τ_m = tr(Hᵐ) and μ_k = vᵀHᵏv.  ``eta_x`` (B,) is η·x; ``tau`` and
    ``mu`` are (J, B) as :func:`hessian_moments` returns them.  Returns the
    (J+1, B) coefficients; row 0 is 1.

    Every recursion step is one operation on contiguous rows of B samples,
    and the powers of ``scale`` are a running product.
    """
    order = tau.shape[0]
    scale = np.asarray(scale, dtype=float)
    expo = np.empty((order + 1, scale.shape[0]))
    # log(1 + w) with w_k = −(−1)^{k−1} μ_k scaleᵏ, from (1 + w)·L′ = w′
    w = np.empty((order, scale.shape[0]))
    power = np.ones_like(scale)
    for m in range(1, order + 1):
        power = power * scale
        signed = power if m % 2 else -power  # (−1)^{m+1} scaleᵐ
        expo[m] = signed * tau[m - 1] / m
        w[m - 1] = -signed * mu[m - 1]
    log_w = np.empty_like(w)
    for k in range(1, order + 1):
        acc = k * w[k - 1]
        for i in range(1, k):
            acc -= i * log_w[i - 1] * w[k - i - 1]
        log_w[k - 1] = acc / k
    expo[1:] += log_w
    if order >= 1:
        expo[1] -= eta_x
    if order >= 2:
        expo[2] -= 0.5
    return exp_series(expo)


def grad_norms(grads: np.ndarray) -> np.ndarray:
    """‖∇F‖ of each row of a (B, k) gradient stack."""
    return np.sqrt(np.einsum("bi,bi->b", grads, grads))


def jacobian_coeffs(
    x: np.ndarray,
    grads: np.ndarray,
    gn: np.ndarray,
    moments: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    orientation: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of ρ ↦ det₂(I+ρ∇η)·exp(−ρδ(η)−ρ²/2) at a stack of points.

    η is the outward unit normal s·∇F/‖∇F‖ of the region cut out by F at
    the ``orientation`` s (+1 for sub-level regions {F ≤ u}, −1 for
    excursion regions {F ≥ u}).  ``grads`` is the (B, k) gradient stack and
    ``gn`` its norms, :func:`grad_norms`; unit normals v come from them, and
    ``moments(v)`` returns the (J, B) moments (τ, μ) of
    :func:`hessian_moments`, for instance
    ``lambda v: func.moments_batch(x, v, J)``.
    Returns ``(coeffs, degenerate)``: ``coeffs`` is (J+1, B) with row 0
    equal to 1, and integrating j!·coefficient_j against the Gaussian
    surface measure of the boundary gives M_{j+1}.  ``degenerate`` marks
    samples whose gradient norm fell below ``DEFAULT_GRAD_FLOOR``; their
    coefficients are 0 and the caller must skip them.  Each sample's column
    depends on that sample's inputs alone.
    """
    if orientation not in (+1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    x = np.asarray(x, dtype=float)
    degenerate = gn < DEFAULT_GRAD_FLOOR
    gn_safe = np.where(degenerate, 1.0, gn)
    v = grads / gn_safe[:, None]
    tau, mu = moments(v)
    s = float(orientation)
    eta_x = s * np.einsum("bi,bi->b", v, x)
    coeffs = jacobian_coeffs_from_moments(eta_x, s / gn_safe, tau, mu)
    coeffs[:, degenerate] = 0.0
    return coeffs, degenerate


def jacobian_coeffs_batch(
    x: np.ndarray,
    grads: np.ndarray,
    hessians: np.ndarray,
    orientation: int,
    order: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`jacobian_coeffs` with the moments of a dense Hessian stack.

    Parameters are stacks: ``x`` (B,k), ``grads`` (B,k), ``hessians``
    (B,k,k).  This is the dense route: moments from
    :func:`hessian_moments`, then :func:`jacobian_coeffs_from_moments`.
    """
    g = np.asarray(grads, dtype=float)
    h = np.asarray(hessians, dtype=float)
    return jacobian_coeffs(
        x, g, grad_norms(g), lambda v: hessian_moments(h, v, order), orientation
    )
