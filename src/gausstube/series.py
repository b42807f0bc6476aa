"""Truncated power series in the tube radius, and Gaussian special functions.

Every Minkowski-functional computation in this library is bookkeeping on
formal power series in the tube radius ρ, truncated at a fixed order J:
terms of degree > J are discarded, never wrapped around.  The coefficient
convention is plain Taylor coefficients, i.e. ``coeffs[j]`` multiplies ρʲ
(factorials are applied by the callers that convert coefficients into
Minkowski functionals).

The Hermite polynomials here follow the probabilists' convention

    H₀ = 1,  H₁(y) = y,  H_{n+1}(y) = y·H_n(y) − n·H_{n−1}(y),

which is the family paired with the weight e^{−y²/2}; equivalently
φ⁽ⁿ⁾(y) = (−1)ⁿ H_n(y) φ(y) for the standard normal density φ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

#: Default truncation order for Minkowski-functional series work; the
#: acceptance studies need j <= 4, this leaves headroom for convergence checks.
DEFAULT_ORDER = 6


@dataclass(frozen=True)
class TruncSeries:
    """Power series in ρ truncated at degree ``order``.

    ``coeffs`` has length ``order + 1`` and ``coeffs[j]`` is the coefficient
    of ρʲ.  Instances are immutable (the coefficient array is frozen) and
    safe to share between threads.
    """

    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.shape[0] != self.order + 1:
            raise ValueError(
                f"coeffs must be a 1-D array of length order+1={self.order + 1}, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_coeffs(cls, coeffs) -> "TruncSeries":
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        return cls(order=c.shape[0] - 1, coeffs=c)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order=order, coeffs=np.zeros(order + 1))

    def __call__(self, rho: float) -> float:
        """Evaluate the truncated polynomial at ρ."""
        return float(np.polynomial.polynomial.polyval(rho, self.coeffs))

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return series_add(self, other)

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            return series_mul(self, other)
        return series_scale(self, float(other))

    __rmul__ = __mul__


def _check_same_order(a: TruncSeries, b: TruncSeries, op: str) -> None:
    if a.order != b.order:
        raise ValueError(
            f"series_{op}: order mismatch ({a.order} vs {b.order}); "
            "operands must be truncated at the same degree"
        )


def series_add(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Coefficient-wise sum at common truncation order."""
    _check_same_order(a, b, "add")
    return TruncSeries(a.order, a.coeffs + b.coeffs)


def series_scale(a: TruncSeries, c: float) -> TruncSeries:
    """Multiply every coefficient by the scalar c."""
    return TruncSeries(a.order, a.coeffs * float(c))


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Cauchy product truncated at the common order J."""
    _check_same_order(a, b, "mul")
    full = np.convolve(a.coeffs, b.coeffs)
    return TruncSeries(a.order, full[: a.order + 1])


def series_exp(a: TruncSeries) -> TruncSeries:
    """Coefficients of exp(a(ρ)) truncated at order J.

    Requires a(0) = 0; a nonzero constant term must be factored out by the
    caller (exp(a₀) is then an exact scalar multiplier).  Uses the standard
    recursion obtained from E' = a'·E for E = exp(a):

        e₀ = 1,   eₙ = (1/n) Σ_{m=1..n} m·a_m·e_{n−m},

    equivalent to assembling complete Bell polynomials.
    """
    if a.coeffs[0] != 0.0:
        raise ValueError(
            f"series_exp requires a zero constant term, got {a.coeffs[0]!r}; "
            "factor out exp(a0) first"
        )
    J = a.order
    e = np.zeros(J + 1)
    e[0] = 1.0
    m = np.arange(J + 1)
    ma = m * a.coeffs
    for n in range(1, J + 1):
        # sum_{m=1..n} m*a_m*e_{n-m}
        e[n] = np.dot(ma[1 : n + 1], e[n - 1 :: -1][:n]) / n
    return TruncSeries(J, e)


def hermite(n: int, y: float) -> float:
    """Probabilists' Hermite polynomial H_n(y)."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n == 0:
        return 1.0
    h_prev, h = 1.0, float(y)
    for k in range(1, n):
        h_prev, h = h, y * h - k * h_prev
    return h


def hermite_all(n: int, y) -> np.ndarray:
    """H₀(y)..H_n(y) for scalar or array y, stacked along a leading axis."""
    y = np.asarray(y, dtype=float)
    out = np.empty((n + 1,) + y.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = y
    for k in range(1, n):
        out[k + 1] = y * out[k] - k * out[k - 1]
    return out


_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gaussian_pdf(u):
    """Standard normal density φ(u) = (2π)^{−1/2} e^{−u²/2}."""
    u = np.asarray(u, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    return float(out) if out.ndim == 0 else out


def gaussian_tail(u):
    """Upper tail Ψ(u) = ∫_u^∞ φ.

    Computed through the complementary error function, which keeps the
    relative error at erfc grade (≲ 1e−14) out to |u| = 8 and beyond.
    """
    u = np.asarray(u, dtype=float)
    out = 0.5 * special.erfc(u / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out
