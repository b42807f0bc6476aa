"""Truncated power series in the tube radius, and Gaussian special functions.

Every Minkowski-functional computation in this library is bookkeeping on
formal power series in the tube radius ρ, truncated at a fixed order J:
terms of degree > J are discarded, never wrapped around.  The coefficient
convention is plain Taylor coefficients, i.e. ``coeffs[j]`` multiplies ρʲ
(factorials are applied by the callers that convert coefficients into
Minkowski functionals).  Series are built as exponents and exponentiated
by :func:`exp_series`, one row per sample point; :class:`TruncSeries` is
the one-row view returned by the scalar APIs.

The Hermite polynomials here follow the probabilists' convention

    H₀ = 1,  H₁(y) = y,  H_{n+1}(y) = y·H_n(y) − n·H_{n−1}(y),

which is the family paired with the weight e^{−y²/2}; equivalently
φ⁽ⁿ⁾(y) = (−1)ⁿ H_n(y) φ(y) for the standard normal density φ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def __call__(self, rho: float) -> float:
        """Evaluate the truncated polynomial at ρ."""
        return float(np.polynomial.polynomial.polyval(rho, self.coeffs))


def exp_series(expo: np.ndarray) -> np.ndarray:
    """Coefficients of exp(a(ρ)) for each row of a (B, J+1) exponent stack.

    Column 0 of ``expo`` is ignored, i.e. taken to be a₀ = 0.  Uses the
    recursion obtained from E' = a'·E for E = exp(a):

        e₀ = 1,   eₙ = (1/n) Σ_{m=1..n} m·a_m·e_{n−m},

    equivalent to assembling complete Bell polynomials.
    """
    nb, width = expo.shape
    order = width - 1
    coeffs = np.zeros((nb, order + 1))
    coeffs[:, 0] = 1.0
    for n in range(1, order + 1):
        acc = np.zeros(nb)
        for j in range(1, n + 1):
            acc += j * expo[:, j] * coeffs[:, n - j]
        coeffs[:, n] = acc / n
    return coeffs


def series_exp(a: TruncSeries) -> TruncSeries:
    """Coefficients of exp(a(ρ)) truncated at order J: :func:`exp_series` on one row.

    Requires a(0) = 0; a nonzero constant term must be factored out by the
    caller (exp(a₀) is then an exact scalar multiplier).
    """
    if a.coeffs[0] != 0.0:
        raise ValueError(
            f"series_exp requires a zero constant term, got {a.coeffs[0]!r}; "
            "factor out exp(a0) first"
        )
    return TruncSeries(a.order, exp_series(a.coeffs[None, :])[0])


def hermite(n: int, y: float) -> float:
    """Probabilists' Hermite polynomial H_n(y): :func:`hermite_all` at one degree."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return float(hermite_all(n, y)[n])


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
    from scipy import special

    u = np.asarray(u, dtype=float)
    out = 0.5 * special.erfc(u / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out
