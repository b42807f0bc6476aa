"""Truncated power series in the tube radius, and Gaussian special functions.

Every Minkowski-functional computation in this library is bookkeeping on
formal power series in the tube radius ρ, truncated at a fixed order J:
terms of degree > J are discarded, never wrapped around.  The coefficient
convention is plain Taylor coefficients, i.e. ``coeffs[j]`` multiplies ρʲ
(factorials are applied by the callers that convert coefficients into
Minkowski functionals).  Series are coefficient-major (J+1, B) stacks, one
column per sample point, so each step of a recursion is one operation on a
contiguous row of B samples; they are built as exponents and exponentiated
by :func:`exp_series`.

The Hermite polynomials here follow the probabilists' convention

    H₀ = 1,  H₁(y) = y,  H_{n+1}(y) = y·H_n(y) − n·H_{n−1}(y),

which is the family paired with the weight e^{−y²/2}; equivalently
φ⁽ⁿ⁾(y) = (−1)ⁿ H_n(y) φ(y) for the standard normal density φ.
"""

from __future__ import annotations

import numpy as np


def exp_series(expo: np.ndarray) -> np.ndarray:
    """Coefficients of exp(a(ρ)) for each column of a (J+1, B) exponent stack.

    Row 0 of ``expo`` is ignored, i.e. taken to be a₀ = 0.  Uses the
    recursion obtained from E' = a'·E for E = exp(a):

        e₀ = 1,   eₙ = (1/n) Σ_{m=1..n} m·a_m·e_{n−m},

    equivalent to assembling complete Bell polynomials.  Returns the
    (J+1, B) coefficients.
    """
    width = expo.shape[0]
    coeffs = np.empty(expo.shape)
    coeffs[0] = 1.0
    scaled = expo[1:] * np.arange(1, width)[:, None]  # row m−1 holds m·a_m
    for n in range(1, width):
        acc = scaled[0] * coeffs[n - 1]
        for j in range(2, n + 1):
            acc += scaled[j - 1] * coeffs[n - j]
        coeffs[n] = acc / n
    return coeffs


def hermite_all(n: int, y) -> np.ndarray:
    """H₀(y)..H_n(y) for scalar or array y, stacked along a leading axis."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
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
