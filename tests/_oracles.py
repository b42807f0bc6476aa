"""Independent oracles shared by the unit and acceptance suites."""

import math

import numpy as np


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
