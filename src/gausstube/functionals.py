"""Canonical smooth functionals used as regions and test fixtures.

All builders return :class:`~gausstube.malliavin.SmoothFunctional` instances
with batch oracles, so the Monte Carlo kernels can evaluate them on sample
stacks without per-point Python overhead.  Their curvature moments come from
the dense Hessian stack, through :func:`~gausstube.malliavin.dense_moments`.
"""

from __future__ import annotations

import numpy as np

from .malliavin import SmoothFunctional, dense_moments


def coordinate(dim: int) -> SmoothFunctional:
    """F(x) = x₁; the half-space building block."""
    e = np.zeros(dim)
    e[0] = 1.0

    def hessians(x):
        return np.zeros((x.shape[0], dim, dim))

    return SmoothFunctional(
        dim, lambda x: x[:, 0], lambda x: np.broadcast_to(e, x.shape).copy(),
        hessians=hessians, moments_batch=dense_moments(hessians),
    )


def norm(dim: int) -> SmoothFunctional:
    """F(x) = ‖x‖; smooth away from the origin (balls and spheres)."""

    def values(x):
        return np.linalg.norm(x, axis=1)

    def grads(x):
        r = np.linalg.norm(x, axis=1)
        return x / r[:, None]

    def hessians(x):
        r = np.linalg.norm(x, axis=1)
        eta = x / r[:, None]
        eye = np.broadcast_to(np.eye(dim), (x.shape[0], dim, dim))
        return (eye - eta[:, :, None] * eta[:, None, :]) / r[:, None, None]

    return SmoothFunctional(
        dim, values, grads, hessians=hessians, moments_batch=dense_moments(hessians)
    )


def quadratic(a: np.ndarray) -> SmoothFunctional:
    """F(x) = ½ xᵀA x, with A symmetrized."""
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    a_sym = 0.5 * (a + a.T)

    def hessians(x):
        return np.broadcast_to(a_sym, (x.shape[0], dim, dim)).copy()

    return SmoothFunctional(
        dim, lambda x: 0.5 * np.einsum("bi,ij,bj->b", x, a_sym, x), lambda x: x @ a_sym.T,
        hessians=hessians, moments_batch=dense_moments(hessians),
    )
