"""Canonical smooth functionals used as regions and test fixtures.

All builders return :class:`~gausstube.malliavin.SmoothFunctional` instances
with batch oracles, so the Monte Carlo kernels can evaluate them on sample
stacks without per-point Python overhead.
"""

from __future__ import annotations

import numpy as np

from .malliavin import SmoothFunctional


def coordinate(dim: int) -> SmoothFunctional:
    """F(x) = x₁; the half-space building block."""
    e = np.zeros(dim)
    e[0] = 1.0

    return SmoothFunctional(
        dim=dim,
        values=lambda x: x[:, 0],
        grads=lambda x: np.broadcast_to(e, x.shape).copy(),
        hessians=lambda x: np.zeros((x.shape[0], dim, dim)),
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

    return SmoothFunctional(dim=dim, values=values, grads=grads, hessians=hessians)


def quadratic(a: np.ndarray) -> SmoothFunctional:
    """F(x) = ½ xᵀA x, with A symmetrized."""
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    a_sym = 0.5 * (a + a.T)

    return SmoothFunctional(
        dim=dim,
        values=lambda x: 0.5 * np.einsum("bi,ij,bj->b", x, a_sym, x),
        grads=lambda x: x @ a_sym.T,
        hessians=lambda x: np.broadcast_to(a_sym, (x.shape[0], dim, dim)).copy(),
    )
