"""Canonical smooth functionals used as regions and test fixtures.

All builders return :class:`~gausstube.malliavin.SmoothFunctional` instances
with batch oracles, so the Monte Carlo kernels can evaluate them on sample
stacks without per-point Python overhead.
"""

from __future__ import annotations

import numpy as np

from .malliavin import SmoothFunctional


def coordinate(dim: int, index: int = 0) -> SmoothFunctional:
    """F(x) = x[index]; the half-space building block."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dim {dim}")
    e = np.zeros(dim)
    e[index] = 1.0

    return SmoothFunctional(
        dim=dim,
        values=lambda x: x[:, index],
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


def quadratic(a: np.ndarray, b: np.ndarray | None = None, c: float = 0.0) -> SmoothFunctional:
    """F(x) = ½ xᵀA x + bᵀx + c for symmetric A."""
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    if b is None:
        b = np.zeros(dim)
    b = np.asarray(b, dtype=float)
    a_sym = 0.5 * (a + a.T)

    return SmoothFunctional(
        dim=dim,
        values=lambda x: 0.5 * np.einsum("bi,ij,bj->b", x, a_sym, x) + x @ b + c,
        grads=lambda x: x @ a_sym.T + b,
        hessians=lambda x: np.broadcast_to(a_sym, (x.shape[0], dim, dim)).copy(),
    )
