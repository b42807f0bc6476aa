"""Cylindrical (finite-dimensional) approximation of Itô-integral functionals.

The stochastic integral F(ω) = ∫₀¹ V(ω_s) dω_s is approximated on an
n-point time grid by the Itô sum

    F_n(y₁,…,y_n) = n^{−1/2} Σ_{i=1..n} V(n^{−1/2} Σ_{j<i} y_j) · y_i,

where the yᵢ are the √n-scaled Brownian increments, i.e. i.i.d. standard
Gaussians — so F_n is a smooth functional on ℝⁿ under the canonical
Gaussian measure and the whole Minkowski-functional machinery applies.
Gradient and Hessian are analytic: with prefix sums S_m = Σ_{j≤m} y_j,

    ∂F_n/∂y_m   = n^{−1/2} V(S_{m−1}/√n) + n^{−1} Σ_{i>m} V′(S_{i−1}/√n) yᵢ,
    ∂²F_n/∂y_l∂y_m = n^{−1} V′(S_{M−1}/√n)·1{l≠m} + n^{−3/2} Σ_{i>M} V″(S_{i−1}/√n) yᵢ,

with M = max(l, m): a max-index matrix plus a diagonal.  So a Hessian-vector
product, tr H and ‖H‖_F² each cost O(n), and the Jacobian series of an F_n
level set (``CylFunctional.moments_batch``) needs O(n) work and memory per
sample for J ≤ 3; only ``hess_batch``, kept as the dense reference, builds
the O(B·n²) stack.

For an affine V = a₀ + a₁·b, F_n is the quadric

    F_n = a₀·S/√n + a₁·(S² − Q)/(2n),   S = Σyᵢ, Q = Σyᵢ²,

which is invariant under the rotations fixing 1.  So it is a function of
z = S/√n and r = ‖y − ȳ·1‖ alone, and z ~ N(0, 1) and r ~ χ_{n−1} are
independent.  ``CylFunctional.meridian`` is that 2-D functional of (z, r),
with the ℝⁿ curvature moments in closed form (``_quadric_moments``); the
co-area estimators sample it (``CylFunctional.sampled``), drawing two
variates per sample at any n.  ``CylFunctional.functional`` is the Itô-sum
oracle set above for every V, the independent route the meridian is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .gmf import GmfVector, RegionSpec, gmf_halfspace, gmf_surface_mc, gmf_two_sided
from ._mc import as_seed_sequence
from .malliavin import SmoothFunctional

#: Largest time-grid size accepted.  The moment kernel on ℝⁿ is O(n) per
#: sample for J ≤ 3 and O(n²·J) above (the affine meridian: O(1) at any J);
#: a dense Hessian stack is O(n²) memory.
MAX_TIME_GRID = 256


@dataclass(frozen=True)
class PotentialV:
    """An integrand V: ℝ → ℝ with its first two derivatives.

    All callables must accept numpy arrays elementwise.  ``coeffs``, when
    set, are V's polynomial coefficients, lowest degree first;
    :meth:`polynomial` builds V and its derivatives from them.  Field
    simulation, :meth:`CylFunctional.meridian` and the convergence targets
    read affine potentials from them (see :attr:`affine`), and
    :func:`~gausstube.fields.validate_assumptions` checks them against V.
    """

    value: Callable
    d1: Callable
    d2: Callable
    name: Optional[str] = None
    coeffs: Optional[tuple[float, ...]] = None

    @classmethod
    def polynomial(cls, name: str, coeffs) -> "PotentialV":
        """V(b) = Σᵢ coeffs[i]·bⁱ, lowest degree first, and V′, V″: each derivative's
        coefficients are c[1:]·(1, 2, …), and ``np.polyval`` (Horner's rule,
        highest degree first) evaluates each tuple."""
        c = np.asarray(coeffs, dtype=float)
        ladder = []
        for _ in range(3):
            ladder.append(tuple(c.tolist()) or (0.0,))
            c = c[1:] * np.arange(1, c.size)
        return cls(*(partial(np.polyval, d[::-1]) for d in ladder), name=name, coeffs=ladder[0])

    @classmethod
    def preset(cls, name: str) -> "PotentialV":
        try:
            return _PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown potential preset {name!r}; choose from {sorted(_PRESETS)}"
            ) from None

    @property
    def affine(self) -> Optional[tuple[float, float]]:
        """``(a₀, a₁)`` when V = a₀ + a₁·b (degree ≤ 1 ``coeffs``), else None.

        Field simulation takes its closed form, and the co-area estimators
        sample :meth:`CylFunctional.meridian`, exactly when this is set.
        """
        if self.coeffs is None or len(self.coeffs) > 2:
            return None
        a0, a1 = (tuple(self.coeffs) + (0.0, 0.0))[:2]
        return float(a0), float(a1)


_PRESETS = {
    "one": PotentialV.polynomial("one", (1.0,)),
    "identity": PotentialV.polynomial("identity", (0.0, 1.0)),
    "sin": PotentialV(np.sin, np.cos, lambda b: -np.sin(b), "sin"),
    "cubic": PotentialV.polynomial("cubic", (0.0, 0.0, 0.0, 1.0)),
}


def check_time_grid(n: int) -> None:
    """Reject a time-grid size outside [2, MAX_TIME_GRID]."""
    if not 2 <= n <= MAX_TIME_GRID:
        raise ValueError(f"time-grid size must lie in [2, {MAX_TIME_GRID}], got {n}")


def _suffix_excl(a: np.ndarray) -> np.ndarray:
    """T[m] = Σ_{i>m} a[i] along the last axis."""
    c = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
    out = np.empty_like(c)
    out[:, :-1] = c[:, 1:]
    out[:, -1] = 0.0
    return out


@dataclass(frozen=True)
class CylFunctional:
    """The Itô-sum functional F_n on ℝⁿ for a given potential V."""

    n: int
    potential: PotentialV

    def __post_init__(self):
        check_time_grid(self.n)

    def _prefix_args(self, y: np.ndarray) -> np.ndarray:
        """S_{i−1}/√n for each summand, batched: (B, n)."""
        s = np.cumsum(y, axis=1)
        args = np.empty_like(s)
        args[:, 0] = 0.0
        args[:, 1:] = s[:, :-1]
        return args / np.sqrt(self.n)

    def value_batch(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        vals = self.potential.value(self._prefix_args(y))
        return (vals * y).sum(axis=1) / np.sqrt(self.n)

    def grad_batch(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        n = self.n
        args = self._prefix_args(y)
        vals = self.potential.value(args)
        tail = _suffix_excl(self.potential.d1(args) * y)
        return vals / np.sqrt(n) + tail / n

    def _hess_parts(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Hessian as H = A + diag(−V′/n), A_{lm} = a_{max(l,m)}.

        Returns ``(d1n, tail2)`` with d1n = V′(S_{m−1}/√n)/n and tail2 the
        scaled suffix sum, so a = d1n + tail2 and diag H = tail2.
        """
        n = self.n
        args = self._prefix_args(y)
        d1n = self.potential.d1(args) / n
        tail2 = _suffix_excl(self.potential.d2(args) * y) * n**-1.5
        return d1n, tail2

    def hess_batch(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        n = self.n
        d1n, tail2 = self._hess_parts(y)
        idx = np.maximum.outer(np.arange(n), np.arange(n))
        h = d1n[:, idx] + tail2[:, idx]
        diag = np.arange(n)
        h[:, diag, diag] = tail2
        return h

    def moments_batch(
        self, y: np.ndarray, v: np.ndarray, order: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Curvature moments τ_m = tr(Hᵐ), μ_k = vᵀHᵏv without forming H.

        Returns ``(tau, mu)``, both (order, B) like
        :func:`~gausstube.malliavin.hessian_moments`.
        Hw = a∘cumsum(w) + suffix_excl(a∘w) − d1n∘w costs O(n) per
        sample, as do τ₁ = Σ tail2 and τ₂ = Σ_M 2M·a_M² + Σ tail2² (0-based
        M), so orders ≤ 2 are O(n·order) per sample.  τ_m for m ≥ 3 sums the
        diagonal of Hᵐ column by column: O(n²·m) time per sample but O(B·n)
        memory.
        """
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        nb, n = y.shape
        d1n, tail2 = self._hess_parts(y)
        a = d1n + tail2

        def hv(w):
            return a * np.cumsum(w, axis=1) + _suffix_excl(a * w) - d1n * w

        def power_products(w0, out):
            """Row m−1 of ``out`` = w0ᵀHᵐw0 = w_j·w_{m−j}, w_j = Hʲw0, j = ⌊m/2⌋."""
            top = out.shape[0]
            ws = [w0]
            for _ in range((top + 1) // 2):
                ws.append(hv(ws[-1]))
            for m in range(1, top + 1):
                out[m - 1] = np.einsum("bi,bi->b", ws[m // 2], ws[m - m // 2])

        m = np.arange(n)
        a2 = a * a
        tau = np.zeros((order, nb))
        mu = np.zeros((order, nb))
        if order >= 1:
            tau[0] = tail2.sum(axis=1)
            power_products(v, mu)
        if order >= 2:
            tau[1] = 2.0 * np.einsum("bi,i->b", a2, m) + (tail2**2).sum(axis=1)
        if order >= 3:
            e = np.zeros((nb, n))
            products = np.empty((order, nb))
            for i in range(n):
                e[:, i] = 1.0
                power_products(e, products)
                tau[2:] += products[2:]
                e[:, i] = 0.0
        return tau, mu

    def functional(self) -> SmoothFunctional:
        """F_n on ℝⁿ by the Itô-sum oracles, for every V."""
        return SmoothFunctional(
            dim=self.n,
            values=self.value_batch,
            grads=self.grad_batch,
            hessians=self.hess_batch,
            moments_batch=self.moments_batch,
        )

    def meridian(self) -> SmoothFunctional:
        """F_n for affine V on its meridian plane: a functional of (z, r).

        F_n is then invariant under the rotations of ℝⁿ that fix 1, so it
        depends on y only through z = S/√n and r = ‖y − ȳ·1‖, which are
        independent with z ~ N(0, 1) and r ~ χ_{n−1} (Cochran).  ``draw``
        samples that law with two variates per point instead of n.  With
        h = a₁/n,

            F = a₀z + a₁((n−1)z² − r²)/(2n),   ∇F = (a₀ + h(n−1)z, −h·r),

        which are the value, the gradient's components along 1/√n and
        across it, and so the norm ‖∇F_n‖ and η·y of the point of ℝⁿ.
        ``moments_batch`` returns the moments of the Hessian of F_n on ℝⁿ,
        n−2 rotational directions included.  The functional has no
        ``hessians``: no 2-D Hessian gives those moments.
        """
        affine = self.potential.affine
        if affine is None:
            raise ValueError(
                f"the meridian reduction needs an affine potential, got {self.potential.name!r}"
            )
        a0, a1 = affine
        n = self.n
        h = a1 / n

        def draw(gen, size):
            z = gen.standard_normal(size)
            return np.column_stack((z, np.sqrt(gen.chisquare(n - 1, size))))

        def values(x):
            z, r = x[:, 0], x[:, 1]
            return a0 * z + a1 * ((n - 1) * z * z - r * r) / (2 * n)

        def grads(x):
            return np.column_stack((a0 + h * (n - 1) * x[:, 0], -h * x[:, 1]))

        def moments_batch(x, v, order):
            return _quadric_moments(h, n, v[:, 0] ** 2, v[:, 1] ** 2, order)

        return SmoothFunctional(2, values, grads, moments_batch=moments_batch, draw=draw)

    def sampled(self) -> SmoothFunctional:
        """The functional the co-area estimators sample: :meth:`meridian` for
        affine V, :meth:`functional` otherwise."""
        return self.functional() if self.potential.affine is None else self.meridian()

    def excursion(self, u: float) -> RegionSpec:
        return RegionSpec(self.sampled(), u, "excursion")


def _quadric_moments(
    h: float, n: int, along2: np.ndarray, across2: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """τ_m = tr(Hᵐ) and μ_k = vᵀHᵏv for H = h(11ᵀ − I) on ℝⁿ.

    H has eigenvalue h(n−1) along 1 and −h on the n−1 directions across
    it, so τ_m = hᵐ[(n−1)ᵐ + (n−1)(−1)ᵐ] and
    μ_k = hᵏ[v_∥²(n−1)ᵏ + v_⊥²(−1)ᵏ], where ``along2`` and ``across2`` (B,)
    are v's squared lengths along 1 and across it.  Both results are (J, B).
    """
    tau = np.empty((order, along2.shape[0]))
    mu = np.empty_like(tau)
    for k in range(1, order + 1):
        hk, along, across = h**k, float(n - 1) ** k, (-1.0) ** k
        tau[k - 1] = hk * (along + (n - 1) * across)
        mu[k - 1] = hk * (along2 * along + across2 * across)
    return tau, mu


def limit_gmf_chisq(u: float, order: int) -> GmfVector:
    """Minkowski functionals of the limiting region for V(b) = b.

    For V(b)=b the integral is (ω(1)² − 1)/2, so the excursion region in
    path space is {|ω(1)| ≥ a} with a = √(2u+1).  Its Cameron–Martin
    distance is (a − |ω(1)|)⁺ — shifting a path by h moves ω(1) by at most
    ‖h‖, with equality for linear paths — so the tube volume is 2Ψ(a−ρ) and
    M₀ = 2Ψ(a), M_j = 2H_{j−1}(a)φ(a).
    """
    if u <= -0.5:
        raise ValueError(f"level must exceed -1/2 (the region is everything), got {u}")
    return gmf_two_sided(np.sqrt(2.0 * u + 1.0), order)


def convergence_target(potential: PotentialV, u: float, order: int) -> Optional[GmfVector]:
    """M_j(F⁻¹[u,∞)) as n → ∞, chosen by V's affine coefficients: the half-space
    for V = 1 (F_n is N(0, 1) at every n), the χ² limit for V(b) = b, else None."""
    build = {(1.0, 0.0): gmf_halfspace, (0.0, 1.0): limit_gmf_chisq}.get(potential.affine)
    return None if build is None else build(u, order)


@dataclass(frozen=True)
class ConvergenceReport:
    """Minkowski estimates of F_n excursions along a grid of time resolutions."""

    n_grid: tuple[int, ...]
    estimates: tuple[GmfVector, ...]
    target: Optional[GmfVector]

    def rows(self) -> list[dict]:
        out = []
        for n, g in zip(self.n_grid, self.estimates):
            for j in range(g.order + 1):
                row = {
                    "n": n,
                    "j": j,
                    "estimate": float(g.values[j]),
                    "stderr": float(g.stderr[j]),
                }
                if self.target is not None:
                    row["target"] = float(self.target.values[j])
                out.append(row)
        return out


def convergence_study(
    potential: PotentialV,
    u: float,
    order: int,
    n_grid,
    n_samples: int,
    rng=0,
    eps: Optional[float] = None,
    workers: int = 1,
) -> ConvergenceReport:
    """Estimate M_j(F_n⁻¹[u,∞)) along an increasing grid of n; attach its limit if known."""
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid:
        raise ValueError("n_grid must hold at least one n")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"n_grid must be strictly increasing, got {n_grid}")
    # built first, so a level outside the target's domain fails before any sampling
    target = convergence_target(potential, u, order)
    # every n is checked before the first estimate samples
    regions = [CylFunctional(n, potential).excursion(u) for n in n_grid]
    children = as_seed_sequence(rng).spawn(len(n_grid))
    estimates = tuple(
        gmf_surface_mc(region, order, n_samples, eps=eps, rng=child, workers=workers)
        for region, child in zip(regions, children)
    )
    return ConvergenceReport(n_grid=n_grid, estimates=estimates, target=target)

