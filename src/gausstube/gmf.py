"""Gaussian Minkowski functionals of smooth regions in ℝᵏ.

The j-th Gaussian Minkowski functional M_j of a region A is defined by the
Gaussian tube expansion

    γ_k(Tube(A, ρ)) = M₀ + Σ_{j≥1} ρʲ/j! · M_j,

with M₀ = γ_k(A).  For a region bounded by a level set of a smooth
functional F the higher functionals are surface integrals

    M_{j+1} = ∫_{∂A} j! · c_j(x) · da^{∂A}(x),

where c_j(x) is the j-th Taylor coefficient of the change-of-measure
Jacobian ρ ↦ det₂(I+ρ∇η)·exp(−ρδ(η)−ρ²/2) at x and da is the
Gaussian-weighted surface measure.  The factorial bookkeeping
(M_{j+1} integrates j!·c_j, not c_j) is the easiest thing to get wrong,
hence it is confined to this module.

``gmf_surface_mc`` realizes the surface integral without meshing ∂A: by the
Gaussian co-area identity E[g·‖∇F‖·δ_u(F)] = ∫_{F=u} g da, smoothing the
Dirac mass with a Gaussian kernel κ_ε turns the integral into a plain
Monte Carlo average over canonical Gaussian samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._mc import as_seed_sequence, block_sizes, fsum_arrays, run_blocks
from .errors import SurfaceDegeneracyError
from .malliavin import DEFAULT_GRAD_FLOOR, SmoothFunctional, jacobian_coeffs
from .series import gaussian_pdf, gaussian_tail, hermite_all

#: Fewest samples :func:`gmf_surface_mc_levels` accepts (10^4).
MIN_SURFACE_SAMPLES = 10_000

#: Half-width of the kernel window in bandwidths: κ_ε is 0 where |F − u| > 8ε.
KERNEL_CUT = 8.0

_SUB_LEVEL = "sub-level"
_EXCURSION = "excursion"


@dataclass(frozen=True)
class RegionSpec:
    """A region {F ≤ u} (sub-level) or {F ≥ u} (excursion) in ℝᵏ."""

    functional: SmoothFunctional
    level: float
    kind: str

    def __post_init__(self):
        if self.kind not in (_SUB_LEVEL, _EXCURSION):
            raise ValueError(f"kind must be '{_SUB_LEVEL}' or '{_EXCURSION}', got {self.kind!r}")

    @property
    def orientation(self) -> int:
        """+1 for sub-level, −1 for excursion; the unit normal is always outward."""
        return +1 if self.kind == _SUB_LEVEL else -1

    @property
    def dim(self) -> int:
        return self.functional.dim

    def contains_values(self, f_values: np.ndarray) -> np.ndarray:
        f_values = np.asarray(f_values)
        if self.kind == _SUB_LEVEL:
            return f_values <= self.level
        return f_values >= self.level


@dataclass(frozen=True)
class GmfVector:
    """Minkowski functionals M₀..M_J with Monte Carlo standard errors.

    ``stderr`` is zero for closed forms.  ``cov`` (optional) is the full
    covariance matrix of the estimator vector, used by :meth:`dot` to
    propagate errors through linear combinations such as the kinematic
    formula.
    """

    order: int
    values: np.ndarray
    stderr: np.ndarray
    cov: Optional[np.ndarray] = None
    meta: Optional[dict] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.stderr, dtype=float)
        if v.shape != (self.order + 1,) or s.shape != (self.order + 1,):
            raise ValueError(
                f"values/stderr must have shape ({self.order + 1},), "
                f"got {v.shape} and {s.shape}"
            )
        if not (-1e-9 <= v[0] <= 1 + 1e-9):
            raise ValueError(f"M_0 = {v[0]!r} is not a probability")
        v = v.copy()
        s = s.copy()
        v.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "stderr", s)

    def dot(self, weights) -> tuple[float, float]:
        """Linear combination w·M and its standard error √(wᵀ·cov·w)."""
        if self.cov is None:
            raise ValueError("a linear combination needs the estimator covariance")
        w = np.asarray(weights, dtype=float)
        var = float(w @ self.cov @ w)
        return float(np.dot(w, self.values)), float(np.sqrt(max(var, 0.0)))


def assemble_tube_series(gmfs: GmfVector, rho: float) -> float:
    """Evaluate M₀ + Σ_{j=1..J} ρʲ/j! · M_j."""
    from scipy import special

    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    j = np.arange(gmfs.order + 1)
    weights = rho**j / special.factorial(j)
    return float(np.dot(weights, gmfs.values))


def gmf_halfspace(u: float, order: int) -> GmfVector:
    """Closed-form functionals of the excursion half-space {x₁ ≥ u}.

    M₀ = Ψ(u) and M_j = H_{j−1}(u)·φ(u) for j ≥ 1; the tube of the
    half-space is again a half-space, γ(Tube) = Ψ(u−ρ), so these are just
    the Taylor coefficients of Ψ(u−ρ) in ρ.
    """
    values = np.empty(order + 1)
    values[0] = gaussian_tail(u)
    if order >= 1:
        values[1:] = hermite_all(order - 1, u) * gaussian_pdf(u)
    return GmfVector(order, values, np.zeros(order + 1))


def gmf_two_sided(a: float, order: int) -> GmfVector:
    """Functionals of the two-sheeted region {|x₁| ≥ a}, a > 0.

    By symmetry and additivity of the two disjoint sheets these are twice
    the half-space values at u = a.  The expansion is formal, valid for
    tube radii ρ < a (the sheets' tubes stay disjoint).
    """
    if a <= 0:
        raise ValueError(f"threshold must be positive, got {a}")
    half = gmf_halfspace(a, order)
    return GmfVector(order, 2.0 * half.values, np.zeros(order + 1))


def gmf_ball(radius: float, dim: int, order: int) -> GmfVector:
    """Functionals of the centered ball {‖x‖ ≤ R} in ℝᵏ.

    The tube of the ball is the ball of radius R+ρ, so
    M_j = dʲ/dρʲ P(χ_k ≤ R+ρ)|₀: M₀ is the chi CDF at R and the higher
    functionals are derivatives of the chi density.  Each derivative of
    r^{k−1}e^{−r²/2} is p(r)·e^{−r²/2}, and the next one has polynomial
    part p′ − r·p.
    """
    from scipy import special

    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    values = np.empty(order + 1)
    values[0] = special.gammainc(dim / 2.0, radius**2 / 2.0)
    if order >= 1:
        norm_const = 1.0 / (2.0 ** (dim / 2.0 - 1.0) * special.gamma(dim / 2.0))
        weight = norm_const * math.exp(-(radius**2) / 2.0)
        p = np.eye(dim)[-1]  # coefficients of r^{k−1}, lowest degree first
        for m in range(order):
            values[m + 1] = weight * float(np.polynomial.polynomial.polyval(radius, p))
            p = np.append(p[1:] * np.arange(1, p.size), [0.0, 0.0]) - np.append(0.0, p)
    return GmfVector(order, values, np.zeros(order + 1))


def silverman_bandwidth(f_sample: np.ndarray, n_samples: int) -> float:
    """Default smoothing bandwidth 1.06·σ̂·N^{−1/5} from a pilot sample."""
    sigma = float(np.std(np.asarray(f_sample, dtype=float)))
    if sigma <= 0.0:
        raise ValueError("functional is constant on the pilot sample; cannot pick a bandwidth")
    return 1.06 * sigma * float(n_samples) ** (-0.2)


def gmf_surface_mc(
    region: RegionSpec,
    order: int,
    n_samples: int,
    eps: Optional[float] = None,
    rng=0,
    workers: int = 1,
) -> GmfVector:
    """Kernel-smoothed co-area Monte Carlo estimate of M₀..M_J.

    :func:`gmf_surface_mc_levels` at the region's one level.
    """
    return gmf_surface_mc_levels(
        region.functional, region.kind, [region.level], order, n_samples, eps, rng, workers
    )[0]


def gmf_surface_mc_levels(
    func: SmoothFunctional,
    kind: str,
    levels,
    order: int,
    n_samples: int,
    eps: Optional[float] = None,
    rng=0,
    workers: int = 1,
) -> list[GmfVector]:
    """Kernel-smoothed co-area Monte Carlo estimates of M₀..M_J, one per level.

    Draws N samples Xᵢ with ``func.sample`` (canonical Gaussian unless the
    functional has a ``draw``) and returns, for each level u of the regions
    {F ≤ u} or {F ≥ u} (``kind``),

        M̂₀ = (1/N) Σ 1{Xᵢ ∈ region},
        M̂_j = (1/N) Σ (j−1)!·c_{j−1}(Xᵢ)·‖∇F(Xᵢ)‖·κ_ε(F(Xᵢ)−u),  j ≥ 1,

    with κ_ε(t) = φ(t/ε)/ε cut at |t| > ``KERNEL_CUT``·ε.  When ``eps`` is
    None a Silverman-style bandwidth 1.06·σ̂_F·N^{−1/5} is fitted on a pilot
    block.  Points whose gradient norm falls below ``DEFAULT_GRAD_FLOOR``
    inside the kernel window are skipped and counted in
    ``meta["skip_fraction"]``; a skip fraction above 10% raises
    :class:`SurfaceDegeneracyError`.

    Every level shares one sample set: a block draws its samples and
    evaluates F once, and the co-area weights ‖∇F‖·c_j, which do not depend
    on u, once on the union of the levels' kernel windows.  Entry i is
    bit-identical to a one-level call at ``levels[i]`` with the same ``rng``.

    The sample stream is split into fixed-size blocks with independent
    substreams of ``rng``, so results are bit-identical for any ``workers``.
    """
    from scipy import special

    regions = [RegionSpec(func, float(u), kind) for u in levels]
    if not regions:
        raise ValueError("levels must hold at least one level")
    if n_samples < MIN_SURFACE_SAMPLES:
        raise ValueError(f"n_samples must be >= 10^4, got {n_samples}")
    if eps is not None and eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    k = func.dim
    root = as_seed_sequence(rng)
    sizes = block_sizes(n_samples)
    children = root.spawn(len(sizes) + 1)

    if eps is None:
        pilot_rng = np.random.default_rng(children[0])
        pilot = func.sample(pilot_rng, 4096)
        eps = silverman_bandwidth(func.values(pilot), n_samples)
    eps = float(eps)

    orientation = regions[0].orientation
    factorials = special.factorial(np.arange(max(order, 1)))
    kappa_norm = 1.0 / (eps * math.sqrt(2.0 * math.pi))

    # A functional without a moment oracle falls back to a dense Hessian
    # stack of chunk × k² floats; the cap keeps it at 32 MiB.  The moment
    # route holds O(chunk·k) and is no slower in chunks of this size.
    chunk = max(256, min(32768, (1 << 22) // max(k * k, 1)))

    def surface_weights(x: np.ndarray, idx: np.ndarray):
        """‖∇F‖, the degenerate mask and the Jacobian coefficients c_0..c_{J−1}
        at the rows ``idx`` of x."""
        m = idx.shape[0]
        gn = np.empty(m)
        degenerate = np.empty(m, dtype=bool)
        coeffs = np.empty((m, order))
        for start in range(0, m, chunk):
            rows = slice(start, start + chunk)
            xw = x[idx[rows]]
            grads = func.grads(xw)
            gn[rows] = np.linalg.norm(grads, axis=1)
            if order >= 2:
                coeffs[rows], degenerate[rows] = jacobian_coeffs(
                    xw, grads, lambda v: func.moments(xw, v, order - 1), orientation
                )
            else:
                degenerate[rows] = gn[rows] < DEFAULT_GRAD_FLOOR
                coeffs[rows] = np.where(degenerate[rows], 0.0, 1.0)[:, None]
        return gn, degenerate, coeffs

    def one_block(b: int):
        gen = np.random.default_rng(children[b + 1])
        x = func.sample(gen, sizes[b])
        fv = func.values(x)
        t = [(fv - region.level) / eps for region in regions]
        in_window = [np.abs(ti) <= KERNEL_CUT for ti in t]
        union = np.nonzero(np.logical_or.reduce(in_window))[0]
        if order >= 1 and union.size:
            gn, degenerate, coeffs = surface_weights(x, union)
        out = []
        for region, ti, window in zip(regions, t, in_window):
            w = np.zeros((sizes[b], order + 1))
            w[:, 0] = region.contains_values(fv)
            sel = window[union]  # this level's window rows among the union
            idx = union[sel]
            n_degenerate = 0
            if order >= 1 and idx.size:
                kappa = kappa_norm * np.exp(-0.5 * ti[idx] ** 2)
                base = gn[sel] * kappa
                base[degenerate[sel]] = 0.0
                n_degenerate = int(degenerate[sel].sum())
                w[idx, 1:] = coeffs[sel] * base[:, None] * factorials[None, :order]
            out.append((w.sum(axis=0), w.T @ w, idx.shape[0], n_degenerate))
        return out

    results = run_blocks(one_block, len(sizes), workers)
    n = float(n_samples)
    estimates = []
    for i, region in enumerate(regions):
        parts = [r[i] for r in results]
        s1 = fsum_arrays([p[0] for p in parts])
        s2 = fsum_arrays([p[1] for p in parts])
        n_window = sum(p[2] for p in parts)
        n_degenerate = sum(p[3] for p in parts)

        skip_fraction = n_degenerate / max(n_window, 1)
        if skip_fraction > 0.10:
            raise SurfaceDegeneracyError(
                f"{skip_fraction:.1%} of surface-window samples at level {region.level} "
                "were degenerate; the boundary is too irregular for the co-area estimator"
            )

        mean = s1 / n
        cov = (s2 - n * np.outer(mean, mean)) / (n - 1.0) / n
        stderr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        meta = {
            "eps": eps,
            "n_samples": n_samples,
            "n_window": n_window,
            "n_degenerate": n_degenerate,
            "skip_fraction": skip_fraction,
        }
        estimates.append(GmfVector(order, mean, stderr, cov=cov, meta=meta))
    return estimates
