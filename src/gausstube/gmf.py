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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._mc import as_seed_sequence, block_sizes, check_levels, fsum_arrays, run_blocks
from .errors import SurfaceDegeneracyError
from .malliavin import (
    DEFAULT_GRAD_FLOOR,
    SmoothFunctional,
    grad_norms,
    jacobian_coeffs,
)
from .series import exp_series, gaussian_pdf, gaussian_tail, hermite_all

#: Fewest samples :func:`gmf_surface_mc_levels` accepts (10^4).
MIN_SURFACE_SAMPLES = 10_000

#: Most samples one per-sample stage of :func:`gmf_surface_mc_levels` holds
#: at a time.  A float row of a tile is 64 KiB, below glibc's 128 KiB mmap
#: threshold, so the stages' temporaries are reused from the heap instead of
#: being mapped and faulted in afresh for every array.
TILE_SIZE = 8192

#: Largest series order J: the tube series divides by J!, and 171! is
#: beyond the range of a double.
MAX_ORDER = 170

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
    """Minkowski functionals M₀..M_J and the covariance of their estimator.

    ``cov`` is the (J+1, J+1) covariance matrix of the estimator vector;
    None means the values are exact (a closed form), which reads as a zero
    matrix.  ``order`` and ``stderr`` = √diag(cov) are derived from these.
    Every linear functional of M — the tube series, the kinematic formula —
    is one :meth:`dot`.  The arrays are read-only copies of those passed.
    """

    values: np.ndarray
    cov: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"values must be a non-empty vector, got shape {v.shape}")
        if not (-1e-9 <= v[0] <= 1 + 1e-9):
            raise ValueError(f"M_0 = {v[0]!r} is not a probability")
        c = np.zeros((v.size, v.size)) if self.cov is None else np.asarray(self.cov, dtype=float)
        if c.shape != (v.size, v.size):
            raise ValueError(f"cov must have shape ({v.size}, {v.size}), got {c.shape}")
        for name, a in (("values", v), ("cov", c)):
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def order(self) -> int:
        return self.values.size - 1

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))

    def dot(self, weights) -> tuple[float, float]:
        """Linear combination w·M and its standard error √(wᵀ·cov·w)."""
        w = np.asarray(weights, dtype=float)
        var = float(w @ self.cov @ w)
        return float(np.dot(w, self.values)), float(np.sqrt(max(var, 0.0)))


def assemble_tube_series(gmfs: GmfVector, rho: float) -> float:
    """Evaluate M₀ + Σ_{j=1..J} ρʲ/j! · M_j."""
    if not 0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    j = np.arange(gmfs.order + 1)
    return gmfs.dot(rho**j / _factorials(gmfs.order + 1))[0]


def _factorials(count: int) -> np.ndarray:
    """0!, 1!, …, (count−1)! as floats."""
    return np.array([math.factorial(j) for j in range(count)], dtype=float)


def _check_order(order: int) -> None:
    """Reject a series order J outside [0, MAX_ORDER]."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be >= 0 and <= {MAX_ORDER}, got {order}")


def gmf_halfspace(u: float, order: int) -> GmfVector:
    """Closed-form functionals of the excursion half-space {x₁ ≥ u}.

    M₀ = Ψ(u) and M_j = H_{j−1}(u)·φ(u) for j ≥ 1; the tube of the
    half-space is again a half-space, γ(Tube) = Ψ(u−ρ), so these are just
    the Taylor coefficients of Ψ(u−ρ) in ρ.
    """
    _check_order(order)
    values = np.empty(order + 1)
    values[0] = gaussian_tail(u)
    if order >= 1:
        values[1:] = hermite_all(order - 1, u) * gaussian_pdf(u)
    return GmfVector(values)


def gmf_two_sided(a: float, order: int) -> GmfVector:
    """Functionals of the two-sheeted region {|x₁| ≥ a}, a > 0.

    By symmetry and additivity of the two disjoint sheets these are twice
    the half-space values at u = a.  The expansion is formal, valid for
    tube radii ρ < a (the sheets' tubes stay disjoint).
    """
    if a <= 0:
        raise ValueError(f"threshold must be positive, got {a}")
    return GmfVector(2.0 * gmf_halfspace(a, order).values)


def gmf_ball(radius: float, dim: int, order: int) -> GmfVector:
    """Functionals of the centered ball {‖x‖ ≤ R} in ℝᵏ.

    The tube of the ball is the ball of radius R+ρ, so
    M_j = dʲ/dρʲ P(χ_k ≤ R+ρ)|₀: M₀ is the chi CDF at R and M_{m+1} is the
    m-th derivative of the chi density f, whose value at R is taken in log
    space.  M_{m+1}/f(R) comes from whichever of two recursions has the
    smaller rounding estimate: the ladder p → p′ − r·p of the polynomial
    parts of the derivatives of r^{k−1}e^{−r²/2}, as terms p_i·R^{i−k+1},
    which cancel at large R (estimate: the ladder on absolute values); and
    m!·[ρᵐ] exp((k−1)·log(1 + ρ/R) − Rρ − ρ²/2) by :func:`exp_series`, whose
    exponent's coefficients grow like R^{−m} (estimate: one step's rounding).
    """
    from scipy import special

    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    _check_order(order)
    values = np.empty(order + 1)
    values[0] = special.gammainc(dim / 2.0, radius**2 / 2.0)
    if order >= 1:
        # f(R) = R^{k−1}·e^{−R²/2} / (2^{k/2−1}·Γ(k/2)), as log₂
        log_g = (dim - 1) * math.log(radius) - radius**2 / 2.0 - special.gammaln(dim / 2.0)
        log2_f = log_g / math.log(2.0) - dim / 2.0 + 1.0
        q = np.zeros((2, dim + order))  # terms scaled by 2^−shift; row 1 on |·|
        q[:, dim - 1] = 1.0
        degree, pad = np.arange(1, dim + order), np.zeros((2, 1))
        up = np.array([[-radius], [radius]])  # the −r·p part of the ladder, and its |·|
        ladder, shift = np.empty((2, order)), np.zeros(order, dtype=int)
        for m in range(order):
            top = math.frexp(q[1].max())[1]  # exact rescaling keeps every term in range
            q, shift[m:] = np.ldexp(q, -top), shift[m] + top
            ladder[:, m] = q.sum(axis=1)
            rise = np.concatenate((pad, q[:, :-1] * up), 1)
            q = np.concatenate((q[:, 1:] * degree / radius, pad), 1) + rise
        m = np.arange(order)  # entry 0 of the exponent is ignored
        with np.errstate(all="ignore"):  # Rᵐ underflows at tiny R and high J
            expo = (dim - 1) * (-1.0) ** (m + 1) / (np.maximum(m, 1) * radius**m)
            expo -= (m == 1) * radius + (m == 2) * 0.5
            e = exp_series(expo[:, None])[:, 0]
            rounding = np.convolve(m * np.abs(expo), np.abs(e))[:order] / np.maximum(m, 1)
            factorials = _factorials(order)
            use = rounding * factorials < np.ldexp(ladder[1], shift)
            best = np.where(use, e * factorials, ladder[0]) * 2.0 ** (log2_f % 1.0)
            values[1:] = np.ldexp(best, math.floor(log2_f) + np.where(use, 0, shift))
    return GmfVector(values)


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
    regions = [RegionSpec(func, u, kind) for u in check_levels(levels)]
    _check_order(order)
    if n_samples < MIN_SURFACE_SAMPLES:
        raise ValueError(f"n_samples must be >= 10^4, got {n_samples}")
    if eps is not None and not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if order >= 2 and func.moments_batch is None:
        raise ValueError(f"order {order} needs the functional's moments_batch")
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
    factorials = _factorials(max(order, 1))
    kappa_norm = 1.0 / (eps * math.sqrt(2.0 * math.pi))

    # One tile rule for every functional: TILE_SIZE rows, shrinking as 2²²/k²
    # once k > 22 so the (tile, k) stages stay small, and never below 256
    # rows.  A dense-Hessian oracle chunks its own (rows, k, k) stacks under
    # the same 2²² cap (``dense_moments``).
    tile = max(256, min(TILE_SIZE, (1 << 22) // (k * k)))

    def surface_weights(x: np.ndarray):
        """‖∇F‖, the degenerate mask and the Jacobian coefficients c_0..c_{J−1},
        coefficient-major (J, m), at the m rows of x."""
        grads = func.grads(x)
        gn = grad_norms(grads)
        if order >= 2:
            coeffs, degenerate = jacobian_coeffs(
                x, grads, gn, lambda v: func.moments_batch(x, v, order - 1), orientation
            )
        else:
            degenerate = gn < DEFAULT_GRAD_FLOOR
            coeffs = np.where(degenerate, 0.0, 1.0)[None, :]
        return gn, degenerate, coeffs

    def one_block(b: int):
        """Per level: Σw, Σwwᵀ, the window size and the degenerate count, for
        w = (1{x ∈ region}, 0!·c_0·base, …, (J−1)!·c_{J−1}·base) with
        base = ‖∇F‖·κ_ε.  Past entry 0, w is zero outside the level's kernel
        window, so the sums run over the window rows only; the entries that
        only the indicator reaches are the region's exact sample count.

        The block is drawn whole, which keeps the sample stream, and every
        per-sample stage runs on tiles of at most ``tile`` rows.  A row's w
        depends on that row alone, and the window rows reach the sums in
        block order, so the tiling cannot change the result."""
        gen = np.random.default_rng(children[b + 1])
        x = func.sample(gen, sizes[b])
        w_tiles = [[] for _ in regions]
        n_inside = [0] * len(regions)
        n_degenerate = [0] * len(regions)
        for start in range(0, sizes[b], tile):
            xt = x[start:start + tile]
            fv = func.values(xt)
            t = [(fv - region.level) / eps for region in regions]
            in_window = [np.abs(ti) <= KERNEL_CUT for ti in t]
            union = np.nonzero(np.logical_or.reduce(in_window))[0]
            if order >= 1 and union.size:
                gn, degenerate, coeffs = surface_weights(xt[union])
            for i, (region, ti, window) in enumerate(zip(regions, t, in_window)):
                inside = region.contains_values(fv)
                n_inside[i] += np.count_nonzero(inside)
                sel = window[union]  # this level's window rows among the union
                idx = union[sel]
                w = np.empty((order + 1, idx.shape[0]))
                w[0] = inside[idx]
                if order >= 1 and idx.size:
                    kappa = kappa_norm * np.exp(-0.5 * ti[idx] ** 2)
                    n_degenerate[i] += int(degenerate[sel].sum())
                    w[1:] = coeffs[:, sel] * (gn[sel] * kappa) * factorials[:order, None]
                w_tiles[i].append(w)
        out = []
        for tiles, count, skipped in zip(w_tiles, n_inside, n_degenerate):
            w = np.concatenate(tiles, axis=1)
            s1 = w.sum(axis=1)
            s2 = w @ w.T
            s1[0] = s2[0, 0] = count
            out.append((s1, s2, w.shape[1], skipped))
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
        meta = {
            "eps": eps,
            "n_samples": n_samples,
            "n_window": n_window,
            "n_degenerate": n_degenerate,
            "skip_fraction": skip_fraction,
        }
        estimates.append(GmfVector(mean, cov, meta))
    return estimates
