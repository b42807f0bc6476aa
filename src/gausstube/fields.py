"""Random fields driven by Brownian motion, excursion-set Euler characteristics,
and the kinematic-formula weights on flat parameter spaces.

A field f(x) = ∫₀¹ V(B^x(s)) dB^x(s) is simulated from a family of
Brownian motions indexed by space with covariance

    E[B^x(t) B^y(s)] = (s ∧ t) · C(x, y),

realized exactly by a finite wave expansion: with independent Brownian
paths W_k and an orthogonal cos/sin basis e_k(x) scaled so that
Σ e_k(x)e_k(y) = C(x, y),

    B^x(t) = Σ_k W_k(t) e_k(x).

Each wave e^{i⟨ω_k, x⟩} = Π_a e^{i ω_{k,a} x_a} is built from its per-axis
factors on the product grid, with no array of grid points.

The Itô integral is evaluated by the same left-point sum as the
cylindrical functional F_n, so the simulated field and the functional-space
side of the kinematic formula share one time discretization.

Euler characteristics of excursion sets {f ≥ u} are counted on the
vertex-thresholded cubical complex of the grid (exact on the
discretization; refinement controls bias), and the flat parameter spaces
carry Lipschitz–Killing curvatures under the metric induced by the
time-one marginal of the driving field, which is λ₂ times the flat metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _mc
from ._mc import as_seed_sequence, check_levels, run_blocks
from .cylinder import PotentialV

#: Relative error allowed between V's derivatives and their finite differences.
DERIVATIVE_REL_TOL = 1e-5


#: Flat parameter spaces as products of axes: kind → (number of axes, whether they wrap).
_KINDS = {"interval": (1, False), "circle": (1, True), "torus": (2, True)}


@dataclass(frozen=True)
class ParamSpace:
    """A flat parameter space: interval, circle, or flat torus.

    Each kind is a product of ``dim`` axes of the given finite, positive
    ``lengths`` that all wrap or all do not.  ``grid`` is the integer number
    of sample points per axis, at least 4; circle and torus grids wrap
    (periodic adjacency), the interval grid does not.
    """

    kind: str
    lengths: tuple[float, ...]
    grid: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown parameter space kind {self.kind!r}")
        if len(self.lengths) != self.dim:
            raise ValueError(f"{self.kind} needs {self.dim} length(s), got {self.lengths}")
        lengths = tuple(float(l) for l in self.lengths)
        if not all(math.isfinite(l) and l > 0 for l in lengths):
            raise ValueError(f"lengths must be finite and positive, got {self.lengths}")
        if not isinstance(self.grid, (int, np.integer)):
            raise ValueError(f"grid must be an integer, got {self.grid!r}")
        if self.grid < 4:
            raise ValueError(f"grid must have at least 4 points, got {self.grid}")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "grid", int(self.grid))

    @classmethod
    def interval(cls, length: float, grid: int) -> "ParamSpace":
        return cls("interval", (length,), grid)

    @classmethod
    def circle(cls, length: float, grid: int) -> "ParamSpace":
        return cls("circle", (length,), grid)

    @classmethod
    def torus(cls, length1: float, length2: float, grid: int) -> "ParamSpace":
        return cls("torus", (length1, length2), grid)

    @property
    def dim(self) -> int:
        return _KINDS[self.kind][0]

    @property
    def wraps(self) -> bool:
        return _KINDS[self.kind][1]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.grid,) * self.dim

    def axis_points(self, axis: int) -> np.ndarray:
        length = self.lengths[axis]
        if self.wraps:
            return np.arange(self.grid) * (length / self.grid)
        return np.linspace(0.0, length, self.grid)

    @property
    def spacing(self) -> float:
        denom = self.grid if self.wraps else self.grid - 1
        return max(l / denom for l in self.lengths)


@dataclass(frozen=True)
class SpatialCov:
    """Stationary unit-variance spatial covariance as a finite wave sum.

    C(x, y) = Σ_k w_k² cos⟨ω_k, x−y⟩ with Σ w_k² = 1, so C(x,x) = 1
    exactly.  ``lambda2`` is the second spectral moment: the spectral-moment
    matrix Σ w_k² ω_k ω_kᵀ must equal λ₂·I (isotropy), which the
    constructors enforce, and λ₂ equals the mixed derivative ∂²C/∂x∂y on
    the diagonal.
    """

    frequencies: np.ndarray  # (K, dim)
    weights: np.ndarray  # (K,)
    lambda2: float = field(init=False)

    def __post_init__(self):
        freq = np.atleast_2d(np.asarray(self.frequencies, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if freq.size == 0:
            raise ValueError("frequencies must hold at least one frequency")
        if freq.shape[0] != w.shape[0]:
            raise ValueError("frequencies and weights must have matching length")
        if not (np.all(np.isfinite(freq)) and np.all(np.isfinite(w))):
            raise ValueError("frequencies and weights must be finite")
        if abs(float(np.sum(w**2)) - 1.0) > 1e-12:
            raise ValueError("weights must satisfy sum of squares = 1 (unit variance)")
        mom = np.einsum("k,ki,kj->ij", w**2, freq, freq)
        lam = float(np.trace(mom)) / freq.shape[1]
        if np.max(np.abs(mom - lam * np.eye(freq.shape[1]))) > 1e-10 * max(lam, 1.0):
            raise ValueError(
                f"frequency set is not isotropic at second order: moment matrix {mom!r}"
            )
        freq = freq.copy()
        w = w.copy()
        freq.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "lambda2", lam)

    @classmethod
    def cosine(cls, frequency: float) -> "SpatialCov":
        """C(x, y) = cos(ω(x−y)) on a one-dimensional space; λ₂ = ω²."""
        return cls(np.array([[float(frequency)]]), np.array([1.0]))

    @classmethod
    def wave_sum(cls, frequencies, weights=None) -> "SpatialCov":
        """A symmetric set of plane waves; the moment matrix must be isotropic."""
        freq = np.atleast_2d(np.asarray(frequencies, dtype=float))
        if weights is None:
            weights = np.full(freq.shape[0], 1.0 / np.sqrt(freq.shape[0]))
        return cls(freq, np.asarray(weights, dtype=float))

    @classmethod
    def torus_pair(cls, frequency: float) -> "SpatialCov":
        """The axis pair {(ω,0), (0,ω)} on the torus; λ₂ = ω²/2."""
        w = float(frequency)
        return cls.wave_sum(np.array([[w, 0.0], [0.0, w]]))

    @classmethod
    def squared_exponential(cls, lambda2: float, n_waves: int = 64, rng=0) -> "SpatialCov":
        """Spectral-sample approximation of C(h) = exp(−λ₂h²/2) on a 1-D space.

        Frequencies are drawn from the kernel's spectral density N(0, λ₂);
        the realized covariance is the wave sum over the draw, which matches
        the squared-exponential kernel only up to O(n_waves^{−1/2})
        truncation error.  ``lambda2`` of the returned object is the realized
        second moment of the draw (exact for the realized field).
        """
        if lambda2 < 0:
            raise ValueError(f"lambda2 must be >= 0, got {lambda2}")
        gen = np.random.default_rng(as_seed_sequence(rng))
        freq = gen.standard_normal((n_waves, 1)) * np.sqrt(lambda2)
        return cls(freq, np.full(n_waves, n_waves**-0.5))

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]

    def basis(self, space: ParamSpace) -> np.ndarray:
        """Orthogonal wave basis e(x) on the grid of ``space``, wave-major: shape
        (2K, G), one contiguous row per wave, with Σ_k e_k(x)e_k(y) = C(x,y).

        Row k is the real part and row K + k the imaginary part of
        w_k·Π_a e^{i ω_{k,a} x_a}, the outer product of per-axis factors.
        Each factor is numpy's cos and sin of ω_{k,a}·x_a, so a wave with one
        non-zero frequency component (any 1-D wave, the torus pair) is
        w_k·cos⟨ω_k, x⟩ and w_k·sin⟨ω_k, x⟩ bit for bit.  The replication
        loops build it once per field set, after :func:`check_resolution`,
        and share it read-only.
        """
        axes = [space.axis_points(a) for a in range(space.dim)]
        waves = np.empty((2, self.weights.size) + space.grid_shape)
        for k, (wave, omega) in enumerate(zip(self.weights, self.frequencies)):
            for o, x in zip(omega, axes):
                wave = np.multiply.outer(wave, np.cos(o * x) + 1j * np.sin(o * x))
            waves[0, k], waves[1, k] = wave.real, wave.imag
        return waves.reshape(2 * self.weights.size, -1)

    def compatible_with(self, space: ParamSpace) -> None:
        """Reject frequencies that break periodicity on wrapped spaces."""
        if self.dim != space.dim:
            raise ValueError(
                f"covariance dimension {self.dim} does not match space dimension {space.dim}"
            )
        if not space.wraps:
            return
        for axis, length in enumerate(space.lengths):
            cycles = self.frequencies[:, axis] * length / (2.0 * np.pi)
            if np.max(np.abs(cycles - np.round(cycles))) > 1e-9:
                raise ValueError(
                    f"frequencies {self.frequencies[:, axis]} are not periodic on a "
                    f"wrapped axis of length {length}"
                )


@dataclass(frozen=True)
class FieldSample:
    """A block of R field realizations on the grid, one per leading row.

    ``f_values`` has shape (R, *grid); one field is a block with R = 1.
    The sample holds a read-only view of the values.
    """

    space: ParamSpace
    f_values: np.ndarray  # (R, *grid)

    def __post_init__(self):
        f = np.asarray(self.f_values, dtype=float).view()
        if f.shape[1:] != self.space.grid_shape:
            raise ValueError(f"f_values shape {f.shape} is not (R, *{self.space.grid_shape})")
        f.flags.writeable = False
        object.__setattr__(self, "f_values", f)


def check_resolution(space: ParamSpace, cov: SpatialCov) -> None:
    """Reject a grid too coarse to resolve the field: 4·spacing·√λ₂ ≥ 1 (or NaN)."""
    cov.compatible_with(space)
    guard = 4.0 * space.spacing * np.sqrt(cov.lambda2)
    if not guard < 1.0:
        raise ValueError(
            f"spatial grid too coarse for lambda2={cov.lambda2:.3g}: "
            f"4*spacing*sqrt(lambda2) = {guard:.3g} >= 1"
        )


def simulate_field(
    space: ParamSpace,
    basis: np.ndarray,
    potential: PotentialV,
    time_n: int,
    seeds,
) -> FieldSample:
    """Draw a block of fields f(x) = Σᵢ V(B^x(tᵢ))·(B^x(tᵢ₊₁) − B^x(tᵢ)), one per seed.

    The Brownian motions B^x are generated on the shared uniform time grid
    through ``basis``, the wave-major (2K, G) :meth:`SpatialCov.basis` of the
    grid.  Row r of the block draws its (time_n, 2K) Gaussian
    increments, of variance 1/time_n, from ``seeds[r]`` alone.  Every
    product is a stacked matmul over the block, one BLAS call per row with
    the same shapes whatever R is, so row r is bit-identical to a call with
    ``[seeds[r]]`` (a 2-D product of the whole block would switch from GEMV
    at R = 1 to GEMM at R > 1, and move the last bits).  The Itô sum uses the
    left endpoint — the same discretization as the cylindrical functional
    F_n.  The grid is the caller's to check: the replication loops run
    :func:`check_resolution` once, before any field.

    With e = e(x) the basis column, dᵢ the increments and cᵢ = Σ_{j<i} dⱼ,
    an affine V = a₀ + a₁·b gives f = a₀·e·c_n + a₁·eᵀMe with M = Σᵢ cᵢdᵢᵀ:
    one pass over the grid whatever ``time_n`` is.  Every other V takes the
    left-point time loop, one step for the whole block at a time.
    """
    if time_n < 2:
        raise ValueError(f"time_n must be >= 2, got {time_n}")
    increments = np.empty((len(seeds), time_n, basis.shape[0]))
    for row, seed in zip(increments, seeds):
        np.random.default_rng(as_seed_sequence(seed)).standard_normal(out=row)
    increments /= np.sqrt(time_n)
    affine = potential.affine
    if affine is not None:
        a0, a1 = affine
        paths = np.cumsum(increments, axis=1)  # c₁ … c_n
        f = (a0 * paths[:, -1:]) @ basis  # (R, 1, G)
        if a1:
            m = paths[:, :-1].transpose(0, 2, 1) @ increments[:, 1:]  # c₀ = 0 adds nothing
            f += a1 * np.einsum("rkg,kg->rg", m @ basis, basis)[:, None]
    else:
        b = np.zeros((len(seeds), 1, basis.shape[1]))
        f = np.zeros_like(b)
        for i in range(time_n):
            db = increments[:, i : i + 1] @ basis
            f += potential.value(b) * db
            b += db
    return FieldSample(space=space, f_values=f.reshape((-1,) + space.grid_shape))


def _levels(u_levels, f: np.ndarray) -> np.ndarray:
    """The levels as a column that broadcasts against ``f`` to (levels, *f.shape)."""
    return np.asarray(u_levels, dtype=float).reshape((-1,) + (1,) * f.ndim)


def _counts(mask: np.ndarray) -> np.ndarray:
    """(levels, R) number of kept cells in each (level, replication) slice of ``mask``.

    Each slice is counted flat: ``np.count_nonzero`` along grid axes is
    several times slower on long rows.
    """
    slices = mask.reshape((-1,) + mask.shape[2:])
    counts = np.fromiter(map(np.count_nonzero, slices), dtype=np.int64, count=len(slices))
    return counts.reshape(mask.shape[:2])


def euler_char(sample: FieldSample, u_levels) -> np.ndarray:
    """(levels, R) Euler characteristics of {f ≥ u} on the vertex-thresholded complex.

    The grid complex is the product of one chain of vertices and edges per
    axis (a cycle on wrapped axes).  A cell is kept iff all its vertices
    are above the level, so gluing each kept cell to its neighbour along
    the next axis gives the kept cells one dimension up; χ sums their
    counts with sign (−1)^dimension.  Every level and every field of the
    block is thresholded in one (levels, R, *grid) mask with one more slice
    per axis, which the un-glued cells drop: a copy of the axis's first
    slice on a wrapped space, so the edge closing the cycle is one more
    neighbour pair, and False otherwise.  A fully supra-threshold interval
    gives 1, a full circle or torus gives 0.
    """
    space, f = sample.space, sample.f_values
    levels = _levels(u_levels, f)
    above = np.empty(levels.shape[:1] + f.shape[:1] + (space.grid + 1,) * space.dim, bool)
    np.greater_equal(f, levels, out=above[(Ellipsis,) + (slice(None, -1),) * space.dim])
    for axis in range(space.dim):
        lead = (slice(None),) * (axis + 2)
        np.logical_and(above[lead + (0,)], space.wraps, out=above[lead + (-1,)])
    cells = [(above, 1)]  # (mask, (−1)^dimension)
    for axis in range(space.dim):
        lead = (slice(None),) * (axis + 2)
        head, tail = lead + (slice(None, -1),), lead + (slice(1, None),)
        cells = [(c[head], sign) for c, sign in cells] + [
            (c[head] & c[tail], -sign) for c, sign in cells
        ]
    return sum(sign * _counts(c) for c, sign in cells)


def lkc(space: ParamSpace, cov: SpatialCov) -> np.ndarray:
    """Lipschitz–Killing curvatures of the space under the induced metric.

    Flat LKCs multiply over a product: an interval axis of length T has
    (1, T), a circle (0, L), and the space's curvatures are the product of
    these as polynomials.  The time-one marginal of the driving field has
    unit variance and second spectral moment λ₂, so the induced metric is
    λ₂ times the flat one and every j-dimensional volume scales by
    λ₂^{j/2}:

        interval [0,T] → (1, T√λ₂),  circle → (0, L√λ₂),
        torus → (0, 0, L₁L₂λ₂).
    """
    if cov.dim != space.dim:
        raise ValueError("covariance/space dimension mismatch")
    curvatures = np.ones(1)
    for length in space.lengths:
        curvatures = np.convolve(curvatures, [0.0 if space.wraps else 1.0, length])
    j = np.arange(curvatures.size)
    return curvatures * np.where(j % 2, np.sqrt(cov.lambda2), 1.0) * cov.lambda2 ** (j // 2)


def check_reps(reps: int) -> None:
    """Reject fewer than 100 field replications."""
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")


def _replicate(space, cov, potential, u_levels, time_n, reps, rng, workers, statistic):
    """``(means, stderrs)`` per level of ``statistic(sample, u_levels)`` over independent fields.

    The resolution guard runs and the wave basis is built once, from the
    grid's per-axis factors (:meth:`SpatialCov.basis`), before any field is
    drawn; the worker threads share only that read-only basis.
    Replications run in fixed blocks of ``max(1, BLOCK_SIZE // G)``, one
    :func:`simulate_field` stack and one (levels, R) statistic per block,
    and each replication draws from its own substream of ``rng``, so
    results are reproducible for any worker count and any block size.  All
    levels share the same field realizations, and each level is one
    contiguous row, so its mean and standard error are bit-identical to a
    one-level call's.
    """
    check_reps(reps)
    u_levels = check_levels(u_levels)
    check_resolution(space, cov)
    basis = cov.basis(space)
    basis.flags.writeable = False
    children = as_seed_sequence(rng).spawn(reps)
    size = max(1, _mc.BLOCK_SIZE // basis.shape[1])

    def one_block(i: int) -> np.ndarray:
        seeds = children[i * size : (i + 1) * size]
        return statistic(simulate_field(space, basis, potential, time_n, seeds), u_levels)

    blocks = run_blocks(one_block, -(-reps // size), workers)
    stats = np.concatenate(blocks, axis=1, dtype=float)
    return stats.mean(axis=1), stats.std(axis=1, ddof=1) / np.sqrt(reps)


def ec_mc_levels(
    space: ParamSpace,
    cov: SpatialCov,
    potential: PotentialV,
    u_levels,
    time_n: int,
    reps: int,
    rng=0,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-characteristic means over independent field samples, one per level.

    Returns ``(means, stderrs)``, like :func:`excursion_volumes_mc`; all
    levels share one field set, and entry i is bit-identical to a call at
    ``[u_levels[i]]`` with the same ``rng``.  A grid too coarse for the
    covariance (:func:`check_resolution`) raises before any field is drawn.
    """
    return _replicate(space, cov, potential, u_levels, time_n, reps, rng, workers, euler_char)


def _volume_fractions(sample: FieldSample, u_levels) -> np.ndarray:
    """(levels, R) fraction of grid points with f ≥ u."""
    f = sample.f_values
    return _counts(f >= _levels(u_levels, f)) / f[0].size


def excursion_volumes_mc(
    space: ParamSpace,
    cov: SpatialCov,
    potential: PotentialV,
    u_levels,
    time_n: int,
    reps: int,
    rng=0,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct Monte Carlo of E[L_dim(A_u)] = L_dim(M)·P(f ≥ u), one entry per level.

    Estimates the supra-threshold volume fraction on the grid and scales by
    the top Lipschitz–Killing curvature; returns ``(means, stderrs)``.  All
    levels share one field set, and entry i is bit-identical to a call at
    ``[u_levels[i]]`` with the same ``rng``.  A grid too coarse for the
    covariance (:func:`check_resolution`) raises before any field is drawn.
    """
    mean, stderr = _replicate(
        space, cov, potential, u_levels, time_n, reps, rng, workers, _volume_fractions
    )
    top = lkc(space, cov)[-1]
    return top * mean, top * stderr


def unit_ball_volume(dim: int) -> float:
    """Volume ω_dim of the unit ball in ℝ^dim (ω₀ = 1)."""
    from scipy import special

    return float(np.pi ** (dim / 2.0) / special.gamma(dim / 2.0 + 1.0))


def kinematic_weights(index: int, space: ParamSpace, cov: SpatialCov, order: int) -> np.ndarray:
    """Weights w with E[L_index(A_u(f; M))] = Σ_j w_j·M_j(F⁻¹[u, ∞)).

    w_j = C(i+j, j)·ω_{i+j}/(ω_i ω_j)·(2π)^{−j/2}·L_{i+j}(M) for
    j ≤ dim − i and 0 above, so the vector has length ``order + 1`` and
    dots with the Minkowski functionals M₀..M_order (see
    :meth:`GmfVector.dot`).  For i = 0 the flag coefficients collapse to 1
    and the sum is the expected-Euler-characteristic formula.
    """
    m = space.dim
    if not 0 <= index <= m:
        raise ValueError(f"index must lie in [0, {m}], got {index}")
    if order < m - index:
        raise ValueError(
            f"series order J={order} must be >= space dimension {m} minus index {index}"
        )
    curvatures = lkc(space, cov)
    weights = np.zeros(order + 1)
    for j in range(m - index + 1):
        flag = (
            math.comb(index + j, j)
            * unit_ball_volume(index + j)
            / (unit_ball_volume(index) * unit_ball_volume(j))
        )
        weights[j] = flag * (2.0 * np.pi) ** (-j / 2.0) * curvatures[index + j]
    return weights


def validate_assumptions(potential: PotentialV) -> None:
    """Check a hand-built potential against itself on [−6, 6], raising AssertionError.

    Polynomial coefficients, when set, must reproduce V, and V′ and V″ must
    match finite differences of V and V′.  The presets pass by construction,
    so runs do not call this; a potential built field by field, or through
    :func:`dataclasses.replace`, may not.
    """
    grid = np.linspace(-6.0, 6.0, 241)
    if potential.coeffs is not None:
        values = potential.value(grid)
        poly = np.polyval(potential.coeffs[::-1], grid)
        err = float(np.max(np.abs(poly - values)))
        if err > DERIVATIVE_REL_TOL * max(1.0, float(np.max(np.abs(values)))):
            raise AssertionError(
                f"potential coefficients {potential.coeffs} do not reproduce its value: "
                f"max error {err:.3e}"
            )
    step = 1e-4 * (1.0 + np.abs(grid))
    ladder = (potential.value, potential.d1, potential.d2)
    for k, (fk, fk1) in enumerate(zip(ladder, ladder[1:])):
        fd = (fk(grid + step) - fk(grid - step)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(fk1(grid)))))
        err = float(np.max(np.abs(fd - fk1(grid))))
        if err > DERIVATIVE_REL_TOL * scale:
            raise AssertionError(
                f"derivative order {k + 1} of potential fails finite differences: "
                f"max error {err:.3e} (scale {scale:.3e})"
            )
