"""Random fields driven by Brownian motion, excursion-set Euler characteristics,
and the kinematic-formula weights on flat parameter spaces.

A field f(x) = ∫₀¹ V(B^x(s)) dB^x(s) is simulated from a family of
Brownian motions indexed by space with covariance

    E[B^x(t) B^y(s)] = (s ∧ t) · C(x, y),

realized exactly by a finite wave expansion: with independent Brownian
paths W_k and an orthogonal cos/sin basis e_k(x) scaled so that
Σ e_k(x)e_k(y) = C(x, y),

    B^x(t) = Σ_k W_k(t) e_k(x).

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

from ._mc import as_seed_sequence, run_blocks
from .cylinder import PotentialV, derivative_sup_moments

#: Relative error allowed between V's derivatives and their finite differences.
DERIVATIVE_REL_TOL = 1e-5

#: Random point pairs at which :func:`validate_assumptions` checks the Lipschitz bounds.
LIPSCHITZ_PAIRS = 64


#: Flat parameter spaces as products of axes: kind → (number of axes, whether they wrap).
_KINDS = {"interval": (1, False), "circle": (1, True), "torus": (2, True)}

# Slices that drop the last or the first point along each axis, for unwrapped grids.
_AXES = range(max(dim for dim, _ in _KINDS.values()))
_HEAD = tuple((slice(None),) * axis + (slice(None, -1),) for axis in _AXES)
_TAIL = tuple((slice(None),) * axis + (slice(1, None),) for axis in _AXES)


@dataclass(frozen=True)
class ParamSpace:
    """A flat parameter space: interval, circle, or flat torus.

    Each kind is a product of ``dim`` axes of the given ``lengths`` that
    all wrap or all do not.  ``grid`` is the number of sample points per
    axis; circle and torus grids wrap (periodic adjacency), the interval
    grid does not.
    """

    kind: str
    lengths: tuple[float, ...]
    grid: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown parameter space kind {self.kind!r}")
        if len(self.lengths) != self.dim:
            raise ValueError(f"{self.kind} needs {self.dim} length(s), got {self.lengths}")
        if any(l <= 0 for l in self.lengths):
            raise ValueError(f"lengths must be positive, got {self.lengths}")
        if self.grid < 4:
            raise ValueError(f"grid must have at least 4 points, got {self.grid}")
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))

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

    def points(self) -> np.ndarray:
        """All grid points as a (G, dim) array (row-major over the grid)."""
        axes = np.meshgrid(*map(self.axis_points, range(self.dim)), indexing="ij")
        return np.column_stack([axis.ravel() for axis in axes])

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
    # wave basis per grid, filled by wave_basis; lives as long as this object
    _basis_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def C(self, x, y) -> np.ndarray:
        """Covariance of the time-one marginal between point arrays."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        phase = (x - y) @ self.frequencies.T
        out = np.cos(phase) @ self.weights**2
        return out if out.size > 1 else float(out[0])

    def basis(self, points: np.ndarray) -> np.ndarray:
        """Orthogonal wave basis e(x), shape (G, 2K): Σ e(x)e(y) = C(x,y)."""
        phase = np.asarray(points, dtype=float) @ self.frequencies.T
        return np.concatenate(
            [self.weights * np.cos(phase), self.weights * np.sin(phase)], axis=1
        )

    def wave_basis(self, space: ParamSpace) -> np.ndarray:
        """Read-only :meth:`basis` on the grid of ``space``, built once per space.

        Threads racing the first lookup may each build it; all of them get
        the first one stored.
        """
        basis = self._basis_memo.get(space)
        if basis is None:
            basis = self.basis(space.points())
            basis.flags.writeable = False
            basis = self._basis_memo.setdefault(space, basis)
        return basis

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
    """One realization of the field on the grid."""

    space: ParamSpace
    f_values: np.ndarray  # grid-shaped

    def __post_init__(self):
        f = np.asarray(self.f_values, dtype=float)
        if f.shape != self.space.grid_shape:
            raise ValueError(f"f_values shape {f.shape} != grid shape {self.space.grid_shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("field values must be finite")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "f_values", f)


def check_resolution(space: ParamSpace, cov: SpatialCov) -> None:
    """Reject a grid too coarse to resolve the field: 4·spacing·√λ₂ ≥ 1."""
    cov.compatible_with(space)
    guard = 4.0 * space.spacing * np.sqrt(cov.lambda2)
    if guard >= 1.0:
        raise ValueError(
            f"spatial grid too coarse for lambda2={cov.lambda2:.3g}: "
            f"4*spacing*sqrt(lambda2) = {guard:.3g} >= 1"
        )


def simulate_field(
    space: ParamSpace,
    cov: SpatialCov,
    potential: PotentialV,
    time_n: int,
    rng=0,
) -> FieldSample:
    """Draw one field realization f(x) = Σᵢ V(B^x(tᵢ))·(B^x(tᵢ₊₁) − B^x(tᵢ)).

    The Brownian motions B^x are generated on the shared uniform time grid
    through the wave basis, with i.i.d. Gaussian increments of variance
    1/time_n, and the Itô sum uses the left endpoint — the same
    discretization as the cylindrical functional F_n.  A resolution guard
    rejects grids with 4·spacing·√λ₂ ≥ 1.

    With e = e(x) the basis row, dᵢ the increments and cᵢ = Σ_{j<i} dⱼ, an
    affine V = a₀ + a₁·b gives f = a₀·e·c_n + a₁·eᵀMe with M = Σᵢ cᵢdᵢᵀ:
    one pass over the grid whatever ``time_n`` is.  Every other V takes the
    left-point time loop.
    """
    if time_n < 2:
        raise ValueError(f"time_n must be >= 2, got {time_n}")
    check_resolution(space, cov)
    gen = np.random.default_rng(as_seed_sequence(rng))
    basis = cov.wave_basis(space)  # (G, 2K)
    width = basis.shape[1]
    increments = gen.standard_normal((time_n, width)) / np.sqrt(time_n)
    affine = potential.affine
    if affine is not None:
        a0, a1 = affine
        paths = np.vstack([np.zeros((1, width)), np.cumsum(increments, axis=0)])
        f = basis @ (a0 * paths[-1])
        if a1:
            m = paths[:-1].T @ increments  # Σᵢ cᵢdᵢᵀ
            f += a1 * np.einsum("gk,gk->g", basis @ m, basis)
    else:
        b = np.zeros(basis.shape[0])
        f = np.zeros(basis.shape[0])
        for i in range(time_n):
            db = basis @ increments[i]
            f += potential.value(b) * db
            b += db
    return FieldSample(space=space, f_values=f.reshape(space.grid_shape))


def euler_char(sample: FieldSample, u: float) -> int:
    """Euler characteristic of {f ≥ u} on the vertex-thresholded complex.

    The grid complex is the product of one chain of vertices and edges per
    axis (a cycle on wrapped axes).  A cell is kept iff all its vertices
    are above the level, so gluing each kept cell to its neighbour along
    the next axis gives the kept cells one dimension up; χ sums their
    counts with sign (−1)^dimension.  A fully supra-threshold interval
    gives 1, a full circle or torus gives 0.
    """
    space = sample.space
    cells = [(sample.f_values >= u, 1)]  # (mask, (−1)^dimension)
    for axis in range(space.dim):
        if space.wraps:
            cells += [(c & np.roll(c, -1, axis), -sign) for c, sign in cells]
        else:
            head, tail = _HEAD[axis], _TAIL[axis]
            cells += [(c[head] & c[tail], -sign) for c, sign in cells]
    chi = 0
    for c, sign in cells:
        chi += sign * np.count_nonzero(c)
    return int(chi)


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
    """(reps, levels) array of ``statistic(sample, u)`` over independent fields.

    All levels share the same field realizations; each replication runs on
    its own substream of ``rng``, so results are reproducible for any
    worker count.
    """
    check_reps(reps)
    u_levels = [float(u) for u in u_levels]
    cov.compatible_with(space)
    children = as_seed_sequence(rng).spawn(reps)

    def one_rep(i: int) -> np.ndarray:
        sample = simulate_field(space, cov, potential, time_n, rng=children[i])
        return np.array([statistic(sample, u) for u in u_levels], dtype=float)

    return np.stack(run_blocks(one_rep, reps, workers))


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
    levels share one field set.
    """
    chi = _replicate(space, cov, potential, u_levels, time_n, reps, rng, workers, euler_char)
    return chi.mean(axis=0), chi.std(axis=0, ddof=1) / np.sqrt(reps)


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
    levels share one field set, and each level is reduced as a contiguous
    row, so entry i is bit-identical to a call at ``[u_levels[i]]`` with the
    same ``rng``.
    """
    fractions = np.ascontiguousarray(
        _replicate(
            space, cov, potential, u_levels, time_n, reps, rng, workers,
            lambda sample, u: np.mean(sample.f_values >= u),
        ).T
    )
    top = lkc(space, cov)[-1]
    return top * fractions.mean(axis=1), top * (fractions.std(axis=1, ddof=1) / np.sqrt(reps))


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
            f"series order {order} must be >= space dimension {m} minus index {index}"
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


def check_potential_derivatives(potential: PotentialV) -> None:
    """Finite-difference consistency of V', …, V'''' on [−6, 6] (C⁴ check).

    Polynomial coefficients, when set, must reproduce V on the same grid.
    """
    grid = np.linspace(-6.0, 6.0, 241)
    if potential.coeffs is not None:
        values = potential.value(grid)
        poly = np.polynomial.polynomial.polyval(grid, potential.coeffs)
        err = float(np.max(np.abs(poly - values)))
        if err > DERIVATIVE_REL_TOL * max(1.0, float(np.max(np.abs(values)))):
            raise AssertionError(
                f"potential coefficients {potential.coeffs} do not reproduce its value: "
                f"max error {err:.3e}"
            )
    step = 1e-4 * (1.0 + np.abs(grid))
    for k in range(4):
        fk = potential.derivative(k)
        fk1 = potential.derivative(k + 1)
        fd = (fk(grid + step) - fk(grid - step)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(fk1(grid)))))
        err = float(np.max(np.abs(fd - fk1(grid))))
        if err > DERIVATIVE_REL_TOL * scale:
            raise AssertionError(
                f"derivative order {k + 1} of potential fails finite differences: "
                f"max error {err:.3e} (scale {scale:.3e})"
            )


def validate_assumptions(cov: SpatialCov, potential: PotentialV, rng=0) -> None:
    """Runtime validation of the regularity assumptions behind the formula.

    Checks, raising AssertionError on failure:
      * the potential is C⁴ by finite differences (smoothness);
      * sup-moments of |V⁽ᵏ⁾(B_t)| are finite (polynomial growth);
      * increments are Lipschitz in space: 2(1 − C(x,y)) ≤ λ₂‖x−y‖², and
        the analogue for the spatial-derivative field with the fourth
        spectral moment (so the same holds for ∇B and ∇²B).
    """
    check_potential_derivatives(potential)
    moments = derivative_sup_moments(potential, rng)
    if not np.all(np.isfinite(moments)):
        raise AssertionError(f"potential sup-moments are not finite: {moments!r}")

    gen = np.random.default_rng(as_seed_sequence(rng))
    d = cov.dim
    x = gen.uniform(-2.0, 2.0, size=(LIPSCHITZ_PAIRS, d))
    y = gen.uniform(-2.0, 2.0, size=(LIPSCHITZ_PAIRS, d))
    gap2 = np.sum((x - y) ** 2, axis=1)
    incr = 2.0 * (1.0 - np.asarray(cov.C(x, y)))
    if np.any(incr > cov.lambda2 * gap2 * (1.0 + 1e-9) + 1e-12):
        raise AssertionError("increment variance violates the Lipschitz bound lambda2*|x-y|^2")
    w2 = cov.weights**2
    freq_norm2 = np.sum(cov.frequencies**2, axis=1)
    lambda4 = float(np.dot(w2, freq_norm2**2))
    phase = (x - y) @ cov.frequencies.T
    incr_grad = 2.0 * ((1.0 - np.cos(phase)) @ (w2 * freq_norm2))
    if np.any(incr_grad > lambda4 * gap2 * (1.0 + 1e-9) + 1e-12):
        raise AssertionError("gradient-field increments violate the fourth-moment bound")
