import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gausstube.fields
from gausstube import _mc
from gausstube.cylinder import CylFunctional, PotentialV
from gausstube.fields import (
    FieldSample,
    ParamSpace,
    SpatialCov,
    check_resolution,
    ec_mc_levels,
    euler_char,
    excursion_volumes_mc,
    kinematic_weights,
    lkc,
    simulate_field,
    unit_ball_volume,
    validate_assumptions,
)
from gausstube.gmf import gmf_surface_mc
from gausstube.series import gaussian_pdf, gaussian_tail

from _oracles import (
    dense_basis,
    driving_paths,
    grid_points,
    ito_loop_field,
    lambda2_fd,
    load_field,
    reference_euler_char,
    save_field,
    spawned_field_stats,
    wave_cov,
)

DIMS = {"interval": 1, "circle": 1, "torus": 2}
ONE = PotentialV.preset("one")
IDENTITY = PotentialV.preset("identity")
AFFINE = PotentialV.polynomial("affine", (0.3, 2.0))  # a degree-1 potential that is no preset
# plane waves off the axes, isotropic at second order and periodic on 2π-multiple tori
OBLIQUE = SpatialCov.wave_sum([[1, 1], [1, -1], [2, 1], [1, 2], [2, -1], [1, -2]])


AFFINE_CASES = [
    (ParamSpace.interval(10.0, 400), SpatialCov.cosine(1.0)),
    (ParamSpace.circle(2 * np.pi, 128), SpatialCov.cosine(2.0)),
    (ParamSpace.torus(2 * np.pi, 2 * np.pi, 64), SpatialCov.torus_pair(2.0)),
]
# the three spaces, and a wide squared-exponential basis (2K = 128) on the interval
ROW_CASES = AFFINE_CASES + [
    (ParamSpace.interval(10.0, 400), SpatialCov.squared_exponential(1.0, n_waves=64, rng=5)),
]


class TestParamSpace:
    def test_kinds_and_dims(self):
        assert ParamSpace.interval(10.0, 50).dim == 1
        assert ParamSpace.circle(6.0, 50).wraps
        assert ParamSpace.torus(6.0, 6.0, 16).dim == 2

    def test_interval_endpoints(self):
        s = ParamSpace.interval(10.0, 101)
        pts = grid_points(s)
        assert pts[0, 0] == 0.0 and pts[-1, 0] == 10.0
        assert s.spacing == pytest.approx(0.1)

    def test_circle_wraps_without_duplicate(self):
        s = ParamSpace.circle(2 * np.pi, 8)
        pts = grid_points(s)[:, 0]
        assert pts[0] == 0.0
        assert pts[-1] < 2 * np.pi

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamSpace("interval", (10.0, 2.0), 50)
        with pytest.raises(ValueError):
            ParamSpace.interval(-1.0, 50)
        with pytest.raises(ValueError):
            ParamSpace.interval(1.0, 2)

    @pytest.mark.parametrize("length", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(ValueError, match="finite"):
            ParamSpace("interval", (length,), 64)
        with pytest.raises(ValueError, match="finite"):
            ParamSpace.torus(2 * np.pi, length, 64)

    @pytest.mark.parametrize("grid", [400.5, 400.0, "400"], ids=repr)
    def test_non_integer_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="integer"):
            ParamSpace.interval(10.0, grid)

    def test_integer_grid_is_a_python_int(self):
        space = ParamSpace.interval(10.0, np.int64(64))
        assert type(space.grid) is int and space == ParamSpace.interval(10.0, 64)

    def test_resolution_guard_fails_on_nan(self):
        # a NaN spacing must not slip through the guard as "not >= 1"
        space = ParamSpace.interval(10.0, 64)
        object.__setattr__(space, "lengths", (np.nan,))
        with pytest.raises(ValueError, match="too coarse"):
            check_resolution(space, SpatialCov.cosine(1.0))


class TestSpatialCov:
    def test_unit_variance_exact(self):
        cov = SpatialCov.cosine(2.0)
        x = np.array([[0.3]])
        assert wave_cov(cov, x, x) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_covariance(self):
        cov = SpatialCov.cosine(2.0)
        assert wave_cov(cov, np.array([[1.0]]), np.array([[0.25]])) == pytest.approx(
            np.cos(2.0 * 0.75), rel=1e-14
        )

    def test_lambda2_matches_finite_differences(self):
        for cov in (SpatialCov.cosine(1.5), SpatialCov.torus_pair(2.0)):
            fd = lambda2_fd(cov)
            assert np.allclose(fd, cov.lambda2 * np.eye(cov.dim), atol=1e-6)

    def test_torus_pair_isotropic(self):
        cov = SpatialCov.torus_pair(3.0)
        assert cov.lambda2 == pytest.approx(4.5)

    def test_anisotropic_rejected(self):
        with pytest.raises(ValueError, match="isotropic"):
            SpatialCov.wave_sum(np.array([[1.0, 0.0]]))

    def test_squared_exponential_approximates_kernel(self):
        cov = SpatialCov.squared_exponential(1.0, n_waves=4096, rng=5)
        h = np.array([[0.7]])
        target = np.exp(-cov.lambda2 * 0.49 / 2)
        assert wave_cov(cov, h, np.array([[0.0]])) == pytest.approx(target, abs=0.05)

    @pytest.mark.parametrize(
        "space, cov",
        [
            (ParamSpace.interval(10.0, 400), SpatialCov.cosine(1.0)),
            (ParamSpace.interval(10.0, 400), SpatialCov.squared_exponential(1.0, rng=5)),
            (ParamSpace.circle(2 * np.pi, 400), SpatialCov.cosine(3.0)),
            (ParamSpace.circle(2 * np.pi, 400), SpatialCov.squared_exponential(2.0, rng=7)),
            (ParamSpace.torus(2 * np.pi, 2 * np.pi, 400), SpatialCov.torus_pair(2.0)),
            (ParamSpace.torus(4 * np.pi, 2 * np.pi, 50), SpatialCov.torus_pair(1.0)),
        ],
        ids=[
            "interval-cosine",
            "interval-sqexp",
            "circle-cosine",
            "circle-sqexp",
            "torus-pair",
            "torus-pair-oblong",
        ],
    )
    def test_basis_matches_phase_route_bit_for_bit(self, space, cov):
        # one non-zero frequency component per wave: the per-axis product
        # multiplies by exact ones and zeros, so no bit moves
        basis = cov.basis(space)
        assert basis.shape == (2 * cov.weights.size, space.grid**space.dim)
        assert np.array_equal(basis, dense_basis(space, cov))

    def test_oblique_waves_match_phase_route(self):
        # ⟨ω, x⟩ summed over two non-zero components rounds differently from
        # the product of the per-axis factors, by a few ulps of a unit value
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 96)
        basis = OBLIQUE.basis(space)
        assert np.max(np.abs(basis - dense_basis(space, OBLIQUE))) <= 1e-14

    def test_basis_reproduces_covariance(self):
        # Σ_k e_k(x)e_k(y) = C(x, y) at random pairs of torus grid points
        space = ParamSpace.torus(2 * np.pi, 4 * np.pi, 64)
        basis, pts = OBLIQUE.basis(space), grid_points(space)
        i, j = np.random.default_rng(41).integers(0, pts.shape[0], (2, 200))
        products = np.einsum("kb,kb->b", basis[:, i], basis[:, j])
        assert np.max(np.abs(products - wave_cov(OBLIQUE, pts[i], pts[j]))) <= 1e-14

    def test_basis_peak_memory(self):
        # the waves are written into the result as they are built: no (G, ·)
        # grid-point or phase array, only one wave's complex product besides
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 400)
        cov = SpatialCov.torus_pair(2.0)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            basis = cov.basis(space)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2 * basis.nbytes

    def test_periodicity_validation(self):
        cov = SpatialCov.cosine(1.1)
        with pytest.raises(ValueError, match="periodic"):
            cov.compatible_with(ParamSpace.circle(2 * np.pi, 64))
        SpatialCov.cosine(1.0).compatible_with(ParamSpace.circle(2 * np.pi, 64))


class TestSimulateField:
    def test_deterministic(self):
        space = ParamSpace.interval(5.0, 64)
        cov = SpatialCov.cosine(1.0)
        basis = cov.basis(space)
        a = simulate_field(space, basis, IDENTITY, 16, [11])
        b = simulate_field(space, basis, IDENTITY, 16, [11])
        assert np.array_equal(a.f_values, b.f_values)

    def test_constant_potential_gives_time_one_marginal(self):
        # V = 1 telescopes: f(x) = B^x(1) = W(1)·e(x) exactly
        space = ParamSpace.interval(5.0, 32)
        cov = SpatialCov.cosine(1.0)
        basis = cov.basis(space)
        s = simulate_field(space, basis, ONE, 8, [13])
        w1 = driving_paths(space, cov, 8, 13)[-1]
        assert np.allclose(s.f_values[0], w1 @ basis, atol=1e-12)

    def test_covariance_calibration(self):
        # empirical Cov(B^x(1), B^y(1)) over 10^4 reps matches C at random pairs
        space = ParamSpace.interval(4.0, 40)
        cov = SpatialCov.cosine(1.0)
        reps = 10_000
        seeds = [(17, i) for i in range(reps)]
        vals = simulate_field(space, cov.basis(space), ONE, 4, seeds).f_values
        rng = np.random.default_rng(19)
        pts = grid_points(space)
        for _ in range(10):
            i, j = rng.integers(0, 40, 2)
            products = vals[:, i] * vals[:, j]
            target = wave_cov(cov, pts[i], pts[j])[0]
            se = products.std(ddof=1) / np.sqrt(reps)
            assert abs(products.mean() - target) <= 4 * se

    def test_time_consistency(self):
        # Var(B^x(t)) = t at interior times, via the paths simulate_field draws
        space = ParamSpace.interval(4.0, 64)
        cov = SpatialCov.cosine(1.0)
        reps = 4000
        x_basis = cov.basis(space)[:, 3]
        samples = {0.25: [], 0.5: [], 1.0: []}
        for i in range(reps):
            paths = driving_paths(space, cov, 8, (23, i))
            for t, idx in ((0.25, 2), (0.5, 4), (1.0, 8)):
                samples[t].append(float(paths[idx] @ x_basis))
        for t, draw in samples.items():
            var = np.var(draw)
            se = t * np.sqrt(2.0 / reps)
            assert abs(var - t) <= 4 * se

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "estimate", [ec_mc_levels, excursion_volumes_mc], ids=["ec", "volume"]
    )
    def test_basis_built_once_per_ec_run(self, monkeypatch, estimate, workers):
        # one read-only wave-major (2K, G) basis per call, shared by every block
        built = []
        original = SpatialCov.basis

        def counting(self, space):
            built.append(original(self, space))
            return built[-1]

        monkeypatch.setattr(SpatialCov, "basis", counting)
        space = ParamSpace.interval(5.0, 64)
        estimate(space, SpatialCov.cosine(1.0), ONE, [0.0, 1.0], 4, 100, rng=32, workers=workers)
        assert [b.shape for b in built] == [(2, 64)]
        assert not built[0].flags.writeable

    def test_resolution_guard(self, monkeypatch):
        # a coarse grid fails in the replication set-up, before any field is drawn
        def not_reached(*args, **kwargs):
            raise AssertionError("simulate_field ran before the resolution guard")

        monkeypatch.setattr(gausstube.fields, "simulate_field", not_reached)
        space = ParamSpace.interval(100.0, 10)
        for estimate in (ec_mc_levels, excursion_volumes_mc):
            with pytest.raises(ValueError, match="too coarse"):
                estimate(space, SpatialCov.cosine(1.0), ONE, [0.0], 4, 100, rng=1, workers=2)

    @pytest.mark.parametrize("levels", [[], [0.0, float("nan")]], ids=["empty", "nan"])
    def test_levels_guard(self, monkeypatch, levels):
        # no level, or a NaN one, fails before any field is drawn
        def not_reached(*args, **kwargs):
            raise AssertionError("simulate_field ran before the level check")

        monkeypatch.setattr(gausstube.fields, "simulate_field", not_reached)
        space = ParamSpace.interval(5.0, 64)
        for estimate in (ec_mc_levels, excursion_volumes_mc):
            with pytest.raises(ValueError, match="level"):
                estimate(space, SpatialCov.cosine(1.0), ONE, levels, 4, 100, rng=1)

    def test_time_grid_guard(self):
        space = ParamSpace.interval(5.0, 64)
        with pytest.raises(ValueError, match="time_n"):
            simulate_field(space, SpatialCov.cosine(1.0).basis(space), ONE, 1, [1])

    def test_field_values_finite_invariant(self):
        space = ParamSpace.circle(2 * np.pi, 128)
        s = simulate_field(space, SpatialCov.cosine(2.0).basis(space), IDENTITY, 8, [29])
        assert np.all(np.isfinite(s.f_values))

    @pytest.mark.parametrize("name", ["one", "identity", "sin", "cubic"])
    @pytest.mark.parametrize("space,cov", ROW_CASES, ids=["interval", "circle", "torus", "wide"])
    def test_block_rows_are_one_seed_calls(self, space, cov, name):
        # each row draws from its own seed alone, and every block product sums
        # an entry in the same order whatever the block size
        potential = PotentialV.preset(name)
        basis = cov.basis(space)
        seeds = [np.random.SeedSequence((127, i)) for i in range(5)]
        block = simulate_field(space, basis, potential, 8, seeds)
        assert block.f_values.shape == (5,) + space.grid_shape
        for row, seed in zip(block.f_values, seeds):
            (alone,) = simulate_field(space, basis, potential, 8, [seed]).f_values
            assert np.array_equal(row, alone)

    @pytest.mark.parametrize(
        "estimate", [ec_mc_levels, excursion_volumes_mc], ids=["ec", "volume"]
    )
    def test_block_size_and_workers_do_not_move_results(self, monkeypatch, estimate):
        space, cov = ParamSpace.interval(10.0, 400), SpatialCov.cosine(1.0)
        levels = [1.0, -0.5, 0.0]
        # blocks of 81 + 69 replications at the default size, then one per
        # block, then one block of all 150
        results = []
        for block_size in (_mc.BLOCK_SIZE, 1, 400 * 150):
            monkeypatch.setattr(_mc, "BLOCK_SIZE", block_size)
            for workers in (1, 2):
                results.append(estimate(space, cov, IDENTITY, levels, 8, 150, 131, workers))
        for other in results[1:]:
            assert np.array_equal(np.asarray(other), np.asarray(results[0]))


class TestReplicationStreams:
    """The field estimators seed replication i from child i of ``rng``, all
    children's seeds derived in one pass, without spawning."""

    @pytest.mark.parametrize(
        "entropy",
        [0, 2**32 - 1, 2**32, 2**64 + 3, 10**30, (17, 2**40), [5, 0, 2**32 + 1]],
        ids=["0", "2^32-1", "2^32", "2^64+3", "10^30", "tuple", "list"],
    )
    @pytest.mark.parametrize(
        "spawn_key", [(), (3,), (2**33 + 1, 7)], ids=["root", "key", "wide-key"]
    )
    def test_states_match_numpy(self, entropy, spawn_key):
        parent = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        parent.spawn(5)  # children start after those already spawned
        words = _mc.spawned_seed_words(parent, 40)
        assert parent.n_children_spawned == 5
        children = parent.spawn(40)
        assert np.array_equal(words, [child.generate_state(4, np.uint64) for child in children])
        states = [_mc.pcg64_state(w) for w in words.tolist()]
        assert states == [np.random.PCG64(child).state for child in children]

    def test_states_match_numpy_on_a_wide_pool(self):
        parent = np.random.SeedSequence(12345, pool_size=8)
        states = [_mc.pcg64_state(w) for w in _mc.spawned_seed_words(parent, 3).tolist()]
        assert states == [np.random.PCG64(child).state for child in parent.spawn(3)]

    def test_child_indices_are_32_bit(self):
        with pytest.raises(ValueError, match="32-bit"):
            _mc.spawned_seed_words(np.random.SeedSequence(1, n_children_spawned=2**32 - 1), 2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["one", "identity", "sin"])
    @pytest.mark.parametrize("space,cov", AFFINE_CASES, ids=["interval", "circle", "torus"])
    def test_estimators_match_per_replication_seeding(self, space, cov, name, workers):
        # bit for bit the fields of spawn + default_rng per replication, over
        # several blocks on the interval and the torus
        potential = PotentialV.preset(name)
        levels = [-0.5, 0.5]
        rng = np.random.SeedSequence(71)
        rng.spawn(2)
        got_ec = ec_mc_levels(space, cov, potential, levels, 8, 100, rng, workers)
        got_volume = excursion_volumes_mc(space, cov, potential, levels, 8, 100, rng, workers)
        want_ec = spawned_field_stats(space, cov, potential, levels, 8, 100, rng, euler_char)
        rng = np.random.SeedSequence(71)
        rng.spawn(2)
        means, stderrs = spawned_field_stats(
            space, cov, potential, levels, 8, 100, rng, gausstube.fields._volume_fractions
        )
        top = lkc(space, cov)[-1]
        assert np.array_equal(np.asarray(got_ec), np.asarray(want_ec))
        assert np.array_equal(np.asarray(got_volume), [top * means, top * stderrs])

    def test_no_seed_object_per_replication(self, monkeypatch):
        # SeedSequence, PCG64, Generator and default_rng calls do not grow
        # with reps, and the caller's spawn counter stays where it was
        calls = collections.Counter()
        for name in ("SeedSequence", "PCG64", "Generator"):
            cls = getattr(np.random, name)
            counted = type(name, (cls,), {"__init__": _counted(calls, name, cls.__init__)})
            monkeypatch.setattr(np.random, name, counted)
        monkeypatch.setattr(
            np.random, "default_rng", _counted(calls, "default_rng", np.random.default_rng)
        )
        space, cov = ParamSpace.interval(5.0, 64), SpatialCov.cosine(1.0)  # one block of 512
        counts = []
        for reps in (100, 400):
            calls.clear()
            ec_mc_levels(space, cov, IDENTITY, [0.0], 4, reps, rng=3)
            counts.append(dict(calls))
        # the root SeedSequence, and one bit generator and Generator for the one block
        assert counts == [{"SeedSequence": 1, "PCG64": 1, "Generator": 1}] * 2
        seed = np.random.SeedSequence(3)
        first = ec_mc_levels(space, cov, IDENTITY, [0.0], 4, 100, rng=seed)
        second = ec_mc_levels(space, cov, IDENTITY, [0.0], 4, 100, rng=seed)
        assert seed.n_children_spawned == 0
        assert np.array_equal(np.asarray(first), np.asarray(second))


def _counted(calls, name, fn):
    """``fn`` counting its calls under ``name``."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def _no_value(potential):
    """A copy of ``potential`` whose pointwise value must never be called."""

    def value(b):
        raise AssertionError(f"{potential.name} took the time loop")

    return dataclasses.replace(potential, value=value)


class TestAffineClosedForm:
    @pytest.mark.parametrize(
        "potential", [ONE, IDENTITY, AFFINE], ids=["one", "identity", "affine"]
    )
    @pytest.mark.parametrize("space,cov", AFFINE_CASES, ids=["interval", "circle", "torus"])
    def test_matches_time_loop(self, space, cov, potential):
        basis = cov.basis(space)
        closed = simulate_field(space, basis, potential, 16, [101])
        loop = simulate_field(space, basis, dataclasses.replace(potential, coeffs=None), 16, [101])
        scale = np.max(np.abs(loop.f_values))
        assert np.max(np.abs(closed.f_values - loop.f_values)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "potential", [ONE, IDENTITY, AFFINE], ids=["one", "identity", "affine"]
    )
    def test_torus_workload_never_evaluates_v(self, potential):
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 400)
        cov = SpatialCov.torus_pair(2.0)
        closed = simulate_field(space, cov.basis(space), _no_value(potential), 16, [103])
        loop = ito_loop_field(space, cov, potential, 16, 103)
        scale = np.max(np.abs(loop))
        assert np.max(np.abs(closed.f_values.ravel() - loop)) <= 1e-12 * scale

    def test_wide_wave_sum_matches_loop(self):
        # 2K = 128 waves against a time grid of 64 steps: still the closed form
        space = ParamSpace.interval(10.0, 400)
        cov = SpatialCov.squared_exponential(1.0, n_waves=64, rng=5)
        basis = cov.basis(space)
        closed = simulate_field(space, basis, _no_value(IDENTITY), 64, [107])
        loop = simulate_field(space, basis, dataclasses.replace(IDENTITY, coeffs=None), 64, [107])
        scale = np.max(np.abs(loop.f_values))
        assert np.max(np.abs(closed.f_values - loop.f_values)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["sin", "cubic"])
    @pytest.mark.parametrize("space,cov", AFFINE_CASES, ids=["interval", "circle", "torus"])
    def test_non_affine_keeps_time_loop(self, space, cov, name):
        potential = PotentialV.preset(name)
        sample = simulate_field(space, cov.basis(space), potential, 16, [109])
        loop = ito_loop_field(space, cov, potential, 16, 109)
        assert np.array_equal(sample.f_values.ravel(), loop)

    def test_ec_worker_independence_on_torus(self):
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 64)
        cov = SpatialCov.torus_pair(2.0)
        a = ec_mc_levels(space, cov, ONE, [0.5, 1.0], 16, 100, rng=113)
        b = ec_mc_levels(space, cov, ONE, [0.5, 1.0], 16, 100, rng=113, workers=2)
        assert np.array_equal(a, b)


class TestFieldExport:
    """The test-only GTFS field export in ``_oracles``."""

    def test_round_trip(self, tmp_path):
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 32)
        cov = SpatialCov.torus_pair(1.0)
        s = simulate_field(space, cov.basis(space), IDENTITY, 8, [31, 37])
        path = tmp_path / "sample.gtfs"
        save_field(s, path, u_levels=[0.5, 1.0])
        loaded, header = load_field(path)
        assert np.array_equal(loaded.f_values, s.f_values)
        assert loaded.space == space
        assert header["u_levels"] == [0.5, 1.0]
        assert header["version"] == 1

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + bytes(32))
        with pytest.raises(ValueError, match="magic"):
            load_field(path)


def _grid_sample(values, kind="interval", length=1.0):
    """A one-field block of grid-shaped ``values``."""
    values = np.asarray(values, dtype=float)
    space = ParamSpace(kind, (length,) * values.ndim, values.shape[0])
    return FieldSample(space=space, f_values=values[None])


TIED = [0.0, 1.0, 2.0, 3.0]


@st.composite
def _grid_fields(draw):
    """A block of 1–3 fields on a 4–12 point grid of any kind, with values tied in TIED."""
    kind = draw(st.sampled_from(sorted(DIMS)))
    n = draw(st.integers(4, 12))
    reps = draw(st.integers(1, 3))
    values = draw(arrays(np.float64, (reps,) + (n,) * DIMS[kind], elements=st.sampled_from(TIED)))
    space = ParamSpace(kind, (1.0,) * DIMS[kind], n)
    return FieldSample(space=space, f_values=values)


class TestEulerChar:
    @settings(max_examples=300, deadline=None)
    @given(
        sample=_grid_fields(),
        u_levels=st.lists(
            st.sampled_from(TIED) | st.floats(-1.0, 4.0, allow_nan=False), min_size=1, max_size=4
        ),
    )
    def test_matches_reference_count(self, sample, u_levels):
        # unsorted levels, and levels equal to vertex values (the tie under >=)
        chi = euler_char(sample, u_levels)
        assert chi.shape == (len(u_levels), len(sample.f_values))
        for row, u in zip(chi, u_levels):
            assert np.array_equal(row, reference_euler_char(sample, u))

    @pytest.mark.parametrize("kind, full", [("interval", 1), ("circle", 0), ("torus", 0)])
    @pytest.mark.parametrize("n", [4, 12])
    def test_all_above_and_all_below(self, kind, full, n):
        # each row of a three-field block, at the block's lowest value and above its highest
        values = np.random.default_rng(n).standard_normal((3,) + (n,) * DIMS[kind])
        sample = FieldSample(space=ParamSpace(kind, (1.0,) * DIMS[kind], n), f_values=values)
        for row in range(3):
            one = _grid_sample(values[row], kind)
            low, high = values[row].min(), np.nextafter(values[row].max(), np.inf)
            assert euler_char(one, [low, high]).tolist() == [[full], [0]]
        low, high = values.min(), np.nextafter(values.max(), np.inf)
        chi = euler_char(sample, [high, low])
        assert chi.tolist() == [[0] * 3, [full] * 3]
        for row, u in zip(chi, [high, low]):
            assert np.array_equal(row, reference_euler_char(sample, u))

    def test_interval_all_below(self):
        s = _grid_sample(np.zeros(10))
        assert euler_char(s, [1.0]).tolist() == [[0]]

    def test_interval_all_above(self):
        s = _grid_sample(np.ones(10))
        assert euler_char(s, [0.5]).tolist() == [[1]]

    def test_interval_components(self):
        s = _grid_sample([1, 0, 1, 1, 0, 1, 1, 1, 0, 0])
        assert euler_char(s, [0.5]).tolist() == [[3]]

    def test_circle_all_above_is_zero(self):
        s = _grid_sample(np.ones(12), kind="circle")
        assert euler_char(s, [0.5]).tolist() == [[0]]

    def test_circle_wrapping_run(self):
        # one component that wraps through the seam
        s = _grid_sample([1, 0, 0, 0, 0, 1], kind="circle")
        assert euler_char(s, [0.5]).tolist() == [[1]]

    def test_torus_all_above_is_zero(self):
        vals = np.ones((8, 8))
        s = _grid_sample(vals, kind="torus")
        assert euler_char(s, [0.5]).tolist() == [[0]]

    def test_torus_single_blob(self):
        vals = np.zeros((8, 8))
        vals[2:5, 3:6] = 1.0
        s = _grid_sample(vals, kind="torus")
        assert euler_char(s, [0.5]).tolist() == [[1]]

    def test_torus_ring_has_zero_ec(self):
        # a band around one handle: chi = 0
        vals = np.zeros((8, 8))
        vals[:, 2:5] = 1.0
        s = _grid_sample(vals, kind="torus")
        assert euler_char(s, [0.5]).tolist() == [[0]]


class TestLkc:
    def test_interval_is_exact(self):
        cov = SpatialCov.cosine(1.3)
        out = lkc(ParamSpace.interval(10.0, 50), cov)
        assert out.tolist() == [1.0, 10.0 * np.sqrt(cov.lambda2)]

    def test_torus_is_the_product_of_two_circles(self):
        # waves (±2, ±2) with weight 1/2: lambda2 = 4 exactly, as for cos(2h) on a circle
        waves = SpatialCov.wave_sum([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]])
        circle = SpatialCov.cosine(2.0)
        assert waves.lambda2 == circle.lambda2 == 4.0
        torus = lkc(ParamSpace.torus(2 * np.pi, 4 * np.pi, 32), waves)
        product = np.convolve(
            lkc(ParamSpace.circle(2 * np.pi, 32), circle),
            lkc(ParamSpace.circle(4 * np.pi, 32), circle),
        )
        assert torus.tolist() == product.tolist() == [0.0, 0.0, 32.0 * np.pi**2]

    def test_interval(self):
        space = ParamSpace.interval(10.0, 50)
        assert np.allclose(lkc(space, SpatialCov.cosine(1.0)), [1.0, 10.0])

    def test_interval_metric_scaling(self):
        space = ParamSpace.interval(10.0, 400)
        assert np.allclose(lkc(space, SpatialCov.cosine(2.0)), [1.0, 20.0])

    def test_circle_euler_characteristic_zero(self):
        space = ParamSpace.circle(2 * np.pi, 64)
        out = lkc(space, SpatialCov.cosine(1.0))
        assert out[0] == 0.0

    def test_torus_area_scaling(self):
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 32)
        cov = SpatialCov.torus_pair(2.0 * np.sqrt(2.0))  # lambda2 = 4
        out = lkc(space, cov)
        assert np.allclose(out, [0.0, 0.0, (2 * np.pi) ** 2 * 4.0])


class TestEcMc:
    def test_reps_floor(self):
        with pytest.raises(ValueError, match="reps"):
            ec_mc_levels(
                ParamSpace.interval(5.0, 64), SpatialCov.cosine(1.0), ONE, [0.0], 4, 50, rng=1
            )

    def test_extreme_levels(self):
        space = ParamSpace.interval(5.0, 64)
        cov = SpatialCov.cosine(1.0)
        low = ec_mc_levels(space, cov, ONE, [-30.0], 4, 100, rng=37)
        high = ec_mc_levels(space, cov, ONE, [30.0], 4, 100, rng=41)
        assert np.array_equal(low, [[1.0], [0.0]])
        assert np.array_equal(high, [[0.0], [0.0]])

    def test_gaussian_interval_closed_form(self):
        space = ParamSpace.interval(10.0, 400)
        cov = SpatialCov.cosine(1.0)
        (mean,), (stderr,) = ec_mc_levels(space, cov, ONE, [1.0], 8, 1500, rng=43)
        target = gaussian_tail(1.0) + 10.0 / (2 * np.pi) * np.exp(-0.5)
        assert abs(mean - target) <= 3 * stderr

    def test_grid_stability(self):
        cov = SpatialCov.cosine(1.0)
        (coarse,), (coarse_se,) = ec_mc_levels(
            ParamSpace.interval(10.0, 200), cov, ONE, [1.0], 8, 800, rng=47
        )
        (fine,), (fine_se,) = ec_mc_levels(
            ParamSpace.interval(10.0, 400), cov, ONE, [1.0], 8, 800, rng=53
        )
        assert abs(coarse - fine) <= 2 * np.hypot(coarse_se, fine_se)

    def test_levels_share_samples_deterministically(self):
        space = ParamSpace.interval(5.0, 64)
        cov = SpatialCov.cosine(1.0)
        multi_means, multi_ses = ec_mc_levels(space, cov, IDENTITY, [0.0, 1.0], 8, 200, rng=59)
        (mean,), (stderr,) = ec_mc_levels(space, cov, IDENTITY, [0.0], 8, 200, rng=59)
        # identical replication substreams, each level reduced as one row
        assert multi_means[0] == mean
        assert multi_ses[0] == stderr

    def test_worker_independence(self):
        space = ParamSpace.circle(6 * np.pi, 128)
        cov = SpatialCov.cosine(1.0)
        a = ec_mc_levels(space, cov, ONE, [0.5], 4, 200, rng=61)
        b = ec_mc_levels(space, cov, ONE, [0.5], 4, 200, rng=61, workers=3)
        assert np.array_equal(a, b)


class TestKinematicRhs:
    def test_gaussian_interval(self):
        space = ParamSpace.interval(10.0, 400)
        cov = SpatialCov.cosine(1.0)
        gmfs = gmf_surface_mc(CylFunctional(8, ONE).excursion(1.0), 1, 100_000, rng=67)
        value, se = gmfs.dot(kinematic_weights(0, space, cov, 1))
        target = gaussian_tail(1.0) + (2 * np.pi) ** -0.5 * 10.0 * gaussian_pdf(1.0)
        assert abs(value - target) <= 4 * se

    def test_requires_enough_orders(self):
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 64)
        with pytest.raises(ValueError, match="dimension"):
            kinematic_weights(0, space, SpatialCov.torus_pair(2.0), 1)

    def test_index_zero_weights_are_lkc_weights(self):
        # the flag coefficients collapse to 1 exactly, so index 0 is the
        # expected-Euler-characteristic sum bit for bit
        for space, cov in [
            (ParamSpace.interval(10.0, 400), SpatialCov.cosine(1.0)),
            (ParamSpace.torus(2 * np.pi, 2 * np.pi, 64), SpatialCov.torus_pair(2.0)),
        ]:
            curvatures = lkc(space, cov)
            expected = np.zeros(5)
            for j in range(space.dim + 1):
                expected[j] = (2.0 * np.pi) ** (-j / 2.0) * curvatures[j]
            assert np.array_equal(kinematic_weights(0, space, cov, 4), expected)

    def test_torus_index_one_hand_value(self):
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 64)
        cov = SpatialCov.torus_pair(2.0)
        weights = kinematic_weights(1, space, cov, 2)
        area = lkc(space, cov)[2]
        assert weights[0] == 0.0
        assert weights[1] == pytest.approx((np.pi / 2) * (2 * np.pi) ** -0.5 * area, rel=1e-14)
        assert weights[2] == 0.0

    def test_crofton_top_index_is_mass_term(self):
        space = ParamSpace.interval(10.0, 400)
        cov = SpatialCov.cosine(1.0)
        gmfs = gmf_surface_mc(CylFunctional(16, IDENTITY).excursion(0.5), 1, 20_000, rng=73)
        value, se = gmfs.dot(kinematic_weights(1, space, cov, 1))
        top = lkc(space, cov)[1]
        assert value == pytest.approx(top * gmfs.values[0], rel=1e-14)

    def test_crofton_index_validated(self):
        space = ParamSpace.interval(10.0, 400)
        with pytest.raises(ValueError, match="index"):
            kinematic_weights(2, space, SpatialCov.cosine(1.0), 2)

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(0) == pytest.approx(1.0)
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3)

    def test_volume_mc_matches_mass(self):
        space = ParamSpace.interval(10.0, 200)
        cov = SpatialCov.cosine(1.0)
        (vol,), (se,) = excursion_volumes_mc(space, cov, ONE, [1.0], 4, 400, rng=79)
        target = lkc(space, cov)[1] * gaussian_tail(1.0)
        assert abs(vol - target) <= 4 * se

    def test_volume_levels_share_one_field_set(self, monkeypatch):
        # every level reads the same fields, and entry i is the one-level call at u_levels[i]
        drawn = []
        simulate = gausstube.fields.simulate_field

        def counted(*args, **kwargs):
            sample = simulate(*args, **kwargs)
            drawn.append(len(sample.f_values))
            return sample

        space, cov = ParamSpace.interval(10.0, 200), SpatialCov.cosine(1.0)
        levels = [1.0, 0.0, 0.5]
        monkeypatch.setattr(gausstube.fields, "simulate_field", counted)
        vols, ses = excursion_volumes_mc(space, cov, ONE, levels, 4, 120, rng=83, workers=2)
        assert sum(drawn) == 120
        for i, u in enumerate(levels):
            (vol,), (se,) = excursion_volumes_mc(space, cov, ONE, [u], 4, 120, rng=83)
            assert (vols[i], ses[i]) == (vol, se)

    def test_volume_mc_reps_floor(self):
        with pytest.raises(ValueError, match="reps"):
            excursion_volumes_mc(
                ParamSpace.interval(5.0, 64), SpatialCov.cosine(1.0), ONE, [1.0], 4, 1, rng=1
            )


class TestCroftonBoundaryLength:
    @pytest.mark.slow
    def test_index_one_matches_boundary_length_mc(self):
        # E[L_1(A_u)] on the torus against a stereological perimeter
        # estimate: crossing-edge count * spacing is the taxicab length of
        # the digitized boundary, which overestimates an isotropic curve by
        # 4/pi (Cauchy-Crofton), and L_1 is half the induced-metric length.
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 400)
        cov = SpatialCov.torus_pair(2.0)
        u, reps = 1.0, 400
        root = np.random.SeedSequence(20_240_777)
        basis = cov.basis(space)
        lengths = np.empty(reps)
        for i, child in enumerate(root.spawn(reps)):
            above = simulate_field(space, basis, ONE, 4, [child]).f_values[0] >= u
            crossings = int(np.count_nonzero(above != np.roll(above, -1, axis=0)))
            crossings += int(np.count_nonzero(above != np.roll(above, -1, axis=1)))
            taxicab = crossings * space.spacing
            lengths[i] = 0.5 * np.sqrt(cov.lambda2) * (np.pi / 4.0) * taxicab
        lhs = lengths.mean()
        lhs_se = lengths.std(ddof=1) / np.sqrt(reps)
        gmfs = gmf_surface_mc(
            CylFunctional(8, ONE).excursion(u), 2, 200_000, rng=root.spawn(reps + 1)[-1]
        )
        rhs, rhs_se = gmfs.dot(kinematic_weights(1, space, cov, 2))
        assert abs(lhs - rhs) <= max(0.10 * rhs, 3 * np.hypot(lhs_se, rhs_se))


class TestAssumptions:
    @settings(max_examples=100, deadline=None)
    @given(
        freq=arrays(float, (3, 2), elements=st.floats(-5.0, 5.0)),
        weights=arrays(float, 3, elements=st.floats(0.1, 1.0)),
        points=arrays(float, (2, 16, 2), elements=st.floats(-2.0, 2.0)),
    )
    def test_increments_are_lipschitz(self, freq, weights, points):
        # three random frequencies and their 90° turns: isotropic for any weights
        turns = freq @ np.array([[0.0, 1.0], [-1.0, 0.0]])
        cov = SpatialCov.wave_sum(
            np.vstack([freq, turns]), np.tile(weights, 2) / np.sqrt(2.0 * np.sum(weights**2))
        )
        x, y = points
        gap2 = np.sum((x - y) ** 2, axis=1)
        # E|B^x(1) − B^y(1)|² = 2(1 − C(x, y)) ≤ λ₂‖x−y‖², by 1 − cos t ≤ t²/2
        incr = 2.0 * (1.0 - wave_cov(cov, x, y))
        assert np.all(incr <= cov.lambda2 * gap2 * (1.0 + 1e-9) + 1e-12)
        # the same for the gradient field, with the fourth spectral moment λ₄
        w2 = cov.weights**2
        freq_norm2 = np.sum(cov.frequencies**2, axis=1)
        lambda4 = float(np.dot(w2, freq_norm2**2))
        incr_grad = 2.0 * ((1.0 - np.cos((x - y) @ cov.frequencies.T)) @ (w2 * freq_norm2))
        assert np.all(incr_grad <= lambda4 * gap2 * (1.0 + 1e-9) + 1e-12)

    def test_lying_derivative_caught(self):
        bad = PotentialV(value=np.sin, d1=np.sin, d2=lambda b: -np.sin(b))  # d1 wrong on purpose
        with pytest.raises(AssertionError, match="finite differences"):
            validate_assumptions(bad)

    def test_lying_coefficients_caught(self):
        bad = dataclasses.replace(IDENTITY, coeffs=(0.0, 2.0))
        with pytest.raises(AssertionError, match="coefficients"):
            validate_assumptions(bad)
