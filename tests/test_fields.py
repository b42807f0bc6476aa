import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gausstube.fields
from gausstube.cylinder import CylFunctional, PotentialV
from gausstube.fields import (
    FieldSample,
    ParamSpace,
    SpatialCov,
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
    driving_paths,
    ito_loop_field,
    lambda2_fd,
    load_field,
    reference_euler_char,
    save_field,
)

DIMS = {"interval": 1, "circle": 1, "torus": 2}
ONE = PotentialV.preset("one")
IDENTITY = PotentialV.preset("identity")


class TestParamSpace:
    def test_kinds_and_dims(self):
        assert ParamSpace.interval(10.0, 50).dim == 1
        assert ParamSpace.circle(6.0, 50).wraps
        assert ParamSpace.torus(6.0, 6.0, 16).dim == 2

    def test_interval_endpoints(self):
        s = ParamSpace.interval(10.0, 101)
        pts = s.points()
        assert pts[0, 0] == 0.0 and pts[-1, 0] == 10.0
        assert s.spacing == pytest.approx(0.1)

    def test_circle_wraps_without_duplicate(self):
        s = ParamSpace.circle(2 * np.pi, 8)
        pts = s.points()[:, 0]
        assert pts[0] == 0.0
        assert pts[-1] < 2 * np.pi

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamSpace("interval", (10.0, 2.0), 50)
        with pytest.raises(ValueError):
            ParamSpace.interval(-1.0, 50)
        with pytest.raises(ValueError):
            ParamSpace.interval(1.0, 2)


class TestSpatialCov:
    def test_unit_variance_exact(self):
        cov = SpatialCov.cosine(2.0)
        x = np.array([[0.3]])
        assert cov.C(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_covariance(self):
        cov = SpatialCov.cosine(2.0)
        assert cov.C(np.array([[1.0]]), np.array([[0.25]])) == pytest.approx(
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
        assert cov.C(h, np.array([[0.0]])) == pytest.approx(target, abs=0.05)

    def test_periodicity_validation(self):
        cov = SpatialCov.cosine(1.1)
        with pytest.raises(ValueError, match="periodic"):
            cov.compatible_with(ParamSpace.circle(2 * np.pi, 64))
        SpatialCov.cosine(1.0).compatible_with(ParamSpace.circle(2 * np.pi, 64))


class TestSimulateField:
    def test_deterministic(self):
        space = ParamSpace.interval(5.0, 64)
        cov = SpatialCov.cosine(1.0)
        a = simulate_field(space, cov, IDENTITY, 16, rng=11)
        b = simulate_field(space, cov, IDENTITY, 16, rng=11)
        assert np.array_equal(a.f_values, b.f_values)

    def test_constant_potential_gives_time_one_marginal(self):
        # V = 1 telescopes: f(x) = B^x(1) = W(1)·e(x) exactly
        space = ParamSpace.interval(5.0, 32)
        cov = SpatialCov.cosine(1.0)
        s = simulate_field(space, cov, ONE, 8, rng=13)
        w1 = driving_paths(space, cov, 8, 13)[-1]
        basis = cov.basis(space.points())
        assert np.allclose(s.f_values, basis @ w1, atol=1e-12)

    def test_covariance_calibration(self):
        # empirical Cov(B^x(1), B^y(1)) over 10^4 reps matches C at random pairs
        space = ParamSpace.interval(4.0, 40)
        cov = SpatialCov.cosine(1.0)
        reps = 10_000
        vals = np.empty((reps, 40))
        for i in range(reps):
            vals[i] = simulate_field(space, cov, ONE, 4, rng=(17, i)).f_values
        rng = np.random.default_rng(19)
        pts = space.points()
        for _ in range(10):
            i, j = rng.integers(0, 40, 2)
            products = vals[:, i] * vals[:, j]
            target = cov.C(pts[i], pts[j])
            se = products.std(ddof=1) / np.sqrt(reps)
            assert abs(products.mean() - target) <= 4 * se

    def test_time_consistency(self):
        # Var(B^x(t)) = t at interior times, via the paths simulate_field draws
        space = ParamSpace.interval(4.0, 64)
        cov = SpatialCov.cosine(1.0)
        reps = 4000
        x_basis = cov.basis(space.points()[3:4])[0]
        samples = {0.25: [], 0.5: [], 1.0: []}
        for i in range(reps):
            paths = driving_paths(space, cov, 8, (23, i))
            for t, idx in ((0.25, 2), (0.5, 4), (1.0, 8)):
                samples[t].append(float(paths[idx] @ x_basis))
        for t, draw in samples.items():
            var = np.var(draw)
            se = t * np.sqrt(2.0 / reps)
            assert abs(var - t) <= 4 * se

    def test_wave_basis_is_read_only_and_exact(self):
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 16)
        cov = SpatialCov.torus_pair(2.0)
        memo = cov.wave_basis(space)
        assert not memo.flags.writeable
        assert np.array_equal(memo, cov.basis(space.points()))
        assert cov.wave_basis(space) is memo

    def test_warm_and_fresh_cov_give_identical_fields(self):
        space = ParamSpace.circle(2 * np.pi, 128)
        warm = SpatialCov.cosine(2.0)
        simulate_field(space, warm, IDENTITY, 8, rng=30)
        a = simulate_field(space, warm, IDENTITY, 8, rng=31)
        b = simulate_field(space, SpatialCov.cosine(2.0), IDENTITY, 8, rng=31)
        assert np.array_equal(a.f_values, b.f_values)

    def test_basis_built_once_per_ec_run(self, monkeypatch):
        calls = []
        original = SpatialCov.basis

        def counting(self, points):
            calls.append(len(points))
            return original(self, points)

        monkeypatch.setattr(SpatialCov, "basis", counting)
        space = ParamSpace.interval(5.0, 64)
        ec_mc_levels(space, SpatialCov.cosine(1.0), ONE, [0.0], 4, 100, rng=32)
        assert calls == [64]

    def test_threads_share_one_basis(self):
        # threads racing the first lookup must all get the one stored basis
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 128)
        cov = SpatialCov.torus_pair(2.0)
        start = threading.Barrier(8)

        def lookup(_):
            start.wait(timeout=60)
            return cov.wave_basis(space)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lookup, i) for i in range(8)]
                bases = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(b is cov.wave_basis(space) for b in bases)

    def test_resolution_guard(self):
        space = ParamSpace.interval(100.0, 10)
        with pytest.raises(ValueError, match="too coarse"):
            simulate_field(space, SpatialCov.cosine(1.0), ONE, 4, rng=1)

    def test_time_grid_guard(self):
        with pytest.raises(ValueError, match="time_n"):
            simulate_field(ParamSpace.interval(5.0, 64), SpatialCov.cosine(1.0), ONE, 1, rng=1)

    def test_field_values_finite_invariant(self):
        s = simulate_field(ParamSpace.circle(2 * np.pi, 128), SpatialCov.cosine(2.0), IDENTITY, 8, rng=29)
        assert np.all(np.isfinite(s.f_values))


def _no_value(potential):
    """A copy of ``potential`` whose pointwise value must never be called."""

    def value(b):
        raise AssertionError(f"{potential.name} took the time loop")

    return dataclasses.replace(potential, value=value)


AFFINE_CASES = [
    (ParamSpace.interval(10.0, 400), SpatialCov.cosine(1.0)),
    (ParamSpace.circle(2 * np.pi, 128), SpatialCov.cosine(2.0)),
    (ParamSpace.torus(2 * np.pi, 2 * np.pi, 64), SpatialCov.torus_pair(2.0)),
]


class TestAffineClosedForm:
    @pytest.mark.parametrize("potential", [ONE, IDENTITY], ids=["one", "identity"])
    @pytest.mark.parametrize("space,cov", AFFINE_CASES, ids=["interval", "circle", "torus"])
    def test_matches_time_loop(self, space, cov, potential):
        closed = simulate_field(space, cov, potential, 16, rng=101)
        loop = simulate_field(space, cov, dataclasses.replace(potential, coeffs=None), 16, rng=101)
        scale = np.max(np.abs(loop.f_values))
        assert np.max(np.abs(closed.f_values - loop.f_values)) <= 1e-12 * scale

    @pytest.mark.parametrize("potential", [ONE, IDENTITY], ids=["one", "identity"])
    def test_torus_workload_never_evaluates_v(self, potential):
        space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 400)
        cov = SpatialCov.torus_pair(2.0)
        closed = simulate_field(space, cov, _no_value(potential), 16, rng=103)
        loop = ito_loop_field(space, cov, potential, 16, 103)
        scale = np.max(np.abs(loop))
        assert np.max(np.abs(closed.f_values.ravel() - loop)) <= 1e-12 * scale

    def test_wide_wave_sum_matches_loop(self):
        # 2K = 128 waves against a time grid of 64 steps: still the closed form
        space = ParamSpace.interval(10.0, 400)
        cov = SpatialCov.squared_exponential(1.0, n_waves=64, rng=5)
        closed = simulate_field(space, cov, _no_value(IDENTITY), 64, rng=107)
        loop = simulate_field(space, cov, dataclasses.replace(IDENTITY, coeffs=None), 64, rng=107)
        scale = np.max(np.abs(loop.f_values))
        assert np.max(np.abs(closed.f_values - loop.f_values)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["sin", "cubic"])
    @pytest.mark.parametrize("space,cov", AFFINE_CASES, ids=["interval", "circle", "torus"])
    def test_non_affine_keeps_time_loop(self, space, cov, name):
        potential = PotentialV.preset(name)
        sample = simulate_field(space, cov, potential, 16, rng=109)
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
        s = simulate_field(space, cov, IDENTITY, 8, rng=31)
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
    values = np.asarray(values, dtype=float)
    space = ParamSpace(kind, (length,) * values.ndim, values.shape[0])
    return FieldSample(space=space, f_values=values)


@st.composite
def _grid_fields(draw):
    """A field on a 4–12 point grid of any kind, with values tied in {0, 1, 2, 3}."""
    kind = draw(st.sampled_from(sorted(DIMS)))
    n = draw(st.integers(4, 12))
    levels = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    values = draw(arrays(np.float64, (n,) * DIMS[kind], elements=levels))
    return _grid_sample(values, kind)


class TestEulerChar:
    @settings(max_examples=300, deadline=None)
    @given(
        sample=_grid_fields(),
        u=st.sampled_from([0.0, 1.0, 2.0, 3.0]) | st.floats(-1.0, 4.0, allow_nan=False),
    )
    def test_matches_reference_count(self, sample, u):
        assert euler_char(sample, u) == reference_euler_char(sample, u)

    @pytest.mark.parametrize("kind, full", [("interval", 1), ("circle", 0), ("torus", 0)])
    @pytest.mark.parametrize("n", [4, 12])
    def test_all_above_and_all_below(self, kind, full, n):
        values = np.random.default_rng(n).standard_normal((n,) * DIMS[kind])
        sample = _grid_sample(values, kind)
        for u, chi in ((values.min(), full), (np.nextafter(values.max(), np.inf), 0)):
            assert euler_char(sample, u) == reference_euler_char(sample, u) == chi

    def test_interval_all_below(self):
        s = _grid_sample(np.zeros(10))
        assert euler_char(s, 1.0) == 0

    def test_interval_all_above(self):
        s = _grid_sample(np.ones(10))
        assert euler_char(s, 0.5) == 1

    def test_interval_components(self):
        s = _grid_sample([1, 0, 1, 1, 0, 1, 1, 1, 0, 0])
        assert euler_char(s, 0.5) == 3

    def test_circle_all_above_is_zero(self):
        s = _grid_sample(np.ones(12), kind="circle")
        assert euler_char(s, 0.5) == 0

    def test_circle_wrapping_run(self):
        # one component that wraps through the seam
        s = _grid_sample([1, 0, 0, 0, 0, 1], kind="circle")
        assert euler_char(s, 0.5) == 1

    def test_torus_all_above_is_zero(self):
        vals = np.ones((8, 8))
        s = _grid_sample(vals, kind="torus")
        assert euler_char(s, 0.5) == 0

    def test_torus_single_blob(self):
        vals = np.zeros((8, 8))
        vals[2:5, 3:6] = 1.0
        s = _grid_sample(vals, kind="torus")
        assert euler_char(s, 0.5) == 1

    def test_torus_ring_has_zero_ec(self):
        # a band around one handle: chi = 0
        vals = np.zeros((8, 8))
        vals[:, 2:5] = 1.0
        s = _grid_sample(vals, kind="torus")
        assert euler_char(s, 0.5) == 0


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
        # identical replication substreams: the means agree exactly; the
        # stderr reduction order may differ by a couple of ulps
        assert multi_means[0] == mean
        assert multi_ses[0] == pytest.approx(stderr, rel=1e-12)

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
        calls = []
        simulate = gausstube.fields.simulate_field

        def counted(*args, **kwargs):
            calls.append(1)
            return simulate(*args, **kwargs)

        space, cov = ParamSpace.interval(10.0, 200), SpatialCov.cosine(1.0)
        levels = [1.0, 0.0, 0.5]
        monkeypatch.setattr(gausstube.fields, "simulate_field", counted)
        vols, ses = excursion_volumes_mc(space, cov, ONE, levels, 4, 120, rng=83, workers=2)
        assert len(calls) == 120
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
        lengths = np.empty(reps)
        for i, child in enumerate(root.spawn(reps)):
            sample = simulate_field(space, cov, ONE, 4, rng=child)
            above = sample.f_values >= u
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
    def test_presets_pass(self):
        validate_assumptions(SpatialCov.cosine(1.0), IDENTITY, rng=83)
        validate_assumptions(SpatialCov.torus_pair(2.0), PotentialV.preset("cubic"), rng=89)

    def test_lying_derivative_caught(self):
        bad = PotentialV(
            value=np.sin,
            d1=np.sin,  # wrong on purpose
            d2=lambda b: -np.sin(b),
            d3=lambda b: -np.cos(b),
            d4=np.sin,
        )
        with pytest.raises(AssertionError, match="finite differences"):
            validate_assumptions(SpatialCov.cosine(1.0), bad, rng=97)

    def test_lying_coefficients_caught(self):
        bad = dataclasses.replace(IDENTITY, coeffs=(0.0, 2.0))
        with pytest.raises(AssertionError, match="coefficients"):
            validate_assumptions(SpatialCov.cosine(1.0), bad, rng=97)
