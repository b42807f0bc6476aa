import dataclasses
import math

import numpy as np
import pytest

from gausstube import _mc, gmf
from gausstube.cylinder import CylFunctional, PotentialV
from gausstube.errors import SurfaceDegeneracyError
from gausstube.functionals import coordinate, norm, quadratic
from gausstube.gmf import (
    GmfVector,
    RegionSpec,
    assemble_tube_series,
    gmf_ball,
    gmf_halfspace,
    gmf_surface_mc,
    gmf_surface_mc_levels,
    gmf_two_sided,
    silverman_bandwidth,
)
from gausstube.malliavin import SmoothFunctional, dense_moments
from gausstube.series import hermite_all

from _oracles import dense_surface_sums, jacobian_series

PHI_1 = 0.24197072451914335
PSI_1 = 0.15865525393145705

# chi_3 CDF derivatives at R=2 (high-precision differentiation oracle)
BALL_3_2 = [
    0.73853587005088938,
    0.43192773210550442,
    -0.43192773210550442,
    -0.21596386605275221,
    1.7277109284220177,
]


class TestClosedForms:
    def test_halfspace_at_zero(self):
        g = gmf_halfspace(0.0, 2)
        assert g.values[0] == pytest.approx(0.5, abs=1e-15)
        assert g.values[1] == pytest.approx(0.39894228040143268, abs=1e-15)
        assert g.values[2] == pytest.approx(0.0, abs=1e-15)  # H_1(0) = 0

    def test_halfspace_at_one(self):
        g = gmf_halfspace(1.0, 4)
        assert g.values[0] == pytest.approx(PSI_1, abs=1e-15)
        assert g.values[2] == pytest.approx(PHI_1, abs=1e-14)  # H_1(1) phi(1)
        assert g.values[4] == pytest.approx(-2 * PHI_1, rel=1e-13)  # H_3(1) = -2

    def test_halfspace_mass_monotone_in_level(self):
        levels = np.linspace(-3, 3, 25)
        masses = [gmf_halfspace(u, 0).values[0] for u in levels]
        assert np.all(np.diff(masses) < 0)

    def test_ball_one_dimensional(self):
        # Tube of [-1, 1] is [-1-rho, 1+rho]: M_1 = 2 phi(1)
        g = gmf_ball(1.0, 1, 3)
        assert g.values[1] == pytest.approx(2 * PHI_1, rel=1e-12)

    def test_ball_fills_space(self):
        assert gmf_ball(50.0, 2, 1).values[0] == pytest.approx(1.0, abs=1e-15)

    def test_ball_chi3_derivative_oracle(self):
        g = gmf_ball(2.0, 3, 4)
        for j, expected in enumerate(BALL_3_2):
            assert g.values[j] == pytest.approx(expected, rel=1e-11), f"M_{j}"

    def test_ball_density_formula(self):
        # M_1 for k=3, R=2 equals the chi_3 density sqrt(2/pi) * 4 e^{-2}
        expected = math.sqrt(2 / math.pi) * 4 * math.exp(-2)
        assert gmf_ball(2.0, 3, 1).values[1] == pytest.approx(expected, rel=1e-13)

    def test_two_sided_mass(self):
        assert gmf_two_sided(1.0, 0).values[0] == pytest.approx(0.3173105078629141, abs=1e-15)

    def test_two_sided_is_twice_halfspace(self):
        a = 1.7
        two = gmf_two_sided(a, 6)
        half = gmf_halfspace(a, 6)
        assert np.allclose(two.values, 2 * half.values, rtol=1e-14)

    def test_two_sided_third_functional(self):
        # M_3 = 2 H_2(2) phi(2) = 2 * 3 * phi(2)
        g = gmf_two_sided(2.0, 3)
        assert g.values[3] == pytest.approx(6 * 0.053990966513188052, rel=1e-12)

    def test_two_sided_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gmf_two_sided(0.0, 2)

    def test_ball_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gmf_ball(-1.0, 2, 2)
        with pytest.raises(ValueError):
            gmf_ball(1.0, 0, 2)

    @pytest.mark.parametrize("k", [257, 400, 1000])
    def test_ball_large_dim(self, k):
        # R^{k-1} overflows a double from k = 257 at R = sqrt(k); the density
        # must come out finite and equal to the chi density
        from scipy import stats

        r = math.sqrt(k)
        g = gmf_ball(r, k, 4)
        assert np.all(np.isfinite(g.values))
        assert g.values[1] == pytest.approx(stats.chi(k).pdf(r), rel=1e-12)
        assert g.values[2] == pytest.approx(((k - 1) / r - r) * g.values[1], rel=1e-12)

    @pytest.mark.parametrize(
        "radius, k, order, tail",
        [
            # small R: the log-density's coefficients grow like R^{-m}
            (0.3, 2, 8, [4.0461924220348669, 10.58362919795091, -27.452243291594474,
                         -65.849731398178025]),
            (0.5, 3, 20, [13470110.212769053, 84077248.471215537, -299319373.71864786,
                          -1542608749.3223641]),
            # large R: the derivative ladder's terms cancel
            (6.0, 20, 20, [-17912093.145428902, 84672947.671420425, 156854963.19073813,
                           -3049696651.0335671]),
            (math.sqrt(1000), 1000, 20, [275618266.73193823, -560064174.83252352,
                                         -9181997249.4039705, 23012115649.579735]),
        ],
    )
    def test_ball_high_order_reference(self, radius, k, order, tail):
        # M_{J-3}..M_J from the convolution of (R+rho)^{k-1} with the Hermite
        # series of e^{-(R+rho)^2/2}, at 400 digits (mpmath)
        assert gmf_ball(radius, k, order).values[-4:] == pytest.approx(tail, rel=1e-12)

    def test_order_beyond_factorial_range_rejected(self):
        # 171! is beyond the float range: order 170 is the largest with a finite
        # tube series, and every closed form and the estimator reject 171
        assert np.isfinite(assemble_tube_series(gmf_halfspace(0.5, gmf.MAX_ORDER), 0.1))

        def not_reached(gen, size):
            raise AssertionError("sampled before the order check")

        func = dataclasses.replace(coordinate(2), draw=not_reached)
        for build in (
            lambda: gmf_halfspace(0.5, 171),
            lambda: gmf_two_sided(1.0, 171),
            lambda: gmf_ball(1.0, 2, 171),
            lambda: gmf_surface_mc(RegionSpec(func, 0.5, "excursion"), 171, 10_000),
        ):
            with pytest.raises(ValueError, match="<= 170"):
                build()

    @pytest.mark.parametrize("order", [-1, -2])
    def test_negative_order_rejected(self, order):
        for build in (
            lambda: gmf_halfspace(0.5, order),
            lambda: gmf_two_sided(1.0, order),
            lambda: gmf_ball(1.0, 2, order),
        ):
            with pytest.raises(ValueError, match="order must be >= 0"):
                build()


class TestGmfVector:
    def test_mass_must_be_probability(self):
        with pytest.raises(ValueError, match="probability"):
            GmfVector(np.array([1.5, 0.0]))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            GmfVector(np.array([[0.5, 0.0]]))

    def test_values_frozen(self):
        g = gmf_halfspace(0.0, 2)
        with pytest.raises(ValueError):
            g.values[0] = 0.0

    def test_dot_propagates_covariance(self):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        g = GmfVector(np.array([0.25, 2.0]), cov)
        assert g.order == 1
        assert np.array_equal(g.stderr, np.sqrt(np.diag(cov)))
        value, stderr = g.dot([2.0, -1.0])
        assert value == pytest.approx(-1.5, rel=1e-15)
        assert stderr == pytest.approx(np.sqrt(4 * 0.04 - 4 * 0.01 + 0.09), rel=1e-15)
        # a closed form is exact: its combination carries no error
        exact = gmf_halfspace(0.0, 1)
        assert exact.dot([1.0, 1.0]) == (float(np.dot([1.0, 1.0], exact.values)), 0.0)

    def test_closed_forms_are_exact(self):
        for g in (gmf_halfspace(0.5, 3), gmf_two_sided(1.0, 3), gmf_ball(1.0, 2, 3)):
            assert g.order == 3
            assert np.array_equal(g.cov, np.zeros((4, 4)))
            assert np.array_equal(g.stderr, np.zeros(4))
            assert g.meta == {}

    def test_cov_frozen(self):
        g = gmf_surface_mc(RegionSpec(coordinate(2), 1.0, "excursion"), 2, 10_000, rng=3)
        before = g.dot([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            g.cov[:] = 0.0
        assert g.dot([1.0, 1.0, 1.0]) == before
        assert before[1] > 0.0
        # a caller's matrix is copied, so writing to it later changes nothing
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        h = GmfVector(np.array([0.25, 2.0]), cov)
        cov[:] = 0.0
        assert h.dot([1.0, 1.0])[1] == pytest.approx(np.sqrt(0.15), rel=1e-15)

    def test_cov_shape_checked(self):
        with pytest.raises(ValueError, match="cov"):
            GmfVector(np.array([0.5, 0.0]), np.eye(3))


class TestAssemble:
    def test_zero_radius_returns_mass(self):
        g = gmf_halfspace(0.3, 5)
        assert assemble_tube_series(g, 0.0) == g.values[0]

    def test_halfspace_tube_is_shifted_tail(self):
        g = gmf_halfspace(1.0, 6)
        assert assemble_tube_series(g, 0.3) == pytest.approx(
            0.24196365222307301, abs=2e-4
        )

    def test_ball_tube(self):
        g = gmf_ball(1.0, 1, 6)
        # exact tube value P(|Z| <= 1.2)
        assert assemble_tube_series(g, 0.2) == pytest.approx(
            0.76986065955658346, abs=5e-4
        )

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            assemble_tube_series(gmf_halfspace(0.0, 2), -0.1)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, rho):
        # either would make the series NaN
        with pytest.raises(ValueError, match="rho"):
            assemble_tube_series(gmf_halfspace(0.0, 2), rho)


class TestRegionSpec:
    def test_orientation(self):
        f = coordinate(2)
        assert RegionSpec(f, 0.0, "sub-level").orientation == 1
        assert RegionSpec(f, 0.0, "excursion").orientation == -1

    def test_contains(self):
        r = RegionSpec(coordinate(2), 1.0, "excursion")
        x = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert r.contains_values(r.functional.values(x)).tolist() == [True, False]

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            RegionSpec(coordinate(2), 0.0, "open")


class TestHermiteConsistency:
    def test_surface_weights_reproduce_hermite(self):
        # On {x_1 = u} the weight (j-1)! c_{j-1} |grad F| must equal H_{j-1}(u):
        # combined with the halfspace closed form this pins the factorial
        # bookkeeping of the estimator.
        f = coordinate(5)
        u = np.array([0.0, 1.0, 2.0])
        x = np.column_stack([u, np.tile([0.1, -0.2, 0.3, 0.0], (3, 1))])
        coeffs, _ = jacobian_series(f, x, 6, -1)
        hermites = hermite_all(5, u)
        for j in range(1, 7):
            weight = math.factorial(j - 1) * coeffs[j - 1] * 1.0
            assert weight == pytest.approx(hermites[j - 1], rel=1e-12, abs=1e-12)


class TestSurfaceMonteCarlo:
    @pytest.mark.parametrize("order", [-1, -2])
    def test_negative_order_fails_before_sampling(self, order):
        def not_reached(gen, size):
            raise AssertionError("sampled before the order check")

        func = dataclasses.replace(coordinate(2), draw=not_reached)
        with pytest.raises(ValueError, match="order must be >= 0"):
            gmf_surface_mc(RegionSpec(func, 0.5, "excursion"), order, 10_000)

    def test_halfspace_matches_closed_form(self):
        region = RegionSpec(coordinate(3), 0.5, "excursion")
        est = gmf_surface_mc(region, 3, 100_000, rng=101)
        target = gmf_halfspace(0.5, 3)
        for j in range(4):
            tol = max(4 * est.stderr[j], 0.05 * abs(target.values[j]))
            assert abs(est.values[j] - target.values[j]) <= tol, f"M_{j}"

    def test_ball_matches_closed_form(self):
        region = RegionSpec(norm(3), 2.0, "sub-level")
        est = gmf_surface_mc(region, 3, 100_000, rng=103)
        target = gmf_ball(2.0, 3, 3)
        for j in range(4):
            tol = max(4 * est.stderr[j], 0.05 * abs(target.values[j]))
            assert abs(est.values[j] - target.values[j]) <= tol, f"M_{j}"

    def test_whole_space_level(self):
        region = RegionSpec(coordinate(2), -30.0, "excursion")
        est = gmf_surface_mc(region, 2, 10_000, eps=0.05, rng=107)
        assert est.values[0] == 1.0
        assert est.values[1] == 0.0  # no surface points in the window

    def test_complement_masses_sum_to_one(self):
        f = norm(2)
        exc = gmf_surface_mc(RegionSpec(f, 1.5, "excursion"), 0, 50_000, eps=0.1, rng=109)
        sub = gmf_surface_mc(RegionSpec(f, 1.5, "sub-level"), 0, 50_000, eps=0.1, rng=113)
        combined = math.hypot(exc.stderr[0], sub.stderr[0])
        assert abs(exc.values[0] + sub.values[0] - 1.0) <= 4 * combined

    def test_determinism_and_worker_independence(self):
        # a dense-Hessian region and an F_n region on the moment route
        regions = (
            (RegionSpec(coordinate(2), 0.0, "excursion"), 2),
            (CylFunctional(16, PotentialV.preset("sin")).excursion(0.3), 4),
        )
        for region, order in regions:
            a = gmf_surface_mc(region, order, 70_000, rng=127)
            b = gmf_surface_mc(region, order, 70_000, rng=127)
            c = gmf_surface_mc(region, order, 70_000, rng=127, workers=3)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.values, c.values)
            assert np.array_equal(a.stderr, c.stderr)
            assert a.meta == c.meta

    def test_small_sample_rejected(self):
        region = RegionSpec(coordinate(2), 0.0, "excursion")
        with pytest.raises(ValueError, match="10\\^4"):
            gmf_surface_mc(region, 1, 5_000, rng=1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        # NaN or infinite bandwidths would zero every surface functional
        region = RegionSpec(coordinate(2), 0.0, "excursion")
        with pytest.raises(ValueError, match="eps"):
            gmf_surface_mc(region, 2, 10_000, eps=eps, rng=1)

    def test_degenerate_surface_raises(self):
        flat = SmoothFunctional(
            dim=2,
            values=lambda x: np.zeros(x.shape[0]),
            grads=lambda x: np.zeros_like(x),
            moments_batch=dense_moments(lambda x: np.zeros((x.shape[0], 2, 2))),
        )
        region = RegionSpec(flat, 0.0, "excursion")
        with pytest.raises(SurfaceDegeneracyError):
            gmf_surface_mc(region, 2, 10_000, eps=0.1, rng=131)

    def test_silverman_bandwidth_positive(self):
        rng = np.random.default_rng(0)
        eps = silverman_bandwidth(rng.standard_normal(4096), 10**6)
        assert 0.0 < eps < 1.0

    def test_constant_pilot_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            silverman_bandwidth(np.ones(100), 10**6)

    @pytest.mark.slow
    def test_estimator_error_decreases_with_samples(self):
        region = RegionSpec(coordinate(5), 1.0, "excursion")
        target = gmf_halfspace(1.0, 4).values

        def max_rel_err(n):
            est = gmf_surface_mc(region, 4, n, rng=137)
            scale = np.maximum(np.abs(target), 0.1)
            return float(np.max(np.abs(est.values - target) / scale))

        coarse, fine = max_rel_err(10_000), max_rel_err(1_000_000)
        assert fine < coarse
        assert fine < 0.05


# F = x₁ with its gradient zeroed where |x₂| > 2: about 4.6% of every kernel
# window is degenerate, under the estimator's 10% limit.
GRAD_HOLES = SmoothFunctional(
    dim=2,
    values=lambda x: x[:, 0].copy(),
    grads=lambda x: np.where(np.abs(x[:, 1:]) > 2.0, 0.0, 1.0) * np.array([1.0, 0.0]),
    moments_batch=dense_moments(lambda x: np.zeros((x.shape[0], 2, 2))),
)


# (functional, kind, levels, order) for the levels sampler's bit-exactness tests
LEVEL_CASES = [
    pytest.param(CylFunctional(64, PotentialV.preset("identity")).functional(), "excursion",
                 [0.0, 0.5, 1.0], 1, id="F64-identity-J1"),
    pytest.param(CylFunctional(16, PotentialV.preset("one")).functional(), "excursion",
                 [-0.5, 0.3, 1.2], 2, id="F16-one-J2"),
    pytest.param(CylFunctional(16, PotentialV.preset("sin")).functional(), "excursion",
                 [0.0, 0.3, 0.9], 3, id="F16-sin-J3"),
    pytest.param(norm(3), "sub-level", [1.5, 2.0, 2.6], 4, id="ball-J4"),
    # moments from the dense Hessian stack
    pytest.param(quadratic(np.diag([2.0, 1.0])), "sub-level", [0.5, 1.0, 1.5], 3,
                 id="ellipse-J3"),
]


class TestLevelsSampler:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("func, kind, levels, order", LEVEL_CASES)
    def test_entry_matches_one_level_call(self, func, kind, levels, order, workers):
        # each level keeps the estimator, and the samples, of a call on it alone
        many = gmf_surface_mc_levels(func, kind, levels, order, 40_000, rng=139, workers=workers)
        assert len(many) == len(levels)
        for u, got in zip(levels, many):
            one = gmf_surface_mc(
                RegionSpec(func, u, kind), order, 40_000, rng=139, workers=workers
            )
            assert np.array_equal(got.values, one.values), f"u={u}"
            assert np.array_equal(got.stderr, one.stderr), f"u={u}"
            assert np.array_equal(got.cov, one.cov), f"u={u}"
            assert got.meta == one.meta, f"u={u}"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "func, kind, levels, order",
        LEVEL_CASES + [
            # k = 32: the tile rule bounds a tile at 4096 rows
            pytest.param(quadratic(np.eye(32)), "sub-level", [12.0, 16.0, 20.0], 2,
                         id="quadratic32-J2"),
        ],
    )
    def test_tile_size_does_not_move_results(
        self, monkeypatch, func, kind, levels, order, workers
    ):
        # a ragged last tile (1000), the default tile, and one tile per block
        runs = []
        for tile in (1000, 8192, _mc.BLOCK_SIZE):
            monkeypatch.setattr(gmf, "TILE_SIZE", tile)
            runs.append(
                gmf_surface_mc_levels(func, kind, levels, order, 40_000, rng=157, workers=workers)
            )
        for other in runs[1:]:
            for u, a, b in zip(levels, runs[0], other):
                assert np.array_equal(a.values, b.values), f"u={u}"
                assert np.array_equal(a.cov, b.cov), f"u={u}"
                assert a.meta == b.meta, f"u={u}"

    def test_dense_hessian_tile_stays_within_cap(self):
        # the 32 MiB cap of dense_moments allows 2**22 // 150**2 = 186 rows of a
        # k = 150 Hessian stack per call, inside the estimator's 256-row tiles;
        # eps = 1e3 puts every sample in the kernel window
        k = 150
        base = coordinate(k)
        chunks, tiles = [], []

        def hessians(x):
            chunks.append(x.shape[0])
            return base.hessians(x)

        dense = dense_moments(hessians)

        def moments_batch(x, v, order):
            tiles.append(x.shape[0])
            return dense(x, v, order)

        func = dataclasses.replace(base, hessians=hessians, moments_batch=moments_batch)
        gmf_surface_mc_levels(func, "excursion", [0.0], 2, 10_000, eps=1e3, rng=1)
        assert sum(chunks) == sum(tiles) == 10_000
        assert max(chunks) <= (1 << 22) // k**2 == 186
        assert max(tiles) == 256

    def test_moment_oracle_tile_keeps_256_rows(self):
        # a functional with a moment oracle builds no Hessian stack, so the
        # dense cap does not shrink its tiles below 256 rows at n = 150
        base = CylFunctional(150, PotentialV.preset("sin")).functional()
        rows = []

        def moments_batch(x, v, order):
            rows.append(x.shape[0])
            return base.moments_batch(x, v, order)

        func = dataclasses.replace(base, moments_batch=moments_batch)
        gmf_surface_mc_levels(func, "excursion", [0.0], 2, 10_000, eps=1e3, rng=1)
        assert sum(rows) == 10_000
        assert max(rows) == 256

    @pytest.mark.parametrize("order", [0, 1, 3])
    @pytest.mark.parametrize(
        "func, kind, levels",
        [
            (CylFunctional(64, PotentialV.preset("identity")).meridian(), "excursion",
             [0.0, 0.5, 1.0]),
            (CylFunctional(16, PotentialV.preset("sin")).functional(), "excursion",
             [0.0, 0.3, 0.9]),
            (quadratic(np.diag([2.0, 1.0])), "sub-level", [0.5, 1.0, 1.5]),
            (GRAD_HOLES, "excursion", [-0.5, 0.0, 0.8]),
        ],
        ids=["meridian-identity", "F16-sin", "ellipse-dense", "grad-holes"],
    )
    def test_window_sums_match_dense_sums(self, func, kind, levels, order):
        # the window-only sums and the exact M0 count against a full (block, J+1)
        # weight array per level, on the same samples
        got = gmf_surface_mc_levels(func, kind, levels, order, 40_000, eps=0.05, rng=149)
        ref = dense_surface_sums(func, kind, levels, order, 40_000, 0.05, rng=149)
        for u, g, (values, cov, n_window, n_degenerate) in zip(levels, got, ref):
            assert np.max(np.abs(g.values - values)) <= 1e-12 * np.max(np.abs(values)), u
            assert np.max(np.abs(g.cov - cov)) <= 1e-12 * np.max(np.abs(cov)), u
            assert g.values[0] == values[0] and g.cov[0, 0] == cov[0, 0], u
            assert g.meta["n_window"] == n_window > 0, u
            assert g.meta["n_degenerate"] == n_degenerate, u
            if func is GRAD_HOLES and order >= 1:
                assert 0 < n_degenerate < 0.1 * n_window, u

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError, match="level"):
            gmf_surface_mc_levels(coordinate(2), "excursion", [], 1, 10_000, rng=1)

    def test_nan_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            gmf_surface_mc_levels(
                coordinate(2), "excursion", [0.0, float("nan")], 1, 10_000, rng=1
            )

    def test_degenerate_level_raises(self):
        # a level on a flat stretch of F fails even when the other levels are fine
        func = SmoothFunctional(
            dim=1,
            values=lambda x: np.maximum(x[:, 0], 0.0),
            grads=lambda x: (x > 0.0).astype(float),
            hessians=lambda x: np.zeros((x.shape[0], 1, 1)),
        )
        with pytest.raises(SurfaceDegeneracyError, match="level 0.0"):
            gmf_surface_mc_levels(func, "excursion", [1.0, 0.0], 1, 10_000, eps=0.05, rng=1)
