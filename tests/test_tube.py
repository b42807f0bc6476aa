import dataclasses

import numpy as np
import pytest

from _oracles import affine_quadratic, dist_to_region, half_norm_squared, reference_distances
from gausstube import tube
from gausstube.errors import ProjectionError
from gausstube.functionals import norm, quadratic
from gausstube.cylinder import CylFunctional, PotentialV
from gausstube.gmf import RegionSpec, gmf_ball, gmf_halfspace, gmf_two_sided
from gausstube.series import gaussian_tail
from gausstube.tube import (
    ball_oracle,
    distances,
    halfspace_oracle,
    projection_oracle,
    tube_volumes_mc,
    two_sided_oracle,
    validate_tube_series,
)


class TestClosedFormDistances:
    def test_halfspace(self):
        oracle = halfspace_oracle(1.0, 3)
        assert dist_to_region(oracle, np.array([0.0, 5.0, -2.0])) == pytest.approx(1.0)
        assert dist_to_region(oracle, np.array([1.5, 0.0, 0.0])) == 0.0

    def test_ball(self):
        oracle = ball_oracle(2.0, 2)
        assert dist_to_region(oracle, np.array([3.0, 0.0])) == pytest.approx(1.0)
        assert dist_to_region(oracle, np.array([0.5, 0.5])) == 0.0

    def test_two_sided(self):
        oracle = two_sided_oracle(1.5, 2)
        assert dist_to_region(oracle, np.array([0.0, 3.0])) == pytest.approx(1.5)
        assert dist_to_region(oracle, np.array([-2.0, 0.0])) == 0.0

    def test_zero_iff_inside(self):
        oracle = ball_oracle(1.0, 3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 3))
        d, failures = distances(oracle, x)
        assert failures == 0
        inside = np.linalg.norm(x, axis=1) <= 1.0
        assert np.array_equal(d == 0.0, inside)

    def test_lipschitz_spot_check(self):
        rng = np.random.default_rng(5)
        for oracle in (halfspace_oracle(0.5, 4), ball_oracle(1.0, 4), two_sided_oracle(1.0, 4)):
            x = rng.standard_normal((100, 4))
            y = rng.standard_normal((100, 4))
            dx, _ = distances(oracle, x)
            dy, _ = distances(oracle, y)
            gap = np.linalg.norm(x - y, axis=1)
            assert np.all(np.abs(dx - dy) <= gap + 1e-12)


class TestProjectionSolver:
    def test_quadratic_sublevel(self):
        region = RegionSpec(half_norm_squared(2), 2.0, "sub-level")
        oracle = projection_oracle(region)
        assert dist_to_region(oracle, np.array([3.0, 0.0])) == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form_on_halfspace(self):
        # sub-level {x_1 <= u} via the projection path
        region = RegionSpec(affine_quadratic(np.zeros((3, 3)), [1.0, 0, 0]), 0.5, "sub-level")
        oracle = projection_oracle(region)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(3)
            expected = max(x[0] - 0.5, 0.0)
            if expected == 0.0:
                assert dist_to_region(oracle, x) == 0.0
            else:
                assert dist_to_region(oracle, x) == pytest.approx(expected, abs=1e-6)

    def test_matches_closed_form_on_ball(self):
        region = RegionSpec(half_norm_squared(3), 2.0, "sub-level")  # ball radius 2
        oracle = projection_oracle(region)
        closed = ball_oracle(2.0, 3)
        rng = np.random.default_rng(11)
        x = 3.0 * rng.standard_normal((30, 3))
        for row in x:
            a = dist_to_region(oracle, row)
            b = dist_to_region(closed, row)
            assert a == pytest.approx(b, abs=1e-6)

    def test_lower_bound_for_lipschitz_functional(self):
        # F = |x| is 1-Lipschitz: distance to {F <= u} is exactly (F(x)-u)+
        from gausstube.functionals import norm

        region = RegionSpec(norm(2), 1.0, "sub-level")
        oracle = projection_oracle(region)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.standard_normal(2) * 2.0
            f = float(np.linalg.norm(x))
            d = dist_to_region(oracle, x)
            assert d >= max(f - 1.0, 0.0) - 1e-8

    def test_excursion_projection(self):
        region = RegionSpec(half_norm_squared(2), 2.0, "excursion")  # outside radius-2 ball
        oracle = projection_oracle(region)
        assert dist_to_region(oracle, np.zeros(2) + np.array([1.0, 0.0])) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_convexity_check_rejects_concave(self):
        region = RegionSpec(quadratic(-np.eye(2)), -1.0, "sub-level")
        with pytest.raises(ValueError, match="convexity"):
            projection_oracle(region)

    def test_needs_hessians(self):
        region = CylFunctional(8, PotentialV.preset("identity")).excursion(0.5)
        with pytest.raises(ValueError, match="needs hessians"):
            projection_oracle(region)

    @pytest.mark.parametrize(
        "region, maxiter",
        [
            (RegionSpec(affine_quadratic(np.zeros((3, 3)), [1.0, 0, 0]), 0.5, "sub-level"), 500),
            (RegionSpec(half_norm_squared(3), 2.0, "sub-level"), 500),
            (RegionSpec(half_norm_squared(3), 2.0, "excursion"), 500),
            (RegionSpec(norm(3), 2.0, "sub-level"), 500),
            (RegionSpec(quadratic(np.diag([4.0, 1.0])), 1.0, "excursion"), 500),
            # rows accept after different numbers of halvings, and many
            # reach the iteration cap
            (RegionSpec(quadratic(np.diag([4.0, 1.0])), 1.0, "sub-level"), 20),
        ],
        ids=["halfspace", "ball", "ball-excursion", "norm-ball", "ellipse", "ellipse-capped"],
    )
    def test_batch_matches_reference(self, region, maxiter, monkeypatch):
        # the batch solver against the per-point reference, row by row; the
        # origin is an exterior point with zero gradient for the excursions
        monkeypatch.setattr(tube, "PROJECTION_MAXITER", maxiter)
        oracle = projection_oracle(region)
        x = 2.0 * np.random.default_rng(59).standard_normal((300, region.dim))
        x[0] = 0.0
        d, failures = distances(oracle, x)
        ref, ref_failed = reference_distances(oracle, x)
        assert np.array_equal(np.isnan(d), ref_failed)
        assert failures == int(ref_failed.sum())
        assert np.max(np.abs(d[~ref_failed] - ref[~ref_failed])) <= 1e-12

    def test_mixed_batch_failures_stay_in_their_rows(self, monkeypatch):
        monkeypatch.setattr(tube, "PROJECTION_MAXITER", 2)
        region = RegionSpec(quadratic(np.diag([400.0, 0.01])), 1.0, "sub-level")
        oracle = projection_oracle(region)
        # on-axis exterior points converge at once; interior points are at 0
        easy = np.array([[1.0, 0.0], [-2.0, 0.0], [0.0, 20.0], [0.0, -30.0], [0.0, 1.0]])
        hard = np.array([[1.0, 9.0], [-1.0, 9.0], [0.5, -12.0], [2.0, 3.0]])
        x = np.concatenate([hard[:2], easy[:3], hard[2:], easy[3:]])
        is_hard = np.repeat([True, False, True, False], [2, 3, 2, 2])
        d, failures = distances(oracle, x)
        alone, alone_failures = distances(oracle, easy)
        assert failures == 4 and alone_failures == 0
        assert np.all(np.isnan(d[is_hard]))
        assert np.array_equal(d[~is_hard], alone)

    def test_failure_counting(self, monkeypatch):
        # An extremely anisotropic ellipse needs more projected-gradient
        # iterations than allowed, so the solve is reported as failed.
        monkeypatch.setattr(tube, "PROJECTION_MAXITER", 2)
        region = RegionSpec(quadratic(np.diag([400.0, 0.01])), 1.0, "sub-level")
        oracle = projection_oracle(region)
        x = np.array([[1.0, 9.0]])
        d, failures = distances(oracle, x)
        assert failures == 1 and np.isnan(d[0])


class TestTubeVolume:
    def test_halfspace_tube(self):
        oracle = halfspace_oracle(1.0, 3)
        (est,), (se,) = tube_volumes_mc(oracle, [0.3], 200_000, rng=17)
        assert abs(est - 0.24196365222307301) <= 4 * se

    def test_zero_radius_recovers_mass(self):
        oracle = halfspace_oracle(1.0, 2)
        (est,), (se,) = tube_volumes_mc(oracle, [0.0], 100_000, rng=19)
        assert abs(est - gaussian_tail(1.0)) <= 4 * se

    def test_ball_tube_chi_cdf(self):
        oracle = ball_oracle(1.0, 2)
        (est,), (se,) = tube_volumes_mc(oracle, [0.5], 200_000, rng=23)
        # P(chi_2 <= 1.5) = 1 - exp(-1.5^2/2)
        assert abs(est - 0.67534753264165027) <= 4 * se

    def test_monotone_in_radius(self):
        oracle = ball_oracle(1.0, 3)
        rng = np.random.default_rng(29)
        x = rng.standard_normal((50_000, 3))
        d, _ = distances(oracle, x)
        fractions = [(d <= rho).mean() for rho in (0.0, 0.2, 0.4, 0.8)]
        assert np.all(np.diff(fractions) >= 0)

    def test_abort_on_failures(self, monkeypatch):
        monkeypatch.setattr(tube, "PROJECTION_MAXITER", 2)
        region = RegionSpec(quadratic(np.diag([400.0, 0.01])), 1.0, "sub-level")
        oracle = projection_oracle(region)
        with pytest.raises(ProjectionError):
            tube_volumes_mc(oracle, [0.5], 12_000, rng=31)

    def test_one_failed_solve_aborts(self):
        # {‖x‖²/2 ≥ 2} with one draw at the origin, an exterior point whose
        # gradient vanishes: exactly that one solve fails, and fails the run
        def draw(gen, size):
            x = gen.standard_normal((size, 2))
            x[0] = 0.0
            return x

        func = dataclasses.replace(half_norm_squared(2), draw=draw)
        oracle = projection_oracle(RegionSpec(func, 2.0, "excursion"))
        with pytest.raises(ProjectionError, match="^1 of 4000 projection solves failed"):
            tube_volumes_mc(oracle, [0.5], 4000, rng=31)

    @pytest.mark.xfail(
        strict=True,
        raises=ProjectionError,
        reason="projection stall (ROADMAP item 12): 217 of 8192 solves fail here, and any "
        "failed solve aborts the run. "
        "The retraction accepts any |F - u| <= tol*(1 + |u|), so iterates ride the edge of "
        "that band; a full tangential step leaves it, Newton snaps it back farther from x, "
        "and Armijo rejects it until the iteration cap",
    )
    def test_ellipse_tube_matches_dense_boundary(self):
        # {x1² + x2²/2 <= 1}: semi-axes 1 and √2, so the ρ-tube lies in {F <= (1 + ρ)²}
        region = RegionSpec(quadratic(np.diag([2.0, 1.0])), 1.0, "sub-level")
        (est,), (se,) = tube_volumes_mc(projection_oracle(region), [0.2], 8192, rng=1)
        t = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
        boundary = np.column_stack((np.cos(t), np.sqrt(2.0) * np.sin(t)))
        x = np.random.default_rng(71).standard_normal((100_000, 2))
        f = region.functional.values(x)
        near = x[(f > 1.0) & (f < 1.44)]
        hits = np.count_nonzero(f <= 1.0)
        for chunk in np.array_split(near, 16):
            d2 = np.min(np.sum((chunk[:, None, :] - boundary) ** 2, axis=2), axis=1)
            hits += np.count_nonzero(d2 <= 0.04)
        ref = hits / x.shape[0]
        assert abs(est - ref) <= 4.0 * np.hypot(se, np.sqrt(ref * (1.0 - ref) / x.shape[0]))

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_sample_count_below_one_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            tube_volumes_mc(ball_oracle(1.0, 2), [0.1], n_samples)

    def test_worker_independence(self):
        projection = projection_oracle(RegionSpec(norm(2), 1.0, "sub-level"))
        for oracle in (two_sided_oracle(1.0, 2), projection):
            a = tube_volumes_mc(oracle, [0.2], 70_000, rng=37)
            b = tube_volumes_mc(oracle, [0.2], 70_000, rng=37, workers=4)
            assert a == b


class TestTubeGrid:
    @pytest.mark.parametrize(
        "oracle",
        [ball_oracle(1.0, 3), projection_oracle(RegionSpec(norm(2), 1.0, "sub-level"))],
        ids=["closed-form", "projection"],
    )
    def test_entry_matches_one_radius_call(self, oracle):
        grid = [0.0, 0.1, 0.3, 0.6]
        est, se = tube_volumes_mc(oracle, grid, 40_000, rng=61, workers=2)
        for i, rho in enumerate(grid):
            assert (est[i], se[i]) == tube_volumes_mc(oracle, [rho], 40_000, rng=61, workers=2)

    def test_bad_grid_rejected(self):
        oracle = ball_oracle(1.0, 2)
        with pytest.raises(ValueError, match="non-empty"):
            tube_volumes_mc(oracle, [], 10_000, rng=1)
        with pytest.raises(ValueError, match="rho"):
            tube_volumes_mc(oracle, [0.1, -0.2], 10_000, rng=1)

    def test_nan_radius_rejected(self):
        # d <= NaN is False for every sample, which read as an empty tube
        with pytest.raises(ValueError, match="rho"):
            tube_volumes_mc(ball_oracle(1.0, 2), [float("nan")], 4096)

    def test_abort_counts_each_failure_once(self, monkeypatch):
        # one solve per sample, however many radii share it
        monkeypatch.setattr(tube, "PROJECTION_MAXITER", 2)
        region = RegionSpec(quadratic(np.diag([400.0, 0.01])), 1.0, "sub-level")
        oracle = projection_oracle(region)
        with pytest.raises(ProjectionError) as grid_error:
            tube_volumes_mc(oracle, [0.1, 0.5, 1.0], 12_000, rng=31)
        with pytest.raises(ProjectionError) as one_error:
            tube_volumes_mc(oracle, [0.5], 12_000, rng=31)
        assert str(grid_error.value) == str(one_error.value)


class TestValidateSeries:
    def test_two_sided_residuals_at_noise_floor(self):
        oracle = two_sided_oracle(1.5, 2)
        gmfs = gmf_two_sided(1.5, 8)
        report = validate_tube_series(oracle, gmfs, [0.2, 0.5, 0.9], 150_000, rng=41)
        assert np.all(np.abs(report.residuals) <= 4 * report.tube_stderr)
        assert report.noise_floor

    def test_halfspace_truncation_slope(self):
        # J = 2 at u = 0.5: remainder ~ rho^3, measurable above the noise
        oracle = halfspace_oracle(0.5, 2)
        gmfs = gmf_halfspace(0.5, 2)
        report = validate_tube_series(
            oracle, gmfs, [0.2, 0.3, 0.4, 0.5], 4_000_000, rng=43
        )
        assert report.noise_floor or (report.slope is not None and report.slope >= 2.5)

    def test_high_order_halfspace_hits_noise_floor(self):
        # spec-stated variant: J = 4 at u = 1; truncation error is below the
        # Monte Carlo noise at this sample size, so either branch may fire
        oracle = halfspace_oracle(1.0, 2)
        gmfs = gmf_halfspace(1.0, 4)
        report = validate_tube_series(oracle, gmfs, [0.1, 0.2, 0.3, 0.4, 0.5], 1_000_000, rng=47)
        assert report.noise_floor or (report.slope is not None and report.slope >= 4.5)

    def test_zero_radius_is_left_out_of_the_slope(self):
        # at this seed the rho = 0 residual, pure noise, exceeds 2 stderr,
        # and log 0 has no place in the log-log fit
        report = validate_tube_series(
            ball_oracle(2.0, 3), gmf_ball(2.0, 3, 3), [0, 0.05, 0.1, 0.2, 0.3, 0.4], 20_000, rng=2
        )
        assert abs(report.residuals[0]) > 2 * report.tube_stderr[0]
        assert report.slope is None or np.isfinite(report.slope)

    def test_rows_schema(self):
        oracle = halfspace_oracle(0.0, 2)
        gmfs = gmf_halfspace(0.0, 4)
        report = validate_tube_series(oracle, gmfs, [0.1, 0.2], 20_000, rng=53)
        rows = report.rows()
        assert len(rows) == 2
        assert set(rows[0]) == {"rho", "tube_mc", "stderr", "series", "residual"}
