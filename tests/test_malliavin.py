import math

import numpy as np
import pytest

from gausstube.cylinder import CylFunctional, PotentialV
from gausstube.functionals import coordinate, norm
from gausstube.gmf import gmf_surface_mc_levels
from gausstube.malliavin import SmoothFunctional, dense_moments, jacobian_coeffs_batch
from gausstube.series import exp_series, hermite_all


from _oracles import (
    ValidityRadiusError,
    VectorField,
    affine_quadratic,
    check_derivatives,
    check_jacobian,
    det2_series,
    divergence,
    eigen_product_series,
    half_norm_squared,
    jacobian_series,
    normal_field,
    ramer_density,
    reference_jacobian_coeffs,
    unit_normal,
)


class TestDivergence:
    def test_constant_field(self):
        h = np.array([0.5, -1.0, 2.0])
        v = VectorField.constant(h)
        x = np.array([1.0, 2.0, 3.0])
        assert divergence(v, x) == pytest.approx(float(h @ x))

    def test_identity_field(self):
        k = 4
        v = VectorField.linear(np.eye(k))
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert divergence(v, x) == pytest.approx(float(x @ x) - k)

    def test_linear_field(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        v = VectorField.linear(a)
        x = rng.standard_normal(3)
        assert divergence(v, x) == pytest.approx(float(x @ a @ x) - np.trace(a))


class TestUnitNormal:
    def test_linear_excursion(self):
        f = coordinate(3)
        eta, jac = unit_normal(f, -1, np.array([2.0, 0.0, 1.0]))
        assert np.allclose(eta, [-1.0, 0.0, 0.0])
        assert np.allclose(jac, 0.0)

    def test_sphere(self):
        f = half_norm_squared(2)
        x = np.array([3.0, 4.0])  # r = 5
        eta, jac = unit_normal(f, +1, x)
        assert np.allclose(eta, x / 5.0)
        expected = (np.eye(2) - np.outer(eta, eta)) / 5.0
        assert np.allclose(jac, expected, atol=1e-12)

    def test_jacobian_annihilates_normal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            f = affine_quadratic(a + a.T, rng.standard_normal(4))
            x = rng.standard_normal(4)
            eta, jac = unit_normal(f, -1, x)
            assert np.allclose(jac.T @ eta, 0.0, atol=1e-10)

    def test_degenerate_point(self):
        f = half_norm_squared(3)
        with pytest.raises(ValueError, match="below floor"):
            unit_normal(f, +1, np.zeros(3))
        x = np.zeros((1, 3))
        coeffs, degenerate = jacobian_series(f, x, 3, +1)
        assert degenerate.tolist() == [True]
        assert np.all(coeffs == 0.0)

    def test_bad_orientation(self):
        f, x = coordinate(2), np.ones((1, 2))
        with pytest.raises(ValueError):
            unit_normal(f, 0, x[0])
        with pytest.raises(ValueError, match="orientation"):
            jacobian_series(f, x, 2, 0)


class TestDet2Series:
    def test_zero_matrix(self):
        s = det2_series(np.zeros((3, 3)), 4)
        assert s.shape == (5,)
        assert np.allclose(s, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_identity_2d(self):
        # (1+rho)^2 e^{-2 rho} = 1 - rho^2 + O(rho^3)
        s = det2_series(np.eye(2), 2)
        assert np.allclose(s, [1.0, 0.0, -1.0], atol=1e-14)

    def test_coefficient_one_always_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            assert det2_series(a, 6)[1] == 0.0

    def test_random_diagonal_matches_eigen_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            lams = rng.uniform(-1, 1, 6)
            s = det2_series(np.diag(lams), 6)
            assert np.max(np.abs(s - eigen_product_series(lams, 6))) < 1e-12

    def test_random_symmetric_matches_eigen_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = rng.standard_normal((8, 8))
            a = (g + g.T) / (2 * np.sqrt(8))
            lams = np.linalg.eigvalsh(a)
            s = det2_series(a, 6)
            assert np.max(np.abs(s - eigen_product_series(lams, 6))) < 1e-12


class TestRamerDensity:
    def test_rho_zero(self):
        v = VectorField.linear(np.array([[0.3, 0.1], [0.0, -0.2]]))
        assert ramer_density(v, 0.0, np.array([1.0, 2.0])) == pytest.approx(1.0)

    def test_constant_field_cameron_martin(self):
        h = np.array([0.6, 0.8])  # unit norm
        v = VectorField.constant(h)
        x = np.array([0.3, -1.1])
        rho = 0.7
        expected = np.exp(-rho * float(h @ x) - rho**2 / 2)
        assert ramer_density(v, rho, x) == pytest.approx(expected, rel=1e-14)

    def test_two_det2_routes_agree(self):
        # exact det(I+rho A)exp(-rho tr A) route vs the trace-power series
        rng = np.random.default_rng(23)
        a = 0.3 * rng.standard_normal((4, 4))
        v = VectorField.linear(a)
        x = rng.standard_normal(4)
        rho = 0.25
        series = det2_series(a, 40)
        e = np.asarray(v.value(x))
        delta = float(e @ x - np.trace(a))
        via_series = np.polynomial.polynomial.polyval(rho, series) * np.exp(-rho * delta - rho**2 * float(e @ e) / 2)
        assert ramer_density(v, rho, x) == pytest.approx(via_series, rel=1e-13)

    def test_validity_radius_flagged(self):
        v = VectorField.linear(np.diag([-4.0, 0.0]))
        with pytest.raises(ValidityRadiusError):
            ramer_density(v, 0.5, np.zeros(2))  # 1 + 0.5*(-4) = -1 < 0

    def test_shift_identity_monte_carlo(self):
        # E[g(x - rho*h)] = E[g(x) Y^h_rho(x)] for the constant field h
        rng = np.random.default_rng(29)
        n = 200_000
        x = rng.standard_normal(n)
        rho, h = 0.5, 1.0
        for g in (lambda t: t, lambda t: t**2, np.cos):
            y = np.exp(-rho * h * x - rho**2 * h**2 / 2)
            diff = g(x - rho * h) - g(x) * y
            assert abs(diff.mean()) < 4 * diff.std() / np.sqrt(n)


class TestJacobianSeries:
    def test_halfspace_hermite_identity(self):
        f = coordinate(4)
        u = np.array([-1.0, 0.0, 0.7, 2.0])
        x = np.column_stack([u, np.tile([0.3, -0.5, 2.0], (4, 1))])
        coeffs, _ = jacobian_series(f, x, 6, -1)
        factorials = np.array([math.factorial(j) for j in range(7)])
        expected = hermite_all(6, u) / factorials[:, None]
        assert np.max(np.abs(coeffs - expected)) < 1e-12

    def test_leading_coefficient_is_one(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3))
        f = affine_quadratic(a @ a.T + np.eye(3), rng.standard_normal(3))
        x = rng.standard_normal((1, 3))
        coeffs, _ = jacobian_series(f, x, 4, +1)
        assert coeffs[0, 0] == 1.0

    def test_sphere_case(self):
        # F = |x| in R^k at radius r: the normal map pushes the sphere of
        # radius r to radius r+rho, so the geometric truth for the area and
        # density change is (1 + rho/r)^{k-1} * exp(-rho*r - rho^2/2).
        for k, r in ((2, 1.7), (3, 2.0), (5, 1.2)):
            f = norm(k)
            x = np.zeros((1, k))
            x[0, 0] = r
            coeffs, _ = jacobian_series(f, x, 6, +1)
            geom = np.zeros((7, 1))
            geom[1, 0] = -r
            geom[2, 0] = -0.5
            for m in range(1, 7):
                geom[m, 0] += (k - 1) * ((-1) ** (m + 1)) * r**-m / m  # log(1+rho/r)
            oracle = exp_series(geom)
            assert np.max(np.abs(coeffs - oracle)) < 1e-13, (k, r)

    def test_sphere_shell_jacobian_value(self):
        # summed series must reproduce the shell Jacobian itself
        r, rho, k = 2.0, 0.15, 3
        f = norm(k)
        x = np.array([[r, 0.0, 0.0]])
        coeffs, _ = jacobian_series(f, x, 30, +1)
        truth = (1 + rho / r) ** (k - 1) * np.exp(-rho * r - rho**2 / 2)
        summed = np.polynomial.polynomial.polyval(rho, coeffs[:, 0])
        assert summed == pytest.approx(truth, rel=1e-12)

    def test_zero_curvature_reduces_to_exp(self):
        # linear functional with non-unit gradient: grad eta = 0
        a = np.array([2.0, -1.0, 0.5])
        f = SmoothFunctional(
            dim=3,
            values=lambda x: x @ a,
            grads=lambda x: np.broadcast_to(a, x.shape).copy(),
            moments_batch=dense_moments(lambda x: np.zeros((x.shape[0], 3, 3))),
        )
        x = np.array([[0.4, 1.0, -0.2]])
        eta = -a / np.linalg.norm(a)
        delta = float(eta @ x[0])
        expo = np.zeros((5, 1))
        expo[1, 0] = -delta
        expo[2, 0] = -0.5
        expected = exp_series(expo)
        coeffs, _ = jacobian_series(f, x, 4, -1)
        assert np.max(np.abs(coeffs - expected)) < 1e-14

    def test_batch_matches_pointwise(self):
        # the dense and the structured moment routes against trace powers of grad eta
        rng = np.random.default_rng(37)
        a = rng.standard_normal((5, 5))
        f = affine_quadratic(a + a.T, rng.standard_normal(5), 0.3)
        x = rng.standard_normal((40, 5))
        coeffs, degenerate = jacobian_coeffs_batch(
            x, f.grads(x), f.hessians(x), -1, 5
        )
        assert not degenerate.any()
        for i in range(x.shape[0]):
            s = reference_jacobian_coeffs(f, -1, x[i], 5)
            assert np.max(np.abs(coeffs[:, i] - s)) < 1e-11
        for name in ("sin", "cubic", "identity"):
            f = CylFunctional(8, PotentialV.preset(name)).functional()
            y = rng.standard_normal((160, 8))
            y = y[np.linalg.norm(f.grads(y), axis=1) >= 0.3][:40]
            assert y.shape[0] == 40
            for orientation in (+1, -1):
                coeffs, degenerate = jacobian_series(f, y, 5, orientation)
                assert not degenerate.any()
                for i in range(y.shape[0]):
                    ref = reference_jacobian_coeffs(f, orientation, y[i], 5)
                    rel = np.max(np.abs(coeffs[:, i] - ref)) / np.max(np.abs(ref))
                    assert rel <= 1e-11, (name, orientation, i, rel)

    def test_batch_flags_degenerate_rows(self):
        f = half_norm_squared(3)
        x = np.vstack([np.zeros(3), np.ones(3)])
        coeffs, degenerate = jacobian_coeffs_batch(x, f.grads(x), f.hessians(x), +1, 3)
        assert degenerate.tolist() == [True, False]
        assert np.allclose(coeffs[:, 0], 0.0)

    @pytest.mark.parametrize("route", ["dense", "moments-batch", "meridian"])
    def test_rows_are_independent(self, route):
        # a row's coefficients and flag depend on that row alone: the estimator
        # chunks its window stacks, and a level's entry must not depend on
        # which other levels share the chunk
        rng = np.random.default_rng(43)
        if route == "dense":
            a = rng.standard_normal((4, 4))
            f = affine_quadratic(a + a.T, np.zeros(4))
            x = rng.standard_normal((300, 4))
            x[[5, 150, 299]] = 0.0  # zero gradient: degenerate rows
            order = 4
        elif route == "moments-batch":
            f = CylFunctional(16, PotentialV.preset("sin")).functional()
            x = rng.standard_normal((300, 16))
            order = 3
        else:
            f = CylFunctional(64, PotentialV.preset("identity")).meridian()
            x = f.sample(rng, 300)
            order = 3

        def coeffs_of(x):
            return jacobian_series(f, x, order, -1)

        coeffs, degenerate = coeffs_of(x)
        assert degenerate.any() == (route == "dense")
        perm = rng.permutation(x.shape[0])
        permuted, permuted_deg = coeffs_of(x[perm])
        assert np.array_equal(permuted, coeffs[:, perm])
        assert np.array_equal(permuted_deg, degenerate[perm])
        head, head_deg = coeffs_of(x[:37])
        tail, tail_deg = coeffs_of(x[37:])
        assert np.array_equal(np.hstack([head, tail]), coeffs)
        assert np.array_equal(np.concatenate([head_deg, tail_deg]), degenerate)


class TestOracleChecks:
    def test_moments_needed_only_from_order_two(self):
        # orders 0 and 1 read values and gradients alone; order 2 needs the
        # curvature moments and says so before drawing a sample
        values, grads = (lambda x: x[:, 0]), (lambda x: np.ones_like(x))
        f = SmoothFunctional(dim=2, values=values, grads=grads)
        assert f.hessians is None and f.moments_batch is None
        for order in (0, 1):
            (est,) = gmf_surface_mc_levels(f, "excursion", [0.5], order, 10_000, eps=0.05, rng=3)
            assert est.order == order and est.meta["n_window"] > 0

        def draw(gen, size):
            raise AssertionError("drew samples before rejecting the order")

        blind = SmoothFunctional(dim=2, values=values, grads=grads, draw=draw)
        with pytest.raises(ValueError, match="moments_batch"):
            gmf_surface_mc_levels(blind, "excursion", [0.5], 2, 10_000, rng=3)

    def test_builders_pass(self):
        rng = np.random.default_rng(41)
        for f in (coordinate(3), half_norm_squared(4), affine_quadratic(np.eye(2), np.ones(2))):
            check_derivatives(f, rng, n_probes=10)

    def test_norm_passes_away_from_origin(self):
        # probes are Gaussian; the origin has measure zero but guard anyway
        rng = np.random.default_rng(43)
        check_derivatives(norm(3), rng, n_probes=10)

    def test_corrupted_gradient_fails(self):
        f = SmoothFunctional(
            dim=2,
            values=lambda x: np.einsum("bi,bi->b", x, x) / 2,
            grads=lambda x: 1.1 * x,  # wrong scale
            hessians=lambda x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
        )
        with pytest.raises(AssertionError, match="gradient mismatch"):
            check_derivatives(f, np.random.default_rng(47), n_probes=5)

    def test_normal_field_jacobian(self):
        f = affine_quadratic(np.diag([2.0, 1.0, 0.5]), np.array([0.1, 0.0, -0.3]))
        field = normal_field(f, +1)
        check_jacobian(field, np.random.default_rng(53), n_probes=10)

    def test_corrupted_jacobian_fails(self):
        v = VectorField(dim=2, value=lambda x: x**2, jacobian=lambda x: np.eye(2))
        with pytest.raises(AssertionError, match="Jacobian mismatch"):
            check_jacobian(v, np.random.default_rng(59), n_probes=5)
