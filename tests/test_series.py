import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstube.series import exp_series, gaussian_pdf, gaussian_tail, hermite_all

from _oracles import HermiteEval, series_mul


class TestHermite:
    def test_degree_zero_is_one(self):
        assert hermite_all(0, 3.7)[0] == 1.0

    def test_degree_one_is_identity(self):
        assert hermite_all(1, 2.0)[1] == 2.0

    def test_degree_three(self):
        # H_3(y) = y^3 - 3y by the recurrence, evaluated by hand at y=2
        assert hermite_all(3, 2.0)[3] == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("y", np.linspace(-3, 3, 7))
    def test_recurrence(self, y):
        h = hermite_all(20, y)
        for n in range(1, 20):
            assert h[n + 1] == pytest.approx(y * h[n] - n * h[n - 1], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_derivative_identity(self, n):
        # d/dy H_n = n H_{n-1}, central differences
        h = 1e-5
        y = np.linspace(-2.5, 2.5, 11)
        fd = (hermite_all(n, y + h)[n] - hermite_all(n, y - h)[n]) / (2 * h)
        assert fd == pytest.approx(n * hermite_all(n, y)[n - 1], rel=1e-6, abs=1e-6)

    def test_hermite_all_matches_scalar(self):
        y = np.array([-1.0, 0.3, 2.2])
        table = hermite_all(6, y)
        assert table.shape == (7, 3)
        for i, yi in enumerate(y):
            assert np.array_equal(table[:, i], hermite_all(6, yi))

    def test_record(self):
        rec = HermiteEval.at(3, 2.0)
        assert (rec.degree, rec.argument) == (3, 2.0)
        assert rec.value == pytest.approx(2.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite_all(-1, 0.0)


class TestGaussian:
    def test_tail_at_zero(self):
        assert gaussian_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_pdf_at_zero(self):
        assert gaussian_pdf(0.0) == pytest.approx(0.39894228040143268, abs=1e-16)

    def test_tail_at_one(self):
        # high-precision erfc oracle value
        assert gaussian_tail(1.0) == pytest.approx(0.15865525393145705, abs=1e-15)

    def test_tail_accuracy_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for u in np.linspace(-8.0, 8.0, 33):
            exact = float(mp.erfc(mp.mpf(u) / mp.sqrt(2)) / 2)
            assert gaussian_tail(u) == pytest.approx(exact, rel=1e-12)

    def test_tail_monotone_and_limits(self):
        grid = np.linspace(-6, 6, 49)
        vals = gaussian_tail(grid)
        assert np.all(np.diff(vals) < 0)
        assert gaussian_tail(-40.0) == pytest.approx(1.0, abs=1e-15)

    def test_tail_derivative_is_minus_pdf(self):
        h = 1e-5
        for u in np.linspace(-4, 4, 17):
            fd = (gaussian_tail(u + h) - gaussian_tail(u - h)) / (2 * h)
            assert fd == pytest.approx(-gaussian_pdf(u), abs=1e-8)


class TestSeriesOps:
    def test_mul_truncates(self):
        assert np.allclose(series_mul([1.0, 1.0], [1.0, 1.0]), [1.0, 2.0])

    def test_mul_shifts_degrees(self):
        a = [0.0, 1.0, 0.0]
        assert np.allclose(series_mul(a, a), [0.0, 0.0, 1.0])

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order mismatch"):
            series_mul([1.0, 1.0], [1.0, 1.0, 1.0])


class TestSeriesExp:
    def test_exp_linear(self):
        out = exp_series(np.array([[0.0, 1.0, 0.0]]).T)
        assert np.allclose(out.T, [[1.0, 1.0, 0.5]])

    def test_exp_gaussian_factor(self):
        out = exp_series(np.array([[0.0, 0.0, -0.5]]).T)
        assert np.allclose(out.T, [[1.0, 0.0, -0.5]])

    def test_exp_mixed(self):
        # symbolic expansion of exp(rho + rho^2) at order 3
        out = exp_series(np.array([[0.0, 1.0, 1.0, 0.0]]).T)
        assert np.allclose(out.T, [[1.0, 1.0, 1.5, 7.0 / 6.0]], atol=1e-15)

    def test_constant_term_is_ignored(self):
        # row 0 is taken to be 0, so exp(a0) is left to the caller
        out = exp_series(np.array([[0.1, 1.0], [0.0, 1.0]]).T)
        assert np.array_equal(out[:, 0], out[:, 1])

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_exp_of_sum_is_product(self, order, seed):
        rng = np.random.default_rng(seed)
        a = np.concatenate([[0.0], rng.uniform(-1, 1, order)])
        b = np.concatenate([[0.0], rng.uniform(-1, 1, order)])
        ea, eb, lhs = exp_series(np.stack([a, b, a + b], axis=1)).T
        assert np.max(np.abs(lhs - series_mul(ea, eb))) < 1e-12

    def test_evaluation(self):
        coeffs = np.zeros((13, 1))
        coeffs[1, 0] = 1.0
        s = exp_series(coeffs)[:, 0]
        assert np.polynomial.polynomial.polyval(0.3, s) == pytest.approx(np.exp(0.3), rel=1e-10)
