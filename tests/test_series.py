import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstube.series import (
    TruncSeries,
    gaussian_pdf,
    gaussian_tail,
    hermite,
    hermite_all,
    series_exp,
)

from _oracles import HermiteEval, series_mul


class TestHermite:
    def test_degree_zero_is_one(self):
        assert hermite(0, 3.7) == 1.0

    def test_degree_one_is_identity(self):
        assert hermite(1, 2.0) == 2.0

    def test_degree_three(self):
        # H_3(y) = y^3 - 3y by the recurrence, evaluated by hand at y=2
        assert hermite(3, 2.0) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("y", np.linspace(-3, 3, 7))
    def test_recurrence(self, y):
        for n in range(1, 20):
            lhs = hermite(n + 1, y)
            rhs = y * hermite(n, y) - n * hermite(n - 1, y)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_derivative_identity(self, n):
        # d/dy H_n = n H_{n-1}, central differences
        h = 1e-5
        for y in np.linspace(-2.5, 2.5, 11):
            fd = (hermite(n, y + h) - hermite(n, y - h)) / (2 * h)
            assert fd == pytest.approx(n * hermite(n - 1, y), rel=1e-6, abs=1e-6)

    def test_hermite_all_matches_scalar(self):
        y = np.array([-1.0, 0.3, 2.2])
        table = hermite_all(6, y)
        for n in range(7):
            for i, yi in enumerate(y):
                assert table[n, i] == pytest.approx(hermite(n, yi), rel=1e-13, abs=1e-13)

    def test_record(self):
        rec = HermiteEval.at(3, 2.0)
        assert (rec.degree, rec.argument) == (3, 2.0)
        assert rec.value == pytest.approx(2.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)


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
        a = TruncSeries.from_coeffs([1.0, 1.0])
        assert np.allclose(series_mul(a, a).coeffs, [1.0, 2.0])

    def test_mul_shifts_degrees(self):
        a = TruncSeries.from_coeffs([0.0, 1.0, 0.0])
        assert np.allclose(series_mul(a, a).coeffs, [0.0, 0.0, 1.0])

    def test_order_mismatch_rejected(self):
        a = TruncSeries.from_coeffs([1.0, 1.0])
        b = TruncSeries.from_coeffs([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="order mismatch"):
            series_mul(a, b)

    def test_coeffs_frozen(self):
        a = TruncSeries.from_coeffs([1.0, 1.0])
        with pytest.raises(ValueError):
            a.coeffs[0] = 5.0

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries(order=2, coeffs=np.array([1.0, 2.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries.from_coeffs([1.0, np.nan])


class TestSeriesExp:
    def test_exp_linear(self):
        out = series_exp(TruncSeries.from_coeffs([0.0, 1.0, 0.0]))
        assert np.allclose(out.coeffs, [1.0, 1.0, 0.5])

    def test_exp_gaussian_factor(self):
        out = series_exp(TruncSeries.from_coeffs([0.0, 0.0, -0.5]))
        assert np.allclose(out.coeffs, [1.0, 0.0, -0.5])

    def test_exp_mixed(self):
        # symbolic expansion of exp(rho + rho^2) at order 3
        out = series_exp(TruncSeries.from_coeffs([0.0, 1.0, 1.0, 0.0]))
        assert np.allclose(out.coeffs, [1.0, 1.0, 1.5, 7.0 / 6.0], atol=1e-15)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="constant term"):
            series_exp(TruncSeries.from_coeffs([0.1, 1.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_exp_of_sum_is_product(self, order, seed):
        rng = np.random.default_rng(seed)
        a = np.concatenate([[0.0], rng.uniform(-1, 1, order)])
        b = np.concatenate([[0.0], rng.uniform(-1, 1, order)])
        sa, sb = TruncSeries.from_coeffs(a), TruncSeries.from_coeffs(b)
        lhs = series_exp(TruncSeries.from_coeffs(a + b))
        rhs = series_mul(series_exp(sa), series_exp(sb))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12

    def test_evaluation(self):
        coeffs = np.zeros(13)
        coeffs[1] = 1.0
        s = series_exp(TruncSeries.from_coeffs(coeffs))
        assert s(0.3) == pytest.approx(np.exp(0.3), rel=1e-10)
