import dataclasses

import numpy as np
import pytest
from scipy import stats

import gausstube.cylinder
from gausstube.cylinder import (
    CylFunctional,
    PotentialV,
    convergence_study,
    convergence_target,
    limit_gmf_chisq,
)
from gausstube.gmf import (
    RegionSpec,
    gmf_halfspace,
    gmf_surface_mc,
    gmf_surface_mc_levels,
    gmf_two_sided,
)
from gausstube.malliavin import dense_moments, hessian_moments, jacobian_coeffs_batch
from gausstube.series import gaussian_pdf

from _oracles import check_derivatives, jacobian_series


class TestPotential:
    def test_presets_exist(self):
        for name in ("one", "identity", "sin", "cubic"):
            v = PotentialV.preset(name)
            assert v.name == name

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown potential"):
            PotentialV.preset("tan")

    def test_polynomial_and_its_derivatives(self):
        # V = 0.5 − b + 2b³, V′ = −1 + 6b², V″ = 12b
        v = PotentialV.polynomial("p", (0.5, -1.0, 0.0, 2.0))
        b = np.array([-1.5, 0.0, 0.5, 2.0])
        expected = [
            [-4.75, 0.5, 0.25, 14.5],
            [12.5, -1.0, 0.5, 23.0],
            [-18.0, 0.0, 6.0, 24.0],
        ]
        for k, (fk, want) in enumerate(zip((v.value, v.d1, v.d2), expected)):
            assert np.allclose(fk(b), want, rtol=1e-15, atol=0.0), k
        assert v.coeffs == (0.5, -1.0, 0.0, 2.0) and v.affine is None
        assert hash(CylFunctional(8, v)) == hash(CylFunctional(8, v))

    def test_presets_are_their_coefficients(self):
        b = np.linspace(-3.0, 3.0, 13)
        for name, coeffs in (("one", (1.0,)), ("identity", (0.0, 1.0)), ("cubic", (0, 0, 0, 1))):
            preset, built = PotentialV.preset(name), PotentialV.polynomial(name, coeffs)
            assert preset.coeffs == built.coeffs
            for k in ("value", "d1", "d2"):
                assert np.array_equal(getattr(preset, k)(b), getattr(built, k)(b)), k

    @pytest.mark.parametrize("name", ["one", "identity", "sin", "cubic"])
    def test_derivative_ladder(self, name):
        # coefficients reproduce V, and d1, d2 match finite differences on [-6, 6]
        from gausstube.fields import validate_assumptions

        validate_assumptions(PotentialV.preset(name))


class TestEvaluation:
    def test_constant_potential_is_linear(self):
        f = CylFunctional(8, PotentialV.preset("one")).functional()
        y = np.arange(8.0)
        assert f.values(y[None])[0] == pytest.approx(y.sum() / np.sqrt(8.0), rel=1e-14)

    def test_hand_value_n2(self):
        f = CylFunctional(2, PotentialV.preset("identity")).functional()
        assert f.values(np.array([[1.0, 1.0]]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_input(self):
        for name in ("one", "identity", "sin", "cubic"):
            f = CylFunctional(6, PotentialV.preset(name)).functional()
            assert f.values(np.zeros((1, 6)))[0] == 0.0

    def test_grid_size_bounds(self):
        with pytest.raises(ValueError):
            CylFunctional(1, PotentialV.preset("one"))
        with pytest.raises(ValueError):
            CylFunctional(1000, PotentialV.preset("one"))


class TestDerivatives:
    def test_constant_potential_gradient(self):
        f = CylFunctional(5, PotentialV.preset("one")).functional()
        y = np.array([[0.3, -1.0, 0.2, 2.0, 0.0]])
        assert np.allclose(f.grads(y), np.full(5, 5.0**-0.5))
        assert np.allclose(f.hessians(y), 0.0)

    def test_hand_gradient_n2(self):
        f = CylFunctional(2, PotentialV.preset("identity")).functional()
        g = f.grads(np.array([[1.0, 1.0]]))
        assert np.allclose(g, [[0.5, 0.5]])

    def test_hand_hessian_n2(self):
        # F_2(y) = y1*y2/2 for V(b)=b
        f = CylFunctional(2, PotentialV.preset("identity")).functional()
        h = f.hessians(np.array([[0.7, -0.3]]))
        assert np.allclose(h, [[[0.0, 0.5], [0.5, 0.0]]])

    @pytest.mark.parametrize("name", ["identity", "sin"])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_finite_differences(self, name, n):
        cyl = CylFunctional(n, PotentialV.preset(name))
        check_derivatives(cyl.functional(), np.random.default_rng(n), n_probes=5)

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(61)
        f = CylFunctional(32, PotentialV.preset("cubic")).functional()
        h = f.hessians(rng.standard_normal((5, 32)))
        assert np.max(np.abs(h - h.transpose(0, 2, 1))) < 1e-12

    def test_batch_consistency(self):
        rng = np.random.default_rng(67)
        cyl = CylFunctional(12, PotentialV.preset("sin"))
        y = rng.standard_normal((9, 12))
        vals = cyl.value_batch(y)
        grads = cyl.grad_batch(y)
        hessians = cyl.hess_batch(y)
        for i in range(9):
            row = y[i : i + 1]
            assert vals[i] == pytest.approx(cyl.value_batch(row)[0], rel=1e-13)
            assert np.allclose(grads[i], cyl.grad_batch(row)[0], atol=1e-13)
            assert np.allclose(hessians[i], cyl.hess_batch(row)[0], atol=1e-13)


def _points_off_the_floor(cyl, count, seed):
    """Gaussian points with ‖∇F_n‖ ≥ 0.3, where both kernels are well conditioned."""
    y = np.random.default_rng(seed).standard_normal((4 * count, cyl.n))
    grads = cyl.grad_batch(y)
    keep = np.linalg.norm(grads, axis=1) >= 0.3
    return y[keep][:count], grads[keep][:count]


class TestMomentKernel:
    """The structured O(n) moments of F_n against its dense Hessian stack."""

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("name", ["one", "identity", "sin", "cubic"])
    def test_structured_matches_dense(self, name, n):
        cyl = CylFunctional(n, PotentialV.preset(name))
        func = cyl.functional()
        y, grads = _points_off_the_floor(cyl, 60, 73)
        hessians = cyl.hess_batch(y)
        v = grads / np.linalg.norm(grads, axis=1)[:, None]
        for got, ref in zip(cyl.moments_batch(y, v, 5), hessian_moments(hessians, v, 5)):
            scale = np.maximum(np.abs(ref).max(axis=0), 1e-300)
            assert np.max(np.abs(got - ref) / scale) <= 1e-12
        for order in range(1, 6):
            for orientation in (+1, -1):
                got, got_deg = jacobian_series(func, y, order, orientation)
                ref, ref_deg = jacobian_coeffs_batch(y, grads, hessians, orientation, order)
                assert not ref_deg.any() and not got_deg.any()
                rel = np.max(np.abs(got - ref), axis=0) / np.abs(ref).max(axis=0)
                assert rel.max() <= 1e-11, (order, orientation)

    def test_surface_mc_needs_no_hessian(self, monkeypatch):
        region = CylFunctional(16, PotentialV.preset("sin")).excursion(0.3)
        func = region.functional
        dense = RegionSpec(
            dataclasses.replace(func, moments_batch=dense_moments(func.hessians)),
            region.level, region.kind,
        )
        ref = gmf_surface_mc(dense, 4, 40_000, rng=79)

        def no_hessian(self, y):
            raise AssertionError("the moment route built a Hessian stack")

        monkeypatch.setattr(CylFunctional, "hess_batch", no_hessian)
        region = CylFunctional(16, PotentialV.preset("sin")).excursion(0.3)
        got = gmf_surface_mc(region, 4, 40_000, rng=79)
        assert got.meta["n_window"] == ref.meta["n_window"]
        assert got.meta["n_degenerate"] == ref.meta["n_degenerate"]
        assert np.allclose(got.values, ref.values, rtol=1e-12, atol=0.0)


def _raises(*args):
    raise AssertionError("the affine route evaluated the potential")


class TestAffineClosedForm:
    """The route the co-area estimators take for degree ≤ 1 potentials."""

    LEVELS = {"one": [-0.5, 0.5, 1.5], "identity": [0.0, 0.5, 1.0]}

    def _levels(self, potential, n, order):
        func = CylFunctional(n, potential).sampled()
        levels = self.LEVELS[potential.name]
        return gmf_surface_mc_levels(func, "excursion", levels, order, 10_000, rng=89)

    @pytest.mark.parametrize("name", ["one", "identity"])
    def test_never_evaluates_the_potential(self, name):
        preset = PotentialV.preset(name)
        blind = dataclasses.replace(preset, value=_raises, d1=_raises, d2=_raises)
        got = self._levels(blind, 64, 4)
        ref = self._levels(preset, 64, 4)
        for g, r in zip(got, ref):
            assert np.array_equal(g.values, r.values)
            assert g.meta == r.meta

    @pytest.mark.parametrize("name", ["one", "identity"])
    def test_worker_count_is_bit_exact(self, name):
        func = CylFunctional(64, PotentialV.preset(name)).sampled()
        levels = self.LEVELS[name]
        one, two = (
            gmf_surface_mc_levels(func, "excursion", levels, 4, 40_000, rng=97, workers=w)
            for w in (1, 2)
        )
        for a, b in zip(one, two):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.stderr, b.stderr)
            assert a.meta == b.meta

    def test_affine_gate(self):
        assert PotentialV.preset("one").affine == (1.0, 0.0)
        assert PotentialV.preset("identity").affine == (0.0, 1.0)
        assert PotentialV.preset("sin").affine is None
        assert PotentialV.preset("cubic").affine is None


# A degree-1 potential that is no preset.
AFFINE = PotentialV.polynomial("affine", (0.3, 2.0))


def _affine(name):
    return AFFINE if name == "affine" else PotentialV.preset(name)


class TestMeridian:
    """F_n for affine V on (z, r) = (S/√n, ‖y − ȳ·1‖), against the ℝⁿ oracles."""

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("name", ["one", "identity", "affine"])
    def test_matches_the_rn_oracles(self, name, n):
        cyl = CylFunctional(n, _affine(name))
        full, meridian = cyl.functional(), cyl.meridian()
        y = np.random.default_rng(n).standard_normal((500, n))
        z = y.sum(axis=1) / np.sqrt(n)
        r = np.linalg.norm(y - y.mean(axis=1, keepdims=True), axis=1)
        x = np.column_stack((z, r))
        a0, a1 = cyl.potential.affine
        h = abs(a1) / n

        def close(got, ref, scale):
            # relative to the size of the terms summed, so that a value
            # near a cancellation is held to the same standard
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)

        close(meridian.values(x), full.values(y), abs(a0 * z) + h * ((n - 1) * z * z + r * r) / 2)
        g_full, g_mer = full.grads(y), meridian.grads(x)
        gn_full, gn_mer = np.linalg.norm(g_full, axis=1), np.linalg.norm(g_mer, axis=1)
        close(gn_mer, gn_full, gn_full)
        v_full, v_mer = g_full / gn_full[:, None], g_mer / gn_mer[:, None]
        close((v_mer * x).sum(axis=1), (v_full * y).sum(axis=1), np.linalg.norm(y, axis=1))
        tau_full, mu_full = full.moments_batch(y, v_full, 4)
        tau_mer, mu_mer = meridian.moments_batch(x, v_mer, 4)
        k = np.arange(1, 5)[:, None]
        close(tau_mer, tau_full, h**k * ((n - 1.0) ** k + n - 1))
        close(mu_mer, mu_full, h**k * (n - 1.0) ** k)

    @pytest.mark.parametrize("name", ["one", "identity", "affine"])
    def test_derivatives_and_law(self, name):
        meridian = CylFunctional(16, _affine(name)).meridian()
        check_derivatives(meridian, np.random.default_rng(3), n_probes=5)
        x = meridian.sample(np.random.default_rng(5), 50_000)
        assert x.shape == (50_000, 2) and np.all(x[:, 1] >= 0)
        assert stats.kstest(x[:, 0], "norm").pvalue > 1e-3
        assert stats.kstest(x[:, 1] ** 2, "chi2", args=(15,)).pvalue > 1e-3

    def test_has_no_dense_hessian(self):
        # its moments are those of the n×n Hessian; no 2×2 stack stands in for them
        meridian = CylFunctional(16, PotentialV.preset("identity")).meridian()
        assert meridian.hessians is None
        assert meridian.moments_batch is not None

    def test_needs_an_affine_potential(self):
        with pytest.raises(ValueError, match="affine"):
            CylFunctional(8, PotentialV.preset("sin")).meridian()
        assert CylFunctional(8, PotentialV.preset("sin")).excursion(0.5).dim == 8
        assert CylFunctional(8, PotentialV.preset("identity")).excursion(0.5).dim == 2

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("name", ["one", "identity", "affine"])
    def test_estimate_matches_the_rn_estimate(self, name, n):
        cyl = CylFunctional(n, _affine(name))
        levels = [0.5, 1.0]
        got, ref = (
            gmf_surface_mc_levels(func, "excursion", levels, 3, 200_000, eps=0.05, rng=seed)
            for func, seed in ((cyl.meridian(), 101), (cyl.functional(), 103))
        )
        for g, r in zip(got, ref):
            combined = np.hypot(g.stderr, r.stderr)
            assert np.all(np.abs(g.values - r.values) <= 4 * combined), (g.values, r.values)

    def test_constant_potential_is_the_halfspace(self):
        region = CylFunctional(32, PotentialV.preset("one")).excursion(0.8)
        est = gmf_surface_mc(region, 3, 400_000, eps=0.02, rng=107)
        target = gmf_halfspace(0.8, 3)
        assert np.all(np.abs(est.values - target.values) <= 4 * est.stderr)


class TestChisqLimit:
    def test_mass_at_zero_level(self):
        g = limit_gmf_chisq(0.0, 2)
        assert g.values[0] == pytest.approx(0.3173105078629141, abs=1e-14)

    def test_matches_two_sided(self):
        for u in (0.0, 0.7, 1.5):
            a = np.sqrt(2 * u + 1)
            assert np.allclose(
                limit_gmf_chisq(u, 5).values, gmf_two_sided(a, 5).values, rtol=1e-14
            )

    def test_first_functional_at_u32(self):
        g = limit_gmf_chisq(1.5, 1)  # a = 2
        assert g.values[1] == pytest.approx(2 * gaussian_pdf(2.0), rel=1e-13)

    def test_low_level_rejected(self):
        with pytest.raises(ValueError):
            limit_gmf_chisq(-0.5, 2)


class TestLinearReduction:
    def test_constant_potential_gmfs_are_n_independent(self):
        # F_n for V = 1 is the linear functional n^{-1/2} sum y_i, a standard
        # Gaussian, so the half-space closed form holds for every n.
        u = 0.8
        target = gmf_halfspace(u, 2)
        for n, seed in ((4, 71), (32, 73)):
            region = CylFunctional(n, PotentialV.preset("one")).excursion(u)
            est = gmf_surface_mc(region, 2, 50_000, rng=seed)
            for j in range(3):
                tol = max(4 * est.stderr[j], 0.05 * abs(target.values[j]))
                assert abs(est.values[j] - target.values[j]) <= tol


class TestHyperbolaQuadratureOracle:
    # For V(b)=b at n=2, F_2(y) = y1*y2/2 exactly, so the excursion region
    # {y1*y2 >= 2u} has Minkowski functionals computable by 1-D quadrature
    # over the hyperbola branches: an estimator check on a genuinely curved,
    # non-convex surface that is independent of every closed form above.
    # Frozen from scipy.integrate.quad at 1e-12 tolerance (u = 1):
    #   M0 = 2*int_0^inf phi(t) Psi(2u/t) dt
    #   M1 = 2*int (2pi)^-1 exp(-r^2/2) sqrt(1+4u^2/t^4) dt,  r^2 = t^2+4u^2/t^2
    #   M2 = same integral weighted by -delta(eta) = 4u/r + 4u/r^3
    M0 = 0.03091444473779613
    M1 = 0.07979592323380369
    M2 = 0.17592862742553664

    def test_surface_mc_matches_quadrature(self):
        cyl = CylFunctional(2, PotentialV.preset("identity"))
        est = gmf_surface_mc(cyl.excursion(1.0), 2, 400_000, eps=0.02, rng=2718)
        for j, target in enumerate((self.M0, self.M1, self.M2)):
            assert abs(est.values[j] - target) <= 4 * est.stderr[j], f"M_{j}"


class TestDistribution:
    def _sample_Fn(self, n, size, seed):
        rng = np.random.default_rng(seed)
        cyl = CylFunctional(n, PotentialV.preset("identity"))
        out = np.empty(size)
        batch = 65536
        for start in range(0, size, batch):
            k = min(batch, size - start)
            out[start : start + k] = cyl.value_batch(rng.standard_normal((k, n)))
        return out

    @staticmethod
    def _limit_cdf(v):
        return stats.chi2.cdf(2.0 * np.asarray(v) + 1.0, df=1)

    def test_ks_distance_shrinks_with_n(self):
        sizes = 100_000
        d8 = stats.kstest(self._sample_Fn(8, sizes, 79), self._limit_cdf).statistic
        d128 = stats.kstest(self._sample_Fn(128, sizes, 83), self._limit_cdf).statistic
        assert d128 < d8

    @pytest.mark.xfail(
        strict=True,
        reason="KS(F_64, limit) is ~0.12: the left-endpoint density singularity "
        "makes the distributional convergence O(n^{-1/2}); 0.02 is unattainable "
        "at n=64 (convergence itself is covered by the shrinking-KS test)",
    )
    def test_ks_distance_below_two_percent_at_n64(self):
        d = stats.kstest(self._sample_Fn(64, 100_000, 89), self._limit_cdf).statistic
        assert d < 0.02


class TestConvergenceStudy:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            convergence_study(PotentialV.preset("identity"), 0.0, 2, [8, 8], 10_000)

    def test_empty_grid_rejected_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            gausstube.cylinder, "gmf_surface_mc", lambda *args, **kwargs: calls.append(1)
        )
        with pytest.raises(ValueError, match="n_grid"):
            convergence_study(PotentialV.preset("identity"), 0.5, 1, [], 10_000)
        assert calls == []

    def test_domain_error_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the limit target")

        monkeypatch.setattr(gausstube.cylinder, "gmf_surface_mc", no_sampling)
        with pytest.raises(ValueError, match="-1/2"):
            convergence_study(PotentialV.preset("identity"), -0.7, 1, [4, 8], 10_000)

    def test_every_n_checked_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            gausstube.cylinder, "gmf_surface_mc", lambda *args, **kwargs: calls.append(1)
        )
        with pytest.raises(ValueError, match="time-grid size"):
            convergence_study(PotentialV.preset("identity"), 0.5, 1, [8, 512], 10_000)
        assert calls == []

    def test_target_follows_the_coefficients(self):
        # chosen by (a₀, a₁), whatever the potential is called
        chisq = PotentialV.polynomial("x", (0.0, 1.0))
        flat = PotentialV.polynomial("identity", (1.0,))
        for potential, limit in ((chisq, limit_gmf_chisq), (flat, gmf_halfspace)):
            target = convergence_target(potential, 0.5, 2)
            assert np.array_equal(target.values, limit(0.5, 2).values)
        for other in (AFFINE, PotentialV.preset("sin"), PotentialV.preset("cubic")):
            assert convergence_target(other, 0.5, 2) is None

    def test_identity_attaches_targets(self):
        report = convergence_study(
            PotentialV.preset("identity"), 0.0, 1, [4, 8], 20_000, rng=103
        )
        assert report.target is not None
        assert report.target.values.shape == (2,)
        rows = report.rows()
        assert {r["n"] for r in rows} == {4, 8}
        assert all("target" in r for r in rows)

    def test_deviation_shrinks_for_identity(self):
        report = convergence_study(
            PotentialV.preset("identity"), 0.0, 1, [8, 64], 100_000, rng=107
        )
        dev = np.abs(np.stack([g.values for g in report.estimates]) - report.target.values)
        se8 = report.estimates[0].stderr
        se64 = report.estimates[1].stderr
        # column 0 is the region mass M_0; its n=8 bias is ~0.03
        assert dev[1, 0] <= dev[0, 0] + 3 * (se8[0] + se64[0])
