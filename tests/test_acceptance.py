"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
stated inline; the statistical ones use 3-4 standard-error bands with
fixed seeds, the deterministic ones are exact.
"""

import math
import time

import numpy as np
import pytest

import gausstube as gt
from gausstube.functionals import coordinate, norm

from _oracles import check_derivatives

pytestmark = pytest.mark.acceptance


def _report(num, name, detail):
    print(f"\n[criterion {num:2d}] PASS {name}: {detail}")


class TestCriterion1HalfspaceRecovery:
    def test_halfspace_surface_mc(self):
        t0 = time.perf_counter()
        region = gt.RegionSpec(coordinate(5), 1.0, "excursion")
        # M_3's target is exactly 0, so its tolerance is the pure 4-sigma
        # band; the bandwidth must keep the O(eps^2) kernel bias
        # (eps^2/2 * (H_2 phi)''(1) ~ 0.24*eps^2) inside that band.
        est = gt.gmf_surface_mc(region, 4, 1_000_000, eps=0.025, rng=20_240_601)
        target = gt.gmf_halfspace(1.0, 4)
        worst = 0.0
        for j in range(5):
            err = abs(est.values[j] - target.values[j])
            tol = max(4 * est.stderr[j], 0.05 * abs(target.values[j]))
            assert err <= tol, f"M_{j}: err {err:.2e} > tol {tol:.2e}"
            worst = max(worst, err / max(tol, 1e-300))
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.0f}s (budget 120s single-threaded)"
        _report(1, "half-space GMF recovery",
                f"max err/tol {worst:.2f}, {elapsed:.0f}s")


class TestCriterion2Sphere:
    def test_ball_surface_mc(self):
        region = gt.RegionSpec(norm(3), 2.0, "sub-level")
        est = gt.gmf_surface_mc(region, 4, 1_000_000, rng=20_240_602)
        target = gt.gmf_ball(2.0, 3, 4)
        worst = 0.0
        for j in range(5):
            err = abs(est.values[j] - target.values[j])
            tol = max(4 * est.stderr[j], 0.05 * abs(target.values[j]))
            assert err <= tol, f"M_{j}: err {err:.2e} > tol {tol:.2e}"
            worst = max(worst, err / max(tol, 1e-300))
        _report(2, "sphere GMF recovery", f"max err/tol {worst:.2f}")


class TestCriterion3TubeTruncation:
    def test_halfspace_tube_series(self):
        t0 = time.perf_counter()
        J = 6
        gmfs = gt.gmf_halfspace(1.0, J)
        oracle = gt.halfspace_oracle(1.0, 3)
        rho_grid = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40]
        report = gt.validate_tube_series(oracle, gmfs, rho_grid, 1_000_000, rng=20_240_603)
        for rho, resid, se in zip(rho_grid, report.residuals, report.tube_stderr):
            tol = max(4 * se, 2 * rho ** (J + 1))
            assert abs(resid) <= tol, f"rho={rho}: |{resid:.2e}| > {tol:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        _report(3, "tube-series truncation",
                f"max |residual| {report.max_abs_residual:.2e}, {elapsed:.0f}s")


class TestCriterion4CameronMartin:
    def test_shift_identity(self):
        rng = np.random.default_rng(20_240_604)
        n, k = 1_000_000, 5
        x = rng.standard_normal((n, k))
        shifts = [
            np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
            np.array([0.3, -0.4, 0.5, 0.0, 0.0]),
            np.array([0.1, 0.1, 0.1, 0.1, 0.1]),
        ]
        gs = [
            ("x1", lambda z: z[:, 0]),
            ("x1^2", lambda z: z[:, 0] ** 2),
            ("cos x1", lambda z: np.cos(z[:, 0])),
        ]
        worst = 0.0
        for h in shifts:
            assert np.linalg.norm(h) <= 1.0
            y = np.exp(x @ h - 0.5 * float(h @ h))
            for name, g in gs:
                diff = g(x + h) - g(x) * y
                z = abs(diff.mean()) / (diff.std(ddof=1) / math.sqrt(n))
                assert z <= 4.0, f"g={name}, h={h}: z={z:.2f}"
                worst = max(worst, z)
        _report(4, "Cameron-Martin shift identity", f"max |z| {worst:.2f} over 9 pairs")


class TestCriterion5Det2:
    def test_series_vs_eigen_product(self):
        from _oracles import eigen_product_series

        t0 = time.perf_counter()
        rng = np.random.default_rng(20_240_605)
        worst = 0.0
        for trial in range(100):
            k = int(rng.integers(2, 33))
            lams = rng.uniform(-1.0, 1.0, k)
            s = gt.det2_series(np.diag(lams), 6)
            worst = max(worst, float(np.max(np.abs(s - eigen_product_series(lams, 6)))))
        for trial in range(100):
            k = int(rng.integers(2, 33))
            g = rng.standard_normal((k, k))
            a = (g + g.T) / (2.0 * math.sqrt(k))
            s = gt.det2_series(a, 6)
            lams = np.linalg.eigvalsh(a)
            worst = max(worst, float(np.max(np.abs(s - eigen_product_series(lams, 6)))))
        assert worst <= 1e-12, f"max coefficient gap {worst:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        _report(5, "det2 series vs eigen product", f"max gap {worst:.1e}, {elapsed:.1f}s")


class TestCriterion6Derivatives:
    def test_cylindrical_derivatives(self):
        t0 = time.perf_counter()
        for i, name in enumerate(("one", "identity", "sin", "cubic")):
            for n in (4, 16, 64):
                cyl = gt.CylFunctional(n, gt.PotentialV.preset(name))
                check_derivatives(
                    cyl.functional(), np.random.default_rng((n, i)),
                    n_probes=7, rel_tol=1e-5,
                )
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        _report(6, "cylindrical gradient/Hessian vs finite differences",
                f"4 potentials x 3 sizes, {elapsed:.0f}s")


class TestCriterion7GmfConvergence:
    def test_convergence_to_chisq_limit(self):
        t0 = time.perf_counter()
        report = gt.convergence_study(
            gt.PotentialV.preset("identity"), 0.0, 3, [8, 16, 32, 64],
            100_000, rng=20_240_607,
        )
        target = report.target.values
        dev = np.stack([g.values for g in report.estimates]) - target
        first, last = report.estimates[0], report.estimates[-1]
        # The 10% relative band is read at the scale of the functional
        # vector when a target is exactly zero (M_3 here): the true
        # M_3(F_64) is ~ -0.008 and shrinks like 1/n, so a band that
        # collapses to pure noise around 0 would reject the correct value.
        scale = float(np.max(np.abs(target)))
        for j in range(4):
            err = abs(dev[-1, j])
            rel_floor = 0.10 * (abs(target[j]) if target[j] != 0.0 else scale)
            tol = max(4 * last.stderr[j], rel_floor)
            assert err <= tol, f"n=64, M_{j}: err {err:.3e} > tol {tol:.3e}"
            trend_slack = 3 * (first.stderr[j] + last.stderr[j])
            assert abs(dev[-1, j]) <= abs(dev[0, j]) + trend_slack, (
                f"M_{j} deviation grew along the n-grid"
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 1200.0
        _report(7, "GMF convergence along n",
                f"n=64 devs {np.round(dev[-1], 4).tolist()}, {elapsed:.0f}s")


class TestCriterion8GaussianGkf:
    U_LEVELS = [0.5, 1.0, 1.5, 2.0]

    def _check(self, space, cov, reps, n_samples, seed, label, time_budget):
        t0 = time.perf_counter()
        potential = gt.PotentialV.preset("one")
        root = np.random.SeedSequence(seed)
        lhs_seed, rhs_seed = root.spawn(2)
        ec_means, ec_ses = gt.ec_mc_levels(
            space, cov, potential, self.U_LEVELS, 16, reps, rng=lhs_seed
        )
        rhs_children = rhs_seed.spawn(len(self.U_LEVELS))
        weights = gt.kinematic_weights(0, space, cov, space.dim)
        worst = 0.0
        for i, u in enumerate(self.U_LEVELS):
            gmfs = gt.gmf_surface_mc(
                gt.CylFunctional(16, potential).excursion(u), space.dim, n_samples,
                rng=rhs_children[i],
            )
            rhs, rse = gmfs.dot(weights)
            gap = abs(ec_means[i] - rhs)
            combined = math.hypot(ec_ses[i], rse)
            assert gap <= 3 * combined, (
                f"{label} u={u}: |{ec_means[i]:.4f} - {rhs:.4f}| > 3*{combined:.4f}"
            )
            worst = max(worst, gap / (3 * combined))
        elapsed = time.perf_counter() - t0
        assert elapsed < time_budget
        _report(8, f"Gaussian kinematic identity on the {label}",
                f"max gap/tol {worst:.2f}, {elapsed:.0f}s")

    def test_interval(self):
        self._check(
            gt.ParamSpace.interval(10.0, 400), gt.SpatialCov.cosine(1.0),
            2000, 200_000, 20_240_681, "interval", 900.0,
        )

    def test_circle(self):
        self._check(
            gt.ParamSpace.circle(2 * np.pi * 3, 400), gt.SpatialCov.cosine(1.0),
            2000, 200_000, 20_240_682, "circle", 900.0,
        )

    def test_torus(self):
        self._check(
            gt.ParamSpace.torus(2 * np.pi, 2 * np.pi, 400), gt.SpatialCov.torus_pair(2.0),
            2000, 200_000, 20_240_683, "torus", 900.0,
        )


class TestCriterion9StochasticIntegralGkf:
    def test_headline_identity(self):
        t0 = time.perf_counter()
        space = gt.ParamSpace.interval(10.0, 400)
        cov = gt.SpatialCov.cosine(1.0)
        potential = gt.PotentialV.preset("identity")
        n = 64
        u_levels = [0.0, 0.5, 1.0]
        root = np.random.SeedSequence(20_240_609)
        lhs_seed, rhs_seed = root.spawn(2)
        ec_means, ec_ses = gt.ec_mc_levels(
            space, cov, potential, u_levels, n, 4000, rng=lhs_seed
        )
        rhs_children = rhs_seed.spawn(len(u_levels))
        weights = gt.kinematic_weights(0, space, cov, 1)
        lines = []
        for i, u in enumerate(u_levels):
            gmfs = gt.gmf_surface_mc(
                gt.CylFunctional(n, potential).excursion(u), 1, 400_000, rng=rhs_children[i]
            )
            rhs, rse = gmfs.dot(weights)
            gap = abs(ec_means[i] - rhs)
            tol = max(3 * math.hypot(ec_ses[i], rse), 0.10 * abs(rhs))
            assert gap <= tol, (
                f"u={u}: |EC {ec_means[i]:.4f} - RHS {rhs:.4f}| = {gap:.4f} > {tol:.4f}"
            )
            lines.append(f"u={u}: {ec_means[i]:.3f} vs {rhs:.3f}")
        elapsed = time.perf_counter() - t0
        assert elapsed < 1800.0
        _report(9, "stochastic-integral kinematic identity", "; ".join(lines) + f", {elapsed:.0f}s")


@pytest.fixture(scope="module")
def non_affine_gkf():
    """Rows by level of one ``gkf`` run per potential, computed on first use.

    The interval shape of criterion 9 at n = 16 and J = 1, where F_n is not
    a quadric: V = sin or cubic.
    """
    runs = {}

    def rows(potential):
        if potential not in runs:
            config = gt.ExperimentConfig.from_dict(
                {
                    "experiment": "gkf",
                    "seed": 11,
                    "space": {"kind": "interval", "length": 10.0, "grid": 400},
                    "cov": {"preset": "cosine", "frequency": 1.0},
                    "potential": potential,
                    "u_levels": [0.0, 0.5, 1.0],
                    "n": 16,
                    "J": 1,
                    "N": 2**17,
                    "reps": 1000,
                }
            )
            runs[potential] = {row["u"]: row for row in gt.run(config).rows}
        return runs[potential]

    return rows


class TestNonAffineGkf:
    """The headline identity for non-affine V, where every other criterion uses
    V = 1 or V = b (ROADMAP item 5)."""

    @pytest.mark.parametrize(
        "potential, u",
        [
            ("sin", 0.0),
            ("sin", 0.5),
            ("sin", 1.0),
            pytest.param(
                "cubic", 0.0,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="kernel bias at the cone vertex (ROADMAP items 2 and 5): "
                    "EC 1.705 +- 0.058 against RHS 2.084 +- 0.009, z = -6.44, "
                    "kernel eps = 0.195",
                ),
            ),
            ("cubic", 0.5),
            ("cubic", 1.0),
        ],
    )
    def test_identity_holds(self, non_affine_gkf, potential, u):
        row = non_affine_gkf(potential)[u]
        assert abs(row["z"]) <= 4.0, (
            f"{potential} u={u}: EC {row['ec_mean']:.4f} +- {row['ec_stderr']:.4f} "
            f"vs RHS {row['rhs']:.4f} +- {row['rhs_stderr']:.4f}, z = {row['z']:.2f}"
        )
        _report(9, f"kinematic identity for V = {potential} at u = {u}", f"z = {row['z']:.2f}")


class TestCriterion10Crofton:
    def test_top_index_matches_volume_mc(self):
        space = gt.ParamSpace.interval(10.0, 400)
        cov = gt.SpatialCov.cosine(1.0)
        potential = gt.PotentialV.preset("identity")
        root = np.random.SeedSequence(20_240_610)
        rhs_seed, vol_seed = root.spawn(2)
        gmfs = gt.gmf_surface_mc(
            gt.CylFunctional(32, potential).excursion(0.5), 1, 200_000, rng=rhs_seed
        )
        value, se = gmfs.dot(gt.kinematic_weights(1, space, cov, 1))
        vols, vol_ses = gt.excursion_volumes_mc(
            space, cov, potential, [0.5], 32, 2000, rng=vol_seed
        )
        vol, vol_se = vols[0], vol_ses[0]
        gap = abs(value - vol)
        combined = math.hypot(se, vol_se)
        assert gap <= 3 * combined, f"|{value:.4f} - {vol:.4f}| > 3*{combined:.4f}"
        _report(10, "Crofton top index vs direct volume",
                f"{value:.4f} vs {vol:.4f} (3-sigma {3 * combined:.4f})")

    def test_index_zero_weights_are_gkf_weights(self):
        # index 0: every flag coefficient is exactly 1, leaving (2π)^{-j/2}·L_j
        space = gt.ParamSpace.interval(10.0, 400)
        cov = gt.SpatialCov.cosine(1.0)
        curvatures = gt.lkc(space, cov)
        expected = np.array([(2.0 * np.pi) ** (-j / 2.0) * curvatures[j] for j in range(2)])
        assert np.array_equal(gt.kinematic_weights(0, space, cov, 1), expected)
        _report(10, "Crofton index 0 equals kinematic sum", "bit-for-bit")


class TestCriterion11Determinism:
    def test_repeated_runs_bit_exact(self):
        config = gt.ExperimentConfig.from_dict(
            {
                "experiment": "gkf",
                "seed": 20_240_611,
                "space": {"kind": "interval", "length": 10.0, "grid": 200},
                "cov": {"preset": "cosine", "frequency": 1.0},
                "potential": "identity",
                "u_levels": [0.5],
                "n": 16,
                "J": 1,
                "N": 20_000,
                "reps": 200,
            }
        )
        first = gt.run(config)
        second = gt.run(config)
        assert first.payload() == second.payload()
        third = gt.run(
            gt.ExperimentConfig.from_dict({**config.to_dict(), "workers": 2})
        )
        assert [r for r in third.rows] == [r for r in first.rows]
        _report(11, "determinism", "payloads identical across reruns and worker counts")
