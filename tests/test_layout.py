"""Per-sample stacks are (quantities, samples) arrays with contiguous rows.

The curvature moments, the Jacobian series and the field replications are
each reduced one quantity at a time, so every route hands them over as one
contiguous row per quantity, with no transpose between the oracle and the
reduction.  The field side keeps the same layout throughout: the wave basis
is one row per wave, a block of fields one row per replication, and the
Euler characteristics one row per level.
"""

import numpy as np
import pytest

from gausstube.cylinder import CylFunctional, PotentialV
from gausstube.fields import (
    FieldSample,
    ParamSpace,
    SpatialCov,
    ec_mc_levels,
    euler_char,
    simulate_field,
)
from gausstube.functionals import quadratic
from gausstube.malliavin import grad_norms, jacobian_coeffs, jacobian_coeffs_batch

ORDER = 4
SAMPLES = 50


def _route(name, gen):
    if name == "dense":
        a = gen.standard_normal((3, 3))
        return quadratic(a + a.T), gen.standard_normal((SAMPLES, 3))
    if name == "sin":
        return CylFunctional(8, PotentialV.preset("sin")).functional(), gen.standard_normal(
            (SAMPLES, 8)
        )
    func = CylFunctional(64, PotentialV.preset("identity")).meridian()
    return func, func.sample(gen, SAMPLES)


@pytest.mark.parametrize("name", ["dense", "sin", "meridian"])
def test_moments_and_series_are_rows(name):
    func, x = _route(name, np.random.default_rng(3))
    grads = func.grads(x)
    gn = grad_norms(grads)
    for moment in func.moments_batch(x, grads / gn[:, None], ORDER):
        assert moment.shape == (ORDER, SAMPLES) and moment.flags.c_contiguous
    coeffs, degenerate = jacobian_coeffs(
        x, grads, gn, lambda v: func.moments_batch(x, v, ORDER), -1
    )
    assert coeffs.shape == (ORDER + 1, SAMPLES) and coeffs.flags.c_contiguous
    assert degenerate.shape == (SAMPLES,)
    if func.hessians is not None:
        dense, _ = jacobian_coeffs_batch(x, grads, func.hessians(x), -1, ORDER)
        assert dense.shape == (ORDER + 1, SAMPLES)


def test_multi_level_ec_is_one_level_calls():
    # each level's replications are one contiguous row, reduced as a
    # one-level call reduces its only row
    space = ParamSpace.interval(10.0, 400)
    cov = SpatialCov.cosine(1.0)
    identity = PotentialV.preset("identity")
    levels = [0.0, 0.5, 1.0]
    means, stderrs = ec_mc_levels(space, cov, identity, levels, 64, 1000, rng=7)
    for i, u in enumerate(levels):
        (mean,), (stderr,) = ec_mc_levels(space, cov, identity, [u], 64, 1000, rng=7)
        assert means[i] == mean and stderrs[i] == stderr, u


def test_basis_is_wave_major():
    space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 16)
    basis = SpatialCov.torus_pair(2.0).basis(space)
    assert basis.shape == (4, 256) and basis.flags.c_contiguous


def test_field_block_and_counts():
    space = ParamSpace.torus(2 * np.pi, 2 * np.pi, 16)
    basis = SpatialCov.torus_pair(2.0).basis(space)
    sample = simulate_field(space, basis, PotentialV.preset("one"), 4, [1, 2, 3])
    assert sample.f_values.shape == (3, 16, 16)
    with pytest.raises(ValueError, match="R"):
        FieldSample(space=space, f_values=sample.f_values[0])  # one field is a block of one
    assert euler_char(sample, [0.0, 1.0]).shape == (2, 3)
