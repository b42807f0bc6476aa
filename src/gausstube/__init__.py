"""Numerical Gaussian tube formulas and Minkowski functionals.

The library computes Gaussian Minkowski functionals of smooth regions in
ℝᵏ (closed forms and a kernel-smoothed co-area Monte Carlo estimator),
validates the tube expansion by direct distance-based Monte Carlo,
approximates functionals of Itô-integral regions through cylindrical
truncation, and checks the kinematic formula

    E[χ(A_u(f; M))] = Σ_j (2π)^{−j/2} · L_j(M) · M_j(F⁻¹[u, ∞))

by simulating random fields f(x) = ∫ V(B^x) dB^x on flat parameter spaces
and counting excursion-set Euler characteristics.
"""

__version__ = "0.1.0"

# Modules import scipy inside the functions that call it, so importing the
# package (and validating a config) does not pay for loading it.

from .cylinder import (
    ConvergenceReport,
    CylFunctional,
    PotentialV,
    convergence_study,
    limit_gmf_chisq,
)
from .errors import (
    ConfigError,
    GausstubeError,
    ProjectionError,
    SurfaceDegeneracyError,
)
from .fields import (
    FieldSample,
    ParamSpace,
    SpatialCov,
    ec_mc_levels,
    euler_char,
    excursion_volumes_mc,
    kinematic_weights,
    lkc,
    simulate_field,
    validate_assumptions,
)
from .gmf import (
    GmfVector,
    RegionSpec,
    assemble_tube_series,
    gmf_ball,
    gmf_halfspace,
    gmf_surface_mc,
    gmf_surface_mc_levels,
    gmf_two_sided,
)
from .harness import ExperimentConfig, RunResult, report, run
from .malliavin import SmoothFunctional, det2_series
from .series import gaussian_pdf, gaussian_tail, hermite_all
from .tube import (
    DistanceOracle,
    ValidationReport,
    ball_oracle,
    halfspace_oracle,
    projection_oracle,
    tube_volumes_mc,
    two_sided_oracle,
    validate_tube_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]
