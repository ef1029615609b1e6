"""Staircase calculus and Schrodinger evolution on fractal curves in R^3."""

from .curves import (
    AffineMap,
    CurveGrid,
    GeneratorSpec,
    TimeSet,
    build_cantor_dust,
    build_cantor_time,
    build_generator_curve,
    build_koch,
    build_line,
    koch_generator,
    level_cap,
)
from .measure import (
    DimensionEstimate,
    PreMeasureResult,
    Staircase,
    build_staircase,
    estimate_gamma_dimension,
    gamma_premeasure,
    j_of_point,
)
from .calculus import (
    FieldOnCurve,
    VectorFieldOnCurve,
    falpha_derivative,
    falpha_integral,
    gradient,
    laplacian,
    taylor_eval,
)
from .dynamics import (
    CrankNicolsonEvolver,
    KernelStep,
    PhysicalConstants,
    PlaneWaveParams,
    PotentialOnCurve,
    WaveFunction,
    evolve,
    fit_phase_rate,
    gaussian_packet,
    hamiltonian_apply,
    kernel_moments,
    kernel_step,
    momentum_apply,
    plane_wave,
    schrodinger_residual,
    stationary_ground_state,
)
from .flow import (
    continuity_residual,
    probability_current,
    probability_density,
    total_probability,
)
from . import errors

__version__ = "0.1.0"
