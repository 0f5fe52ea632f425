"""Simulation and empirical verification of semilinear stochastic evolution
equations with semimonotone drift and Wiener plus compensated-Poisson forcing.

The package builds finite truncations of the state space, closed-form
semigroups, reproducible noise, and two independent integration routes (an
iterated fixed-point solver and a one-pass exponential Euler scheme), then
checks the inequalities the solver theory promises: the pathwise energy
inequality, the factorial decay of iteration distances, the iterate moment
bound, and the contraction-rescaling equivalence.
"""

__version__ = "0.1.0"

from .semigroup import (
    BlockWaveSemigroup,
    DelayShiftSemigroup,
    DiagonalSemigroup,
)
from .noise import (
    MarkSpaceSpec,
    NoiseRealization,
    TimeGrid,
    coarsen_noise,
    draw_noise,
    path_rng,
)
from .coefficients import (
    AliasingError,
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    JumpCoeffSpec,
    check_lipschitz_growth,
    check_semimonotone,
    nemitsky_sine,
    zero_diffusion,
)
from .convolution import (
    ItoCheckReport,
    ito_inequality_check,
    stochastic_convolution,
)
from .solver import (
    AprioriBoundError,
    InnerIterationError,
    ModelSpec,
    ModelValidationError,
    PicardDivergenceError,
    SolverError,
    direct_solve_batch,
    picard_solve_batch,
    predicted_bound,
    rescale_to_contraction,
    unrescale_values,
)
from . import models
