"""laxlab: a desk-scale laboratory for finite-difference stability theory.

Exact spectral evolution of the periodic heat equation, explicit and
implicit stencil schemes, executable convergence/consistency/stability
checks with exactly computable sup-norm operator norms, reduced-precision
round-off experiments, and the finitely-supported-sequence counterexample
to uniform boundedness on incomplete spaces.
"""

from .analysis import (
    ConvergenceReport,
    StabilityReport,
    VonNeumannReport,
    consistency_check,
    convergence_experiment,
    operator_norm,
    scheme_builder,
    stability_check,
    von_neumann_check,
    von_neumann_symbol,
)
from .errors import (
    ConfigError,
    DivergedOperatorError,
    DivergedValueError,
    InsufficientScanError,
    InvalidGridError,
    LaxlabError,
)
from .grid import (
    Constant,
    Cosine,
    GridFunction,
    Mixture,
    PointMass,
    Probe,
    RandomUniform,
    RefinementPath,
    Sine,
    parse_probe,
    sample,
    sup_norm,
)
from .roundoff import (
    PrecisionSpec,
    halving_sweep,
    round_to_precision,
    roundoff_growth_experiment,
)
from .schemes import (
    StencilScheme,
    backward_euler_heat,
    compose,
    ftcs_heat,
    power,
)
from .semigroup import HeatSemigroup, evolve, extend_evolve
from .ubp import (
    FiniteSequence,
    apply_Tk,
    cauchy_witness,
    norm_Tk,
    pointwise_bound,
    seq_norm,
    ubp_violation_demo,
)

__version__ = "0.1.0"
