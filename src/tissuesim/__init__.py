"""Finite-volume simulator for two-species tissue growth with autophagy.

Total density n moves by Darcy flow under the stiff pressure law p = n^gamma,
the autophagic fraction c = n2/n rides along the same velocity field, and the
nutrient d diffuses with Dirichlet boundary data.  The harness measures the
quantities that control the incompressible (gamma -> infinity) limit.
"""

from .config import RunConfig, config_hash, default_config, parse_config, serialize_config
from .diagnostics import (
    EnergyLedger,
    FieldSamples,
    WindowIntegrals,
    aronson_benilan_gap,
    check_all,
    excess_measure,
    free_boundary,
    v_integrals,
)
from .errors import ConfigError, SolverFailure
from .grid import Grid, divergence, face_gradient, laplacian_neumann
from .harness import (
    barenblatt_benchmark,
    barenblatt_profile,
    eps_study,
    gamma_sweep,
    run,
    set_up,
)
from .model import (
    DerivedConstants,
    ModelParams,
    RateFunction,
    RateFunctions,
    check_h7,
    cutoff,
    derive_constants,
)
from .stepper import SolverSettings, State, StepReport, step, suggest_dt

__version__ = "0.1.0"
