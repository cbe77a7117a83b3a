"""Interferometric test of quantum versus classical gravity dynamics.

A particle held in a two-arm superposition between two source balls
accumulates a relative phase whose frequency differs between unitary
quantum dynamics (omega_Q, set by the potential difference between the
arms) and classical phase-space transport (omega_C, set by the midpoint
force).  Choosing ball distances that null omega_C while leaving omega_Q
at a fraction of a rad/s turns the fringe into a discriminating
measurement.

The package provides the geometry and frequency formulas
(:mod:`gravfringe.gravity`), the reduced two-state dynamics of the
candidate laws (:mod:`gravfringe.twostate`), a full phase-space
evolution oracle that derives those frequencies from grid dynamics
instead of formulas (:mod:`gravfringe.phasespace`,
:mod:`gravfringe.oracle`), fringe-record synthesis and estimation
(:mod:`gravfringe.fringe`), and a command line (``gravfringe``).
"""

from .config import (
    ExperimentConfig,
    ball_radius,
    cesium_tungsten_config,
    load_config,
    parse_config,
    serialize_config,
)
from .errors import (
    CoherenceGrowthWarning,
    ConfigParseError,
    ConfigValidationError,
    DomainError,
    GravfringeError,
    GridError,
    NumericalError,
    PositivityWarning,
    RecordError,
)
from .gravity import (
    frequency_report,
    omega_classical,
    omega_quantum,
    two_ball_derivative,
)
from .fringe import (
    FitResult,
    FringeRecord,
    fit_damped_fringe,
    read_fit_result,
    read_record,
    synthesize_record,
    write_fit_result,
    write_record,
)
from .oracle import (
    OracleConfig,
    OracleReport,
    default_scaled_config,
    load_oracle_config,
    parse_oracle_config,
    run_validation,
)
from .phasespace import (
    BracketOrder,
    HamiltonianField,
    WignerGrid,
    evolve_wigner,
    moyal_bracket,
    poisson_bracket,
    potential_bracket,
    potential_commutator_term,
    weyl_density_matrix,
    wigner_from_two_packets,
)
from .twostate import (
    PLUS_STATE,
    ClassicalPoisson,
    DynamicsModel,
    GeneralLinear,
    Schrodinger,
    TilloyDiosi,
    TwoLevelState,
    coherence_matrix,
    eigenvalue_branch,
    evolve,
    spectral_solution,
    spectral_trajectory,
    trajectory,
)

__version__ = "0.1.0"
