"""PT-symmetric discrete-time quantum walks under the metric-operator formalism.

Builds split-step non-unitary walk operators with real spectra, the metric
operators that render them unitary, and the reduced coin dynamics those
metrics induce, then quantifies how the metric choice shows up in
information backflow, CP indivisibility and coin-position entanglement.
"""

from .channel import EuclideanWalk, build_euclidean_walk, reduced_coin_state
from .errors import (
    BranchAmbiguity,
    BrokenRegime,
    ConfigInvalid,
    DegenerateAtK,
    DegeneratePairing,
    IncompatibleMetrics,
    LightConeViolation,
    MissingArtifacts,
    NoBreaking,
    NotPositive,
    PTWalkError,
    ShapeMismatch,
    SingularMetric,
    SpectrumNotReal,
)
from .experiments import ExperimentConfig, load_config, report, run, validate_config
from .linalg import (
    EigenSystem,
    eig,
    herm_sqrt,
    partial_trace,
    trace_norm,
    unitary_log,
)
from .measures import (
    AnnealSchedule,
    MeasureSeries,
    StatePair,
    blp_series,
    bloch_state,
    entanglement_series,
    maximize_blp,
    rhp_series,
    trace_distance,
    von_neumann_entropy,
)
from .metric import (
    MetricSpec,
    build_metric,
    eta,
    g_trace_norm,
    generalized_dagger,
    left_eigvecs,
    metric_transport,
    separability_defect,
    verify_metric_action,
)
from .toy import ToyConfig, ToyResult, product_defect, run_toy, toy_hamiltonians
from .walk import (
    BlockOperator,
    WalkParams,
    coin,
    gamma_pt,
    hamiltonian,
    is_unbroken,
    momentum_grid,
    spectral_a,
    walk_block,
    walk_operator,
)

__version__ = "0.1.0"
