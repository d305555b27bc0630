"""PT-symmetric discrete-time quantum walks under the metric-operator formalism.

Builds split-step non-unitary walk operators with real spectra, the metric
operators that render them unitary, and the reduced coin dynamics those
metrics induce, then quantifies how the metric choice shows up in
information backflow, CP indivisibility and coin-position entanglement.
"""

from .channel import EuclideanWalk, build_euclidean_walk
from .errors import (
    BrokenRegime,
    ConfigInvalid,
    DegeneratePairing,
    LightConeViolation,
    MissingArtifacts,
    NoBreaking,
    NotPositive,
    PTWalkError,
    ShapeMismatch,
    SpectrumNotReal,
)
from .experiments import ExperimentConfig, load_config, report, run, validate_config
from .measures import AnnealSchedule, MeasureSeries, blp_series, entanglement_series, rhp_series
from .metric import MetricSpec
from .toy import ToyConfig, ToyResult, run_toy
from .walk import WalkParams, gamma_pt, is_unbroken

__version__ = "0.1.0"
