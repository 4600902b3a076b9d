"""Tree topology learning for bidirectional linear dynamical networks
observed through corrupted data streams.

The library simulates radial LTI networks, models stochastic stream
corruptions (random delays, packet drops, noisy filtering), estimates
cross power spectral densities, detects which nodes are corrupt from the
support and phase structure of the inverse PSD, and reconstructs the exact
generative tree by hiding the corrupt nodes and splicing them back.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, bundled_config_path, load_config
from .corruption import CorruptionSignature, CorruptionSpec, analytic_signature
from .detection import (
    ANALYTIC_DECISION,
    DetectionReport,
    Diagnostic,
    EdgeDecisionParams,
    detect,
    infer_support_graph,
    phase_nonconstancy_score,
)
from .errors import (
    AssumptionViolation,
    ConfigError,
    DataError,
    NumericalError,
    TreespectError,
)
from .graphs import UndirectedGraph, connected_components, is_tree, neighborhood_is_clique
from .instances import Instance, random_instance
from .ltisim import (
    GenerativeModel,
    analytic_inverse_psd,
    analytic_psd,
    stationary_autocovariance,
)
from .oracles import analytic_corrupted_psd, analytic_signatures, woodbury_chain_inverse
from .panel import TimeSeriesPanel, load_panel, save_panel
from .reconstruction import hide_and_learn
from .spectral import (
    FrequencyGrid,
    SpectralMatrix,
    WelchParams,
    estimate_cpsd,
    invert_spectrum,
    marginal_inverse_psd,
)
from .streams import apply_corruption, simulate
