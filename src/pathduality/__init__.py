"""Coherence and which-path information duality for N-path interferometers.

An interferometer configuration pairs a prior distribution over N paths
with one detector state per path. From it this package computes coherence
measures (l1 and relative-entropy), the minimum-error bound on identifying
the path from the detectors, and measured mutual information, and verifies
two trade-off relations that tie them together:

    quadratic:  (P_s - 1/N)^2 + X^2  <=  (1 - 1/N)^2
    entropic:   C_rel + I(M:D)       <=  H(priors)

The ``pathduality`` CLI analyzes single configurations, verifies both
relations over randomized ensembles, and emits parameter sweep traces.
"""

from .coherence import (
    l1_coherence,
    normalized_coherence,
    rel_ent_coherence,
    shannon_entropy,
    von_neumann_entropy,
)
from .core import CSV_HEADER, PureDualityBatch, pure_duality_batch
from .discrimination import (
    DimensionMismatchError,
    Ensemble,
    Povm,
    WrongArityError,
    helstrom_matrix,
    helstrom_povm_two,
    povm_success_probability,
    pretty_good_measurement,
    pure_pair_trace_norm,
    success_upper_bound,
)
from .duality import (
    DualityReport,
    SchwarzChainReport,
    duality_report,
    entropic_duality_report,
    l1_duality_report,
    schwarz_chain_check,
)
from .information import (
    JointDistribution,
    accessible_info_lower_bound,
    holevo_quantity,
    joint_distribution,
    mutual_information,
)
from .linalg import (
    EigenDecomposition,
    NotHermitianError,
    NotPsdError,
    eig_hermitian,
    hermitian_part,
    pinv_sqrt,
    positive_part_trace,
    trace_norm,
)
from .model import (
    ConfigFormatError,
    DensityMatrix,
    DetectorSet,
    InterferometerConfig,
    LengthMismatchError,
    NegativeProbabilityError,
    NotNormalizedError,
    PathDistribution,
    PovmValidation,
    build_config,
    config_from_json,
    config_to_json,
    detector_density,
    particle_density,
    validate_povm,
)
from .sampling import (
    RNG_ALGORITHM,
    SweepCell,
    SweepSpec,
    iter_sweep,
    rng_stream,
    sample_config,
    sample_dirichlet,
    sample_haar_state,
    sample_haar_unitary,
    sample_random_povm,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "ConfigFormatError",
    "DensityMatrix",
    "DetectorSet",
    "DimensionMismatchError",
    "DualityReport",
    "EigenDecomposition",
    "Ensemble",
    "InterferometerConfig",
    "JointDistribution",
    "LengthMismatchError",
    "NegativeProbabilityError",
    "NotHermitianError",
    "NotNormalizedError",
    "NotPsdError",
    "PathDistribution",
    "Povm",
    "PovmValidation",
    "PureDualityBatch",
    "RNG_ALGORITHM",
    "SchwarzChainReport",
    "SweepCell",
    "SweepSpec",
    "WrongArityError",
    "__version__",
    "accessible_info_lower_bound",
    "build_config",
    "config_from_json",
    "config_to_json",
    "detector_density",
    "duality_report",
    "eig_hermitian",
    "entropic_duality_report",
    "helstrom_matrix",
    "helstrom_povm_two",
    "hermitian_part",
    "holevo_quantity",
    "iter_sweep",
    "joint_distribution",
    "l1_coherence",
    "l1_duality_report",
    "mutual_information",
    "normalized_coherence",
    "particle_density",
    "pinv_sqrt",
    "positive_part_trace",
    "povm_success_probability",
    "pretty_good_measurement",
    "pure_duality_batch",
    "pure_pair_trace_norm",
    "rel_ent_coherence",
    "rng_stream",
    "sample_config",
    "sample_dirichlet",
    "sample_haar_state",
    "sample_haar_unitary",
    "sample_random_povm",
    "schwarz_chain_check",
    "shannon_entropy",
    "success_upper_bound",
    "trace_norm",
    "validate_povm",
    "von_neumann_entropy",
]
