"""Pairwise dependence exploration with copulas and optimal transport.

Pipeline: rank-transform raw observations into empirical copula histograms,
compare them with entropy-regularized transport distances, cluster them with
Wasserstein barycenters, and score them with the target/forget dependence
coefficient.
"""

__version__ = "0.1.0"

from .clustering import ClusterModel, centroid_report, cluster_copulas
from .copula import (
    CopulaHistogram,
    ObservationTable,
    RankColumn,
    empirical_copula,
    empirical_copula_from_data,
    normal_inverse_cdf,
    project_uniform_margins,
    rank_transform,
    reference_copula,
    spearman_from_copula,
)
from .dependence import TFDCSpec, distance_correlation, pearson, rdc, spearman, tfdc
from .errors import (
    AmbiguousSpec,
    ConvergenceFailure,
    CoptransError,
    DegenerateColumn,
    InfeasibleProjection,
    InvalidData,
    InvalidParameter,
    IoError,
    OracleTooLarge,
    ParseError,
)
from .formats import load_csv, read_cop, write_cop, write_heatmap
from .power import PowerResult, estimate_power, make_tfdc_coefficient, tfdc_power_targets
from .synth import (
    POWER_PATTERNS,
    gen_discontinuity,
    gen_gaussian_pair,
    gen_noisy_parabola,
    gen_power_pattern,
    generate,
)
from .transport import (
    GroundCost,
    SinkhornConfig,
    TransportPlan,
    default_lambda,
    exact_ot,
    pairwise_distance_matrix,
    sinkhorn_distance,
    wasserstein_barycenter,
)

__all__ = [
    "AmbiguousSpec",
    "ClusterModel",
    "ConvergenceFailure",
    "CopulaHistogram",
    "CoptransError",
    "DegenerateColumn",
    "GroundCost",
    "InfeasibleProjection",
    "InvalidData",
    "InvalidParameter",
    "IoError",
    "ObservationTable",
    "OracleTooLarge",
    "POWER_PATTERNS",
    "ParseError",
    "PowerResult",
    "RankColumn",
    "SinkhornConfig",
    "TFDCSpec",
    "TransportPlan",
    "centroid_report",
    "cluster_copulas",
    "default_lambda",
    "distance_correlation",
    "empirical_copula",
    "empirical_copula_from_data",
    "estimate_power",
    "exact_ot",
    "gen_discontinuity",
    "gen_gaussian_pair",
    "gen_noisy_parabola",
    "gen_power_pattern",
    "generate",
    "load_csv",
    "make_tfdc_coefficient",
    "normal_inverse_cdf",
    "pairwise_distance_matrix",
    "pearson",
    "project_uniform_margins",
    "rank_transform",
    "rdc",
    "read_cop",
    "reference_copula",
    "sinkhorn_distance",
    "spearman",
    "spearman_from_copula",
    "tfdc",
    "tfdc_power_targets",
    "wasserstein_barycenter",
    "write_cop",
    "write_heatmap",
]
