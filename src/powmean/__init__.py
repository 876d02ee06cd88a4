"""Two-matrix power means, the order-inequality sufficiency region, and
certified counterexamples outside it.

The package is organized as a small numpy library:

* ``core``            symmetric matrix algebra, spectral functions, Loewner order
* ``means``           power / log-Euclidean means and map-composed forms
* ``maps``            unital positive linear maps (Kraus, compression, pinching)
* ``region``          the exact sufficiency region and its classifier
* ``expansions``      divided differences, Frechet derivatives, determinant
                      coefficients, Richardson oracle
* ``counterexamples`` certified witnesses for every exponent pair outside
                      the region
* ``fuzz``            seeded randomized property suites
* ``cli``             the ``powmean`` command-line front end
"""

from .core import (
    OrderVerdict,
    SpectralDecomposition,
    eig_sym,
    loewner_leq,
    mat_fun,
    random_pd,
    symmetrize,
)
from .counterexamples import (
    CERT_TOL,
    CHOI_MATRIX,
    Witness,
    choi_sign_table,
    find_counterexample,
    pd_rotation_difference,
    pd_rotation_pair,
    rank_one_difference,
    rank_one_pair,
)
from .errors import (
    DegenerateFrameError,
    DimensionMismatchError,
    DomainError,
    InRegionError,
    IndexOutOfRangeError,
    NonConvergenceError,
    NotUnitalError,
    PowerMeanError,
    PreconditionError,
    SearchExhaustedError,
)
from .expansions import (
    DetCoefficientBreakdown,
    ExpansionCoefficients,
    alpha_log,
    alpha_power,
    det_coeff_log_pair,
    det_coeff_power_pair,
    det_coeff_rank_one,
    divided_diff_1,
    divided_diff_2,
    frechet_d1,
    frechet_d2,
    numeric_det_coeff,
    rank_one_remainder_orders,
)
from .functions import EXP, LOG, Exp, Log, Power
from .maps import (
    LinearMatrixMap,
    apply_power_affine_2x2,
    block_average,
    compression,
    identity_map,
    kraus_map,
    plane_rotation,
    random_kraus_map,
    rotated_pinch,
)
from .means import (
    limit_slope_check,
    map_power,
    normalize_exponent,
    power_mean,
    power_mean_gap,
    scalar_power_mean,
)
from .region import Case, CaseLabel, classify, dual, in_sufficient_region

__version__ = "0.1.0"

__all__ = [
    "CERT_TOL",
    "CHOI_MATRIX",
    "Case",
    "CaseLabel",
    "DegenerateFrameError",
    "DetCoefficientBreakdown",
    "DimensionMismatchError",
    "DomainError",
    "EXP",
    "Exp",
    "ExpansionCoefficients",
    "InRegionError",
    "IndexOutOfRangeError",
    "LOG",
    "LinearMatrixMap",
    "Log",
    "NonConvergenceError",
    "NotUnitalError",
    "OrderVerdict",
    "Power",
    "PowerMeanError",
    "PreconditionError",
    "SearchExhaustedError",
    "SpectralDecomposition",
    "Witness",
    "alpha_log",
    "alpha_power",
    "apply_power_affine_2x2",
    "block_average",
    "choi_sign_table",
    "classify",
    "compression",
    "det_coeff_log_pair",
    "det_coeff_power_pair",
    "det_coeff_rank_one",
    "divided_diff_1",
    "divided_diff_2",
    "dual",
    "eig_sym",
    "find_counterexample",
    "frechet_d1",
    "frechet_d2",
    "identity_map",
    "in_sufficient_region",
    "kraus_map",
    "limit_slope_check",
    "loewner_leq",
    "map_power",
    "mat_fun",
    "normalize_exponent",
    "numeric_det_coeff",
    "pd_rotation_difference",
    "pd_rotation_pair",
    "plane_rotation",
    "power_mean",
    "power_mean_gap",
    "random_kraus_map",
    "random_pd",
    "rank_one_difference",
    "rank_one_remainder_orders",
    "rank_one_pair",
    "rotated_pinch",
    "scalar_power_mean",
    "symmetrize",
]
