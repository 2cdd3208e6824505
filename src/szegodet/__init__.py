"""Szego-type determinant asymptotics on Jordan curves.

Curves enter through exterior-map Laurent data; the library computes
Grunsky tables, the operators B and K with the singular values and the
Takagi factorization of B, closed-form asymptotic predictions, direct
quadrature determinants at finite n, and Monte Carlo beta-ensemble probes.
"""

from .errors import SzegoError
from .series import (
    ExteriorMap,
    curve_samples,
    dilate_map,
    eval_map,
    make_map,
)
from .grunsky import (
    GrunskyTable,
    OperatorPair,
    SpectralReport,
    TakagiFactor,
    dilated_table,
    grunsky_coefficients,
    grunsky_coefficients_sampled,
    operators,
    spectral_report,
    takagi,
)
from .symbol import (
    FourierSymbol,
    GVector,
    d_vector,
    g_vector,
    sobolev_half_norm,
    symbol_from_coefficients,
    symbol_from_theta_samples,
    theta_values,
    zero_symbol,
)
from .predict import (
    PredictionBreakdown,
    predict_beta_log,
    predict_log_Dn,
    predict_log_Zn,
    predict_quotient,
    predict_range,
    suggest_truncation,
    zn_beta_circle,
)
from .direct import (
    ConvexityReport,
    DirectResult,
    EnergyCurve,
    bruteforce_Dn,
    convexity_check,
    finite_energy,
    log_det_Dn,
    log_det_range,
    quotient_ratio,
)
from .mcbeta import (
    BetaEstimate,
    ChainConfig,
    estimate_ratio,
    merge_estimates,
    sample_circular_beta,
)

__version__ = "0.1.0"
