"""Szego-type determinant asymptotics on Jordan curves.

Curves enter through exterior-map Laurent data; the library computes
Grunsky tables, the operators B and K with the largest singular value and
the Takagi factorization of B, the Fredholm determinant det(I - B*B),
the strong Szego prediction for log D_n and the partition function,
direct quadrature determinants at finite n, dilation energies, and Monte
Carlo beta-ensemble estimates.

Every export is used by another module of the package, except the API
kept for the paper's quantities and the curve model that the README lists
under "Library API".
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
    grunsky_coefficients,
    operators,
    spectral_report,
    takagi,
)
from .symbol import (
    FourierSymbol,
    g_vector,
    symbol_from_coefficients,
    symbol_from_theta_samples,
    theta_values,
    zero_symbol,
)
from .predict import (
    PredictionBreakdown,
    predict_log_Dn,
    predict_log_Zn,
    predict_range,
    suggest_truncation,
    zn_beta_circle,
)
from .direct import (
    ConvexityReport,
    DirectResult,
    EnergyCurve,
    convexity_check,
    finite_energy,
    log_det_Dn,
    log_det_range,
)
from .mcbeta import (
    BetaEstimate,
    ChainConfig,
    estimate_ratio,
)

__version__ = "0.1.0"
