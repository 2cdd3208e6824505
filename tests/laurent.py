"""Truncated Laurent-series arithmetic, for the test references.

The library stores a curve only as the finite Laurent data of its
exterior map and never multiplies series; ``test_grunsky.faber_reference``
builds the Faber polynomials from these products as an independent check
of the recurrence.
"""

from dataclasses import dataclass

import numpy as np

from szegodet.errors import SzegoError
from szegodet.series import _readonly


class MismatchedTruncation(SzegoError):
    """Laurent series operands carry different truncation orders."""


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent polynomial sum_{k=-M}^{L} c_k z^k.

    ``coeffs[0]`` is the coefficient of ``z**lead_degree`` and the entries
    run downward to ``z**(-trunc_order)``.  Arithmetic stays closed under
    the fixed truncation order M: products drop everything below z**(-M).
    """

    lead_degree: int
    coeffs: np.ndarray
    trunc_order: int

    def __post_init__(self):
        coeffs = _readonly(self.coeffs)
        if len(coeffs) != self.lead_degree + self.trunc_order + 1:
            raise ValueError(
                "coeffs must have lead_degree + trunc_order + 1 entries, "
                f"got {len(coeffs)} for lead {self.lead_degree}, M {self.trunc_order}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, power: int) -> complex:
        """Coefficient of z**power (zero outside the stored window)."""
        idx = self.lead_degree - power
        if idx < 0 or idx >= len(self.coeffs):
            return 0.0 + 0.0j
        return complex(self.coeffs[idx])


def laurent_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product truncated below z**(-M).

    Both operands must share the truncation order M; positive powers are
    kept in full.
    """
    if a.trunc_order != b.trunc_order:
        raise MismatchedTruncation(
            f"truncation orders differ: {a.trunc_order} != {b.trunc_order}"
        )
    lead = a.lead_degree + b.lead_degree
    full = np.convolve(a.coeffs, b.coeffs)
    keep = lead + a.trunc_order + 1
    return LaurentSeries(lead, full[:keep], a.trunc_order)
