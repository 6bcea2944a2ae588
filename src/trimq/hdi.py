"""Highest-density interval of a beta distribution, for a fixed width.

Given shapes (alpha, beta) and a width D, find the interval [L, L+D] that
captures the most probability mass.  For a unimodal density this is the
interval whose endpoint densities balance, so the search reduces to a
one-dimensional root find; the flat and one-sided shapes collapse to
closed-form border cases.
"""

import enum
import math
import warnings
from dataclasses import dataclass

from . import _checks
from .backend import kernels as _k

__all__ = ["HdiCase", "HdiInterval", "beta_mode", "beta_hdi"]

# tolerance for classifying a shape as <= 1 (flat or border-peaked density)
_EPS = 1e-9


class HdiCase(enum.Enum):
    DEGENERATE = "degenerate"
    LEFT_BORDER = "left_border"
    RIGHT_BORDER = "right_border"
    MIDDLE = "middle"
    FULL_RANGE = "full_range"


@dataclass(frozen=True)
class HdiInterval:
    """Interval [lower, upper] with upper stored as lower + width.

    For the DEGENERATE case (both shapes <= 1, density has no interior
    mode structure to exploit) lower, upper, and mode are NaN and the
    caller decides what to do.  FULL_RANGE stores the realized width 1.
    """

    lower: float
    upper: float
    width: float
    mode: float
    case: HdiCase


def _shape_case(a, b):
    """(case, mode) of Beta(a, b) before any width applies.  The case comes
    from the shapes alone: at a ~ 1e7, b just above 1 a MIDDLE mode is 1.0."""
    if a < 1.0 + _EPS and b < 1.0 + _EPS:
        return HdiCase.DEGENERATE, None
    if a < 1.0 + _EPS:
        return HdiCase.LEFT_BORDER, 0.0
    if b < 1.0 + _EPS:
        return HdiCase.RIGHT_BORDER, 1.0
    return HdiCase.MIDDLE, (a - 1.0) / (a + b - 2.0)


def beta_mode(params):
    """Mode of Beta(alpha, beta), or None when the density has no unique
    interior-or-border mode (both shapes <= 1, up to tolerance)."""
    return _shape_case(params.alpha, params.beta)[1]


def _middle_lower(a, b, width, mode):
    lo = max(0.0, mode - width)
    hi = min(mode, 1.0 - width)
    g_lo = _k.beta_pdf(lo, a, b) - _k.beta_pdf(lo + width, a, b)
    g_hi = _k.beta_pdf(hi, a, b) - _k.beta_pdf(hi + width, a, b)
    if (g_lo > 0.0 and g_hi > 0.0) or (g_lo < 0.0 and g_hi < 0.0):
        # Floating-point degeneracy at extreme shapes can leave both bracket
        # ends on the same side of the root.  Fall back to whichever end
        # encloses more mass instead of aborting the estimation.
        mass_lo = (_k.reg_inc_beta(lo + width, a, b) - _k.reg_inc_beta(lo, a, b))
        mass_hi = (_k.reg_inc_beta(hi + width, a, b) - _k.reg_inc_beta(hi, a, b))
        pick = lo if mass_lo >= mass_hi else hi
        warnings.warn(
            "HDI bracket endpoints have the same sign for alpha=%g beta=%g "
            "width=%g; using bracket endpoint %g with enclosed mass %g"
            % (a, b, width, pick, max(mass_lo, mass_hi)),
            RuntimeWarning, stacklevel=3)
        return pick
    return _k.hdi_middle_lower(a, b, width, lo, hi)


def beta_hdi(params, width):
    """Highest-density interval of width `width` for Beta(params).

    Case logic, with shapes compared to 1 at tolerance 1e-9:
    both <= 1 -> DEGENERATE (NaN bounds); only alpha <= 1 -> [0, width];
    only beta <= 1 -> [1-width, 1]; width > 1 - 1e-9 -> [0, 1] FULL_RANGE;
    otherwise the unique interior interval with balanced endpoint densities.
    """
    width = _checks.fraction(width, "width", "(0, 1]")
    a = params.alpha
    b = params.beta
    case, mode = _shape_case(a, b)
    if case is HdiCase.DEGENERATE:
        return HdiInterval(math.nan, math.nan, width, math.nan, case)
    if case is HdiCase.LEFT_BORDER:
        return HdiInterval(0.0, width, width, mode, case)
    if case is HdiCase.RIGHT_BORDER:
        lower = 1.0 - width
        return HdiInterval(lower, lower + width, width, mode, case)
    if width > 1.0 - _EPS:
        return HdiInterval(0.0, 1.0, 1.0, mode, HdiCase.FULL_RANGE)
    lower = _middle_lower(a, b, width, mode)
    return HdiInterval(lower, lower + width, width, mode, HdiCase.MIDDLE)
