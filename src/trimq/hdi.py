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
    from the shapes alone: at a ~ 1e7, b just above 1 a MIDDLE mode is 1.0,
    and at a ~ 1e16 its quotient can round above 1, so it is clamped."""
    if a < 1.0 + _EPS and b < 1.0 + _EPS:
        return HdiCase.DEGENERATE, None
    if a < 1.0 + _EPS:
        return HdiCase.LEFT_BORDER, 0.0
    if b < 1.0 + _EPS:
        return HdiCase.RIGHT_BORDER, 1.0
    # halved, which is exact for shapes above 1, so that a + b cannot
    # overflow
    return HdiCase.MIDDLE, min(1.0,
                               (0.5 * a - 0.5) / (0.5 * a + 0.5 * b - 1.0))


def beta_mode(params):
    """Mode of Beta(alpha, beta), or None when the density has no unique
    interior-or-border mode (both shapes <= 1, up to tolerance)."""
    return _shape_case(params.alpha, params.beta)[1]


def _middle_lower(a, b, width, mode):
    """Lower endpoint of the middle-case HDI: the root of
    gap(t) = pdf(t) - pdf(t + width) on the bracket
    [max(0, mode - width), min(mode, 1 - width)].

    The gap is monotone on that bracket (increasing density left of the
    mode, decreasing right of it), so plain bisection is safe.  The bracket
    is bisected until it collapses to machine resolution: when the root
    hugs an endpoint where the density has unbounded slope, any fixed
    absolute tolerance in t leaves the endpoint densities visibly unequal.
    """
    pdf = _k.beta_pdf

    def gap(t):
        return pdf(t, a, b) - pdf(t + width, a, b)

    lo = max(0.0, mode - width)
    hi = min(mode, 1.0 - width)
    if lo == hi:  # the only feasible lower end, whatever the gap's signs
        return lo
    g_lo = gap(lo)
    g_hi = gap(hi)
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    # the true root can fall between adjacent doubles; of the surviving
    # bracket, return the point whose endpoint densities agree best, the
    # first of midpoint, lo and hi on a tie
    return min((0.5 * (lo + hi), lo, hi), key=lambda t: abs(gap(t)))


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
