"""Quantile estimators over sorted samples.

Three estimators share this module:

* ``hf7_quantile``: the familiar linear-interpolation sample quantile
  (Hyndman-Fan type 7, the default in R and NumPy).
* ``hd_quantile``: Harrell-Davis: an average of all order statistics
  weighted by a Beta((n+1)p, (n+1)(1-p)) distribution sliced at i/n.
* ``thd_quantile``: trimmed Harrell-Davis: the same construction with the
  beta weight distribution truncated to its highest-density interval, so
  only the order statistics near the target quantile carry weight.  The
  default interval width 1/sqrt(n) keeps the weighted window at O(sqrt(n))
  order statistics.

Harrell-Davis is the trimmed recipe at width 1, whose interval is all of
[0, 1], so one builder makes both.  It solves the interval here, leaves the
loop over its order statistics to one ``weight_window`` call of the
backend's kernels, C or the pure-Python reference (where the C loop's
incomplete beta gives out, the reference's raises its own ArithmeticError),
and returns only the window from the first positive weight to the last,
an array('d'): the scorer an estimate reads, as HF7's is its index and
fraction.  HF7 and the weighted sum are written once, in trimq._kernels_py;
the estimates sum a window over the array('d') a Sample keeps with the
backend's ``weighted_sum``, one C call over the two arrays in the C
backend.  Only ``hd_weights`` / ``thd_weights`` pad the window, to the
n-long tuple of a WeightVector.
"""

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import compress, count, islice

from . import _checks
from ._kernels_py import _estimator
from .backend import kernels as _k
from .hdi import HdiCase, beta_hdi
from .special import BetaParams

__all__ = [
    "Sample",
    "WeightVector",
    "hf7_quantile",
    "hd_weights",
    "hd_quantile",
    "thd_weights",
    "thd_quantile",
]

class Sample:
    """Sorted, finite, non-empty observations.

    Values are sorted at construction by the backend's stable sort, the
    order of sorted(), and kept in one array('d'), a copy of an array('d')
    given, a number past the largest double read as the infinity of its
    sign.  One sum checks that every value is finite: only a sum that is
    not finite, from a value that is not or from finite values that
    overflow it, scans them to name the first that is not.
    presorted=True skips the sort but not a scan for order: it turns
    out-of-order input into a ValueError instead of sorting it.  The
    estimators read the array; ``values``, the sorted values as a tuple of
    floats, is built on first access and kept.
    """

    __slots__ = ("_xs", "_values")

    def __init__(self, values, presorted=False):
        if isinstance(values, (str, bytes, bytearray)):
            raise ValueError("sample values must be a sequence of numbers, "
                             "not %s" % type(values).__name__)
        if isinstance(values, array) and values.typecode == "d":
            vals = array("d", values)
        else:
            if not isinstance(values, (list, tuple)):
                values = list(values)  # read again if float() overflows
            try:
                vals = array("d", map(float, values))
            except OverflowError:
                vals = array("d", map(_extended_float, values))
        if not vals:
            raise ValueError("sample must contain at least one value")
        drop = None
        if presorted:  # the first position below its predecessor, if any
            drops = map(operator.lt, islice(vals, 1, None), vals)
            drop = next(compress(count(1), drops), None)
        if not math.isfinite(sum(vals)):
            for i, v in enumerate(vals):
                if not math.isfinite(v):
                    raise ValueError(
                        "sample values must be finite, got %r at position %d"
                        % (v, i))
                if i == drop:
                    break
        if drop is not None:
            raise ValueError(
                "presorted sample is out of order at position %d" % drop)
        if not presorted:
            _k.sort_floats(vals)
        self._xs = vals
        self._values = None

    @property
    def values(self):
        """The sorted values, a tuple of floats built on first access."""
        if self._values is None:
            self._values = tuple(self._xs)
        return self._values

    @property
    def n(self):
        return len(self._xs)

    def __len__(self):
        return len(self._xs)

    def __repr__(self):
        return "Sample(n=%d, min=%g, max=%g)" % (
            self.n, self._xs[0], self._xs[-1])


def _extended_float(value):
    """float(value), or the infinity of its sign past the largest double."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_sample(sample):
    return sample if isinstance(sample, Sample) else Sample(sample)


@dataclass(frozen=True)
class WeightVector:
    """Per-order-statistic weights summing to 1.

    support_lo/support_hi are the 1-based indices of the first and last
    strictly positive weight; everything outside is exactly 0.
    """

    weights: tuple
    support_lo: int
    support_hi: int

    @property
    def n(self):
        return len(self.weights)


def _hf7(n, p):
    """The HF7 scorer of n sorted values: (j, g), interpolating at
    h = (n-1)p + 1 = j + g (1-based), worked out once per (n, p)."""
    h = (n - 1) * p + 1.0
    j = int(math.floor(h))
    return j, h - j


def _sqrt_width(n):
    """Default trim width: confines the weights to about sqrt(n) order
    statistics."""
    return 1.0 / math.sqrt(n)


def hf7_quantile(sample, p):
    """Linear-interpolation quantile at h = (n-1)p + 1 (1-based)."""
    sample = _as_sample(sample)
    p = _checks.fraction(p, "p")
    return _estimator(_hf7(sample.n, p))(sample._xs)


def _shape_params(n, p):
    return BetaParams((n + 1) * p, (n + 1) * (1.0 - p))


def _check_np(n, p):
    n = _checks.integer(n, "n", 1)
    p = _checks.fraction(p, "p")
    if p == 0.0 or p == 1.0:
        # Beta((n+1)p, (n+1)(1-p)) degenerates at the boundary; quantile
        # callers short-circuit to the sample min/max instead.
        raise ValueError(
            "p=%g puts all weight on a sample extreme; use the sample "
            "minimum/maximum directly" % p)
    return n, p


def _trimmed_weights(n, p, width):
    """The window scorer (lo, ws) of W_i = F(i/n) - F((i-1)/n), F the beta
    CDF truncated to the HDI of `width` and renormalized ([0, 1] at width
    1), for n >= 1 and p in (0, 1): ws, an array('d'), runs from the first
    positive weight, order statistic lo + 1, to the last; every other
    weight is 0."""
    params = _shape_params(n, p)
    hdi = beta_hdi(params, width)
    if hdi.case is HdiCase.DEGENERATE:
        # both shapes <= 1 is only reachable at n=1, where the single
        # observation takes all the mass regardless of trimming
        if n != 1:
            raise AssertionError(
                "degenerate HDI for n=%d, p=%g; expected only at n=1" % (n, p))
        return 0, array("d", (1.0,))
    a, b = params.alpha, params.beta
    lower, upper = hdi.lower, hdi.upper
    cdf_lower = _k.reg_inc_beta(lower, a, b)
    denom = _k.reg_inc_beta(upper, a, b) - cdf_lower
    if not denom > 0.0:
        raise ArithmeticError(
            "no probability mass inside the HDI for alpha=%g beta=%g "
            "width=%g" % (a, b, hdi.width))
    i_lo = max(int(math.floor(lower * n)), 0)
    i_hi = min(int(math.ceil(upper * n)), n)
    window, lo, hi = _k.weight_window(n, i_lo, i_hi, a, b, lower, upper,
                                      cdf_lower, denom)
    if not hi:
        raise ArithmeticError("weight vector vanished entirely")
    return lo - 1, window[lo - 1 - i_lo:hi - i_lo]


def _padded(n, scorer):
    """The n-long WeightVector of the window scorer (lo, ws)."""
    lo, ws = scorer
    return WeightVector((0.0,) * lo + tuple(ws) + (0.0,) * (n - lo - len(ws)),
                        lo + 1, lo + len(ws))


def hd_weights(n, p):
    """Harrell-Davis weights W_i = I_{i/n}(a, b) - I_{(i-1)/n}(a, b) over
    i = 1..n, with (a, b) = ((n+1)p, (n+1)(1-p)): the trimmed recipe of
    thd_weights at width 1, whose interval is all of [0, 1]."""
    n, p = _check_np(n, p)
    return _padded(n, _trimmed_weights(n, p, 1.0))


def hd_quantile(sample, p):
    """Harrell-Davis quantile estimate: thd_quantile at width 1."""
    return thd_quantile(sample, p, 1.0)


def thd_weights(n, p, width):
    """Trimmed weights: the beta weight distribution is truncated to its
    highest-density interval [L, R] of the given width and renormalized.

    Index support follows floor/ceil of the interval endpoints scaled by n:
    nonzero weights live only at positions floor(L*n)+1 .. ceil(R*n).
    """
    n, p = _check_np(n, p)
    return _padded(n, _trimmed_weights(n, p, width))


def thd_quantile(sample, p, width=None):
    """Trimmed Harrell-Davis quantile estimate.

    width=None applies the 1/sqrt(n) default, confining the weighted sum
    to a window of roughly sqrt(n) order statistics.
    """
    sample = _as_sample(sample)
    p = _checks.fraction(p, "p")
    if width is not None:
        # checked here too: p = 0 and p = 1 return before any interval
        width = _checks.fraction(width, "width", "(0, 1]")
    xs = sample._xs
    if p == 0.0:
        return xs[0]
    if p == 1.0:
        return xs[-1]
    n = len(xs)
    if width is None:
        width = _sqrt_width(n)
    lo, ws = _trimmed_weights(n, p, width)
    return _k.weighted_sum(lo, ws, xs)
