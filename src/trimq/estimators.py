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
[0, 1], so one builder makes both weight vectors.  They are exposed
(``hd_weights`` / ``thd_weights``) for reuse across samples of one size.
"""

import math
import operator
from dataclasses import dataclass

from . import _checks
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

    Values are sorted at construction.  Pass presorted=True to skip the
    sort when order is already guaranteed; the guarantee is still verified
    (a linear scan, against a quadratic surprise later).
    """

    __slots__ = ("values",)

    def __init__(self, values, presorted=False):
        vals = [float(v) for v in values]
        if not vals:
            raise ValueError("sample must contain at least one value")
        prev = -math.inf
        ascending = True
        for i, v in enumerate(vals):
            if not math.isfinite(v):
                raise ValueError(
                    "sample values must be finite, got %r at position %d"
                    % (v, i))
            if v < prev:
                ascending = False
                if presorted:
                    raise ValueError(
                        "presorted sample is out of order at position %d" % i)
            prev = v
        if not ascending:
            vals.sort()
        self.values = tuple(vals)

    @property
    def n(self):
        return len(self.values)

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return "Sample(n=%d, min=%g, max=%g)" % (
            self.n, self.values[0], self.values[-1])


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
    """HF7 over n sorted values as a callable: linear interpolation at
    h = (n-1)p + 1 (1-based), with the index and fraction fixed here."""
    h = (n - 1) * p + 1.0
    j = int(math.floor(h))
    if j >= n:
        return lambda xs: xs[n - 1]
    g = h - j

    def est(xs):
        lo = xs[j - 1]
        return lo + g * (xs[j] - lo)

    return est


def _weighted_sum(wv):
    """The estimate that WeightVector `wv` defines, as a callable over n
    sorted values: the correctly rounded sum of weight times value over the
    support.  Weights outside it are exactly 0 and are skipped."""
    lo = wv.support_lo - 1
    hi = wv.support_hi
    ws = wv.weights[lo:hi]
    mul = operator.mul
    return lambda xs: math.fsum(map(mul, ws, xs[lo:hi]))


def _sqrt_width(n):
    """Default trim width: confines the weights to about sqrt(n) order
    statistics."""
    return 1.0 / math.sqrt(n)


def hf7_quantile(sample, p):
    """Linear-interpolation quantile at h = (n-1)p + 1 (1-based)."""
    sample = _as_sample(sample)
    p = _checks.fraction(p, "p")
    return _hf7(sample.n, p)(sample.values)


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
    """The one weight builder behind hd_weights and thd_weights, for (n, p)
    validated by _check_np: W_i = F(i/n) - F((i-1)/n), F the beta CDF
    truncated to the HDI of `width` and renormalized ([0, 1] at width 1)."""
    params = _shape_params(n, p)
    hdi = beta_hdi(params, width)
    if hdi.case is HdiCase.DEGENERATE:
        # both shapes <= 1 is only reachable at n=1, where the single
        # observation takes all the mass regardless of trimming
        if n != 1:
            raise AssertionError(
                "degenerate HDI for n=%d, p=%g; expected only at n=1" % (n, p))
        return WeightVector((1.0,), 1, 1)
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
    weights = [0.0] * n
    prev = None
    lo = hi = 0  # 1-based support, tracked as the weights are written
    # F inline, clamped by branches: a call per index slows the width-1 path
    for i in range(i_lo, i_hi + 1):
        x = i / n
        if x <= lower:
            cur = 0.0
        elif x >= upper:
            cur = 1.0
        else:
            cur = (_k.reg_inc_beta(x, a, b) - cdf_lower) / denom
            if cur < 0.0:
                cur = 0.0
            elif cur > 1.0:
                cur = 1.0
        if prev is not None:
            w = cur - prev
            if w > 0.0:
                weights[i - 1] = w
                lo = lo or i
                hi = i
        prev = cur
    if not hi:
        raise ArithmeticError("weight vector vanished entirely")
    return WeightVector(tuple(weights), lo, hi)


def hd_weights(n, p):
    """Harrell-Davis weights W_i = I_{i/n}(a, b) - I_{(i-1)/n}(a, b) over
    i = 1..n, with (a, b) = ((n+1)p, (n+1)(1-p)): the trimmed recipe of
    thd_weights at width 1, whose interval is all of [0, 1]."""
    n, p = _check_np(n, p)
    return _trimmed_weights(n, p, 1.0)


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
    return _trimmed_weights(n, p, width)


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
    x = sample.values
    if p == 0.0:
        return x[0]
    if p == 1.0:
        return x[-1]
    n = len(x)
    if width is None:
        width = _sqrt_width(n)
    return _weighted_sum(thd_weights(n, p, width))(x)
