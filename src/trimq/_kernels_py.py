"""Pure-Python numeric kernels: the reference every backend matches bit for
bit, and the backend trimq.backend falls back to when the C kernels of
trimq._kernels_c cannot be built.

Each kernel is the plain algorithm: the C file, trimq/_kernels_c.c, ports
the incomplete beta, the weight loop, the closed-form families' quantile
formulas, the uniforms of a simulation batch's streams, the sort and
scoring of a piece of simulation samples, the weighted sum of a window,
and the parse (of plain ASCII decimal input; its exact fast paths return
float()'s double) and sort of `trimq estimate`'s numbers from here statement
for statement, and is the only place that adds speed.  Its Beta and Student
t inversions keep the bits of the bisection here, not its statements: they
decide the comparisons cdf(mid) < p that a certified band settles without
evaluating the CDF, the band's ends keeping from p a margin of at least
twice a stated bound on the computed CDF's error (relative to min(p, 1 - p)
in the tails), and bisect as here where that bound is not stated (see the C
file's header).  HF7 and the weighted sum are written here once, over the
scorer data of piece_errors; the simulation's callables run them through
_estimator, and the public estimators call weighted_sum, a kernel of both
backends.  Both modules export the same names;
the C backend takes the kernels it does not port from here, and hands every
case its own code gives back to the namesake kernel here, so both backends
raise the same errors.  The only caches are the two normalizers per shape
pair.

The normal quantile of the Normal and LogNormal formulas of
closed_quantiles is the standard library's ``statistics.NormalDist.inv_cdf``,
Wichura's PPND16; the C file holds a copy of CPython 3.11's C version of
it, which gives the same bits.  The contaminated normal's variates call
the standard library's directly.

Arguments are assumed pre-validated by the public wrappers in trimq.special
and friends.
"""

import functools
import io
import math
import operator
import sys
from array import array

__all__ = ["batch_uniforms", "beta_pdf", "beta_quantiles", "closed_quantiles",
           "log_beta", "log_gamma", "mix_seed", "parse_floats",
           "piece_errors", "reg_inc_beta", "sort_floats", "stream_uniforms",
           "student_quantiles", "weight_window", "weighted_sum"]

# ln(2*pi)/2
_HALF_LN_TWO_PI = 0.9189385332046727

# Stirling series coefficients for ln Gamma: B_{2k} / (2k(2k-1))
_S1 = 1.0 / 12.0
_S2 = -1.0 / 360.0
_S3 = 1.0 / 1260.0
_S4 = -1.0 / 1680.0
_S5 = 1.0 / 1188.0
_S6 = -691.0 / 360360.0
_S7 = 1.0 / 156.0
_S8 = -3617.0 / 122400.0

# continued-fraction controls for the regularized incomplete beta
_MAX_ITER = 300
_CF_TOL = 1e-14
_FPMIN = 1e-300

# shape pairs whose normalizers are kept, for beta_pdf and the incomplete
# beta: the HDI solve, a weight vector and a bisection each hold one pair
# fixed for all of their calls, and each simulation worker process fills
# its own
_SHAPE_CACHE = 64


def log_gamma(x):
    """ln Gamma(x) for x > 0 via the Stirling series.

    Arguments below 10 are lifted with the recurrence
    Gamma(x) = Gamma(x + k) / (x (x+1) ... (x+k-1)).
    """
    prod = 1.0
    y = x
    while y < 10.0:
        prod *= y
        y += 1.0
    r = 1.0 / y
    r2 = r * r
    s = _S8
    s = s * r2 + _S7
    s = s * r2 + _S6
    s = s * r2 + _S5
    s = s * r2 + _S4
    s = s * r2 + _S3
    s = s * r2 + _S2
    s = s * r2 + _S1
    s = s * r
    out = (y - 0.5) * math.log(y) - y + _HALF_LN_TWO_PI + s
    if prod != 1.0:
        out -= math.log(prod)
    return out


def log_beta(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


# the density's normalizer, computed once per shape pair
_log_beta_cached = functools.lru_cache(maxsize=_SHAPE_CACHE)(log_beta)


def beta_pdf(x, a, b):
    """Beta density at x in [0, 1], evaluated in log space.  A density past
    the largest double raises ArithmeticError, as the incomplete beta's
    exp(front) does, and so does a log density that is NaN (ln B(a, b)
    where a + b overflows)."""
    if x == 0.0 or x == 1.0:
        shape = a if x == 0.0 else b
        if shape > 1.0:
            return 0.0
        if shape < 1.0:
            return math.inf
        log_pdf = -_log_beta_cached(a, b)
    else:
        log_pdf = ((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
                   - _log_beta_cached(a, b))
    if log_pdf != log_pdf:
        raise ArithmeticError("beta density is not a number (a=%g, b=%g, "
                              "x=%r)" % (a, b, x))
    try:
        return math.exp(log_pdf)
    except OverflowError:
        raise ArithmeticError("beta density overflows (a=%g, b=%g, x=%r)"
                              % (a, b, x)) from None


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _log_norm(a, b):
    """ln(1 / B(a, b)), the incomplete beta's normalizer, computed once per
    shape pair."""
    # subtracted in this order; -log_beta(a, b) rounds differently for
    # about half of all shape pairs
    return log_gamma(a + b) - log_gamma(a) - log_gamma(b)


def _beta_cont_frac(a, b, x, max_iter):
    """Continued-fraction factor of I_x(a, b), by the modified Lentz
    recurrence over at most `max_iter` terms.  Term m is
    m (b - m) x / ((a - 1 + 2m)(a + 2m)), then
    -(a + m)(a + b + m) x / ((a + 2m)(a + 1 + 2m))."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if -_FPMIN < d < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in map(float, range(1, max_iter + 1)):
        m2 = m + m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -_CF_TOL < delta - 1.0 < _CF_TOL:
            return h
    raise ArithmeticError(
        "incomplete beta continued fraction did not converge "
        "(a=%g, b=%g, x=%r)" % (a, b, x))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1].

    The continued fraction runs at most _MAX_ITER terms, read at call
    time.  An exp(front) past the largest double raises ArithmeticError,
    as a fraction that does not converge does.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = _log_norm(a, b) + a * math.log(x) + b * math.log1p(-x)
    try:
        scale = math.exp(front)
    except OverflowError:
        raise ArithmeticError(
            "incomplete beta overflows (a=%g, b=%g, x=%r)"
            % (a, b, x)) from None
    # the continued fraction converges fast only below the mean;
    # above it, use I_x(a,b) = 1 - I_{1-x}(b,a)
    if x < (a + 1.0) / (a + b + 2.0):
        return scale * _beta_cont_frac(a, b, x, _MAX_ITER) / a
    return 1.0 - scale * _beta_cont_frac(b, a, 1.0 - x, _MAX_ITER) / b


def weight_window(n, i_lo, i_hi, a, b, lower, upper, cdf_lower, denom):
    """The weights of order statistics i_lo + 1 .. i_hi of a sample of n,
    with the 1-based indices of the first and last positive one (0, 0 when
    none is): W_i = F(i/n) - F((i-1)/n), F the Beta(a, b) CDF truncated to
    [lower, upper], F(x) = (I_x(a, b) - cdf_lower) / denom clamped to
    [0, 1].  A difference that is not positive is written as 0.0."""
    window = []
    prev = None
    lo = hi = 0
    # F inline, clamped by branches: a call per index slows the width-1 path
    for i in range(i_lo, i_hi + 1):
        x = i / n
        if x <= lower:
            cur = 0.0
        elif x >= upper:
            cur = 1.0
        else:
            cur = (reg_inc_beta(x, a, b) - cdf_lower) / denom
            if cur < 0.0:
                cur = 0.0
            elif cur > 1.0:
                cur = 1.0
        if prev is not None:
            w = cur - prev
            if w > 0.0:
                window.append(w)
                lo = lo or i
                hi = i
            else:
                window.append(0.0)
        prev = cur
    return window, lo, hi


_DBL_MAX = sys.float_info.max
_ROOT_DBL_MAX = math.sqrt(_DBL_MAX)


def _bisect_cdf(cdf, p, lo, hi):
    """The point where bisection of [lo, hi] toward cdf(t) = p stops, for
    cdf(lo) < p <= cdf(hi).  A midpoint whose sum overflows, between ends
    near the largest double, is taken from the halves."""
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if math.isinf(mid):
            mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= 1e-12 + 1e-12 * abs(mid) or mid <= lo or mid >= hi:
            return mid
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _invert_unbounded(cdf, p):
    """The quantile of p of a CDF on the real line: each end of [-1, 1]
    doubles until the bracket holds p, then bisection.  An end whose next
    doubling would be infinite takes the largest double instead, once;
    past it the expansion fails, as it does on a CDF that reads NaN at
    every end."""
    lo, hi = -1.0, 1.0
    while not cdf(lo) < p:
        if lo == -_DBL_MAX:
            raise ArithmeticError(
                "quantile bracket expansion failed (low side)")
        lo = max(2.0 * lo, -_DBL_MAX)
    while not cdf(hi) >= p:
        if hi == _DBL_MAX:
            raise ArithmeticError(
                "quantile bracket expansion failed (high side)")
        hi = min(2.0 * hi, _DBL_MAX)
    return _bisect_cdf(cdf, p, lo, hi)


def beta_quantiles(ps, a, b):
    """[the Beta(a, b) quantile of p for p in ps], each bisected on
    [0, 1]."""
    def cdf(x):
        return reg_inc_beta(x, a, b)
    return [_bisect_cdf(cdf, p, 0.0, 1.0) for p in ps]


def student_quantiles(ps, df):
    """[the Student t quantile of p at df degrees of freedom for p in ps],
    through the incomplete beta: the tail beyond |t| is
    I_{df / (df + t^2)}(df / 2, 1 / 2) / 2.  Past |t| = sqrt of the largest
    double, t * t overflows and the CDF saturates, so a p outside the CDF
    values there raises ArithmeticError."""
    a = 0.5 * df

    def cdf(t):
        tail = 0.5 * reg_inc_beta(df / (df + t * t), a, 0.5)
        return 1.0 - tail if t >= 0.0 else tail
    if not ps:
        return []
    low, high = cdf(-_ROOT_DBL_MAX), cdf(_ROOT_DBL_MAX)
    out = []
    for p in ps:
        if not low <= p <= high:
            raise ArithmeticError("Student t quantile overflows (df=%g, p=%r)"
                                  % (df, p))
        out.append(_invert_unbounded(cdf, p))
    return out


# Each closed-form family's quantile function of one p, from the family's
# parameters in the order of its factory's signature in
# trimq.distributions, with what does not depend on p worked out once.
# The C port numbers the families in the order of _CLOSED.

def _uniform(a, b):
    span = b - a
    return lambda p: a + span * p


def _triangular(a, b, c):
    ba, ca, bc = b - a, c - a, b - c
    split = ca / ba
    return lambda p: (a + math.sqrt(p * ba * ca) if p < split
                      else b - math.sqrt((1.0 - p) * ba * bc))


def _normal(m, sd):
    # imported here so that `import trimq` does not load statistics
    from statistics import NormalDist
    return NormalDist(m, sd).inv_cdf


def _lognormal(mlog, sdlog):
    inv_cdf = _normal(mlog, sdlog)
    return lambda p: math.exp(inv_cdf(p))


def _weibull(scale, shape):
    power = 1.0 / shape
    return lambda p: scale * (-math.log1p(-p)) ** power


def _gumbel(loc, scale):
    return lambda p: loc - scale * math.log(-math.log(p))


def _exp(rate):
    return lambda p: -math.log1p(-p) / rate


def _cauchy(x0, gamma):
    return lambda p: x0 + gamma * math.tan(math.pi * (p - 0.5))


def _pareto(loc, shape):
    power = -1.0 / shape
    return lambda p: loc * (1.0 - p) ** power


def _frechet(shape):
    power = -1.0 / shape
    return lambda p: (-math.log(p)) ** power


_CLOSED = {"Uniform": _uniform, "Triangular": _triangular, "Normal": _normal,
           "LogNormal": _lognormal, "Weibull": _weibull, "Gumbel": _gumbel,
           "Exp": _exp, "Cauchy": _cauchy, "Pareto": _pareto,
           "Frechet": _frechet}


def closed_quantiles(kind, params, ps):
    """The quantiles of the p of ps under the closed-form family `kind`, a
    key of _CLOSED, at the parameters `params`, in an array('d') that stops
    before the first p whose quantile is not finite: math.exp or **
    raising OverflowError, or arithmetic giving an infinity or a NaN."""
    q = _CLOSED[kind](*params)
    out = array("d")
    for p in ps:
        try:
            x = q(p)
        except OverflowError:
            break
        if not math.isfinite(x):
            break
        out.append(x)
    return out


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BELOW_ONE = 1.0 - 2.0 ** -53
_FNV_OFFSET = 0xCBF29CE484222325


def fnv1a64(text, h=_FNV_OFFSET):
    """FNV-1a 64-bit hash of a string, for deriving stream ids from labels.

    The hash is a left fold over the UTF-8 bytes that starts from `h`, the
    offset basis unless given.  Starting from the hash of a prefix
    continues it: fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
    """
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _M64
    return h


def _mix64(z):
    # 64-bit finalizer; full avalanche, bijective
    z ^= z >> 33
    z = (z * 0xFF51AFD7ED558CCD) & _M64
    z ^= z >> 33
    z = (z * 0xC4CEB9FE1A85EC53) & _M64
    z ^= z >> 33
    return z


def mix_seed(seed):
    """The seed's share of the starting state of each of its streams; seed
    must already be masked to 64 bits."""
    return _mix64(seed)


def stream_uniforms(seed_mix, stream_id, start, count):
    """`count` uniforms from the (seed, stream_id) stream, skipping `start`,
    for seed_mix = mix_seed(seed).

    Counter-based SplitMix64: draw k is a pure function of (seed, stream_id,
    k), so any subsequence can be regenerated without replaying the stream.
    Values lie strictly inside (0, 1).  stream_id must already be masked to
    64 bits.  The seed's share, mix_seed(seed), is the same for every stream
    of a seed, so a caller that draws many streams of one seed mixes it
    once.
    """
    s0 = seed_mix ^ _mix64((stream_id ^ _GOLDEN) & _M64)
    state = (s0 + start * _GOLDEN) & _M64
    out = []
    for _ in range(count):
        state = (state + _GOLDEN) & _M64
        z = state
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _M64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
        out.append(((z >> 11) + 0.5) * 1.1102230246251565e-16)
    if 1.0 in out:
        # z >> 11 == 2**53 - 1 rounds up to 1.0; it takes the largest
        # double below 1, and every other draw keeps its bits
        out = [u if u < 1.0 else _BELOW_ONE for u in out]
    return out


def batch_uniforms(seed_mix, batch_hash, first, count, per_sample):
    """The `per_sample` uniforms of stream fnv1a64("%d" % s, batch_hash) of
    the seed, for s = first .. first + count - 1, in one array('d'), for
    seed_mix = mix_seed(seed) and batch_hash in [0, 2**64): the draws of
    `count` consecutive samples of one simulation batch."""
    out = array("d")
    for s in range(first, first + count):
        out.fromlist(stream_uniforms(seed_mix, fnv1a64("%d" % s, batch_hash),
                                     0, per_sample))
    return out


def _hf7(j, g, xs):
    """HF7 over the sorted xs: linear interpolation between the 1-based
    order statistics j and j + 1 at fraction g; the largest value when
    j >= len(xs)."""
    if j >= len(xs):
        return xs[-1]
    lo = xs[j - 1]
    step = xs[j] - lo
    if step < math.inf:
        return lo + g * step
    # the gap overflows: weigh the two ends instead
    return (1.0 - g) * lo + g * xs[j]


def weighted_sum(lo, ws, xs):
    """The correctly rounded sum of ws[k] times xs[lo + k], the sorted xs'
    order statistic lo + k + 1."""
    return math.fsum(map(operator.mul, ws, xs[lo:lo + len(ws)]))


def _estimator(scorer):
    """The estimate that `scorer` defines, as a callable over sorted values
    (see piece_errors); a callable scorer is returned as it is."""
    if callable(scorer):
        return scorer
    at, coef = scorer
    formula = weighted_sum if isinstance(coef, tuple) else _hf7
    return functools.partial(formula, at, coef)


def parse_floats(data):
    """The numbers of the whitespace-separated tokens of `data`, UTF-8
    bytes read as a text file is (universal newlines, strict decoding, its
    UnicodeDecodeError a ValueError), in an array('d').  A token that
    float() rejects, or reads as infinite or NaN, raises ValueError naming
    it and its line."""
    values = []
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    for lineno, line in enumerate(lines, 1):
        for token in line.split():
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    "non-numeric token %r on line %d" % (token, lineno))
            values.append(value)
    return array("d", values)


def sort_floats(xs):
    """Sort the array('d') `xs` in place, in ascending order, equal values
    keeping their order: the order of sorted()."""
    xs[:] = array("d", sorted(xs))


def piece_errors(values, n, theta, scorers):
    """Per scorer, the squared errors (estimate - theta) ** 2 of the samples
    of `values`, in sample order: sample i is values[i * n:(i + 1) * n],
    sorted.

    A scorer is the data of one estimate over n sorted values: (j, g), HF7
    between the 1-based order statistics j and j + 1 at fraction g, the
    largest value when j >= n; (lo, ws), ws a tuple, the correctly rounded
    sum of ws[k] times order statistic lo + k + 1; or a callable over the
    sorted values.
    """
    out = [[] for _ in scorers]
    pairs = [(errs.append, _estimator(scorer))
             for errs, scorer in zip(out, scorers)]
    for i in range(0, len(values), n):
        xs = sorted(values[i:i + n])
        for add, est in pairs:
            err = est(xs) - theta
            add(err * err)
    return out
