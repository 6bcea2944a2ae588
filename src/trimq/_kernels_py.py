"""Pure-Python numeric kernels: the reference every backend matches bit for
bit, and the backend trimq.backend falls back to when the C kernels of
trimq._kernels_c cannot be built.  The C backend takes the kernels it does
not port from here, and asks the incomplete beta or the weight loop,
``weight_window``, here whenever its own code gives a case back, so both
backends raise the same errors.

The normal quantile is not here: the Normal, LogNormal and contaminated
normal families draw through the standard library's
``statistics.NormalDist.inv_cdf``, the same PPND16 algorithm.

Arguments are assumed pre-validated by the public wrappers in trimq.special
and friends.
"""

import functools
import math

__all__ = ["beta_pdf", "log_beta", "log_gamma", "mix_seed", "reg_inc_beta",
           "stream_uniforms", "weight_window"]

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

# shape pairs whose density normalizer is kept, for beta_pdf: the HDI solve
# holds one pair fixed for all of its calls, and each simulation worker
# process fills its own
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
    """Beta density at x in [0, 1], evaluated in log space."""
    if x == 0.0:
        if a > 1.0:
            return 0.0
        if a == 1.0:
            return math.exp(-_log_beta_cached(a, b))
        return math.inf
    if x == 1.0:
        if b > 1.0:
            return 0.0
        if b == 1.0:
            return math.exp(-_log_beta_cached(a, b))
        return math.inf
    return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
                    - _log_beta_cached(a, b))


# shape pairs whose incomplete-beta records are kept: a bisection or a
# weight vector holds one pair fixed, alternating between its fraction and
# the reflected one, and a simulation cell uses two pairs, its weights' and
# its Beta or Student spec's
_TERMS_CACHE = 2


def _lentz_terms(a, b, count):
    """The first `count` x-free factors (n1, d1, n2, d2) of the Lentz terms
    of shape pair (a, b).  Term m of the fraction is n1 * x / d1, then
    n2 * x / d2, with n1 = m (b - m), d1 = (a - 1 + 2m)(a + 2m),
    n2 = -(a + m)(a + b + m) and d2 = (a + 2m)(a + 1 + 2m).  A term formed
    whole, as m * (b - m) * x / ((a - 1 + 2m) * (a + 2m)), rounds
    m * (b - m) and the divisor's product before x enters, so tabulating
    them changes no bit."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    terms = []
    for m in map(float, range(1, count + 1)):
        m2 = m + m
        am2 = a + m2
        terms.append((m * (b - m), (qam + m2) * am2,
                      -(a + m) * (qab + m), am2 * (qap + m2)))
    return tuple(terms)


def _log_norm(a, b):
    """ln(1 / B(a, b)), the incomplete beta's normalizer."""
    # subtracted in this order; -log_beta(a, b) rounds differently for
    # about half of all shape pairs
    return log_gamma(a + b) - log_gamma(a) - log_gamma(b)


@functools.lru_cache(maxsize=_TERMS_CACHE)
def _shape_terms(a, b, max_iter):
    """(log_norm, terms_ab, terms_ba) of shape pair (a, b) under a cap of
    `max_iter` terms: ln(1 / B(a, b)), and the whole factor tables of the
    fraction of (a, b) and of its reflection (b, a).  The record is
    immutable, so threads may share it."""
    return (_log_norm(a, b), _lentz_terms(a, b, max_iter),
            _lentz_terms(b, a, max_iter))


def _beta_cont_frac(a, b, x, terms):
    """Continued-fraction factor of I_x(a, b), by the modified Lentz
    recurrence over the factor table `terms` of (a, b)."""
    # the limits as locals, negated once: -fpmin < d < fpmin is abs(d) < fpmin
    fpmin = _FPMIN
    neg_fpmin = -fpmin
    tol = _CF_TOL
    neg_tol = -tol
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if neg_fpmin < d < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for n1, d1, n2, d2 in terms:
        aa = n1 * x / d1
        d = 1.0 + aa * d
        if neg_fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if neg_fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = n2 * x / d2
        d = 1.0 + aa * d
        if neg_fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if neg_fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if neg_tol < delta - 1.0 < tol:
            return h
    raise ArithmeticError(
        "incomplete beta continued fraction did not converge "
        "(a=%g, b=%g, x=%g)" % (a, b, x))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1].

    The log-gamma normalizer and the Lentz factor tables are cached per
    shape pair (a, b) and per cap _MAX_ITER, read at call time, and
    front = normalizer + a ln x + b ln(1-x) is summed left to right, so a
    cached call returns the same bits as an uncached one.  An exp(front)
    past the largest double raises ArithmeticError, as a fraction that
    does not converge does.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_norm, terms_ab, terms_ba = _shape_terms(a, b, _MAX_ITER)
    front = log_norm + a * math.log(x) + b * math.log1p(-x)
    try:
        scale = math.exp(front)
    except OverflowError:
        raise ArithmeticError(
            "incomplete beta overflows (a=%g, b=%g, x=%g)"
            % (a, b, x)) from None
    # the continued fraction converges fast only below the mean;
    # above it, use I_x(a,b) = 1 - I_{1-x}(b,a)
    if x < (a + 1.0) / (a + b + 2.0):
        return scale * _beta_cont_frac(a, b, x, terms_ab) / a
    return 1.0 - scale * _beta_cont_frac(b, a, 1.0 - x, terms_ba) / b


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


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BELOW_ONE = 1.0 - 2.0 ** -53


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

