"""Pure-Python numeric kernels, the package's one backend
(``trimq.backend.kernels``).

Arguments are assumed pre-validated by the public wrappers in trimq.special
and friends.
"""

import math

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


def beta_pdf(x, a, b):
    """Beta density at x in [0, 1], evaluated in log space."""
    if x == 0.0:
        if a > 1.0:
            return 0.0
        if a == 1.0:
            return math.exp(-log_beta(a, b))
        return math.inf
    if x == 1.0:
        if b > 1.0:
            return 0.0
        if b == 1.0:
            return math.exp(-log_beta(a, b))
        return math.inf
    return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
                    - log_beta(a, b))


def _beta_cont_frac(a, b, x):
    # modified Lentz recurrence; returns the continued-fraction factor
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise ArithmeticError(
        "incomplete beta continued fraction did not converge "
        "(a=%g, b=%g, x=%g)" % (a, b, x))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = (log_gamma(a + b) - log_gamma(a) - log_gamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    # the continued fraction converges fast only below the mean;
    # above it, use I_x(a,b) = 1 - I_{1-x}(b,a)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(front) * _beta_cont_frac(a, b, x) / a
    return 1.0 - math.exp(front) * _beta_cont_frac(b, a, 1.0 - x) / b


def hdi_middle_lower(a, b, width, lo, hi):
    """Lower endpoint of the middle-case HDI: the root of
    pdf(t) - pdf(t + width) on the bracket [lo, hi], which the caller
    takes as [max(0, mode - width), min(mode, 1 - width)] and has checked
    for a sign change.

    The difference is monotone on that bracket (increasing density left of
    the mode, decreasing right of it), so plain bisection is safe.  The
    bracket is bisected until it collapses to machine resolution: when the
    root hugs an endpoint where the density has unbounded slope, any fixed
    absolute tolerance in t leaves the endpoint densities visibly unequal.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if beta_pdf(mid, a, b) - beta_pdf(mid + width, a, b) <= 0.0:
            lo = mid
        else:
            hi = mid
    # the true root can fall between adjacent doubles; of the surviving
    # bracket, return the point whose endpoint densities agree best
    best = 0.5 * (lo + hi)
    gap = abs(beta_pdf(best, a, b) - beta_pdf(best + width, a, b))
    for cand in (lo, hi):
        g = abs(beta_pdf(cand, a, b) - beta_pdf(cand + width, a, b))
        if g < gap:
            gap = g
            best = cand
    return best


def norm_quantile(p):
    """Standard normal quantile for p in (0, 1).

    Wichura's PPND16 rational approximation; relative error is near the
    double-precision limit over the whole open interval.
    """
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        return q * num / den
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                    + 2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r
                  + 3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r
                + 4.63033784615654529590e0) * r + 1.42343711074968357734e0)
        den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                    + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                  + 6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r
                + 2.05319162663775882187e0) * r + 1.0)
    else:
        r -= 5.0
        num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                    + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                  + 2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r
                + 5.46378491116411436990e0) * r + 6.65790464350110377720e0)
        den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                    + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                  + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0)
    val = num / den
    return -val if q < 0.0 else val


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    # 64-bit finalizer; full avalanche, bijective
    z ^= z >> 33
    z = (z * 0xFF51AFD7ED558CCD) & _M64
    z ^= z >> 33
    z = (z * 0xC4CEB9FE1A85EC53) & _M64
    z ^= z >> 33
    return z


def fill_uniforms(seed, stream_id, start, count):
    """`count` uniforms from the (seed, stream_id) stream, skipping `start`.

    Counter-based SplitMix64: draw k is a pure function of (seed, stream_id,
    k), so any subsequence can be regenerated without replaying the stream.
    Values lie strictly inside (0, 1).  seed and stream_id must already be
    masked to 64 bits.
    """
    s0 = _mix64(seed) ^ _mix64((stream_id ^ _GOLDEN) & _M64)
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
    return out
