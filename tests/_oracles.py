"""Independent reference implementations used only by the tests.

Everything here is deliberately written against different machinery than
the package itself: adaptive Simpson integration of the beta density for
the incomplete beta, a brute-force grid search for the HDI, scipy's beta
CDF for the weight-algorithm transcription, and a naive re-run of the MSE
protocol.  Agreement between the package and these is the point of the
tests, so none of this may import package internals beyond the public API.
The one transcription, of the incomplete beta's plain Lentz loop (Numerical
Recipes' betacf), is written independently of the package's reference
kernel and of its C port, and both must return its doubles bit for bit.
"""

import math
import statistics


# ---------------------------------------------------------------------------
# adaptive Simpson integration of the beta density

def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adapt(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _adapt(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def simpson(f, a, b, tol=1e-13):
    """Adaptive Simpson quadrature of f over [a, b]."""
    if b <= a:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adapt(f, a, b, fa, fm, fb, whole, tol, 52)


def ibeta_oracle(x, a, b, tol=1e-13):
    """Regularized incomplete beta by quadrature, no special functions.

    Substituting x = sin^2(theta) turns the integrand into
    sin^(2a-1) * cos^(2b-1), smooth on [0, pi/2] for a, b >= 1/2.  The
    integrand is normalized by its own maximum (in log space) so both the
    numerator and the normalizing integral are O(1), and panel boundaries
    are planted around the peak so narrow bumps cannot slip between
    sample points.  Result is the ratio, so the normalizing constant of
    the beta density never needs to be known.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ea = 2.0 * a - 1.0
    eb = 2.0 * b - 1.0
    if ea == 0.0 and eb == 0.0:
        tstar = 0.25 * math.pi
    elif ea == 0.0:
        tstar = 0.0
    elif eb == 0.0:
        tstar = 0.5 * math.pi
    else:
        tstar = math.atan(math.sqrt(ea / eb))
    ls = math.log(math.sin(tstar)) if tstar > 0.0 else None
    lc = math.log(math.cos(tstar)) if tstar < 0.5 * math.pi else None

    def g(t):
        if t <= 0.0:
            if ea > 0.0:
                return 0.0
            acc = 0.0
        elif t >= 0.5 * math.pi:
            if eb > 0.0:
                return 0.0
            acc = 0.0
        else:
            acc = 0.0
            if ea != 0.0:
                acc += ea * math.log(math.sin(t))
            if eb != 0.0:
                acc += eb * math.log(math.cos(t))
        if ea != 0.0 and ls is not None:
            acc -= ea * ls
        if eb != 0.0 and lc is not None:
            acc -= eb * lc
        return math.exp(acc)

    phi = math.asin(math.sqrt(x))
    peak_w = 1.0 / math.sqrt(2.0 * (a + b))
    cuts = [tstar + k * peak_w for k in (-8.0, -3.0, -1.0, 0.0, 1.0, 3.0, 8.0)]

    def panels(lo, hi):
        pts = [lo] + [c for c in cuts if lo < c < hi] + [hi]
        return math.fsum(simpson(g, pts[i], pts[i + 1], tol)
                         for i in range(len(pts) - 1))

    num = panels(0.0, phi)
    den = num + panels(phi, 0.5 * math.pi)
    return num / den


# ---------------------------------------------------------------------------
# the incomplete beta's continued fraction, one term at a time

def _lentz_cont_frac(a, b, x, max_iter=300, tol=1e-14, fpmin=1e-300):
    # the modified Lentz evaluation of Numerical Recipes' betacf, every
    # factor of every term formed afresh on each call
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    m = 0.0
    for _ in range(max_iter):
        m += 1.0
        m2 = m + m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    raise ArithmeticError("continued fraction did not converge")


def lentz_ibeta_oracle(x, a, b):
    """Regularized incomplete beta by the plain Lentz loop, written term by
    term; the package's kernel must return the same double, or raise
    ArithmeticError where this does."""
    from trimq import log_gamma

    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    norm = log_gamma(a + b) - log_gamma(a) - log_gamma(b)
    front = norm + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(front) * _lentz_cont_frac(a, b, x) / a
    return 1.0 - math.exp(front) * _lentz_cont_frac(b, a, 1.0 - x) / b


# ---------------------------------------------------------------------------
# brute-force HDI search

def hdi_lower_grid_oracle(a, b, width, points=10 ** 6):
    """Middle-case HDI lower bound by dense grid search.

    Minimizes |pdf(t) - pdf(t + width)| over the bracket
    [max(0, mode - width), min(mode, 1 - width)] using scipy's density.
    """
    import numpy as np
    from scipy.stats import beta as beta_dist

    mode = (a - 1.0) / (a + b - 2.0)
    lo = max(0.0, mode - width)
    hi = min(mode, 1.0 - width)
    ts = np.linspace(lo, hi, points)
    diff = np.abs(beta_dist.pdf(ts, a, b) - beta_dist.pdf(ts + width, a, b))
    return float(ts[int(np.argmin(diff))])


def interval_mass(a, b, lo, hi):
    """Beta probability mass of [lo, hi] via scipy."""
    from scipy.special import betainc

    return float(betainc(a, b, hi) - betainc(a, b, lo))


# ---------------------------------------------------------------------------
# independent reimplementation of the trimmed-weight recipe

def transcribed_thd_weights(n, p, width, lower, upper):
    """Trimmed weights spelled out the long way with scipy's beta CDF;
    the HDI bounds are taken as given.

    Returns an n-vector.  Used to pin down the floor/ceil index mapping
    and the clamped-CDF differencing independently of the package.
    """
    from scipy.special import betainc

    a = (n + 1.0) * p
    b = (n + 1.0) * (1.0 - p)
    cdf_l = float(betainc(a, b, lower))
    cdf_r = float(betainc(a, b, upper))

    def cdf(x):
        if x <= lower:
            x = lower
        elif x >= upper:
            x = upper
        return (float(betainc(a, b, x)) - cdf_l) / (cdf_r - cdf_l)

    i_lo = int(math.floor(lower * n))
    i_hi = int(math.ceil(upper * n))
    cdfs = [cdf(i / n) for i in range(i_lo, i_hi + 1)]
    weights = [0.0] * n
    for j in range(len(cdfs) - 1):
        weights[i_lo + j] = cdfs[j + 1] - cdfs[j]
    return weights


# ---------------------------------------------------------------------------
# naive re-run of the MSE protocol

def naive_mse(estimate, spec, n, p, samples_per_batch, batches, seed):
    """Median-over-batches mean squared error, written the long way.

    `estimate` maps a sorted value tuple to a number.  Streams are derived
    exactly as the harness derives them; everything else (accumulation,
    median) uses plain library calls.
    """
    from trimq import RngStream, fnv1a64, sample, true_quantile

    theta = true_quantile(spec, p)
    label = spec.label
    batch_means = []
    for b in range(batches):
        total = 0.0
        for s in range(samples_per_batch):
            sid = fnv1a64("%s|%d|%r|%d|%d" % (label, n, p, b, s))
            xs = tuple(sorted(sample(spec, RngStream(seed, sid), n)))
            total += (estimate(xs) - theta) ** 2
        batch_means.append(total / samples_per_batch)
    return statistics.median(batch_means)
