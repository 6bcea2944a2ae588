/*
 * The regularized incomplete beta, the loop that turns it into a window of
 * (trimmed) Harrell-Davis weights, the bisections that invert the Beta and
 * Student t CDFs through it, the counter-based uniforms of a whole
 * simulation batch of random streams, the sort and scoring of a piece of
 * simulation samples, and the parse and sort of the numbers that
 * `trimq estimate` reads, in plain C99 for trimq/_kernels_c.py, which
 * builds this file and loads it with ctypes.
 *
 * Every function is a port of its reference in trimq/_kernels_py.py:
 * reg_inc_beta and its Lentz fraction _beta_cont_frac, weight_window,
 * quantiles, the one inversion behind beta_quantiles and student_quantiles,
 * with their bisection _bisect_cdf, the bracket of _invert_unbounded and the
 * Student t bounds, batch_uniforms with the draw loop of stream_uniforms,
 * the FNV-1a fold fnv1a64 and the finalizer _mix64, piece_errors with HF7
 * (_hf7) and the weighted sum (_weighted_sum), its math.fsum a port of
 * CPython 3.11's, and a stable sort in place of sorted(), which sort_floats
 * exports on its own, and parse_floats, whose strtod rounds correctly as
 * float() does.  Each but quantiles does the same operations in the same
 * order, so that, built with -ffp-contract=off and linked against the libm
 * behind Python's math module, it returns the same doubles; the uniforms
 * are 64-bit integer work and the reference's two floating-point steps.
 * quantiles keeps the same bits, not the same statements: it takes the
 * reference's midpoints to the same outcomes cdf(mid) < p, and so to the
 * same quantile, but decides the outcomes a certificate covers without
 * evaluating the CDF there.
 *
 * The incomplete beta has one implementation, the core inc_beta, which
 * evaluates it at one point and holds the file's only Lentz loop:
 * reg_inc_beta returns its value, weight_window calls it once per index,
 * and the batch inversions walk their p one after the other, each p's
 * bracket doubling and bisection a plain loop (invert) of one core point
 * at a time.  Every batch inversion keeps a memo for the call: the CDF
 * values of each p's first evaluations, which the p of a batch share,
 * indexed by the p's path, the outcomes of its comparisons so far, which
 * fix the point, so that a value found there is the double the core would
 * return.
 *
 * Past those evaluations a bisecting p tries once to certify a band
 * around its quantile: a regula falsi point in its bracket, up to three
 * Newton steps, then the CDF values at the band's two ends, which must
 * stay a margin m from p, m being at least twice a stated bound on the
 * core's error there.  That bound is relative, rho |F - alpha| plus the
 * rounding of 1 - T, alpha being the 0, 1/2 or 1 that the computed CDF
 * takes its tail from, so in the tails it shrinks with min(p, 1 - p); rho
 * sums the Lentz tolerance CF_TOL, the cancellation and rounding of the
 * Lentz recurrence (which grow with a + b and with the number of terms)
 * and the rounding of exp's argument, which grows with |log_norm| + |a log
 * x| + |b log1p(-x)|: see curve_init.  Every midpoint below the band then
 * compares f < p and every one above it f >= p, as its CDF value would.
 * A p does not try, and bisects as the reference does, where the bound is
 * not stated: when the fraction's term count at its switch point, with
 * headroom, passes max_iter, when the bracket crosses the fraction's
 * switch or t = 0, has an end at 0 or 1, or when rho passes 2**-30; a
 * certificate value inside the margin, or a NaN, ends the try the same
 * way.  Built with -DCHECK_CERTIFIED, as the tests build it, quantiles
 * also evaluates every midpoint it decides and every value its memo
 * returns, and aborts if one disagrees, and counts the certificates taken
 * and failed.
 *
 * Where the reference raises, the port gives the case back instead: a NaN
 * from reg_inc_beta, -1 from piece_errors, sort_floats or parse_floats,
 * or, from weight_window and a batch inversion, the index it stopped at.
 * The caller then hands the call, the rest of the batch, or the one
 * incomplete beta the window stopped at, to the namesake reference, which
 * raises the error itself.  That happens when the fraction does not
 * converge within max_iter terms, when exp(front) is not finite (math.exp
 * raises OverflowError where C returns inf), in the bisections when a CDF
 * value is NaN, at a Student t p that is not positive or whose quantile
 * lies past the square root of the largest double, in piece_errors and
 * sort_floats when a value is NaN (its place in sorted order depends on
 * the sort) or a weighted sum meets a product that is not finite or
 * overflows (math.fsum's special values and OverflowError), and in
 * parse_floats on any input but plain ASCII decimal numbers that are
 * finite.
 *
 * No state outlives a call: the inversions' memo lives on the stack of
 * its call, and the sort and scoring buffers are allocated and freed by
 * the call that uses them, so threads may call every entry point at once
 * (all but the counters of a CHECK_CERTIFIED build).
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* the continued fraction's controls, as in _kernels_py */
#define CF_TOL 1e-14
#define FPMIN 1e-300

/* the bisections' controls, as in _kernels_py._bisect_cdf */
#define BISECT_LEVELS 500
#define BISECT_TOL 1e-12

/* the evaluations of each p that a batch inversion's memo holds */
#define MEMO_DEPTH 12

/*
 * I_x(a, b) for x in [0, 1], with log_norm = ln(1 / B(a, b)) as
 * _kernels_py._log_norm computes it: the statements of
 * _kernels_py.reg_inc_beta and of its modified Lentz recurrence,
 * _beta_cont_frac, in their order, so the double that reg_inc_beta(x, a, b)
 * returns.  The fraction of (a', b', x') is (a, b, x) below the mean and
 * (b, a, 1 - x) above it, its term m being
 * m (b' - m) x' / ((a' - 1 + 2m)(a' + 2m)), then
 * -(a' + m)(a' + b' + m) x' / ((a' + 2m)(a' + 1 + 2m)).  NaN asks the
 * caller to use the reference: a fraction that does not converge within
 * max_iter terms, or an exp(front) that is not finite.  *terms, unless
 * terms is NULL, gets the number of terms of the fraction where it
 * converges.
 */
static double inc_beta(double x, double a, double b, double log_norm,
                       long max_iter, int *terms)
{
    double fa, fb, fx, qab, qap, qam, scale, c, d, h, m, m2, am2, aa, delta;
    int upper;
    long i;

    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    scale = exp(log_norm + a * log(x) + b * log1p(-x));
    if (!isfinite(scale))
        return NAN;
    upper = !(x < (a + 1.0) / (a + b + 2.0));
    if (!upper) {
        fa = a;
        fb = b;
        fx = x;
    } else {
        /* I_x(a, b) = 1 - I_{1-x}(b, a) */
        fa = b;
        fb = a;
        fx = 1.0 - x;
    }
    qab = fa + fb;
    qap = fa + 1.0;
    qam = fa - 1.0;
    c = 1.0;
    d = 1.0 - qab * fx / qap;
    if (-FPMIN < d && d < FPMIN)
        d = FPMIN;
    d = 1.0 / d;
    h = d;
    for (i = 1; i <= max_iter; i++) {
        m = (double)i;
        m2 = m + m;
        am2 = fa + m2;
        aa = m * (fb - m) * fx / ((qam + m2) * am2);
        d = 1.0 + aa * d;
        if (-FPMIN < d && d < FPMIN)
            d = FPMIN;
        c = 1.0 + aa / c;
        if (-FPMIN < c && c < FPMIN)
            c = FPMIN;
        d = 1.0 / d;
        h *= d * c;
        aa = -(fa + m) * (qab + m) * fx / (am2 * (qap + m2));
        d = 1.0 + aa * d;
        if (-FPMIN < d && d < FPMIN)
            d = FPMIN;
        c = 1.0 + aa / c;
        if (-FPMIN < c && c < FPMIN)
            c = FPMIN;
        d = 1.0 / d;
        delta = d * c;
        h *= delta;
        if (-CF_TOL < delta - 1.0 && delta - 1.0 < CF_TOL) {
            if (terms != NULL)
                *terms = (int)i;
            return upper ? 1.0 - scale * h / fa : scale * h / fa;
        }
    }
    return NAN;
}

/*
 * Regularized incomplete beta I_x(a, b) for x in [0, 1].  NaN asks the
 * caller to use the reference.
 */
double reg_inc_beta(double x, double a, double b, double log_norm,
                    long max_iter)
{
    return inc_beta(x, a, b, log_norm, max_iter, NULL);
}

/*
 * The weights of order statistics i_lo + 1 .. i_hi of a sample of n, the
 * loop of _kernels_py.weight_window: out[i - i_lo - 1] = F(i/n) -
 * F((i-1)/n), or 0.0 where that is not positive, with F(x) = (I_x(a, b) -
 * cdf_lower) / denom clamped to [0, 1], 0 at or below lower and 1 at or
 * above upper.  support[0] and support[1] get the 1-based indices of the
 * first and last positive weight, 0 and 0 when none is.  i / n rounds as
 * Python's int division does for n < 2**53.  Returns i_hi + 1 when the
 * window is done, or else the index i whose I_{i/n}(a, b) it gives back to
 * the caller, every index before it having converged.
 */
long weight_window(long n, long i_lo, long i_hi, double a, double b,
                   double lower, double upper, double cdf_lower,
                   double denom, double log_norm, long max_iter, double *out,
                   long *support)
{
    double x, cur, prev = 0.0, w;
    long i;

    support[0] = support[1] = 0;
    for (i = i_lo; i <= i_hi; i++) {
        x = (double)i / (double)n;
        if (x <= lower) {
            cur = 0.0;
        } else if (x >= upper) {
            cur = 1.0;
        } else {
            cur = inc_beta(x, a, b, log_norm, max_iter, NULL);
            if (isnan(cur))
                return i;
            cur = (cur - cdf_lower) / denom;
            if (cur < 0.0)
                cur = 0.0;
            else if (cur > 1.0)
                cur = 1.0;
        }
        if (i > i_lo) {
            w = cur - prev;
            if (w > 0.0) {
                out[i - i_lo - 1] = w;
                if (!support[0])
                    support[0] = i;
                support[1] = i;
            } else {
                out[i - i_lo - 1] = 0.0;
            }
        }
        prev = cur;
    }
    return i_hi + 1;
}

/*
 * What a batch inversion inverts: the CDF of the Beta(a, b) when df is 0,
 * or else of the Student t at df degrees of freedom (a = df / 2, b = 1 / 2),
 * log_norm being that of the shape pair (a, b).  The core's fraction is
 * that of (a, b, x) below `split` and of (b, a, 1 - x) from it on, x being
 * the point itself for the Beta and df / (df + t^2) for the Student t.
 * `rho` is the part of the bound on the core's relative error that holds at
 * every point (certify adds the part that grows with the point); 0 when no
 * p of the call certifies.
 */
typedef struct {
    double a, b, df, log_norm, split, rho;
    long max_iter;
} Curve;

/*
 * The CDF value at t: I_t(a, b) when df is 0, or else the Student t CDF at
 * df degrees of freedom of _kernels_py.student_quantiles, the tail beyond
 * |t| being I_{df / (df + t^2)}(a, b) / 2.
 */
static double cdf(double t, const Curve *c)
{
    double tail;

    if (c->df == 0.0)
        return inc_beta(t, c->a, c->b, c->log_norm, c->max_iter, NULL);
    tail = 0.5 * inc_beta(c->df / (c->df + t * t), c->a, c->b, c->log_norm,
                          c->max_iter, NULL);
    return t >= 0.0 ? 1.0 - tail : tail;
}

/* the unit roundoff, 2**-53 */
#define UNIT 0x1p-53

/* the largest relative error bound under which a p certifies */
#define RHO_MAX 0x1p-30

/*
 * The curve of a batch inversion, with the part of its error bound that
 * holds at every point.  On each piece of the computed CDF (cdf_piece) the
 * core returns F~ = alpha + beta T~ + r: alpha is 0, 1/2 or 1, beta is +-1
 * or +-1/2, T~ = scale h / a' is the fraction's tail, and r, the rounding of
 * 1 - T~ and of the Student's halves, is at most UNIT (2**-1000 where alpha
 * is 0: a subnormal tail).  Against T' = c T(x), with T the exact tail at
 * the double x the core is given and c the exponential of log_norm's
 * rounding, common to every point and so keeping T' monotone, |T~ / T' - 1|
 * <= rho with
 *
 *   rho = 4 CF_TOL + UNIT (N^2 + 8 (a + b) + 24) + 5 UNIT S.
 *
 * 4 CF_TOL bounds the fraction's tail past its stopping term (2.3 CF_TOL
 * at most, measured against mpmath).  8 UNIT (a + b + 2) bounds the
 * cancellation in the Lentz denominators next to the switch, where the
 * first, 1 - (a + b) x / (a + 1), is 2 / (a + b + 2), and the rounding of
 * the 1 - x handed to the fraction of (b, a, 1 - x) (2.2 UNIT (a + b) at
 * most, measured, at Student df = 1e6 and Beta(0.5, 5e5)).  UNIT N^2 bounds
 * the rounding that piles up over the n terms of a point (2.6 UNIT n^2 at
 * most, measured, at Student df = 1e4; N below is at least 2n), and 8 UNIT
 * exp, the product and the quotient.  5 UNIT S bounds the rounding of
 * exp's argument, S = |log_norm| + |a log x| + |b log1p(-x)|, log and
 * log1p within an ulp; certify adds it for the p's bracket.  For the
 * Student t, x = df / (df + t^2) rounds monotonically in |t|, so T'(x(t))
 * stays monotone on either side of t = 0 and needs no margin.
 *
 * N bounds the terms at every point: the fraction converges slowest near
 * the switch, so N is twice the larger count of its two sides there, plus
 * 8 (the count peaks up to half again higher a little off the switch at
 * large shapes).  Where N passes max_iter, or the switch does not
 * converge, rho is 0 and no p certifies; otherwise every point of the
 * curve converges, the midpoints a certificate skips among them.
 */
static void curve_init(Curve *c, double a, double b, double df,
                       double log_norm, long max_iter)
{
    int terms_below, terms_at;
    double n;

    c->a = a;
    c->b = b;
    c->df = df;
    c->log_norm = log_norm;
    c->max_iter = max_iter;
    c->split = (a + 1.0) / (a + b + 2.0);
    c->rho = 0.0;
    if (isnan(inc_beta(nextafter(c->split, 0.0), a, b, log_norm, max_iter,
                       &terms_below))
        || isnan(inc_beta(c->split, a, b, log_norm, max_iter, &terms_at)))
        return;
    n = 2.0 * (terms_below > terms_at ? terms_below : terms_at) + 8.0;
    if (n <= (double)max_iter)
        c->rho = 4.0 * CF_TOL + UNIT * (n * n + 8.0 * (a + b) + 24.0);
}

#ifdef CHECK_CERTIFIED
/* the test build: the p that took a certificate, those that tried and did
   not, and the memo values checked against the core; outside it TALLY and
   the two checks do nothing */
long certified_taken, certified_failed, memo_checked;
#define TALLY(counter) ((counter)++)

/* abort unless the core's value at t compares with p as the certificate
   says: f < p when below, else f >= p */
static void check_skipped(const Curve *c, double p, double t, int below)
{
    double f = cdf(t, c);

    if (isnan(f) || (f < p) != below)
        abort();
}

/* abort unless the core's value at t has the bits of the memo's value v */
static void check_memo(const Curve *c, double t, double v)
{
    double f = cdf(t, c);

    if (memcmp(&f, &v, sizeof f) != 0)
        abort();
    memo_checked++;
}
#else
#define TALLY(counter) ((void)0)
#define check_skipped(c, p, t, below) ((void)0)
#define check_memo(c, t, v) ((void)0)
#endif

/*
 * One p of a batch inversion and its place in the call's memo.  Every p of
 * a call starts at the same point, and each point after that is decided by
 * the outcomes f < p before it alone, so a p's points are fixed by its path:
 * `node` is 1 followed by the outcomes of its first MEMO_DEPTH CDF values,
 * a node of the binary tree of those outcomes, and table[node] the CDF
 * value at the node's point, a NaN until known.
 */
typedef struct {
    const Curve *curve;
    double *table;
    double p;
    int node;
    int evals;      /* CDF values taken by the bracket and the bisection */
} Path;

/* the CDF value at t, the p's next point: through the memo for its first
   MEMO_DEPTH values, each outcome f < p extending its node */
static double path_cdf(Path *w, double t)
{
    double f;

    if (w->evals >= MEMO_DEPTH)
        return cdf(t, w->curve);
    f = w->table[w->node];
    if (isnan(f)) {
        f = cdf(t, w->curve);
        w->table[w->node] = f;
    } else {
        check_memo(w->curve, t, f);
    }
    w->node = 2 * w->node + (f < w->p);
    w->evals++;
    return f;
}

/*
 * The bound on the core's error on one piece of the computed CDF, and the
 * margin that a CDF value v keeps from p to certify a side.  On a piece
 * where alpha + beta T' is monotone, a midpoint at or below a point L of
 * value v < p compares f < p when p - v > 2 rho' (|v - alpha| + round) + 2
 * round, rho' = rho / (1 - rho): its value is at most L's true value plus
 * its own error, and its error is bounded by L's, T' being monotone.
 * Likewise above a point U of value v >= p.  The margin, 2.5 rho |v -
 * alpha| + 3 round, is twice the bound on the core's error at v, rho |v -
 * alpha| + round, with room for rho' and for the rounding of p - v and of
 * the margin itself.
 */
typedef struct {
    double rho, alpha, round;
} Bound;

static double margin(const Bound *e, double v)
{
    return 2.5 * e->rho * fabs(v - e->alpha) + 3.0 * e->round;
}

/* which piece of the computed CDF the point t lies on: the fraction's side
   of the switch, and for the Student t the sign of t; *x gets the core's
   point */
static int cdf_piece(const Curve *c, double t, double *x)
{
    *x = c->df == 0.0 ? t : c->df / (c->df + t * t);
    return 2 * (t >= 0.0) + (*x < c->split);
}

/* the density at t, and in *slope the derivative of its logarithm */
static double density(const Curve *c, double t, double *slope)
{
    if (c->df == 0.0) {
        *slope = (c->a - 1.0) / t - (c->b - 1.0) / (1.0 - t);
        return exp(c->log_norm + (c->a - 1.0) * log(t)
                   + (c->b - 1.0) * log1p(-t));
    }
    *slope = -2.0 * (c->a + c->b) * t / (c->df + t * t);
    return exp(c->log_norm - 0.5 * log(c->df)
               - (c->a + c->b) * log1p(t * t / c->df));
}

/* the Newton steps that refine a certificate's estimate */
#define NEWTON_STEPS 3

/*
 * Whether a band [band[0], band[1]] around the quantile of p is certified,
 * for flo = cdf(lo) < p <= cdf(hi) = fhi, band being set only when it is.
 * The bracket must lie on one piece of the computed CDF (cdf_piece), so
 * that every midpoint and both points certified share one alpha + beta T~
 * + r.  The p's rho is the curve's plus the terms of its bracket, S at its
 * largest over it; where S is not finite (an end at 0 or 1, at t = 0, or
 * far enough out that x is 0) or rho passes RHO_MAX, there is no try.  A
 * regula falsi point between the ends, else the pending midpoint mid,
 * starts up to NEWTON_STEPS Newton steps, each one CDF value.  After each
 * the estimate's error is about slope step^2 / 2; once that is well inside
 * the band, or after NEWTON_STEPS, the band is the estimate +- delta, delta
 * = 2 margin(p) / density, and the CDF values at its two ends must each
 * clear p by its margin.  A NaN value or a step out of
 * the bracket ends the try uncertified.
 */
static int certify(const Curve *c, double p, double lo, double hi,
                   double flo, double fhi, double mid, double *band)
{
    Bound e;
    double xlo, xhi, at, f, pdf, slope, step, delta, ends[2], fends[2];
    int piece = cdf_piece(c, lo, &xlo), newton;

    if (c->rho == 0.0 || piece != cdf_piece(c, hi, &xhi))
        return 0;
    e.rho = c->rho + 5.0 * UNIT * (fabs(c->log_norm)
                                   + c->a * fmax(fabs(log(xlo)),
                                                 fabs(log(xhi)))
                                   + c->b * fmax(fabs(log1p(-xlo)),
                                                 fabs(log1p(-xhi))));
    if (!(e.rho <= RHO_MAX))
        return 0;
    /* the anchor: the tail of the fraction's side, then for the Student t
       its half on either side of t = 0 */
    if (c->df == 0.0)
        e.alpha = piece & 1 ? 0.0 : 1.0;
    else
        e.alpha = !(piece & 1) ? 0.5 : piece & 2 ? 1.0 : 0.0;
    /* 1 - T~ rounds by half an ulp of 1; a tail alone only when subnormal */
    e.round = e.alpha == 0.0 ? 0x1p-1000 : UNIT;
    at = lo + (p - flo) * ((hi - lo) / (fhi - flo));
    if (!(lo < at && at < hi))
        at = mid;
    for (newton = 1;; newton++) {
        f = cdf(at, c);
        if (isnan(f))
            return 0;
        pdf = density(c, at, &slope);
        if (!(pdf > 0.0 && pdf < INFINITY))
            return 0;
        step = (f - p) / pdf;
        delta = 2.0 * margin(&e, p) / pdf;
        at -= step;
        if (!(lo < at && at < hi))
            return 0;
        if (newton == NEWTON_STEPS
            || fabs(slope) * step * step <= 0.125 * delta)
            break;
    }
    ends[0] = at - delta;
    ends[1] = at + delta;
    if (!(lo < ends[0] && ends[1] < hi))
        return 0;
    fends[0] = cdf(ends[0], c);
    fends[1] = cdf(ends[1], c);
    if (!(p - fends[0] > margin(&e, fends[0])
          && fends[1] - p >= margin(&e, fends[1])))
        return 0;
    band[0] = ends[0];
    band[1] = ends[1];
    return 1;
}

/*
 * The quantile of p into *q, by the steps of _kernels_py: on the real line
 * (the Student t) each end of [-1, 1] doubles until the bracket holds p, the
 * low end first, then [lo, hi] is bisected, as _invert_unbounded and
 * _bisect_cdf do; a Beta bisects [0, 1] at once.  For a Student p in (0, 1]
 * no end passes 2**512: there t * t overflows, x is 0 and the CDF reads
 * exactly 0 or 1, so no sum of two ends overflows either.  Past the memo's
 * MEMO_DEPTH values, at the first midpoint that needs a CDF value, the p
 * tries once to certify a band around its quantile (certify); every
 * midpoint at or below the band then compares f < p, and every one at or
 * above it f >= p, without a CDF value.  Returns 0 to give p back, at a NaN
 * CDF value.
 */
static int invert(double p, const Curve *c, double *table, double *q)
{
    Path w = {c, table, p, 1, 0};
    double lo = 0.0, hi = 1.0, flo = 0.0, fhi = 1.0, mid, f;
    double band[2] = {-INFINITY, INFINITY};
    int level, tried = 0;

    if (c->df != 0.0) {
        for (lo = -1.0; !((flo = path_cdf(&w, lo)) < p); lo *= 2.0)
            if (isnan(flo))
                return 0;
        for (; !((fhi = path_cdf(&w, hi)) >= p); hi *= 2.0)
            if (isnan(fhi))
                return 0;
    }
    for (level = 0; level < BISECT_LEVELS; level++) {
        mid = 0.5 * (lo + hi);
        if (hi - lo <= BISECT_TOL + BISECT_TOL * fabs(mid) || mid <= lo
            || mid >= hi) {
            *q = mid;
            return 1;
        }
        if (!tried && w.evals >= MEMO_DEPTH) {
            tried = 1;
            if (certify(c, p, lo, hi, flo, fhi, mid, band))
                TALLY(certified_taken);
            else
                TALLY(certified_failed);
        }
        if (mid <= band[0]) {
            check_skipped(c, p, mid, 1);
            lo = mid;
        } else if (mid >= band[1]) {
            check_skipped(c, p, mid, 0);
            hi = mid;
        } else {
            f = path_cdf(&w, mid);
            if (isnan(f))
                return 0;
            if (f < p) {
                lo = mid;
                flo = f;
            } else {
                hi = mid;
                fhi = f;
            }
        }
    }
    *q = 0.5 * (lo + hi);
    return 1;
}

/*
 * ps[i] replaced by its quantile for i < count: of the Beta(a, b) when df
 * is 0, or else of the Student t at df degrees of freedom, with a = df /
 * 2, b = 1 / 2.  log_norm is that of the shape pair (a, b).  The p are
 * inverted one after the other (invert) through one memo, the table of the
 * CDF values at each node of the paths of the p's first MEMO_DEPTH values,
 * which the p of a call share (the top of the bisection tree, the
 * bracket's doublings), a NaN where not yet known; a value found is the
 * double the core would return at the node's point, so no output bit
 * depends on it.  Past those values a p certifies a band around its
 * quantile (margins of at least twice the bound of curve_init on the
 * core's error, no try where that bound is not stated), and every
 * midpoint outside the band moves lo or hi as its CDF value would,
 * without one: the same midpoints, the same outcomes, the same bits as
 * _kernels_py, from fewer CDF values.  Past |t| = sqrt(DBL_MAX), t * t
 * overflows and the Student t CDF saturates, so a Student p outside
 * [F(-sqrt(DBL_MAX)), F(sqrt(DBL_MAX))] is given back, as is every p when
 * those two CDF values are NaN, and a Student p <= 0, whose low end would
 * never hold it.  Returns count, or the index of the first p given back,
 * that p and those after it left as they are.
 */
long quantiles(double *ps, long count, double a, double b, double df,
               double log_norm, long max_iter)
{
    Curve curve;
    double table[1 << MEMO_DEPTH], bounds[2] = {0.0, 1.0};
    long i;

    curve_init(&curve, a, b, df, log_norm, max_iter);
    if (df != 0.0) {
        bounds[0] = cdf(-sqrt(DBL_MAX), &curve);
        bounds[1] = cdf(sqrt(DBL_MAX), &curve);
    }
    memset(table, 0xff, sizeof table); /* all bits set: a NaN */
    for (i = 0; i < count; i++)
        if ((df != 0.0 && !(ps[i] > 0.0 && bounds[0] <= ps[i]
                            && ps[i] <= bounds[1]))
            || !invert(ps[i], &curve, table, &ps[i]))
            return i;
    return count;
}

/* SplitMix64's increment, and FNV-1a's prime, as in _kernels_py */
#define GOLDEN UINT64_C(0x9E3779B97F4A7C15)
#define FNV_PRIME UINT64_C(0x100000001B3)

/* 64-bit finalizer, _kernels_py._mix64 */
static uint64_t mix64(uint64_t z)
{
    z ^= z >> 33;
    z *= UINT64_C(0xFF51AFD7ED558CCD);
    z ^= z >> 33;
    z *= UINT64_C(0xC4CEB9FE1A85EC53);
    z ^= z >> 33;
    return z;
}

/*
 * out[k] = draw k of the (seed, stream_id) stream, for k < count, with
 * seed_mix = mix_seed(seed): the counter-based SplitMix64 loop of
 * _kernels_py.stream_uniforms from start 0.  A draw whose midpoint rounds
 * up to 1.0 takes 1 - 2**-53, the largest double below 1.
 */
static void draw_uniforms(uint64_t seed_mix, uint64_t stream_id, long count,
                          double *out)
{
    uint64_t state = seed_mix ^ mix64(stream_id ^ GOLDEN);
    uint64_t z;
    double u;
    long k;

    for (k = 0; k < count; k++) {
        state += GOLDEN;
        z = state;
        z ^= z >> 30;
        z *= UINT64_C(0xBF58476D1CE4E5B9);
        z ^= z >> 27;
        z *= UINT64_C(0x94D049BB133111EB);
        z ^= z >> 31;
        u = ((double)(z >> 11) + 0.5) * 0x1p-53;
        out[k] = u < 1.0 ? u : 1.0 - 0x1p-53;
    }
}

/*
 * The per_sample uniforms of stream fnv1a64("%d" % s, batch_hash), for s
 * = first .. first + count - 1, one after the other in out: the loop of
 * _kernels_py.batch_uniforms, folding the decimal digits of each s into
 * the batch's hash here.
 */
void batch_uniforms(uint64_t seed_mix, uint64_t batch_hash, uint64_t first,
                    long count, long per_sample, double *out)
{
    char digits[20]; /* 2**64 - 1 has 20 */
    uint64_t s, h;
    int len;
    long k;

    for (k = 0; k < count; k++) {
        s = first + (uint64_t)k;
        len = 0;
        do {
            digits[len++] = (char)('0' + s % 10);
            s /= 10;
        } while (s);
        h = batch_hash;
        while (len)
            h = (h ^ (uint64_t)digits[--len]) * FNV_PRIME;
        draw_uniforms(seed_mix, h, per_sample, out + k * per_sample);
    }
}

/* the slices that insertion sort takes whole, and the runs merge sort
   starts from */
#define INSERTION_MAX 32

/* sort xs[0 .. n) by <, stably */
static void insertion_sort(double *xs, long n)
{
    double x;
    long i, k;

    for (i = 1; i < n; i++) {
        x = xs[i];
        for (k = i; k > 0 && x < xs[k - 1]; k--)
            xs[k] = xs[k - 1];
        xs[k] = x;
    }
}

/* the sorted a[0 .. na) and b[0 .. nb) merged into out, a's item first
   where two are equal */
static void merge(const double *a, long na, const double *b, long nb,
                  double *out)
{
    long i = 0, j = 0, k = 0;

    while (i < na && j < nb)
        out[k++] = b[j] < a[i] ? b[j++] : a[i++];
    while (i < na)
        out[k++] = a[i++];
    while (j < nb)
        out[k++] = b[j++];
}

/*
 * Sort xs[0 .. n) by <, stably, through tmp, n doubles when n >
 * INSERTION_MAX: insertion sort on runs of INSERTION_MAX, then bottom-up
 * merges.  For values without NaN a stable sort gives exactly the order
 * of Python's sorted(), equal values (-0.0 and 0.0 among them) keeping
 * their order.
 */
static void stable_sort(double *xs, long n, double *tmp)
{
    double *src = xs, *dst = tmp, *swap;
    long run, lo, mid, hi;

    for (lo = 0; lo < n; lo += INSERTION_MAX)
        insertion_sort(xs + lo, n - lo < INSERTION_MAX ? n - lo
                                                       : INSERTION_MAX);
    for (run = INSERTION_MAX; run < n; run *= 2) {
        for (lo = 0; lo < n; lo += 2 * run) {
            mid = n - lo < run ? n : lo + run;
            hi = n - mid < run ? n : mid + run;
            merge(src + lo, mid - lo, src + mid, hi - mid, dst + lo);
        }
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != xs)
        memcpy(xs, src, (size_t)n * sizeof *xs);
}

/*
 * Sort xs[0 .. n) in place by stable_sort, the order of
 * _kernels_py.sort_floats.  Returns 0, or -1, leaving xs as it is, to give
 * the values back: a NaN among them, or no memory for the merge buffer.
 */
int sort_floats(double *xs, long n)
{
    double *tmp = NULL;
    long i;

    for (i = 0; i < n; i++)
        if (isnan(xs[i]))
            return -1;
    if (n > INSERTION_MAX && (tmp = malloc((size_t)n * sizeof *tmp)) == NULL)
        return -1;
    stable_sort(xs, n, tmp);
    free(tmp);
    return 0;
}

/* HF7 over the n sorted xs between the 1-based order statistics j and
   j + 1 at fraction g, the largest value when j >= n: _kernels_py._hf7 */
static double hf7(const double *xs, long n, long j, double g)
{
    double lo, step;

    if (j >= n)
        return xs[n - 1];
    lo = xs[j - 1];
    step = xs[j] - lo;
    if (step < INFINITY)
        return lo + g * step;
    /* the gap overflows: weigh the two ends instead */
    return (1.0 - g) * lo + g * xs[j];
}

/*
 * The correctly rounded sum of ws[k] * xs[k] for k < len, as math.fsum
 * returns it: a statement-for-statement port of CPython 3.11's
 * math_fsum, Shewchuk's partials and the final half-even correction,
 * over finite products, with room for len partials in p, each product
 * adding at most one.  Returns 1 and stores the sum in *out, or 0 to
 * give the sum back: a product that is not finite (fsum's special
 * values) or an intermediate overflow (fsum's OverflowError).
 */
static int fsum_products(const double *ws, const double *xs, long len,
                         double *p, double *out)
{
    double x, y, t, hi, yr, lo = 0.0;
    long i, j, k, n = 0;

    for (k = 0; k < len; k++) {
        x = ws[k] * xs[k];
        if (!isfinite(x))
            return 0;
        for (i = j = 0; j < n; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x))
                return 0;
            p[n++] = x;
        }
    }
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        /* sum the partials from the top, stopping where it is inexact */
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* half-even rounding across the partials left below */
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0)
                      || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *out = hi;
    return 1;
}

/*
 * The squared errors (estimate - theta)^2 of the count samples of n
 * values each in values, per scorer, the loop of
 * _kernels_py.piece_errors: each sample is copied, sorted, then scored.
 * Scorer k is HF7 at (j, g) = (at[k], coef[c]) when width[k] < 0, taking
 * one coef, or else the weighted sum of order statistics at[k] + 1 ..
 * at[k] + width[k] by the next width[k] coefs, scorer k's coefs
 * following scorer k - 1's.  out[k * count + i] gets sample i's error
 * under scorer k.  Returns 0, or -1 to ask the caller to use the
 * reference: a NaN among the values, whose place in sorted order depends
 * on the sort, a scorer outside the sample, a sum that fsum_products
 * gives back, or no memory for the sample.
 */
int piece_errors(const double *values, long count, long n, double theta,
                 long scorers, const long *at, const long *width,
                 const double *coef, double *out)
{
    double *xs, est, err;
    const double *c;
    long i, k;
    int status = 0;

    for (i = 0; i < count * n; i++)
        if (isnan(values[i]))
            return -1;
    for (k = 0; k < scorers; k++)
        if (width[k] < 0 ? at[k] < 1 : at[k] < 0 || at[k] > n - width[k])
            return -1;
    /* the sample, the merge sort's buffer, then the partials of a sum */
    xs = malloc(3 * (size_t)n * sizeof *xs);
    if (xs == NULL)
        return -1;
    for (i = 0; i < count && status == 0; i++) {
        memcpy(xs, values + i * n, (size_t)n * sizeof *xs);
        stable_sort(xs, n, xs + n);
        for (k = 0, c = coef; k < scorers; k++) {
            if (width[k] < 0) {
                est = hf7(xs, n, at[k], *c++);
            } else {
                if (!fsum_products(c, xs + at[k], width[k], xs + 2 * n,
                                   &est)) {
                    status = -1;
                    break;
                }
                c += width[k];
            }
            err = est - theta;
            out[k * count + i] = err * err;
        }
    }
    free(xs);
    return status;
}

/* the six ASCII whitespace bytes, the only separators the C parse takes */
static int is_space(unsigned char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/* the end of the run of decimal digits that starts at s */
static const char *skip_digits(const char *s, const char *end)
{
    while (s < end && *s >= '0' && *s <= '9')
        s++;
    return s;
}

/*
 * The numbers of the whitespace-separated tokens of data[0 .. len), the
 * fast path of _kernels_py.parse_floats, stored in out unless out is NULL,
 * which only counts them.  It takes only tokens of the form
 * [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?, ASCII digits d, separated by the six
 * ASCII whitespace bytes, and converts each with strtod, which rounds
 * correctly as Python's float() does.  data[len] must be readable and
 * must not be part of a number, as the NUL that ends a Python bytes
 * object is.  Returns the number of tokens, or -1 to give the input back
 * to the reference, which returns or raises what it does: any other byte
 * (non-ASCII, a control byte, a letter of inf, nan or hex, an
 * underscore), a token outside the form, a value that is not finite, or
 * a strtod that stops elsewhere than the token's end (a locale whose
 * decimal point is not '.').
 */
long parse_floats(const char *data, long len, double *out)
{
    const char *s = data, *end = data + len, *token, *mantissa;
    char *stop;
    long count = 0;
    double x;

    while (s < end) {
        if (is_space((unsigned char)*s)) {
            s++;
            continue;
        }
        token = s;
        if (*s == '+' || *s == '-')
            s++;
        mantissa = s;
        s = skip_digits(s, end);
        if (s < end && *s == '.')
            s = skip_digits(s + 1, end);
        /* no digit before or after the point */
        if (s == mantissa || (s == mantissa + 1 && *mantissa == '.'))
            return -1;
        if (s < end && (*s == 'e' || *s == 'E')) {
            s++;
            if (s < end && (*s == '+' || *s == '-'))
                s++;
            if (s == end || *s < '0' || *s > '9')
                return -1;
            s = skip_digits(s, end);
        }
        if (s < end && !is_space((unsigned char)*s))
            return -1;
        if (out != NULL) {
            x = strtod(token, &stop);
            if (stop != s || !isfinite(x))
                return -1;
            out[count] = x;
        }
        count++;
    }
    return count;
}
