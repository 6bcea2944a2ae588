/*
 * The regularized incomplete beta, the loop that turns it into a window of
 * (trimmed) Harrell-Davis weights, the bisections that invert the Beta and
 * Student t CDFs through it, the quantiles of the closed-form families
 * (with Wichura's PPND16 for the normal), the counter-based uniforms of a
 * whole simulation batch of random streams, the sort and scoring of a
 * piece of simulation samples, and the parse and sort of the numbers that
 * `trimq estimate` reads, in plain C99 for trimq/_kernels_c.py, which
 * builds this file and loads it with ctypes.
 *
 * Every function is a port of its reference in trimq/_kernels_py.py:
 * reg_inc_beta and its Lentz fraction _beta_cont_frac, weight_window,
 * quantiles, the one inversion behind beta_quantiles and student_quantiles,
 * with their bisection _bisect_cdf, the bracket of _invert_unbounded and the
 * Student t bounds, closed_quantiles with the formulas of _CLOSED, its
 * normal quantile a copy of CPython 3.11's _statistics._normal_dist_inv_cdf
 * (the reference's statistics.NormalDist.inv_cdf), its ** the cases of
 * CPython's float_pow that reach the platform pow, batch_uniforms with the
 * draw loop of stream_uniforms, the FNV-1a fold fnv1a64 and the finalizer
 * _mix64, piece_errors with HF7 (_hf7) and the weighted sum
 * (weighted_sum), its math.fsum a port of CPython 3.11's, which
 * weighted_sum exports on its own over a window of a sorted array, a
 * stable sort in place of sorted(), which sort_floats exports on its own,
 * and parse_floats, which converts a token by Clinger's or Eisel-Lemire's
 * exact fast path, or else with strtod, each rounding correctly as
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
 * from reg_inc_beta or weighted_sum, -1 from piece_errors, sort_floats or
 * parse_floats, or, from weight_window, a batch inversion and
 * closed_quantiles, the index it stopped at.  The caller then hands the
 * call, the rest of the batch, or the one incomplete beta the window
 * stopped at, to the namesake reference, which raises the error itself or
 * returns what it does.  That happens when the fraction does not converge
 * within max_iter terms, when exp(front) is not finite (math.exp raises
 * OverflowError where C returns inf), in the bisections when a CDF value
 * is NaN, at a Student t p that is not positive or whose quantile lies
 * past the square root of the largest double, in closed_quantiles at a p
 * outside (0, 1) or NaN, a quantile that is not finite (math.exp and **
 * raise where C returns inf, and the reference's array stops there) and a
 * power that CPython's float_pow treats itself, in piece_errors and
 * sort_floats when a value is NaN (its place in sorted order depends on
 * the sort), in piece_errors and weighted_sum when a weighted sum meets a
 * product that is not finite or overflows (math.fsum's special values and
 * OverflowError), and in parse_floats on any input but plain ASCII
 * decimal numbers that are finite.
 *
 * No state outlives a call: the inversions' memo lives on the stack of
 * its call, and the sort, scoring and sum buffers are allocated and freed
 * by the call that uses them, so threads may call every entry point at once
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

/*
 * The closed-form families of closed_quantiles, numbered in the order of
 * _kernels_py._CLOSED.
 */
enum { UNIFORM, TRIANGULAR, NORMAL, LOGNORMAL, WEIBULL, GUMBEL, EXP, CAUCHY,
       PARETO, FRECHET };

/* math.pi */
#define PI 3.141592653589793

/*
 * The coefficients of Wichura's PPND16 (AS241, 1988) as CPython 3.11's
 * statistics module spells them, each the double of its repr() there:
 * the numerators and denominators of the centre |p - 0.5| <= 0.425, of the
 * near tails (r = sqrt(-log(min(p, 1 - p))) <= 5) and of the far tails,
 * the coefficient of r**k at index k.
 */
static const double PPND_CENTRE_NUM[8] = {
    3.3871328727963665, 133.14166789178438, 1971.5909503065513,
    13731.69376550946, 45921.95393154987, 67265.7709270087, 33430.57558358813,
    2509.0809287301227
};
static const double PPND_CENTRE_DEN[8] = {
    1.0, 42.31333070160091, 687.1870074920579, 5394.196021424751,
    21213.794301586597, 39307.89580009271, 28729.085735721943,
    5226.495278852854
};
static const double PPND_NEAR_NUM[8] = {
    1.4234371107496835, 4.630337846156546, 5.769497221460691,
    3.6478483247632045, 1.2704582524523684, 0.2417807251774506,
    0.022723844989269184, 0.0007745450142783414
};
static const double PPND_NEAR_DEN[8] = {
    1.0, 2.053191626637759, 1.6763848301838038, 0.6897673349851,
    0.14810397642748008, 0.015198666563616457, 0.0005475938084995345,
    1.0507500716444169e-09
};
static const double PPND_FAR_NUM[8] = {
    6.657904643501103, 5.463784911164114, 1.7848265399172913,
    0.29656057182850487, 0.026532189526576124, 0.0012426609473880784,
    2.7115555687434876e-05, 2.0103343992922881e-07
};
static const double PPND_FAR_DEN[8] = {
    1.0, 0.599832206555888, 0.1369298809227358, 0.014875361290850615,
    0.0007868691311456133, 1.8463183175100548e-05, 1.421511758316446e-07,
    2.0442631033899397e-15
};

/*
 * The polynomial of the coefficients c[0 .. 8) at r, by Horner's rule from
 * c[7]: PPND16's nested products and sums, in their order.
 */
static double horner(const double *c, double r)
{
    double h = c[7];
    int k;

    for (k = 6; k >= 0; k--)
        h = h * r + c[k];
    return h;
}

/*
 * mu + x sigma, x the standard normal quantile of p in (0, 1) by PPND16:
 * the statements of CPython 3.11's _statistics._normal_dist_inv_cdf, the
 * function behind statistics.NormalDist.inv_cdf.
 */
static double normal_quantile(double p, double mu, double sigma)
{
    double q = p - 0.5, r, x;

    if (fabs(q) <= 0.425) {
        r = 0.180625 - q * q;
        x = horner(PPND_CENTRE_NUM, r) * q / horner(PPND_CENTRE_DEN, r);
        return mu + x * sigma;
    }
    r = q <= 0.0 ? p : 1.0 - p;
    r = sqrt(-log(r));
    if (r <= 5.0) {
        r = r - 1.6;
        x = horner(PPND_NEAR_NUM, r) / horner(PPND_NEAR_DEN, r);
    } else {
        r = r - 5.0;
        x = horner(PPND_FAR_NUM, r) / horner(PPND_FAR_DEN, r);
    }
    if (q < 0.0)
        x = -x;
    return mu + x * sigma;
}

/*
 * x ** y where CPython's float_pow hands it to the platform pow, for x
 * finite and above 0 and y finite (its own x == 1 and y == 0 cases give
 * pow's 1.0); NaN, which closed_quantiles gives back, in every case that
 * float_pow treats itself.
 */
static double float_pow(double x, double y)
{
    if (!(x > 0.0 && isfinite(x) && isfinite(y)))
        return NAN;
    return pow(x, y);
}

/*
 * A closed-form family at its parameters: a and b the first two, b - a,
 * and what else does not depend on p, worked out once as the functions of
 * _kernels_py._CLOSED work it out.
 */
typedef struct {
    long kind;
    double a, b, ba, ca, bc, split, power;
} Closed;

/* the quantile of p in (0, 1): the formula of _kernels_py._CLOSED */
static double closed_quantile(const Closed *f, double p)
{
    switch (f->kind) {
    case UNIFORM: /* a, b */
        return f->a + f->ba * p;
    case TRIANGULAR: /* a, b, c */
        return p < f->split ? f->a + sqrt(p * f->ba * f->ca)
                            : f->b - sqrt((1.0 - p) * f->ba * f->bc);
    case NORMAL: /* m, sd */
        return normal_quantile(p, f->a, f->b);
    case LOGNORMAL: /* mlog, sdlog */
        return exp(normal_quantile(p, f->a, f->b));
    case WEIBULL: /* scale, shape */
        return f->a * float_pow(-log1p(-p), f->power);
    case GUMBEL: /* loc, scale */
        return f->a - f->b * log(-log(p));
    case EXP: /* rate */
        return -log1p(-p) / f->a;
    case CAUCHY: /* x0, gamma */
        return f->a + f->b * tan(PI * (p - 0.5));
    case PARETO: /* loc, shape */
        return f->a * float_pow(1.0 - p, f->power);
    default: /* FRECHET: shape */
        return float_pow(-log(p), f->power);
    }
}

/*
 * ps[i] replaced by its quantile under the closed-form family `kind` at
 * the parameters params, as many as the family has, for i < count: the
 * formulas of _kernels_py._CLOSED, the same libm calls in the same order.
 * Returns count, or the index of the first p given back, that p and those
 * after it left as they are: a p outside (0, 1) or NaN, a quantile that
 * is not finite (where math.exp or ** raises OverflowError, or arithmetic
 * gives an infinity or a NaN), and a power that float_pow treats itself.
 * A kind that is no family gives back every p.
 */
long closed_quantiles(long kind, const double *params, double *ps,
                      long count)
{
    Closed f = {0};
    double x;
    long i;

    f.kind = kind;
    f.a = params[0];
    switch (kind) {
    case UNIFORM:
        f.ba = params[1] - f.a;
        break;
    case TRIANGULAR:
        f.b = params[1];
        f.ba = f.b - f.a;
        f.ca = params[2] - f.a;
        f.bc = f.b - params[2];
        f.split = f.ca / f.ba;
        break;
    case NORMAL:
    case LOGNORMAL:
    case GUMBEL:
    case CAUCHY:
        f.b = params[1];
        break;
    case WEIBULL:
        f.power = 1.0 / params[1];
        break;
    case PARETO:
        f.power = -1.0 / params[1];
        break;
    case FRECHET:
        f.power = -1.0 / f.a;
        break;
    case EXP:
        break;
    default:
        return 0;
    }
    for (i = 0; i < count; i++) {
        if (!(ps[i] > 0.0 && ps[i] < 1.0))
            return i;
        x = closed_quantile(&f, ps[i]);
        if (!isfinite(x))
            return i;
        ps[i] = x;
    }
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
 * The sum of ws[k] * xs[k] for k < len, _kernels_py.weighted_sum over a
 * window of sorted values whose first is xs[0]: fsum_products' sum, or
 * NaN to give the sum back (a product that is not finite, an overflow,
 * or no memory for the partials).
 */
double weighted_sum(const double *ws, const double *xs, long len)
{
    double *p, sum = NAN;

    p = malloc(((size_t)len + 1) * sizeof *p);
    if (p != NULL && !fsum_products(ws, xs, len, p, &sum))
        sum = NAN;
    free(p);
    return sum;
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
 * The exact fast paths of parse_floats.  A token of its form is w * 10^q
 * with w the integer of its significant digits (the mantissa's digits,
 * its leading zeros dropped) and q its exponent less the digits after the
 * point.  Where w has at most FAST_DIGITS digits, so w < 10^19 < 2^64,
 * two exact conversions come before strtod: Clinger's (How to Read
 * Floating Point Numbers Accurately, PLDI 1990), which for w <= 2^53 and
 * |q| <= 22 takes one correctly rounded multiply or divide of two exact
 * doubles, and Eisel-Lemire's (D. Lemire, Number Parsing at a Gigabyte
 * per Second, Software: Practice and Experience 51(8), 2021), which for
 * q in [POW10_MIN, POW10_MAX] rounds w * 10^q from the top of a 128-bit
 * product.  Each stores the double that strtod returns, or declines;
 * strtod converts every token they decline: more than FAST_DIGITS
 * significant digits, q outside the table or an exponent of EXP_CAP or
 * more, a subnormal or overflowing result, and Eisel-Lemire's ambiguous
 * cases.  The products are formed from 32-bit halves, in plain C99.
 */

/* the significant digits the fast paths take */
#define FAST_DIGITS 19

/* an exponent, or a count of digits after the point, from which a token
   goes to strtod: far past the table, and no long overflows below it */
#define EXP_CAP 100000

/* 10^0 .. 10^22, every one a double exactly */
static const double POW10_EXACT[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* the powers of ten of the Eisel-Lemire path: q in [-64, 64], beyond
   which tokens are rare in data and go to strtod */
#define POW10_MIN (-64)
#define POW10_MAX 64

/*
 * Row q - POW10_MIN: the high and the low 64 bits of the 128-bit
 * T_q = floor(10^q * 2^(127 - e_q)), e_q = floor(log2 10^q), so that
 * 2^127 <= T_q < 2^128: the leading 128 bits of 10^q, rounded down.
 */
static const uint64_t POW10_128[][2] = {
    {0xa87fea27a539e9a5u, 0x3f2398d747b36224u},
    {0xd29fe4b18e88640eu, 0x8eec7f0d19a03aadu},
    {0x83a3eeeef9153e89u, 0x1953cf68300424acu},
    {0xa48ceaaab75a8e2bu, 0x5fa8c3423c052dd7u},
    {0xcdb02555653131b6u, 0x3792f412cb06794du},
    {0x808e17555f3ebf11u, 0xe2bbd88bbee40bd0u},
    {0xa0b19d2ab70e6ed6u, 0x5b6aceaeae9d0ec4u},
    {0xc8de047564d20a8bu, 0xf245825a5a445275u},
    {0xfb158592be068d2eu, 0xeed6e2f0f0d56712u},
    {0x9ced737bb6c4183du, 0x55464dd69685606bu},
    {0xc428d05aa4751e4cu, 0xaa97e14c3c26b886u},
    {0xf53304714d9265dfu, 0xd53dd99f4b3066a8u},
    {0x993fe2c6d07b7fabu, 0xe546a8038efe4029u},
    {0xbf8fdb78849a5f96u, 0xde98520472bdd033u},
    {0xef73d256a5c0f77cu, 0x963e66858f6d4440u},
    {0x95a8637627989aadu, 0xdde7001379a44aa8u},
    {0xbb127c53b17ec159u, 0x5560c018580d5d52u},
    {0xe9d71b689dde71afu, 0xaab8f01e6e10b4a6u},
    {0x9226712162ab070du, 0xcab3961304ca70e8u},
    {0xb6b00d69bb55c8d1u, 0x3d607b97c5fd0d22u},
    {0xe45c10c42a2b3b05u, 0x8cb89a7db77c506au},
    {0x8eb98a7a9a5b04e3u, 0x77f3608e92adb242u},
    {0xb267ed1940f1c61cu, 0x55f038b237591ed3u},
    {0xdf01e85f912e37a3u, 0x6b6c46dec52f6688u},
    {0x8b61313bbabce2c6u, 0x2323ac4b3b3da015u},
    {0xae397d8aa96c1b77u, 0xabec975e0a0d081au},
    {0xd9c7dced53c72255u, 0x96e7bd358c904a21u},
    {0x881cea14545c7575u, 0x7e50d64177da2e54u},
    {0xaa242499697392d2u, 0xdde50bd1d5d0b9e9u},
    {0xd4ad2dbfc3d07787u, 0x955e4ec64b44e864u},
    {0x84ec3c97da624ab4u, 0xbd5af13bef0b113eu},
    {0xa6274bbdd0fadd61u, 0xecb1ad8aeacdd58eu},
    {0xcfb11ead453994bau, 0x67de18eda5814af2u},
    {0x81ceb32c4b43fcf4u, 0x80eacf948770ced7u},
    {0xa2425ff75e14fc31u, 0xa1258379a94d028du},
    {0xcad2f7f5359a3b3eu, 0x096ee45813a04330u},
    {0xfd87b5f28300ca0du, 0x8bca9d6e188853fcu},
    {0x9e74d1b791e07e48u, 0x775ea264cf55347du},
    {0xc612062576589ddau, 0x95364afe032a819du},
    {0xf79687aed3eec551u, 0x3a83ddbd83f52204u},
    {0x9abe14cd44753b52u, 0xc4926a9672793542u},
    {0xc16d9a0095928a27u, 0x75b7053c0f178293u},
    {0xf1c90080baf72cb1u, 0x5324c68b12dd6338u},
    {0x971da05074da7beeu, 0xd3f6fc16ebca5e03u},
    {0xbce5086492111aeau, 0x88f4bb1ca6bcf584u},
    {0xec1e4a7db69561a5u, 0x2b31e9e3d06c32e5u},
    {0x9392ee8e921d5d07u, 0x3aff322e62439fcfu},
    {0xb877aa3236a4b449u, 0x09befeb9fad487c2u},
    {0xe69594bec44de15bu, 0x4c2ebe687989a9b3u},
    {0x901d7cf73ab0acd9u, 0x0f9d37014bf60a10u},
    {0xb424dc35095cd80fu, 0x538484c19ef38c94u},
    {0xe12e13424bb40e13u, 0x2865a5f206b06fb9u},
    {0x8cbccc096f5088cbu, 0xf93f87b7442e45d3u},
    {0xafebff0bcb24aafeu, 0xf78f69a51539d748u},
    {0xdbe6fecebdedd5beu, 0xb573440e5a884d1bu},
    {0x89705f4136b4a597u, 0x31680a88f8953030u},
    {0xabcc77118461cefcu, 0xfdc20d2b36ba7c3du},
    {0xd6bf94d5e57a42bcu, 0x3d32907604691b4cu},
    {0x8637bd05af6c69b5u, 0xa63f9a49c2c1b10fu},
    {0xa7c5ac471b478423u, 0x0fcf80dc33721d53u},
    {0xd1b71758e219652bu, 0xd3c36113404ea4a8u},
    {0x83126e978d4fdf3bu, 0x645a1cac083126e9u},
    {0xa3d70a3d70a3d70au, 0x3d70a3d70a3d70a3u},
    {0xccccccccccccccccu, 0xccccccccccccccccu},
    {0x8000000000000000u, 0x0000000000000000u},
    {0xa000000000000000u, 0x0000000000000000u},
    {0xc800000000000000u, 0x0000000000000000u},
    {0xfa00000000000000u, 0x0000000000000000u},
    {0x9c40000000000000u, 0x0000000000000000u},
    {0xc350000000000000u, 0x0000000000000000u},
    {0xf424000000000000u, 0x0000000000000000u},
    {0x9896800000000000u, 0x0000000000000000u},
    {0xbebc200000000000u, 0x0000000000000000u},
    {0xee6b280000000000u, 0x0000000000000000u},
    {0x9502f90000000000u, 0x0000000000000000u},
    {0xba43b74000000000u, 0x0000000000000000u},
    {0xe8d4a51000000000u, 0x0000000000000000u},
    {0x9184e72a00000000u, 0x0000000000000000u},
    {0xb5e620f480000000u, 0x0000000000000000u},
    {0xe35fa931a0000000u, 0x0000000000000000u},
    {0x8e1bc9bf04000000u, 0x0000000000000000u},
    {0xb1a2bc2ec5000000u, 0x0000000000000000u},
    {0xde0b6b3a76400000u, 0x0000000000000000u},
    {0x8ac7230489e80000u, 0x0000000000000000u},
    {0xad78ebc5ac620000u, 0x0000000000000000u},
    {0xd8d726b7177a8000u, 0x0000000000000000u},
    {0x878678326eac9000u, 0x0000000000000000u},
    {0xa968163f0a57b400u, 0x0000000000000000u},
    {0xd3c21bcecceda100u, 0x0000000000000000u},
    {0x84595161401484a0u, 0x0000000000000000u},
    {0xa56fa5b99019a5c8u, 0x0000000000000000u},
    {0xcecb8f27f4200f3au, 0x0000000000000000u},
    {0x813f3978f8940984u, 0x4000000000000000u},
    {0xa18f07d736b90be5u, 0x5000000000000000u},
    {0xc9f2c9cd04674edeu, 0xa400000000000000u},
    {0xfc6f7c4045812296u, 0x4d00000000000000u},
    {0x9dc5ada82b70b59du, 0xf020000000000000u},
    {0xc5371912364ce305u, 0x6c28000000000000u},
    {0xf684df56c3e01bc6u, 0xc732000000000000u},
    {0x9a130b963a6c115cu, 0x3c7f400000000000u},
    {0xc097ce7bc90715b3u, 0x4b9f100000000000u},
    {0xf0bdc21abb48db20u, 0x1e86d40000000000u},
    {0x96769950b50d88f4u, 0x1314448000000000u},
    {0xbc143fa4e250eb31u, 0x17d955a000000000u},
    {0xeb194f8e1ae525fdu, 0x5dcfab0800000000u},
    {0x92efd1b8d0cf37beu, 0x5aa1cae500000000u},
    {0xb7abc627050305adu, 0xf14a3d9e40000000u},
    {0xe596b7b0c643c719u, 0x6d9ccd05d0000000u},
    {0x8f7e32ce7bea5c6fu, 0xe4820023a2000000u},
    {0xb35dbf821ae4f38bu, 0xdda2802c8a800000u},
    {0xe0352f62a19e306eu, 0xd50b2037ad200000u},
    {0x8c213d9da502de45u, 0x4526f422cc340000u},
    {0xaf298d050e4395d6u, 0x9670b12b7f410000u},
    {0xdaf3f04651d47b4cu, 0x3c0cdd765f114000u},
    {0x88d8762bf324cd0fu, 0xa5880a69fb6ac800u},
    {0xab0e93b6efee0053u, 0x8eea0d047a457a00u},
    {0xd5d238a4abe98068u, 0x72a4904598d6d880u},
    {0x85a36366eb71f041u, 0x47a6da2b7f864750u},
    {0xa70c3c40a64e6c51u, 0x999090b65f67d924u},
    {0xd0cf4b50cfe20765u, 0xfff4b4e3f741cf6du},
    {0x82818f1281ed449fu, 0xbff8f10e7a8921a4u},
    {0xa321f2d7226895c7u, 0xaff72d52192b6a0du},
    {0xcbea6f8ceb02bb39u, 0x9bf4f8a69f764490u},
    {0xfee50b7025c36a08u, 0x02f236d04753d5b4u},
    {0x9f4f2726179a2245u, 0x01d762422c946590u},
    {0xc722f0ef9d80aad6u, 0x424d3ad2b7b97ef5u},
    {0xf8ebad2b84e0d58bu, 0xd2e0898765a7deb2u},
    {0x9b934c3b330c8577u, 0x63cc55f49f88eb2fu},
    {0xc2781f49ffcfa6d5u, 0x3cbf6b71c76b25fbu},
};

/* e_q = floor(log2 10^q) = floor(217706 q / 2^16) for |q| <= 64 */
static long pow10_exponent(long q)
{
    long t = 217706 * q;

    return t >= 0 ? t / 65536 : -((65535 - t) / 65536);
}

/* the 128-bit product a * b in *hi and *lo, from 32-bit halves */
static void mul_64x64(uint64_t a, uint64_t b, uint64_t *hi, uint64_t *lo)
{
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32;
    uint64_t b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);

    *lo = mid << 32 | (p00 & 0xFFFFFFFFu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* the number of leading zero bits of w > 0 */
static int leading_zeros(uint64_t w)
{
    int n = 0;

    if (!(w >> 32)) {
        n += 32;
        w <<= 32;
    }
    if (!(w >> 48)) {
        n += 16;
        w <<= 16;
    }
    if (!(w >> 56)) {
        n += 8;
        w <<= 8;
    }
    if (!(w >> 60)) {
        n += 4;
        w <<= 4;
    }
    if (!(w >> 62)) {
        n += 2;
        w <<= 2;
    }
    return n + !(w >> 63);
}

/*
 * w * 10^q rounded to the nearest double, ties to even, for 0 < w < 2^64,
 * negated if negative: Eisel-Lemire.  With N = w shifted left until its
 * top bit is set, the exact product P = N * 10^q * 2^(127 - e_q) lies in
 * [2^190, 2^192), and the double's 54 leading bits (the 53 kept and the
 * rounding bit) are those of P / 2^128 from its bit 9 or 10.  N * T_q's
 * high 128 bits (hi, lo) fall short of P / 2^64 by less than N, since T_q
 * falls short of its real value by less than 1; so a carry from below can
 * reach the bits kept only when bits 0 .. 8 of hi are all set and lo + N
 * carries.  Then the product of N and T_q's low 64 bits is added, which
 * leaves hi:lo short of P / 2^64 by less than 2, and the case is still
 * ambiguous when those bits are set, lo is all ones and its low 64 bits
 * plus N carry.  A tie needs every bit of P below the rounding bit clear,
 * which hi:lo cannot tell from just above a tie when its bits there are
 * clear.  Returns 1 and stores the double in *x, or 0 to leave the token
 * to strtod: q outside the table, those two ambiguous cases, or a result
 * that is subnormal or past the largest double.
 */
static int eisel_lemire(uint64_t w, long q, int negative, double *x)
{
    const uint64_t *t;
    uint64_t hi, lo, low_hi, low_lo, m, bits;
    long e;
    int lz, msb;

    if (q < POW10_MIN || q > POW10_MAX)
        return 0;
    t = POW10_128[q - POW10_MIN];
    lz = leading_zeros(w);
    w <<= lz;
    mul_64x64(w, t[0], &hi, &lo);
    if ((hi & 0x1FF) == 0x1FF && lo + w < w) {
        mul_64x64(w, t[1], &low_hi, &low_lo);
        lo += low_hi;
        if (lo < low_hi)
            hi++;
        if ((hi & 0x1FF) == 0x1FF && lo + 1 == 0 && low_lo + w < w)
            return 0;
    }
    msb = (int)(hi >> 63);
    m = hi >> (msb + 9);
    if (lo == 0 && (hi & 0x1FF) == 0 && (m & 3) == 1)
        return 0;
    /* round the 54 bits to 53, half up: a tie, to even, left above */
    m += m & 1;
    m >>= 1;
    e = pow10_exponent(q) + 1086 + msb - lz;
    if (m >> 53) {
        m >>= 1;
        e++;
    }
    if (e <= 0 || e >= 0x7FF)
        return 0;
    bits = (uint64_t)e << 52 | (m & (((uint64_t)1 << 52) - 1))
           | (uint64_t)negative << 63;
    memcpy(x, &bits, sizeof *x);
    return 1;
}

/*
 * The token [s, end) of parse_floats' form, already checked, as the
 * double strtod returns for it, in *x, by an exact fast path: 1, or 0
 * when neither path decides it.  A w of 0 is a zero of the token's sign.
 */
static int fast_decimal(const char *s, const char *end, double *x)
{
    const char *first, *point;
    uint64_t w = 0;
    long digits, q = 0, e = 0;
    int negative = 0, negative_e = 0;

    if (*s == '+' || *s == '-')
        negative = *s++ == '-';
    while (s < end && *s == '0')
        s++;  /* leading zeros */
    for (first = s; s < end && *s >= '0' && *s <= '9'; s++)
        w = 10 * w + (uint64_t)(*s - '0');
    digits = (long)(s - first);
    if (s < end && *s == '.') {
        point = ++s;
        if (digits == 0)
            while (s < end && *s == '0')
                s++;  /* leading zeros after the point */
        for (first = s; s < end && *s >= '0' && *s <= '9'; s++)
            w = 10 * w + (uint64_t)(*s - '0');
        if (s - point >= EXP_CAP)
            return 0;
        digits += (long)(s - first);
        q = -(long)(s - point);
    }
    /* w wrapped around past FAST_DIGITS digits, and is not used */
    if (digits > FAST_DIGITS)
        return 0;
    if (s < end) {  /* the exponent */
        s++;
        if (*s == '+' || *s == '-')
            negative_e = *s++ == '-';
        for (; s < end; s++) {
            e = 10 * e + (*s - '0');
            if (e >= EXP_CAP)
                return 0;
        }
        q += negative_e ? -e : e;
    }
    if (w == 0) {
        *x = negative ? -0.0 : 0.0;
        return 1;
    }
    if (FLT_EVAL_METHOD == 0 && w <= (uint64_t)1 << 53 && q >= -22
            && q <= 22) {
        *x = (double)w;
        *x = q < 0 ? *x / POW10_EXACT[-q] : *x * POW10_EXACT[q];
        if (negative)
            *x = -*x;
        return 1;
    }
    return eisel_lemire(w, q, negative, x);
}

/*
 * The numbers of the whitespace-separated tokens of data[0 .. len), the
 * fast path of _kernels_py.parse_floats, stored in out unless out is NULL,
 * which only counts them.  It takes only tokens of the form
 * [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?, ASCII digits d, separated by the six
 * ASCII whitespace bytes, and converts each by an exact fast path
 * (fast_decimal) or else with strtod, both rounding correctly as Python's
 * float() does.  data[len] must be readable and
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
            if (!fast_decimal(token, s, &x)) {
                x = strtod(token, &stop);
                if (stop != s || !isfinite(x))
                    return -1;
            }
            out[count] = x;
        }
        count++;
    }
    return count;
}
