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
 * The incomplete beta has one implementation, a lane core that evaluates
 * it at up to LANES points at once, each lane running the reference's
 * statements in their order, so that the chains of divisions of the
 * points overlap: reg_inc_beta is the core at one lane, weight_window
 * takes its indices LANES at a time, and the batch inversions hold one p
 * per lane, as a state machine of bracket doubling and bisection, a lane
 * that is done taking the next p.  Every batch inversion keeps a memo
 * for the call: the CDF values of each p's first evaluations, which
 * the p of a batch share, indexed by the lane's path, the outcomes of its
 * comparisons so far, which fix the point, so that a value found there is
 * the double the core would return.
 *
 * Past those evaluations a bisecting lane tries once to certify a band
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
 * A lane does not try, and bisects as the reference does, where the bound
 * is not stated: when the fraction's term count at its switch point, with
 * headroom, passes max_iter, when the bracket crosses the fraction's
 * switch or t = 0, has an end at 0 or 1, or when rho passes 2**-30; a
 * certificate value inside the margin, or a NaN, ends the try the same
 * way.  Built with -DCHECK_CERTIFIED, as the tests build it, quantiles
 * also evaluates every midpoint it decides and aborts if the value
 * disagrees, and counts the certificates taken and failed.
 *
 * Where the reference raises, the port gives the case back instead: a NaN
 * from reg_inc_beta, -1 from piece_errors, sort_floats or parse_floats,
 * or, from weight_window and a batch inversion, the index it stopped at.
 * The caller then hands the call, the rest of the batch, or the one
 * incomplete beta the window stopped at, to the namesake reference, which
 * raises the error itself.  That happens when the fraction does not
 * converge within max_iter terms, when exp(front) is not finite (math.exp
 * raises OverflowError where C returns inf), in the bisections when a CDF
 * value is NaN or a bracket end passes the largest double, at a Student
 * t p whose quantile lies past the square root of the largest double, in
 * piece_errors and sort_floats when a value is NaN (its place in sorted
 * order depends on the sort) or a weighted sum meets a product that is
 * not finite or overflows (math.fsum's special values and
 * OverflowError), and in parse_floats on any input but plain ASCII
 * decimal numbers that are finite.
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

/* the points the incomplete-beta core evaluates at once; at least the two
   Student t bounds of a batch inversion */
#define LANES 4

/* the evaluations of each p that a batch inversion's memo holds */
#define MEMO_DEPTH 12

/*
 * I_x(a, b) at the count <= LANES points x[k], into out[k], with log_norm =
 * ln(1 / B(a, b)) as _kernels_py._log_norm computes it.  Each lane runs the
 * statements of _kernels_py.reg_inc_beta and of its modified Lentz
 * recurrence, _beta_cont_frac, in their order, so out[k] is the double that
 * reg_inc_beta(x[k], a, b) returns; the lanes' chains of divisions, each
 * waiting on the one before, overlap.  The fraction of (a', b', x') is
 * (a, b, x) below the mean and (b, a, 1 - x) above it, its term m being
 * m (b' - m) x' / ((a' - 1 + 2m)(a' + 2m)), then
 * -(a' + m)(a' + b' + m) x' / ((a' + 2m)(a' + 1 + 2m)).  NaN asks the
 * caller to use the reference: a fraction that does not converge within
 * max_iter terms, or an exp(front) that is not finite.  terms[k], unless
 * terms is NULL, gets the number of terms of fraction k where it converges.
 */
static void inc_beta_lanes(int count, const double *x, double a, double b,
                           double log_norm, long max_iter, double *out,
                           int *terms)
{
    double fa[LANES], fb[LANES], fx[LANES], qab[LANES], qap[LANES];
    double qam[LANES], scale[LANES], c[LANES], d[LANES], h[LANES];
    double m, m2, am2, aa, delta;
    unsigned todo = 0, upper = 0;
    long i;
    int k;

    for (k = 0; k < count; k++) {
        out[k] = x[k] <= 0.0 ? 0.0 : x[k] >= 1.0 ? 1.0 : NAN;
        if (!isnan(out[k]))
            continue;
        scale[k] = exp(log_norm + a * log(x[k]) + b * log1p(-x[k]));
        if (!isfinite(scale[k]))
            continue;
        if (x[k] < (a + 1.0) / (a + b + 2.0)) {
            fa[k] = a;
            fb[k] = b;
            fx[k] = x[k];
        } else {
            /* I_x(a, b) = 1 - I_{1-x}(b, a) */
            fa[k] = b;
            fb[k] = a;
            fx[k] = 1.0 - x[k];
            upper |= 1u << k;
        }
        qab[k] = fa[k] + fb[k];
        qap[k] = fa[k] + 1.0;
        qam[k] = fa[k] - 1.0;
        c[k] = 1.0;
        d[k] = 1.0 - qab[k] * fx[k] / qap[k];
        if (-FPMIN < d[k] && d[k] < FPMIN)
            d[k] = FPMIN;
        d[k] = 1.0 / d[k];
        h[k] = d[k];
        todo |= 1u << k;
    }
    for (i = 1; todo && i <= max_iter; i++) {
        m = (double)i;
        m2 = m + m;
        for (k = 0; k < count; k++) {
            if (!(todo >> k & 1u))
                continue;
            am2 = fa[k] + m2;
            aa = m * (fb[k] - m) * fx[k] / ((qam[k] + m2) * am2);
            d[k] = 1.0 + aa * d[k];
            if (-FPMIN < d[k] && d[k] < FPMIN)
                d[k] = FPMIN;
            c[k] = 1.0 + aa / c[k];
            if (-FPMIN < c[k] && c[k] < FPMIN)
                c[k] = FPMIN;
            d[k] = 1.0 / d[k];
            h[k] *= d[k] * c[k];
            aa = -(fa[k] + m) * (qab[k] + m) * fx[k] / (am2 * (qap[k] + m2));
            d[k] = 1.0 + aa * d[k];
            if (-FPMIN < d[k] && d[k] < FPMIN)
                d[k] = FPMIN;
            c[k] = 1.0 + aa / c[k];
            if (-FPMIN < c[k] && c[k] < FPMIN)
                c[k] = FPMIN;
            d[k] = 1.0 / d[k];
            delta = d[k] * c[k];
            h[k] *= delta;
            if (-CF_TOL < delta - 1.0 && delta - 1.0 < CF_TOL) {
                out[k] = upper >> k & 1u ? 1.0 - scale[k] * h[k] / fa[k]
                                         : scale[k] * h[k] / fa[k];
                if (terms != NULL)
                    terms[k] = (int)i;
                todo &= ~(1u << k);
            }
        }
    }
}

/*
 * Regularized incomplete beta I_x(a, b) for x in [0, 1]: the core at one
 * lane.  NaN asks the caller to use the reference.
 */
double reg_inc_beta(double x, double a, double b, double log_norm,
                    long max_iter)
{
    double y;

    inc_beta_lanes(1, &x, a, b, log_norm, max_iter, &y, NULL);
    return y;
}

/*
 * The weights of order statistics i_lo + 1 .. i_hi of a sample of n, the
 * loop of _kernels_py.weight_window: out[i - i_lo - 1] = F(i/n) -
 * F((i-1)/n), or 0.0 where that is not positive, with F(x) = (I_x(a, b) -
 * cdf_lower) / denom clamped to [0, 1], 0 at or below lower and 1 at or
 * above upper.  support[0] and support[1] get the 1-based indices of the
 * first and last positive weight, 0 and 0 when none is.  i / n rounds as
 * Python's int division does for n < 2**53.  The incomplete betas of each
 * LANES consecutive indices are one core call.  Returns i_hi + 1 when the
 * window is done, or else the index i whose I_{i/n}(a, b) it gives back to
 * the caller, every index before it having converged.
 */
long weight_window(long n, long i_lo, long i_hi, double a, double b,
                   double lower, double upper, double cdf_lower,
                   double denom, double log_norm, long max_iter, double *out,
                   long *support)
{
    double x[LANES], inside[LANES], inc[LANES], cur, prev = 0.0, w;
    long i, base;
    int k, width, used;

    support[0] = support[1] = 0;
    for (base = i_lo; base <= i_hi; base += LANES) {
        width = i_hi - base < LANES ? (int)(i_hi - base + 1) : LANES;
        used = 0;
        for (k = 0; k < width; k++) {
            x[k] = (double)(base + k) / (double)n;
            if (!(x[k] <= lower) && !(x[k] >= upper))
                inside[used++] = x[k];
        }
        inc_beta_lanes(used, inside, a, b, log_norm, max_iter, inc, NULL);
        used = 0;
        for (k = 0; k < width; k++) {
            i = base + k;
            if (x[k] <= lower) {
                cur = 0.0;
            } else if (x[k] >= upper) {
                cur = 1.0;
            } else {
                cur = inc[used++];
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
 * every point (certify_start adds the part that grows with the point); 0
 * when no lane of the call certifies.
 */
typedef struct {
    double a, b, df, log_norm, split, rho;
    long max_iter;
} Curve;

/*
 * The CDF values f[k] at the count <= LANES points t[k], in one core call:
 * I_t(a, b) when df is 0, or else the Student t CDF at df degrees of
 * freedom of _kernels_py.student_quantiles, the tail beyond |t| being
 * I_{df / (df + t^2)}(a, b) / 2.
 */
static void cdf_lanes(int count, const double *t, const Curve *c, double *f)
{
    double x[LANES] = {0.0}, tail; /* set whole: only x[0 .. count) is read */
    int k;

    if (c->df == 0.0) {
        inc_beta_lanes(count, t, c->a, c->b, c->log_norm, c->max_iter, f,
                       NULL);
        return;
    }
    for (k = 0; k < count; k++)
        x[k] = c->df / (c->df + t[k] * t[k]);
    inc_beta_lanes(count, x, c->a, c->b, c->log_norm, c->max_iter, f, NULL);
    for (k = 0; k < count; k++) {
        tail = 0.5 * f[k];
        f[k] = t[k] >= 0.0 ? 1.0 - tail : tail;
    }
}

/* the unit roundoff, 2**-53 */
#define UNIT 0x1p-53

/* the largest relative error bound under which a lane certifies */
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
 * log1p within an ulp; certify_start adds it for the lane's bracket.  For
 * the Student t, x = df / (df + t^2) rounds monotonically in |t|, so
 * T'(x(t)) stays monotone on either side of t = 0 and needs no margin.
 *
 * N bounds the terms at every point: the fraction converges slowest near
 * the switch, so N is twice the larger count of its two sides there, plus
 * 8 (the count peaks up to half again higher a little off the switch at
 * large shapes).  Where N passes max_iter, or the switch does not
 * converge, rho is 0 and no lane certifies; otherwise every point of the
 * curve converges, the midpoints a certificate skips among them.
 */
static void curve_init(Curve *c, double a, double b, double df,
                       double log_norm, long max_iter)
{
    double x[2], f[2];
    int terms[2];
    double n;

    c->a = a;
    c->b = b;
    c->df = df;
    c->log_norm = log_norm;
    c->max_iter = max_iter;
    c->split = (a + 1.0) / (a + b + 2.0);
    c->rho = 0.0;
    x[0] = nextafter(c->split, 0.0);
    x[1] = c->split;
    inc_beta_lanes(2, x, a, b, log_norm, max_iter, f, terms);
    if (isnan(f[0]) || isnan(f[1]))
        return;
    n = 2.0 * (terms[0] > terms[1] ? terms[0] : terms[1]) + 8.0;
    if (n <= (double)max_iter)
        c->rho = 4.0 * CF_TOL + UNIT * (n * n + 8.0 * (a + b) + 24.0);
}

/*
 * One p of a batch inversion, as a state machine: on the real line (the
 * Student t) each end of [-1, 1] doubles until the bracket holds p, the low
 * end first, then [lo, hi] is bisected, as _kernels_py._invert_unbounded
 * and _bisect_cdf do; a Beta bisects [0, 1] at once.  `at` is the point
 * whose CDF value the lane needs next, and its quantile once it is done.
 * Every lane of a call starts in the same state, and each step's branch
 * is decided by that state and f < p alone, so a lane's points are fixed
 * by its path: `node` is 1 followed by the bits f < p of its first
 * MEMO_DEPTH steps, a node of the binary tree of those outcomes.
 *
 * Past those steps, a bisecting lane tries once to certify a band
 * [below, above] around its quantile (certify_start): every midpoint at or
 * below `below` then compares f < p, and every one at or above `above` f
 * >= p, without a CDF value; -inf and inf while none is certified.
 */
typedef struct {
    double p, lo, hi, at;
    double flo, fhi;    /* the CDF values at lo and hi */
    double below, above;
    double rho, alpha, round; /* the lane's error bound: see margin */
    const Curve *curve;
    long index;         /* of p in the batch */
    int phase;          /* LANE_LOW .. LANE_CERT_HIGH */
    int levels;         /* bisection steps taken */
    int evals;          /* CDF values taken by the bisection */
    int node;           /* the path of the first MEMO_DEPTH values */
    int newton;         /* Newton steps taken */
    int tried;          /* whether the lane has tried to certify */
} Lane;

enum { LANE_LOW, LANE_HIGH, LANE_BISECT, LANE_NEWTON, LANE_CERT_LOW,
       LANE_CERT_HIGH };

/* what a lane asks for: the CDF value at `at`, nothing (`at` is its
   quantile), or the reference (a NaN CDF value, or an end past the largest
   double) */
enum { LANE_NEEDS, LANE_DONE, LANE_GIVES_BACK };

#ifdef CHECK_CERTIFIED
/* the test build: lanes that took a certificate, and lanes that tried and
   did not */
long certified_taken, certified_failed;

/* abort unless the core's value at mid compares as the certificate says */
static void check_skipped(const Lane *lane, double mid, int below)
{
    double f;

    cdf_lanes(1, &mid, lane->curve, &f);
    if (isnan(f) || (f < lane->p) != below)
        abort();
}
#endif

/*
 * The lane's next bisection midpoint that needs a CDF value, for cdf(lo)
 * < p <= cdf(hi), or its quantile where the bisection stops.  A midpoint
 * in the certified tails moves lo or hi as its value would.  A midpoint
 * whose sum overflows, between ends near the largest double, is taken from
 * the halves.
 */
static inline int bisect_next(Lane *lane)
{
    double lo, hi, mid;

    for (;; lane->levels++) {
        lo = lane->lo;
        hi = lane->hi;
        if (lane->levels == BISECT_LEVELS) {
            lane->at = 0.5 * (lo + hi);
            return LANE_DONE;
        }
        mid = 0.5 * (lo + hi);
        if (isinf(mid))
            mid = 0.5 * lo + 0.5 * hi;
        lane->at = mid;
        if (hi - lo <= BISECT_TOL + BISECT_TOL * fabs(mid) || mid <= lo
            || mid >= hi)
            return LANE_DONE;
        if (mid <= lane->below) {
#ifdef CHECK_CERTIFIED
            check_skipped(lane, mid, 1);
#endif
            lane->lo = mid;
        } else if (mid >= lane->above) {
#ifdef CHECK_CERTIFIED
            check_skipped(lane, mid, 0);
#endif
            lane->hi = mid;
        } else {
            return LANE_NEEDS;
        }
    }
}

/* start the lane on ps[index] = p, on the real line when the curve's df is
   not 0, else on [0, 1] */
static int lane_start(Lane *lane, double p, long index, const Curve *curve)
{
    lane->p = p;
    lane->index = index;
    lane->curve = curve;
    lane->levels = lane->evals = lane->tried = 0;
    lane->node = 1;
    lane->hi = lane->fhi = 1.0;
    lane->flo = 0.0;
    lane->below = -INFINITY;
    lane->above = INFINITY;
    if (curve->df != 0.0) {
        lane->phase = LANE_LOW;
        lane->at = lane->lo = -1.0;
        return LANE_NEEDS;
    }
    lane->phase = LANE_BISECT;
    lane->lo = 0.0;
    return bisect_next(lane);
}

/*
 * The margin that a CDF value v of the lane keeps from p to certify a
 * side.  On a piece where alpha + beta T' is monotone, a midpoint at or
 * below a point L of value v < p compares f < p when p - v > 2 rho' (|v -
 * alpha| + round) + 2 round, rho' = rho / (1 - rho): its value is at most
 * L's true value plus its own error, and its error is bounded by L's, T'
 * being monotone.  Likewise above a point U of value v >= p.  The margin,
 * 2.5 rho |v - alpha| + 3 round, is twice the bound on the core's error at
 * v, rho |v - alpha| + round, with room for rho' and for the rounding of p
 * - v and of the margin itself.
 */
static double margin(const Lane *lane, double v)
{
    return 2.5 * lane->rho * fabs(v - lane->alpha) + 3.0 * lane->round;
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

/* the lane goes on bisecting, with the band it certified or with none */
static int certify_end(Lane *lane, int taken)
{
    if (!taken) {
        lane->below = -INFINITY;
        lane->above = INFINITY;
    }
#ifdef CHECK_CERTIFIED
    if (taken)
        certified_taken++;
    else
        certified_failed++;
#endif
    lane->phase = LANE_BISECT;
    return bisect_next(lane);
}

/*
 * Try to certify a band around the lane's quantile.  The bracket [lo, hi]
 * must lie on one piece of the computed CDF (cdf_piece), so that every
 * midpoint and both points certified share one alpha + beta T~ + r.  The
 * lane's rho is the curve's plus the terms of its bracket, S at its
 * largest over it; where S is not finite (an end at 0 or 1, at t = 0, or far
 * enough out that x is 0) or rho passes RHO_MAX, the lane does not try.  A
 * regula falsi point between the ends starts up to NEWTON_STEPS Newton
 * steps, each one CDF value.
 */
static int certify_start(Lane *lane)
{
    const Curve *c = lane->curve;
    double xlo, xhi, s, x0;
    int piece = cdf_piece(c, lane->lo, &xlo);

    lane->tried = 1;
    if (c->rho == 0.0 || piece != cdf_piece(c, lane->hi, &xhi))
        return certify_end(lane, 0);
    s = fabs(c->log_norm) + c->a * fmax(fabs(log(xlo)), fabs(log(xhi)))
        + c->b * fmax(fabs(log1p(-xlo)), fabs(log1p(-xhi)));
    lane->rho = c->rho + 5.0 * UNIT * s;
    if (!(lane->rho <= RHO_MAX))
        return certify_end(lane, 0);
    /* the anchor: the tail of the fraction's side, then for the Student t
       its half on either side of t = 0 */
    if (c->df == 0.0)
        lane->alpha = piece & 1 ? 0.0 : 1.0;
    else
        lane->alpha = !(piece & 1) ? 0.5 : piece & 2 ? 1.0 : 0.0;
    /* 1 - T~ rounds by half an ulp of 1; a tail alone only when subnormal */
    lane->round = lane->alpha == 0.0 ? 0x1p-1000 : UNIT;
    x0 = lane->lo + (lane->p - lane->flo)
                    * ((lane->hi - lane->lo) / (lane->fhi - lane->flo));
    if (lane->lo < x0 && x0 < lane->hi)
        lane->at = x0;  /* else the pending midpoint */
    lane->newton = 0;
    lane->phase = LANE_NEWTON;
    return LANE_NEEDS;
}

/* the Newton steps that refine a certifying lane's estimate */
#define NEWTON_STEPS 3

/*
 * One step of a certifying lane, given f = the CDF value at its point.
 * After each Newton step the estimate's error is about slope step^2 / 2;
 * once that is well inside the band, or after NEWTON_STEPS, the band is
 * the estimate +- delta, delta = 2 margin(p) / density, and the lane
 * evaluates its low end, then its high end.  A NaN value, a step out of
 * the bracket or a value inside the margin ends the try uncertified.
 */
static int certify_step(Lane *lane, double f)
{
    double pdf, slope, step, delta;

    if (isnan(f))
        return certify_end(lane, 0);
    switch (lane->phase) {
    case LANE_NEWTON:
        pdf = density(lane->curve, lane->at, &slope);
        if (!(pdf > 0.0 && pdf < INFINITY))
            return certify_end(lane, 0);
        step = (f - lane->p) / pdf;
        delta = 2.0 * margin(lane, lane->p) / pdf;
        lane->at -= step;
        if (!(lane->lo < lane->at && lane->at < lane->hi))
            return certify_end(lane, 0);
        if (++lane->newton < NEWTON_STEPS
            && !(fabs(slope) * step * step <= 0.125 * delta))
            return LANE_NEEDS;
        lane->below = lane->at - delta;
        lane->above = lane->at + delta;
        if (!(lane->lo < lane->below && lane->above < lane->hi))
            return certify_end(lane, 0);
        lane->at = lane->below;
        lane->phase = LANE_CERT_LOW;
        return LANE_NEEDS;
    case LANE_CERT_LOW:
        if (!(lane->p - f > margin(lane, f)))
            return certify_end(lane, 0);
        lane->at = lane->above;
        lane->phase = LANE_CERT_HIGH;
        return LANE_NEEDS;
    default:
        return certify_end(lane, f - lane->p >= margin(lane, f));
    }
}

/* the next bisection midpoint, once per lane past the memo's steps trying
   to certify first */
static int bisect_or_certify(Lane *lane)
{
    int state = bisect_next(lane);

    if (state == LANE_NEEDS && !lane->tried && lane->evals >= MEMO_DEPTH)
        return certify_start(lane);
    return state;
}

/* one step of the lane, given f = the CDF value at its point.  An end
   whose next doubling would be infinite takes the largest double instead,
   once; past it the lane gives p back. */
static inline int lane_step(Lane *lane, double f)
{
    if (lane->phase > LANE_BISECT)
        return certify_step(lane, f);
    if (isnan(f))
        return LANE_GIVES_BACK;
    if (lane->evals++ < MEMO_DEPTH)
        lane->node = 2 * lane->node + (f < lane->p);
    switch (lane->phase) {
    case LANE_LOW:
        if (f < lane->p) {
            lane->flo = f;
            lane->phase = LANE_HIGH;
            lane->at = lane->hi;
            return LANE_NEEDS;
        }
        if (lane->lo == -DBL_MAX)
            return LANE_GIVES_BACK;
        lane->lo *= 2.0;
        if (lane->lo == -INFINITY)
            lane->lo = -DBL_MAX;
        lane->at = lane->lo;
        return LANE_NEEDS;
    case LANE_HIGH:
        if (f >= lane->p) {
            lane->fhi = f;
            lane->phase = LANE_BISECT;
            return bisect_or_certify(lane);
        }
        if (lane->hi == DBL_MAX)
            return LANE_GIVES_BACK;
        lane->hi *= 2.0;
        if (lane->hi == INFINITY)
            lane->hi = DBL_MAX;
        lane->at = lane->hi;
        return LANE_NEEDS;
    default:
        if (f < lane->p) {
            lane->lo = lane->at;
            lane->flo = f;
        } else {
            lane->hi = lane->at;
            lane->fhi = f;
        }
        lane->levels++;
        return bisect_or_certify(lane);
    }
}

/* whether the lane still needs a CDF value, after a start or step that
   returned `state`: its quantile goes to out when it is done, and its
   index to *stop when it gives p back before any other */
static int lane_busy(const Lane *lane, int state, double *out, long *stop)
{
    if (state == LANE_DONE)
        out[lane->index] = lane->at;
    else if (state == LANE_GIVES_BACK && lane->index < *stop)
        *stop = lane->index;
    return state == LANE_NEEDS;
}

/*
 * out[i] = the quantile of ps[i] for i < count, ps and out possibly the
 * same buffer: of the Beta(a, b) when df is 0, or else of the Student t at
 * df degrees of freedom, with a = df / 2, b = 1 / 2.  log_norm is that of
 * the shape pair (a, b).  LANES lanes each hold one p, taken in batch
 * order, a lane that is done taking the next.  Each round steps every lane
 * through the CDF values the memo holds, then evaluates the points the
 * lanes still need in one core call.  The memo is the table of the CDF
 * values at each node of the paths of the p's first MEMO_DEPTH
 * evaluations, which the p of a batch share (the top of the bisection
 * tree, the bracket's doublings), NaN where not yet known; a
 * value found is the double the core would return at the node's point, so
 * no output bit depends on it.  Past those evaluations a lane certifies
 * a band around its quantile (certify_start: margins of at least twice the
 * bound of curve_init on the core's error, skipped where that bound is not
 * stated), and every midpoint outside the band moves lo or hi as its CDF
 * value would, without one: the same midpoints, the same outcomes, the
 * same bits as _kernels_py, from fewer CDF values.  Past
 * |t| = sqrt(DBL_MAX), t * t overflows and the Student t CDF saturates, so
 * a Student p outside [F(-sqrt(DBL_MAX)), F(sqrt(DBL_MAX))] is given back,
 * as is every p when those two CDF values are.  Returns count, or the
 * index of the first p given back: the lanes holding lower indices finish,
 * and no p starts after one is given back.
 */
long quantiles(const double *ps, long count, double a, double b, double df,
               double log_norm, long max_iter, double *out)
{
    Curve curve;
    Lane lane[LANES];
    double table[1 << MEMO_DEPTH], bounds[2] = {0.0, 1.0}, t[LANES];
    double roots[2] = {-sqrt(DBL_MAX), sqrt(DBL_MAX)}, f[LANES];
    int busy[LANES] = {0}, used, state, k;
    long next = 0, stop = count;

    if (count == 0)
        return 0;
    curve_init(&curve, a, b, df, log_norm, max_iter);
    if (df != 0.0) {
        cdf_lanes(2, roots, &curve, bounds);
        if (isnan(bounds[0]) || isnan(bounds[1]))
            return 0;
    }
    memset(table, 0xff, sizeof table); /* all bits set: a NaN */
    do {
        used = 0;
        for (k = 0; k < LANES; k++) {
            /* until lane k needs the core: a free lane takes the next p,
               and a busy one steps through the memo's values */
            for (;;) {
                if (busy[k] && lane[k].index > stop)
                    busy[k] = 0;
                if (!busy[k]) {
                    if (next >= stop)
                        break;
                    if (df != 0.0 && !(bounds[0] <= ps[next]
                                       && ps[next] <= bounds[1])) {
                        stop = next;
                        break;
                    }
                    state = lane_start(&lane[k], ps[next], next, &curve);
                    next++;
                } else {
                    if (lane[k].evals >= MEMO_DEPTH
                        || isnan(table[lane[k].node]))
                        break;
                    state = lane_step(&lane[k], table[lane[k].node]);
                }
                busy[k] = lane_busy(&lane[k], state, out, &stop);
            }
            if (busy[k])
                t[used++] = lane[k].at;
        }
        cdf_lanes(used, t, &curve, f);
        used = 0;
        for (k = 0; k < LANES; k++) {
            if (!busy[k])
                continue;
            if (lane[k].evals < MEMO_DEPTH)
                table[lane[k].node] = f[used];
            state = lane_step(&lane[k], f[used++]);
            busy[k] = lane_busy(&lane[k], state, out, &stop);
        }
    } while (used > 0);
    return stop;
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
