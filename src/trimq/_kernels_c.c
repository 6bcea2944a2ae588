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
 * beta_quantiles and student_quantiles with their bisection _bisect_cdf, the
 * bracket of _invert_unbounded and the Student t bounds, batch_uniforms with
 * the draw loop of stream_uniforms, the FNV-1a fold fnv1a64 and the finalizer
 * _mix64, piece_errors with HF7 (_hf7) and the weighted sum (_weighted_sum),
 * its math.fsum a port of CPython 3.11's, and a stable sort in place of
 * sorted(), which sort_floats exports on its own, and parse_floats, whose
 * strtod rounds correctly as float() does.  Each does the same operations in
 * the same order, so that, built with -ffp-contract=off and linked against the
 * libm behind Python's math module, it returns the same doubles; the uniforms
 * are 64-bit integer work and the reference's two floating-point steps.
 *
 * The incomplete beta has one implementation, a lane core that evaluates
 * it at up to LANES points at once, each lane running the reference's
 * statements in their order, so that the chains of divisions of the
 * points overlap: reg_inc_beta is the core at one lane, weight_window
 * takes its indices LANES at a time, and the batch inversions hold one p
 * per lane, as a state machine of bracket doubling and bisection, a lane
 * that is done taking the next p.  An inversion of more than one p keeps
 * a memo for the call: the CDF values of each p's first evaluations, which
 * the p of a batch share, keyed by the bits of the point, so that a value
 * found there is the double the core would return.
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
 * No state outlives a call: the inversions' memo, the only heap state of
 * the incomplete beta, and the sort and scoring buffers are allocated and
 * freed by the call that uses them, so threads may call every entry point
 * at once.
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
 * max_iter terms, or an exp(front) that is not finite.
 */
static void inc_beta_lanes(int count, const double *x, double a, double b,
                           double log_norm, long max_iter, double *out)
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

    inc_beta_lanes(1, &x, a, b, log_norm, max_iter, &y);
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
        inc_beta_lanes(used, inside, a, b, log_norm, max_iter, inc);
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
 * One p of a batch inversion, as a state machine: on the real line (the
 * Student t) each end of [-1, 1] doubles until the bracket holds p, the low
 * end first, then [lo, hi] is bisected, as _kernels_py._invert_unbounded
 * and _bisect_cdf do; a Beta bisects [0, 1] at once.  `at` is the point
 * whose CDF value the lane needs next, and its quantile once it is done.
 */
typedef struct {
    double p, lo, hi, at;
    long index;         /* of p in the batch */
    int phase;          /* LANE_LOW, LANE_HIGH or LANE_BISECT */
    int levels;         /* bisection steps taken */
    int evals;          /* CDF values taken */
} Lane;

enum { LANE_LOW, LANE_HIGH, LANE_BISECT };

/* what a lane asks for: the CDF value at `at`, nothing (`at` is its
   quantile), or the reference (a NaN CDF value, or an end past the largest
   double) */
enum { LANE_NEEDS, LANE_DONE, LANE_GIVES_BACK };

/*
 * The lane's next bisection midpoint, for cdf(lo) < p <= cdf(hi), or its
 * quantile where the bisection stops.  A midpoint whose sum overflows,
 * between ends near the largest double, is taken from the halves.
 */
static inline int bisect_next(Lane *lane)
{
    double lo = lane->lo, hi = lane->hi, mid;

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
    return LANE_NEEDS;
}

/* start the lane on ps[index] = p, on the real line when unbounded, else on
   [0, 1] */
static int lane_start(Lane *lane, double p, long index, int unbounded)
{
    lane->p = p;
    lane->index = index;
    lane->levels = lane->evals = 0;
    lane->hi = 1.0;
    if (unbounded) {
        lane->phase = LANE_LOW;
        lane->at = lane->lo = -1.0;
        return LANE_NEEDS;
    }
    lane->phase = LANE_BISECT;
    lane->lo = 0.0;
    return bisect_next(lane);
}

/* one step of the lane, given f = the CDF value at its point.  An end
   whose next doubling would be infinite takes the largest double instead,
   once; past it the lane gives p back. */
static inline int lane_step(Lane *lane, double f)
{
    if (isnan(f))
        return LANE_GIVES_BACK;
    lane->evals++;
    switch (lane->phase) {
    case LANE_LOW:
        if (f < lane->p) {
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
            lane->phase = LANE_BISECT;
            return bisect_next(lane);
        }
        if (lane->hi == DBL_MAX)
            return LANE_GIVES_BACK;
        lane->hi *= 2.0;
        if (lane->hi == INFINITY)
            lane->hi = DBL_MAX;
        lane->at = lane->hi;
        return LANE_NEEDS;
    default:
        if (f < lane->p)
            lane->lo = lane->at;
        else
            lane->hi = lane->at;
        lane->levels++;
        return bisect_next(lane);
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
 * The CDF values f[k] at the count <= LANES points t[k], in one core call:
 * I_t(a, b) when df is 0, or else the Student t CDF at df degrees of
 * freedom of _kernels_py.student_quantiles (a = df / 2, b = 1 / 2), the
 * tail beyond |t| being I_{df / (df + t^2)}(a, b) / 2.
 */
static void cdf_lanes(int count, const double *t, double df, double a,
                      double b, double log_norm, long max_iter, double *f)
{
    double x[LANES], tail;
    int k;

    if (df == 0.0) {
        inc_beta_lanes(count, t, a, b, log_norm, max_iter, f);
        return;
    }
    for (k = 0; k < count; k++)
        x[k] = df / (df + t[k] * t[k]);
    inc_beta_lanes(count, x, a, b, log_norm, max_iter, f);
    for (k = 0; k < count; k++) {
        tail = 0.5 * f[k];
        f[k] = t[k] >= 0.0 ? 1.0 - tail : tail;
    }
}

/*
 * The per-call memo of CDF values: an open-addressed table, keyed by the
 * bits of the point, of each p's first MEMO_DEPTH evaluations, which the
 * p of a batch share (the top of the bisection tree, the bracket's
 * doublings); deeper points rarely repeat.  A value found is the double
 * the core would return, so no output bit depends on the memo.  Inserts
 * stop at three quarters full, so that every probe ends.
 */
#define MEMO_DEPTH 12
#define MEMO_BITS 12
#define MEMO_SLOTS (1L << MEMO_BITS)
#define MEMO_FULL (MEMO_SLOTS / 4 * 3)
/* no point is NaN, so this NaN's bits mark an empty slot */
#define MEMO_EMPTY UINT64_MAX

typedef struct {
    uint64_t key[MEMO_SLOTS];
    double value[MEMO_SLOTS];
    long used;
} Memo;

static uint64_t point_bits(double t)
{
    uint64_t bits;

    memcpy(&bits, &t, sizeof bits);
    return bits;
}

/* the slot that holds `key`, or the empty one where it would go */
static long memo_slot(const Memo *memo, uint64_t key)
{
    long slot = (long)((key * UINT64_C(0x9E3779B97F4A7C15))
                       >> (64 - MEMO_BITS));

    while (memo->key[slot] != key && memo->key[slot] != MEMO_EMPTY)
        slot = (slot + 1) & (MEMO_SLOTS - 1);
    return slot;
}

/*
 * out[i] = the quantile of ps[i] for i < count, ps and out possibly the
 * same buffer: of the Beta(a, b) when df is 0, or else of the Student t at
 * df degrees of freedom.  LANES lanes each hold one p, taken in batch
 * order, a lane that is done taking the next.  Each round steps every lane
 * through the CDF values the memo holds, then evaluates the points the
 * lanes still need in one core call.  Past |t| = sqrt(DBL_MAX), t * t
 * overflows and the Student t CDF saturates, so a Student p outside
 * [F(-sqrt(DBL_MAX)), F(sqrt(DBL_MAX))] is given back, as is every p when
 * those two CDF values are.  Returns count, or the index of the first p
 * given back: the lanes holding lower indices finish, and no p starts
 * after one is given back.  The memo is allocated per call, for more than
 * one p; without memory the call runs without it.
 */
static long invert(const double *ps, long count, double a, double b,
                   double df, double log_norm, long max_iter, double *out)
{
    Lane lane[LANES];
    Memo *memo = NULL;
    double bounds[2] = {0.0, 1.0}, t[LANES], value[LANES], f;
    double roots[2] = {-sqrt(DBL_MAX), sqrt(DBL_MAX)};
    uint64_t key[LANES];
    int busy[LANES] = {0}, from[LANES], used, state, k, j;
    long next = 0, stop = count, slot[LANES];

    if (count == 0)
        return 0;
    if (df != 0.0) {
        cdf_lanes(2, roots, df, a, b, log_norm, max_iter, bounds);
        if (isnan(bounds[0]) || isnan(bounds[1]))
            return 0;
    }
    if (count > 1 && (memo = malloc(sizeof *memo)) != NULL) {
        memset(memo->key, 0xff, sizeof memo->key);
        memo->used = 0;
    }
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
                    state = lane_start(&lane[k], ps[next], next, df != 0.0);
                    next++;
                } else {
                    slot[k] = -1;
                    if (memo == NULL || lane[k].evals >= MEMO_DEPTH)
                        break;
                    key[k] = point_bits(lane[k].at);
                    slot[k] = memo_slot(memo, key[k]);
                    if (memo->key[slot[k]] != key[k])
                        break;
                    state = lane_step(&lane[k], memo->value[slot[k]]);
                }
                busy[k] = lane_busy(&lane[k], state, out, &stop);
            }
            if (!busy[k])
                continue;
            /* each distinct point of the memo's depth once: the lanes
               share those */
            j = 0;
            if (slot[k] >= 0)
                while (j < used && point_bits(t[j]) != key[k])
                    j++;
            else
                j = used;
            if (j == used)
                t[used++] = lane[k].at;
            from[k] = j;
        }
        cdf_lanes(used, t, df, a, b, log_norm, max_iter, value);
        for (k = 0; k < LANES; k++) {
            if (!busy[k])
                continue;
            f = value[from[k]];
            if (slot[k] >= 0 && memo->used < MEMO_FULL) {
                /* a lane before this one may have taken the slot */
                if (memo->key[slot[k]] != MEMO_EMPTY)
                    slot[k] = memo_slot(memo, key[k]);
                if (memo->key[slot[k]] == MEMO_EMPTY) {
                    memo->key[slot[k]] = key[k];
                    memo->value[slot[k]] = f;
                    memo->used++;
                }
            }
            state = lane_step(&lane[k], f);
            busy[k] = lane_busy(&lane[k], state, out, &stop);
        }
    } while (used > 0);
    free(memo);
    return stop;
}

/*
 * out[i] = the Beta(a, b) quantile of ps[i], bisected on [0, 1], for i <
 * count.  Returns the number of quantiles done: count, or the index of
 * the first p whose bisection it gives back to the caller.
 */
long beta_quantiles(const double *ps, long count, double a, double b,
                    double log_norm, long max_iter, double *out)
{
    return invert(ps, count, a, b, 0.0, log_norm, max_iter, out);
}

/*
 * out[i] = the Student t quantile of ps[i] at df degrees of freedom, for
 * i < count, with log_norm that of the shape pair (df / 2, 1 / 2).
 * Returns the number of quantiles done, as beta_quantiles does.
 */
long student_quantiles(const double *ps, long count, double df,
                       double log_norm, long max_iter, double *out)
{
    return invert(ps, count, 0.5 * df, 0.5, df, log_norm, max_iter, out);
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
