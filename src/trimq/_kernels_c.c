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
 * beta_quantiles and student_quantiles with their bisections _bisect_cdf
 * and _invert_unbounded, batch_uniforms with the draw loop of
 * stream_uniforms, the FNV-1a fold fnv1a64 and the finalizer _mix64,
 * piece_errors with HF7 (_hf7) and the weighted sum (_weighted_sum), its
 * math.fsum a port of CPython 3.11's, and a stable sort in place of
 * sorted(), which sort_floats exports on its own, and parse_floats, whose
 * strtod rounds correctly as float() does.  Each does the same operations
 * in the same order, so that, built with -ffp-contract=off and linked
 * against the libm behind Python's math module, it returns the same
 * doubles; the uniforms are 64-bit integer work and the reference's two
 * floating-point steps.
 *
 * Where the reference raises, the port gives the case back instead: a NaN
 * from reg_inc_beta, -1 from piece_errors, sort_floats or parse_floats,
 * or, from weight_window and a batch inversion, the index it stopped at.
 * The caller then hands the call, the rest of the batch, or the one
 * incomplete beta the window stopped at, to the namesake reference, which
 * raises the error itself.  That happens when the fraction does not
 * converge within max_iter terms, when exp(front) is not finite (math.exp
 * raises OverflowError where C returns inf), in the bisections when a CDF
 * value is NaN or a bracket end passes the largest double, in
 * piece_errors and sort_floats when a value is NaN (its place in sorted
 * order depends on the sort) or a weighted sum meets a product that is
 * not finite or overflows (math.fsum's special values and
 * OverflowError), and in parse_floats on any input but plain ASCII
 * decimal numbers that are finite.
 *
 * There is no mutable state outside the stack, so threads may call every
 * entry point at once.
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

/*
 * Continued-fraction factor of I_x(a, b) by the modified Lentz recurrence.
 * Term m is m (b - m) x / ((a - 1 + 2m)(a + 2m)), then
 * -(a + m)(a + b + m) x / ((a + 2m)(a + 1 + 2m)), each formed as
 * _kernels_py._beta_cont_frac forms it.  Returns 1 and stores the factor
 * in *out, or 0 when max_iter terms do not converge.
 */
static int beta_cont_frac(double a, double b, double x, long max_iter,
                          double *out)
{
    double qab = a + b;
    double qap = a + 1.0;
    double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - (a + b) * x / (a + 1.0);
    double h, m, m2, am2, aa, delta;
    long i;

    if (-FPMIN < d && d < FPMIN)
        d = FPMIN;
    d = 1.0 / d;
    h = d;
    for (i = 1; i <= max_iter; i++) {
        m = (double)i;
        m2 = m + m;
        am2 = a + m2;
        aa = m * (b - m) * x / ((qam + m2) * am2);
        d = 1.0 + aa * d;
        if (-FPMIN < d && d < FPMIN)
            d = FPMIN;
        c = 1.0 + aa / c;
        if (-FPMIN < c && c < FPMIN)
            c = FPMIN;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2));
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
            *out = h;
            return 1;
        }
    }
    return 0;
}

/*
 * Regularized incomplete beta I_x(a, b) for x in [0, 1], with log_norm =
 * ln(1 / B(a, b)) as _kernels_py._log_norm computes it.  NaN asks the
 * caller to use the reference.
 */
double reg_inc_beta(double x, double a, double b, double log_norm,
                    long max_iter)
{
    double front, scale, frac;

    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    front = log_norm + a * log(x) + b * log1p(-x);
    scale = exp(front);
    if (!isfinite(scale))
        return NAN;
    if (x < (a + 1.0) / (a + b + 2.0)) {
        if (!beta_cont_frac(a, b, x, max_iter, &frac))
            return NAN;
        return scale * frac / a;
    }
    if (!beta_cont_frac(b, a, 1.0 - x, max_iter, &frac))
        return NAN;
    return 1.0 - scale * frac / b;
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
            cur = reg_inc_beta(x, a, b, log_norm, max_iter);
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

/* one CDF to invert: Beta(a, b), or Student t with df = 2a and b = 1/2 */
typedef struct {
    double a, b, log_norm, df;
    long max_iter;
} Cdf;

static double beta_cdf(const Cdf *cdf, double x)
{
    return reg_inc_beta(x, cdf->a, cdf->b, cdf->log_norm, cdf->max_iter);
}

static double student_cdf(const Cdf *cdf, double t)
{
    double x = cdf->df / (cdf->df + t * t);
    double tail = 0.5 * reg_inc_beta(x, cdf->a, cdf->b, cdf->log_norm,
                                     cdf->max_iter);
    return t >= 0.0 ? 1.0 - tail : tail;
}

typedef double (*CdfAt)(const Cdf *cdf, double t);

/*
 * The point where bisection of [lo, hi] toward cdf(t) = p stops, for
 * cdf(lo) < p <= cdf(hi).  A midpoint whose sum overflows, between ends
 * near the largest double, is taken from the halves.  Returns 1 and stores
 * it in *out, or 0 when a CDF value is NaN.
 */
static int bisect_cdf(CdfAt at, const Cdf *cdf, double p, double lo,
                      double hi, double *out)
{
    double mid, f;
    int level;

    for (level = 0; level < BISECT_LEVELS; level++) {
        mid = 0.5 * (lo + hi);
        if (isinf(mid))
            mid = 0.5 * lo + 0.5 * hi;
        if (hi - lo <= BISECT_TOL + BISECT_TOL * fabs(mid) || mid <= lo
            || mid >= hi) {
            *out = mid;
            return 1;
        }
        f = at(cdf, mid);
        if (isnan(f))
            return 0;
        if (f < p)
            lo = mid;
        else
            hi = mid;
    }
    *out = 0.5 * (lo + hi);
    return 1;
}

/*
 * The quantile of p on the real line: each end of [-1, 1] doubles until
 * the bracket holds p, then bisection.  An end whose next doubling would
 * be infinite takes the largest double instead, once.  Returns 1 and
 * stores the quantile in *out, or 0 when a CDF value is NaN or an end
 * passes the largest double.
 */
static int invert_unbounded(CdfAt at, const Cdf *cdf, double p, double *out)
{
    double lo = -1.0, hi = 1.0, f;

    for (;;) {
        f = at(cdf, lo);
        if (isnan(f))
            return 0;
        if (f < p)
            break;
        if (lo == -DBL_MAX)
            return 0;
        lo *= 2.0;
        if (lo == -INFINITY)
            lo = -DBL_MAX;
    }
    for (;;) {
        f = at(cdf, hi);
        if (isnan(f))
            return 0;
        if (f >= p)
            break;
        if (hi == DBL_MAX)
            return 0;
        hi *= 2.0;
        if (hi == INFINITY)
            hi = DBL_MAX;
    }
    return bisect_cdf(at, cdf, p, lo, hi, out);
}

/*
 * out[i] = the Beta(a, b) quantile of ps[i], bisected on [0, 1], for i <
 * count.  Returns the number of quantiles done: count, or the index of
 * the first p whose bisection it gives back to the caller.
 */
long beta_quantiles(const double *ps, long count, double a, double b,
                    double log_norm, long max_iter, double *out)
{
    Cdf cdf;
    long i;

    cdf.a = a;
    cdf.b = b;
    cdf.log_norm = log_norm;
    cdf.df = 0.0;
    cdf.max_iter = max_iter;
    for (i = 0; i < count; i++)
        if (!bisect_cdf(beta_cdf, &cdf, ps[i], 0.0, 1.0, &out[i]))
            break;
    return i;
}

/*
 * out[i] = the Student t quantile of ps[i] at df degrees of freedom, for
 * i < count, with log_norm that of the shape pair (df / 2, 1 / 2).
 * Returns the number of quantiles done, as beta_quantiles does.
 */
long student_quantiles(const double *ps, long count, double df,
                       double log_norm, long max_iter, double *out)
{
    Cdf cdf;
    long i;

    cdf.a = 0.5 * df;
    cdf.b = 0.5;
    cdf.log_norm = log_norm;
    cdf.df = df;
    cdf.max_iter = max_iter;
    for (i = 0; i < count; i++)
        if (!invert_unbounded(student_cdf, &cdf, ps[i], &out[i]))
            break;
    return i;
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
