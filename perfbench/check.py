"""Independent correctness checks of trimq's outputs, built on NumPy and SciPy.

Nothing here imports trimq.  A simulate CSV is recomputed independently: the
FNV-1a stream ids and SplitMix64 uniforms are re-derived with NumPy, the
variates and true quantiles come from SciPy's inverse CDFs, HF7 is NumPy's
type-7 quantile, and the Harrell-Davis and trimmed Harrell-Davis weights come
from SciPy's regularized incomplete beta and a root-found highest-density
interval.  An estimate output is compared with the same weight computation
on the regenerated input.

Tolerances.  The two implementations evaluate different formulas for the
same numbers, so they agree to rounding, not bit for bit: the sampler
bisection stops at 1e-12, the HDI at machine resolution, and the incomplete
beta continued fraction at 1e-14.  trimq's Student CDF goes through
x = df / (df + t^2), which resolves t near 0 only to about sqrt(eps), so
Student MSEs differ by up to about 1e-7 relative (measured at seeds 0-2).
Every simulate MSE and efficiency must agree to SIM_RTOL relative; every
estimate must agree to EST_RTOL times the weighted magnitude sum(|w_i x_i|)
of the order statistics it averages (measured: below 4e-13).  A wrong
sample, weight or estimator moves these numbers by far more.
"""

import csv
import io
import math
import re

import numpy as np
from scipy import optimize, special, stats

import workloads

SIM_RTOL = 1e-5
EST_RTOL = 1e-9

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15
_SPEC_RE = re.compile(r"^([A-Za-z]+)\((.*)\)$")


def _fnv1a64(data, h=_FNV_OFFSET):
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _M64
    return h


def _mix64(z):
    z = z ^ (z >> np.uint64(33))
    z = z * np.uint64(0xFF51AFD7ED558CCD)
    z = z ^ (z >> np.uint64(33))
    z = z * np.uint64(0xC4CEB9FE1A85EC53)
    return z ^ (z >> np.uint64(33))


def _uniforms(seed, stream_ids, n):
    """Rows of n counter-based SplitMix64 uniforms, one row per stream."""
    seeds = np.full(len(stream_ids), seed & _M64, dtype=np.uint64)
    sids = np.array(stream_ids, dtype=np.uint64) ^ np.uint64(_GOLDEN)
    s0 = _mix64(seeds) ^ _mix64(sids)
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = s0[:, None] + steps[None, :]
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


class _Student:
    """Student t quantiles through the inverse incomplete beta.

    SciPy's own t.ppf solves only to about 1e-8 relative; these forms are
    accurate to rounding, taking 1 - I^-1 in whichever form keeps precision.
    """

    def __init__(self, df):
        self.df = df

    def ppf(self, u):
        u = np.asarray(u, dtype=np.float64)
        df = self.df
        tail = 2.0 * np.minimum(u, 1.0 - u)
        with np.errstate(divide="ignore", invalid="ignore"):
            # |t| large: x = df / (df + t^2) = I^-1_tail(df/2, 1/2)
            x = special.betaincinv(0.5 * df, 0.5, tail)
            t_far = np.sqrt(df * (1.0 / x - 1.0))
            # |t| small: y = t^2 / (df + t^2) = I^-1_{1-tail}(1/2, df/2)
            y = special.betaincinv(0.5, 0.5 * df, 1.0 - tail)
            t_near = np.sqrt(df * y / (1.0 - y))
        t = np.where(tail < 0.5, t_far, t_near)
        return np.where(u < 0.5, -t, t)


def _distribution(label):
    m = _SPEC_RE.match(label)
    if m is None:
        raise ValueError("unparseable distribution %r" % label)
    kind = m.group(1)
    prm = {k.strip(): float(v) for k, v in
           (item.split("=") for item in m.group(2).split(","))}
    if kind == "Normal":
        return stats.norm(loc=prm["m"], scale=prm["sd"])
    if kind == "Exp":
        return stats.expon(scale=1.0 / prm["rate"])
    if kind == "Cauchy":
        return stats.cauchy(loc=prm["x0"], scale=prm["gamma"])
    if kind == "Pareto":
        return stats.pareto(b=prm["shape"], scale=prm["loc"])
    if kind == "Beta":
        return stats.beta(prm["a"], prm["b"])
    if kind == "Student":
        return _Student(prm["df"])
    raise ValueError("no reference for distribution %r" % label)


def _hdi(a, b, width):
    """Highest-density interval of Beta(a, b) with the given width."""
    if width >= 1.0:
        return 0.0, 1.0
    if a <= 1.0 and b <= 1.0:
        raise ValueError("no unique HDI for a=%g b=%g" % (a, b))
    if a <= 1.0:
        return 0.0, width
    if b <= 1.0:
        return 1.0 - width, 1.0
    mode = (a - 1.0) / (a + b - 2.0)
    lo, hi = max(0.0, mode - width), min(mode, 1.0 - width)

    def gap(t):
        return stats.beta.pdf(t, a, b) - stats.beta.pdf(t + width, a, b)

    if gap(lo) * gap(hi) > 0.0:
        # no sign change: the better bracket end holds the most mass
        mass = [special.betainc(a, b, t + width) - special.betainc(a, b, t)
                for t in (lo, hi)]
        lower = lo if mass[0] >= mass[1] else hi
    else:
        lower = optimize.brentq(gap, lo, hi, xtol=1e-15, rtol=1e-15)
    return lower, lower + width


def weights(method, n, p):
    """Harrell-Davis ('hd') or trimmed ('thd', width 1/sqrt(n)) weights."""
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = np.arange(n + 1) / n
    cdf = special.betainc(a, b, grid)
    if method == "thd":
        lower, upper = _hdi(a, b, 1.0 / math.sqrt(n))
        f_lo, f_hi = special.betainc(a, b, [lower, upper])
        cdf = np.clip((cdf - f_lo) / (f_hi - f_lo), 0.0, 1.0)
        cdf[grid <= lower] = 0.0
        cdf[grid >= upper] = 1.0
    return np.diff(cdf)


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def check_sim(csv_text, config, seed):
    """Problems found in a `simulate --kind sim2` CSV; empty when correct."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ["distribution", "n", "p", "mse_hf7", "mse_hd",
                               "mse_thd", "eff_hd", "eff_thd"]:
        return ["unexpected CSV header"]
    rows = rows[1:]
    cells = [(label, n, p) for label in config["specs"]
             for n in config["sample_sizes"] for p in config["p_grid"]]
    if len(rows) != len(cells):
        return ["expected %d rows, got %d" % (len(cells), len(rows))]
    spb, batches = config["samples_per_batch"], config["batches"]
    problems = []
    for row, (label, n, p) in zip(rows, cells):
        if len(row) != 8 or row[0] != label or int(row[1]) != n or \
                float(row[2]) != p:
            problems.append("row %r is not cell (%s, %d, %r)"
                            % (row[:3], label, n, p))
            continue
        dist = _distribution(label)
        prefix = _fnv1a64(("%s|%d|%r|" % (label, n, p)).encode())
        sids = [_fnv1a64(("%d|%d" % (bi, s)).encode(), prefix)
                for bi in range(batches) for s in range(spb)]
        xs = np.sort(dist.ppf(_uniforms(seed, sids, n)), axis=1)
        est = {"hf7": np.quantile(xs, p, axis=1, method="linear"),
               "hd": xs @ weights("hd", n, p),
               "thd": xs @ weights("thd", n, p)}
        theta = dist.ppf(p)
        mse = {}
        for role, e in est.items():
            means = np.mean(((e - theta) ** 2).reshape(batches, spb), axis=1)
            mse[role] = np.sort(means)[batches // 2]
        want = [float(v) for v in (mse["hf7"], mse["hd"], mse["thd"],
                                   mse["hf7"] / mse["hd"],
                                   mse["hf7"] / mse["thd"])]
        for col, got, ref in zip(("mse_hf7", "mse_hd", "mse_thd", "eff_hd",
                                  "eff_thd"), row[3:], want):
            if not _close(float(got), ref, SIM_RTOL):
                problems.append("%s n=%d p=%r %s: got %s, reference %r"
                                % (label, n, p, col, got, ref))
    return problems


def check_estimate(seed, index, stdout):
    """Problems found in the stdout of the index-th estimate call."""
    method, n, probs = workloads.estimate_call(seed, index)
    xs = np.sort(np.fromiter(workloads.estimate_data(seed, index, n),
                             dtype=float, count=n))
    lines = stdout.splitlines()
    if len(lines) != len(probs):
        return ["call %d: expected %d lines, got %d"
                % (index, len(probs), len(lines))]
    problems = []
    for line, p in zip(lines, probs):
        p_text, _, value = line.partition(",")
        if p_text != repr(p):
            problems.append("call %d: line %r is not for p=%r"
                            % (index, line, p))
            continue
        try:
            got = float(value)
        except ValueError:
            problems.append("call %d: unparseable line %r" % (index, line))
            continue
        w = weights(method, n, p)
        ref = float(xs @ w)
        scale = float(np.abs(w * xs).sum())
        if not abs(got - ref) <= EST_RTOL * scale:
            problems.append("call %d: %s n=%d p=%r: got %s, reference %r"
                            % (index, method, n, p, value, ref))
    return problems
