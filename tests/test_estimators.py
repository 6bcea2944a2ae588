import hashlib
import math
import random
import struct
import tracemalloc
from array import array

import pytest

from trimq import (
    Sample,
    beta_hdi,
    BetaParams,
    hd_quantile,
    hd_weights,
    hf7_quantile,
    thd_quantile,
    thd_weights,
)

from _oracles import ibeta_oracle, transcribed_thd_weights

# ten values, one deliberate far outlier at the top
OUTLIER_SAMPLE = (-0.565, -0.106, -0.095, 0.363, 0.404, 0.633,
                  1.371, 1.512, 2.018, 100000.0)

# published 4-decimal weights for n=10, p=0.5
HD_W_REF = (0.0005, 0.0146, 0.0727, 0.1684, 0.2438,
            0.2438, 0.1684, 0.0727, 0.0146, 0.0005)
THD_W_REF = (0.0, 0.0, 0.0, 0.1554, 0.3446, 0.3446, 0.1554, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Sample container

def test_sample_sorts_input():
    s = Sample([3.0, 1.0, 2.0])
    assert s.values == (1.0, 2.0, 3.0)
    assert len(s) == 3


def test_sample_accepts_presorted_and_verifies():
    s = Sample([1.0, 2.0, 2.0, 5.0], presorted=True)
    assert s.values == (1.0, 2.0, 2.0, 5.0)
    with pytest.raises(ValueError):
        Sample([1.0, 3.0, 2.0], presorted=True)


def test_sample_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Sample([])
    with pytest.raises(ValueError):
        Sample([1.0, math.nan])
    with pytest.raises(ValueError):
        Sample([math.inf, 1.0])


def test_sample_rejects_text_and_bytes():
    # a str or bytes is a sequence of characters or byte values, not of
    # numbers: "19" must not read as the sample (1, 9)
    for values in ("19", b"19", bytearray(b"19")):
        name = type(values).__name__
        with pytest.raises(ValueError, match="not %s$" % name):
            Sample(values)
        for estimate in (hf7_quantile, hd_quantile, thd_quantile):
            with pytest.raises(ValueError, match="not %s$" % name):
                estimate(values, 0.5)


# ---------------------------------------------------------------------------
# classic interpolation estimator

def test_hf7_small_closed_forms():
    s = Sample([1.0, 2.0, 3.0, 4.0])
    assert hf7_quantile(s, 0.5) == 2.5
    assert hf7_quantile(s, 0.0) == 1.0
    assert hf7_quantile(s, 1.0) == 4.0
    assert abs(hf7_quantile(s, 1.0 / 3.0) - 2.0) <= 1e-15


def test_hf7_single_element():
    s = Sample([42.0])
    for p in [0.0, 0.3, 1.0]:
        assert hf7_quantile(s, p) == 42.0


def test_hf7_interpolates_across_a_gap_past_the_largest_double():
    # the gap between the two order statistics overflows to inf; the
    # estimate stays finite, between them and monotone in p
    big = 1.7e308
    assert hf7_quantile([-big, big], 0.5) == 0.0
    assert hf7_quantile([-big, 0.0, big], 0.5) == 0.0
    ps = [k / 20.0 for k in range(21)]
    for xs in ([-big, big], [-big, -1.0, big], [-big, 1.0, 2.0, big]):
        got = [hf7_quantile(xs, p) for p in ps]
        assert got[0] == -big and got[-1] == big
        assert all(a <= b for a, b in zip(got, got[1:])), got


def test_hf7_matches_linear_interpolation():
    rng = random.Random(11)
    xs = sorted(rng.gauss(0, 1) for _ in range(23))
    s = Sample(xs, presorted=True)
    for p in [0.01, 0.25, 0.5, 0.77, 0.99]:
        h = (len(xs) - 1) * p + 1
        j = int(math.floor(h))
        ref = xs[j - 1] + (h - j) * (xs[j] - xs[j - 1]) if j < len(xs) else xs[-1]
        assert abs(hf7_quantile(s, p) - ref) <= 1e-15


# ---------------------------------------------------------------------------
# untrimmed weighted estimator

def test_hd_weights_published_example():
    w = hd_weights(10, 0.5)
    assert w.weights == tuple(w.weights)
    for got, want in zip(w.weights, HD_W_REF):
        assert abs(got - want) <= 1e-4


def test_hd_weights_tiny_closed_forms():
    assert hd_weights(1, 0.3).weights == (1.0,)
    w = hd_weights(2, 0.5).weights
    assert abs(w[0] - 0.5) <= 1e-12 and abs(w[1] - 0.5) <= 1e-12


def test_hd_weights_rejects_extreme_p():
    with pytest.raises(ValueError):
        hd_weights(5, 0.0)
    with pytest.raises(ValueError):
        hd_weights(5, 1.0)


def test_weights_reject_non_integral_and_bool_n():
    # int(n) would build 2-point weights for 2.5 and read True as n = 1
    for bad in [2.5, 0.5, True, False, math.nan, math.inf, "10", None]:
        with pytest.raises(ValueError, match="n must be a positive integer"):
            hd_weights(bad, 0.5)
        with pytest.raises(ValueError, match="n must be a positive integer"):
            thd_weights(bad, 0.5, 0.5)
    # integral values of any numeric type still count
    assert hd_weights(10.0, 0.5) == hd_weights(10, 0.5)
    assert thd_weights(10.0, 0.3, 0.5) == thd_weights(10, 0.3, 0.5)


def test_hd_quantile_published_example():
    s = Sample(OUTLIER_SAMPLE, presorted=True)
    assert abs(hd_quantile(s, 0.5) - 51.9169) <= 1e-3


def test_hd_quantile_edge_p_hits_extremes():
    s = Sample([5.0, 1.0, 3.0])
    assert hd_quantile(s, 0.0) == 1.0
    assert hd_quantile(s, 1.0) == 5.0


def test_hd_quantile_two_points_median():
    assert abs(hd_quantile(Sample([0.0, 1.0]), 0.5) - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# trimmed weighted estimator

def test_thd_weights_published_example():
    w = thd_weights(10, 0.5, 1.0 / math.sqrt(10.0))
    for got, want in zip(w.weights, THD_W_REF):
        assert abs(got - want) <= 1e-4
    # support is exactly the four middle positions
    assert w.support_lo == 4 and w.support_hi == 7
    assert all(x == 0.0 for x in w.weights[:3])
    assert all(x == 0.0 for x in w.weights[7:])


def test_thd_full_width_equals_untrimmed():
    wt = thd_weights(10, 0.5, 1.0)
    wh = hd_weights(10, 0.5)
    assert wt.weights == wh.weights


def test_thd_weights_against_quadrature_oracle():
    # truncated-CDF differences recomputed with the independent integrator,
    # interval bounds taken from the solver under its own contract
    n, p, width = 7, 0.2, 1.0 / math.sqrt(7.0)
    hdi = beta_hdi(BetaParams((n + 1) * p, (n + 1) * (1 - p)), width)
    lo_cdf = ibeta_oracle(hdi.lower, (n + 1) * p, (n + 1) * (1 - p))
    hi_cdf = ibeta_oracle(hdi.upper, (n + 1) * p, (n + 1) * (1 - p))

    def trunc(x):
        x = min(max(x, hdi.lower), hdi.upper)
        ib = ibeta_oracle(x, (n + 1) * p, (n + 1) * (1 - p))
        return (ib - lo_cdf) / (hi_cdf - lo_cdf)

    i_lo = int(math.floor(hdi.lower * n))
    i_hi = int(math.ceil(hdi.upper * n))
    want = [0.0] * n
    prev = trunc(i_lo / n)
    for i in range(i_lo + 1, i_hi + 1):
        cur = trunc(i / n)
        want[i - 1] = cur - prev
        prev = cur
    got = thd_weights(n, p, width)
    for g, w in zip(got.weights, want):
        assert abs(g - w) <= 1e-8


def test_thd_quantile_published_example():
    s = Sample(OUTLIER_SAMPLE, presorted=True)
    assert abs(thd_quantile(s, 0.5) - 0.6268) <= 1e-3
    assert abs(thd_quantile(s, 0.5, width=1.0) - 51.9169) <= 1e-3


def test_thd_default_width_is_inverse_sqrt_n():
    s = Sample(OUTLIER_SAMPLE, presorted=True)
    explicit = thd_quantile(s, 0.5, width=1.0 / math.sqrt(10.0))
    assert thd_quantile(s, 0.5) == explicit


def test_thd_two_points_median():
    assert abs(thd_quantile(Sample([0.0, 1.0]), 0.5) - 0.5) <= 1e-12


def test_thd_single_element():
    s = Sample([7.5])
    assert thd_quantile(s, 0.5) == 7.5
    w = thd_weights(1, 0.5, 1.0)
    assert w.weights == (1.0,)


def test_thd_edge_p_hits_extremes():
    s = Sample([5.0, 1.0, 3.0])
    assert thd_quantile(s, 0.0) == 1.0
    assert thd_quantile(s, 1.0) == 5.0


def test_thd_width_validation():
    for bad in [0.0, -0.2, 1.5, math.nan]:
        with pytest.raises(ValueError):
            thd_weights(5, 0.5, bad)


def test_thd_quantile_checks_width_at_extreme_p():
    # p = 0 and p = 1 return a sample extreme without an interval, but an
    # invalid width is still an error there
    s = Sample([5.0, 1.0, 3.0])
    for p in (0.0, 1.0):
        for bad in [5, -1, 0.0, math.nan, math.inf]:
            with pytest.raises(ValueError, match=r"width must lie in \(0, 1\]"):
                thd_quantile(s, p, width=bad)
        assert thd_quantile(s, p, width=1) == thd_quantile(s, p)


def test_estimators_accept_raw_iterables():
    xs = [3.0, 1.0, 2.0]
    assert hf7_quantile(xs, 0.5) == 2.0
    assert abs(hd_quantile(xs, 0.5) - hd_quantile(Sample(xs), 0.5)) == 0.0
    assert abs(thd_quantile(xs, 0.5) - thd_quantile(Sample(xs), 0.5)) == 0.0


def test_ties_are_handled():
    s = Sample([2.0, 2.0, 2.0, 2.0])
    for p in [0.2, 0.5, 0.8]:
        assert hf7_quantile(s, p) == 2.0
        assert abs(hd_quantile(s, p) - 2.0) <= 1e-12
        assert abs(thd_quantile(s, p) - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# property suites (plain functions: the acceptance module times them)

def test_weight_normalization_and_support():
    for n in [1, 2, 3, 5, 7, 10, 17, 50, 143, 1000]:
        for p in [0.01, 0.3, 0.5, 0.77, 0.99]:
            wh = hd_weights(n, p)
            assert abs(math.fsum(wh.weights) - 1.0) <= 1e-10, (n, p)
            assert all(w >= 0.0 for w in wh.weights)
            for width in [1.0 / math.sqrt(n), 0.3, 1.0]:
                wt = thd_weights(n, p, width)
                assert abs(math.fsum(wt.weights) - 1.0) <= 1e-10, (n, p, width)
                assert all(w >= 0.0 for w in wt.weights)
                assert 1 <= wt.support_lo <= wt.support_hi <= n
                assert all(w == 0.0 for w in wt.weights[:wt.support_lo - 1])
                assert all(w == 0.0 for w in wt.weights[wt.support_hi:])


def test_location_scale_equivariance():
    rng = random.Random(99)
    for n in [3, 10, 37]:
        xs = [rng.gauss(0, 1) for _ in range(n)]
        for scale, shift in [(2.0, -3.0), (0.5, 7.0)]:
            ys = [scale * x + shift for x in xs]
            for p in [0.05, 0.3, 0.5, 0.9]:
                for est in (hf7_quantile, hd_quantile, thd_quantile):
                    base = est(Sample(xs), p)
                    moved = est(Sample(ys), p)
                    want = scale * base + shift
                    assert abs(moved - want) <= 1e-9 * max(1.0, abs(want)), (
                        n, scale, shift, p, est.__name__)


def test_outlier_deadness():
    base = Sample(OUTLIER_SAMPLE, presorted=True)
    wild = Sample(OUTLIER_SAMPLE[:-1] + (1e9,), presorted=True)
    # the trimmed median assigns the top order statistic an exactly-zero
    # weight, so changing the outlier cannot move the estimate even one ulp
    assert thd_quantile(base, 0.5) == thd_quantile(wild, 0.5)
    assert hd_quantile(base, 0.5) != hd_quantile(wild, 0.5)


def test_hd_monotonic_in_p():
    rng = random.Random(4)
    for n in [2, 9, 50]:
        s = Sample([rng.gauss(0, 1) for _ in range(n)])
        prev = -math.inf
        for k in range(1, 100):
            cur = hd_quantile(s, k / 100.0)
            assert cur >= prev - 1e-12, (n, k)
            prev = cur


def test_reference_parity():
    # package weights against an independent spelling of the same recipe
    # using an external beta CDF, interval bounds shared
    count = 0
    for n in [2, 3, 5, 7, 10, 20, 50, 100]:
        for p in [0.01, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 0.99]:
            for width in [1.0 / math.sqrt(n), 0.25, 0.6, 1.0]:
                hdi = beta_hdi(BetaParams((n + 1) * p, (n + 1) * (1 - p)), width)
                got = thd_weights(n, p, width)
                want = transcribed_thd_weights(n, p, width, hdi.lower, hdi.upper)
                for g, w in zip(got.weights, want):
                    assert abs(g - w) <= 1e-12, (n, p, width)
                count += 1
    assert count >= 200


# p grid of the pinned weight digest, tails included
PIN_PS = (1e-4, 0.001, 0.01, 0.05, 0.25, 0.5, 0.77, 0.95, 0.99, 0.999,
          1 - 1e-4)


def _use_kernels(monkeypatch, backend):
    # the weight builder over one kernel module, whichever backend.kernels is
    from trimq import _kernels_c, _kernels_py, estimators

    kernels = {"python": _kernels_py, "c": _kernels_c}[backend]
    monkeypatch.setattr(estimators, "_k", kernels)
    return kernels


def _weights_outcome(n, p, width):
    try:
        wv = thd_weights(n, p, width)
    except ArithmeticError as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return repr((wv.weights, wv.support_lo, wv.support_hi))


@pytest.mark.parametrize("backend", ["python", "c"])
def test_weight_bytes_are_pinned(monkeypatch, backend):
    # exact guard on every bit of the weight vectors, tails and n = 1
    # included: a rewrite of the builder or of its kernels must keep it,
    # the reference weight loop as well as the C one
    _use_kernels(monkeypatch, backend)
    digest = hashlib.sha256()
    for n in list(range(1, 61)) + [100, 333, 1000]:
        for p in PIN_PS:
            vectors = [hd_weights(n, p)] + [
                thd_weights(n, p, w) for w in (1.0 / math.sqrt(n), 0.3, 1.0)]
            for wv in vectors:
                digest.update(repr((wv.weights, wv.support_lo,
                                    wv.support_hi)).encode())
    assert digest.hexdigest() == (
        "29f28ee0ea77d683881444e0e8cf5b7e713931f81a8573bc3e66dc797e485643")


# a grid wider than the pin: every n to 80, larger n, far tails of p
PARITY_NS = list(range(1, 81)) + [333, 1000, 4321, 10000]
PARITY_PS = (1e-300, 1e-17, 1e-4, 0.05, 0.37, 0.5, 0.95, 1 - 1e-4,
             1 - 1e-16)


def _parity_grid():
    for n in PARITY_NS:
        for p in PARITY_PS:
            for width in (1.0 / math.sqrt(n), 0.3, 1.0):
                yield n, p, width
    for p in PARITY_PS:
        yield 100000, p, 1.0 / math.sqrt(100000)


def test_c_weight_window_matches_the_reference_bit_for_bit(monkeypatch):
    from trimq import _kernels_py

    _use_kernels(monkeypatch, "c")
    gave_back = []

    def reference(*args):
        gave_back.append(args)
        raise AssertionError("the C weight loop gave %r back" % (args,))

    # the C wrapper reaches the reference loop only to give a window back
    monkeypatch.setattr(_kernels_py, "weight_window", reference)
    got = {key: _weights_outcome(*key) for key in _parity_grid()}
    assert gave_back == []
    monkeypatch.undo()
    _use_kernels(monkeypatch, "python")
    for key, outcome in got.items():
        assert outcome == _weights_outcome(*key), key


def test_c_weight_window_gives_back_what_the_reference_raises(monkeypatch):
    # a fraction capped below its need: the C loop stops where it fails,
    # and the reference raises its own error at the same x, without
    # running the loop the C code already ran
    from trimq import _kernels_py

    monkeypatch.setattr(_kernels_py, "_MAX_ITER", 5)
    loop = _kernels_py.weight_window
    ran = []

    def reference(*args):
        ran.append(args[:3])
        return loop(*args)

    monkeypatch.setattr(_kernels_py, "weight_window", reference)
    got = {}
    for backend in ("c", "python"):
        _use_kernels(monkeypatch, backend)
        with pytest.raises(ArithmeticError) as info:
            hd_weights(1000, 0.37)
        got[backend] = (type(info.value), str(info.value))
    assert ran == [(1000, 0, 1000)]  # the python backend's own loop
    assert got["c"] == got["python"]
    assert got["c"][0] is ArithmeticError
    assert got["c"][1].startswith(
        "incomplete beta continued fraction did not converge"), got


def test_c_weight_window_raises_where_it_stops(monkeypatch):
    # at n = 1e6 the fraction gives out near the mean: the C loop reports
    # the index, and the reference incomplete beta raises there, without
    # running the reference loop up to it
    from trimq import _kernels_py

    got = {}
    _use_kernels(monkeypatch, "python")
    with pytest.raises(ArithmeticError) as info:
        hd_weights(10 ** 6, 0.37)
    got["python"] = (type(info.value), str(info.value))

    def reference(*args):
        raise AssertionError("the C weight loop gave the window back")

    monkeypatch.setattr(_kernels_py, "weight_window", reference)
    _use_kernels(monkeypatch, "c")
    with pytest.raises(ArithmeticError) as info:
        hd_weights(10 ** 6, 0.37)
    got["c"] = (type(info.value), str(info.value))
    assert got["c"] == got["python"] == (
        ArithmeticError, "incomplete beta continued fraction did not "
        "converge (a=370000, b=630001, x=0.369856)")


def test_c_weight_window_hands_over_the_index_it_stops_at(monkeypatch):
    # under a term cap the C loop stops at the first index whose fraction
    # does not converge, the window starting 0 to 3 indices before it: the
    # wrapper asks the reference incomplete beta there alone, which raises
    # its own error; were that one to return, the wrapper would return the
    # reference loop's window whole
    from trimq import _kernels_c, _kernels_py

    n, a, b = 1000, 370.37, 630.63
    monkeypatch.setattr(_kernels_py, "_MAX_ITER", 20)

    def converges(i):
        try:
            _kernels_py.reg_inc_beta(i / n, a, b)
        except ArithmeticError:
            return False
        return True

    stop = 332  # the first index whose fraction needs more than 20 terms
    assert all(map(converges, range(stop))) and not converges(stop)
    reference = _kernels_py.reg_inc_beta
    asked = []

    def recorded(x, a, b):
        asked.append(x)
        return reference(x, a, b)

    def returning(x, a, b):
        asked.append(x)
        return x

    for offset in range(4):
        args = (n, stop - offset, stop + 5, a, b, 0.0, 1.0, 0.0, 1.0)
        monkeypatch.setattr(_kernels_py, "reg_inc_beta", recorded)
        with pytest.raises(ArithmeticError) as info:
            _kernels_c.weight_window(*args)
        assert asked == [stop / n], offset
        assert str(info.value) == (
            "incomplete beta continued fraction did not converge "
            "(a=370.37, b=630.63, x=0.332)")
        asked.clear()
        monkeypatch.setattr(_kernels_py, "reg_inc_beta", returning)
        got = _kernels_c.weight_window(*args)
        assert asked[0] == stop / n, offset
        assert got == _kernels_py.weight_window(*args), offset
        asked.clear()


def test_weights_make_one_kernel_call_per_vector(monkeypatch):
    # the loop crosses into C once; the interval ends are the only scalar
    # incomplete betas
    kernels = _use_kernels(monkeypatch, "c")
    calls = []

    def counted(name):
        kernel = getattr(kernels, name)

        def call(*args):
            calls.append(name)
            return kernel(*args)
        return call

    for name in ("weight_window", "reg_inc_beta"):
        monkeypatch.setattr(kernels, name, counted(name))
    got = repr(hd_weights(10000, 0.37))
    assert calls.count("weight_window") == 1
    assert calls.count("reg_inc_beta") <= 2
    assert len(calls) <= 3
    monkeypatch.undo()
    _use_kernels(monkeypatch, "python")
    assert got == repr(hd_weights(10000, 0.37))


@pytest.mark.parametrize("backend", ["python", "c"])
def test_an_estimate_reads_only_its_window(monkeypatch, backend):
    # at n = 1e5 the default window spans about 600 order statistics: one
    # estimate allocates about that much, not the 1.5 MB of the list and
    # tuple of an n-long weight vector
    _use_kernels(monkeypatch, backend)
    sample = Sample(range(100000), presorted=True)
    thd_quantile(sample, 0.5)  # solve and code paths warmed at another p
    tracemalloc.start()
    try:
        thd_quantile(sample, 0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024, peak


@pytest.mark.parametrize("backend", ["python", "c"])
def test_estimates_build_no_weight_vector(monkeypatch, backend):
    from trimq import Sim2Config, estimate_mse, estimators, run_sim2
    from trimq import simulation

    monkeypatch.setattr(simulation, "_k", _use_kernels(monkeypatch, backend))
    rng = random.Random(5)
    xs = [rng.gauss(0.0, 1.0) for _ in range(1000)]
    config = Sim2Config.from_dict({
        "specs": ["Normal(m=0, sd=1)", "Exp(rate=1)"],
        "sample_sizes": [1, 2, 17], "p_grid": [0.1, 0.5],
        "samples_per_batch": 4, "batches": 3, "seed": 2})

    def outcomes():
        return repr((thd_quantile(xs, 0.3), thd_quantile(xs, 0.3, 0.2),
                     hd_quantile(xs, 0.9),
                     estimate_mse("thd-sqrt", "Exp(rate=1)", 40, 0.25, 6, 3,
                                  9),
                     run_sim2(config).to_csv()))

    want = outcomes()

    def no_vector(*args):
        raise AssertionError("an estimate built a WeightVector")

    monkeypatch.setattr(estimators, "WeightVector", no_vector)
    assert outcomes() == want
    with pytest.raises(AssertionError, match="built a WeightVector"):
        hd_weights(10, 0.5)


# ---------------------------------------------------------------------------
# the weighted sum of a window

def _recorded_sums(monkeypatch):
    """The sums the C code hands to the reference, which still runs."""
    from trimq import _kernels_py

    reference = _kernels_py.weighted_sum
    calls = []

    def recorded(*args):
        calls.append(args)
        return reference(*args)
    monkeypatch.setattr(_kernels_py, "weighted_sum", recorded)
    return calls


def _sum_outcome(kernel, lo, ws, xs):
    """The bits of the sum, or the error's type and text."""
    try:
        return struct.pack("<d", kernel(lo, ws, xs))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_c_weighted_sum_matches_the_reference_bit_for_bit(monkeypatch):
    # every hd window at n = 1e4 (p = 0.01 .. 0.99) over contaminated
    # normal values, whose weights fall to subnormals at the window's
    # ends, then seeded windows of random weights at random offsets, the
    # first and last values among them: the same double, never given back
    from trimq import _kernels_c, _kernels_py, estimators

    kernels = _use_kernels(monkeypatch, "c")
    rng = random.Random(28)
    n = 10 ** 4
    xs = array("d", (rng.gauss(0.0, 1000.0 if rng.random() < 0.05 else 1.0)
                     for _ in range(n)))
    kernels.sort_floats(xs)
    windows = [estimators._trimmed_weights(n, k / 100, 1.0)
               for k in range(1, 100)]
    for _ in range(300):
        length = rng.randrange(400)
        windows.append((rng.randrange(n - length + 1),
                        tuple(rng.random() * 10.0 ** rng.randrange(-330, 5)
                              for _ in range(length))))
    windows += [(0, (1.0,)), (n - 3, (0.25, 0.25, 0.5)), (n, ())]
    want = [_kernels_py.weighted_sum(lo, ws, xs) for lo, ws in windows]
    gave_back = _recorded_sums(monkeypatch)
    got = [_kernels_c.weighted_sum(lo, ws, xs) for lo, ws in windows]
    assert gave_back == []
    assert struct.pack("<%dd" % len(got), *got) == (
        struct.pack("<%dd" % len(want), *want))


# products that are not finite, or whose sum overflows: the C code gives
# each back, and the reference returns or raises what math.fsum does
GIVEN_BACK_SUMS = {
    "inf": ((1e300,), [1e300]),
    "-inf": ((2.0, 1e300), [-1.0, -1e300]),
    "inf - inf": ((1e300, 1e300), [-1e300, 1e300]),
    "overflow": ((1.0, 1.0), [1e308, 1e308]),
    "nan": ((0.0, 1.0), [math.inf, 1.0]),
}


@pytest.mark.parametrize("case", sorted(GIVEN_BACK_SUMS))
def test_c_weighted_sum_gives_back_what_the_reference_returns(monkeypatch,
                                                              case):
    from trimq import _kernels_c, _kernels_py

    ws, values = GIVEN_BACK_SUMS[case]
    xs = array("d", [0.5] + values)
    want = _sum_outcome(_kernels_py.weighted_sum, 1, ws, xs)
    gave_back = _recorded_sums(monkeypatch)
    assert _sum_outcome(_kernels_c.weighted_sum, 1, ws, xs) == want
    assert gave_back == [(1, ws, xs)]


def test_c_weighted_sum_hands_other_sequences_to_the_reference(monkeypatch):
    # a list, an array of another type or a window past the end: the
    # reference's slice decides
    from trimq import _kernels_c, _kernels_py

    ws = (0.25, 0.75)
    cases = [(1, [1.0, 2.0, 4.0]), (0, array("f", [1.0, 2.0])),
             (2, array("d", [1.0, 2.0, 4.0]))]
    want = [_kernels_py.weighted_sum(lo, ws, xs) for lo, xs in cases]
    gave_back = _recorded_sums(monkeypatch)
    assert [_kernels_c.weighted_sum(lo, ws, xs) for lo, xs in cases] == want
    assert len(gave_back) == len(cases)
