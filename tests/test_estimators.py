import hashlib
import math
import random

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


def test_weight_bytes_are_pinned():
    # exact guard on every bit of the weight vectors, tails and n = 1
    # included: a rewrite of the builder or of its kernels must keep it
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
