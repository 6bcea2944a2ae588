"""The scoring kernel piece_errors: each sample of a piece sorted, then
scored by HF7 and by weighted windows, the same bits from the C port as
from the reference loop."""

import ctypes
import math
import random
import struct

import pytest

import _cshim

from trimq import (DistributionSpec, ESTIMATORS, Sim2Config, estimate_mse,
                   hd_quantile, hf7_quantile, run_sim2, simulation,
                   thd_quantile)
from trimq import _kernels_py
from trimq.estimators import _hf7, _trimmed_weights, hd_weights

BACKENDS = ("python", "c")


def _module(backend):
    if backend == "c":
        from trimq import _kernels_c
        return _kernels_c
    return _kernels_py


def _no_give_back(monkeypatch):
    """Make the reference fail, so that a call the C code gives back fails
    instead of being recomputed."""
    def given_back(*args):
        raise AssertionError("the C code gave the piece back")
    monkeypatch.setattr(_kernels_py, "piece_errors", given_back)


def _recorded_give_backs(monkeypatch):
    """The calls the C code hands to the reference, which still runs."""
    reference = _kernels_py.piece_errors
    calls = []

    def recorded(*args):
        calls.append(args)
        return reference(*args)
    monkeypatch.setattr(_kernels_py, "piece_errors", recorded)
    return calls


@pytest.fixture(scope="module")
def c_parts(tmp_path_factory):
    """The C sort and sum on their own: the kernel source, built with the
    package's flags behind two exported wrappers."""
    lib = _cshim.build(
        tmp_path_factory.mktemp("parts"), "parts",
        "void sort_doubles(double *xs, long n, double *tmp)\n"
        "{ stable_sort(xs, n, tmp); }\n"
        "int sum_products(const double *ws, const double *xs, long len,\n"
        "                 double *partials, double *out)\n"
        "{ return fsum_products(ws, xs, len, partials, out); }\n")
    vector = ctypes.POINTER(ctypes.c_double)
    lib.sort_doubles.argtypes = (vector, ctypes.c_long, vector)
    lib.sort_doubles.restype = None
    lib.sum_products.argtypes = (vector, vector, ctypes.c_long, vector,
                                 vector)
    lib.sum_products.restype = ctypes.c_int
    return lib


def _c_sorted(lib, values):
    n = len(values)
    xs = (ctypes.c_double * n)(*values)
    lib.sort_doubles(xs, n, (ctypes.c_double * n)())
    return xs[:]


def _c_sum(lib, ws, xs):
    """(given back, the sum)."""
    n = len(ws)
    out = ctypes.c_double()
    ok = lib.sum_products((ctypes.c_double * n)(*ws),
                          (ctypes.c_double * n)(*xs), n,
                          (ctypes.c_double * n)(), ctypes.byref(out))
    return not ok, out.value


def _signed(xs):
    # -0.0 and 0.0 compare equal; their signs tell the order of a tie
    return [(x, math.copysign(1.0, x)) for x in xs]


@pytest.mark.parametrize("n", [1, 2, 32, 33, 100, 1000, 4097])
def test_c_sort_gives_the_order_of_sorted(c_parts, n):
    # runs of insertion sort, merged one level (33), several (100 and
    # up) and unevenly (4097); zeros of both signs and repeated values
    # tie, and a stable sort keeps their order as sorted() does
    rng = random.Random(n)
    pool = [0.0, -0.0, 1.5, -1.5, math.inf, -math.inf, 5e-324, -5e-324]
    for _ in range(20):
        values = [rng.choice(pool) if rng.random() < 0.5
                  else rng.gauss(0.0, 1.0) for _ in range(n)]
        assert _signed(_c_sorted(c_parts, values)) == _signed(sorted(values))


def _bits(rng):
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


def _windows(rng):
    """(weights, values) pairs of up to 20 products: half-way cases,
    signed zeros, subnormals, cancellation, mixed magnitudes and random
    bit patterns, the last including infinities and NaNs."""
    yield [1.0] * 3, [1e16, 1.0, 1e-16]
    yield [1.0] * 3, [1e16, 1.0, -1e-16]
    yield [1.0] * 3, [1e16, -1.0, 1e-16]
    yield [1.0] * 4, [2.0 ** 53, 1.0, 2.0 ** -60, -2.0 ** -80]
    yield [1.0] * 4, [1.0, 1e100, 1.0, -1e100]
    yield [1.0] * 2, [-0.0, -0.0]
    yield [1.0] * 2, [-0.0, 0.0]
    yield [], []
    yield [1.0] * 4, [5e-324, 5e-324, -1e-323, 2.5e-323]
    yield [0.5] * 3, [5e-324, 5e-324, 5e-324]
    yield [1.0] * 4, [1e308, -1e308, 1e-308, 1.0]
    yield [1.0] * 2, [1.7e308, 1.7e308]
    yield [1.0] * 3, [1.7e308, 1.7e308, -1.7e308]
    yield [1.0] * 2, [math.inf, 1.0]
    yield [1.0] * 2, [math.inf, -math.inf]
    yield [0.0] * 1, [math.inf]
    for _ in range(4000):
        size = rng.randrange(1, 21)
        kind = rng.randrange(4)
        if kind == 0:
            xs = [_bits(rng) for _ in range(size)]
            ws = [_bits(rng) for _ in range(size)]
        elif kind == 1:
            xs = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-308, 308)
                  for _ in range(size)]
            ws = [rng.random() for _ in range(size)]
        elif kind == 2:
            half = [rng.gauss(0.0, 1e10) for _ in range(size // 2 + 1)]
            xs = (half + [-x * (1.0 + rng.gauss(0.0, 1e-15)) for x in half]
                  + [rng.gauss(0.0, 1e-10)])[:size]
            ws = [1.0] * size
        else:
            xs = [rng.gauss(0.0, 1.0) for _ in range(size)]
            ws = [rng.random() for _ in range(size)]
        yield ws, xs


def test_c_sum_is_fsum_bit_for_bit(c_parts):
    # the C sum gives a sum back exactly where math.fsum's is not finite
    # or raises, and otherwise returns fsum's double
    for ws, xs in _windows(random.Random(2026)):
        products = [w * x for w, x in zip(ws, xs)]
        try:
            want = math.fsum(products)
        except (OverflowError, ValueError):
            want = None
        given_back, got = _c_sum(c_parts, ws, xs)
        if want is None or not math.isfinite(want):
            assert given_back, (ws, xs)
        else:
            assert not given_back, (ws, xs)
            assert got.hex() == want.hex(), (ws, xs)


def test_c_sum_keeps_a_partial_per_product(c_parts):
    # powers of two 60 bits apart never merge, so each product keeps a
    # partial of its own, past the 32 that math.fsum keeps on its stack;
    # an HD window at a tail p spans as many magnitudes
    xs = [2.0 ** (1000 - 60 * i) for i in range(34)]
    assert _c_sum(c_parts, [1.0] * 34, xs) == (False, math.fsum(xs))
    ws = hd_weights(100, 0.95).weights
    xs = [1.0 + i / 7.0 for i in range(100)]
    assert _c_sum(c_parts, ws, xs) == (
        False, math.fsum(w * x for w, x in zip(ws, xs)))


def _scorers(n, p):
    return [_hf7(n, p), _trimmed_weights(n, p, 1.0),
            _trimmed_weights(n, p, 1 / math.sqrt(n))]


@pytest.mark.parametrize("backend", BACKENDS)
def test_piece_errors_are_the_public_estimators(monkeypatch, backend):
    # each sample sorted and scored as the public estimators score it;
    # n = 32 and 33 sit on each side of the merge sort's first run
    module = _module(backend)
    if backend == "c":
        _no_give_back(monkeypatch)
    rng = random.Random(7)
    for n in (1, 2, 3, 10, 32, 33, 100):
        for p in (0.05, 0.5, 0.95):
            count = 5
            values = [rng.choice((0.0, -0.0, 1.0)) if rng.random() < 0.2
                      else rng.gauss(0.0, 1.0) for _ in range(count * n)]
            theta = rng.gauss(0.0, 1.0)
            got = module.piece_errors(values, n, theta, _scorers(n, p))
            want = [[], [], []]
            for i in range(0, count * n, n):
                xs = values[i:i + n]
                for errs, est in zip(want, (
                        hf7_quantile(xs, p), hd_quantile(xs, p),
                        thd_quantile(xs, p))):
                    errs.append((est - theta) ** 2)
            assert repr(got) == repr(want), (n, p)


@pytest.mark.parametrize("backend", BACKENDS)
def test_piece_errors_match_the_reference_across_the_double_range(
        monkeypatch, backend):
    # HF7 across a gap past the largest double, its j >= n case, and
    # windows of weights over values of every magnitude
    module = _module(backend)
    rng = random.Random(11)
    cases = [([-1.7e308, 1.7e308], 2, [(1, 0.5), (2, 0.0)]),
             ([1e300, -1e300, 1e-300, 5e-324], 4,
              [(1, 0.25), (0, (0.25, 0.25, 0.25, 0.25)), (1, (1.0, 1.0))])]
    for n in (3, 8, 40):
        values = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
                  for _ in range(10 * n)]
        ws = tuple(rng.random() for _ in range(n - 1))
        cases.append((values, n, [(n - 1, 0.75), (0, ws), (1, ws)]))
    want = [_kernels_py.piece_errors(values, n, 0.5, scorers)
            for values, n, scorers in cases]
    if backend == "c":
        _no_give_back(monkeypatch)
    got = [module.piece_errors(values, n, 0.5, scorers)
           for values, n, scorers in cases]
    assert repr(got) == repr(want)


def test_c_piece_errors_give_back_what_the_reference_returns_or_raises(
        monkeypatch):
    # a NaN, whose place in sorted order depends on the sort; a callable
    # scorer; an infinite product; a scorer past the sample; a short last
    # sample; and an intermediate overflow, which fsum raises
    from trimq import _kernels_c

    nan_piece = [0.5, math.nan, -1.0, 2.0, 0.25, 3.0]
    cases = [
        (nan_piece, 3, [(2, 0.5)]),
        ([3.0, 1.0, 2.0, 5.0, 4.0, 6.0], 3, [(2, 0.5), max]),
        ([math.inf, 1.0, 2.0], 3, [(1, 0.5), (0, (0.5, 0.5, 0.5))]),
        ([3.0, 1.0, 2.0], 3, [(2, (0.5, 0.5))]),
        ([3.0, 1.0, 2.0, 5.0, 4.0], 3, [(2, 0.5)]),
    ]
    reference = _kernels_py.piece_errors
    calls = _recorded_give_backs(monkeypatch)
    for values, n, scorers in cases:
        got = _kernels_c.piece_errors(values, n, 0.0, scorers)
        assert calls == [(values, n, 0.0, scorers)]
        calls.clear()
        assert repr(got) == repr(reference(values, n, 0.0, scorers))
    with pytest.raises(OverflowError, match="intermediate overflow"):
        _kernels_c.piece_errors([1.7e308, 1.7e308], 2, 0.0,
                                [(0, (1.0, 1.0))])
    assert len(calls) == 1


def test_estimate_mse_with_a_callable_factory_is_the_same_under_both():
    # a factory runs its callables per sample in Python, under either
    # kernel module, and an id's callable gives the id's own MSE
    from trimq import _kernels_c

    spec = DistributionSpec.parse("Cauchy(x0=0, gamma=1)")

    def midrange(n, p):
        return lambda xs: 0.5 * (xs[0] + xs[-1])

    got = {}
    for module in (_kernels_py, _kernels_c):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_k", module)
            got[module] = [estimate_mse(factory, spec, 9, 0.3, 13, 3, 5)
                           for factory in (midrange, ESTIMATORS["thd-sqrt"],
                                           "thd-sqrt")]
    assert repr(got[_kernels_py]) == repr(got[_kernels_c])
    assert got[_kernels_c][1] == got[_kernels_c][2]


def test_sim2_scores_in_c_when_the_estimators_are_wrapped(monkeypatch):
    # a profiler may replace each ESTIMATORS factory with a plain wrapper;
    # the cell loop takes each role's scorer from its id, so the C kernel
    # still scores every piece
    from trimq import _kernels_c

    cfg = Sim2Config.from_dict({
        "specs": ["Normal(m=0, sd=1)", "Pareto(loc=1, shape=0.5)"],
        "sample_sizes": [6, 40], "p_grid": [0.1, 0.5],
        "samples_per_batch": 30, "batches": 3, "seed": 2})
    want = run_sim2(cfg).to_csv()
    monkeypatch.setattr(simulation, "_k", _kernels_c)
    monkeypatch.setattr(simulation, "ESTIMATORS", {
        eid: (lambda n, p, f=f: (lambda xs, est=f(n, p): est(xs)))
        for eid, f in ESTIMATORS.items()})
    _no_give_back(monkeypatch)
    assert run_sim2(cfg).to_csv() == want
