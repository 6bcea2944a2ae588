"""The one form of a sequence of doubles between the layers: every kernel
that returns doubles returns an array('d') under both kernel modules, also
where the C code gives part of a call back, every transform returns one,
and the C backend's hot paths, which read those arrays at their addresses,
hand nothing to the reference."""

import math
import random
from array import array

import pytest

from trimq import (DistributionSpec, Sim1Config, Sim2Config, distributions,
                   estimators, hd_quantile, run_sim1, run_sim2, simulation,
                   thd_quantile)
from trimq import _kernels_c, _kernels_py
from trimq.distributions import _FAMILIES, transform
from trimq.estimators import Sample, _hf7, _trimmed_weights

from test_distributions import _case_id
from test_simulation import ALL_FAMILIES

MODULES = {"python": _kernels_py, "c": _kernels_c}


def _is_doubles(xs):
    return type(xs) is array and xs.typecode == "d"


def _uncapped_rest(monkeypatch):
    """The reference quantiles, which receive the rest of a call that the
    C code gives back under a term cap, run without the cap: the wrapper's
    result is then the C prefix joined to the reference's rest.  The p
    handed over are recorded."""
    kernel = _kernels_py.quantiles
    received = []

    def rest(kind, params, ps):
        received.append(list(ps))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels_py, "_MAX_ITER", 300)
            return kernel(kind, params, ps)
    monkeypatch.setattr(_kernels_py, "quantiles", rest)
    return received


@pytest.mark.parametrize("backend", sorted(MODULES))
def test_every_kernel_returns_an_array_of_doubles(backend):
    k = MODULES[backend]
    ps = [0.01, 0.3, 0.5, 0.97]
    assert _is_doubles(k.quantiles("Beta", (2.0, 4.0), ps))
    assert _is_doubles(k.quantiles("Beta", (2.0, 4.0), []))
    assert _is_doubles(k.quantiles("Student", (3.0,), ps))
    assert _is_doubles(k.quantiles("Student", (3.0,), []))
    assert _is_doubles(k.quantiles("Normal", (0.0, 1.0), ps))
    assert _is_doubles(k.quantiles("Exp", (1.0,), ()))
    window, lo, hi = k.weight_window(10, 0, 10, 3.3, 7.7, 0.0, 1.0, 0.0, 1.0)
    assert _is_doubles(window) and len(window) == 10 and (lo, hi) == (1, 10)
    us = k.batch_uniforms(k.mix_seed(5), 77, 0, 6, 4)
    assert _is_doubles(us) and len(us) == 24
    assert _is_doubles(k.parse_floats(b"1.5 -2 3e4\n"))
    scorers = [_hf7(4, 0.3), _trimmed_weights(4, 0.3, 1.0), max]
    got = k.piece_errors(us, 4, 0.5, scorers)
    assert len(got) == 3 and all(_is_doubles(errs) for errs in got)
    assert all(len(errs) == 6 for errs in got)


@pytest.mark.parametrize("kind, params, cap, good, bad", (
    ("Beta", (2.0, 4.0), 3, [0.85, 0.9], [0.3, 0.5]),
    ("Student", (50.0,), 12, [0.3, 0.5], [0.05, 0.95])), ids=_case_id)
def test_a_batch_given_back_partway_is_still_an_array(monkeypatch, kind,
                                                      params, cap, good, bad):
    # the p of `bad` do not converge under the cap: the C code keeps the
    # quantiles before the first and hands the reference the rest
    ps = good + bad + good
    want = _kernels_py.quantiles(kind, params, ps)
    received = _uncapped_rest(monkeypatch)
    monkeypatch.setattr(_kernels_py, "_MAX_ITER", cap)
    got = _kernels_c.quantiles(kind, params, ps)
    assert received == [ps[len(good):]]
    assert _is_doubles(got) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("backend", sorted(MODULES))
def test_the_other_kernels_given_back_are_still_arrays(backend):
    # under C, each call below is given back whole or from a point on
    k = MODULES[backend]
    # an Exp quantile past the largest double: the array stops short
    got = k.quantiles("Exp", (1e-308,), [0.5, 0.999999, 0.5])
    assert _is_doubles(got) and len(got) == 1
    # a NaN, whose place in sorted order only the reference decides
    values = array("d", [0.5, math.nan, -1.0, 2.0, 0.25, 3.0])
    got = k.piece_errors(values, 3, 0.0, [(2, 0.5)])
    assert len(got) == 1 and _is_doubles(got[0]) and len(got[0]) == 2
    # a list of values, and a window that is a tuple, are read by the
    # reference
    for values, window in (([3.0, 1.0, 2.0], array("d", (0.5, 0.5))),
                           (array("d", [3.0, 1.0, 2.0]), (0.5, 0.5))):
        got = k.piece_errors(values, 3, 0.0, [(0, window)])
        assert len(got) == 1 and _is_doubles(got[0])
        assert got[0].tolist() == [(1.5 - 0.0) ** 2]
    # an s below 0, whose digits the C code cannot fold
    assert _is_doubles(k.batch_uniforms(k.mix_seed(5), 77, -2, 3, 2))
    # a token float() reads that the C parse does not
    assert k.parse_floats(b"1_000 2").tolist() == [1000.0, 2.0]
    assert _is_doubles(k.parse_floats(b"1_000 2"))


@pytest.mark.parametrize("backend", sorted(MODULES))
def test_every_transform_returns_an_array_of_doubles(monkeypatch, backend):
    monkeypatch.setattr(distributions, "_k", MODULES[backend])
    assert sorted(DistributionSpec.parse(text).kind
                  for text in ALL_FAMILIES) == sorted(_FAMILIES)
    rng = random.Random(31)
    us = [rng.random() for _ in range(40)]
    for text in ALL_FAMILIES:
        spec = DistributionSpec.parse(text)
        per, variates = transform(spec)
        for given in (us, array("d", us), us[:0]):
            got = variates(given)
            assert _is_doubles(got), text
            assert len(got) == len(given) // per, text
        assert _is_doubles(spec._q([0.2, 0.7])), text


def _fail(name):
    def given_back(*args):
        raise AssertionError("the C code gave %s back" % name)
    return given_back


def test_the_hot_paths_give_nothing_back(monkeypatch):
    # every sim2 piece is scored, every sim1 replication sorted and summed,
    # and every thd and hd estimate summed, in C: a producer that handed
    # over a list instead of an array('d') would send each to the
    # reference, about ten times slower with the same bytes, and fail here
    for module in (simulation, distributions, estimators):
        monkeypatch.setattr(module, "_k", _kernels_c)
    for name in ("piece_errors", "weighted_sum", "sort_floats"):
        monkeypatch.setattr(_kernels_py, name, _fail(name))
    cfg = Sim2Config.from_dict({
        "specs": ALL_FAMILIES, "sample_sizes": [7], "p_grid": [0.3],
        "samples_per_batch": 4, "batches": 1, "seed": 3})
    rows = run_sim2(cfg).rows
    assert len(rows) == len(_FAMILIES)
    for text in ALL_FAMILIES:
        cfg = Sim1Config.from_dict({"spec": text, "sample_size": 9,
                                    "replications": 5, "p_estimated": 0.3,
                                    "seed": 3})
        assert len(run_sim1(cfg).estimates["thd-sqrt"]) == 5, text
    rng = random.Random(41)
    sample = Sample([rng.gauss(0.0, 1.0) for _ in range(10 ** 3)])
    for p in (0.05, 0.5, 0.9):
        assert math.isfinite(thd_quantile(sample, p))
        assert math.isfinite(hd_quantile(sample, p))
