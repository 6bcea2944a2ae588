"""The quantiles of every family, the one kernel quantiles: the closed
forms' C port against the reference bit for bit, every family's on a
seeded sweep, the normal quantile against both of the standard
library's PPND16, the cases the C code gives back, and the sim2 pieces
that run through it."""

import ast
import hashlib
import json
import math
import random
import statistics
import struct

import pytest

from trimq import (DistributionSpec, Sim2Config, distributions, run_sim2,
                   simulation, true_quantile)
from trimq import _kernels_c, _kernels_py
from trimq.distributions import _FAMILIES, transform

from test_distributions import _neighbours, _outcome
from test_simulation import CONFIG_DIR, PRESET_DIGESTS

# each closed-form family with its parameters by decade, none of whose
# quantiles at SWEEP_PS overflows
PARAMS = {
    "Uniform": ((0.0, 1.0), (-10.0, 1e3), (1e-3, 1e-2), (-1e300, 1e300)),
    "Triangular": ((0.0, 1.0, 0.5), (-10.0, 1e3, 0.1), (0.0, 1e-3, 1e-3),
                   (1e3, 1e4, 1e3)),
    "Normal": ((0.0, 1.0), (1e3, 1e-3), (-1e-3, 1e3), (1e300, 1e300)),
    "LogNormal": ((0.0, 1.0), (10.0, 0.1), (-10.0, 10.0), (1e-3, 1e-3)),
    "Weibull": ((1.0, 1.0), (1e3, 0.1), (1e-3, 10.0), (1.0, 1e-2)),
    "Gumbel": ((0.0, 1.0), (1e3, 1e-3), (-1e-3, 1e3)),
    "Exp": ((1.0,), (1e-3,), (1e3,), (1e-300,)),
    "Cauchy": ((0.0, 1.0), (1e3, 1e-3), (-1e-3, 1e3)),
    "Pareto": ((1.0, 1.0), (1e-3, 10.0), (1e3, 0.1)),
    "Frechet": ((1.0,), (10.0,), (0.1,)),
}


def _sweep_ps():
    # 2**-k down to the smallest double and 1 - 2**-k up to the largest
    # double below 1, the doubles beside PPND16's switch points, and 10**5
    # uniforms
    ps = [2.0 ** -k for k in range(1, 1075)]
    ps += [1.0 - 2.0 ** -k for k in range(1, 54)]
    for edge in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
        ps += _neighbours(edge)
    rng = random.Random(27)
    return ps + [rng.random() for _ in range(10 ** 5)]


SWEEP_PS = _sweep_ps()


def _bits(xs):
    # -0.0 and 0.0 told apart, as is every NaN from a number
    return struct.pack("%dd" % len(xs), *xs)


def _recorded_give_backs(monkeypatch):
    """The p the C code hands to the reference, which still runs."""
    reference = _kernels_py.quantiles
    received = []

    def recorded(kind, params, rest):
        received.append(list(rest))
        return reference(kind, params, rest)
    monkeypatch.setattr(_kernels_py, "quantiles", recorded)
    return received


def test_the_sweep_covers_every_closed_family():
    # the C code numbers the families as _KINDS orders them, the closed
    # forms first, so a family the sweep left out could run another's
    # formula unseen
    assert sorted(PARAMS) == sorted(list(_kernels_py._KINDS)[:len(PARAMS)])


@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_c_closed_quantiles_are_the_reference_bit_for_bit(monkeypatch, kind):
    # every p of the sweep at every parameter set, none given back
    want = {params: _kernels_py.quantiles(kind, params, SWEEP_PS)
            for params in PARAMS[kind]}
    received = _recorded_give_backs(monkeypatch)
    for params in PARAMS[kind]:
        got = _kernels_c.quantiles(kind, params, SWEEP_PS)
        assert len(want[params]) == len(SWEEP_PS), params
        assert _bits(got) == _bits(want[params]), params
    assert received == []


# every family at one parameter set, in the order of its factory's
# signature (the contaminated normal's wide scale in place of c)
FAMILY_PARAMS = {**{kind: sets[0] for kind, sets in PARAMS.items()},
                 "Beta": (2.0, 4.0), "Student": (3.0,),
                 "ContaminatedNormal": (0.1, 2.0, 20.0)}

# a seeded sweep the reference's bisections run in well under a second:
# the extremes of the uniforms, the far tail, the centre and random p
_FAMILY_RNG = random.Random(32)
FAMILY_PS = [2.0 ** -54, 1.0 - 2.0 ** -53, 1e-300, 0.5] + [
    _FAMILY_RNG.random() for _ in range(300)]

# per inverted family, parameters, a term cap, p that the C code inverts
# under it, and one that it gives back
CAPPED = {"Beta": ((2.0, 4.0), 3, [0.85, 0.9], 0.3),
          "Student": ((50.0,), 12, [0.3, 0.5], 0.05)}


@pytest.mark.parametrize("kind", sorted(_FAMILIES))
def test_c_quantiles_are_the_reference_bit_for_bit_in_every_family(
        monkeypatch, kind):
    # one kernel for every family: the C code inverts the Beta and Student
    # t, computes the closed forms, and gives the contaminated normal,
    # which it does not port, back whole
    assert sorted(FAMILY_PARAMS) == sorted(_FAMILIES)
    params = FAMILY_PARAMS[kind]
    reference = _kernels_py.quantiles
    want = reference(kind, params, FAMILY_PS)
    assert len(want) == len(FAMILY_PS)
    received = _recorded_give_backs(monkeypatch)
    assert _bits(_kernels_c.quantiles(kind, params, FAMILY_PS)) == _bits(want)
    assert received == ([FAMILY_PS] if kind == "ContaminatedNormal" else [])
    if kind not in CAPPED:
        return
    # given back partway: the C quantiles before the first p past the cap,
    # then the reference's quantiles of the rest, run without the cap
    params, cap, good, bad = CAPPED[kind]
    ps = good + [bad] + good
    want = reference(kind, params, ps)
    received.clear()

    def uncapped(kind, params, rest):
        received.append(list(rest))
        with pytest.MonkeyPatch.context() as lifted:
            lifted.setattr(_kernels_py, "_MAX_ITER", 300)
            return reference(kind, params, rest)

    monkeypatch.setattr(_kernels_py, "quantiles", uncapped)
    monkeypatch.setattr(_kernels_py, "_MAX_ITER", cap)
    assert _bits(_kernels_c.quantiles(kind, params, ps)) == _bits(want)
    assert received == [ps[len(good):]]


def _pure_normal_inv_cdf():
    """statistics' pure-Python _normal_dist_inv_cdf, which the C one of
    _statistics replaces when statistics is imported."""
    with open(statistics.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                and n.name == "_normal_dist_inv_cdf")
    namespace = dict(vars(statistics))
    exec(compile(ast.Module([node], []), statistics.__file__, "exec"),
         namespace)
    return namespace["_normal_dist_inv_cdf"]


def test_c_normal_is_both_stdlib_ppnd16s_bit_for_bit():
    import _statistics

    pure = _pure_normal_inv_cdf()
    assert pure is not _statistics._normal_dist_inv_cdf
    for m, sd in PARAMS["Normal"]:
        got = _bits(_kernels_c.quantiles("Normal", (m, sd), SWEEP_PS))
        for inv_cdf in (_statistics._normal_dist_inv_cdf, pure):
            assert got == _bits([inv_cdf(p, m, sd) for p in SWEEP_PS]), (
                inv_cdf, m, sd)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_contaminated_normal_variates_are_the_stdlib_s(monkeypatch, backend):
    # the normal deviates come from one quantiles call; the standard
    # library's inv_cdf is their oracle at the centre, the near tail and
    # the far tail of PPND16, the doubles beside its switch points among
    # them, each under either component
    kernels = {"python": _kernels_py, "c": _kernels_c}[backend]
    monkeypatch.setattr(distributions, "_k", kernels)
    received = _recorded_give_backs(monkeypatch)
    spec = DistributionSpec.parse("ContaminatedNormal(epsilon=0.1, sigma=2, "
                                  "c=100)")
    eps, sigma, wide = 0.1, 2.0, 20.0
    ps = [0.5, 0.3, 0.9, 1e-3, 0.99, 1e-9, 1e-300, 5e-324, 1.0 - 2.0 ** -53]
    for edge in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
        ps += _neighbours(edge, 2)
    us = []
    for p in ps:
        us += [0.05, p, 0.1, p, 0.7, p]  # wide, then sigma twice
    inv_cdf = statistics.NormalDist().inv_cdf
    want = [(wide if pick < eps else sigma) * inv_cdf(u)
            for pick, u in zip(us[::2], us[1::2])]
    _, variates = transform(spec)
    assert _bits(variates(us)) == _bits(want)
    assert received == ([] if backend == "c" else [us[1::2]])
    # the quantiles stop short of a NaN p, which raises as a variate that
    # overflows does, naming its p
    assert _outcome(variates, [0.5, 0.3, 0.05, math.nan, 0.5, 0.7]) == (
        "ArithmeticError: %s: the variate at p=nan overflows" % spec.label)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_a_piece_overflowing_mid_list_names_its_p(monkeypatch, backend):
    # the C code keeps the quantiles before the first p that overflows and
    # hands the reference exactly the p from it; the error names that p
    kernels = {"python": _kernels_py, "c": _kernels_c}[backend]
    monkeypatch.setattr(distributions, "_k", kernels)
    us = [0.1, 0.5, 0.999999, 0.3, 0.9999999]
    params = (1e-308,)
    want = _kernels_py.quantiles("Exp", params, us)
    assert len(want) == 2 and all(math.isfinite(x) for x in want)
    received = _recorded_give_backs(monkeypatch)
    assert _bits(kernels.quantiles("Exp", params, us)) == _bits(want)
    assert received == ([us[2:]] if backend == "c" else [us])
    _, variates = transform(DistributionSpec.parse("Exp(rate=1e-308)"))
    assert _outcome(variates, us) == (
        "ArithmeticError: Exp(rate=1e-308): the quantile at p=0.999999 "
        "overflows")


@pytest.mark.parametrize("backend", ["python", "c"])
def test_a_power_that_underflows_stays_zero(monkeypatch, backend):
    # 6.9 ** -1000 rounds to 0.0, which ** returns without an error; the C
    # code computes it without giving it back
    kernels = {"python": _kernels_py, "c": _kernels_c}[backend]
    monkeypatch.setattr(distributions, "_k", kernels)
    received = _recorded_give_backs(monkeypatch)
    spec = DistributionSpec.parse("Frechet(shape=0.001)")
    assert repr(true_quantile(spec, 1e-3)) == "0.0"
    assert received == ([] if backend == "c" else [[1e-3]])


# calls the C code gives back from one of their p, the reference raising
# or returning what it makes of the rest: a p outside (0, 1), a NaN, and a
# power whose exponent is infinite
EDGES = (("Exp", (1.0,), [0.5, 0.0, 0.3]), ("Exp", (1.0,), [0.5, 1.0]),
         ("Normal", (0.0, 1.0), [0.5, -0.5]),
         ("Gumbel", (0.0, 1.0), [0.2, math.nan, 0.4]),
         ("Cauchy", (0.0, 1.0), [math.nan]),
         ("Weibull", (1.0, 5e-324), [0.1, 0.9]),
         ("Frechet", (5e-324,), [0.1, 0.9]),
         ("Pareto", (1.0, 5e-324), [0.3]))


def _any_outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


@pytest.mark.parametrize("kind, params, ps", EDGES)
def test_c_gives_back_what_the_reference_raises_or_returns(kind, params, ps):
    want = _any_outcome(_kernels_py.quantiles, kind, params, ps)
    assert _any_outcome(_kernels_c.quantiles, kind, params, ps) == want


def test_sim2_desk_runs_every_closed_quantile_in_c(monkeypatch):
    # the shipped desk grid, the closed-form families Normal, Exp, Cauchy
    # and Pareto, with the reference made to fail: every true quantile and
    # every piece's variates come from the C code, to the pinned bytes
    def given_back(*args):
        raise AssertionError("the C code gave a piece back: %r"
                             % (args[:2],))

    monkeypatch.setattr(_kernels_py, "quantiles", given_back)
    monkeypatch.setattr(distributions, "_k", _kernels_c)
    monkeypatch.setattr(simulation, "_k", _kernels_c)
    with open(CONFIG_DIR / "sim2_desk.json", encoding="utf-8") as fh:
        cfg = Sim2Config.from_dict(json.load(fh))
    text = run_sim2(cfg).to_csv()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        PRESET_DIGESTS["sim2", "sim2_desk.json"])
