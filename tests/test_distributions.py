import bisect
import hashlib
import math
import pickle
import random
import statistics
import sys

import pytest

from trimq import DistributionSpec, RngStream, sample, true_quantile

from trimq import _kernels_py, distributions
from trimq.distributions import _FAMILIES
from trimq.estimators import hf7_quantile

from test_simulation import ALL_FAMILIES

parse_distribution = DistributionSpec.parse


# one spec per family, parameters chosen so every branch gets exercised
ALL_SPECS = [
    "Uniform(a=0, b=1)",
    "Triangular(a=0, b=2, c=0.2)",
    "Beta(a=2, b=4)",
    "Normal(m=0, sd=1)",
    "Weibull(scale=1, shape=2)",
    "Student(df=3)",
    "Gumbel(loc=0, scale=1)",
    "Exp(rate=1)",
    "Cauchy(x0=0, gamma=1)",
    "Pareto(loc=1, shape=0.5)",
    "LogNormal(mlog=0, sdlog=1)",
    "Frechet(shape=1)",
    "ContaminatedNormal(epsilon=0.01, sigma=1, c=1000000)",
]

# inverse-CDF families get the full draw budget; the three that fall back
# to numeric CDF inversion get a reduced one to keep the suite quick
BISECTION_KINDS = {"Beta", "Student", "ContaminatedNormal"}


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# parsing and labels

def test_parse_round_trips_every_family():
    for text in ALL_SPECS:
        spec = parse_distribution(text)
        again = parse_distribution(spec.label)
        assert spec == again
        assert hash(spec) == hash(again)


def test_every_family_has_a_round_trip_case_and_a_pinned_digest():
    # a new family must join ALL_SPECS here and the pinned every-family
    # simulation grid
    for cases in (ALL_SPECS, ALL_FAMILIES):
        assert sorted(parse_distribution(t).kind for t in cases) == sorted(
            _FAMILIES)


def test_specs_pickle_by_label():
    for text in ALL_SPECS:
        spec = parse_distribution(text)
        again = pickle.loads(pickle.dumps(spec))
        assert again == spec
        assert true_quantile(again, 0.3) == true_quantile(spec, 0.3)


def test_parse_defaults_and_case_insensitivity():
    assert parse_distribution("Normal") == parse_distribution("Normal(m=0, sd=1)")
    assert parse_distribution("normal(sd=2)") == parse_distribution(
        "Normal(m=0, sd=2)")
    assert DistributionSpec("Pareto", loc=1, shape=0.5) == parse_distribution(
        "Pareto(loc=1, shape=0.5)")


def test_parse_alias_spellings():
    assert parse_distribution("StudentT(df=3)") == parse_distribution("Student(df=3)")
    assert parse_distribution("Exponential(rate=2)") == parse_distribution(
        "Exp(rate=2)")


def test_label_renders_integers_bare():
    spec = parse_distribution("Pareto(loc=1, shape=0.5)")
    assert spec.label == "Pareto(loc=1, shape=0.5)"
    assert parse_distribution("Normal(m=0.0, sd=1.0)").label == "Normal(m=0, sd=1)"
    # integral values from 1e16 on are written as repr writes them
    text = "ContaminatedNormal(epsilon=0.5, sigma=1e+308, c=1)"
    huge = parse_distribution(text)
    assert huge.label == text
    assert parse_distribution(huge.label) == huge
    assert parse_distribution("Normal(m=9999999999999998, sd=1e16)").label \
        == "Normal(m=9999999999999998, sd=1e+16)"


def test_parse_errors():
    for bad in [
        "Zeta(s=2)",                      # unknown family
        "Normal(m=0, sd=1, extra=2)",     # unknown parameter
        "Normal(sd=nope)",                # unparsable value
        "Normal(0, 1)",                   # positional arguments unsupported
        "Student",                        # missing required parameter
        "Triangular(a=2, b=1, c=1.5)",    # inverted support
        "Triangular(a=0, b=1, c=3)",      # mode outside support
        "Uniform(a=1, b=1)",              # empty support
        "Uniform(a=-1e308, b=1e308)",     # b - a overflows
        "Triangular(a=-1e308, b=1e308, c=0)",
        "Triangular(a=0, b=1e200, c=1e200)",  # (b - a)(c - a) overflows
        "Triangular(a=0, b=1e200, c=0)",      # (b - a)(b - c) overflows
        "Normal(m=0, sd=-1)",             # scale must be positive
        "ContaminatedNormal(epsilon=1.5, sigma=1, c=2)",  # weight beyond 1
        "Normal(m=0 sd=1)",               # missing separator
        "",
    ]:
        with pytest.raises(ValueError):
            parse_distribution(bad)


def test_parse_rejects_a_repeated_parameter():
    for text, name in [("Normal(m=1, m=2)", "m"),
                       ("Pareto(loc=1, shape=2, shape=2)", "shape")]:
        with pytest.raises(ValueError, match="parameter %r given twice" % name
                           ) as info:
            parse_distribution(text)
        assert repr(text) in str(info.value)


def test_contaminated_normal_rejects_an_overflowing_wide_scale():
    with pytest.raises(ValueError, match="sigma=1e\\+200 c=1e\\+300"):
        parse_distribution(
            "ContaminatedNormal(epsilon=0.5, sigma=1e200, c=1e300)")
    # a wide scale just inside the double range is kept
    spec = parse_distribution("ContaminatedNormal(epsilon=0.5, sigma=1e150, "
                              "c=1e300)")
    assert spec._q.mixture[2] == 1e150 * math.sqrt(1e300)


def test_contaminated_draws_that_overflow_raise_a_named_error():
    # the wide component at 1e308 overflows on 132 of 2,000 draws of this
    # stream, the first at draw 102; draws before it keep their bits
    spec = parse_distribution("ContaminatedNormal(epsilon=0.5, sigma=1e308, "
                              "c=1)")
    us = RngStream(1, 2).uniforms(4000)
    with pytest.raises(ArithmeticError) as info:
        sample(spec, RngStream(1, 2), 2000)
    assert type(info.value) is ArithmeticError
    assert str(info.value) == "%s: the variate at p=%r overflows" % (
        spec.label, us[2 * 102 + 1])
    inv_cdf = statistics.NormalDist().inv_cdf
    # both components have the scale 1e308, so the pick does not matter
    want = [1e308 * inv_cdf(u) for u in us[1:204:2]]
    assert all(map(math.isfinite, want))
    assert repr(sample(spec, RngStream(1, 2), 102)) == repr(want)


def test_quantile_bracket_grows_to_the_double_range():
    # the bracket doubles past 2**700 until it holds p; both specs have the
    # wide scale 1e300 at weight 0.5, so q(p) is 1e300 times a standard
    # normal quantile
    inv_cdf = statistics.NormalDist().inv_cdf
    for text, wide_p in [
            ("ContaminatedNormal(epsilon=0.5, sigma=1e300, c=1)",
             {0.1: 0.1, 0.9: 0.9}),
            # the narrow component is a step at this scale, so the wide one
            # holds all of p beyond its half
            ("ContaminatedNormal(epsilon=0.5, sigma=1e200, c=1e200)",
             {0.1: 0.2, 0.9: 0.8})]:
        spec = parse_distribution(text)
        for p, q in wide_p.items():
            assert math.isclose(true_quantile(spec, p), 1e300 * inv_cdf(q),
                                rel_tol=1e-11), (text, p)


def test_quantile_bracket_reaches_the_largest_double():
    # the high end doubles to 2**1023, where the CDF is 0.815; its next
    # doubling is infinite, so it takes the largest double instead, and the
    # bisection halves ends whose sum overflows
    spec = parse_distribution("ContaminatedNormal(epsilon=0.5, sigma=1e308, "
                              "c=1)")
    cdf = statistics.NormalDist(0.0, 1e308).cdf  # both components alike
    for p in (0.9, 0.1):
        q = true_quantile(spec, p)
        assert 2.0 ** 1023 < abs(q) < math.inf
        assert abs(cdf(q) - p) < 1e-12, (p, q)
    # past the largest double the expansion still fails
    for p, side in ((0.99, "high"), (0.01, "low")):
        with pytest.raises(ArithmeticError,
                           match="bracket expansion failed \\(%s side" % side):
            true_quantile(spec, p)


def test_c_bracket_matches_the_reference_near_the_double_range(monkeypatch):
    # the C Student t bracket doubles only within +-2**512, where t * t
    # overflows and the CDF reads exactly 0 or 1: for p in (0, 1] between
    # the CDF values at -+sqrt(DBL_MAX), the ends among them, it gives the
    # reference's bits; every other p (at most 0, NaN, past 1) it gives
    # back before evaluating it, first or after good p, and the reference
    # raises its own error from exactly that p
    from trimq import _kernels_c

    kernel = _kernels_py.student_quantiles
    received = []

    def recorded(rest, *args):
        received.append(list(rest))
        return kernel(rest, *args)

    monkeypatch.setattr(_kernels_py, "student_quantiles", recorded)
    root = math.sqrt(sys.float_info.max)
    for df in (0.01, 3.0, 1e4):
        tail = 0.5 * _kernels_py.reg_inc_beta(df / (df + root * root),
                                              0.5 * df, 0.5)
        good = [0.3, 0.6, 1.0 - tail] + ([tail] if tail > 0.0 else [])
        assert _outcome(_kernels_c.student_quantiles, good, df) == _outcome(
            kernel, good, df)
        for bad in (0.0, -0.0, -1e-300, math.nan, 1.5):
            for lead in ([], good):
                ps = lead + [bad, 0.5]
                received.clear()
                want = _outcome(kernel, ps, df)
                assert want.startswith("ArithmeticError: "), (df, bad, want)
                assert _outcome(_kernels_c.student_quantiles, ps,
                                df) == want
                assert repr(received) == repr([ps[len(lead):]]), (df, bad)


def test_parameters_follow_the_positive_real_rule():
    assert DistributionSpec("Normal", sd="2") == parse_distribution(
        "Normal(m=0, sd=2)")
    for bad in (True, None, "x", 0.0, math.inf, 10 ** 400):
        with pytest.raises(ValueError, match="^sd of Normal must be a finite "
                           "positive number"):
            DistributionSpec("Normal", sd=bad)
    # m may be any finite real, but not a bool
    assert DistributionSpec("Normal", m=-3).params["m"] == -3.0
    for bad in (False, None, math.nan):
        with pytest.raises(ValueError, match="^m of Normal must be a finite "
                           "number"):
            DistributionSpec("Normal", m=bad)


# ---------------------------------------------------------------------------
# quantiles

def test_quantile_closed_forms():
    cases = [
        ("Uniform(a=0, b=1)", 0.25, 0.25),
        ("Triangular(a=0, b=2, c=1)", 0.5, 1.0),
        ("Normal(m=0, sd=1)", 0.5, 0.0),
        ("Exp(rate=1)", 0.5, math.log(2.0)),
        ("Exp(rate=2)", 0.5, math.log(2.0) / 2.0),
        ("Cauchy(x0=0, gamma=1)", 0.5, 0.0),
        ("Cauchy(x0=0, gamma=1)", 0.75, 1.0),
        ("Pareto(loc=1, shape=0.5)", 0.75, 16.0),
        ("LogNormal(mlog=0, sdlog=1)", 0.5, 1.0),
        ("Weibull(scale=1, shape=2)", 1.0 - math.exp(-1.0), 1.0),
        ("Frechet(shape=1)", math.exp(-1.0), 1.0),
        ("Gumbel(loc=0, scale=1)", math.exp(-1.0), 0.0),
    ]
    for text, p, want in cases:
        got = true_quantile(parse_distribution(text), p)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (text, p)


def test_quantile_normal_inverts_erfc():
    spec = parse_distribution("Normal(m=0, sd=1)")
    for z in [-6.0, -3.3, -1.0, 0.0, 0.5, 2.0, 6.0]:
        assert abs(true_quantile(spec, _phi(z)) - z) <= 1e-8


def test_quantile_student_matches_closed_form_cdf():
    # for df=3 the CDF has an elementary form; feeding its values back in
    # must recover the abscissa
    spec = parse_distribution("Student(df=3)")
    for t in [-5.0, -1.2, 0.0, 0.3, 2.0, 8.0]:
        x = t / math.sqrt(3.0)
        p = 0.5 + (x / (1.0 + x * x) + math.atan(x)) / math.pi
        assert abs(true_quantile(spec, p) - t) <= 1e-7 * max(1.0, abs(t)), t


def test_quantile_beta_inverts_cdf():
    from trimq import BetaParams, regularized_incomplete_beta

    spec = parse_distribution("Beta(a=2, b=4)")
    params = BetaParams(2, 4)
    for p in [0.01, 0.2, 0.5, 0.8, 0.99]:
        q = true_quantile(spec, p)
        assert abs(regularized_incomplete_beta(q, params) - p) <= 1e-9


def test_quantile_contaminated_median_is_zero():
    spec = parse_distribution("ContaminatedNormal(epsilon=0.01, sigma=1, c=1000000)")
    assert abs(true_quantile(spec, 0.5)) <= 1e-9
    # the wide component drags far quantiles out by orders of magnitude
    assert true_quantile(spec, 0.999) > 100.0


@pytest.mark.parametrize("backend", ["python", "c"])
def test_quantile_monotone_in_p(monkeypatch, backend):
    # and the inverse CDF of a list is its quantiles one by one
    from trimq import _kernels_c

    monkeypatch.setattr(distributions, "_k",
                        {"python": _kernels_py, "c": _kernels_c}[backend])
    ps = [k / 100.0 for k in range(1, 100)]
    for text in ALL_SPECS:
        spec = parse_distribution(text)
        qs = [true_quantile(spec, p) for p in ps]
        assert qs == sorted(qs), text
        assert repr(spec._q(ps)) == repr(qs), text


def test_quantile_rejects_boundary_p():
    spec = parse_distribution("Normal(m=0, sd=1)")
    for bad in [0.0, 1.0, -0.1, 1.1, math.nan]:
        with pytest.raises(ValueError):
            true_quantile(spec, bad)


# ---------------------------------------------------------------------------
# sampling

def test_sampling_is_deterministic():
    spec = parse_distribution("Normal(m=0, sd=1)")
    a = sample(spec, RngStream(5, 9), 100)
    b = sample(spec, RngStream(5, 9), 100)
    assert a == b


def test_uniform_support():
    xs = sample(parse_distribution("Uniform(a=2, b=3)"), RngStream(1, 1), 1000)
    assert all(2.0 < x < 3.0 for x in xs)


def test_exponential_mean_converges():
    xs = sample(parse_distribution("Exp(rate=1)"), RngStream(3, 1), 100000)
    mean = math.fsum(xs) / len(xs)
    assert abs(mean - 1.0) <= 3.0 / math.sqrt(len(xs))


def test_contaminated_normal_epsilon_zero_is_normal():
    # with no contamination the sampler must follow the plain normal law
    spec = parse_distribution("ContaminatedNormal(epsilon=0, sigma=1, c=100)")
    xs = sorted(sample(spec, RngStream(8, 2), 10000))
    ks = max(abs((i + 1) / len(xs) - _phi(x)) for i, x in enumerate(xs))
    assert ks <= 0.02


def test_round_trip_empirical_cdf_matches_quantiles():
    # F_n(true_quantile(p)) must straddle p for every family
    for text in ALL_SPECS:
        spec = parse_distribution(text)
        count = 4000 if spec.kind in BISECTION_KINDS else 100000
        xs = sorted(sample(spec, RngStream(17, 4), count))
        for k in range(1, 100):
            p = k / 100.0
            q = true_quantile(spec, p)
            emp = bisect.bisect_right(xs, q) / count
            assert abs(emp - p) <= 0.02, (text, p, emp)


def test_sample_medians_track_true_median():
    # light end-to-end check tying sampling and quantiles together
    for text in ["Normal(m=3, sd=2)", "Exp(rate=0.5)", "Pareto(loc=1, shape=2)"]:
        spec = parse_distribution(text)
        xs = sample(spec, RngStream(21, 0), 20001)
        med = hf7_quantile(xs, 0.5)
        want = true_quantile(spec, 0.5)
        assert abs(med - want) <= 0.05 * max(1.0, abs(want)), text


def test_sample_count_validation():
    spec = parse_distribution("Normal(m=0, sd=1)")
    assert sample(spec, RngStream(0, 0), 0) == []
    with pytest.raises(ValueError):
        sample(spec, RngStream(0, 0), -3)


# the families sampled by CDF inversion; none of their variates was pinned
INVERTED_SPECS = ("Beta(a=2, b=4)", "Beta(a=2, b=10)", "Student(df=3)",
                  "ContaminatedNormal(epsilon=0.01, sigma=1, c=1000000)")


def test_inverted_sampler_bytes_are_pinned():
    # exact guard on the bisection samplers and quantiles: a faster
    # incomplete beta must not move one sampled bit
    digest = hashlib.sha256()
    for text in INVERTED_SPECS:
        spec = parse_distribution(text)
        digest.update(repr(sample(spec, RngStream(11, 7), 150)).encode())
        digest.update(repr([true_quantile(spec, k / 40.0)
                            for k in range(1, 40)]).encode())
    assert digest.hexdigest() == (
        "d5758ca256f5fd2944997ab2cafccf3c4789b168e983d5e13e31f2531bc6c8cb")


def _neighbours(x, count=5):
    # x and the `count` doubles on each side of it
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


def test_normal_quantile_bytes_are_pinned():
    # every branch of Wichura's PPND16: the centre |p - 0.5| <= 0.425, the
    # near tails down to e**-25 and the far tails beyond, from the smallest
    # double to the largest below 1, and the doubles beside each switch
    ps = ([2.0 ** -k for k in range(1, 1075)]
          + [1.0 - 2.0 ** -k for k in range(2, 54)]
          + [k / 40.0 for k in range(1, 40)])
    for edge in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
        ps += _neighbours(edge)
    digest = hashlib.sha256()
    for text in ("Normal(m=1, sd=2)", "LogNormal(mlog=0.5, sdlog=1.5)"):
        spec = parse_distribution(text)
        digest.update(repr([true_quantile(spec, p) for p in ps]).encode())
    spec = parse_distribution("ContaminatedNormal(epsilon=0.1, sigma=2, c=9)")
    digest.update(repr(sample(spec, RngStream(13, 5), 200)).encode())
    assert digest.hexdigest() == (
        "0e49ba4844bef2dd8a05cb226ad246e3066d8cafcd8d20ebb4fb296d283dae5f")


def test_shared_tables_and_memos_give_the_same_bits_under_threads():
    # threads share the kernels' per-shape-pair normalizers, _log_norm and
    # _log_beta_cached; entries are built and evicted while other threads
    # read them
    import sys
    import threading

    from trimq import _kernels_py
    from trimq.estimators import thd_weights

    texts = ("Beta(a=2500, b=4000)", "Student(df=3)")
    ps = [0.001 + 0.998 * k / 48.0 for k in range(49)]

    def run(order):
        # the quantiles of each spec and the weights of n = 40 at each p
        got = {t: dict(zip(order, (true_quantile(shared[t], p)
                                   for p in order))) for t in texts}
        got["weights"] = {p: thd_weights(40, p, 0.5) for p in order}
        return {key: [values[p] for p in ps] for key, values in got.items()}

    shared = {t: parse_distribution(t) for t in texts}
    want = run(ps)
    results = []

    def work(offset):
        for _ in range(3):
            _kernels_py._log_norm.cache_clear()
            _kernels_py._log_beta_cached.cache_clear()
            results.append(run(ps[offset:] + ps[:offset]) == want)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(17 * i,))
                   for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 4 * 3 and all(results)


# ---------------------------------------------------------------------------
# the C batch inversion against the Python bisection

# Beta shapes from 0.5 to 1e3 and Student df from 0.5 to 100
BATCH_SPECS = ("Beta(a=0.5, b=0.5)", "Beta(a=0.5, b=1000)", "Beta(a=2, b=4)",
               "Beta(a=2, b=10)", "Beta(a=50, b=3)", "Beta(a=1000, b=1000)",
               "Student(df=0.5)", "Student(df=3)", "Student(df=100)")
# the extremes of the uniforms and beyond: 2**-54, the largest double below
# 1 and the far tail, then random p
_BATCH_RNG = random.Random(42)
BATCH_PS = [2.0 ** -54, 1.0 - 2.0 ** -53, 1e-300] + [
    _BATCH_RNG.random() for _ in range(600)]


def _batch_ps(text):
    # at df = 0.5, 1e-300 lies below the CDF at -sqrt(largest double), where
    # the Student t quantile raises; see
    # test_student_quantile_past_the_overflow_point_raises
    if text == "Student(df=0.5)":
        return [p for p in BATCH_PS if p != 1e-300]
    return BATCH_PS


def _reference_kernels(monkeypatch):
    # the Python bisection over the pure-Python incomplete beta
    from trimq import _kernels_py

    monkeypatch.setattr(distributions, "_k", _kernels_py)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except ArithmeticError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _given_back(*args):
    raise AssertionError("the C code gave the batch back: %r" % (args[1:],))


def test_batch_inversion_matches_the_python_bisection(monkeypatch):
    from trimq import _kernels_c, _kernels_py

    # a batch the C code gives back fails here instead of being inverted
    # by the reference
    for name in ("beta_quantiles", "student_quantiles"):
        monkeypatch.setattr(_kernels_py, name, _given_back)
    monkeypatch.setattr(distributions, "_k", _kernels_c)
    got = {text: parse_distribution(text)._q(_batch_ps(text))
           for text in BATCH_SPECS}
    monkeypatch.undo()
    _reference_kernels(monkeypatch)
    for text in BATCH_SPECS:
        spec = parse_distribution(text)
        want = [true_quantile(spec, p) for p in _batch_ps(text)]
        assert repr(got[text]) == repr(want), text


def test_batch_inversion_gives_back_what_the_bisection_raises(monkeypatch):
    # shapes past the fraction's reach and past exp's range: the C code
    # gives the batch back, and the C entry raises the reference's error,
    # as drawing does
    from trimq import _kernels_c, _kernels_py

    texts = ("Beta(a=1000000, b=1000000)", "Beta(a=1e300, b=1e300)",
             "Student(df=1e300)")
    kernels = {"Beta": "beta_quantiles", "Student": "student_quantiles"}
    given_back = []

    def recorded(name):
        kernel = getattr(_kernels_py, name)

        def call(ps, *params):
            given_back.append((name, params))
            return kernel(ps, *params)
        return call

    got = {}
    for text in texts:
        spec = parse_distribution(text)
        name = kernels[spec.kind]
        params = tuple(spec.params.values())
        with monkeypatch.context() as patch:
            patch.setattr(_kernels_py, name, recorded(name))
            patch.setattr(distributions, "_k", _kernels_c)
            got[text] = (_outcome(getattr(_kernels_c, name), [0.5], *params),
                         _outcome(sample, spec, RngStream(3, 4), 5))
        assert given_back == [(name, params)] * 2, text
        given_back.clear()
    _reference_kernels(monkeypatch)
    for text in texts:
        spec = parse_distribution(text)
        want = (_outcome(getattr(_kernels_py, kernels[spec.kind]), [0.5],
                         *spec.params.values()),
                _outcome(sample, spec, RngStream(3, 4), 5))
        assert want[0].startswith("ArithmeticError: incomplete beta "), want
        assert got[text] == want, text


def test_sample_makes_one_kernel_call_per_draw(monkeypatch):
    from trimq import _kernels_c

    calls = []

    def counted(name):
        kernel = getattr(_kernels_c, name)

        def call(ps, *params):
            calls.append((name, len(ps), params))
            return kernel(ps, *params)
        return call

    monkeypatch.setattr(distributions, "_k", _kernels_c)
    for name in ("beta_quantiles", "student_quantiles"):
        monkeypatch.setattr(_kernels_c, name, counted(name))

    def draws(text):
        spec = parse_distribution(text)
        return [sample(spec, RngStream(11, sid), 7) for sid in (5, 6)]

    texts = ("Beta(a=2, b=4)", "Student(df=3)")
    got = {text: draws(text) for text in texts}
    assert calls == [("beta_quantiles", 7, (2.0, 4.0))] * 2 + [
        ("student_quantiles", 7, (3.0,))] * 2
    monkeypatch.undo()
    _reference_kernels(monkeypatch)
    for text in texts:
        assert repr(got[text]) == repr(draws(text)), text


# spec, a p at which its quantile overflows the doubles, and the error
OVERFLOWS = (
    ("LogNormal(sdlog=1e8)", 0.99,
     "LogNormal(mlog=0, sdlog=100000000): the quantile at p=0.99 overflows"),
    ("Pareto(loc=1, shape=0.01)", 1.0 - 1e-12,
     "Pareto(loc=1, shape=0.01): the quantile at p=0.999999999999 "
     "overflows"),
    ("Frechet(shape=0.01)", 1.0 - 1e-12,
     "Frechet(shape=0.01): the quantile at p=0.999999999999 overflows"),
    ("Weibull(shape=0.001)", 0.99,
     "Weibull(scale=1, shape=0.001): the quantile at p=0.99 overflows"),
    ("Beta(a=1e300, b=1e300)", 0.5,
     "incomplete beta overflows (a=1e+300, b=1e+300, x=0.5)"),
    # plain arithmetic past the largest double, which gives inf silently
    ("Exp(rate=1e-310)", 0.5,
     "Exp(rate=1e-310): the quantile at p=0.5 overflows"),
    ("Normal(sd=1e308)", 0.999,
     "Normal(m=0, sd=1e+308): the quantile at p=0.999 overflows"),
    ("Cauchy(x0=1e308, gamma=1e308)", 0.9,
     "Cauchy(x0=1e+308, gamma=1e+308): the quantile at p=0.9 overflows"),
    ("Gumbel(loc=1e308, scale=1e308)", 0.9,
     "Gumbel(loc=1e+308, scale=1e+308): the quantile at p=0.9 overflows"),
)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_overflowing_quantiles_raise_one_named_error(monkeypatch, backend):
    # OverflowError from math.exp or **, or an infinity from arithmetic,
    # becomes an ArithmeticError naming the spec and p; the incomplete
    # beta's names (a, b, x)
    from trimq import _kernels_c, _kernels_py

    kernels = {"python": _kernels_py, "c": _kernels_c}[backend]
    monkeypatch.setattr(distributions, "_k", kernels)
    for text, p, message in OVERFLOWS:
        spec = parse_distribution(text)
        with pytest.raises(ArithmeticError) as info:
            true_quantile(spec, p)
        assert type(info.value) is ArithmeticError
        assert str(info.value) == message
        # a draw names the first of its uniforms that overflows
        with pytest.raises(ArithmeticError) as info:
            sample(spec, RngStream(1, 2), 2000)
        assert type(info.value) is ArithmeticError
        us = RngStream(1, 2).uniforms(2000)
        first = next(u for u in us if _outcome(true_quantile, spec, u)
                     .startswith("ArithmeticError"))
        assert str(info.value) == _outcome(true_quantile, spec, first)[
            len("ArithmeticError: "):]


@pytest.mark.parametrize("backend", ["python", "c"])
def test_student_quantile_past_the_overflow_point_raises(monkeypatch,
                                                         backend):
    # past |t| = sqrt(largest double), t * t overflows and the CDF reads 1
    # or 0, so a p beyond the CDF there raises instead of settling at the
    # overflow point; the true quantile at p = 0.99 is about 1e169
    from trimq import _kernels_c, _kernels_py

    kernels = {"python": _kernels_py, "c": _kernels_c}[backend]
    monkeypatch.setattr(distributions, "_k", kernels)
    spec = parse_distribution("Student(df=0.01)")
    for p in (0.99, 0.01):
        with pytest.raises(ArithmeticError) as info:
            true_quantile(spec, p)
        assert type(info.value) is ArithmeticError
        assert str(info.value) == (
            "Student t quantile overflows (df=0.01, p=%r)" % p)
    # a p inside keeps its bits
    assert repr(true_quantile(spec, 0.985)) == "9.741314114552754e+150"
    # a batch raises at its first p outside, as the scalar loop would
    with pytest.raises(ArithmeticError, match=r"p=0\.995\)$"):
        kernels.student_quantiles([0.5, 0.985, 0.995, 0.001], 0.01)
    # and df of 1 or more never saturates at a p the sampler draws
    for df in (1.0, 3.0, 1e6):
        assert kernels.student_quantiles([2.0 ** -54, 1.0 - 2.0 ** -53],
                                         df)[0] < 0.0


def test_batch_inversion_gives_back_only_the_rest(monkeypatch):
    # a term cap that some p outlive: the C code keeps the quantiles it
    # finished, and the reference receives only the p from the first one
    # the C code gave back, then raises the error of the whole batch
    from trimq import _kernels_c, _kernels_py

    for name, params, cap, ps in (
            ("beta_quantiles", (2.0, 4.0), 3, [0.9, 0.99, 0.3, 0.999]),
            ("student_quantiles", (100.0,), 12, [0.5, 0.7, 0.1, 0.3])):
        kernel = getattr(_kernels_py, name)
        received = []

        def recorded(rest, *args, kernel=kernel):
            received.append(list(rest))
            return kernel(rest, *args)

        with monkeypatch.context() as patch:
            patch.setattr(_kernels_py, "_MAX_ITER", cap)
            want = _outcome(kernel, ps, *params)
            patch.setattr(_kernels_py, name, recorded)
            got = _outcome(getattr(_kernels_c, name), ps, *params)
            assert received == [ps[2:]], name
            assert got == want, name
            assert want.startswith("ArithmeticError: incomplete beta "), want
            # with the cap lifted for the reference alone, the batch is the
            # C quantiles before the give-back, then the reference's
            received.clear()

            def uncapped(rest, *args, kernel=kernel):
                received.append(list(rest))
                with monkeypatch.context() as lifted:
                    lifted.setattr(_kernels_py, "_MAX_ITER", 300)
                    return kernel(rest, *args)

            patch.setattr(_kernels_py, name, uncapped)
            got = getattr(_kernels_c, name)(ps, *params)
            assert received == [ps[2:]], name
        assert repr(got) == repr(kernel(ps, *params)), name


def test_batch_draws_give_the_same_bits_under_threads():
    # the C code runs without the GIL, so draws of threads overlap; they
    # share the per-pair normalizer cache and nothing else
    import sys
    import threading

    texts = ("Beta(a=2, b=10)", "Student(df=3)", "Beta(a=2500, b=4000)")
    specs = {t: parse_distribution(t) for t in texts}

    def draws(t):
        return [sample(specs[t], RngStream(9, i), 25) for i in range(12)]

    want = {t: draws(t) for t in texts}
    results = []

    def work(offset):
        for t in texts[offset % 3:] + texts[:offset % 3]:
            results.append(draws(t) == want[t])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 6 * len(texts) and all(results)
