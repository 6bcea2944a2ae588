import bisect
import hashlib
import math
import pickle

import pytest

from trimq import DistributionSpec, RngStream, sample, true_quantile

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
        "Normal(m=0, sd=-1)",             # scale must be positive
        "ContaminatedNormal(epsilon=1.5, sigma=1, c=2)",  # weight beyond 1
        "Normal(m=0 sd=1)",               # missing separator
        "",
    ]:
        with pytest.raises(ValueError):
            parse_distribution(bad)


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


def test_quantile_monotone_in_p():
    for text in ALL_SPECS:
        spec = parse_distribution(text)
        prev = -math.inf
        for k in range(1, 100):
            cur = true_quantile(spec, k / 100.0)
            assert cur >= prev, (text, k)
            prev = cur


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
