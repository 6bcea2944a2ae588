import hashlib
import math

import pytest

from trimq import BetaParams, beta_pdf, log_beta, log_gamma, regularized_incomplete_beta

from _oracles import ibeta_oracle, lentz_ibeta_oracle, simpson


def test_log_gamma_integer_values():
    assert abs(log_gamma(1.0)) <= 1e-14
    assert abs(log_gamma(2.0)) <= 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) <= 1e-13


def test_log_gamma_against_stdlib():
    # math.lgamma is an independent implementation; 1e-13 relative over a
    # wide argument range exercises both the series and the recurrence lift.
    for x in [0.5, 0.9, 1.0, 1.5, 2.0, 3.7, 9.99, 10.0, 10.01, 25.0,
              123.456, 1e3, 5e3, 1e5]:
        ref = math.lgamma(x)
        assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref)), x


def test_log_gamma_rejects_nonpositive_and_nonfinite():
    for bad in [0.0, -1.0, -0.5, math.inf, math.nan]:
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_beta_params_validation():
    p = BetaParams(2, 3.5)
    assert p.alpha == 2.0 and p.beta == 3.5
    for a, b in [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0), (math.nan, 1.0),
                 (1.0, math.inf)]:
        with pytest.raises(ValueError):
            BetaParams(a, b)


# one rule for the positive reals: a string float() reads counts, a bool
# does not (float(True) is 1.0), and the message starts with the argument
def test_positive_reals_take_strings_not_bools():
    assert BetaParams("2", 3) == BetaParams(2.0, 3.0)
    assert log_gamma("2.5") == log_gamma(2.5)
    for a, b, name in [(True, "2", "alpha"), (2, False, "beta"),
                       (None, 1, "alpha"), (1, "x", "beta"),
                       (1, 10 ** 400, "beta"), ("inf", 1, "alpha")]:
        with pytest.raises(ValueError, match="^%s must be a finite positive "
                           "number" % name):
            BetaParams(a, b)
    for bad in (True, None, "x", -1.0, 10 ** 400):
        with pytest.raises(ValueError, match="^x must be a finite positive "
                           "number"):
            log_gamma(bad)


def test_log_beta_matches_lgamma_identity():
    for a, b in [(1.0, 1.0), (0.5, 0.5), (5.5, 5.5), (2.0, 17.0), (300.0, 4.0)]:
        ref = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        assert abs(log_beta(BetaParams(a, b)) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_beta_pdf_uniform_is_flat():
    p = BetaParams(1, 1)
    for x in [0.0, 0.25, 0.5, 0.99, 1.0]:
        assert abs(beta_pdf(x, p) - 1.0) <= 1e-14


def test_beta_pdf_closed_form_linear():
    # density 2x for Beta(2, 1)
    p = BetaParams(2, 1)
    for x in [0.1, 0.25, 0.5, 0.9]:
        assert abs(beta_pdf(x, p) - 2.0 * x) <= 1e-14


def test_beta_pdf_symmetric_midpoint():
    # reference computed with math.lgamma, independent of the package
    p = BetaParams(5.5, 5.5)
    ref = math.exp(math.lgamma(11.0) - 2.0 * math.lgamma(5.5) + 9.0 * math.log(0.5))
    assert abs(beta_pdf(0.5, p) - ref) <= 1e-12


def test_beta_pdf_endpoint_conventions():
    assert beta_pdf(0.0, BetaParams(2, 3)) == 0.0
    assert beta_pdf(1.0, BetaParams(2, 3)) == 0.0
    assert beta_pdf(0.0, BetaParams(0.5, 1)) == math.inf
    assert beta_pdf(1.0, BetaParams(1, 0.5)) == math.inf
    # exponent-one edges reduce to the finite normalizing constant
    assert abs(beta_pdf(0.0, BetaParams(1, 3)) - 3.0) <= 1e-12
    assert abs(beta_pdf(1.0, BetaParams(3, 1)) - 3.0) <= 1e-12


def test_beta_pdf_rejects_out_of_range():
    p = BetaParams(2, 2)
    # float() overflows on 10**400; that too is a ValueError naming x
    for bad in [-0.1, 1.1, math.nan, 10 ** 400]:
        with pytest.raises(ValueError, match="^x must lie in"):
            beta_pdf(bad, p)


def test_beta_pdf_integrates_to_one():
    for a, b in [(1.0, 1.0), (2.0, 5.0), (5.5, 5.5), (50.0, 17.0)]:
        p = BetaParams(a, b)
        total = simpson(lambda x: beta_pdf(x, p), 1e-9, 1.0 - 1e-9, tol=1e-10)
        assert abs(total - 1.0) <= 1e-6, (a, b, total)


def test_incomplete_beta_exact_endpoints():
    p = BetaParams(3.2, 1.7)
    assert regularized_incomplete_beta(0.0, p) == 0.0
    assert regularized_incomplete_beta(1.0, p) == 1.0


def test_incomplete_beta_uniform_is_identity():
    p = BetaParams(1, 1)
    for x in [0.0, 0.123, 0.5, 0.999, 1.0]:
        assert abs(regularized_incomplete_beta(x, p) - x) <= 1e-14


def test_incomplete_beta_closed_form_quadratic():
    # I_x(1, 2) = 1 - (1 - x)^2
    p = BetaParams(1, 2)
    for x in [0.1, 0.25, 0.5, 0.75]:
        ref = 1.0 - (1.0 - x) ** 2
        assert abs(regularized_incomplete_beta(x, p) - ref) <= 1e-14


def test_incomplete_beta_symmetric_midpoint():
    for a in [0.5, 1.0, 5.5, 50.0]:
        p = BetaParams(a, a)
        assert abs(regularized_incomplete_beta(0.5, p) - 0.5) <= 1e-12, a
    # the continued fraction sheds about two digits by shape 5000
    assert abs(regularized_incomplete_beta(0.5, BetaParams(5000.0, 5000.0)) - 0.5) <= 5e-12


def test_incomplete_beta_reflection_identity():
    # I_x(a, b) + I_{1-x}(b, a) = 1
    cases = [(0.3, 2.0, 7.0), (0.9, 0.7, 0.6), (0.01, 5.5, 5.5),
             (0.6, 40.0, 3.0), (0.2, 1.0, 9.0)]
    for x, a, b in cases:
        s = (regularized_incomplete_beta(x, BetaParams(a, b))
             + regularized_incomplete_beta(1.0 - x, BetaParams(b, a)))
        assert abs(s - 1.0) <= 1e-12, (x, a, b)


def test_incomplete_beta_monotone_in_x():
    for a, b in [(0.5, 0.5), (2.0, 5.0), (5.5, 5.5), (5000.0, 5000.0)]:
        p = BetaParams(a, b)
        prev = -1.0
        for i in range(1001):
            cur = regularized_incomplete_beta(i / 1000.0, p)
            assert cur >= prev, (a, b, i)
            prev = cur
        assert prev == 1.0


def test_incomplete_beta_matches_quadrature_oracle():
    import random

    rng = random.Random(20260816)
    for _ in range(60):
        a = 10.0 ** rng.uniform(-0.3, 1.7)
        b = 10.0 ** rng.uniform(-0.3, 1.7)
        x = rng.random()
        got = regularized_incomplete_beta(x, BetaParams(a, b))
        want = ibeta_oracle(x, a, b)
        assert abs(got - want) <= 1e-10, (x, a, b)


def test_incomplete_beta_large_shapes_stay_sane():
    p = BetaParams(5000.0, 5000.0)
    v = regularized_incomplete_beta(0.48, p)
    assert 0.0 < v < 0.5
    assert regularized_incomplete_beta(0.52, p) > 0.5


def test_incomplete_beta_rejects_bad_x():
    p = BetaParams(2, 2)
    for bad in [-0.5, 1.5, math.nan]:
        with pytest.raises(ValueError):
            regularized_incomplete_beta(bad, p)


def test_continued_fraction_nonconvergence_raises(monkeypatch):
    # force the iteration cap down on the pure kernels and call them directly
    from trimq import _kernels_py

    monkeypatch.setattr(_kernels_py, "_MAX_ITER", 2)
    with pytest.raises(ArithmeticError):
        _kernels_py.reg_inc_beta(0.4, 37.0, 41.0)


def test_iteration_cap_is_read_at_call_time(monkeypatch):
    # with the pair's normalizer cached, a lowered cap still bounds the
    # loop, and raising it back restores the converged value
    from trimq import _kernels_py

    want = _kernels_py.reg_inc_beta(0.4, 37, 41)
    monkeypatch.setattr(_kernels_py, "_MAX_ITER", 2)
    with pytest.raises(ArithmeticError):
        _kernels_py.reg_inc_beta(0.4, 37, 41)
    monkeypatch.undo()
    assert _kernels_py.reg_inc_beta(0.4, 37, 41) == want
    # and in the reverse order: on a cold cache the lowered cap raises
    # first, then the restored cap gives the pinned value
    _kernels_py._log_norm.cache_clear()
    monkeypatch.setattr(_kernels_py, "_MAX_ITER", 2)
    with pytest.raises(ArithmeticError):
        _kernels_py.reg_inc_beta(0.4, 37, 41)
    monkeypatch.undo()
    assert _kernels_py.reg_inc_beta(0.4, 37, 41) == want


# shapes and points of the pinned incomplete-beta digest: both tails, the
# middle, and each side of the (a+1)/(a+b+2) switch to the reflected fraction
PIN_SHAPES = (0.5, 1.0, 1.5, 2.0, 4.0, 10.0, 37.5, 300.0, 2500.0, 1e4)
PIN_XS = (1e-9, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 1.0 - 1e-9)


def _pinned_ibeta_points():
    for a in PIN_SHAPES:
        for b in PIN_SHAPES:
            switch = (a + 1.0) / (a + b + 2.0)
            for x in PIN_XS + (math.nextafter(switch, 0.0), switch,
                               math.nextafter(switch, 1.0), a / (a + b)):
                yield x, a, b


def test_incomplete_beta_bytes_are_pinned():
    # exact guard on every bit of the kernel, (1.5, 0.5) and (2, 4) included:
    # a faster incomplete beta must return the same doubles
    from trimq import _kernels_py

    digest = hashlib.sha256()
    for x, a, b in _pinned_ibeta_points():
        digest.update(repr(_kernels_py.reg_inc_beta(x, a, b)).encode())
    assert digest.hexdigest() == (
        "57dcec7dce09798456d5f19058a8bba923e50a1c24f6170a115ed61b881a26fd")


def test_shape_caches_do_not_change_bits():
    # the per-shape-pair normalizers behind reg_inc_beta and beta_pdf: a
    # warm cache, a cold one and one that evicted in between give the same
    # bits
    from trimq import _kernels_py

    def clear():
        _kernels_py._log_norm.cache_clear()
        _kernels_py._log_beta_cached.cache_clear()

    # more pairs than the caches keep, interleaved, ints mixed with floats
    shapes = [(2, 4), (1.5, 0.5), (2.0, 4.0)] + [
        (0.5 + 0.37 * i, 300.0 / (i + 1)) for i in range(100)]
    calls = [(x, a, b) for x in (0.01, 0.3, 0.5, 0.9)
             for a, b in shapes + shapes[::-1]]

    def run(cold):
        out = []
        for x, a, b in calls:
            if cold:
                clear()
            out.append((_kernels_py.reg_inc_beta(x, a, b),
                        _kernels_py.beta_pdf(x, a, b)))
        return repr(out)

    clear()
    cold = run(cold=True)
    assert run(cold=False) == cold
    assert run(cold=False) == cold
    assert _kernels_py._log_norm.cache_info().currsize > 0
    assert _kernels_py._log_beta_cached.cache_info().currsize > 0


def _lentz_oracle_points(rng, pairs):
    # shapes log-uniform on [10**-0.5, 10**5], half of them rounded to ints;
    # per pair a uniform x, one near the mean, and the (a+1)/(a+b+2) switch
    # to the reflected fraction with its two neighbouring doubles
    def shape():
        s = 10.0 ** rng.uniform(-0.5, 5.0)
        return max(1, round(s)) if rng.random() < 0.5 else s

    for _ in range(pairs):
        a, b = shape(), shape()
        mean = a / (a + b)
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
        near = min(max(mean + sd * rng.gauss(0.0, 3.0), 1e-300), 1.0 - 1e-16)
        switch = (a + 1.0) / (a + b + 2.0)
        for x in (rng.random(), near, math.nextafter(switch, 0.0), switch,
                  math.nextafter(switch, 1.0)):
            yield x, a, b


def _c_incomplete_beta(x, a, b):
    """The C incomplete beta itself, with no fallback to the reference: a
    case it gives back raises ArithmeticError."""
    from trimq import _kernels_c, _kernels_py

    y = _kernels_c._lib.reg_inc_beta(x, a, b, _kernels_c._log_norm(a, b),
                                     _kernels_py._MAX_ITER)
    if math.isnan(y):
        raise ArithmeticError("given back")
    return y


def test_incomplete_beta_matches_the_plain_lentz_loop_bit_for_bit():
    # the reference's Lentz loop and the C loop must give the doubles the
    # oracle's independent transcription gives, and fail to converge where
    # it fails, at shapes up to 1e5 (thd at n = 1e5 works near 5e4), past
    # the pinned digest
    import random

    from trimq import _kernels_py

    def outcome(f, *args):
        try:
            return repr(f(*args))
        except ArithmeticError:
            return "ArithmeticError"

    points = list(_lentz_oracle_points(random.Random(20261018), 4000))
    assert len(points) == 20000
    for x, a, b in points:
        want = outcome(lentz_ibeta_oracle, x, a, b)
        assert outcome(_kernels_py.reg_inc_beta, x, a, b) == want, (x, a, b)
        assert outcome(_c_incomplete_beta, x, a, b) == want, (x, a, b)


def test_c_incomplete_beta_bytes_are_pinned():
    # the pinned digest of the reference, from the C code itself
    digest = hashlib.sha256()
    for x, a, b in _pinned_ibeta_points():
        digest.update(repr(_c_incomplete_beta(x, a, b)).encode())
    assert digest.hexdigest() == (
        "57dcec7dce09798456d5f19058a8bba923e50a1c24f6170a115ed61b881a26fd")


def test_c_incomplete_beta_gives_back_what_the_reference_raises(monkeypatch):
    # a fraction that does not converge and an exp(front) that overflows
    # come back from the C code as NaN, and the wrapper raises the
    # reference's own error
    from trimq import _kernels_c, _kernels_py

    cases = [((0.5, 1e6, 1e6), "incomplete beta continued fraction did not "
                               "converge (a=1e+06, b=1e+06, x=0.5)"),
             ((0.5, 1e300, 1e300),
              "incomplete beta overflows (a=1e+300, b=1e+300, x=0.5)")]
    for (x, a, b), message in cases:
        with pytest.raises(ArithmeticError):
            _c_incomplete_beta(x, a, b)
        for kernel in (_kernels_py, _kernels_c):
            with pytest.raises(ArithmeticError) as info:
                kernel.reg_inc_beta(x, a, b)
            assert type(info.value) is ArithmeticError
            assert str(info.value) == message
    # the reference's cap binds the C loop too, read at call time
    want = _kernels_c.reg_inc_beta(0.4, 37.0, 41.0)
    monkeypatch.setattr(_kernels_py, "_MAX_ITER", 2)
    with pytest.raises(ArithmeticError):
        _c_incomplete_beta(0.4, 37.0, 41.0)
    with pytest.raises(ArithmeticError):
        _kernels_c.reg_inc_beta(0.4, 37.0, 41.0)
    monkeypatch.undo()
    assert _kernels_c.reg_inc_beta(0.4, 37.0, 41.0) == want


@pytest.mark.parametrize("backend", ["python", "c"])
def test_errors_print_x_in_full(backend):
    # x is printed to the last digit: the Student t tail at df = 1e300
    # fails at an x just below 1, where x = 1 itself returns 1.0 without a
    # fraction; %g printed that x as 1
    from trimq import _kernels_c, _kernels_py

    kernels = {"python": _kernels_py, "c": _kernels_c}[backend]
    with pytest.raises(ArithmeticError) as info:
        kernels.student_quantiles([0.5], 1e300)
    assert type(info.value) is ArithmeticError
    assert str(info.value) == (
        "incomplete beta continued fraction did not converge "
        "(a=5e+299, b=0.5, x=0.9999999999999999)")
    assert kernels.reg_inc_beta(1.0, 5e299, 0.5) == 1.0
