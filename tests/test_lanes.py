"""The C batch inversion, which walks its p one at a time through a
per-call memo, against the Python bisection: its bits at every call size,
its give-back index, and, in a checking build, the memo's values and the
certified comparisons against the core's values; and the C kernels under
AddressSanitizer and UndefinedBehaviorSanitizer."""

import json
import os
import random
import subprocess
import sys

import pytest

import _cshim

from trimq import _kernels_c, _kernels_py

from test_distributions import _given_back, _outcome

SPECS = (("beta_quantiles", (2.0, 4.0)), ("beta_quantiles", (0.5, 0.5)),
         ("beta_quantiles", (0.05, 7.0)), ("beta_quantiles", (1.0, 1.0)),
         ("student_quantiles", (0.7,)), ("student_quantiles", (3.0,)),
         ("student_quantiles", (50.0,)))

# the extremes of the uniforms, the centre, repeats (memo hits in one call)
# and Student p whose low or high end doubles 0, 1, 2, 4 or many times
_SMALL = [0.5, 2.0 ** -54, 0.5, 1.0 - 2.0 ** -53, 0.3, 0.3, 0.05, 1e-3,
          0.999]


def _batch(size, seed):
    rng = random.Random(seed)
    ps = [rng.random() for _ in range(size)]
    for k in range(0, size, 9):  # a repeat of an earlier p every 9
        ps[k] = ps[k // 2]
    ps[:len(_SMALL)] = _SMALL
    return ps


# the sim2 call sizes: 100 and 400 p, and 4,096, a piece at n = 1
BATCHES = [_SMALL[:size] for size in range(10)] + [
    _batch(100, 1), _batch(400, 2), _batch(4096, 3)]


@pytest.mark.parametrize("name, params", SPECS)
def test_lanes_give_the_reference_bits(monkeypatch, name, params):
    # batches of 0 to 9 p, and the sim2 call sizes up to the largest, each
    # p the double the scalar reference returns
    want = [getattr(_kernels_py, name)(ps, *params) for ps in BATCHES]
    monkeypatch.setattr(_kernels_py, name, _given_back)
    got = [getattr(_kernels_c, name)(ps, *params) for ps in BATCHES]
    for ps, g, w in zip(BATCHES, got, want):
        assert len(g) == len(ps)
        assert repr(g) == repr(w), (name, params, len(ps))


# a term cap that the p of `good` live through and those of `bad` do not
CAPPED = (("beta_quantiles", (2.0, 4.0), 3,
           [0.85, 0.9, 0.95, 0.99, 0.9, 0.875, 0.925, 0.97, 0.98],
           [0.3, 0.5, 0.1]),
          ("student_quantiles", (50.0,), 12,
           [0.3, 0.5, 0.7, 0.5, 0.2, 0.6, 0.4, 0.8, 0.45],
           [0.05, 0.95, 0.01]))


@pytest.mark.parametrize("name, params, cap, good, bad", CAPPED)
@pytest.mark.parametrize("first", [0, 1, 2, 3, 4, 9])
def test_lanes_give_back_from_the_first_failing_p(monkeypatch, name, params,
                                                  cap, good, bad, first):
    # the first failing p first, after one to four good p and after nine,
    # with good and failing p after it: the reference receives exactly the
    # p from the first failing one
    kernel = getattr(_kernels_py, name)
    ps = good[:first] + [bad[0], good[0], bad[1], good[1], bad[2]]
    received = []

    def recorded(rest, *args):
        received.append(list(rest))
        return kernel(rest, *args)

    monkeypatch.setattr(_kernels_py, "_MAX_ITER", cap)
    assert all(_outcome(kernel, [p], *params).startswith("[") for p in good)
    assert not any(_outcome(kernel, [p], *params).startswith("[")
                   for p in bad)
    want = _outcome(kernel, ps, *params)
    monkeypatch.setattr(_kernels_py, name, recorded)
    assert _outcome(getattr(_kernels_c, name), ps, *params) == want
    assert received == [ps[first:]]
    assert want.startswith("ArithmeticError: incomplete beta "), want


@pytest.fixture(scope="module")
def checked_lib(tmp_path_factory):
    """The path of the kernels built with CHECK_CERTIFIED, under which every
    midpoint a certificate decides and every CDF value the memo returns are
    also evaluated by the core, a disagreement aborting the process."""
    return _cshim.build(tmp_path_factory.mktemp("checked"), "checked", "",
                        ("-DCHECK_CERTIFIED",), load=False)


def _run_checked(lib, script, *args, stdin=None):
    """Run `script` in a child Python with argv: the library, then args."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        _kernels_c.__file__)))
    return subprocess.run([sys.executable, "-c", script, str(lib), *args],
                          input=stdin, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=600)


# (a, b, df): Beta(a, b) when df is 0, else Student(df) with a = df / 2
PATH_SHAPES = ((2.0, 4.0, 0.0), (0.05, 7.0, 0.0), (1.0, 1.0, 0.0),
               (0.35, 0.5, 0.7), (1.5, 0.5, 3.0), (25.0, 0.5, 50.0))

# argv: the library, then (a, b, df) as JSON, the p on stdin; inverts every p
# through the C entry point, one call from each p it gives back on, and
# prints the memo values checked against the core
_PATH_RUN = """
import ctypes, json, sys
from array import array
from trimq import _kernels_c as c, _kernels_py as py

c._lib = c._open(sys.argv[1])
a, b, df = json.loads(sys.argv[2])
ps = array("d", json.load(sys.stdin))
while ps:
    done = c._lib.quantiles(ps.buffer_info()[0], len(ps), a, b, df,
                            py._log_norm(a, b), py._MAX_ITER)
    ps = ps[done + 1:]
print(ctypes.c_long.in_dll(c._lib, "memo_checked").value)
"""


@pytest.mark.parametrize("a, b, df", PATH_SHAPES)
def test_a_lanes_path_fixes_the_points_the_memo_holds(checked_lib, a, b, df):
    # the memo keeps the CDF value at each node of the outcomes f < p of a
    # p's first evaluations: every p that reaches a node evaluates the same
    # point there, so each value the memo returns, which the checking build
    # also takes from the core, has the core's bits; the 10,011 p share one
    # memo, but for a fresh one after each p given back (the sanitizer test
    # keeps the nodes inside the table)
    rng = random.Random(11)
    ps = _SMALL + [1e-300, 1.0 - 1e-16] + [rng.random() for _ in range(10000)]
    proc = _run_checked(checked_lib, _PATH_RUN, json.dumps([a, b, df]),
                        stdin=json.dumps(ps))
    assert proc.returncode == 0, "a memo value disagreed (%d): %s" % (
        proc.returncode, proc.stderr[-2000:])
    # nearly all of each p's 12 memo values are found there
    assert int(proc.stdout) >= 11 * len(ps), proc.stdout


_SANITIZED_RUN = """
import math, random, sys
from trimq import _kernels_c as c, _kernels_py as py

c._lib = c._open(sys.argv[1])
rng = random.Random(5)
for size in (0, 1, 2, 3, 4, 5, 9, 100, 400, 4096):
    ps = [rng.random() for _ in range(size)] + [0.5, 2.0 ** -54]
    for name, params in (("beta_quantiles", (2.0, 4.0)),
                         ("beta_quantiles", (2.0, 10.0)),
                         ("beta_quantiles", (0.05, 7.0)),
                         ("beta_quantiles", (1.0, 1.0)),
                         ("student_quantiles", (0.7,)),
                         ("student_quantiles", (3.0,)),
                         ("student_quantiles", (50.0,))):
        got = getattr(c, name)(ps, *params)
        assert got == getattr(py, name)(ps, *params), (name, size)
# certified p among p whose certificate fails: Student p within 1e-9 of 0.5
# (a bracket ending at t = 0) and Beta(0.05, 7) p (one ending at x = 0)
mixed = [p for k in range(40) for p in (rng.random(), 0.5 + (k - 20) * 5e-11)]
for name, params in (("student_quantiles", (3.0,)),
                     ("beta_quantiles", (0.05, 7.0)),
                     ("beta_quantiles", (2.0, 4.0))):
    got = getattr(c, name)(mixed, *params)
    assert got == getattr(py, name)(mixed, *params), name
for x in (0.0, 1e-300, 0.3, 0.9, 1.0):
    assert c.reg_inc_beta(x, 2.0, 4.0) == py.reg_inc_beta(x, 2.0, 4.0)
for args in ((10, 0, 10, 4.5, 5.5, 0.0, 1.0, 0.0, 1.0),
             (1000, 480, 521, 500.5, 500.5, 0.48, 0.52, 0.1, 0.8),
             (7, 0, 7, 0.5, 7.5, 0.0, 1.0, 0.0, 1.0)):
    assert c.weight_window(*args) == py.weight_window(*args), args
# Student p given back before any CDF value, first and after good p
for df in (0.01, 3.0, 1e4):
    for bad in (0.0, -0.0, -1e-300, float("nan"), 1.5):
        for ps in ([bad], [0.3, 0.6, bad, 0.5]):
            try:
                c.student_quantiles(ps, df)
            except ArithmeticError:
                pass
            else:
                raise AssertionError((df, bad))
# give-backs: Beta and Student failing at the first p and after others, a
# Student p past the overflow point, and a window stopped by the cap
py._MAX_ITER = 3
for ps in ([0.3], [0.9, 0.95, 0.99, 0.9, 0.3, 0.5], [0.9] * 7 + [0.3]):
    try:
        c.beta_quantiles(ps, 2.0, 4.0)
    except ArithmeticError:
        pass
py._MAX_ITER = 12
for ps in ([0.05], [0.5, 0.3, 0.7, 0.4, 0.6, 0.01, 0.5]):
    try:
        c.student_quantiles(ps, 50.0)
    except ArithmeticError:
        pass
py._MAX_ITER = 300
for ps in ([0.99], [0.5, 0.6, 0.7, 0.8, 0.985, 0.99, 0.5]):
    try:
        c.student_quantiles(ps, 0.01)
    except ArithmeticError:
        pass
# every closed-form family at the edge p: 2**-k, 1 - 2**-k and the doubles
# beside PPND16's switch points, then p given back first, mid-list and
# last (outside (0, 1), NaN, an overflow, an infinite power)
edge = [2.0 ** -k for k in range(1, 1075)]
edge += [1.0 - 2.0 ** -k for k in range(1, 54)]
for x in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
    for k in range(6):
        edge += [x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)]
        x = math.nextafter(x, 0.0)


def outcome(f, *args):
    try:
        return f(*args).tobytes()
    except Exception as exc:
        return repr(exc)


for kind, params in (("Uniform", (-1.0, 3.0)), ("Triangular", (0.0, 2.0, 0.2)),
                     ("Normal", (1.0, 2.0)), ("LogNormal", (0.5, 1.5)),
                     ("Weibull", (2.0, 0.5)), ("Gumbel", (1.0, 2.0)),
                     ("Exp", (3.0,)), ("Cauchy", (1.0, 0.5)),
                     ("Pareto", (2.0, 1.5)), ("Frechet", (2.0,)),
                     ("Exp", (1e-308,)), ("Weibull", (1.0, 5e-324))):
    for ps in (edge, [], [0.0] + edge, edge[:9] + [float("nan")] + edge,
               edge + [1.0]):
        assert (outcome(c.closed_quantiles, kind, params, ps)
                == outcome(py.closed_quantiles, kind, params, ps)), kind
# a piece kept as an array('d') from its uniforms to its scores
values = c.closed_quantiles("Normal", (0.0, 1.0),
                            c.batch_uniforms(c.mix_seed(3), 12345, 0, 7, 10))
assert (c.piece_errors(values, 10, 0.0, [(3, 0.5), (2, (0.25, 0.75))])
        == py.piece_errors(values, 10, 0.0, [(3, 0.5), (2, (0.25, 0.75))]))
# the parse's fast paths at their edges: 19-digit mantissas at each end
# of the power-of-ten table and one past it, a 20-digit mantissa, a
# 25-digit exponent and a subnormal
for data in (b"1234567890123456789e-64 9999999999999999999e64",
             b"1234567890123456789e-65 -9999999999999999999e65",
             b"12345678901234567890 1e0000000000000000000000005",
             b"1e-9999999999999999999999999 4.9406564584124654e-324 -0 .5"):
    assert c.parse_floats(data).tobytes() == py.parse_floats(data).tobytes()
# a window that ends at the array's last value, and one whose product
# overflows, which the C code gives back
from array import array
xs = array("d", [k * 0.5 for k in range(50)])
for lo, ws in ((47, (0.25, 0.25, 0.5)), (0, (1.0,) * 50)):
    assert c.weighted_sum(lo, ws, xs) == py.weighted_sum(lo, ws, xs)
assert c.weighted_sum(1, (1e300,), array("d", [0.0, 1e300])) == math.inf
n = 10 ** 6
try:  # past the term cap from about n = 3.4e5
    c.weight_window(n, 369800, 370200, 0.37 * (n + 1), 0.63 * (n + 1), 0.0,
                    1.0, 0.0, 1.0)
except ArithmeticError:
    pass
else:
    raise AssertionError("the window converged")
print("clean")
"""


def test_c_kernels_run_clean_under_address_and_ub_sanitizers(tmp_path):
    # the kernel source built with both sanitizers, which abort at the first
    # finding, loaded into a Python whose malloc the ASan runtime replaces
    lib = _cshim.build(tmp_path, "sanitized", "",
                       ("-g", "-fsanitize=address,undefined",
                        "-fno-sanitize-recover"), load=False)
    asan = subprocess.run(["cc", "-print-file-name=libasan.so"],
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout.strip()
    assert os.path.isabs(asan), asan
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        _kernels_c.__file__)))
    env = dict(os.environ, LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _SANITIZED_RUN, str(lib)],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout == "clean\n"
    assert "runtime error" not in proc.stderr, proc.stderr[-3000:]


# the shapes whose certificates the checking build verifies: the inverted
# specs of sim2_full, those of SPECS and PATH_SHAPES, and three large ones
CHECKED = (("beta_quantiles", (2.0, 4.0)), ("beta_quantiles", (2.0, 10.0)),
           ("beta_quantiles", (0.5, 0.5)), ("beta_quantiles", (0.05, 7.0)),
           ("beta_quantiles", (1.0, 1.0)), ("beta_quantiles", (30.0, 2.0)),
           ("beta_quantiles", (100.0, 100.0)),
           ("student_quantiles", (0.7,)), ("student_quantiles", (3.0,)),
           ("student_quantiles", (50.0,)), ("student_quantiles", (1e4,)))

# the sim2 specs, whose p at a call of 400 nearly all take the certificate
TAKEN = (("beta_quantiles", (2.0, 4.0)), ("beta_quantiles", (2.0, 10.0)),
         ("student_quantiles", (3.0,)))

# argv: the library, the count of p per shape, then CHECKED and TAKEN as
# JSON; prints, per shape, the p inverted and the p that took and
# failed a certificate, then the certificates taken at one call of 400
_CHECKED_RUN = """
import ctypes, json, random, sys
from trimq import _kernels_c as c

c._lib = c._open(sys.argv[1])
taken, failed = (ctypes.c_long.in_dll(c._lib, name)
                 for name in ("certified_taken", "certified_failed"))
count = int(sys.argv[2])
rng = random.Random(23)
report = {"shapes": [], "taken_of_400": []}
for name, params in json.loads(sys.argv[3]):
    taken.value = failed.value = 0
    done = 0
    while done < count:
        # uniform p, then p near 0, 1 and 0.5, at every scale
        ps = [rng.random() for _ in range(300)]
        ps += [2.0 ** -rng.uniform(1, 60) for _ in range(40)]
        ps += [1.0 - 2.0 ** -rng.uniform(1, 53) for _ in range(30)]
        ps += [0.5 + rng.choice((-1, 1)) * 2.0 ** -rng.uniform(2, 60)
               for _ in range(30)]
        assert len(getattr(c, name)(ps, *params)) == len(ps)
        done += len(ps)
    report["shapes"].append([name, params, done, taken.value, failed.value])
for name, params in json.loads(sys.argv[4]):
    taken.value = 0
    getattr(c, name)([rng.random() for _ in range(400)], *params)
    report["taken_of_400"].append([name, params, taken.value])
print(json.dumps(report))
"""

# p per shape in the tier-1 run; CHANGES.md records a run of 10**6
CHECKED_P = 200000


@pytest.fixture(scope="module")
def checked_run(checked_lib):
    """The checking build run over CHECKED_P p per shape of CHECKED, in a
    child process: (its exit status, its report, its stderr)."""
    proc = _run_checked(checked_lib, _CHECKED_RUN, str(CHECKED_P),
                        json.dumps(CHECKED), json.dumps(TAKEN))
    report = json.loads(proc.stdout) if proc.returncode == 0 else None
    return proc.returncode, report, proc.stderr


def test_certified_comparisons_agree_with_the_core(checked_run):
    # about 2e5 p per shape, near 0, 0.5 and 1 among them: every midpoint
    # skipped compares as the core's value there does, and every shape
    # takes some certificates
    status, report, stderr = checked_run
    assert status == 0, "a certified comparison disagreed (%d): %s" % (
        status, stderr[-2000:])
    for name, params, done, taken, failed in report["shapes"]:
        assert done >= CHECKED_P, (name, params)
        assert taken > 0, (name, params, taken, failed)


@pytest.mark.parametrize("index", range(len(TAKEN)))
def test_the_sim2_specs_nearly_all_take_the_certificate(checked_run, index):
    # a certificate that silently stopped firing would keep every bit:
    # at least 90% of the p of a call of 400 take one
    status, report, stderr = checked_run
    assert status == 0, stderr[-2000:]
    name, params, taken = report["taken_of_400"][index]
    assert [name, list(params)] == [TAKEN[index][0], list(TAKEN[index][1])]
    assert taken >= 360, (name, params, taken)
