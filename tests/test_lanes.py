"""The C batch inversion's lanes and per-call memo against the Python
bisection, its give-back index, the lane paths that index the memo, and
the C kernels under AddressSanitizer and UndefinedBehaviorSanitizer."""

import ctypes
import os
import random
import struct
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
    # batches of 0 to 9 p, fewer and more than the lanes, and the sim2
    # call sizes up to the largest, each p the double the scalar reference
    # returns
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
    # the first failing p at each lane position, and after the lanes have
    # taken new p, with good and failing p after it: the reference receives
    # exactly the p from the first failing one
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
def c_path(tmp_path_factory):
    """One lane of the batch inversion, stepped with the core's CDF values
    behind an exported wrapper that records the node and the point of each
    of its first MEMO_DEPTH evaluations, and returns how many it made."""
    lib = _cshim.build(
        tmp_path_factory.mktemp("path"), "path",
        "const int memo_depth = MEMO_DEPTH;\n"
        "int lane_path(double p, double a, double b, double df,\n"
        "              double log_norm, long max_iter, int *node,\n"
        "              double *at)\n"
        "{\n"
        "    Lane lane;\n"
        "    double f;\n"
        "    int state = lane_start(&lane, p, 0, df != 0.0), e = 0;\n"
        "    for (; state == LANE_NEEDS && e < MEMO_DEPTH; e++) {\n"
        "        node[e] = lane.node;\n"
        "        at[e] = lane.at;\n"
        "        cdf_lanes(1, &lane.at, df, a, b, log_norm, max_iter, &f);\n"
        "        state = lane_step(&lane, f);\n"
        "    }\n"
        "    return e;\n"
        "}\n")
    double = ctypes.c_double
    lib.lane_path.argtypes = (double, double, double, double, double,
                              ctypes.c_long, ctypes.POINTER(ctypes.c_int),
                              ctypes.POINTER(double))
    lib.lane_path.restype = ctypes.c_int
    return lib


# (a, b, df): Beta(a, b) when df is 0, else Student(df) with a = df / 2
PATH_SHAPES = ((2.0, 4.0, 0.0), (0.05, 7.0, 0.0), (1.0, 1.0, 0.0),
               (0.35, 0.5, 0.7), (1.5, 0.5, 3.0), (25.0, 0.5, 50.0))


@pytest.mark.parametrize("a, b, df", PATH_SHAPES)
def test_a_lanes_path_fixes_the_points_the_memo_holds(c_path, a, b, df):
    # the memo keeps the CDF value at each node of the outcomes f < p of
    # the lanes' first evaluations: every p whose lane reaches a node
    # evaluates the same point there, and a node after e outcomes lies in
    # [2**e, 2**(e + 1)), inside the table
    depth = ctypes.c_int.in_dll(c_path, "memo_depth").value
    node = (ctypes.c_int * depth)()
    at = (ctypes.c_double * depth)()
    log_norm = _kernels_py._log_norm(a, b)
    rng = random.Random(11)
    ps = _SMALL + [1e-300, 1.0 - 1e-16] + [rng.random() for _ in range(10000)]
    points = {}
    for p in ps:
        for e in range(c_path.lane_path(p, a, b, df, log_norm,
                                        _kernels_py._MAX_ITER, node, at)):
            assert node[e] >> e == 1, (p, e, node[e])
            points.setdefault(node[e], set()).add(struct.pack("<d", at[e]))
    assert len(points) > 2 ** (depth // 2)
    shared = {n: bits for n, bits in points.items() if len(bits) > 1}
    assert not shared, sorted(shared)[:5]


_SANITIZED_RUN = """
import random, sys
from trimq import _kernels_c as c, _kernels_py as py

c._lib = c._open(sys.argv[1])
rng = random.Random(5)
for size in (0, 1, 2, 3, 4, 5, 9, 100, 400, 4096):
    ps = [rng.random() for _ in range(size)] + [0.5, 2.0 ** -54]
    for name, params in (("beta_quantiles", (2.0, 4.0)),
                         ("beta_quantiles", (0.05, 7.0)),
                         ("beta_quantiles", (1.0, 1.0)),
                         ("student_quantiles", (0.7,)),
                         ("student_quantiles", (3.0,))):
        got = getattr(c, name)(ps, *params)
        assert got == getattr(py, name)(ps, *params), (name, size)
for x in (0.0, 1e-300, 0.3, 0.9, 1.0):
    assert c.reg_inc_beta(x, 2.0, 4.0) == py.reg_inc_beta(x, 2.0, 4.0)
for args in ((10, 0, 10, 4.5, 5.5, 0.0, 1.0, 0.0, 1.0),
             (1000, 480, 521, 500.5, 500.5, 0.48, 0.52, 0.1, 0.8),
             (7, 0, 7, 0.5, 7.5, 0.0, 1.0, 0.0, 1.0)):
    assert c.weight_window(*args) == py.weight_window(*args), args
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
