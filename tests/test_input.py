"""The input of `trimq estimate`: the numbers of its bytes (parse_floats,
with the C parse's exact fast paths and their power-of-ten table), their
sort (sort_floats) and the one check of each value in Sample, which keeps
them in one array('d'), the same bits and errors from the C kernels as from
the reference."""

import ctypes
import io
import math
import random
import re
import struct
import sys
import tracemalloc
from array import array
from fractions import Fraction

import pytest

import _cshim

from trimq import (Sample, _kernels_py, estimators, hd_quantile, hf7_quantile,
                   thd_quantile)
from trimq.cli import main

BACKENDS = ("python", "c")


def _module(backend):
    if backend == "c":
        from trimq import _kernels_c
        return _kernels_c
    return _kernels_py


def _recorded_give_backs(monkeypatch, name):
    """The calls the C code hands to the reference kernel `name`, which
    still runs."""
    reference = getattr(_kernels_py, name)
    calls = []

    def recorded(*args):
        calls.append(args)
        return reference(*args)
    monkeypatch.setattr(_kernels_py, name, recorded)
    return calls


def _outcome(parse, data):
    """The bytes of the parsed doubles, or the error's type and text."""
    try:
        return parse(data).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# parse_floats

def _random_double(rng):
    while True:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(x):
            return x


def _tokens(rng):
    """Number tokens of the C parse's form: repr and %.{k}e of random
    doubles, subnormals, rounding boundaries, signed zeros, leading zeros,
    bare points and 800-digit mantissas."""
    yield from ["-0", "0", "+0", "-0.0", "007", "00.5e00", "1.", ".5", "-.5",
                "+1.e5", "1E5", "1e+05", "1e-0", "-00000.000e-0000",
                "5e-324", "-5e-324", "4.9406564584124654e-324",
                "2.4703282292062327e-324", "2.4703282292062328e-324",
                "7.4109846876186981e-324", "2.2250738585072011e-308",
                "2.2250738585072014e-308", "1e-400", "-1e-400",
                "1.7976931348623157e308", "1.7976931348623158e308",
                "9007199254740993", "9007199254740993.000000000000000000001",
                "0.1", "0.30000000000000004", "123456789012345678901234567890"]
    for _ in range(4000):
        x = _random_double(rng)
        yield repr(x)
        yield "%.*e" % (rng.randrange(26), x)
        bits = rng.getrandbits(52) >> rng.randrange(52)  # a subnormal
        sub = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
        yield repr(sub)
        yield "%.*e" % (rng.randrange(26), -sub)
        y = rng.gauss(0.0, 1.0) * 10.0 ** rng.randrange(-320, 300)
        yield "%.*g" % (rng.randrange(1, 26), y)
    for _ in range(200):
        digits = "".join(rng.choice("0123456789") for _ in range(800))
        point = rng.randrange(801)
        # about 10**(point + exp), below the largest double
        exp = rng.randrange(-1150, 300) - point
        yield "%s%s.%se%d" % (rng.choice(("", "-", "+")), digits[:point],
                              digits[point:], exp)


def _joined(rng, tokens):
    """The tokens separated by runs of the six ASCII whitespace bytes,
    line ends of every kind among them."""
    seps = (" ", "\t", "\n", "\r\n", "\r", "\v", "\f", "  \t", "\n\n")
    out = []
    for token in tokens:
        out.append(token)
        out.append(rng.choice(seps))
    return "".join(out).encode("ascii")


def test_c_parse_matches_the_reference_bit_for_bit(monkeypatch):
    from trimq import _kernels_c

    rng = random.Random(20211)
    tokens = list(_tokens(rng))
    reference = _kernels_py.parse_floats
    gave_back = _recorded_give_backs(monkeypatch, "parse_floats")
    for start in range(0, len(tokens), 5000):
        data = _joined(rng, tokens[start:start + 5000])
        got = _kernels_c.parse_floats(data)
        assert gave_back == []
        assert type(got) is array and got.typecode == "d"
        want = reference(data)
        assert got.tobytes() == want.tobytes()
        # and each value is what float() reads from its token
        assert got.tolist() == [float(t) for t in data.split()]
    assert len(tokens) > 20000


def _table_bounds():
    """The C source, and the range of q of its power-of-ten table."""
    from trimq import _kernels_c

    with open(_kernels_c._SOURCE) as fh:
        source = fh.read()
    low = int(re.search(r"^#define POW10_MIN \((-\d+)\)$", source, re.M)[1])
    high = int(re.search(r"^#define POW10_MAX (\d+)$", source, re.M)[1])
    return source, low, high


def _decimal(m, k):
    """The exact decimal token of m * 2**k."""
    if k >= 0:
        return str(m << k)
    return "%de-%d" % (m * 5 ** -k, -k)


def _edge_tokens(rng, low, high):
    """Tokens at each edge of the C parse's fast paths: repr of random
    doubles, 1- to 19-digit mantissas at every q of the table and one past
    each end, with and without a point, 20- to 25-digit mantissas, exact
    ties between doubles, normal and subnormal extremes, zeros and bare
    points, and exponents of many digits."""
    for _ in range(3000):
        yield repr(_random_double(rng))
    for q in range(low - 1, high + 2):
        for digits in range(1, 20):
            text = str(rng.randrange(10 ** (digits - 1), 10 ** digits))
            yield "%se%d" % (text, q)
            cut = rng.randrange(digits + 1)
            yield "-%s.%se%d" % (text[:cut], text[cut:], q + digits - cut)
    for digits in range(20, 26):
        for q in (low - 1, low, -22, -8, 0, 22, high, high + 1):
            yield "%de%d" % (rng.randrange(10 ** (digits - 1),
                                           10 ** digits), q)
    for _ in range(600):
        # halfway between two doubles: round half to even decides
        m = (rng.getrandbits(52) | 1 << 52) * 2 + 1
        yield _decimal(m, rng.randrange(-80, 120))
    for k in range(0, 12):  # ties of 16 to 20 digits, and their neighbours
        m = (rng.getrandbits(52) | 1 << 52) * 2 + 1
        yield str(m << k)
        yield str((m << k) + 1)
        yield str((m << k) - 1)
    yield from ["9007199254740992", "9007199254740993", "9007199254740995",
                "18014398509481985", "2.2250738585072014e-308",
                "2.2250738585072011e-308", "2.2250738585072009e-308",
                "4.9406564584124654e-324", "5e-324",
                "2.4703282292062328e-324", "1.7976931348623157e308",
                "-0", "0", "+0", "-0.0", "0e0", "-0e99999999999999999999",
                "+5", "1.", ".5", "-.5", "000123.4500",
                "1.0000000000000000000000", "100000000000000000000",
                "0.0000000000000000000000001", "1e0000000000000000000005",
                "1e-99999999999999999999", "1e-0000000000000000000000308",
                "0." + "0" * 120000 + "1e120010",
                "1" + "0" * 120000 + "e-120000"]
    for _ in range(200):
        bits = rng.getrandbits(52) >> rng.randrange(52)
        yield repr(struct.unpack("<d", bits.to_bytes(8, "little"))[0])


def test_c_parse_sweeps_the_fast_path_edges_bit_for_bit(monkeypatch):
    # every token as float() reads it and as the reference does, with no
    # give-back: the fast paths' decisions, and strtod's for the rest
    from trimq import _kernels_c

    rng = random.Random(1990)
    _, low, high = _table_bounds()
    tokens = list(_edge_tokens(rng, low, high))
    data = _joined(rng, tokens)
    want = _kernels_py.parse_floats(data).tobytes()
    gave_back = _recorded_give_backs(monkeypatch, "parse_floats")
    got = _kernels_c.parse_floats(data)
    assert gave_back == []
    assert got.tobytes() == want
    assert want == array("d", [float(t) for t in tokens]).tobytes()


_FAST = """
int fast(const char *s, long len, double *x)
{
    return fast_decimal(s, s + len, x);
}
"""


@pytest.fixture(scope="module")
def fast(tmp_path_factory):
    """fast_decimal(token): the double an exact fast path decides, or
    None where it leaves the token to strtod."""
    lib = _cshim.build(tmp_path_factory.mktemp("fast"), "fast", _FAST)
    lib.fast.argtypes = (ctypes.c_char_p, ctypes.c_long,
                         ctypes.POINTER(ctypes.c_double))
    out = ctypes.c_double()

    def decide(token):
        data = token.encode("ascii")
        return out.value if lib.fast(data, len(data), out) else None
    return decide


def test_the_fast_paths_decide_what_they_should(fast):
    # a sweep would pass with fast paths that decide nothing: every token
    # of at most 19 digits with q in the table is decided (the seeded
    # draws hold no exact tie, which Eisel-Lemire leaves to strtod), each
    # decision is float()'s, and the rest go to strtod
    _, low, high = _table_bounds()
    rng = random.Random(2021)
    for q in range(low, high + 1):
        for digits in range(1, 20):
            w = rng.randrange(10 ** (digits - 1), 10 ** digits)
            for token in ("%de%d" % (w, q), "-%d.e%d" % (w, q),
                          "0.000%de%d" % (w, q + 3 + digits)):
                x = fast(token)
                assert x is not None, token
                assert struct.pack("<d", x) == struct.pack("<d", float(token))
    for token in ("9007199254740992", "0.1", "-0", "0e-99999", "+5", "1.",
                  ".5", "1e0000000000000000000005", "1234567890123456789"):
        assert struct.pack("<d", fast(token)) == (
            struct.pack("<d", float(token))), token
    declined = ["12345678901234567890", "1234567890123456789012345e-10",
                "1.0000000000000000000000", "12345678901234567e%d" % (low - 1),
                "12345678901234567e%d" % (high + 1), "1e-99999999999999999999",
                "1e99999999999999999999", "5e-324", "2.2250738585072011e-308",
                "9007199254740993", "0." + "0" * 100000 + "1e100001"]
    assert [t for t in declined if fast(t) is not None] == []


def test_power_of_ten_table_is_its_stated_recipe():
    # row q - POW10_MIN is T_q = floor(10**q * 2**(127 - e_q)),
    # e_q = floor(log2 10**q), split into its high and low 64 bits, and
    # pow10_exponent's floor(217706 q / 2**16) is e_q over the table
    source, low, high = _table_bounds()
    body = re.search(r"POW10_128\[\]\[2\] = \{\n(.*?)\n\};", source, re.S)[1]
    rows = re.findall(r"^    \{0x([0-9a-f]{16})u, 0x([0-9a-f]{16})u\},$",
                      body, re.M)
    assert len(rows) == body.count("\n") + 1 == high - low + 1
    assert low <= -22 and high >= 22  # the workload's q lie in [-21, -8]
    for q, (hi, lo) in zip(range(low, high + 1), rows):
        power = Fraction(10) ** q
        e = 0
        while Fraction(2) ** e > power:
            e -= 1
        while Fraction(2) ** (e + 1) <= power:
            e += 1
        t = math.floor(power * Fraction(2) ** (127 - e))
        assert 2 ** 127 <= t < 2 ** 128
        assert (int(hi, 16) << 64 | int(lo, 16)) == t, q
        assert (217706 * q) >> 16 == e, q


# the C parse gives each of these back; the reference returns the numbers
# or raises, the C backend the same
GIVEN_BACK = {
    "inf": b"1 inf 2",
    "nan": b"1\nnan\n",
    "infinity": b"-Infinity",
    "underscore": b"1_0 2",  # float() takes it: 10.0
    "hex": b"0x1p3",
    "overflow": b"1 1e400",
    "negative overflow": b"-1e400",
    "past the largest double": b"1.7976931348623159e308",
    "nbsp": "1\xa02\n".encode("utf-8"),  # str.split() separates at it
    "en quad": "1\u20002".encode("utf-8"),
    "next line": "1\x852".encode("utf-8"),
    "file separator": b"1\x1c2",
    "unit separator": b"1 \x1f 2",
    "nul": b"1\x002",
    "bom": b"\xef\xbb\xbf1 2",
    "invalid utf-8": b"1 2\n\xff\n",
    "arabic-indic digit": "\u0661 2".encode("utf-8"),  # float() reads 1
    "comma": b"1,5",
    "two points": b"1.2.3",
    "bare exponent": b"e5",
    "bare point": b"1 . 2",
    "bare sign": b"+",
    "empty exponent": b"1e",
    "signed empty exponent": b"1e+",
    "two signs": b"--1",
    "word on line 3, crlf": b"1\r\n2\r\nx\r\n",
    "word on line 3, lone cr": b"1\r2\rx",
    "word after a vertical tab": b"1\v2\nx",
}


@pytest.mark.parametrize("case", sorted(GIVEN_BACK))
def test_c_parse_gives_back_what_the_reference_returns_or_raises(
        monkeypatch, case):
    from trimq import _kernels_c

    data = GIVEN_BACK[case]
    want = _outcome(_kernels_py.parse_floats, data)
    gave_back = _recorded_give_backs(monkeypatch, "parse_floats")
    assert _outcome(_kernels_c.parse_floats, data) == want
    assert gave_back == [(data,)]


def test_parse_reads_lines_and_errors_as_a_text_file(tmp_path):
    # the reference's errors are those of the former text-mode loop
    parse = _kernels_py.parse_floats
    assert parse(b"").tolist() == parse(b" \n\t\r\n").tolist() == []
    assert parse("1\xa02  3".encode("utf-8")).tolist() == [1.0, 2.0, 3.0]
    assert parse(b"1_0").tolist() == [10.0]
    for data, line in ((b"1\r\n2\r\nx\r\n", 3), (b"1\r2\rx", 3),
                       (b"1\v2\fx\n", 1), (b"1\n\n\ninf", 4)):
        token = data.split()[-1].decode()
        with pytest.raises(ValueError, match="^non-numeric token %r on line "
                           "%d$" % (token, line)):
            parse(data)
    with pytest.raises(ValueError, match="^non-numeric token '\\\\ufeff1' on "
                       "line 1$"):
        parse(b"\xef\xbb\xbf1")
    with pytest.raises(UnicodeDecodeError):
        parse(b"1\n\xff")
    # the same as reading the file in text mode
    path = tmp_path / "mixed.txt"
    data = b"1\r\n2\r3\n\xc2\xa04\x1c5\n"
    path.write_bytes(data)
    with open(path, "r", encoding="utf-8") as fh:
        lines = [float(t) for line in fh for t in line.split()]
    assert parse(data).tolist() == lines


# ---------------------------------------------------------------------------
# sort_floats

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [1, 2, 32, 33, 100, 10 ** 5])
def test_sort_floats_gives_the_order_of_sorted(monkeypatch, backend, n):
    # zeros of both signs and repeated values tie, and the stable sort
    # keeps their order as sorted() does
    kernels = _module(backend)
    gave_back = _recorded_give_backs(monkeypatch, "sort_floats")
    rng = random.Random(n)
    pool = [0.0, -0.0, 1.5, -1.5, math.inf, -math.inf, 5e-324, -5e-324]
    for _ in range(3 if n > 1000 else 20):
        values = [rng.choice(pool) if rng.random() < 0.5
                  else rng.gauss(0.0, 1.0) for _ in range(n)]
        xs = array("d", values)
        kernels.sort_floats(xs)
        want = sorted(values)
        assert xs.tolist() == want
        assert ([math.copysign(1.0, x) for x in xs]
                == [math.copysign(1.0, x) for x in want])
    if backend == "c":
        assert gave_back == []


def test_c_sort_floats_gives_a_nan_back(monkeypatch):
    from trimq import _kernels_c

    values = [3.0, math.nan, -0.0, 1.0, 0.0] * 10
    want = array("d", values)
    _kernels_py.sort_floats(want)
    gave_back = _recorded_give_backs(monkeypatch, "sort_floats")
    xs = array("d", values)
    _kernels_c.sort_floats(xs)
    assert len(gave_back) == 1
    assert xs.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Sample

@pytest.fixture(params=BACKENDS)
def kernels(request, monkeypatch):
    """estimators over one kernel module."""
    module = _module(request.param)
    monkeypatch.setattr(estimators, "_k", module)
    return module


def _error(values, **kwargs):
    with pytest.raises(ValueError) as info:
        Sample(values, **kwargs)
    return str(info.value)


def test_sample_messages_are_unchanged(kernels):
    assert _error([]) == _error(iter(())) == (
        "sample must contain at least one value")
    assert _error([1.0, math.nan]) == (
        "sample values must be finite, got nan at position 1")
    assert _error([math.inf, 1.0]) == (
        "sample values must be finite, got inf at position 0")
    assert _error([1e308, 1e308, -math.inf]) == (
        "sample values must be finite, got -inf at position 2")
    assert _error([1.0, 3.0, 2.0], presorted=True) == (
        "presorted sample is out of order at position 2")
    # the first fault in input order is the one named
    assert _error([2.0, 1.0, math.nan], presorted=True) == (
        "presorted sample is out of order at position 1")
    assert _error([math.nan, 2.0, 1.0], presorted=True) == (
        "sample values must be finite, got nan at position 0")
    assert _error([1e308, 1e308, 1.0], presorted=True) == (
        "presorted sample is out of order at position 2")


def test_a_number_past_the_largest_double_is_not_finite(kernels):
    # float() raises OverflowError on these; each reads as the infinity of
    # its sign, with the message a non-finite float gets, and the first
    # fault in input order is still the one named
    assert _error([10 ** 400]) == (
        "sample values must be finite, got inf at position 0")
    assert _error(iter([1.0, -10 ** 400, 2])) == (
        "sample values must be finite, got -inf at position 1")
    assert _error((3, Fraction(10 ** 400, 3))) == (
        "sample values must be finite, got inf at position 1")
    assert _error([math.nan, 10 ** 400]) == (
        "sample values must be finite, got nan at position 0")
    assert _error([1.0, 10 ** 400], presorted=True) == (
        "sample values must be finite, got inf at position 1")
    for estimate in (hf7_quantile, hd_quantile, thd_quantile):
        with pytest.raises(ValueError) as info:
            estimate([1.0, 10 ** 400], 0.5)
        assert str(info.value) == (
            "sample values must be finite, got inf at position 1")
    assert Sample([10 ** 300, -2]).values == (-2.0, 1e300)


def test_sample_takes_finite_values_whose_sum_overflows(kernels):
    # the sum is infinite, so the values are scanned, and all are finite
    assert Sample([1e308, 1e308, -1.0]).values == (-1.0, 1e308, 1e308)
    assert Sample([-1e308, -1e308, 5.0], presorted=True).values == (
        -1e308, -1e308, 5.0)


def test_sample_converts_and_sorts_as_before(kernels):
    got = Sample(["2", 1, 0.0, -0.0, True, 0.0]).values
    assert got == (0.0, -0.0, 0.0, 1.0, 1.0, 2.0)
    assert [math.copysign(1.0, x) for x in got[:3]] == [1.0, -1.0, 1.0]
    assert all(type(x) is float for x in got)
    assert Sample(array("d", [3.0, 1.0])).values == (1.0, 3.0)


def test_sample_keeps_one_array_and_builds_values_once(kernels):
    values = [2.5, -0.0, 1.0, 0.0, -3.0, 1.0]
    given = array("d", values)
    sample = Sample(given)
    given[0] = 99.0  # an array given is copied
    assert sample.values == tuple(sorted(values))
    assert sample.values is sample.values
    assert [math.copysign(1.0, x) for x in sample.values] == (
        [math.copysign(1.0, x) for x in sorted(values)])
    assert all(type(x) is float for x in sample.values)
    assert (sample.n, len(sample)) == (6, 6)
    assert repr(sample) == "Sample(n=6, min=-3, max=2.5)"
    # other arrays take the path of any other sequence
    assert Sample(array("l", [3, 1])).values == (1.0, 3.0)
    assert Sample(array("f", [0.5, 0.25])).values == (0.25, 0.5)


def test_a_sample_of_an_array_holds_one_copy(monkeypatch):
    # Sample(array) then an estimate at n = 1e5 allocates about the one
    # copy of the 800 kB array, not the 3.2 MB of a tuple of floats (the
    # C sort's buffer is C memory, which tracemalloc does not see)
    from trimq import _kernels_c

    monkeypatch.setattr(estimators, "_k", _kernels_c)
    rng = random.Random(7)
    n = 10 ** 5
    given = array("d", (rng.gauss(0.0, 1.0) for _ in range(n)))
    thd_quantile(Sample(given[:1000]), 0.5)  # code paths warmed
    tracemalloc.start()
    try:
        sample = Sample(given)
        thd_quantile(sample, 0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 128 * 1024, peak
    assert sample._values is None


# ---------------------------------------------------------------------------
# the CLI

def _estimate_file(tmp_path, data, capsys, *flags):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    code = main(["estimate", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("data", [b"1\r\n2\r\nx\r\n", b"1\r2\rx",
                                  b"1\n2\nx"])
def test_estimate_names_the_line_of_any_line_end(tmp_path, capsys, data):
    code, out, err = _estimate_file(tmp_path, data, capsys)
    assert (code, out) == (2, "")
    assert err == "error: non-numeric token 'x' on line 3\n"


@pytest.mark.parametrize("data", [b"", b" \n\t\r\n\v\f"])
def test_estimate_without_numbers_is_empty_input(tmp_path, capsys, data):
    code, out, err = _estimate_file(tmp_path, data, capsys)
    assert (code, out) == (2, "")
    assert err == "error: empty input: expected at least one number\n"


def test_estimate_reads_what_str_split_separates(tmp_path, capsys):
    data = "3\xa01 2\x1c5\n4".encode("utf-8")
    assert _estimate_file(tmp_path, data, capsys, "--method", "hf7") == (
        0, "0.5,3\n", "")


def test_estimate_reports_undecodable_input(tmp_path, capsys):
    code, out, err = _estimate_file(tmp_path, b"1 2\n\xff\n", capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("kind", ["bytes", "text"])
def test_estimate_reads_stdin_as_bytes_or_text(monkeypatch, capsys, kind):
    data = b"3 1\r\n2\n"
    if kind == "bytes":  # a real stdin: text over a binary buffer
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    else:
        stdin = io.StringIO(data.decode("ascii"))
        assert not hasattr(stdin, "buffer")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["estimate", "--method", "hf7", "--p", "0.25,1"]) == 0
    assert capsys.readouterr().out == "0.25,1.5\n1,3\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\r\n\xa0x\n"))
    assert main(["estimate"]) == 2
    assert capsys.readouterr().err == (
        "error: non-numeric token 'x' on line 2\n")
