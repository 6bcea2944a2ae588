import math

import pytest

from trimq import DistributionSpec, RngStream, fnv1a64, sample


def test_streams_are_deterministic():
    a = RngStream(seed=123, stream_id=7).uniforms(64)
    b = RngStream(seed=123, stream_id=7).uniforms(64)
    assert a == b


def test_streams_differ_by_id_and_seed():
    base = RngStream(1, 1).uniforms(32)
    assert RngStream(1, 2).uniforms(32) != base
    assert RngStream(2, 1).uniforms(32) != base


def test_random_access_matches_sequential():
    s = RngStream(2026, 5)
    assert s.uniforms(10, start=5) == s.uniforms(15)[5:15]
    assert s.uniforms(1, start=999) == [s.uniforms(1000)[999]]


def test_values_open_interval_and_centered():
    xs = RngStream(0, 0).uniforms(100000)
    assert min(xs) > 0.0
    assert max(xs) < 1.0
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) <= 0.005


def test_no_short_cycle():
    xs = RngStream(42, 42).uniforms(4096)
    assert len(set(xs)) == len(xs)


def test_integer_masking():
    # out-of-range seeds and ids wrap to 64 bits instead of failing
    wide = RngStream(2 ** 70 + 5, -1)
    narrow = RngStream((2 ** 70 + 5) % 2 ** 64, (-1) % 2 ** 64)
    assert wide.uniforms(8) == narrow.uniforms(8)


def test_count_validation():
    s = RngStream(1, 1)
    assert s.uniforms(0) == []
    with pytest.raises(ValueError):
        s.uniforms(-1)
    with pytest.raises(ValueError):
        s.uniforms(4, start=-2)


# each takes the count under test as c; int() would have floored 2.5 to 2,
# read True as 1 and parsed "3"
_COUNTED = {
    "sample": lambda c: sample(DistributionSpec.parse("Exp(rate=2)"),
                               RngStream(5, 9), c),
    "uniforms": lambda c: RngStream(5, 9).uniforms(c),
    "start": lambda c: RngStream(5, 9).uniforms(1, start=c),
    "seed": lambda c: RngStream(c, 0).uniforms(4),
}


@pytest.mark.parametrize("call", sorted(_COUNTED))
def test_counts_are_integers_not_truncated(call):
    draw = _COUNTED[call]
    for bad in (2.5, True, math.nan, "3"):
        with pytest.raises(ValueError):
            draw(bad)
    assert draw(3.0) == draw(3)


def test_fnv1a64_known_vectors():
    # standard offset basis and published single-byte value
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("Normal(m=0, sd=1)|10|0.5|0|0") != fnv1a64(
        "Normal(m=0, sd=1)|10|0.5|0|1")
