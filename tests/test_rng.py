import math
import random

import pytest

from trimq import DistributionSpec, RngStream, fnv1a64, sample, true_quantile
from trimq import _kernels_py
from trimq.backend import kernels
from trimq.rng import _seed_mix

from test_distributions import ALL_SPECS


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


def test_fnv1a64_continues_from_a_prefix_hash():
    # the fold started from a prefix's hash equals the one-shot hash, for
    # every split point of random strings, multi-byte characters included
    rng = random.Random(8)
    alphabet = "abc|019.()=, éß€"
    for _ in range(60):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 24)))
        whole = fnv1a64(text)
        for i in range(len(text) + 1):
            assert fnv1a64(text[i:], fnv1a64(text[:i])) == whole


def test_seed_mix_draws_the_stream_uniforms():
    # the seed mixed once, as the simulation studies mix it, then the
    # kernel per stream
    for seed in (0, 7, -1, 2 ** 70 + 5):
        seed_mix = _seed_mix(seed)
        for sid in (0, 1, 2 ** 63 + 11, 2 ** 64 - 1):
            for count in (0, 1, 10, 33):
                assert (kernels.stream_uniforms(seed_mix, sid, 0, count)
                        == RngStream(seed, sid).uniforms(count))
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="seed"):
            _seed_mix(bad)


def test_stream_uniforms_start_skips_draws():
    seed, sid = 2 ** 64 - 3, 12345
    mixed = kernels.mix_seed(seed)
    assert (RngStream(seed, sid).uniforms(9, start=4)
            == kernels.stream_uniforms(mixed, sid, 4, 9)
            == kernels.stream_uniforms(mixed, sid, 0, 13)[4:])


# draw TOP_DRAW of stream (0, 0) is the one whose midpoint rounds to 1.0
TOP_DRAW = 4550477438996601597


def test_the_top_draw_stays_below_one():
    # draw `start` of stream (0, 0) has z >> 11 == 2**53 - 1, whose midpoint
    # (2**53 - 0.5) * 2**-53 rounds to exactly 1.0, where most inverse CDFs
    # fail; it must take the largest double below 1, its neighbours their
    # own values
    start = TOP_DRAW
    draws = RngStream(0, 0).uniforms(3, start=start - 1)
    assert draws == [0.9865407410362939, 1.0 - 2.0 ** -53,
                     0.7523256904853473]
    u = draws[1]
    assert kernels.stream_uniforms(kernels.mix_seed(0), 0, start, 1) == [u]
    for text in ALL_SPECS:
        assert math.isfinite(true_quantile(DistributionSpec.parse(text), u))


# (seed, stream id, start, count): start 0, starts of 2**64 and more, which
# the state arithmetic takes modulo 2**64, and the top draw with its
# neighbours
STREAM_CASES = ((0, 0, 0, 40), (7, 2 ** 64 - 1, 0, 5), (7, 99, 2 ** 63, 4),
                (7, 99, 2 ** 64 - 2, 4), (7, 99, 2 ** 64, 6),
                (7, 99, 2 ** 70 + 3, 9), (7, 99, 3 * 2 ** 64 - 5, 3),
                (0, 0, TOP_DRAW - 1, 3), (0, 0, TOP_DRAW + 2 ** 64, 1),
                (5, 9, 11, 0))


def test_stream_uniforms_take_the_start_modulo_2_64():
    for seed, sid, start, count in STREAM_CASES:
        mixed = kernels.mix_seed(seed)
        want = kernels.stream_uniforms(mixed, sid, start % 2 ** 64, count)
        assert len(want) == count
        assert kernels.stream_uniforms(mixed, sid, start, count) == want
    top = kernels.stream_uniforms(kernels.mix_seed(0), 0, TOP_DRAW, 1)
    assert top == [1.0 - 2.0 ** -53]


# (first, count, per_sample) for samples of n = 4: s crossing 9 -> 10 and
# 99 -> 100, first > 0, two uniforms per variate, one sample, none, the
# twenty-digit samples below 2**64, and s outside [0, 2**64), which the C
# wrapper hands to the reference
BATCH_CASES = ((0, 12, 4), (5, 7, 8), (95, 10, 8), (100, 1, 4), (3, 0, 4),
               (10 ** 18 - 2, 4, 4), (2 ** 64 - 3, 3, 2), (-3, 5, 2),
               (2 ** 64 - 2, 4, 2))


@pytest.mark.parametrize("backend", ["python", "c"])
def test_batch_uniforms_are_the_concatenated_streams(backend):
    if backend == "c":
        from trimq import _kernels_c as module
    else:
        module = _kernels_py
    batch = fnv1a64("3|", fnv1a64("Exp(rate=1)|4|0.5|"))
    for seed in (0, 31337):
        mixed = _kernels_py.mix_seed(seed)
        for first, count, per_sample in BATCH_CASES:
            want = []
            for s in range(first, first + count):
                want += _kernels_py.stream_uniforms(
                    mixed, fnv1a64("%d" % s, batch), 0, per_sample)
            got = module.batch_uniforms(mixed, batch, first, count,
                                        per_sample)
            assert got == want, (seed, first, count, per_sample)
