"""Deterministic, splittable random streams.

A stream is identified by (seed, stream_id); draw k of a stream is a pure
function of (seed, stream_id, k).  That gives three properties the
simulation harness leans on: bitwise reproducibility across platforms and
thread counts, cheap random access (no fast-forward replay), and as many
independent streams as there are 64-bit ids.
"""

from dataclasses import dataclass

from . import _checks
from .backend import kernels as _k

__all__ = ["RngStream", "fnv1a64", "seed_uniforms"]

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int

    def __post_init__(self):
        seed = _checks.integer(self.seed, "seed")
        stream_id = _checks.integer(self.stream_id, "stream_id")
        object.__setattr__(self, "seed", seed & _M64)
        object.__setattr__(self, "stream_id", stream_id & _M64)

    def uniforms(self, count, start=0):
        """`count` doubles strictly inside (0, 1), starting at draw `start`."""
        return _k.stream_uniforms(_k.mix_seed(self.seed), self.stream_id,
                                  _checks.integer(start, "start", 0),
                                  _checks.integer(count, "count", 0))


def seed_uniforms(seed):
    """uniforms(stream_id, count) -> RngStream(seed, stream_id).uniforms(count)
    for a stream id already in [0, 2**64), with the seed checked, masked
    and mixed here, once for all of its streams."""
    seed_mix = _k.mix_seed(_checks.integer(seed, "seed") & _M64)
    draw = _k.stream_uniforms

    def uniforms(stream_id, count):
        return draw(seed_mix, stream_id, 0, count)
    return uniforms


def fnv1a64(text, h=_FNV_OFFSET):
    """FNV-1a 64-bit hash of a string, for deriving stream ids from labels.

    The hash is a left fold over the UTF-8 bytes that starts from `h`, the
    offset basis unless given.  Starting from the hash of a prefix
    continues it: fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
    """
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _M64
    return h
