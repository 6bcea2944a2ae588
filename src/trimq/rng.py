"""Deterministic, splittable random streams.

A stream is identified by (seed, stream_id); draw k of a stream is a pure
function of (seed, stream_id, k).  That gives three properties the
simulation harness leans on: bitwise reproducibility across platforms and
thread counts, cheap random access (no fast-forward replay), and as many
independent streams as there are 64-bit ids.

RngStream.uniforms mixes the seed on each call.  The simulation studies,
which draw many streams of one seed, mix it once with _seed_mix and call
the backend's stream_uniforms or batch_uniforms kernel directly.
"""

from dataclasses import dataclass

from . import _checks
from ._kernels_py import fnv1a64
from .backend import kernels as _k

__all__ = ["RngStream", "fnv1a64"]

_M64 = (1 << 64) - 1


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


def _seed_mix(seed):
    """The seed checked, masked to 64 bits and mixed, once for all of its
    streams: _k.stream_uniforms(_seed_mix(seed), stream_id, 0, count) is
    RngStream(seed, stream_id).uniforms(count) for a stream id already in
    [0, 2**64)."""
    return _k.mix_seed(_checks.integer(seed, "seed") & _M64)

