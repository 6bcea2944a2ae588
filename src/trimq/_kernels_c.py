"""The C backend: the kernels of trimq/_kernels_c.c, loaded with ctypes, the
incomplete beta, the weight loop, ``quantiles``, the one inverse-CDF kernel
(the Beta and Student t inversions and the closed forms, its normal
quantile a copy of the standard library's PPND16), ``batch_uniforms``,
``piece_errors``, ``weighted_sum`` (a port of math.fsum), ``parse_floats``
(each number by an exact fast path, Clinger's or Eisel-Lemire's, or else
by strtod) and ``sort_floats``, each described by its wrapper here; the
other kernels are taken from the pure-Python reference, trimq._kernels_py.

Importing this module builds the C file once per version of its source, with
the system ``cc``, into this package's ``__pycache__``, loads it, and deletes
the libraries built from other versions.  It raises ImportError when no
library can be built or loaded; trimq.backend then falls back to the
reference.

The table _ENTRIES declares each entry point of the library once, its
return type and its parameters' types; _open types the library from it and
the wrappers call the entry points on that one object, _lib.  A sequence of
doubles has one form, an array('d'): every kernel returns its doubles in
one, and the C code reads only arrays (and the bytes ``parse_floats``
parses), each at its address, bound to a name for the whole call.  A
wrapper given any other sequence for such a buffer hands the call to the
reference.

Every entry point returns the doubles of its namesake in the reference,
and all but the inversions of ``quantiles`` run its statements in their
order.  The inversions keep the bits, not the statements: they decide the
comparisons cdf(mid) < p of the reference bisection's midpoints that a
certified band around the quantile settles without evaluating the CDF, and
bisect plainly where the band's error bound is not stated (see the C
file's header).  The incomplete beta's C core evaluates one point per
call: ``weight_window`` calls it once per index, ``quantiles`` once per CDF
value.  Where the C code gives a case back (the C file's header lists
them), or a window lies outside its array, the wrapper hands the call to
that namesake, which raises its own error or returns what it returns.
``quantiles`` returns the index of the first p it gives back, 0 for the
contaminated normal, which it does not port; the wrapper keeps the quantiles
before that index and hands over only the p from it.  A weight window hands
over only the incomplete beta it stopped at, whose reference raises, and the
whole window only if that one does not.  A scorer that is a callable is
Python to run, so ``piece_errors`` hands such a call to the reference whole;
it tells HF7's (j, g) from a window (lo, ws) by its float g.  The library
keeps no state between calls (a batch inversion's memo is a table on the
stack of its call) and ctypes releases the GIL around each call, so threads
may call it at once.
"""

import ctypes
import os
import sys
import zlib
from array import array

from . import _kernels_py as _py
from ._kernels_py import (_M64, _log_norm, beta_pdf, log_beta, log_gamma,
                          mix_seed, stream_uniforms)

__all__ = _py.__all__

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernels_c.c")

# no fused multiply-add, so that each operation rounds as Python's does
_CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120


def _compile_command(out):
    """The command that builds the library at `out`."""
    return ["cc", *_CFLAGS, "-o", out, _SOURCE, "-lm"]


# the cached libraries of this interpreter: the prefix, then the crc
_PREFIX = "_kernels_c.%s." % sys.implementation.cache_tag


def _library_path():
    """The cached library of this version of the source and of the build
    flags, for this interpreter."""
    with open(_SOURCE, "rb") as fh:
        crc = zlib.crc32(" ".join(_CFLAGS).encode(), zlib.crc32(fh.read()))
    return os.path.join(_HERE, "__pycache__", "%s%08x.so" % (_PREFIX, crc))


def _remove_stale(path):
    """Delete this interpreter's libraries of other versions of the source
    or flags, which no import of this version loads again."""
    folder, name = os.path.split(path)
    for other in os.listdir(folder):
        if (other.startswith(_PREFIX) and other.endswith(".so")
                and other != name):
            try:
                os.remove(os.path.join(folder, other))
            except OSError:
                pass  # removed by another process, or not ours to remove


def _build(path):
    """Compile the source to `path`, written whole or not at all, then
    delete the libraries it supersedes."""
    import subprocess

    os.makedirs(os.path.dirname(path), exist_ok=True)
    # unique per process; within one, the import lock serializes builds
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        proc = subprocess.run(_compile_command(tmp), capture_output=True,
                              text=True, timeout=_BUILD_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            raise OSError("cc exited with %d: %s"
                          % (proc.returncode, proc.stderr.strip()[-500:]))
        os.replace(tmp, path)
        _remove_stale(path)
    except subprocess.TimeoutExpired:
        raise OSError("cc took more than %d s" % _BUILD_TIMEOUT_S) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _check_whole(path):
    """Raise OSError if `path` is an ELF file shorter than its header says:
    loading a truncated library can kill the process with SIGBUS instead
    of failing.  The linker writes the section header table last."""
    with open(path, "rb") as fh:
        head = fh.read(64)
        size = os.fstat(fh.fileno()).st_size
    if len(head) < 52 or head[:4] != b"\x7fELF" or head[4] not in (1, 2):
        return  # not ELF: the loader's own checks apply
    order = "little" if head[5] == 1 else "big"
    # where e_shoff lies and how wide it is, and where e_shentsize lies,
    # e_shnum following it, in a 32-bit or a 64-bit header
    at, width, sizes = ((32, 4, 46), (40, 8, 58))[head[4] - 1]
    end = (int.from_bytes(head[at:at + width], order)
           + int.from_bytes(head[sizes:sizes + 2], order)
           * int.from_bytes(head[sizes + 2:sizes + 4], order))
    if end > size:
        raise OSError("%s is truncated: %d of %d bytes" % (path, size, end))


_double, _long, _buffer = ctypes.c_double, ctypes.c_long, ctypes.c_void_p

# each entry point of the library: its return type, then its parameters'
_ENTRIES = {
    "reg_inc_beta": (_double, (_double, _double, _double, _double, _long)),
    "quantiles": (_long, (_long, _buffer, _buffer, _long, _double, _long)),
    "weight_window": (_long, (_long, _long, _long, _double, _double, _double,
                              _double, _double, _double, _double, _long,
                              _buffer, _buffer)),
    "batch_uniforms": (None, (ctypes.c_uint64, ctypes.c_uint64,
                              ctypes.c_uint64, _long, _long, _buffer)),
    "piece_errors": (ctypes.c_int, (_buffer, _long, _long, _double, _long,
                                    _buffer, _buffer, _buffer, _buffer)),
    "sort_floats": (ctypes.c_int, (_buffer, _long)),
    "parse_floats": (_long, (_buffer, _long, _buffer)),
    "weighted_sum": (_double, (_buffer, _buffer, _long)),
}


def _open(path):
    """The library at `path`, its entry points typed; OSError when it is
    missing, damaged or lacks them."""
    _check_whole(path)
    lib = ctypes.CDLL(path)
    try:
        for name, (restype, argtypes) in _ENTRIES.items():
            entry = getattr(lib, name)
            entry.restype, entry.argtypes = restype, argtypes
    except AttributeError as exc:
        raise OSError("%s is not this library: %s" % (path, exc)) from None
    return lib


def _load():
    path = _library_path()
    try:
        return _open(path)
    except OSError:
        pass  # not built yet for this source, or damaged: build it afresh
    try:
        _build(path)
        return _open(path)
    except OSError as exc:
        raise ImportError("cannot build the C kernels from %s: %s"
                          % (_SOURCE, exc)) from exc


_lib = _load()
_ZERO = array("d", (0.0,))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], with the
    iteration cap of the reference, _kernels_py._MAX_ITER, read at call
    time."""
    y = _lib.reg_inc_beta(x, a, b, _log_norm(a, b), _py._MAX_ITER)
    if y != y:  # NaN: the C code gives the case back
        return _py.reg_inc_beta(x, a, b)
    return y


def _doubles(xs):
    """Whether the C code may read xs at its address: an array('d')."""
    return isinstance(xs, array) and xs.typecode == "d"


# the families, numbered as the C code numbers them
_NUMBER = {kind: i for i, kind in enumerate(_py._KINDS)}

# the shape pair of the incomplete beta that an inverted family's CDF runs
_SHAPES = {"Beta": lambda a, b: (a, b), "Student": lambda df: (0.5 * df, 0.5)}


def quantiles(kind, params, ps):
    """The quantiles of the p of ps under the family `kind` at the
    parameters `params`, in an array('d'): a copy of ps, each p replaced in
    one C call; from the first p that the C code gives back, what the
    reference makes of the rest."""
    coef = array("d", params)
    buf = array("d", ps)  # read and overwritten in place
    count = len(buf)
    shapes = _SHAPES.get(kind)
    log_norm = _log_norm(*shapes(*params)) if shapes else 0.0
    done = _lib.quantiles(_NUMBER[kind], coef.buffer_info()[0],
                          buf.buffer_info()[0], count, log_norm,
                          _py._MAX_ITER)
    if done < count:
        del buf[done:]
        buf += _py.quantiles(kind, params, ps[done:])
    return buf


def weight_window(n, i_lo, i_hi, a, b, lower, upper, cdf_lower, denom):
    """The weight window of order statistics i_lo + 1 .. i_hi of a sample
    of n, in an array('d'), the buffer of one C call, with its 1-based
    support."""
    buf = _ZERO * (i_hi - i_lo)
    support = array("l", (0, 0))
    stop = _lib.weight_window(n, i_lo, i_hi, a, b, lower, upper, cdf_lower,
                              denom, _log_norm(a, b), _py._MAX_ITER,
                              buf.buffer_info()[0], support.buffer_info()[0])
    if stop <= i_hi:
        # every index before stop converged in C as in the reference, whose
        # loop raises at stop; the whole window only if it does not
        _py.reg_inc_beta(stop / n, a, b)
        return _py.weight_window(n, i_lo, i_hi, a, b, lower, upper,
                                 cdf_lower, denom)
    return buf, support[0], support[1]


def batch_uniforms(seed_mix, batch_hash, first, count, per_sample):
    """The `per_sample` uniforms of stream fnv1a64("%d" % s, batch_hash)
    for s = first .. first + count - 1, in one array('d'), the buffer of
    one C call; an s outside [0, 2**64), whose digits the C code cannot
    fold, hands the call to the reference."""
    if first < 0 or first + count > _M64 + 1:
        return _py.batch_uniforms(seed_mix, batch_hash, first, count,
                                  per_sample)
    buf = _ZERO * (count * per_sample)
    _lib.batch_uniforms(seed_mix, batch_hash, first, count, per_sample,
                        buf.buffer_info()[0])
    return buf


def piece_errors(values, n, theta, scorers):
    """Per scorer, the squared errors of the samples of n values in the
    array('d') `values`, each sorted and scored in one C call, in an
    array('d'); values or a window of another type, a callable scorer, or
    a case the C code gives back, hands the call to the reference."""
    count, rest = divmod(len(values), n)
    if rest or not _doubles(values):  # rest: a short last sample
        return _py.piece_errors(values, n, theta, scorers)
    at, width, coef = array("l"), array("l"), array("d")
    for scorer in scorers:
        if callable(scorer):  # Python to run
            return _py.piece_errors(values, n, theta, scorers)
        start, c = scorer
        at.append(start)
        if isinstance(c, float):  # HF7's fraction
            width.append(-1)
            coef.append(c)
        elif _doubles(c):
            width.append(len(c))
            coef += c
        else:
            return _py.piece_errors(values, n, theta, scorers)
    k = len(at)
    out = _ZERO * (k * count)
    if _lib.piece_errors(values.buffer_info()[0], count, n, theta, k,
                         at.buffer_info()[0], width.buffer_info()[0],
                         coef.buffer_info()[0], out.buffer_info()[0]):
        return _py.piece_errors(values, n, theta, scorers)
    return [out[i * count:(i + 1) * count] for i in range(k)]


def weighted_sum(lo, ws, xs):
    """The correctly rounded sum of ws[k] times xs[lo + k], in one C call
    over the arrays('d') ws and xs, the latter from its offset lo; ws or
    xs of another type, a window past its end, or a sum the C code gives
    back hands the call to the reference."""
    count = len(ws)
    if (not _doubles(ws) or not _doubles(xs) or lo < 0
            or lo + count > len(xs)):
        return _py.weighted_sum(lo, ws, xs)
    total = _lib.weighted_sum(ws.buffer_info()[0],
                              xs.buffer_info()[0] + lo * xs.itemsize, count)
    if total != total:  # NaN: the C code gives the sum back
        return _py.weighted_sum(lo, ws, xs)
    return total


def sort_floats(xs):
    """Sort the array('d') `xs` in place, equal values keeping their order,
    in one C call; a NaN among them, or an array of another type, hands
    the call to the reference."""
    if not _doubles(xs) or _lib.sort_floats(xs.buffer_info()[0], len(xs)):
        _py.sort_floats(xs)


def parse_floats(data):
    """The numbers of the whitespace-separated tokens of the bytes `data`,
    in an array('d'), from one C pass that counts them and one that
    converts them; anything but plain ASCII decimal numbers that are
    finite hands the call to the reference, which returns or raises what
    it does."""
    count = _lib.parse_floats(data, len(data), None)
    if count >= 0:
        out = _ZERO * count
        if _lib.parse_floats(data, len(data), out.buffer_info()[0]) == count:
            return out
    return _py.parse_floats(data)
