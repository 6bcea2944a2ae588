"""The C backend: the incomplete beta, the weight loop, the Beta and Student
t inversions, ``batch_uniforms`` (the uniforms of the streams of
consecutive samples of a simulation batch, in one call), ``piece_errors``
(the sort and the estimators' squared errors of a piece of simulation
samples, in one call), ``parse_floats`` (the numbers of an input's bytes)
and ``sort_floats`` (a stable sort of an array('d'), in place) of
trimq/_kernels_c.c, loaded with ctypes, with the other kernels taken from
the pure-Python reference, trimq._kernels_py.

Importing this module builds the C file once per version of its source, with
the system ``cc``, into this package's ``__pycache__``, loads it, and deletes
the libraries built from other versions.  It raises ImportError when no
library can be built or loaded; trimq.backend then falls back to the
reference.

Every entry point returns the doubles of its namesake in the reference.
Where the C code gives a case back (a fraction that does not converge, an
exp(front) that overflows, a bracket end past the largest double, a Student
t p whose quantile lies past the square root of the largest double, a NaN
to sort, a weighted sum that math.fsum would not return finite, input that
is not plain ASCII decimal numbers, finite ones), the wrapper hands the
call to that namesake, which raises its own error or returns what it
returns.  A batch inversion inverts several p at once, one per lane, yet
returns the index of the first p that a one-at-a-time loop would have
given back, the lanes holding earlier p having finished; the wrapper keeps
the quantiles before that index and hands over only the p from it.  A
weight window hands over only the incomplete beta it stopped at, whose
reference raises, and the whole window only if that one does not.  A
scorer that is a callable is Python to run, so ``piece_errors`` hands such
a call to the reference whole.  The library keeps no state between calls
(a batch inversion's memo lives for its call) and ctypes releases the GIL
around each call, so threads may call it at once.
"""

import ctypes
import os
import sys
import zlib
from array import array
from struct import pack as _pack

from . import _kernels_py as _py
from ._kernels_py import (_M64, _log_norm, beta_pdf, log_beta, log_gamma,
                          mix_seed, stream_uniforms)

__all__ = ["batch_uniforms", "beta_pdf", "beta_quantiles", "log_beta",
           "log_gamma", "mix_seed", "parse_floats", "piece_errors",
           "reg_inc_beta", "sort_floats", "stream_uniforms",
           "student_quantiles", "weight_window"]

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


def _open(path):
    """The library at `path`, its entry points typed; OSError when it is
    missing, damaged or lacks them."""
    _check_whole(path)
    lib = ctypes.CDLL(path)
    try:
        scalar = lib.reg_inc_beta
        batches = lib.beta_quantiles, lib.student_quantiles
        window = lib.weight_window
        uniforms = lib.batch_uniforms
        errors = lib.piece_errors
        sort, parse = lib.sort_floats, lib.parse_floats
    except AttributeError as exc:
        raise OSError("%s is not this library: %s" % (path, exc)) from None
    double, long, u64 = ctypes.c_double, ctypes.c_long, ctypes.c_uint64
    vector = ctypes.POINTER(double)
    scalar.argtypes = (double, double, double, double, long)
    scalar.restype = double
    batches[0].argtypes = (vector, long, double, double, double, long, vector)
    batches[1].argtypes = (vector, long, double, double, long, vector)
    window.argtypes = (long, long, long, double, double, double, double,
                       double, double, double, long, vector,
                       ctypes.POINTER(long))
    for entry in (*batches, window):
        entry.restype = long
    uniforms.argtypes = (u64, u64, u64, long, long, vector)
    uniforms.restype = None
    longs = ctypes.POINTER(long)
    errors.argtypes = (ctypes.c_char_p, long, long, double, long, longs,
                       longs, vector, ctypes.c_void_p)
    errors.restype = ctypes.c_int
    sort.argtypes = (ctypes.c_void_p, long)
    sort.restype = ctypes.c_int
    parse.argtypes = (ctypes.c_char_p, long, ctypes.c_void_p)
    parse.restype = long
    return (scalar, batches[0], batches[1], window, uniforms, errors, sort,
            parse)


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


(_c_reg_inc_beta, _c_beta_quantiles, _c_student_quantiles,
 _c_weight_window, _c_batch_uniforms, _c_piece_errors, _c_sort_floats,
 _c_parse_floats) = _load()
_c_doubles = ctypes.c_double
_c_longs = ctypes.c_long
_ZERO = array("d", (0.0,))
_c_support = ctypes.c_long * 2


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], with the
    iteration cap of the reference, _kernels_py._MAX_ITER, read at call
    time."""
    y = _c_reg_inc_beta(x, a, b, _log_norm(a, b), _py._MAX_ITER)
    if y != y:  # NaN: the C code gives the case back
        return _py.reg_inc_beta(x, a, b)
    return y


def beta_quantiles(ps, a, b):
    """[the Beta(a, b) quantile of p for p in ps], each bisected on
    [0, 1]."""
    count = len(ps)
    buf = (_c_doubles * count)(*ps)  # read and overwritten in place
    done = _c_beta_quantiles(buf, count, a, b, _log_norm(a, b),
                             _py._MAX_ITER, buf)
    if done < count:
        # the reference inverts the rest, from the p the C code gave back
        return buf[:done] + _py.beta_quantiles(ps[done:], a, b)
    return buf[:]


def student_quantiles(ps, df):
    """[the Student t quantile of p at df degrees of freedom for p in ps],
    each by bracket doubling and bisection."""
    count = len(ps)
    buf = (_c_doubles * count)(*ps)
    done = _c_student_quantiles(buf, count, df, _log_norm(0.5 * df, 0.5),
                                _py._MAX_ITER, buf)
    if done < count:
        return buf[:done] + _py.student_quantiles(ps[done:], df)
    return buf[:]


def weight_window(n, i_lo, i_hi, a, b, lower, upper, cdf_lower, denom):
    """The weight window of order statistics i_lo + 1 .. i_hi of a sample
    of n, with its 1-based support, in one C call over a buffer as long as
    the window."""
    buf = (_c_doubles * (i_hi - i_lo))()
    support = _c_support()
    stop = _c_weight_window(n, i_lo, i_hi, a, b, lower, upper, cdf_lower,
                            denom, _log_norm(a, b), _py._MAX_ITER, buf,
                            support)
    if stop <= i_hi:
        # every index before stop converged in C as in the reference, whose
        # loop raises at stop; the whole window only if it does not
        _py.reg_inc_beta(stop / n, a, b)
        return _py.weight_window(n, i_lo, i_hi, a, b, lower, upper,
                                 cdf_lower, denom)
    return buf[:], support[0], support[1]


def batch_uniforms(seed_mix, batch_hash, first, count, per_sample):
    """The `per_sample` uniforms of stream fnv1a64("%d" % s, batch_hash)
    for s = first .. first + count - 1, in one list, from one C call; an
    s outside [0, 2**64), whose digits the C code cannot fold, hands the
    call to the reference."""
    if first < 0 or first + count > _M64 + 1:
        return _py.batch_uniforms(seed_mix, batch_hash, first, count,
                                  per_sample)
    buf = (_c_doubles * (count * per_sample))()
    _c_batch_uniforms(seed_mix, batch_hash, first, count, per_sample, buf)
    return buf[:]


def piece_errors(values, n, theta, scorers):
    """Per scorer, the squared errors of the samples of n values in
    `values`, each sorted and scored in one C call; a callable scorer, or
    a case the C code gives back, hands the call to the reference."""
    count, rest = divmod(len(values), n)
    if rest:  # a short last sample, as the reference slices it
        return _py.piece_errors(values, n, theta, scorers)
    at = []
    width = []
    coef = []
    for scorer in scorers:
        if callable(scorer):
            return _py.piece_errors(values, n, theta, scorers)
        start, c = scorer
        at.append(start)
        if isinstance(c, tuple):
            width.append(len(c))
            coef += c
        else:
            width.append(-1)
            coef.append(c)
    k = len(at)
    out = _ZERO * (k * count)
    # struct packs a list of floats several times faster than array does
    if _c_piece_errors(_pack("%dd" % len(values), *values), count, n, theta,
                       k, (_c_longs * k)(*at), (_c_longs * k)(*width),
                       (_c_doubles * len(coef))(*coef),
                       out.buffer_info()[0]):
        return _py.piece_errors(values, n, theta, scorers)
    return [out[i * count:(i + 1) * count].tolist() for i in range(k)]


def sort_floats(xs):
    """Sort the array('d') `xs` in place, equal values keeping their order,
    in one C call; a NaN among them, or an array of another type, hands
    the call to the reference."""
    if xs.typecode != "d" or _c_sort_floats(xs.buffer_info()[0], len(xs)):
        _py.sort_floats(xs)


def parse_floats(data):
    """The numbers of the whitespace-separated tokens of the bytes `data`,
    in an array('d'), from one C pass that counts them and one that
    converts them; anything but plain ASCII decimal numbers that are
    finite hands the call to the reference, which returns or raises what
    it does."""
    count = _c_parse_floats(data, len(data), None)
    if count >= 0:
        out = _ZERO * count
        if _c_parse_floats(data, len(data), out.buffer_info()[0]) == count:
            return out
    return _py.parse_floats(data)
