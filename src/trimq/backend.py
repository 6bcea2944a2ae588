"""The numeric backend.

``kernels`` is the module every other module calls for the numeric kernels,
and ``BACKEND`` names it:

- "c": trimq._kernels_c, the incomplete beta, the weight loop
  (``weight_window``), the one inverse-CDF kernel (``quantiles``: the
  Beta and Student t inversions and the ten closed-form families, the
  normal quantile a copy of the standard library's), the uniforms of the
  streams of a run of simulation samples (``batch_uniforms``), the sort
  and scoring of those samples (``piece_errors``), the parse and sort of
  `trimq estimate`'s input (``parse_floats``, ``sort_floats``) and the
  weighted sum of an estimate's window (``weighted_sum``) in C, built
  with the system ``cc`` on first import and cached in this package's
  ``__pycache__``, the other kernels from the reference;
- "python": trimq._kernels_py, the pure-Python reference, the plain
  algorithm of each kernel.

Both export the same kernels, give the same bits and raise the same
errors: a call the C code cannot finish is handed to its namesake in the
reference, which raises or returns what it does (the parse of input that
is not plain ASCII decimal numbers among them).  Every kernel returns a
sequence of doubles as an array('d'), the one form the C code reads; a C
wrapper given any other sequence for a buffer hands the call to the
reference.  The TRIMQ_BACKEND environment variable picks one: unset or
empty, the C backend when it builds and loads, the reference otherwise;
"c", the C backend or an ImportError that says why it is not available;
"python", the reference.  Any other value fails at import.  The
reference's normal quantile is the standard library's
``statistics.NormalDist.inv_cdf``, and the C backend's a copy of it, bit
for bit.
"""

import os

_choice = os.environ.get("TRIMQ_BACKEND", "").strip().lower()
if _choice == "python":
    from . import _kernels_py as kernels
    BACKEND = "python"
elif _choice in ("", "c"):
    try:
        from . import _kernels_c as kernels
        BACKEND = "c"
    except ImportError as exc:
        if _choice:
            raise ImportError("TRIMQ_BACKEND=%s: the C backend is not "
                              "available: %s" % (_choice, exc)) from exc
        from . import _kernels_py as kernels
        BACKEND = "python"
else:
    raise ValueError("unrecognized TRIMQ_BACKEND value %r (expected 'c' or "
                     "'python')" % _choice)
