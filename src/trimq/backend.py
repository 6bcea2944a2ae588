"""The numeric backend.

Every numeric kernel but the normal quantile, which the standard
library's ``statistics.NormalDist.inv_cdf`` supplies, lives in the
pure-Python module trimq._kernels_py; ``kernels`` is that module and
``BACKEND`` names it, "python".  The TRIMQ_BACKEND environment variable
may be unset or name it ("python", "py" or "pure"); any other value fails
at import, so a script that asks for the removed compiled backend ("c" or
"native") learns it was removed.
"""

import os

from . import _kernels_py as kernels

BACKEND = "python"

_choice = os.environ.get("TRIMQ_BACKEND", "").strip().lower()
if _choice in ("c", "native"):
    raise ImportError(
        "TRIMQ_BACKEND=%s: the compiled backend was removed; unset "
        "TRIMQ_BACKEND or set it to 'python'" % _choice)
if _choice not in ("", "python", "py", "pure"):
    raise ValueError(
        "unrecognized TRIMQ_BACKEND value %r (expected 'python')" % _choice)
