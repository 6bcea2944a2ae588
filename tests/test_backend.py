import math
import os
import subprocess
import sys

import trimq
from trimq import backend
from trimq import _kernels_py


def _run(env_value, code):
    env = dict(os.environ)
    env["TRIMQ_BACKEND"] = env_value
    # the child imports the trimq this process imported, installed or not
    src = os.path.dirname(os.path.dirname(trimq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)


def test_backend_is_reported():
    assert trimq.BACKEND == "python"
    assert backend.kernels is _kernels_py


def test_forced_pure_backend_gives_same_numbers():
    code = ("import trimq\n"
            "print(trimq.BACKEND)\n"
            "print(repr(trimq.thd_quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5)))\n")
    here = trimq.thd_quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5)
    for value in ("", "python", "py", "pure"):
        proc = _run(value, code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["python", repr(here)]


def test_unrecognized_backend_value_fails_fast():
    proc = _run("fortran", "import trimq")
    assert proc.returncode != 0
    assert "TRIMQ_BACKEND" in proc.stderr


def test_explicit_c_request_honored_or_errors():
    # the compiled backend was removed: asking for it fails at import and
    # the message names the variable
    for value in ("c", "native"):
        proc = _run(value, "import trimq")
        assert proc.returncode != 0
        assert "TRIMQ_BACKEND" in proc.stderr
        assert "removed" in proc.stderr


def test_kernel_module_docs_name_their_role():
    # the pure module must remain importable on its own (no compiled parts)
    assert math.isfinite(_kernels_py.log_gamma(4.2))
