import ctypes
import glob
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import trimq
from trimq import backend
from trimq import _kernels_py

PURE = ("python",)
SOURCE = os.path.join(os.path.dirname(trimq.__file__), "_kernels_c.c")


def _run(env_value, code, src=None, path=None):
    """`code` run by a fresh interpreter with TRIMQ_BACKEND=`env_value`,
    importing the trimq under `src`, by default the one this process
    imported, installed or not, with PATH set to `path` if given."""
    env = dict(os.environ)
    env["TRIMQ_BACKEND"] = env_value
    if src is None:
        src = os.path.dirname(os.path.dirname(trimq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)


def _fresh_copy(tmp_path):
    """The directory of a copy of the trimq package with no __pycache__,
    so with no library built, and an empty directory to serve as a PATH
    on which no compiler is found."""
    shutil.copytree(os.path.dirname(trimq.__file__), tmp_path / "trimq",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "empty").mkdir()
    return tmp_path, tmp_path / "empty"


def _libraries(root):
    return sorted(glob.glob(str(root / "trimq" / "__pycache__" / "*.so")))


def test_backend_is_reported():
    # the C backend wherever it builds, the reference where TRIMQ_BACKEND
    # asks for it
    from trimq import _kernels_c

    if os.environ.get("TRIMQ_BACKEND", "").strip().lower() in PURE:
        assert trimq.BACKEND == "python"
        assert backend.kernels is _kernels_py
    else:
        assert trimq.BACKEND == "c"
        assert backend.kernels is _kernels_c


def test_forced_pure_backend_gives_same_numbers():
    # unset picks C and "python" the reference; the numbers agree
    code = ("import trimq\n"
            "print(trimq.BACKEND)\n"
            "print(repr(trimq.thd_quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5)))\n")
    here = trimq.thd_quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5)
    for value in ("",) + PURE:
        proc = _run(value, code)
        assert proc.returncode == 0, proc.stderr
        name = "python" if value else "c"
        assert proc.stdout.splitlines() == [name, repr(here)]


def test_unrecognized_backend_value_fails_fast():
    # one spelling per backend: the old aliases are unrecognized too
    for value in ("fortran", "native", "py", "pure"):
        proc = _run(value, "import trimq")
        assert proc.returncode != 0, value
        assert ("unrecognized TRIMQ_BACKEND value %r" % value
                in proc.stderr), value


def test_explicit_c_request_honored_or_errors(tmp_path):
    # honored where the C file builds; where no compiler is found, the
    # import fails with a message naming the variable and the cause
    code = "import trimq\nprint(trimq.BACKEND)\n"
    proc = _run("c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["c"]
    root, no_cc = _fresh_copy(tmp_path)
    proc = _run("c", code, src=root, path=no_cc)
    assert proc.returncode != 0
    assert "TRIMQ_BACKEND=c" in proc.stderr
    assert "cannot build the C kernels" in proc.stderr
    assert _libraries(root) == []


def test_kernel_module_docs_name_their_role():
    # the pure module must remain importable on its own (no compiled parts)
    assert math.isfinite(_kernels_py.log_gamma(4.2))
    assert "reference" in _kernels_py.__doc__
    assert "falls back" in _kernels_py.__doc__


def test_c_backend_serves_every_reference_kernel():
    # estimators and distributions call whichever module backend picked,
    # so both export the same kernels, each with its reference
    from trimq import _kernels_c

    assert _kernels_c.__all__ == _kernels_py.__all__
    for module in (_kernels_py, _kernels_c):
        for name in module.__all__:
            assert callable(getattr(module, name)), (module, name)


def test_import_leaves_statistics_unloaded():
    # the normal-quantile families import statistics when first built, so
    # start-up does not pay for it (nor for fractions and decimal)
    proc = _run("", "import sys\n"
                    "import trimq, trimq.cli\n"
                    "print('statistics' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_warm_import_loads_no_build_tools():
    # with the library built, importing trimq loads ctypes and none of the
    # build's modules; -S keeps site hooks from importing them either
    from trimq import _kernels_c  # noqa: F401  builds it if need be

    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\nimport trimq, trimq.cli\n"
         "print(trimq.BACKEND, [m for m in ('subprocess', 'tempfile', "
         "'hashlib') if m in sys.modules])\n"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, TRIMQ_BACKEND="",
                 PYTHONPATH=os.path.dirname(os.path.dirname(trimq.__file__))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["c", "[]"]


@pytest.mark.parametrize("flags", [(), ("-DCHECK_CERTIFIED",)])
def test_c_source_compiles_without_warnings(tmp_path, flags):
    # the package's own build command with every warning an error, and the
    # tests' checking build: a C warning fails tier-1, an unused static
    # function among them, as does a missing compiler
    from trimq import _kernels_c

    out = tmp_path / "kernels.so"
    cc, *rest = _kernels_c._compile_command(str(out))
    proc = subprocess.run(
        [cc, "-pedantic", "-Wall", "-Wextra", "-Werror", *flags, *rest],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out.stat().st_size > 0


# the C types of the entry points' returns and parameters, as ctypes names
# them; a pointer parameter crosses as a c_void_p
_CTYPES = {"double": ctypes.c_double, "long": ctypes.c_long,
           "int": ctypes.c_int, "uint64_t": ctypes.c_uint64, "void": None}


def test_entry_table_matches_the_c_definitions():
    # an entry point missing from the table would be called with ctypes'
    # default int types, silently; so every function the C file exports is
    # in the table, with its return type and one type per parameter
    from trimq import _kernels_c

    with open(SOURCE) as fh:
        source = fh.read()
    found = re.findall(r"^([A-Za-z_][^;{}()]*?)(\w+)\(([^)]*)\)\n\{",
                       source, re.M)
    assert len(found) == source.count("\n{")  # every definition is read
    exported = {name: (head.split(), params.split(","))
                for head, name, params in found
                if "static" not in head.split()}
    assert sorted(exported) == sorted(_kernels_c._ENTRIES)
    for name, (restype, argtypes) in _kernels_c._ENTRIES.items():
        (declared,), params = exported[name]
        assert restype is _CTYPES[declared], name
        assert len(argtypes) == len(params), name
        for argtype, param in zip(argtypes, params):
            want = (ctypes.c_void_p if "*" in param
                    else _CTYPES[param.split()[0]])
            assert argtype is want, (name, param)


def test_library_build_keeps_every_rounding():
    # each operation must round as Python's does: no fused multiply-add,
    # no reassociation
    from trimq import _kernels_c

    command = _kernels_c._compile_command("out.so")
    assert command[0] == "cc" and SOURCE in command
    assert "-ffp-contract=off" in command
    for flag in command:
        assert flag not in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                            "-ffp-contract=fast", "-ffp-contract=on"), flag


# a small grid of bisected variates, and the command that simulates it
GRID = {"specs": ["Beta(a=2, b=4)", "Student(df=3)"], "sample_sizes": [5],
        "p_grid": [0.1, 0.5], "samples_per_batch": 8, "batches": 3}
SIMULATE = ("import hashlib, sys, trimq, trimq.cli\n"
            "code = trimq.cli.main(['simulate', '--kind', 'sim2', "
            "'--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(trimq.BACKEND, code, hashlib.sha256("
            "open(sys.argv[2], 'rb').read()).hexdigest())\n")


def test_no_compiler_falls_back_to_the_same_csv(tmp_path):
    root, no_cc = _fresh_copy(tmp_path)
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(GRID))
    code = ("import sys\nsys.argv[1:] = [%r, %r]\n" % (
        str(cfg), str(tmp_path / "out.csv"))) + SIMULATE
    pure = _run("", code, src=root, path=no_cc)
    assert pure.returncode == 0, pure.stderr
    assert _libraries(root) == []
    native = _run("", code, src=root)
    assert native.returncode == 0, native.stderr
    assert len(_libraries(root)) == 1
    (name, status, digest), (name2, status2, digest2) = (
        pure.stdout.split(), native.stdout.split())
    assert (name, status, name2, status2) == ("python", "0", "c", "0")
    assert digest == digest2
    # and the same bytes as this process writes, whichever backend it has
    from trimq.cli import main

    out = tmp_path / "here.csv"
    assert main(["simulate", "--kind", "sim2", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


ESTIMATE = ("import sys, trimq, trimq.cli\n"
            "print(trimq.BACKEND)\n"
            "for method in ('hd', 'thd'):\n"
            "    print(trimq.cli.main(['estimate', sys.argv[1], '--method', "
            "method, '--p', '0.001,0.05,0.37,0.5,0.95']))\n")


def test_no_compiler_estimates_the_same_quantiles(tmp_path):
    # the whole weight vectors of hd and thd, from the reference loop in
    # the copy without a compiler and from the C loop once it builds
    import random

    root, no_cc = _fresh_copy(tmp_path)
    rng = random.Random(14)
    data = tmp_path / "data.txt"
    data.write_text("".join("%r\n" % rng.lognormvariate(0.0, 1.5)
                            for _ in range(3000)))
    code = "import sys\nsys.argv[1:] = [%r]\n" % str(data) + ESTIMATE
    pure = _run("", code, src=root, path=no_cc)
    assert pure.returncode == 0, pure.stderr
    assert _libraries(root) == []
    native = _run("", code, src=root)
    assert native.returncode == 0, native.stderr
    assert len(_libraries(root)) == 1
    pure_lines, native_lines = (pure.stdout.splitlines(),
                                native.stdout.splitlines())
    assert (pure_lines[0], native_lines[0]) == ("python", "c")
    assert len(pure_lines) == 1 + 2 * 6 and pure_lines[6::6] == ["0", "0"]
    assert pure_lines[1:] == native_lines[1:]


# the C reflected branch at (x, a, b) = (0.9, 2, 4), read past the wrapper
RAW = ("import trimq._kernels_c as k\n"
       "print(repr(k._lib.reg_inc_beta(0.9, 2.0, 4.0, k._log_norm(2.0, 4.0), "
       "300)))\n")


def test_edited_source_is_rebuilt_and_the_stale_library_never_loaded(
        tmp_path):
    root, _ = _fresh_copy(tmp_path)
    first = _run("", RAW, src=root)
    assert first.returncode == 0, first.stderr
    assert first.stdout.strip() == repr(_kernels_py.reg_inc_beta(0.9, 2, 4))
    built = _libraries(root)
    assert len(built) == 1
    source = root / "trimq" / "_kernels_c.c"
    text = source.read_text()
    # the scalar entry's one return, of the core's value
    entry_return = "    return inc_beta(x, a, b, log_norm, max_iter, NULL);"
    assert text.count(entry_return) == 1
    source.write_text(text.replace(entry_return, "    return 0.25;"))
    second = _run("", RAW, src=root)
    assert second.returncode == 0, second.stderr
    assert second.stdout.strip() == "0.25"
    # the build of the edited source deletes the library it supersedes
    edited = _libraries(root)
    assert len(edited) == 1 and edited != built
    # the edit undone, the first library's name is built again and the
    # edited one deleted in turn
    source.write_text(text)
    third = _run("", RAW, src=root)
    assert third.returncode == 0, third.stderr
    assert third.stdout == first.stdout
    assert _libraries(root) == built


def test_damaged_cached_library_is_rebuilt_or_falls_back(tmp_path):
    # loading a truncated library can die of SIGBUS; the loader checks the
    # length first, then rebuilds, or falls back when it cannot
    root, no_cc = _fresh_copy(tmp_path)
    code = "import trimq\nprint(trimq.BACKEND)\n"
    assert _run("", code, src=root).stdout.split() == ["c"]
    (lib,) = _libraries(root)
    with open(lib, "rb") as fh:
        whole = fh.read()
    for size in (0, 100, len(whole) // 2, len(whole) - 100):
        for path, want in ((no_cc, "python"), (None, "c")):
            with open(lib, "wb") as fh:
                fh.write(whole[:size])
            proc = _run("", code, src=root, path=path)
            assert proc.returncode == 0, (size, proc.stderr)
            assert proc.stdout.split() == [want], size
        assert os.path.getsize(lib) == len(whole)
    assert _libraries(root) == [lib]
