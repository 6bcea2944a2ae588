"""C test shims: the kernel source with exported wrappers over some of its
static functions, built with the package's own flags and loaded with
ctypes."""

import ctypes
import subprocess


def build(folder, name, wrappers):
    """The library `name` built in `folder` from the kernel source followed
    by the C text `wrappers`."""
    from trimq import _kernels_c

    shim = folder / (name + ".c")
    shim.write_text('#include "%s"\n%s' % (_kernels_c._SOURCE, wrappers))
    out = folder / (name + ".so")
    proc = subprocess.run(["cc", *_kernels_c._CFLAGS, "-o", str(out),
                           str(shim), "-lm"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ctypes.CDLL(str(out))
