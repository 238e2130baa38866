"""Print the OpenBLAS core that numpy's bundled library runs on, as
``OPENBLAS_CORETYPE=<value|unset> active core: <name|unknown>``.  The core
is read from numpy 2's bundled scipy-openblas; where the library does not
say, it prints unknown.  Run it with ``python .github/openblas_core.py``."""

import ctypes
import glob
import os

import numpy

libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if get is not None:
    get.restype = ctypes.c_char_p
print(f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', 'unset')}",
      "active core:", "unknown" if get is None else get().decode())
