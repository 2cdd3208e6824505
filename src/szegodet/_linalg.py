"""scipy's LAPACK and BLAS wrappers, loaded without ``import scipy.linalg``.

This module is the only place the library reaches LAPACK and BLAS (numpy
aside).  It relies on two private scipy names: the f2py extension modules
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, whose routines
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` re-export as they are.
Importing them by name would first run ``scipy/linalg/__init__.py``, which
costs about 0.3 s on a 2-vCPU virtual machine and pulls in ``numpy.f2py``, ``numpy.testing`` and
``array_api_compat`` that the library never uses.  So each extension is
loaded from its file in scipy's ``linalg`` directory and registered in
``sys.modules`` under its own full name; a later ``import scipy.linalg``
then finds it there and reuses the same module object, the same wrappers
and hence the same bits.  scipy reaches the two modules by import, so
the one thing left unset is a package attribute: ``scipy.linalg._flapack``
and ``scipy.linalg._fblas`` raise AttributeError.  Where no such file
exists (a scipy laid out otherwise), the plain import serves: the same
wrappers, at the start-up cost of ``scipy.linalg``.

The routines are taken by their explicit type prefix (``flapack.ztpqrt``,
not ``get_lapack_funcs``): every call site knows its dtype.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load(name: str):
    """The module ``scipy.linalg.<name>``, loaded by file path if it is not loaded yet."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
            return module
    return importlib.import_module(full)


flapack = _load("_flapack")
fblas = _load("_fblas")
