"""Build and load the C library `_clique.c` and its two entry points:
`max_clique` (f2c_max_clique, the branch and bound of cliques.max_clique) and
`subspaces` (f2c_subspaces, the orderly search of cliques.subspace_cliques).

The library is compiled on first import with the C compiler Python was built
with (sysconfig's CC) and cached as __pycache__/_clique-<tag>.so, where tag is
the sha256 of the source and the compile command.  Each compile writes its own
temporary file and renames it into place, so concurrent first imports all end
with the one library; a process that compiled then removes the libraries of
earlier sources from the cache, never a temporary file, while a cache hit
touches nothing.  There is no fallback: a failed compile fails the import
with the compiler's stderr.

The command names no target CPU, so the library runs on any machine of the
compiler's architecture and its tag does not depend on the CPU that built
it: a shared __pycache__ serves every host.  The one CPU-specific part is
chosen at run time: on x86-64 each clique search checks once whether the CPU
has a fast BMI2 pext and, if so, packs its rows with it (`_clique.c`).
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sysconfig

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_clique.c")
CC = tuple(shlex.split(sysconfig.get_config_var("CC") or "cc"))
COMMAND = CC + ("-O2", "-shared", "-fPIC")


def library_name(source: bytes) -> str:
    return f"_clique-{hashlib.sha256(source + ' '.join(COMMAND).encode()).hexdigest()}.so"


def _build() -> str:
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    cache = os.path.join(_HERE, "__pycache__")
    path = os.path.join(cache, library_name(source))
    if os.path.exists(path):
        return path
    import subprocess
    import tempfile

    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_clique-", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run(list(COMMAND) + ["-o", tmp, SOURCE], capture_output=True, text=True)
        if proc.returncode:
            raise ImportError(f"cannot compile {SOURCE}:\n{proc.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    for name in os.listdir(cache):  # the libraries of earlier sources
        if name.startswith("_clique-") and name.endswith(".so") and name != os.path.basename(path):
            try:
                os.remove(os.path.join(cache, name))
            except FileNotFoundError:  # a concurrent first import removed it
                pass
    return path


LIBRARY = _build()
_lib = ctypes.CDLL(LIBRARY)
_i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
max_clique = _lib.f2c_max_clique
max_clique.restype = ctypes.c_int
max_clique.argtypes = [
    ctypes.c_int32, _i32, ctypes.c_int32, ctypes.c_int32, ctypes.c_int64, _i32, _i64,
]
subspaces = _lib.f2c_subspaces
subspaces.restype = ctypes.c_int
subspaces.argtypes = [ctypes.c_int32, _i32, ctypes.c_int32, _i64, _i32]
