"""Locating the package under test and stamping results for comparability.

The benchmark always imports ``boundbell`` from the ``src`` directory of the
checkout it sits in, never from an installed copy, so a result describes the
code next to it.  Without that directory it refuses to run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One BLAS thread, set before numpy loads here or in any child.  On a shared
# 2-vCPU host the default two threads made the same eigensolves both slower
# and far noisier (NOTES.md, "BLAS threads").
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


class MissingPackage(RuntimeError):
    """The checkout holds no ``src/boundbell`` to measure."""


def require_package() -> None:
    """Put ``src`` first on the import path and check that boundbell comes from it."""
    if not (SRC / "boundbell" / "__init__.py").is_file():
        raise MissingPackage(f"no boundbell package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import boundbell

    if Path(boundbell.__file__).resolve().parent != SRC / "boundbell":
        raise MissingPackage(f"boundbell imported from {boundbell.__file__}, not {SRC}")


def child_env(**extra: str) -> dict:
    """Environment for a child interpreter that imports boundbell from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _src_sha256() -> str:
    """Digest of the package sources; identifies the code where git does not."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "boundbell").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version string and its thread count, read from the loaded library."""
    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = "unknown"
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Everything needed to decide whether two results are comparable."""
    import numpy as np

    blas_version, blas_threads = _openblas()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "nproc": nproc(),
    }
