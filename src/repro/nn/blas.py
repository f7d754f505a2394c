"""How many threads the BLAS under NumPy's ``matmul`` may use.

OpenBLAS sizes its thread pool to the machine once, when NumPy loads, and
every process forked afterwards gets a pool of the same size.  That is the
right size for one process and the wrong one for ``n`` rank workers: each
multi-threaded GEMM needs all of its process's threads on a core at the
same moment, the other workers' threads hold those cores, and the step
degenerates into waiting out each other's time slices — a 2-rank
process-backend step of an 8-layer, hidden-64 GPT takes 230 ms on two
cores that way, against 66 ms with one BLAS thread per rank.  PyTorch
launchers make the same cut (``torchrun`` starts every worker with
``OMP_NUM_THREADS=1``); here the process backend calls
:func:`share_blas_threads` as each rank worker starts.

Only OpenBLAS (what NumPy's wheels ship) is driven, through ``ctypes`` on
the copy NumPy already loaded; with any other BLAS, or where
``/proc/self/maps`` does not exist, both functions do nothing.
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, Optional, Tuple

__all__ = ["blas_threads", "share_blas_threads"]


def _openblas() -> Optional[Tuple[Any, Any]]:
    """``(get_num_threads, set_num_threads)`` of the loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # NumPy's wheels prefix the symbols and suffix the ILP64 build
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads"
                                   f"{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads"
                                   f"{suffix}", None)
                if get is not None and put is not None:
                    return get, put
    return None


def blas_threads() -> Optional[int]:
    """Threads OpenBLAS will use in this process; None without OpenBLAS."""
    api = _openblas()
    return None if api is None else int(api[0]())


def share_blas_threads(n_procs: int) -> None:
    """Cap this process's BLAS threads at its share of the cores, as one
    of ``n_procs`` equally busy processes (at least one thread).

    Never raises the count: one already capped from outside (e.g.
    ``OPENBLAS_NUM_THREADS=1``) stands.
    """
    api = _openblas()
    if api is None:
        return
    share = max(1, len(os.sched_getaffinity(0)) // n_procs)
    if int(api[0]()) > share:
        api[1](share)
