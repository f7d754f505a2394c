"""The process allocator policy under every NumPy kernel.

PyTorch, the substrate this package stands in for, keeps freed device
memory in a caching allocator: a training step's temporaries are carved
out of blocks the previous step gave back, and the driver is never asked
twice.  NumPy has no such layer — every array is one ``malloc`` — and
glibc's defaults undo the trade.  A block above ``M_MMAP_THRESHOLD``
(128 KiB, most activations and every gradient here) is its own ``mmap``,
handed back to the kernel by ``free`` and faulted in again, page by zeroed
page, by the next kernel that wants the same bytes; and whatever does
land on the heap is trimmed off its top as soon as ``M_TRIM_THRESHOLD``
of it is free.  A ``SerialTrainer`` step at hidden 64 took 4 600 minor
page faults that way, a quarter of its wall time in the kernel.

:func:`retain_freed_heap` makes the allocator keep what it is given back:
the mmap threshold goes to glibc's 32 MiB ceiling, so step-sized
temporaries come from the heap, and trimming is turned off, so the heap
stays at its high-water mark.  Both are needed — setting either freezes
the other where it stands (glibc stops adapting the thresholds once one
is set by hand), and trim-only measures *worse* than doing nothing.  The
price is the caching-allocator price: freed memory is reused, not
returned, so resident size stays at its peak instead of sagging between
steps.  The peak itself does not move.  Code with no large arrays gains
nothing and can lose a little (the pure-Python DES suite: 2–3 %).

The policy is process-wide and set once, by ``import repro.nn``; forked
rank workers inherit it with the rest of the allocator's state.
"""

from __future__ import annotations

import ctypes

__all__ = ["retain_freed_heap", "HEAP_RETAINED"]

# <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc's upper bound for the mmap threshold on 64-bit (half a heap);
#: a larger request is refused outright
_MMAP_THRESHOLD_MAX = 32 << 20
#: ``mallopt`` takes an ``int``: 2 GiB of free heap top is "never trim"
_TRIM_NEVER = 2 ** 31 - 1


def retain_freed_heap() -> bool:
    """Tell the C allocator to keep freed blocks for reuse.

    Returns whether both thresholds were accepted.  Where there is no
    ``mallopt`` (macOS, Windows) or it ignores its arguments (musl) this
    does nothing and returns False.  Idempotent.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_NEVER))


#: whether this process's allocator took the policy (False off glibc)
HEAP_RETAINED = retain_freed_heap()
