"""Keep large numpy temporaries on the heap instead of mmap.

With glibc defaults, multi-megabyte scratch arrays cross the mmap
threshold, go back to the kernel on free and cost page-zeroing faults
when they are allocated again.  ``tune_allocator`` raises the mmap and
trim thresholds so freed blocks stay reusable.  It is a process-wide
setting, so neither importing the package nor ``mrswm.cli.main``
applies it.  On the current solvers its gain is within noise: in-process
medians of 15 ``reference-ex3`` solves (bench/workloads.py) on a shared
2-core x86-64 machine read 0.745, 0.704 and 0.785 s with it against
0.780, 0.781 and 0.769 s without.  Only the benchmark still calls it
(``bench/run.py``'s ``environment()``), which is why this module stays.
"""

import ctypes
import ctypes.util
import functools

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.cache
def tune_allocator() -> bool:
    """Apply the thresholds once per process; return whether libc had mallopt."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        libc.mallopt(M_MMAP_THRESHOLD, 1 << 30)
        libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
        return True
    except (OSError, AttributeError):
        return False
