"""Multi-scale noise-robust face restoration with sequential gating ensembles.

Kept import-light so the CLI can bound BLAS threads before numpy loads;
import submodules (sgen.autodiff, sgen.model, sgen.train, ...) directly.

Memory: importing sgen sets glibc's heap policy once, so the process keeps
the heap memory it frees for reuse instead of handing it back to the kernel.
A forward pass, a train step or a restore request allocates and frees tens
of MB of temporaries. Returned to the kernel after each operation, that
memory was page-faulted back in by the next one: ~1300 minor faults per
`sgen restore` request, ~820 per adversarial batch-8 train step, 875 and
1938 per repeated forward at 96x96 and 192x160. Kept, the median operation
takes none. The cost is that RSS stays at its high-water mark. Arrays up to
32 MiB (glibc's largest mmap threshold) come from the heap, and up to 1 GiB
of free heap top is kept. This applies to glibc only; where `mallopt` is
missing, nothing changes.
"""

import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2**30


def _keep_freed_heap() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no process-wide C library
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_heap()
