"""How a call splits its work: into spans of items, run on one thread or two.

A process has one helper thread at most. `run_batch` (with two or more
songs), `FeatureFrames.at` and `train_single_song` each take it through
`helper`, which lends it to one holder at a time and only where
`worker_count` allows a second worker. So one rule decides whether any
of them starts a helper thread, and while a batch runs two songs at a
time, neither the features nor the AE of a song start one of their own.
"""

import contextlib
import os
import threading

# Held while a `helper` block runs, so no two blocks in a process hold a helper thread.
_helper_slot = threading.Lock()


def spans(n, size):
    """(start, stop) of each span of n items.

    Spans start at multiples of `size` and hold at least `size` items:
    the last partial span joins the one before it, and fewer than `size`
    items make one span. A GEMM over a few rows or columns can take
    another OpenBLAS kernel, which rounds differently, so a short tail
    span could change the last rows of a product taken span by span.
    With the tail merged, the spans' GEMMs give the bytes of one GEMM
    over all items at one BLAS thread. With more threads OpenBLAS splits
    a GEMM at points set by its size, so the last bits then vary, as
    they vary between thread counts.
    """
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < size:
        del starts[-1]
    return zip(starts, starts[1:] + [n])


@contextlib.contextmanager
def helper():
    """Lend the process's one helper thread as a `ThreadPoolExecutor(1)`, or give None.

    None comes when `worker_count` reads 1 or another block holds the
    helper, whose caller then runs its work on the calling thread alone.
    The pool starts its thread at the first `submit`, so a block that
    submits nothing starts no thread, and leaving the block waits for the
    thread to finish. `concurrent.futures` is imported here, so `import
    barseg` stays lean.
    """
    if worker_count() < 2 or not _helper_slot.acquire(blocking=False):
        yield None
        return
    try:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1) as pool:
            yield pool
    finally:
        _helper_slot.release()


def worker_count():
    """Threads a call may run on: two if the process may use two CPUs per BLAS thread, else one.

    Both workers run GEMMs, and a BLAS that may already use every CPU
    leaves no core for a helper thread: on a 2-CPU host at the default of
    two OpenBLAS threads, a helper made `FeatureFrames.at` 5-10% slower
    and AE training about 12% slower, where at one BLAS thread it made
    them 45% and 25% faster. A helper thread also keeps its own malloc
    arena after the call, which adds to the process's peak RSS, so a
    process has one helper at most (`helper`).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 * _blas_threads(cpus) else 1


def _blas_threads(cpus):
    """Threads NumPy's OpenBLAS runs a GEMM on, as OpenBLAS reads them when loaded.

    That is the first positive count of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS, at most `cpus`; with none set,
    one thread per CPU.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            count = int(os.environ.get(name, "").split(",")[0])
        except ValueError:
            continue
        if count > 0:
            return min(count, cpus)
    return cpus
