"""How a call splits its work, and the one thread configuration it runs in.

A process has one helper thread at most. `share` (which splits a
song's feature chunks and a batch's songs) and `train_single_song`
each take it through `helper`, which lends it to one holder at a time
and only where `worker_count` allows a second worker: two CPUs per
OpenBLAS thread. So one rule decides whether any of them starts a
helper thread, and while a batch runs two songs at a time, neither the
features nor the AE of a song start one of their own. `run_song`,
`run_batch` and `compute_feature` run inside `one_blas_thread`, so a
process with two CPUs runs them on two workers at one BLAS thread
whatever the environment sets, with the same bytes.
"""

import collections
import contextlib
import functools
import os
import threading

# Held while a `helper` block runs, so no two blocks in a process hold a helper thread.
_helper_slot = threading.Lock()
# Guards the holders of `one_blas_thread` and the count the last of them restores.
_hold = threading.Lock()
_holders = 0
_restore = None
# NumPy's OpenBLAS: threads() reads its thread count, set_threads(n) sets it, and core names the
# kernel set it picked for this CPU, on which the last bits of a GEMM may depend.
OpenBLAS = collections.namedtuple("OpenBLAS", "threads set_threads core")


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


def share(items, work, scratch=lambda: None):
    """Call work(item, s) for every item of a sequence, on the calling thread and the helper.

    Both workers (the helper only if `helper` lends it) take items in order
    from one shared iterator: under the GIL each next() hands an item to
    one worker, and NumPy work releases the GIL. `s` is the worker's own
    scratch, made by `scratch()` on the calling thread, since what the
    helper thread allocates stays in its malloc arena. Fewer than two
    items leave the helper free for the item's own steps. A failure or
    interrupt on either worker drains the iterator, so the other takes no
    new item; if both fail, the calling thread's error wins.
    """
    shared = iter(items)

    def run(s):
        try:
            for item in shared:
                work(item, s)
        except BaseException:
            for _ in shared:
                pass
            raise

    with helper() if len(items) >= 2 else contextlib.nullcontext() as pool:
        if pool is None:
            run(scratch())
            return
        mine, theirs = scratch(), scratch()
        other = pool.submit(run, theirs)
        run(mine)
        other.result()


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
    """Threads a call may run on: two if the process has two CPUs per OpenBLAS thread, else one.

    The count is OpenBLAS's own, read when asked, so inside
    `one_blas_thread` two CPUs give two workers whatever the environment
    said. Where no OpenBLAS is found, one. Both workers run GEMMs, and a
    BLAS that may already use every CPU leaves no core for a helper
    thread: on a 2-CPU host at two OpenBLAS threads, a helper made
    `FeatureFrames.at` 5-10% slower and AE training about 12% slower,
    where at one BLAS thread it made them 45% and 25% faster. A helper
    thread also keeps its own malloc arena after the call, which adds to
    the process's peak RSS, so a process has one helper at most (`helper`).
    """
    blas = openblas()
    if blas is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 * blas.threads() else 1


@contextlib.contextmanager
def one_blas_thread():
    """Hold NumPy's OpenBLAS at one thread for the block; where none is found, do nothing.

    The count is process-wide, so while any block holds it every thread's
    GEMMs run on one BLAS thread. The first holder sets it, and the last
    to leave restores the count it found, so blocks nest and threads may
    hold it at once. `run_song`, `run_batch` and `compute_feature` hold it
    before they ask for the helper, so no barseg helper thread runs while
    the count changes, and their bytes and speed do not depend on the
    environment's BLAS setting.
    """
    global _holders, _restore
    blas = openblas()
    if blas is None:
        yield
        return
    with _hold:
        if _holders == 0:
            _restore = blas.threads()
            blas.set_threads(1)
        _holders += 1
    try:
        yield
    finally:
        with _hold:
            _holders -= 1
            if _holders == 0:
                blas.set_threads(_restore)


@functools.cache
def openblas():
    """NumPy's OpenBLAS as an `OpenBLAS`, or None if none is loaded.

    Found once, at the first call, in the libraries this process has
    mapped, so `import barseg` neither reads the map nor loads ctypes.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for suffix in ("64_", ""):
            get, put, core = (getattr(dll, f"scipy_openblas_{name}{suffix}", None)
                              for name in ("get_num_threads", "set_num_threads", "get_corename"))
            if None not in (get, put, core):
                get.restype, put.argtypes, core.restype = ctypes.c_int, [ctypes.c_int], ctypes.c_char_p
                return OpenBLAS(get, put, core().decode())
    return None
