import os
import subprocess
import sys
import threading
import time

import pytest

from barseg import workers

SRC_DIR = os.path.dirname(os.path.dirname(workers.__file__))


@pytest.mark.parametrize("n, size, expected", [
    (0, 8, []),
    (5, 8, [(0, 5)]),
    (16, 8, [(0, 8), (8, 16)]),
    (33, 8, [(0, 8), (8, 16), (16, 24), (24, 33)]),
    (300, 256, [(0, 300)]),
])
def test_spans_merge_a_short_tail(n, size, expected):
    assert list(workers.spans(n, size)) == expected


class FakeBLAS:
    """An OpenBLAS thread count behind the (get, set) pair `workers._openblas` gives; records each set."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def get(self):
        return self.threads

    def put(self, n):
        self.sets.append(n)
        self.threads = n


@pytest.fixture
def fake_blas(monkeypatch):
    """Returns a function that installs a FakeBLAS of n threads, or no OpenBLAS for None."""
    def install(threads):
        blas = None if threads is None else FakeBLAS(threads)
        monkeypatch.setattr(workers, "_openblas", lambda: blas and (blas.get, blas.put))
        return blas
    return install


@pytest.mark.parametrize("cpus, threads, expected", [
    (2, 1, 2),
    (2, 2, 1),
    (1, 1, 1),
    (8, 4, 2),
    (8, 5, 1),
    (8, 8, 1),
    (2, None, 1),  # no OpenBLAS found
    (8, None, 1),
])
def test_worker_count_reads_the_live_openblas_count(monkeypatch, fake_blas, cpus, threads, expected):
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the live count decides, not the environment
    fake_blas(threads)
    assert workers.worker_count() == expected


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("cpus, env, expected", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (2, {"OMP_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "many"}, 1),
    (2, {}, 1),  # OpenBLAS then runs one thread per CPU
])
def test_a_helper_thread_needs_a_cpu_beside_blas(cpus, env, expected):
    # A fresh process on `cpus` CPUs, whose OpenBLAS reads `env` when NumPy loads it.
    if len(os.sched_getaffinity(0)) < cpus:
        pytest.skip(f"needs {cpus} CPUs")
    code = (f"import os; os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{cpus}]); "
            "import numpy, barseg.workers as w; print(w._openblas() is not None, w.worker_count())")
    base = {name: value for name, value in os.environ.items() if name not in BLAS_VARIABLES}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, **env, "PYTHONPATH": SRC_DIR})
    assert done.returncode == 0, done.stderr
    found, count = done.stdout.split()
    if found != "True":
        pytest.skip("no OpenBLAS found")
    assert int(count) == expected


def test_one_blas_thread_nests_with_one_set_and_one_restore(fake_blas):
    blas = fake_blas(2)
    with workers.one_blas_thread():
        assert blas.threads == 1
        with workers.one_blas_thread():
            assert blas.threads == 1
        assert blas.threads == 1
    assert blas.sets == [1, 2]
    with pytest.raises(RuntimeError, match="block failed"):
        with workers.one_blas_thread():
            raise RuntimeError("block failed")
    assert blas.sets == [1, 2, 1, 2]


def test_two_threads_hold_one_blas_thread_at_once(fake_blas):
    blas = fake_blas(4)
    entered, leave = threading.Event(), threading.Event()

    def hold():
        with workers.one_blas_thread():
            entered.set()
            leave.wait(timeout=30)

    other = threading.Thread(target=hold)
    other.start()
    assert entered.wait(timeout=30)
    with workers.one_blas_thread():
        assert blas.threads == 1
    assert blas.threads == 1  # the other thread still holds it
    leave.set()
    other.join()
    assert blas.sets == [1, 4]


def test_without_openblas_one_blas_thread_leaves_blas_alone(fake_blas):
    fake_blas(None)
    with workers.one_blas_thread():
        assert workers.worker_count() == 1


def test_one_blas_thread_holds_numpys_openblas(set_blas_threads):
    get, _ = workers._openblas()
    set_blas_threads(2)
    with workers.one_blas_thread():
        assert get() == 1
    assert get() == 2


def test_import_barseg_looks_for_no_openblas():
    code = "import barseg, barseg.workers as w; print(w._openblas.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC_DIR}).stdout
    assert out.split() == ["0"]


def test_one_helper_per_process(monkeypatch):
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    with workers.helper() as pool:
        assert pool is not None
        with workers.helper() as inner:
            assert inner is None  # the slot is held
        assert pool.submit(threading.current_thread).result() is not threading.current_thread()
    with workers.helper() as pool:
        assert pool is not None  # leaving the block released the slot
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    with workers.helper() as pool:
        assert pool is None


def test_a_helper_block_that_submits_nothing_starts_no_thread(monkeypatch):
    def no_thread(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    with workers.helper() as pool:
        assert pool is not None


def test_a_failing_block_releases_the_helper(monkeypatch):
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    with pytest.raises(RuntimeError, match="block failed"):
        with workers.helper():
            raise RuntimeError("block failed")
    with workers.helper() as pool:
        assert pool is not None


@pytest.mark.parametrize("count", [2, 1])
def test_share_runs_every_item_once(monkeypatch, count):
    monkeypatch.setattr(workers, "worker_count", lambda: count)
    caller = threading.current_thread()
    done, scratches = [], []

    def scratch():
        scratches.append(threading.current_thread())
        return len(scratches)

    def work(item, s):
        if item % 100 == 0:
            time.sleep(0.001)  # lets the other worker take items too
        done.append((item, threading.current_thread(), s))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch between any two bytecodes
    try:
        workers.share(list(range(2000)), work, scratch)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(item for item, _, _ in done) == list(range(2000))
    assert scratches == [caller] * count
    # Each worker has its own scratch; the caller's is the first made.
    assert all(s == (1 if thread is caller else 2) for _, thread, s in done)


@pytest.mark.parametrize("count", [2, 1])
@pytest.mark.parametrize("n_items", [0, 1])
def test_share_of_fewer_than_two_items_leaves_the_helper_free(monkeypatch, count, n_items):
    monkeypatch.setattr(workers, "worker_count", lambda: count)
    scratches, slot_held = [], []
    workers.share(list(range(n_items)), lambda item, s: slot_held.append(workers._helper_slot.locked()),
                  lambda: scratches.append(threading.current_thread()))
    assert slot_held == [False] * n_items
    assert scratches == [threading.current_thread()]


@pytest.mark.parametrize("failing", [("helper",), ("caller", "helper")])
def test_share_raises_the_callers_error_first(monkeypatch, failing):
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    caller = threading.current_thread()
    holds = {"caller": threading.Event(), "helper": threading.Event()}
    failed, after_failure = threading.Event(), []

    def work(item, s):
        on = "caller" if threading.current_thread() is caller else "helper"
        if failed.is_set():
            after_failure.append(item)
        if holds[on].is_set():
            return
        # Each worker holds its first item until the other holds one too.
        holds[on].set()
        for event in holds.values():
            event.wait(timeout=30)
        if on in failing:
            failed.set()
            raise RuntimeError(f"item failed on the {on}")
        failed.wait(timeout=30)
        time.sleep(0.2)  # the failing worker drains the iterator meanwhile

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"item failed on the {failing[0]}"):
        workers.share(list(range(20)), work)
    assert all(event.is_set() for event in holds.values())
    assert after_failure == []
    assert threading.active_count() == before


def test_share_on_one_worker_stops_at_the_failing_item(monkeypatch):
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    done = []

    def work(item, s):
        done.append(item)
        if item == 3:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        workers.share(list(range(10)), work)
    assert done == [0, 1, 2, 3]
