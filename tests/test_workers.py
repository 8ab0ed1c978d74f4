import os
import subprocess
import sys
import threading

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
