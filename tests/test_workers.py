import threading

import pytest

from barseg import workers


@pytest.mark.parametrize("n, size, expected", [
    (0, 8, []),
    (5, 8, [(0, 5)]),
    (16, 8, [(0, 8), (8, 16)]),
    (33, 8, [(0, 8), (8, 16), (16, 24), (24, 33)]),
    (300, 256, [(0, 300)]),
])
def test_spans_merge_a_short_tail(n, size, expected):
    assert list(workers.spans(n, size)) == expected


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("cpus, env, expected", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (2, {"OMP_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "many"}, 1),
    (2, {}, 1),  # OpenBLAS then runs one thread per CPU
    (8, {}, 1),
    (8, {"OMP_NUM_THREADS": "4"}, 2),
    (8, {"OMP_NUM_THREADS": "5"}, 1),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
])
def test_a_helper_thread_needs_a_cpu_beside_blas(monkeypatch, cpus, env, expected):
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert workers.worker_count() == expected


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
