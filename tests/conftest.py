"""Fixtures and helpers shared by the test modules."""

import tracemalloc

import pytest

from barseg import workers


@pytest.fixture
def one_blas_thread():
    """Run the test with NumPy's OpenBLAS at one thread (`workers.one_blas_thread`).

    A threaded GEMM splits its columns among threads at points that depend
    on its width, so one wide GEMM and several narrow ones round a few
    columns differently. At one thread they agree.
    """
    if workers.openblas() is None:
        pytest.skip("cannot set the OpenBLAS thread count")
    with workers.one_blas_thread():
        yield


@pytest.fixture
def set_blas_threads():
    """A function that sets NumPy's OpenBLAS to n threads, as a caller might; the test's end restores the count."""
    blas = workers.openblas()
    if blas is None:
        pytest.skip("cannot set the OpenBLAS thread count")
    before = blas.threads()

    def set_threads(n):
        blas.set_threads(n)
        if blas.threads() != n:
            pytest.skip(f"OpenBLAS does not run {n} threads here")

    try:
        yield set_threads
    finally:
        blas.set_threads(before)


def traced_peak(fn):
    """The `tracemalloc` peak, in bytes, of the call fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
