"""Fixtures shared by the test modules."""

import ctypes

import pytest


def _openblas_thread_setter():
    """(get, set) for the thread count of NumPy's OpenBLAS, or None if it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for suffix in ("64_", ""):
            get = getattr(dll, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(dll, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


@pytest.fixture
def one_blas_thread():
    """Run the test with NumPy's OpenBLAS at one thread.

    A threaded GEMM splits its columns among threads at points that depend
    on its width, so one wide GEMM and several narrow ones round a few
    columns differently. At one thread they agree.
    """
    setter = _openblas_thread_setter()
    if setter is None:
        pytest.skip("cannot set the OpenBLAS thread count")
    get, put = setter
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
