"""Shared fixtures."""

import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(fn) calls fn() and returns the peak of the memory
    tracemalloc traced during the call, in bytes. numpy's array data is
    traced; the buffers LAPACK wrappers allocate internally are not."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def forbid_solves(monkeypatch):
    """Call forbid_solves() to fail the test on any np.linalg.eigvalsh or
    eigh call; forbid_solves(2) lets calls through on at most 2 matrices in
    all, counting each matrix of a stacked call, such as the 2 corner
    fibers of exact_bands."""

    def forbid(allowed=0):
        left = [allowed]

        def guard(solve):
            def guarded(a, *args, **kwargs):
                left[0] -= int(np.prod(np.shape(a)[:-2]))
                if left[0] < 0:
                    pytest.fail(
                        f"{solve.__name__} on shape {np.shape(a)} beyond the "
                        f"{allowed} matrices allowed"
                    )
                return solve(a, *args, **kwargs)

            return guarded

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, guard(getattr(np.linalg, name)))

    return forbid


@pytest.fixture
def solve_dtypes(monkeypatch):
    """The dtype of the matrix stack passed to each np.linalg.eigvalsh or eigh
    call, in call order."""
    seen = []

    def record(solve):
        def recorded(a, *args, **kwargs):
            seen.append(np.asarray(a).dtype)
            return solve(a, *args, **kwargs)

        return recorded

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, record(getattr(np.linalg, name)))
    return seen
