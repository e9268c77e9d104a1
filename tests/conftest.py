import tracemalloc

import numpy as np
import pytest

from zenodrive import LipkinModel, TwoLevelModel, build_trajectory

START = np.array([0.0, 0.0])
END = np.array([2.0, 0.5])


def traced_peak(fn):
    """Peak bytes ``tracemalloc`` traces while ``fn()`` runs; its result is dropped."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def poisoned_takes(workspace):
    """Fill every buffer ``workspace`` holds with NaN, so a stale read shows."""
    for buffer in workspace.buffers.values():
        buffer[...] = True if buffer.dtype == bool else np.nan


@pytest.fixture(scope="session")
def lipkin10():
    return LipkinModel(10)


@pytest.fixture(scope="session")
def two_level():
    return TwoLevelModel()


@pytest.fixture(scope="session")
def trajectories10(lipkin10):
    """Dense driving trajectories of all three families for the N=10 model.

    Dense enough to discretize up to K = 5000 steps (>= 10 input segments per
    output step).
    """
    return {
        family: build_trajectory(
            lipkin10, family, START, END, dense_steps=50000, geodesic_steps=256
        )
        for family in ("geodesic", "linear-v", "linear-u")
    }
