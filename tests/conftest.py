import tracemalloc

import numpy as np
import pytest

from gridtopo.grid import GridGraph, Line
from gridtopo.sampler import InjectionStatistics


@pytest.fixture
def two_bus():
    """Single line (r=0, x=1) from the reference: the composite Laplacian
    is the 2x2 swap matrix."""
    return GridGraph(buses=("0", "1"), reference="0", lines=(Line("0", "1", 0.0, 1.0),))


@pytest.fixture
def ill_conditioned3():
    """Reference - a - b with a near-short a-r line (r = x = 1e-8) and a
    near-open a-b line (r = x = 1e7): the composite Laplacian's condition
    number is 1.0e15, beyond ``COND_LIMIT``."""
    return GridGraph(
        buses=("r", "a", "b"),
        reference="r",
        lines=(Line("a", "r", 1e-8, 1e-8), Line("a", "b", 1e7, 1e7)),
    )


@pytest.fixture
def path3():
    """Reference - bus1 - bus2 chain, all lines (r=0, x=1)."""
    return GridGraph(
        buses=("0", "1", "2"),
        reference="0",
        lines=(Line("0", "1", 0.0, 1.0), Line("1", "2", 0.0, 1.0)),
    )


def random_stats(n: int, seed: int, correlated_pq: bool = True) -> InjectionStatistics:
    """Per-bus variances in [0.5, 2], optional p-q correlation keeping the
    per-bus blocks positive definite."""
    rng = np.random.default_rng(seed)
    pp = rng.uniform(0.5, 2.0, n)
    qq = rng.uniform(0.5, 2.0, n)
    if correlated_pq:
        rho = rng.uniform(-0.9, 0.9, n)
        pq = rho * np.sqrt(pp * qq)
    else:
        pq = np.zeros(n)
    return InjectionStatistics(sigma_pp=pp, sigma_qq=qq, sigma_pq=pq)


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while ``fn(*args)`` runs, above what was held
    at the call; numpy reports its array buffers to tracemalloc."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not was_tracing:
            tracemalloc.stop()
