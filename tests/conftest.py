import os

import numpy as np
import pytest

from goldpoly import arith

LONG_MODE = os.environ.get("GOLDPOLY_LONG", "") not in ("", "0")

requires_long = pytest.mark.skipif(
    not LONG_MODE, reason="extended sweep; set GOLDPOLY_LONG=1 to run")


def multiset_distance(a: np.ndarray, b: np.ndarray, chunk: int = 256) -> float:
    """Max over points of the distance to the nearest point of the other set."""
    worst = 0.0
    for x, y in ((a, b), (b, a)):
        for i0 in range(0, len(x), chunk):
            d = np.abs(x[i0:i0 + chunk, None] - y[None, :]).min(axis=1)
            worst = max(worst, float(d.max()))
    return worst


@pytest.fixture(scope="session")
def table():
    """Covers every default-suite bound: pair counts to 2e5, a(2m) to m=1e5."""
    return arith.PrimeTable(220_000)


@pytest.fixture(scope="session")
def pair_counts(table):
    return arith.goldbach_count_table(200_000, table)


@pytest.fixture(scope="session")
def small_table():
    return arith.PrimeTable(4_000)
