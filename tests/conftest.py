import os

import numpy as np
import pytest

from goldpoly import arith, roots
from goldpoly.goldbach import goldbach_polynomial

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


def solved_cofactor(N: int, table, seed: int = 0):
    """The Aberth solve ``roots.classify_roots(N, table, seed=seed)`` makes
    when no disc overlaps: that of the cofactor of g, where
    F_N(z) = g(z**2), at the same seed."""
    strip = roots.strip_unit_circle_part(
        goldbach_polynomial(N, table).even_part())
    return roots.aberth_solve(strip.cofactor, seed=seed)


def numeric_roots(N: int, table, seed: int = 0) -> np.ndarray:
    """The roots +-sqrt(w) in the z plane of F_N from ``solved_cofactor``."""
    sq = np.sqrt(solved_cofactor(N, table, seed).roots)
    return np.concatenate([sq, -sq])


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
