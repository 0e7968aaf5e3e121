import os

import numpy as np
import pytest

from goldpoly import arith, goldbach, roots
from goldpoly.goldbach import goldbach_cofactor
from goldpoly.poly import IntPolynomial

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
    """The Aberth solve of g / Phi_N, where F_N(z) = g(z**2)
    (``goldbach_cofactor``), at the seed given: the one solve that
    ``roots.classify_roots(N, table)`` makes on its fallback, at seed N,
    when the argument-principle count declines and the unit-circle strip
    divides nothing off.  Of the g_N to N = 200 only N = 183 takes that
    fallback, so this checks the fallback solver, not the path
    ``classify_roots`` runs.  The solve returns whether or not it
    converged; a point still far from a root gets a wide disc, which
    leaves its root undetermined; a caller that needs converged points checks
    ``max_residual``."""
    return roots.aberth_solve(goldbach_cofactor(N, table), seed=seed)


def even_part(F: IntPolynomial) -> IntPolynomial:
    """g with g(z**2) == F: F's even coefficients, asserting that its odd
    ones vanish."""
    assert not any(F.coeffs[1::2]), F
    return IntPolynomial(F.coeffs[0::2])


def break_divisibility(monkeypatch):
    """Patch ``goldbach.pair_sums`` to count one more pair at s = 0, so
    that every spread of it gains 1 per exponent step k < N: g_N becomes
    g_N + N, Phi_N cannot divide it (Phi_N divides g_N and is no
    constant), and ``goldbach_cofactor`` has to raise TheoremViolation."""
    build = goldbach.pair_sums

    def shifted(N, source):
        pairs = build(N, source).copy()
        pairs[0] += 1
        return pairs

    monkeypatch.setattr(goldbach, "pair_sums", shifted)


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
