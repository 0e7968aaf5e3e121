"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; extended ranges need GOLDPOLY_LONG=1."""

import math
import time

import numpy as np
import pytest

from goldpoly import arith, factor, goldbach, roots
from goldpoly.goldbach import goldbach_polynomial
from goldpoly.poly import (
    IntPolynomial,
    cyclotomic,
    divrem_exact,
    multiply,
    substitute_negate,
)

from conftest import (
    even_part,
    multiset_distance,
    numeric_roots,
    requires_long,
    solved_cofactor,
)
from oracles import (
    coefficient_by_formula,
    coefficient_table_by_formula,
    omega_sieve,
    pair_count_trend,
    series_weight,
    stable_coefficient_by_scalar_counts,
    tau_sieve,
    weighted_divisor_sum,
)
from reference_fixtures import ROOT_TABLE, quotient_polynomial

_classified: dict[int, roots.RootClassification] = {}


def _report(num: str, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} ({name}): {status}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed {detail}"


# -- criterion 1: exact quotient reproduction -------------------------------

def test_c1_reference_quotients(table):
    start = time.perf_counter()
    ok = True
    for N in (6, 8, 10):
        F = goldbach_polynomial(N, table)
        q, r = divrem_exact(F, cyclotomic(2 * N))
        ok = ok and r.is_zero and q == quotient_polynomial((N, "2N"))
    for N in (7, 9, 11):
        F = goldbach_polynomial(N, table)
        q, r = divrem_exact(F, multiply(cyclotomic(N), cyclotomic(2 * N)))
        ok = ok and r.is_zero and q == quotient_polynomial((N, "N,2N"))
    elapsed = time.perf_counter() - start
    _report("1", "reference quotients", ok and elapsed < 1.0,
            f"{elapsed:.2f}s, budget 1s")


# -- criterion 2: root-location table ----------------------------------------

def _check_rows(table, n_lo, n_hi):
    mismatches = []
    for N in range(n_lo, n_hi + 1):
        rc = roots.classify_roots(N, table)
        _classified[N] = rc
        two_phi, inside, on, outside = ROOT_TABLE[N]
        got = (rc.inside, rc.on_circle, rc.outside)
        if got != (inside, on, outside) or rc.undetermined:
            mismatches.append((N, got))
        if rc.on_circle != 2 * arith.euler_phi(N):
            mismatches.append((N, "on != 2*phi(N)"))
    return mismatches


def test_c2_root_table_default(table):
    start = time.perf_counter()
    mismatches = _check_rows(table, 6, 20)
    elapsed = time.perf_counter() - start
    _report("2", "root table 6..20", not mismatches and elapsed < 120.0,
            f"{elapsed:.1f}s, budget 120s; mismatches={mismatches}")


@requires_long
def test_c2_root_table_long(table):
    start = time.perf_counter()
    mismatches = _check_rows(table, 21, 50)
    elapsed = time.perf_counter() - start
    _report("2-long", "root table 21..50", not mismatches,
            f"{elapsed:.1f}s; mismatches={mismatches}")


# -- criterion 3: theorem suite to N=120 -------------------------------------

def test_c3_theorem_suite(table):
    start = time.perf_counter()
    failures = []
    for N in range(2, 121):
        coeffs = goldbach.exponent_spread(N, goldbach.pair_sums(N, table))
        F = IntPolynomial(coeffs.tolist())
        remainders = goldbach.cyclotomic_remainders(N, coeffs)
        counts = arith.goldbach_count_table(N, table)
        rep = goldbach.verify_divisibility(N, counts, remainders)
        if not rep.holds:
            failures.append((N, "divisibility"))
        if substitute_negate(F) != F:
            failures.append((N, "symmetry"))
        bounds = goldbach.root_bounds_report(N, counts, remainders)
        if not bounds.holds:
            failures.append((N, "bounds"))
    elapsed = time.perf_counter() - start
    _report("3", "theorem suite N<=120", not failures and elapsed < 300.0,
            f"{elapsed:.1f}s, budget 300s; failures={failures}")


# -- criterion 4: coefficient oracle equivalence ------------------------------

def test_c4_coefficient_oracle(table):
    start = time.perf_counter()
    ok = True
    for N in range(2, 41):
        F = goldbach_polynomial(N, table)
        via_formula = coefficient_table_by_formula(N, table)
        built = list(F.coeffs) if not F.is_zero else [0]
        ok = ok and via_formula == built
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        m = int(rng.integers(1, 200))
        N = int(rng.integers(max(m, 2), 240))
        if coefficient_by_formula(N, m, table) != \
                stable_coefficient_by_scalar_counts(m, table):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report("4", "coefficient formula vs construction", ok,
            f"{elapsed:.1f}s; N<=40 full + 1000 stabilization pairs")


# -- criterion 5: coefficient lower bounds to m=1e5 ---------------------------

def test_c5_lower_bounds(table, pair_counts):
    start = time.perf_counter()
    limit = 10 ** 5
    coeff = goldbach.stable_coefficient_table(2 * limit, pair_counts)
    ms = np.arange(2, limit + 1)
    a2m = coeff[2 * ms]
    om = omega_sieve(limit, table)[ms]
    unconditional = bool((a2m >= om - (ms % 4 == 2)).all())
    # machine verification of pair existence for every needed 2d
    evens = np.arange(6, 2 * limit + 1, 2)
    verified = bool((pair_counts[evens] >= 1).all())
    ta = tau_sieve(limit)[ms]
    conditional = bool((a2m >= ta - np.where(ms % 2 == 0, 2, 1)).all())
    elapsed = time.perf_counter() - start
    ok = unconditional and verified and conditional and elapsed < 60.0
    _report("5", "a(2m) lower bounds m<=1e5", ok,
            f"{elapsed:.1f}s, budget 60s; unconditional={unconditional} "
            f"verified={verified} conditional={conditional}")


# -- criterion 6: exact identity suite ----------------------------------------

def test_c6_identity_suite(table, pair_counts):
    start = time.perf_counter()
    bad_weight = 0
    for m in range(1, 10 ** 5 + 1):
        lhs = weighted_divisor_sum(m)
        if lhs != m * series_weight(m) or lhs < m:
            bad_weight += 1
    coeff = goldbach.stable_coefficient_table(2 * 10 ** 4,
                                              pair_counts[: 2 * 10 ** 4 + 1])
    partial = np.cumsum(coeff, dtype=np.int64)
    prefix = np.cumsum(pair_counts[: 2 * 10 ** 4 + 1], dtype=np.int64)
    bad_summatory = 0
    for M in range(1, 10 ** 4 + 1):
        direct = int(partial[2 * M])
        ns = np.arange(1, M // 2 + 1, dtype=np.int64)
        pairs_route = int(prefix[2 * M // ns].sum()) if ns.size else 0
        if direct != pairs_route:
            bad_summatory += 1
    bad_cyclo = 0
    for n in range(1, 201):
        prod = IntPolynomial.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = multiply(prod, cyclotomic(d))
        if prod != IntPolynomial((-1,) + (0,) * (n - 1) + (1,)):
            bad_cyclo += 1
    elapsed = time.perf_counter() - start
    ok = bad_weight == 0 and bad_summatory == 0 and bad_cyclo == 0
    _report("6", "identity suite", ok,
            f"{elapsed:.1f}s; weighted-divisor-sum m<=1e5, "
            f"summatory M<=1e4, cyclotomic products n<=200")


# -- criterion 7: asymptotic trends -------------------------------------------

@pytest.fixture(scope="module")
def big_table():
    return arith.PrimeTable(2_200_000)


def test_c7_trend_reports(big_table, table):
    start = time.perf_counter()
    grid = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    a_rows = [goldbach.summatory_report(M, big_table) for M in grid]
    q_rows = pair_count_trend(grid, big_table, include_two=True)
    identities = all(r["identity_ok"] for r in a_rows)
    a_gaps = [abs(r["ratio"] - 1) for r in a_rows]
    q_gaps = [abs(r["ratio"] - 1) for r in q_rows]
    a_monotone = all(x > y for x, y in zip(a_gaps, a_gaps[1:]))
    q_monotone = all(x > y for x, y in zip(q_gaps, q_gaps[1:]))
    summary = goldbach.hl_summary(10 ** 4, 10 ** 5, table)
    elapsed = time.perf_counter() - start
    detail = (
        f"{elapsed:.1f}s; A-ratios "
        + "/".join(f"{r['ratio']:.4f}" for r in a_rows)
        + "; Q-ratios " + "/".join(f"{r['ratio']:.4f}" for r in q_rows)
        + f"; hl median {summary['median_ratio']:.4f} "
        f"in [{summary['median_ratio_low']:.4f}, {summary['median_ratio_high']:.4f}]"
    )
    _report("7", "asymptotic trend direction",
            identities and a_monotone and q_monotone,
            f"identity_ok={identities}; {detail}")


# -- criterion 8: irreducibility evidence --------------------------------------

def test_c8_irreducibility_default(table):
    start = time.perf_counter()
    not_irreducible = []
    for N in range(6, 31):
        cert = factor.certify_goldbach_quotient(N, table)
        if cert.verdict != "Irreducible":
            not_irreducible.append((N, cert.verdict))
    elapsed = time.perf_counter() - start
    _report("8", "quotients irreducible 6..30",
            not not_irreducible and elapsed < 600.0,
            f"{elapsed:.1f}s, budget 600s; exceptions={not_irreducible}")


def test_c8_soundness_products(table):
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    done = 0
    falsely_certified = 0
    while done < 200:
        a = IntPolynomial(rng.integers(-9, 10, int(rng.integers(2, 9))).tolist())
        b = IntPolynomial(rng.integers(-9, 10, int(rng.integers(2, 9))).tolist())
        if a.degree < 1 or b.degree < 1:
            continue
        prod = multiply(a, b).primitive_part()
        if prod.degree < 2:
            continue
        done += 1
        if factor.certify_irreducible(prod, max_primes=3).verdict == "Irreducible":
            falsely_certified += 1
    # even polynomials q(z) = g(z^2) through the half-degree lift: mirror
    # products h(z)h(-z), whose half g has a square norm and is usually
    # irreducible, and g(z^2) with g a product
    rng = np.random.default_rng(98)
    even_done = 0
    halves_irreducible = 0
    while even_done < 200:
        a = IntPolynomial(rng.integers(-9, 10, int(rng.integers(2, 8))).tolist())
        if a.degree < 1 or a[0] == 0:
            continue
        if even_done % 2 == 0:
            q = multiply(a, substitute_negate(a)).primitive_part()
            if factor.certify_irreducible(
                    even_part(q), max_primes=3).verdict == "Irreducible":
                halves_irreducible += 1
        else:
            b = IntPolynomial(rng.integers(-9, 10, int(rng.integers(2, 6))).tolist())
            if b.degree < 1:
                continue
            g = multiply(a, b).primitive_part()
            q = IntPolynomial(tuple(c for x in g.coeffs for c in (x, 0))[:-1])
        even_done += 1
        if factor.certify_even(even_part(q),
                               max_primes=3).verdict == "Irreducible":
            falsely_certified += 1
    elapsed = time.perf_counter() - start
    _report("8b", "soundness on 200 products and 200 even products",
            falsely_certified == 0 and halves_irreducible >= 50,
            f"{elapsed:.1f}s; falsely_certified={falsely_certified}, "
            f"irreducible mirror halves={halves_irreducible}/100")


@requires_long
def test_c8_irreducibility_long(table):
    start = time.perf_counter()
    not_irreducible = []
    for N in range(31, 51):
        cert = factor.certify_goldbach_quotient(N, table)
        if cert.verdict != "Irreducible":
            not_irreducible.append((N, cert.verdict))
    elapsed = time.perf_counter() - start
    _report("8-long", "quotients irreducible 31..50", not not_irreducible,
            f"{elapsed:.1f}s; exceptions={not_irreducible}")


# -- criterion 9: numerics hygiene ---------------------------------------------

def test_c9_numerics_hygiene(table):
    if not _classified:  # direct invocation without criterion 2
        for N in range(6, 13):
            _classified[N] = roots.classify_roots(N, table)
    # the residual and closures are those of the Aberth solve that
    # classify_roots falls back to where its count declines and the strip
    # divides nothing off, made here on the same cofactor and seed; no N
    # here takes that fallback
    start = time.perf_counter()
    bad = []
    for N, rc in sorted(_classified.items()):
        max_residual = solved_cofactor(N, table).max_residual
        if max_residual >= 1e-8:
            bad.append((N, "residual", max_residual))
        if (rc.inside + rc.on_circle + rc.outside + rc.undetermined
                != goldbach_polynomial(N, table).degree):
            bad.append((N, "count conservation"))
        pts = numeric_roots(N, table)
        if len(pts):
            if multiset_distance(pts, np.conj(pts)) > 1e-6:
                bad.append((N, "conjugation closure"))
            if multiset_distance(pts, -pts) > 1e-6:
                bad.append((N, "negation closure"))
    elapsed = time.perf_counter() - start
    _report("9", "numerics hygiene", not bad,
            f"{elapsed:.1f}s over {len(_classified)} classifications; bad={bad}")
