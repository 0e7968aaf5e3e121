import math
from fractions import Fraction

import numpy as np
import pytest

from goldpoly import arith, goldbach, modp
from goldpoly.goldbach import (
    IndicatorSet,
    NonConstantRemainderError,
    TheoremViolation,
    goldbach_cofactor,
    goldbach_polynomial,
    theorem_reports,
)
from goldpoly.poly import IntPolynomial, cyclotomic, divrem_exact

from conftest import break_divisibility
from oracles import (
    coefficient_by_formula,
    coefficient_table_by_formula,
    goldbach_count,
    goldbach_polynomial_by_pairs,
    hl_summary_by_fractions,
    liouville,
    omega,
    pair_count_trend,
    prime_pair_count,
    product,
    root_bound_by_scalar_counts,
    series_weight,
    stable_coefficient_by_scalar_counts,
    stable_coefficient_table_by_divisor_sweep,
    tau,
    theorem_reports_from_polynomial,
)
from reference_fixtures import QUOTIENTS, quotient_polynomial


class TestConstruction:
    def test_empty_support_gives_zero(self, small_table):
        assert goldbach_polynomial(2, small_table).is_zero
        assert goldbach_polynomial(3, small_table).is_zero

    def test_rejects_n_below_two(self, small_table):
        with pytest.raises(ValueError):
            goldbach_polynomial(1, small_table)

    def test_degree_and_edges(self, small_table):
        F6 = goldbach_polynomial(6, small_table)
        assert F6.degree == 50
        assert F6[0] == 4
        assert sum(F6.coeffs) == 24

    def test_constant_term_is_squared_prime_count(self, small_table):
        F10 = goldbach_polynomial(10, small_table)
        assert F10[0] == len(small_table.odd_primes_upto(9)) ** 2 == 9

    def test_quotient_matches_reference(self, small_table):
        F6 = goldbach_polynomial(6, small_table)
        q, r = divrem_exact(F6, cyclotomic(12))
        assert r.is_zero
        assert q == quotient_polynomial((6, "2N"))

    def test_explicit_small_case(self, small_table):
        # N=4: only 3 is an odd prime below 4, so F_4 = sum_k z^(6k)
        F4 = goldbach_polynomial(4, small_table)
        assert F4 == IntPolynomial((1,) + (0,) * 5 + (1,) + (0,) * 5 + (1,)
                                   + (0,) * 5 + (1,))

    @pytest.mark.parametrize("indicator", ["odd_primes", "liouville"])
    def test_matches_pair_sum_oracle(self, small_table, indicator):
        source = small_table if indicator == "odd_primes" else \
            IndicatorSet.liouville_negative(small_table.limit, small_table)
        for N in range(2, 81):
            expected = goldbach_polynomial_by_pairs(N, source)
            coeffs = goldbach.exponent_spread(N, goldbach.pair_sums(N, source))
            assert coeffs.dtype == np.int64
            assert coeffs.tolist() == list(expected.coeffs), N
            assert goldbach_polynomial(N, source) == expected

    def test_even_exponents_only(self, small_table):
        for N in range(2, 51):
            assert not any(goldbach_polynomial(N, small_table).coeffs[1::2])


class TestCoefficientFormula:
    def test_matches_construction_small(self, small_table):
        for N in (4, 6, 9, 12, 14):
            F = goldbach_polynomial(N, small_table)
            via_formula = coefficient_table_by_formula(N, small_table)
            assert via_formula == list(F.coeffs) or (
                F.is_zero and via_formula == [0])
            for m in range(1, F.degree + 1):
                assert coefficient_by_formula(N, m, small_table) == F[m]

    def test_odd_exponents_vanish(self, small_table):
        for m in range(1, 60, 2):
            assert coefficient_by_formula(30, m, small_table) == 0

    def test_range_errors(self, small_table):
        with pytest.raises(ValueError):
            coefficient_by_formula(6, 0, small_table)
        with pytest.raises(ValueError):
            coefficient_by_formula(6, 2 * 25 + 1, small_table)

    def test_specific_zero_coefficient(self, small_table):
        # reconstruct F_6 from the reference quotient and read off z^4
        F6 = product(quotient_polynomial((6, "2N")), cyclotomic(12))
        assert F6[4] == 0
        assert coefficient_by_formula(6, 4, small_table) == 0

    def test_stabilization(self, small_table):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 40))
            lo = max(m, 2)
            n1, n2 = int(rng.integers(lo, 60)), int(rng.integers(lo, 60))
            assert coefficient_by_formula(n1, m, small_table) == \
                coefficient_by_formula(n2, m, small_table) == \
                stable_coefficient_by_scalar_counts(m, small_table)


def coefficient_table(limit, table):
    """a(m) for m <= limit by the sieve, over the pair counts to limit."""
    return goldbach.stable_coefficient_table(
        limit, arith.goldbach_count_table(limit, table))


class TestStableCoefficients:
    def test_odd_values_vanish(self, small_table):
        tab = coefficient_table(200, small_table)
        for m in range(1, 200, 2):
            assert tab[m] == stable_coefficient_by_scalar_counts(
                m, small_table) == 0

    def test_small_values(self, small_table):
        tab = coefficient_table(30, small_table)
        assert tab[6] == stable_coefficient_by_scalar_counts(
            6, small_table) == 1  # R(2)+R(6)
        assert tab[30] == stable_coefficient_by_scalar_counts(
            30, small_table) == 10  # 0+1+3+6

    def test_table_matches_scalar(self, small_table):
        tab = coefficient_table(300, small_table)
        for m in range(1, 301):
            assert tab[m] == stable_coefficient_by_scalar_counts(m, small_table)

    def test_table_matches_divisor_sweep_every_small_limit(self, small_table):
        counts = arith.goldbach_count_table(400, small_table)
        for limit in range(401):
            assert np.array_equal(
                goldbach.stable_coefficient_table(limit, counts),
                stable_coefficient_table_by_divisor_sweep(limit, small_table,
                                                          counts)), limit

    @pytest.mark.parametrize("limit", [35, 36, 37, 9999, 10 ** 4, 10 ** 4 + 1,
                                       2 * 10 ** 5])
    def test_table_matches_divisor_sweep_near_squares(self, table, limit):
        # the sieve splits at isqrt(limit): squares and their neighbours
        assert np.array_equal(
            coefficient_table(limit, table),
            stable_coefficient_table_by_divisor_sweep(limit, table))


class TestDivisibility:
    def test_N6(self, small_table):
        rep = theorem_reports(6, small_table)[0]
        assert rep.holds
        assert rep.witness["divides"][12] is True
        assert rep.witness["divides"][6] is False

    def test_N7_odd_divisibility(self, small_table):
        F7 = goldbach_polynomial(7, small_table)
        assert divrem_exact(F7, cyclotomic(7))[1].is_zero
        assert divrem_exact(F7, cyclotomic(14))[1].is_zero

    def test_N4_edge(self, small_table):
        rep = theorem_reports(4, small_table)[0]
        assert rep.holds
        assert rep.witness["divides"][4] is True  # no pairs for 4

    def test_range_holds(self, small_table):
        for N in range(2, 41):
            assert theorem_reports(N, small_table)[0].holds

    def test_reports_match_full_polynomial_oracle(self, small_table):
        for N in range(2, 121):
            assert theorem_reports(N, small_table) == \
                theorem_reports_from_polynomial(N, small_table), N

    def test_large_n_reports_never_pack(self, monkeypatch):
        # the remainders' hints loosen with N (|q| <= k |fold| max|Psi_M|);
        # convolve must scan rather than hand such products to the packer
        packed = []
        kronecker = modp._kronecker

        def counted(a, b):
            packed.append((len(a), len(b)))
            return kronecker(a, b)

        monkeypatch.setattr(modp, "_kronecker", counted)
        table = arith.PrimeTable(2310)
        for N in (1000, 1260, 1500, 2000, 2310):
            assert all(rep.holds for rep in theorem_reports(N, table)), N
        assert packed == []

    def test_symmetry_reports(self, small_table):
        for N in (2, 6, 13, 30):
            rep = goldbach.symmetry_report(
                N, goldbach.pair_sums(N, small_table))
            assert rep.holds and rep.witness["support_even"]

    def test_symmetry_matches_odd_exponents(self, small_table):
        # the Liouville set has elements of both parities
        liouville_set = IndicatorSet.liouville_negative(small_table.limit,
                                                        small_table)
        verdicts = set()
        for source in (small_table, liouville_set):
            for N in range(2, 61):
                pairs = goldbach.pair_sums(N, source)
                rep = goldbach.symmetry_report(N, pairs)
                coeffs = goldbach.exponent_spread(N, pairs)
                assert rep.holds == (not coeffs[1::2].any()), N
                verdicts.add(rep.holds)
        assert verdicts == {True, False}


class TestPairSums:
    @pytest.mark.parametrize("indicator", ["odd_primes", "liouville"])
    def test_fold_matches_folded_coefficients(self, small_table, indicator):
        source = small_table if indicator == "odd_primes" else \
            IndicatorSet.liouville_negative(small_table.limit, small_table)
        for N in range(2, 121):
            pairs = goldbach.pair_sums(N, source)
            coeffs = goldbach.exponent_spread(N, pairs)
            period = 2 * N
            padded = np.zeros(-(-len(coeffs) // period) * period, dtype=np.int64)
            padded[: len(coeffs)] = coeffs
            fold = goldbach.exponent_spread(N, pairs, period)
            assert fold.dtype == np.int64
            assert fold.tolist() == \
                padded.reshape(-1, period).sum(axis=0).tolist(), N

    def test_head_is_the_pair_count_table(self, small_table):
        for N in range(2, 121):
            pairs = goldbach.pair_sums(N, small_table)
            head = np.zeros(N + 1, dtype=np.int64)
            head[: min(len(pairs), N + 1)] = pairs[: N + 1]
            assert head.tolist() == \
                arith.goldbach_count_table(N, small_table).tolist(), N

    def test_empty_support(self, small_table):
        for N in (2, 3):
            pairs = goldbach.pair_sums(N, small_table)
            assert len(pairs) == 0
            assert goldbach.exponent_spread(N, pairs).tolist() == []
            assert goldbach.exponent_spread(N, pairs, 2 * N).tolist() == \
                [0] * (2 * N)

    def test_rejects_n_below_two(self, small_table):
        with pytest.raises(ValueError):
            goldbach.pair_sums(1, small_table)

    def test_fold_guards_float64_exactness(self):
        # F_N(1) = N * |S|**2 = 2**53: bincount's float64 sums could round,
        # whole or folded
        for N, pairs in ((2 ** 51, [0, 0, 4]), (4, [0, 0, 2 ** 51])):
            for period in (None, 2 * N):
                with pytest.raises(ValueError, match="2\\^53"):
                    goldbach.exponent_spread(N, np.array(pairs), period)
        # just below it: F_4(1) = 2**53 - 4
        t = 2 ** 51 - 1
        assert goldbach.exponent_spread(4, np.array([0, 0, t])).tolist() == \
            [t, 0, t, 0, t, 0, t]
        assert goldbach.exponent_spread(4, np.array([0, 0, t]), 8).tolist() \
            == [t, 0, t, 0, t, 0, t, 0]


class TestRootOfUnityValues:
    def test_fixed_values_at_six(self, small_table):
        per_divisor = theorem_reports(6, small_table)[2].witness["per_divisor"]
        assert {M: entry["value"] for M, entry in per_divisor.items()} == \
            {1: 24, 2: 24, 3: 6, 6: 6}

    def test_nonconstant_remainder_raises(self, small_table):
        # F mod Phi_3 = z is no constant value at the primitive cube roots
        counts = arith.goldbach_count_table(3, small_table)
        remainders = {1: IntPolynomial((5,)), 3: IntPolynomial((0, 1))}
        with pytest.raises(NonConstantRemainderError):
            goldbach.root_bounds_report(3, counts, remainders)
        assert issubclass(NonConstantRemainderError, TheoremViolation)

    def test_bounds_hold_to_forty(self, small_table):
        for N in range(2, 41):
            assert theorem_reports(N, small_table)[2].holds

    def test_bounds_match_scalar_sums(self, small_table):
        for N in range(2, 81):
            remainders = goldbach.cyclotomic_remainders(
                N, goldbach.exponent_spread(N, goldbach.pair_sums(N, small_table)))
            counts = arith.goldbach_count_table(N, small_table)
            rep = goldbach.root_bounds_report(N, counts, remainders)
            assert rep == theorem_reports(N, small_table)[2]
            assert rep.witness["pair_count"] == goldbach_count(N, small_table)
            for M, entry in rep.witness["per_divisor"].items():
                if N > 4:
                    assert entry["bound"] == root_bound_by_scalar_counts(
                        N, M, small_table)
                else:
                    assert "bound" not in entry

    def test_longer_table_gives_same_reports(self, small_table):
        # R(n) for n > N must not reach any bound
        for N in range(2, 61):
            remainders = goldbach.cyclotomic_remainders(
                N, goldbach.exponent_spread(N, goldbach.pair_sums(N, small_table)))
            exact = arith.goldbach_count_table(N, small_table)
            longer = arith.goldbach_count_table(2 * N, small_table)
            for report in (goldbach.verify_divisibility,
                           goldbach.root_bounds_report):
                assert report(N, longer, remainders) == \
                    report(N, exact, remainders)


class TestGoldbachCofactor:
    def test_times_phi_n_gives_the_even_part(self, small_table):
        # built from the even pair sums alone, without F_N
        for N in range(6, 61):
            F = goldbach_polynomial(N, small_table)
            assert product(goldbach_cofactor(N, small_table),
                           cyclotomic(N)).coeffs == F.coeffs[0::2], N

    def test_inexact_division_raises(self, small_table, monkeypatch):
        break_divisibility(monkeypatch)
        with pytest.raises(TheoremViolation, match="Phi_9 does not divide"):
            goldbach_cofactor(9, small_table)

    def test_rejects_small_N(self, small_table):
        with pytest.raises(ValueError):
            goldbach_cofactor(5, small_table)


class TestLowerBounds:
    """a(2m) >= omega(m) - [m = 2 mod 4], and a(2m) >= tau(m) - (2 if m even
    else 1) once every divisor d of m outside {1, 2} has R(2d) > 0."""

    def test_m15(self, small_table):
        tab = coefficient_table(30, small_table)
        assert tab[30] == 10
        assert omega(15) == 2
        assert tau(15) - 1 == 3

    def test_m2_boundary(self, small_table):
        tab = coefficient_table(4, small_table)
        assert tab[4] == 0
        assert omega(2) - 1 == 0

    def test_prime_m_bounds_coincide(self, small_table):
        tab = coefficient_table(62, small_table)
        for m in (3, 5, 11, 31):
            assert omega(m) == tau(m) - 1 == 1 <= tab[2 * m]

    def test_matches_scalar_counts(self, small_table):
        counts = arith.goldbach_count_table(600, small_table)
        tab = goldbach.stable_coefficient_table(600, counts)
        for m in range(2, 301):
            assert tab[2 * m] == \
                stable_coefficient_by_scalar_counts(2 * m, small_table)
            assert tab[2 * m] >= omega(m) - (m % 4 == 2)
            assert all(counts[2 * d] > 0
                       for d in arith.divisors(m) if d not in (1, 2))
            assert tab[2 * m] >= tau(m) - (2 if m % 2 == 0 else 1)


class TestSummatory:
    def test_A3_by_hand(self, small_table):
        # a(2)=a(4)=0, a(6)=1
        counts = arith.goldbach_count_table(6, small_table)
        assert goldbach.summatory(3, counts) == 1
        assert goldbach.summatory_via_pairs(3, counts) == 1

    def test_identity_small_range(self, small_table):
        counts = arith.goldbach_count_table(1200, small_table)
        coeff = goldbach.stable_coefficient_table(1200, counts)
        for M in range(1, 601):
            assert int(coeff[: 2 * M + 1].sum()) == \
                goldbach.summatory_via_pairs(M, counts)

    def test_pair_count_prefix_consistency(self, small_table):
        counts = arith.goldbach_count_table(800, small_table)
        prefix = np.cumsum(counts, dtype=np.int64)
        for x in (10, 100, 333, 800):
            assert prime_pair_count(x, small_table, include_two=False) == prefix[x]

    def test_report_fields(self, small_table):
        rep = goldbach.summatory_report(100, small_table)
        assert rep["identity_ok"]
        assert rep["A"] == rep["A_via_pairs"]
        assert rep["ratio"] > 0

    def test_trend_helpers(self, small_table):
        rows = [goldbach.summatory_report(M, small_table) for M in (100, 1000)]
        assert [r["M"] for r in rows] == [100, 1000]
        assert all(r["identity_ok"] and r["ratio"] > 0 for r in rows)
        qrows = pair_count_trend([100, 1000], small_table)
        assert all(r["ratio"] > 0 for r in qrows)


class TestHardyLittlewood:
    def test_ratio_positive_finite(self, small_table):
        for m in (3, 10, 100, 1024):
            val = goldbach.hl_summary(m, m, small_table)["median_ratio"]
            assert math.isfinite(val) and val > 0

    def test_power_of_two_uses_exact_weight(self, small_table):
        m = 2 ** 7
        a2m = stable_coefficient_by_scalar_counts(2 * m, small_table)
        c2 = arith.twin_prime_constant(small_table.limit, small_table)[0]
        weight = 2 - 1 / 2 ** 7
        expected = a2m * math.log(m) ** 2 / (2 * c2 * weight * m)
        assert goldbach.hl_summary(m, m, small_table)["median_ratio"] == \
            pytest.approx(expected, rel=1e-12)

    def test_summary_interval(self, small_table):
        rep = goldbach.hl_summary(100, 400, small_table)
        assert rep["median_ratio_low"] <= rep["median_ratio"] <= rep["median_ratio_high"]
        assert rep["count"] == 301

    def test_weight_terms_are_exact(self):
        ms = np.arange(1, 2 * 10 ** 4 + 1)
        num, den = goldbach.series_weight_terms(ms, arith.spf_sieve(len(ms)))
        for m, a, b in zip(ms.tolist(), num.tolist(), den.tolist()):
            assert Fraction(a, b) == series_weight(m), m

    @pytest.mark.parametrize("m_lo, m_hi", [(3, 500), (100, 400), (3000, 30000),
                                            (10, 10), (3, 4)])
    def test_summary_matches_fraction_loop(self, table, m_lo, m_hi):
        # equal floats, not approximately equal ones
        assert goldbach.hl_summary(m_lo, m_hi, table) == \
            hl_summary_by_fractions(m_lo, m_hi, table)

    def test_summary_blocks_match_fraction_loop(self, table, monkeypatch):
        # five blocks, the last one short
        monkeypatch.setattr(goldbach, "HL_BLOCK", 1000)
        assert goldbach.hl_summary(100, 4321, table) == \
            hl_summary_by_fractions(100, 4321, table)

    def test_range_guard(self):
        # the guard alone: hl at m-max 2^26 would sieve to 2^27
        goldbach.check_hl_range(3, 2 ** 26)
        for m_lo, m_hi in [(2, 10), (11, 10), (3, 2 ** 26 + 1)]:
            with pytest.raises(ValueError):
                goldbach.check_hl_range(m_lo, m_hi)


class TestIndicators:
    def test_liouville_membership(self, small_table):
        ind = IndicatorSet.liouville_negative(1000, small_table)
        assert ind.support_upto(1000).tolist() == \
            [n for n in range(1, 1001) if liouville(n) == -1]

    def test_liouville_polynomial_differs(self, small_table):
        # 2 is in the Liouville-negative set, so odd exponents appear
        ind = IndicatorSet.liouville_negative(100, small_table)
        F = goldbach_polynomial(8, ind)
        assert any(F.coeffs[1::2])

    def test_liouville_pair_existence(self, table):
        lam = arith.liouville_sieve(10_000, table)
        members = np.nonzero(lam == -1)[0]
        members = members[members >= 1]
        in_set = np.zeros(10_001, dtype=bool)
        in_set[members] = True
        for N in range(4, 10_001, 2):
            assert any(in_set[a] and in_set[N - a]
                       for a in members[members < N]), f"no pair for {N}"


class TestReports:
    def test_json_shape(self, small_table):
        rep = theorem_reports(6, small_table)[0]
        d = rep.to_json_dict()
        assert d["theorem_id"] == "divisibility"
        assert d["N"] == 6 and d["holds"] is True
        assert "witness" in d

    def test_goldbach_range_report(self, small_table):
        # every even n in [6, 2000] is a sum of two odd primes
        counts = arith.goldbach_count_table(2000, small_table)
        assert (counts[6::2] > 0).all()
