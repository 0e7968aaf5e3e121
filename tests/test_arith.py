import math
from fractions import Fraction

import numpy as np
import pytest

from goldpoly import arith
from goldpoly.arith import PrimeTable, SieveRangeError
from goldpoly.goldbach import IndicatorSet

from oracles import (
    big_int_pair_counts,
    decimal_pair_counts,
    goldbach_count,
    liouville,
    omega,
    omega_sieve,
    prime_pair_count,
    series_weight,
    singular_series_factor,
    tau,
    tau_sieve,
    weighted_divisor_sum,
)


def brute_is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def brute_pair_count(N):
    """Ordered pairs of odd primes summing to N, by enumeration."""
    return sum(
        1 for a in range(1, N)
        if a != 2 and brute_is_prime(a)
        and (N - a) != 2 and brute_is_prime(N - a)
    )


class TestSieve:
    def test_small_membership(self):
        assert PrimeTable(10).odd_primes_upto(10).tolist() == [3, 5, 7]

    def test_prefix_counts(self):
        t = PrimeTable(10)
        assert t.primes.tolist() == [2, 3, 5, 7]
        assert [len(t.odd_primes_upto(n)) for n in range(11)] == \
            [0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 3]

    def test_pi_100_against_enumeration(self):
        expected = sum(1 for n in range(2, 101) if brute_is_prime(n))
        assert len(PrimeTable(100).primes) == expected == 25

    def test_membership_matches_enumeration(self):
        t = PrimeTable(2_000)
        brute = [n for n in range(2, 2_001) if brute_is_prime(n)]
        assert t.primes.tolist() == brute
        for n in range(1, 2_001, 37):
            assert t.odd_primes_upto(n).tolist() == \
                [p for p in brute if 2 < p <= n]

    def test_rejects_bad_limits(self):
        with pytest.raises(SieveRangeError):
            PrimeTable(2)
        with pytest.raises(SieveRangeError):
            PrimeTable(arith.MAX_SIEVE_LIMIT + 1)

    def test_out_of_range_queries(self):
        t = PrimeTable(100)
        with pytest.raises(ValueError):
            arith.goldbach_count_table(101, t)
        with pytest.raises(ValueError):
            arith.liouville_sieve(101, t)
        with pytest.raises(ValueError):
            arith.twin_prime_constant(101, t)


class TestIndicator:
    def test_two_is_excluded(self, small_table):
        assert 2 not in small_table.odd_primes_upto(10)
        # 2 + 2 is not an odd-prime pair
        assert arith.goldbach_count_table(4, small_table)[4] == 0

    def test_three_and_nine(self, small_table):
        assert 3 in small_table.odd_primes_upto(9)
        assert 9 not in small_table.odd_primes_upto(9)


class TestPairCounts:
    def test_odd_numbers_have_none(self, small_table):
        counts = arith.goldbach_count_table(400, small_table)
        assert counts[7] == goldbach_count(7, small_table) == 0
        for n in range(1, 400, 2):
            assert counts[n] == goldbach_count(n, small_table) == 0

    def test_small_values_by_enumeration(self, small_table):
        counts = arith.goldbach_count_table(120, small_table)
        assert counts[6] == goldbach_count(6, small_table) == brute_pair_count(6) == 1
        assert counts[10] == goldbach_count(10, small_table) == brute_pair_count(10) == 3
        for n in range(4, 120):
            assert counts[n] == goldbach_count(n, small_table) == brute_pair_count(n)

    def test_bulk_table_matches_scalar(self, small_table):
        counts = arith.goldbach_count_table(500, small_table)
        for n in range(1, 501):
            assert counts[n] == goldbach_count(n, small_table)

    def test_every_even_in_range_has_a_pair(self, table, pair_counts):
        evens = np.arange(6, 200_001, 2)
        assert (pair_counts[evens] >= 1).all()


class TestPairCountConvolution:
    """goldbach_count_table (an rFFT autocorrelation) against exact squares."""

    @pytest.mark.parametrize("limit", [1_000, 200_000])
    def test_matches_big_int_square(self, table, limit):
        assert np.array_equal(arith.goldbach_count_table(limit, table),
                              big_int_pair_counts(limit, table))

    @pytest.mark.parametrize("limit", [1_000, 2_000_000])
    def test_matches_decimal_square(self, limit):
        big = PrimeTable(limit)
        assert np.array_equal(arith.goldbach_count_table(limit, big),
                              decimal_pair_counts(limit, big))


class TestPrimePairCount:
    def test_minimal_cases(self, small_table):
        # x=5 with 2 allowed: (2,2), (2,3), (3,2) by direct enumeration
        assert prime_pair_count(5, small_table, include_two=True) == 3
        assert prime_pair_count(5, small_table, include_two=False) == 0
        assert prime_pair_count(6, small_table, include_two=False) == 1
        assert prime_pair_count(3, small_table, include_two=True) == 0

    def test_against_enumeration(self, small_table):
        primes = [n for n in range(2, 200) if brute_is_prime(n)]
        for x in (10, 37, 100.5, 151):
            for inc in (True, False):
                ps = primes if inc else primes[1:]
                expected = sum(1 for p in ps for q in ps if p + q <= x)
                assert prime_pair_count(x, small_table, include_two=inc) == expected


class TestMultiplicativeFunctions:
    def test_omega_tau(self):
        assert omega(12) == 2
        assert tau(12) == 6

    def test_phi(self):
        assert arith.euler_phi(20) == 8

    def test_phi_doubling_identity(self):
        for n in range(1, 301):
            lhs = arith.euler_phi(2 * n)
            rhs = (2 if n % 2 == 0 else 1) * arith.euler_phi(n)
            assert lhs == rhs

    def test_liouville(self):
        assert liouville(12) == -1
        assert liouville(1) == 1

    def test_factorize_roundtrip(self):
        rng = np.random.default_rng(7)
        for n in rng.integers(1, 4000, 50):
            n = int(n)
            prod = 1
            for p, e in arith.factorize(n):
                assert brute_is_prime(p)
                prod *= p ** e
            assert prod == n

    def test_divisors(self):
        assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_sieved_tables_match_scalars(self, small_table):
        om = omega_sieve(300, small_table)
        ta = tau_sieve(300)
        lam = arith.liouville_sieve(300, small_table)
        spf = arith.spf_sieve(300)
        for n in range(1, 301):
            assert om[n] == omega(n)
            assert ta[n] == tau(n)
            assert lam[n] == liouville(n)
            assert n == 1 or n % spf[n] == 0 and brute_is_prime(int(spf[n]))

    def test_liouville_sieve_needs_every_prime_up_to_its_limit(self):
        # PrimeTable(16) lacks 17: lambda(17) = -1 and lambda(34) = +1
        # would come out with the wrong sign
        with pytest.raises(ValueError):
            arith.liouville_sieve(40, PrimeTable(16))
        with pytest.raises(ValueError):
            IndicatorSet.liouville_negative(40, PrimeTable(16))
        lam = arith.liouville_sieve(40, PrimeTable(40))
        assert (lam[17], lam[34]) == (-1, 1)
        assert all(lam[n] == liouville(n) for n in range(1, 41))


@pytest.mark.parametrize("limit", list(range(26)) + [30_000, 10 ** 6])
def test_spf_sieve_is_smallest_prime_factor(limit):
    spf = arith.spf_sieve(limit)
    assert len(spf) == limit + 1
    assert not spf[:2].any()  # 0 for n < 2
    n = np.arange(2, limit + 1)
    assert (n % spf[2:] == 0).all()
    primes = PrimeTable(max(limit, 3)).primes
    is_prime = np.zeros(max(limit, 3) + 1, dtype=bool)
    is_prime[primes] = True
    assert is_prime[spf[2:]].all()
    # no smaller prime divides n: every multiple of p has spf <= p
    for p in map(int, primes[primes <= math.isqrt(limit)]):
        assert (spf[p::p] <= p).all()


class TestSingularSeries:
    def test_empty_products(self):
        assert singular_series_factor(1) == 1
        assert singular_series_factor(2) == 1

    def test_direct_product(self):
        assert singular_series_factor(15) == \
            Fraction(2, 1) * Fraction(4, 3) == Fraction(8, 3)

    def test_weight_values(self):
        assert series_weight(1) == 1
        assert series_weight(2) == Fraction(3, 2)
        assert series_weight(3) == Fraction(7, 3)

    def test_weight_against_divisor_sum(self):
        # both sides exact: sum_{d|m} d*f(d) == m * J(m)
        for m in (1, 2, 3, 12, 60, 128, 945):
            assert weighted_divisor_sum(m) == m * series_weight(m)

    def test_divisor_sum_values(self):
        assert weighted_divisor_sum(1) == 1
        assert weighted_divisor_sum(2) == 3
        assert weighted_divisor_sum(12) == 49

    def test_divisor_sum_is_not_always_integral(self):
        # m=5: 1 + 5*(4/3) = 23/3; the identity still holds exactly
        val = weighted_divisor_sum(5)
        assert val == Fraction(23, 3)
        assert val.denominator != 1

    def test_multiplicative_on_coprime_pairs(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 40:
            a, b = map(int, rng.integers(1, 60, 2))
            if math.gcd(a, b) != 1:
                continue
            found += 1
            f = singular_series_factor
            j = series_weight
            assert f(a * b) == f(a) * f(b)
            assert j(a * b) == j(a) * j(b)

    def test_weight_at_least_one(self):
        for m in range(1, 500):
            assert series_weight(m) >= 1


class TestTwinPrimeConstant:
    def test_single_factor(self):
        approx, bound = arith.twin_prime_constant(3, PrimeTable(3))
        assert approx == 0.75
        assert bound > 0

    def test_limit_beyond_table_is_rejected(self, small_table):
        # no silent re-sieve: the caller's table has to reach the limit
        with pytest.raises(ValueError):
            arith.twin_prime_constant(small_table.limit + 1, small_table)

    def test_truncations_agree_within_coarser_bound(self, table):
        a1, b1 = arith.twin_prime_constant(1_000, table)
        a2, b2 = arith.twin_prime_constant(100_000, table)
        assert abs(a1 - a2) <= max(b1, b2)

    def test_monotone_decreasing(self, table):
        vals = [arith.twin_prime_constant(lim, table)[0]
                for lim in (10, 100, 1_000, 10_000)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_brackets_known_value(self, table):
        # C2 = 0.66016181584686957... (universal constant)
        approx, bound = arith.twin_prime_constant(200_000, table)
        assert abs(approx - 0.6601618158468696) <= bound
