import math
from fractions import Fraction

import numpy as np
import pytest

from goldpoly import arith
from goldpoly.arith import PrimeTable, SieveRangeError

from oracles import big_int_pair_counts, decimal_pair_counts, goldbach_count


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
        t = arith.sieve(10)
        assert [n for n in range(1, 11) if t.is_odd_prime(n)] == [3, 5, 7]

    def test_prefix_counts(self):
        t = arith.sieve(10)
        assert t.prime_count(9) == 4  # 2, 3, 5, 7

    def test_pi_100_against_enumeration(self):
        t = arith.sieve(100)
        expected = sum(1 for n in range(2, 101) if brute_is_prime(n))
        assert t.prime_count(100) == expected == 25

    def test_membership_matches_enumeration(self):
        t = arith.sieve(2_000)
        for n in range(1, 2_001):
            assert t.is_odd_prime(n) == (n > 2 and brute_is_prime(n))

    def test_rejects_bad_limits(self):
        with pytest.raises(SieveRangeError):
            arith.sieve(2)
        with pytest.raises(SieveRangeError):
            arith.sieve(arith.MAX_SIEVE_LIMIT + 1)

    def test_out_of_range_queries(self):
        t = arith.sieve(100)
        with pytest.raises(ValueError):
            t.is_odd_prime(101)
        with pytest.raises(ValueError):
            t.prime_count(101)


class TestIndicator:
    def test_two_is_excluded(self, small_table):
        assert arith.odd_prime_indicator(2, small_table) == 0

    def test_three_and_nine(self, small_table):
        assert arith.odd_prime_indicator(3, small_table) == 1
        assert arith.odd_prime_indicator(9, small_table) == 0

    def test_range_error(self, small_table):
        with pytest.raises(ValueError):
            arith.odd_prime_indicator(small_table.limit + 1, small_table)


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
        big = arith.sieve(limit)
        assert np.array_equal(arith.goldbach_count_table(limit, big),
                              decimal_pair_counts(limit, big))


class TestPrimePairCount:
    def test_minimal_cases(self, small_table):
        # x=5 with 2 allowed: (2,2), (2,3), (3,2) by direct enumeration
        assert arith.prime_pair_count(5, small_table, include_two=True) == 3
        assert arith.prime_pair_count(5, small_table, include_two=False) == 0
        assert arith.prime_pair_count(6, small_table, include_two=False) == 1
        assert arith.prime_pair_count(3, small_table, include_two=True) == 0

    def test_against_enumeration(self, small_table):
        primes = [n for n in range(2, 200) if brute_is_prime(n)]
        for x in (10, 37, 100.5, 151):
            for inc in (True, False):
                ps = primes if inc else primes[1:]
                expected = sum(1 for p in ps for q in ps if p + q <= x)
                assert arith.prime_pair_count(x, small_table, include_two=inc) == expected


class TestMultiplicativeFunctions:
    def test_omega_tau(self, small_table):
        assert arith.omega(12, small_table) == 2
        assert arith.tau(12, small_table) == 6

    def test_phi(self, small_table):
        assert arith.euler_phi(20, small_table) == 8

    def test_phi_doubling_identity(self, small_table):
        for n in range(1, 301):
            lhs = arith.euler_phi(2 * n, small_table)
            rhs = (2 if n % 2 == 0 else 1) * arith.euler_phi(n, small_table)
            assert lhs == rhs

    def test_liouville(self, small_table):
        assert arith.liouville(12, small_table) == -1
        assert arith.liouville(1, small_table) == 1

    def test_mobius(self, small_table):
        assert [arith.mobius(n, small_table) for n in range(1, 11)] == \
            [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_factorize_roundtrip(self, small_table):
        rng = np.random.default_rng(7)
        for n in rng.integers(1, 4000, 50):
            n = int(n)
            prod = 1
            for p, e in arith.factorize(n, small_table):
                assert brute_is_prime(p)
                prod *= p ** e
            assert prod == n

    def test_divisors(self, small_table):
        assert arith.divisors(12, small_table) == [1, 2, 3, 4, 6, 12]

    def test_sieved_tables_match_scalars(self, small_table):
        om = arith.omega_sieve(300, small_table)
        ta = arith.tau_sieve(300)
        lam = arith.liouville_sieve(300, small_table)
        spf = arith.spf_sieve(300)
        for n in range(1, 301):
            assert om[n] == arith.omega(n, small_table)
            assert ta[n] == arith.tau(n, small_table)
            assert lam[n] == arith.liouville(n, small_table)
            assert n == 1 or n % spf[n] == 0 and brute_is_prime(int(spf[n]))


@pytest.mark.parametrize("limit", list(range(26)) + [30_000, 10 ** 6])
def test_spf_sieve_is_smallest_prime_factor(limit):
    spf = arith.spf_sieve(limit)
    assert len(spf) == limit + 1
    assert not spf[:2].any()  # 0 for n < 2
    n = np.arange(2, limit + 1)
    assert (n % spf[2:] == 0).all()
    primes = arith.sieve(max(limit, 3)).primes
    is_prime = np.zeros(max(limit, 3) + 1, dtype=bool)
    is_prime[primes] = True
    assert is_prime[spf[2:]].all()
    # no smaller prime divides n: every multiple of p has spf <= p
    for p in map(int, primes[primes <= math.isqrt(limit)]):
        assert (spf[p::p] <= p).all()


class TestSingularSeries:
    def test_empty_products(self, small_table):
        assert arith.singular_series_factor(1, small_table) == 1
        assert arith.singular_series_factor(2, small_table) == 1

    def test_direct_product(self, small_table):
        assert arith.singular_series_factor(15, small_table) == \
            Fraction(2, 1) * Fraction(4, 3) == Fraction(8, 3)

    def test_weight_values(self, small_table):
        assert arith.series_weight(1, small_table) == 1
        assert arith.series_weight(2, small_table) == Fraction(3, 2)
        assert arith.series_weight(3, small_table) == Fraction(7, 3)

    def test_weight_against_divisor_sum(self, small_table):
        # both sides exact: sum_{d|m} d*f(d) == m * J(m)
        for m in (1, 2, 3, 12, 60, 128, 945):
            lhs = arith.weighted_divisor_sum(m, small_table)
            assert lhs == m * arith.series_weight(m, small_table)

    def test_divisor_sum_values(self, small_table):
        assert arith.weighted_divisor_sum(1, small_table) == 1
        assert arith.weighted_divisor_sum(2, small_table) == 3
        assert arith.weighted_divisor_sum(12, small_table) == 49

    def test_divisor_sum_is_not_always_integral(self, small_table):
        # m=5: 1 + 5*(4/3) = 23/3; the identity still holds exactly
        val = arith.weighted_divisor_sum(5, small_table)
        assert val == Fraction(23, 3)
        assert val.denominator != 1

    def test_multiplicative_on_coprime_pairs(self, small_table):
        rng = np.random.default_rng(11)
        found = 0
        while found < 40:
            a, b = map(int, rng.integers(1, 60, 2))
            if math.gcd(a, b) != 1:
                continue
            found += 1
            f = arith.singular_series_factor
            j = arith.series_weight
            assert f(a * b, small_table) == f(a, small_table) * f(b, small_table)
            assert j(a * b, small_table) == j(a, small_table) * j(b, small_table)

    def test_weight_at_least_one(self, small_table):
        for m in range(1, 500):
            assert arith.series_weight(m, small_table) >= 1


class TestTwinPrimeConstant:
    def test_single_factor(self):
        approx, bound = arith.twin_prime_constant(3)
        assert approx == 0.75
        assert bound > 0

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
