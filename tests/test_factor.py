import itertools

import numpy as np
import pytest

from goldpoly import arith, factor, modp, roots
from goldpoly.factor import (
    BadPrimeError,
    certify_even,
    certify_goldbach_quotient,
    certify_irreducible,
    distinct_degree_pattern,
    excludes_mirror_split,
    linear_root_screen,
    reduce_mod_p,
    small_degree_screen,
)
from goldpoly.goldbach import goldbach_cofactor, goldbach_polynomial
from goldpoly.poly import (
    IntPolynomial,
    cyclotomic,
    divrem_exact,
    exact_quotient_or_none,
)

from conftest import even_part
from oracles import ddf_by_powmod, gcd_by_trimming, product
from reference_fixtures import quotient_polynomial


def half_degree_polynomial(N, table):
    """g with g(z^2) = F_N / Phi_2N (even N) or F_N / (Phi_N Phi_2N) (odd N)."""
    divisor = cyclotomic(2 * N)
    if N % 2:
        divisor = product(divisor, cyclotomic(N))
    q, rem = divrem_exact(goldbach_polynomial(N, table), divisor)
    assert rem.is_zero
    return even_part(q)


def oracle_pattern(fp, p):
    try:
        return list(ddf_by_powmod(fp, p))
    except BadPrimeError:
        return None


def assert_same_ddf(got, expected):
    assert list(got) == list(expected)
    assert sorted(got.components) == sorted(expected.components)
    for d, gd in expected.components.items():
        assert got.components[d].tolist() == gd.tolist()


class TestReduction:
    def test_coefficientwise(self):
        got = reduce_mod_p(IntPolynomial((5, 0, 3)), 5)
        assert got.tolist() == [0, 0, 3]

    def test_monic_stays_monic(self):
        got = reduce_mod_p(IntPolynomial((7, -2, 1)), 5)
        assert got[-1] == 1 and len(got) == 3

    def test_degree_preserved_when_lead_unit(self):
        assert len(reduce_mod_p(IntPolynomial((1, 1, 2)), 7)) == 3

    def test_vanishing_lead_rejected(self):
        with pytest.raises(BadPrimeError):
            reduce_mod_p(IntPolynomial((1, 5)), 5)


class TestDistinctDegreePattern:
    def test_irreducible_quadratic(self):
        assert distinct_degree_pattern(np.array([1, 0, 1]), 3) == [2]

    def test_split_quadratic(self):
        assert distinct_degree_pattern(np.array([4, 0, 1]), 5) == [1, 1]

    def test_cyclotomic_twelve_mod_five(self):
        fp = reduce_mod_p(cyclotomic(12), 5)
        assert distinct_degree_pattern(fp, 5) == [2, 2]

    def test_not_squarefree_rejected(self):
        # (z+1)^2 mod 5
        with pytest.raises(BadPrimeError):
            distinct_degree_pattern(np.array([1, 2, 1]), 5)

    def test_degree_one_count_matches_roots(self):
        rng = np.random.default_rng(0)
        p = 101
        for _ in range(20):
            fp = modp.trim(rng.integers(0, p, 9).astype(np.int64))
            if len(fp) < 3:
                continue
            fp[-1] = 1
            try:
                pattern = distinct_degree_pattern(fp, p)
            except BadPrimeError:
                continue
            assert sum(pattern) == len(fp) - 1
            xs = np.arange(p, dtype=np.int64)
            vals = np.zeros(p, dtype=np.int64)
            for c in fp[::-1]:
                vals = (vals * xs + c) % p
            assert pattern.count(1) == int((vals == 0).sum())

    def test_pattern_matches_bruteforce_factorization(self):
        # independent oracle over F_3: peel monic divisors by exhaustive
        # search in ascending degree
        p = 3

        def all_monic(deg):
            for bits in range(p ** deg):
                coeffs = []
                rem = bits
                for _ in range(deg):
                    coeffs.append(rem % p)
                    rem //= p
                yield np.array(coeffs + [1], dtype=np.int64)

        def brute_pattern(fp):
            out = []
            rem = fp.copy()
            deg = 1
            while len(rem) - 1 > 0:
                if 2 * deg > len(rem) - 1:
                    out.append(len(rem) - 1)
                    break
                hit = False
                for cand in all_monic(deg):
                    q, r = modp.divmod_poly(rem, cand, p)
                    if len(r) == 0:
                        out.append(deg)
                        rem = q
                        hit = True
                        break
                if not hit:
                    deg += 1
            return sorted(out)

        rng = np.random.default_rng(7)
        checked = 0
        while checked < 25:
            fp = modp.trim(rng.integers(0, p, int(rng.integers(3, 10))).astype(np.int64))
            if len(fp) < 3:
                continue
            fp[-1] = 1
            try:
                pattern = distinct_degree_pattern(fp, p)
            except BadPrimeError:
                continue
            checked += 1
            assert pattern == brute_pattern(fp)

    @pytest.mark.parametrize("p", [101, 103])
    def test_components_multiply_back(self, p):
        rng = np.random.default_rng(p)
        checked = 0
        while checked < 30:
            fp = rng.integers(0, p, int(rng.integers(2, 40))).astype(np.int64)
            fp[-1] = 1
            try:
                pattern = distinct_degree_pattern(fp, p)
            except BadPrimeError:
                continue
            checked += 1
            prod = np.array([1], dtype=np.int64)
            for d, gd in pattern.components.items():
                assert gd[-1] == 1
                assert len(gd) - 1 == d * pattern.count(d)
                prod = modp.mul(prod, gd, p)
            assert set(pattern.components) == set(pattern)
            assert prod.tolist() == fp.tolist()


class TestFrobeniusMatrixDDF:
    """The Frobenius-matrix DDF against the powmod loop it replaced."""

    @pytest.mark.parametrize("p", [3, 5, 101, 103, 10007])
    def test_random_squarefree_inputs(self, p):
        rng = np.random.default_rng(p)
        for deg in range(1, 61):
            while True:
                fp = rng.integers(0, p, deg + 1).astype(np.int64)
                fp[-1] = 1
                try:
                    expected = ddf_by_powmod(fp, p)
                except BadPrimeError:
                    continue
                break
            assert_same_ddf(distinct_degree_pattern(fp, p), expected)

    def test_goldbach_half_degree_polynomials(self, small_table):
        checked = 0
        for N in range(6, 17):
            g = half_degree_polynomial(N, small_table)
            for p in (101, 103, 107, 109, 113):
                fp = reduce_mod_p(g, p)
                try:
                    expected = ddf_by_powmod(fp, p)
                except BadPrimeError:
                    with pytest.raises(BadPrimeError):
                        distinct_degree_pattern(fp, p)
                    continue
                assert_same_ddf(distinct_degree_pattern(fp, p), expected)
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("N", range(17, 31))
    def test_goldbach_half_degree_polynomials_to_n30(self, N, small_table):
        # the first three usable primes >= 101; N <= 16 is covered above
        g = half_degree_polynomial(N, small_table)
        usable = 0
        for p in filter(arith.is_prime, itertools.count(101, 2)):
            fp = reduce_mod_p(g, p)
            try:
                expected = ddf_by_powmod(fp, p)
            except BadPrimeError:
                with pytest.raises(BadPrimeError):
                    distinct_degree_pattern(fp, p)
                continue
            assert_same_ddf(distinct_degree_pattern(fp, p), expected)
            usable += 1
            if usable == 3:
                break

    @pytest.mark.parametrize("p, degrees", [
        (5, [2]),               # one block of one step
        (5, [1, 1, 1]),         # one step, G is all of f
        (5, [1, 5]),            # three rows: an odd level
        (101, [3, 7]),          # five rows
        (5, [2, 5, 7]),         # seven rows, three hits in one block
        (101, [1] * 16),        # G used up at the first of eight rows
        (101, [1, 2, 20]),      # G used up at the second row, then a miss
        (5, [3, 3, 5, 7]),      # a full block, then a block of one step
        (101, [4, 9, 9]),       # a full block, then a hit in a block of three
    ])
    def test_block_shapes(self, p, degrees, monkeypatch):
        # f is a product of distinct random monic irreducibles of the given
        # degrees, so the blocks of 8 steps and their hits are known in
        # advance
        monkeypatch.setattr(factor, "_DDF_BLOCK", 8)
        rng = np.random.default_rng(p + sum(degrees))
        factors = []
        while len(factors) < len(degrees):
            k = degrees[len(factors)]
            u = rng.integers(0, p, k + 1).astype(np.int64)
            u[-1] = 1
            if (u.tolist() not in [f.tolist() for f in factors]
                    and oracle_pattern(u, p) == [k]):
                factors.append(u)
        fp = np.array([1], dtype=np.int64)
        for u in factors:
            fp = modp.mul(fp, u, p)
        pattern = distinct_degree_pattern(fp, p)
        assert list(pattern) == sorted(degrees)
        assert_same_ddf(pattern, ddf_by_powmod(fp, p))


def random_irreducible(rng, p, k):
    """A random monic irreducible of degree k over F_p.

    Ben-Or's test with the oracle gcd: u is irreducible iff
    gcd(u, z^(p^i) - z) = 1 for i <= k / 2; most candidates fail at i = 1.
    """
    z = np.array([0, 1], dtype=np.int64)
    while True:
        u = rng.integers(0, p, k + 1).astype(np.int64)
        u[-1] = 1
        ctx = modp.ModulusContext(u, p)
        h = z
        for _ in range(k // 2):
            h = ctx.powmod(h, p)
            if len(gcd_by_trimming(u, modp.sub(h, z, p), p)) > 1:
                break
        else:
            return u


class TestDDFShortcuts:
    """A block's gcd G divides the cofactor once; its per-degree gcds stop
    once the rest of G is below twice the least degree it can hold, and
    that rest is recorded as one factor without a gcd."""

    # [8, 8]: deg G = 16 = 2 * 8 at dd = 8, where G is still two factors
    CASES = [[16], [3, 11], [1, 1, 9], [8, 8], [5, 5, 5], [17, 40]]

    @pytest.mark.parametrize("p", [3, 101, 65_521])
    @pytest.mark.parametrize("degrees", CASES, ids=str)
    def test_known_factor_degrees(self, p, degrees):
        rng = np.random.default_rng(p + 100 * sum(degrees) + len(degrees))
        factors = []
        while len(factors) < len(degrees):
            u = random_irreducible(rng, p, degrees[len(factors)])
            if u.tolist() not in [f.tolist() for f in factors]:
                factors.append(u)
        fp = np.array([1], dtype=np.int64)
        for u in factors:
            fp = modp.mul(fp, u, p)
        pattern = distinct_degree_pattern(fp, p)
        assert list(pattern) == sorted(degrees)
        assert_same_ddf(pattern, ddf_by_powmod(fp, p))
        if len(factors) > 1:
            lifted = product(*(IntPolynomial(u.tolist()) for u in factors))
            cert = certify_irreducible(lifted, max_primes=4)
            assert cert.verdict != "Irreducible"


def product_of_irreducibles(rng, p, degrees):
    """f mod p, the product of distinct random monic irreducibles."""
    factors = []
    while len(factors) < len(degrees):
        u = random_irreducible(rng, p, degrees[len(factors)])
        if u.tolist() not in [f.tolist() for f in factors]:
            factors.append(u)
    fp = np.array([1], dtype=np.int64)
    for u in factors:
        fp = modp.mul(fp, u, p)
    return fp


def assert_stop_is_exact(fp, p, surviving, full=None):
    """The DDF stopped at the largest open degree D of ``surviving`` against
    the whole DDF: the same components up to D, a rest that holds the
    factors above D, and a degree mask that contains the whole closure and
    equals it on the surviving degrees."""
    n = len(fp) - 1
    full = distinct_degree_pattern(fp, p) if full is None else full
    D = factor._open_degree(surviving, n)
    stopped = distinct_degree_pattern(fp, p, D)
    assert [d for d in stopped if d <= D] == [d for d in full if d <= D]
    for d, gd in full.components.items():
        if d <= D:
            assert stopped.components[d].tolist() == gd.tolist()
    for d in set(full) - set(stopped):
        assert d > D
    assert stopped.rest == sum(full) - sum(stopped)
    assert stopped.rest == 0 or stopped.rest >= 2 * (D + 1)
    exact = factor._subset_sum_mask(full)
    bound = factor._subset_sum_mask(stopped)
    assert exact & ~bound == 0
    assert surviving & bound == surviving & exact
    return stopped


def symmetric_mask(n, degrees):
    mask = 1 | 1 << n
    for d in degrees:
        mask |= 1 << d | 1 << (n - d)
    return mask


class TestStoppedDDF:
    """A DDF stopped at the largest degree still open decides every
    surviving degree as the whole DDF does."""

    @pytest.mark.parametrize("p", [101, 103, 2 ** 28 - 57])
    def test_random_squarefree_against_the_whole_ddf(self, p):
        # 2**28 - 57: every product takes the exact packer; 2**31 - 1 is
        # refused by the Frobenius step's int64 bound from degree 3 on
        rng = np.random.default_rng(p % 1000)
        for _ in range(12 if p < 1000 else 3):
            n = int(rng.integers(10, 121))
            while True:
                fp = rng.integers(0, p, n + 1).astype(np.int64)
                fp[-1] = 1
                try:
                    full = distinct_degree_pattern(fp, p)
                except BadPrimeError:
                    continue
                break
            for _ in range(6):
                k = int(rng.integers(0, 4))
                open_ = rng.integers(1, n // 2 + 1, k).tolist()
                assert_stop_is_exact(fp, p, symmetric_mask(n, open_), full)

    @pytest.mark.parametrize("degrees, D", [
        ([3, 4, 7], 3),       # D is a component's degree; the rest holds D + 1
        ([2, 5, 5, 9], 4),    # the rest holds two factors of degree D + 1
        ([1, 6, 13], 5),      # one factor of degree D + 1 and one above
        ([4, 4, 11], 4),      # D is a component's degree, rest one factor
        ([2, 3, 7], 3),       # a rest below 2 (D + 1) is one factor, listed
    ])
    def test_edges_of_the_stop(self, degrees, D):
        p = 101
        rng = np.random.default_rng(sum(degrees) + D)
        fp = product_of_irreducibles(rng, p, degrees)
        n = sum(degrees)
        for low in itertools.product((0, 1), repeat=D - 1):
            kept = [d for d, bit in zip(range(1, D), low) if bit] + [D]
            surviving = symmetric_mask(n, kept)
            assert factor._open_degree(surviving, n) == D
            stopped = assert_stop_is_exact(fp, p, surviving)
            rest = sum(d for d in degrees if d > D)
            if rest < 2 * (D + 1):
                assert list(stopped) == sorted(degrees)
                assert stopped.rest == 0
            else:
                assert list(stopped) == sorted(d for d in degrees if d <= D)
                assert stopped.rest == rest

    def test_open_degree_is_the_largest_below_half(self):
        rng = np.random.default_rng(3)
        for n in range(2, 40):
            for _ in range(20):
                open_ = [int(d) for d in rng.integers(1, n // 2 + 1,
                                                      rng.integers(0, 4))]
                mask = symmetric_mask(n, open_)
                assert factor._open_degree(mask, n) == max(open_, default=0)

    def test_pending_mirror_split_runs_the_whole_ddf(self, small_table,
                                                     monkeypatch):
        # until accept holds, the DDF decides every degree and accept sees
        # every component; from then on it stops at the largest open degree
        g = goldbach_cofactor(18, small_table)
        n = g.degree
        ddf, stops, seen = factor.distinct_degree_pattern, [], []

        def spy(fp, p, stop):
            stops.append(stop)
            return ddf(fp, p, stop)

        def accept(p, pattern):
            seen.append((p, pattern.rest, sum(pattern)))
            return p >= 103

        monkeypatch.setattr(factor, "distinct_degree_pattern", spy)
        cert = factor._intersect_patterns(g, small_degree_screen(g), 12,
                                          accept)
        assert cert.verdict == "Irreducible"
        assert cert.primes_used == [101, 103, 107]
        assert seen == [(101, 0, n), (103, 0, n)]
        # degree 6 (and n - 6) alone survives 101 and 103
        assert stops == [n // 2, n // 2, 6]

    def test_certificates_equal_the_whole_ddf(self, small_table,
                                              monkeypatch):
        # verdict, primes and surviving degrees, with and without the stop
        ddf = factor.distinct_degree_pattern
        cases = [(f, "quotient") for f in range(6, 25)] + [
            (IntPolynomial((1, 0, 0, 0, 1)), 8),
            (product(IntPolynomial((1, 1, 0, 1)), IntPolynomial((-3, 0, 2, 0, 0, 1))), 6),
        ]

        def certify(case):
            f, how = case
            if how == "quotient":
                return certify_goldbach_quotient(f, small_table)
            return certify_irreducible(f, max_primes=how)

        stopped = [certify(c).to_json_dict() for c in cases]
        monkeypatch.setattr(factor, "distinct_degree_pattern",
                            lambda fp, p, stop: ddf(fp, p))
        assert stopped == [certify(c).to_json_dict() for c in cases]


class TestScreen:
    # content is rejected before the screen: TestCertify.test_imprimitive_rejected
    def test_finds_unit_root(self):
        assert (linear_root_screen(IntPolynomial((-1, 0, 1)))
                == IntPolynomial((-1, 1)))

    def test_no_rational_root(self):
        assert linear_root_screen(IntPolynomial((1, 0, 1))) is None

    def test_root_at_origin(self):
        assert (linear_root_screen(IntPolynomial((0, 1, 1)))
                == IntPolynomial((0, 1)))

    def test_non_monic_rational_root(self):
        # (2z-1)(z^2+z+1)
        f = product(IntPolynomial((-1, 2)), IntPolynomial((1, 1, 1)))
        assert linear_root_screen(f) == IntPolynomial((-1, 2))


def has_monic_factor(g, d):
    """Whether monic g has a monic integer factor of degree d in {1, 2}, by
    exact trial division by every candidate the root bound
    |z| < 1 + max_{k<n} |c_k| leaves."""
    bound = 1 + max(map(abs, g.coeffs[:-1]))
    if d == 1:
        candidates = ((-r, 1) for r in range(-bound, bound + 1))
    else:
        candidates = ((b, a, 1) for a in range(-2 * bound, 2 * bound + 1)
                      for b in range(-bound ** 2, bound ** 2 + 1))
    return any(exact_quotient_or_none(g, IntPolynomial(h)) is not None
               for h in candidates)


def kept_degrees(g):
    mask = small_degree_screen(g)
    return [d for d in range(g.degree + 1) if mask >> d & 1]


class TestSmallDegreeScreen:
    """Degrees 1 and 2 (and their complements) are ruled out exactly, and
    only when g has no factor of that degree."""

    def test_exact_oracle_on_random_monic_polynomials(self):
        rng = np.random.default_rng(31)
        cleared = kept_with_factor = 0
        for _ in range(400):
            n = int(rng.integers(1, 9))
            low = rng.choice([-2, -1, 0, 0, 0, 1, 2], n).tolist()
            g = IntPolynomial(low + [1])
            kept = kept_degrees(g)
            assert 0 in kept and n in kept
            assert set(range(n + 1)) - set(kept) <= {1, 2, n - 2, n - 1}
            for d in (1, 2):
                if not 0 < d < n:
                    continue
                factor_exists = has_monic_factor(g, d)
                if d not in kept or n - d not in kept:
                    assert not factor_exists, (g, d)
                    cleared += 1
                elif factor_exists:
                    kept_with_factor += 1
        assert cleared >= 150 and kept_with_factor >= 300

    @pytest.mark.parametrize("g, h", [
        ((-3, 1, -3, 1), (-3, 1)),                  # (z - 3)(z^2 + 1)
        ((-1, 0, 0, 0, 0, 1), (-1, 1)),             # (z - 1) Phi_5
        ((1, 0, 0, 0, 0, 1), (1, 1)),               # (z + 1) Phi_10
        ((0, 1, 0, 0, 0, 1), (0, 1)),               # z (z^4 + 1)
        # (z^2 + z - 1)(z^2 - z + 2), all four roots in |z| < 2
        ((-2, 3, 0, 0, 1), (-1, 1, 1)),
        # the candidates at |a| = 3 and at |b| = 3: z^10 - 243z - 486 and
        # z^8 - 81, whose roots have |z| = sqrt(3)
        ((-486, -243) + (0,) * 8 + (1,), (3, 3, 1)),
        ((-81,) + (0,) * 7 + (1,), (-3, 0, 1)),
    ])
    def test_products_keep_their_factor_degree(self, g, h):
        g, h = IntPolynomial(g), IntPolynomial(h)
        assert exact_quotient_or_none(g, h) is not None
        kept = kept_degrees(g)
        assert h.degree in kept and g.degree - h.degree in kept
        assert certify_even(g, max_primes=4).verdict != "Irreducible"

    def test_non_monic_keeps_every_degree(self):
        # (2z - 1)(z^2 + z + 1): g(0), g(1), g(-1) != 0, and Cauchy's bound
        # would hold if the leading 2 were read as 1
        g = product(IntPolynomial((-1, 2)), IntPolynomial((1, 1, 1)))
        assert kept_degrees(g) == [0, 1, 2, 3]
        assert certify_even(g, max_primes=4).verdict != "Irreducible"

    @pytest.mark.parametrize("g, kept", [
        (IntPolynomial((1, 1)), [0, 1]),            # z + 1
        (IntPolynomial((1, 0, 1)), [0, 2]),         # z^2 + 1
        (IntPolynomial((-1, 1, 1)), [0, 2]),        # roots 0.618, -1.618
        (IntPolynomial((1, 1, 0, 1)), [0, 3]),      # z^3 + z + 1
        (IntPolynomial((1, 1, 1, 1)), [0, 1, 2, 3]),  # (z + 1)(z^2 + 1)
        (IntPolynomial((-2, 0, 0, 1)), [0, 3]),     # z^3 - 2
    ])
    def test_low_degrees_clear_only_proper_bits(self, g, kept):
        assert kept_degrees(g) == kept

    def test_goldbach_cofactors_lose_degrees_one_and_two(self, small_table):
        for N in range(6, 51):
            g = goldbach_cofactor(N, small_table)
            n = g.degree
            assert set(kept_degrees(g)) == set(range(n + 1)) - {1, 2, n - 2,
                                                                 n - 1}, N


class TestCertify:
    def test_irreducible_quadratic(self):
        cert = certify_irreducible(IntPolynomial((1, 0, 1)))
        assert cert.verdict == "Irreducible"

    def test_reducible_with_witness(self):
        cert = certify_irreducible(IntPolynomial((-1, 0, 1)))
        assert cert.verdict == "Reducible"
        assert cert.witness_factor == IntPolynomial((-1, 1))

    def test_linear_is_irreducible(self):
        assert certify_irreducible(IntPolynomial((-1, 1))).verdict == "Irreducible"

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError):
            certify_irreducible(IntPolynomial((2, 2)))

    def test_soundness_products_never_certified(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 40:
            a = IntPolynomial(rng.integers(-5, 6, int(rng.integers(3, 7))).tolist())
            b = IntPolynomial(rng.integers(-5, 6, int(rng.integers(3, 7))).tolist())
            if a.degree < 1 or b.degree < 1:
                continue
            prod = product(a, b).primitive_part()
            if prod.degree < 2:
                continue
            done += 1
            cert = certify_irreducible(prod, max_primes=4)
            assert cert.verdict != "Irreducible"

    def test_patterns_always_allow_trivial_degrees(self):
        # 0 and deg survive every subset-sum mask by construction
        f = IntPolynomial((3, 0, 0, 1, 1))
        cert = certify_irreducible(f, max_primes=3)
        assert 0 not in cert.surviving_degrees
        assert f.degree not in cert.surviving_degrees

    def test_determinism(self):
        f = IntPolynomial((7, 3, 0, 0, 2, 0, 1))
        c1 = certify_irreducible(f)
        c2 = certify_irreducible(f)
        assert c1.primes_used == c2.primes_used
        assert c1.verdict == c2.verdict
        assert c1.surviving_degrees == c2.surviving_degrees

    def test_not_squarefree_is_unresolved(self):
        # every prime is bad for (z^2 + 1)^2; the search must stop
        f = product(IntPolynomial((1, 0, 1)), IntPolynomial((1, 0, 1)))
        cert = certify_irreducible(f)
        assert cert.verdict == "Unresolved"
        assert cert.primes_used == []
        assert cert.surviving_degrees == (1, 2, 3)

    def test_unresolved_is_possible_and_honest(self):
        # z^4 + 1 factors mod every prime, so degree analysis alone can
        # never certify it; the verdict must be Unresolved, never wrong
        cert = certify_irreducible(IntPolynomial((1, 0, 0, 0, 1)), max_primes=8)
        assert cert.verdict == "Unresolved"
        assert 2 in cert.surviving_degrees


class TestQuotientCertificates:
    def test_even_case(self, small_table):
        cert = certify_goldbach_quotient(6, small_table)
        assert cert.verdict == "Irreducible"
        assert cert.N == 6
        assert cert.degree == quotient_polynomial((6, "2N")).degree

    def test_odd_case(self, small_table):
        cert = certify_goldbach_quotient(9, small_table)
        assert cert.verdict == "Irreducible"
        assert cert.degree == 100

    def test_rejects_small_N(self, small_table):
        with pytest.raises(ValueError):
            certify_goldbach_quotient(5, small_table)

    def test_shared_cofactor_matches_full_degree_oracle(self, small_table):
        # goldbach_cofactor, at half the degree, against the division of
        # the full F_N; and the unit-circle strip of g_N finds exactly
        # Phi_N, once, and leaves the same cofactor, which is why the
        # classification never needs it for g_N / Phi_N
        for N in range(6, 31):
            assert (goldbach_cofactor(N, small_table)
                    == half_degree_polynomial(N, small_table)), N
        for N in range(6, 41):
            g = even_part(goldbach_polynomial(N, small_table))
            strip = roots.strip_unit_circle_part(g)
            assert strip.cyclotomic_factors == [(N, 1)], N
            assert strip.cofactor == goldbach_cofactor(N, small_table), N

    def test_json_shape(self, small_table):
        cert = certify_goldbach_quotient(7, small_table)
        d = cert.to_json_dict()
        assert d["verdict"] == "Irreducible"
        assert d["N"] == 7
        assert isinstance(d["primes_used"], list)
        assert d["surviving_degree_set"] == []


class TestEvenLift:
    """q(z) = g(z^2) is certified from g; no split q may come out Irreducible."""

    @pytest.mark.parametrize("g", [
        IntPolynomial((-4, 1)),          # z^2 - 4 = (z - 2)(z + 2)
        IntPolynomial((-1, 1, 2, 1)),    # g(z^2) = -(z^3 + z + 1)(-z^3 - z + 1)
    ])
    def test_square_norm_splits_never_certified(self, g):
        assert certify_irreducible(g).verdict == "Irreducible"
        norm = (-1) ** g.degree * g[0] * g.lead
        assert norm in (1, 4)
        q = IntPolynomial(tuple(c for a in g.coeffs for c in (a, 0))[:-1])
        assert even_part(q) == g
        cert = certify_even(even_part(q))
        assert cert.verdict != "Irreducible"
        assert cert.degree == q.degree

    def test_nonsquare_norm_lifts_without_split_test(self):
        # z^2 + 3: g = z + 3 has norm -3
        cert = certify_even(even_part(IntPolynomial((3, 0, 1))))
        assert cert.verdict == "Irreducible"
        assert cert.degree == 2

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            certify_even(even_part(IntPolynomial((2, 0, 4))))

    def test_split_test_needs_p_not_dividing_g0(self):
        # g = z^3 + 2z + 101 = z (z^2 + 2) mod 101, and 2 is a non-square
        # mod 101, so the component z^2 + 2 has Legendre symbol -1; but
        # 101 | g(0), where g(z^2) is not squarefree mod 101
        g = IntPolynomial((101, 2, 0, 1))
        pattern = distinct_degree_pattern(reduce_mod_p(g, 101), 101)
        assert pattern.components[2].tolist() == [2, 0, 1]
        assert pow(2, 50, 101) == 100
        assert not excludes_mirror_split(g, 101, pattern)

    def test_split_test_fires_for_odd_quotients(self, small_table,
                                                monkeypatch):
        # no fallback to certify_irreducible(q): the lift alone must certify
        def no_fallback(*args, **kwargs):
            raise AssertionError("fell back to the certificate of q")

        monkeypatch.setattr(factor, "certify_irreducible", no_fallback)
        for N in range(7, 22, 2):
            cert = certify_goldbach_quotient(N, small_table)
            assert cert.verdict == "Irreducible"
            g = half_degree_polynomial(N, small_table)
            assert any(excludes_mirror_split(g, p, distinct_degree_pattern(
                reduce_mod_p(g, p), p)) for p in cert.primes_used)
