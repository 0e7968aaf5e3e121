import math
from fractions import Fraction

import numpy as np
import pytest

from goldpoly import modp, poly
from goldpoly.poly import (
    IntPolynomial,
    NonMonicDivisorError,
    cyclotomic,
    cyclotomic_quotient_or_none,
    divrem_exact,
    exact_quotient_or_none,
    gcd_rational,
    reciprocal,
    remainder_mod_cyclotomic,
    substitute_negate,
    to_text,
)

from oracles import (cyclotomic_by_division, product, school_mul,
                     subresultant_gcd)
from reference_fixtures import from_text

ONE = IntPolynomial.one()


def _objects(coeffs):
    """Coefficients as an object array, as ``modp.convolve`` takes them."""
    return np.array(coeffs, dtype=object)


def random_poly(rng, max_deg=20, coeff_bound=50, allow_zero=True):
    deg = int(rng.integers(0, max_deg + 1))
    coeffs = rng.integers(-coeff_bound, coeff_bound + 1, deg + 1)
    p = IntPolynomial(coeffs.tolist())
    if not allow_zero and p.is_zero:
        return ONE
    return p


def fraction_euclid_gcd(a, b):
    """Oracle: monic gcd over Q by plain Euclid on Fraction coefficients,
    returned as the primitive integer polynomial."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    fa, fb = trim(fa), trim(fb)
    while fb:
        if len(fa) < len(fb):
            fa, fb = fb, fa
        while len(fa) >= len(fb) and fa:
            c = fa[-1] / fb[-1]
            sh = len(fa) - len(fb)
            for i, bc in enumerate(fb):
                fa[sh + i] -= c * bc
            fa = trim(fa[:-1])
        fa, fb = fb, fa
    den = math.lcm(*[f.denominator for f in fa]) if fa else 1
    ints = [int(f * den) for f in fa]
    return IntPolynomial(ints).primitive_part()


class TestBasics:
    def test_canonical_form(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).is_zero
        assert IntPolynomial(()).degree == -1

    def test_product_of_conjugates(self):
        # (z + 1)(z - 1)
        conv = modp.convolve(_objects((1, 1)), _objects((-1, 1)))
        assert conv.tolist() == [-1, 0, 1]

    def test_multiply_by_zero(self):
        a = _objects((3, 1, 4))
        assert modp.convolve(a, _objects(())).size == 0
        assert not modp.convolve(a, _objects((0,))).any()

    def test_immutability(self):
        a = IntPolynomial((1, 2))
        with pytest.raises(AttributeError):
            a.coeffs = (5,)

    def test_getitem_past_degree(self):
        assert IntPolynomial((1, 2))[10] == 0


class TestMultiplication:
    # The two "karatsuba" tests keep their names from the Karatsuba product
    # they were written for; all of these check modp.convolve on object
    # arrays, the product every command takes, against school_mul.
    def test_karatsuba_matches_schoolbook_500_pairs(self):
        # signed pairs of independent shapes, every tenth one with a zero
        # factor, coefficient sizes on both sides of the FFT bound
        rng = np.random.default_rng(0)
        for i in range(500):
            da, db = rng.integers(0, 65, 2)
            bits = int(rng.choice([1, 10, 30, 60]))
            a = IntPolynomial(rng.integers(-1000, 1001, da + 1).tolist())
            b = IntPolynomial([c << bits for c in
                               rng.integers(-1000, 1001, db + 1).tolist()])
            if i % 10 == 0:
                a = IntPolynomial.zero()
            # the zero polynomial's empty array gives the empty product
            expected = school_mul(a.coeffs, b.coeffs) \
                if a.coeffs and b.coeffs else []
            ca, cb = _objects(a.coeffs), _objects(b.coeffs)
            assert modp.convolve(ca, cb).tolist() == expected
            assert modp.convolve(cb, ca).tolist() == expected

    def test_karatsuba_uneven_shapes(self):
        rng = np.random.default_rng(1)
        for da, db in [(200, 33), (33, 200), (128, 128), (97, 61), (0, 150)]:
            a = rng.integers(-99, 100, da + 1).tolist()
            b = rng.integers(-99, 100, db + 1).tolist()
            assert modp.convolve(_objects(a), _objects(b)).tolist() \
                == school_mul(a, b)

    def test_forty_bit_coefficients_take_the_exact_path(self):
        # 2**80 * 257 products are far beyond what the FFT bound admits
        rng = np.random.default_rng(12)
        for da, db in [(256, 256), (300, 17), (1, 1)]:
            a = rng.integers(-2 ** 40, 2 ** 40, da + 1).tolist()
            b = rng.integers(-2 ** 40, 2 ** 40, db + 1).tolist()
            conv = modp.convolve(_objects(a), _objects(b))
            assert conv.dtype == object  # the packer, not the FFT
            assert conv.tolist() == school_mul(a, b)

    def test_ring_axioms(self):
        # commutative, associative and distributive over the sum; a and b
        # are padded with zeros to one length, so a + b and the two
        # products add entry by entry
        conv = modp.convolve
        rng = np.random.default_rng(2)
        for _ in range(60):
            a, b, c = (random_poly(rng).coeffs for _ in range(3))
            n = max(len(a), len(b), 1)
            a, b = (_objects(p + (0,) * (n - len(p))) for p in (a, b))
            c = _objects(c or (0,))
            assert conv(a, b).tolist() == school_mul(a.tolist(), b.tolist())
            assert conv(a, b).tolist() == conv(b, a).tolist()
            assert conv(conv(a, b), c).tolist() == conv(a, conv(b, c)).tolist()
            assert conv(a + b, c).tolist() == (conv(a, c) + conv(b, c)).tolist()

    def test_square(self):
        # convolve(a, a) transforms its operand once
        one_one = _objects((1, 1))
        assert modp.convolve(one_one, one_one).tolist() == [1, 2, 1]
        empty = _objects(())
        assert modp.convolve(empty, empty).size == 0
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_poly(rng, max_deg=80, allow_zero=False).coeffs
            ca = _objects(a)
            assert modp.convolve(ca, ca).tolist() == school_mul(a, a)


class TestDivision:
    def test_exact_quotient(self):
        q, r = divrem_exact(IntPolynomial((-1, 0, 1)), IntPolynomial((-1, 1)))
        assert q == IntPolynomial((1, 1)) and r.is_zero

    def test_remainder(self):
        q, r = divrem_exact(IntPolynomial((1, 0, 1)), IntPolynomial((-1, 1)))
        assert q == IntPolynomial((1, 1)) and r == IntPolynomial((2,))

    def test_rejects_non_monic(self):
        with pytest.raises(NonMonicDivisorError):
            divrem_exact(IntPolynomial((1, 1)), IntPolynomial((1, 2)))

    def test_roundtrip_random_monic(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = random_poly(rng, max_deg=24)
            b_coeffs = rng.integers(-9, 10, int(rng.integers(1, 9))).tolist() + [1]
            b = IntPolynomial(b_coeffs)
            q, r = divrem_exact(a, b)
            qb = product(q, b)
            span = range(len(a.coeffs) + len(b.coeffs))
            assert IntPolynomial([qb[k] + r[k] for k in span]) == a
            assert r.degree < b.degree

    def test_divides(self):
        b = IntPolynomial((-1, 1))
        assert divrem_exact(IntPolynomial((-1, 0, 1)), b)[1].is_zero
        assert not divrem_exact(IntPolynomial((1, 0, 1)), b)[1].is_zero

    def test_exact_quotient_or_none_non_monic(self):
        a = product(IntPolynomial((1, 2)), IntPolynomial((-3, 0, 5)))
        assert exact_quotient_or_none(a, IntPolynomial((1, 2))) == IntPolynomial((-3, 0, 5))
        assert exact_quotient_or_none(IntPolynomial((1, 1, 1)), IntPolynomial((1, 2))) is None


def mobius_cyclotomic(n):
    """Oracle: Phi_n = prod_{d|n} (z^{n/d} - 1)^{mu(d)} via exact division."""
    def mu(k):
        out, rem = 1, k
        p = 2
        while p * p <= rem:
            if rem % p == 0:
                rem //= p
                if rem % p == 0:
                    return 0
                out = -out
            p += 1
        if rem > 1:
            out = -out
        return out

    num, den = ONE, ONE
    for d in range(1, n + 1):
        if n % d == 0:
            factor = IntPolynomial((-1,) + (0,) * (n // d - 1) + (1,))
            m = mu(d)
            if m == 1:
                num = product(num, factor)
            elif m == -1:
                den = product(den, factor)
    q, r = divrem_exact(num, den)
    assert r.is_zero
    return q


class TestCyclotomic:
    def test_first_two(self):
        assert cyclotomic(1) == IntPolynomial((-1, 1))
        assert cyclotomic(2) == IntPolynomial((1, 1))

    def test_twelve(self):
        assert cyclotomic(12) == IntPolynomial((1, 0, -1, 0, 1))

    def test_against_mobius_formula(self):
        for n in range(1, 61):
            assert cyclotomic(n) == mobius_cyclotomic(n)

    def test_matches_divisor_chain_oracle(self):
        poly._division_data.cache_clear()
        poly._radical_arrays.cache_clear()
        for n in range(1, 1001):
            assert cyclotomic(n) == cyclotomic_by_division(n), n

    def test_degree_is_totient(self):
        def phi(n):
            v, rem, p = n, n, 2
            while p * p <= rem:
                if rem % p == 0:
                    v = v // p * (p - 1)
                    while rem % p == 0:
                        rem //= p
                p += 1
            if rem > 1:
                v = v // rem * (rem - 1)
            return v
        for n in range(1, 1001):
            assert cyclotomic(n).degree == phi(n)

    def test_self_reciprocal(self):
        for n in range(2, 1001):
            assert reciprocal(cyclotomic(n)) == cyclotomic(n)
        assert reciprocal(cyclotomic(1)) == IntPolynomial((1, -1))

    def test_composed_with_square(self):
        # Phi_N(z^2) is the forced cyclotomic part of F_N that the quotient
        # certificates divide out at half degree
        for n in range(1, 301):
            want = cyclotomic(2 * n)
            if n % 2:
                want = product(cyclotomic(n), want)
            assert cyclotomic(n).compose_square() == want, n


class TestReciprocal:
    def test_examples(self):
        assert reciprocal(IntPolynomial((3, 0, 2))) == IntPolynomial((2, 0, 3))
        assert reciprocal(IntPolynomial((1, 1))) == IntPolynomial((1, 1))

    def test_involution_off_origin(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_poly(rng, allow_zero=False)
            if a[0] == 0:
                a = IntPolynomial((1,) + a.coeffs[1:])
            assert reciprocal(reciprocal(a)) == a

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal(IntPolynomial.zero())


class TestRemainderModCyclotomic:
    def test_z4_mod_phi4(self):
        assert remainder_mod_cyclotomic(IntPolynomial((0, 0, 0, 0, 1)), 4) == ONE

    def test_multiple_vanishes(self):
        rng = np.random.default_rng(6)
        for M in (1, 2, 5, 12, 30):
            q = random_poly(rng, max_deg=15, allow_zero=False)
            assert remainder_mod_cyclotomic(product(cyclotomic(M), q), M).is_zero

    def test_matches_divrem(self):
        rng = np.random.default_rng(7)
        for M in (3, 8, 15, 36):
            for _ in range(10):
                a = random_poly(rng, max_deg=60)
                assert remainder_mod_cyclotomic(a, M) == divrem_exact(a, cyclotomic(M))[1]

    def test_matches_divrem_on_int64_folds_to_240(self):
        rng = np.random.default_rng(8)
        for M in range(1, 241):
            # a fold of M entries, and a longer array folded first
            for size in (M, int(rng.integers(M + 1, 4 * M + 1))):
                a = rng.integers(-2 ** 40, 2 ** 40, size=size)
                expected = divrem_exact(IntPolynomial(a.tolist()), cyclotomic(M))[1]
                assert remainder_mod_cyclotomic(a, M) == expected, (M, size)

    @staticmethod
    def _convolve_dtypes(monkeypatch) -> list:
        seen = []
        convolve = modp.convolve

        def spy(a, b, bound=None):
            out = convolve(a, b, bound)
            seen.append((a.dtype, out.dtype))
            return out

        monkeypatch.setattr(modp, "convolve", spy)
        return seen

    @pytest.mark.parametrize("M", [2, 3, 12, 30, 105, 165, 210, 240])
    def test_int64_path_up_to_its_guard(self, monkeypatch, M):
        # (fold, product) dtypes of the two convolve calls: small entries
        # stay int64; a fold entry of 2**53 is past convolve's exact gate,
        # so the products are packed Python ints; the fold itself stays
        # int64 below 2**62 = rows * max|a|
        i8, obj = np.dtype(np.int64), np.dtype(object)
        rng = np.random.default_rng(M)
        for peak, fold_dtype, product_dtype in (
                (2 ** 20, i8, i8), (2 ** 52, i8, obj),
                (2 ** 61 - 1, i8, obj), (2 ** 61, obj, obj)):
            # two rows folded onto each other, extremes of both signs
            a = rng.integers(-peak, peak + 1, size=2 * M)
            a[rng.integers(0, 2 * M, size=M)] = peak
            a[[M - 1, 2 * M - 1]] = peak
            a[0] = -peak
            seen = self._convolve_dtypes(monkeypatch)
            got = remainder_mod_cyclotomic(a, M)
            monkeypatch.undo()
            assert seen == [(fold_dtype, product_dtype),
                            (product_dtype, product_dtype)], (M, peak)
            assert got == divrem_exact(IntPolynomial(a.tolist()), cyclotomic(M))[1]

    def test_remainder_past_int64_is_exact(self):
        # 2**62 - (-2**62) = 2**63: int64 inputs whose remainder wraps in int64
        a = np.array([2 ** 62, 0, -2 ** 62], dtype=np.int64)
        assert remainder_mod_cyclotomic(a, 3) == IntPolynomial((2 ** 63, 2 ** 62))

    def test_python_int_coefficients_past_int64(self):
        rng = np.random.default_rng(9)
        for M in (1, 2, 3, 12, 30, 105, 240):
            coeffs = [int(c) * 2 ** 64 + int(c) for c in
                      rng.integers(-2 ** 20, 2 ** 20, size=3 * M)]
            coeffs[0] = 2 ** 63
            a = IntPolynomial(coeffs)
            expected = divrem_exact(a, cyclotomic(M))[1]
            assert remainder_mod_cyclotomic(a, M) == expected
            assert remainder_mod_cyclotomic(np.array(coeffs, dtype=object),
                                            M) == expected

    @pytest.mark.parametrize("M", [1, 2, 6])
    def test_empty_and_zero_inputs(self, M):
        for a in (IntPolynomial.zero(), np.zeros(0, dtype=np.int64),
                  np.zeros(3 * M, dtype=np.int64)):
            assert remainder_mod_cyclotomic(a, M).is_zero

    def test_indices_one_and_two(self):
        a = IntPolynomial((5, -3, 7, 2))
        # mod z - 1 the value at 1, mod z + 1 the value at -1
        assert remainder_mod_cyclotomic(a, 1) == IntPolynomial((11,))
        assert remainder_mod_cyclotomic(a, 2) == IntPolynomial((13,))
        assert remainder_mod_cyclotomic(IntPolynomial((4, 4)), 2).is_zero

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            remainder_mod_cyclotomic(ONE, 0)

    def test_cofactor_times_cyclotomic_is_binomial(self):
        # Psi_n is -neg_psi of _division_data with its top 1 restored; the
        # empty -Psi_1 leaves Psi_1 = 1
        for n in range(1, 241):
            neg_psi = poly._division_data(n)[2]
            psi = IntPolynomial((-neg_psi).tolist() + [1])
            if n == 1:
                assert psi == ONE
            assert product(psi, cyclotomic(n)) == \
                IntPolynomial((-1,) + (0,) * (n - 1) + (1,)), n


class TestCyclotomicQuotient:
    """``cyclotomic_quotient_or_none`` against the long division
    ``divrem_exact`` by ``cyclotomic(M)``."""

    # primes, prime powers, squarefree and non-squarefree composites
    INDICES = [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 25, 27, 30, 32, 36,
               42, 45, 49, 53, 59, 60]

    @staticmethod
    def _oracle(a: IntPolynomial, M: int) -> IntPolynomial | None:
        q, r = divrem_exact(a, cyclotomic(M))
        return q if r.is_zero else None

    def test_exact_multiples_give_the_cofactor(self):
        rng = np.random.default_rng(11)
        for M in range(2, 61):
            for _ in range(4):
                b = random_poly(rng, max_deg=int(rng.integers(0, 3 * M)),
                                allow_zero=False)
                a = product(b, cyclotomic(M))
                assert self._oracle(a, M) == b
                assert cyclotomic_quotient_or_none(a, M) == b, M
                assert cyclotomic_quotient_or_none(
                    np.array(a.coeffs, dtype=np.int64), M) == b, M

    def test_one_coefficient_moved_gives_none(self):
        rng = np.random.default_rng(12)
        for M in range(2, 61):
            for _ in range(4):
                b = random_poly(rng, max_deg=2 * M, allow_zero=False)
                cs = list(product(b, cyclotomic(M)).coeffs)
                k = int(rng.integers(0, len(cs)))
                cs[k] += int(rng.choice([-3, -1, 1, 2]))
                a = IntPolynomial(cs)
                assert self._oracle(a, M) is None
                assert cyclotomic_quotient_or_none(a, M) is None, (M, k)
                assert cyclotomic_quotient_or_none(
                    np.array(cs, dtype=np.int64), M) is None, (M, k)

    def test_below_totient_degree_and_zero(self):
        rng = np.random.default_rng(13)
        for M in self.INDICES:
            m = cyclotomic(M).degree
            for deg in range(m):
                a = IntPolynomial(rng.integers(-9, 10, size=deg).tolist() + [1])
                assert cyclotomic_quotient_or_none(a, M) is None, (M, deg)
            for zero in (IntPolynomial.zero(), np.zeros(0, dtype=np.int64),
                         np.zeros(3 * M, dtype=np.int64)):
                assert cyclotomic_quotient_or_none(zero, M) == \
                    IntPolynomial.zero()

    def test_trailing_zeros_in_an_array(self):
        b = IntPolynomial((3, -1, 4))
        for M in self.INDICES:
            cs = list(product(b, cyclotomic(M)).coeffs) + [0] * M
            assert cyclotomic_quotient_or_none(
                np.array(cs, dtype=np.int64), M) == b

    def test_entries_past_2_53_take_the_packed_product(self, monkeypatch):
        rng = np.random.default_rng(14)
        for M in self.INDICES:
            b = IntPolynomial([int(c) * 2 ** 60 + int(c) for c in
                               rng.integers(-2 ** 20, 2 ** 20, size=2 * M)])
            a = product(b, cyclotomic(M))
            cs = list(a.coeffs)
            cs[M] += 1
            moved = IntPolynomial(cs)
            seen = TestRemainderModCyclotomic._convolve_dtypes(monkeypatch)
            got = [cyclotomic_quotient_or_none(a, M),
                   cyclotomic_quotient_or_none(
                       np.array(a.coeffs, dtype=object), M),
                   cyclotomic_quotient_or_none(moved, M)]
            monkeypatch.undo()
            assert [out for _, out in seen] == [np.dtype(object)] * 3, M
            assert got == [b, b, None], M
            assert self._oracle(a, M) == b and self._oracle(moved, M) is None

    def test_running_sum_past_int64_is_exact(self, monkeypatch):
        # b alternates in sign and its magnitudes rise as a tent to
        # 8191 * 2**51: a = b * Phi_2 has entries of 2**51 and a direct
        # int64 product, but the running sums down its 8192 rows reach -b,
        # past int64
        n, c = 2 ** 13 - 1, 2 ** 51
        b = IntPolynomial([(-1) ** k * min(k + 1, 2 * n - k) * c
                           for k in range(2 * n)])
        a = product(b, cyclotomic(2))
        assert max(map(abs, a.coeffs)) == c
        assert max(map(abs, b.coeffs)) >= 2 ** 63
        seen = TestRemainderModCyclotomic._convolve_dtypes(monkeypatch)
        got = cyclotomic_quotient_or_none(np.array(a.coeffs, dtype=np.int64), 2)
        monkeypatch.undo()
        assert seen == [(np.dtype(np.int64), np.dtype(np.int64))]
        assert got == b
        moved = np.array(a.coeffs, dtype=np.int64)
        moved[n] += 1
        assert cyclotomic_quotient_or_none(moved, 2) is None

    @pytest.mark.parametrize("M", [1, 0, -3])
    def test_rejects_index_below_two(self, M):
        with pytest.raises(ValueError):
            cyclotomic_quotient_or_none(IntPolynomial((1, 1)), M)


class TestGcd:
    def test_shared_linear_factor(self):
        a = IntPolynomial((-1, 0, 1))        # (z-1)(z+1)
        b = IntPolynomial((1, -2, 1))        # (z-1)^2
        assert gcd_rational(a, b) == IntPolynomial((-1, 1))

    def test_gcd_with_zero(self):
        a = IntPolynomial((2, 4, 6))
        assert gcd_rational(a, IntPolynomial.zero()) == IntPolynomial((1, 2, 3))

    def test_coprime_is_one(self):
        assert gcd_rational(IntPolynomial((1, 0, 1)), IntPolynomial((-2, 1))) == ONE

    def test_against_fraction_euclid(self):
        rng = np.random.default_rng(8)
        for _ in range(80):
            g = random_poly(rng, max_deg=6, coeff_bound=5, allow_zero=False)
            a = product(g, random_poly(rng, max_deg=8, allow_zero=False))
            b = product(g, random_poly(rng, max_deg=8, allow_zero=False))
            if a.is_zero and b.is_zero:
                continue
            assert gcd_rational(a, b) == fraction_euclid_gcd(a, b)

    def test_modular_path_matches_prs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_poly(rng, max_deg=10, coeff_bound=8, allow_zero=False)
            a = product(g, random_poly(rng, max_deg=30, allow_zero=False))
            b = product(g, random_poly(rng, max_deg=30, allow_zero=False))
            if a.degree < 1 or b.degree < 1:
                continue
            pa, pb = a.primitive_part(), b.primitive_part()
            if pa.degree < pb.degree:
                pa, pb = pb, pa
            prs = subresultant_gcd(pa, pb).primitive_part()
            assert poly._modular_gcd(pa, pb) == prs

    def test_huge_coefficients_at_low_degree(self):
        # a gcd coefficient of 2**4000 needs more than a hundred word primes
        g = IntPolynomial((2 ** 4000 + 1, -7, 3))
        for other in (IntPolynomial((1, 1)), IntPolynomial((-5, 0, 2))):
            a, b = product(g, other), product(g, IntPolynomial((2, 1)))
            assert gcd_rational(a, b) == subresultant_gcd(a, b).primitive_part() == g

    @pytest.mark.parametrize("a, b, want", [
        pytest.param((0, 1), (2 ** 31 - 1, 1), (1,), id="coprime"),
        pytest.param((0, 2, 1), (2 * (2 ** 31 - 1), 2 ** 31 + 1, 1), (2, 1),
                     id="linear"),
    ])
    def test_first_prime_unlucky(self, a, b, want):
        # modulo 2**31 - 1, the first prime tried, the image has too high a
        # degree; its candidate fails trial division and the next prime
        # gives the gcd
        assert gcd_rational(IntPolynomial(a), IntPolynomial(b)) == \
            IntPolynomial(want)

    def test_small_gcd_from_one_image(self, monkeypatch):
        calls = []
        image_gcd = modp.gcd

        def counting(*args):
            calls.append(args)
            return image_gcd(*args)

        monkeypatch.setattr(modp, "gcd", counting)
        a = IntPolynomial((-1, 0, 1))        # (z-1)(z+1)
        b = IntPolynomial((1, -2, 1))        # (z-1)^2
        assert gcd_rational(a, b) == IntPolynomial((-1, 1))
        assert len(calls) == 1

    def test_gcd_of_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            gcd_rational(IntPolynomial.zero(), IntPolynomial.zero())


class TestEvaluationAndSymmetry:
    def test_substitute_negate(self):
        assert substitute_negate(IntPolynomial((0, 1, 1))) == IntPolynomial((0, -1, 1))

    def test_even_part(self):
        # g(z**2) == a for g the even coefficients of an even a
        a = IntPolynomial((1, 0, -2, 0, 5))
        assert IntPolynomial(a.coeffs[0::2]).compose_square() == a
        assert IntPolynomial((7,)).compose_square() == IntPolynomial((7,))
        assert IntPolynomial.zero().compose_square().is_zero


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = random_poly(rng)
            assert from_text(to_text(a)) == a

    def test_zero(self):
        assert to_text(IntPolynomial.zero()) == "0"
        assert from_text("0").is_zero

    def test_bad_text(self):
        with pytest.raises(ValueError):
            from_text("")
        with pytest.raises(ValueError):
            from_text("1 a 2")


class TestContent:
    def test_primitive_part_sign(self):
        assert IntPolynomial((2, -4)).primitive_part() == IntPolynomial((-1, 2))
        assert IntPolynomial((-2, -4)).primitive_part() == IntPolynomial((1, 2))

    def test_content(self):
        assert IntPolynomial((6, 9, 12)).content() == 3
