import math
from fractions import Fraction

import numpy as np
import pytest

from goldpoly import modp, poly
from goldpoly.poly import (
    IntPolynomial,
    NonMonicDivisorError,
    cyclotomic,
    divrem_exact,
    exact_quotient_or_none,
    gcd_rational,
    multiply,
    reciprocal,
    remainder_mod_cyclotomic,
    substitute_negate,
    to_text,
)

from oracles import cyclotomic_by_division, school_mul, subresultant_gcd
from reference_fixtures import from_text

Z = IntPolynomial((0, 1))
ONE = IntPolynomial.one()


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
        assert multiply(Z + ONE, Z - ONE) == IntPolynomial((-1, 0, 1))

    def test_multiply_by_zero(self):
        a = IntPolynomial((3, 1, 4))
        assert multiply(a, IntPolynomial.zero()).is_zero

    def test_immutability(self):
        a = IntPolynomial((1, 2))
        with pytest.raises(AttributeError):
            a.coeffs = (5,)

    def test_getitem_past_degree(self):
        assert IntPolynomial((1, 2))[10] == 0


class TestMultiplication:
    # The two "karatsuba" tests keep their names from the Karatsuba product
    # they were written for; both now check modp.convolve through multiply.
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
            expected = IntPolynomial(school_mul(a.coeffs, b.coeffs)) \
                if a.coeffs and b.coeffs else IntPolynomial.zero()
            assert multiply(a, b) == expected
            assert multiply(b, a) == expected

    def test_karatsuba_uneven_shapes(self):
        rng = np.random.default_rng(1)
        for da, db in [(200, 33), (33, 200), (128, 128), (97, 61), (0, 150)]:
            a = IntPolynomial(rng.integers(-99, 100, da + 1).tolist())
            b = IntPolynomial(rng.integers(-99, 100, db + 1).tolist())
            assert multiply(a, b).coeffs == tuple(school_mul(a.coeffs, b.coeffs))

    def test_forty_bit_coefficients_take_the_exact_path(self):
        # 2**80 * 257 products are far beyond what the FFT bound admits
        rng = np.random.default_rng(12)
        for da, db in [(256, 256), (300, 17), (1, 1)]:
            a = IntPolynomial(rng.integers(-2 ** 40, 2 ** 40, da + 1).tolist())
            b = IntPolynomial(rng.integers(-2 ** 40, 2 ** 40, db + 1).tolist())
            conv = modp.convolve(np.array(a.coeffs, dtype=object),
                                 np.array(b.coeffs, dtype=object))
            assert conv.dtype == object  # the packer, not the FFT
            assert multiply(a, b).coeffs == tuple(school_mul(a.coeffs, b.coeffs))

    def test_ring_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)

    def test_square(self):
        # multiply(a, a) transforms its operand once
        assert multiply(Z + ONE, Z + ONE) == IntPolynomial((1, 2, 1))
        assert multiply(IntPolynomial.zero(), IntPolynomial.zero()).is_zero
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_poly(rng, max_deg=80, allow_zero=False)
            assert multiply(a, a).coeffs == tuple(school_mul(a.coeffs, a.coeffs))


class TestDivision:
    def test_exact_quotient(self):
        q, r = divrem_exact(IntPolynomial((-1, 0, 1)), IntPolynomial((-1, 1)))
        assert q == Z + ONE and r.is_zero

    def test_remainder(self):
        q, r = divrem_exact(IntPolynomial((1, 0, 1)), IntPolynomial((-1, 1)))
        assert q == Z + ONE and r == IntPolynomial((2,))

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
            assert multiply(q, b) + r == a
            assert r.degree < b.degree

    def test_divides(self):
        b = IntPolynomial((-1, 1))
        assert divrem_exact(IntPolynomial((-1, 0, 1)), b)[1].is_zero
        assert not divrem_exact(IntPolynomial((1, 0, 1)), b)[1].is_zero

    def test_exact_quotient_or_none_non_monic(self):
        a = multiply(IntPolynomial((1, 2)), IntPolynomial((-3, 0, 5)))
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
                num = multiply(num, factor)
            elif m == -1:
                den = multiply(den, factor)
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
        poly._cyclo_memo.clear()
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
        assert reciprocal(cyclotomic(1)) == -cyclotomic(1)

    def test_composed_with_square(self):
        # Phi_N(z^2) is the forced cyclotomic part of F_N that the quotient
        # certificates divide out at half degree
        for n in range(1, 301):
            want = cyclotomic(2 * n)
            if n % 2:
                want = multiply(cyclotomic(n), want)
            assert cyclotomic(n).compose_square() == want, n


class TestReciprocal:
    def test_examples(self):
        assert reciprocal(IntPolynomial((3, 0, 2))) == IntPolynomial((2, 0, 3))
        assert reciprocal(Z + ONE) == Z + ONE

    def test_involution_off_origin(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_poly(rng, allow_zero=False)
            if a[0] == 0:
                a = a + ONE
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
            assert remainder_mod_cyclotomic(multiply(cyclotomic(M), q), M).is_zero

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
        for n in range(1, 241):
            psi = IntPolynomial(poly._moebius_binomials(n, True))
            assert multiply(psi, cyclotomic(n)) == \
                IntPolynomial((-1,) + (0,) * (n - 1) + (1,)), n


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
            a = multiply(g, random_poly(rng, max_deg=8, allow_zero=False))
            b = multiply(g, random_poly(rng, max_deg=8, allow_zero=False))
            if a.is_zero and b.is_zero:
                continue
            assert gcd_rational(a, b) == fraction_euclid_gcd(a, b)

    def test_modular_path_matches_prs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_poly(rng, max_deg=10, coeff_bound=8, allow_zero=False)
            a = multiply(g, random_poly(rng, max_deg=30, allow_zero=False))
            b = multiply(g, random_poly(rng, max_deg=30, allow_zero=False))
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
            a, b = multiply(g, other), multiply(g, IntPolynomial((2, 1)))
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
