import numpy as np
import pytest

from goldpoly import factor, modp
from goldpoly.factor import (
    BadPrimeError,
    certify_even,
    certify_goldbach_quotient,
    certify_irreducible,
    distinct_degree_pattern,
    excludes_mirror_split,
    linear_root_screen,
    reduce_mod_p,
)
from goldpoly.goldbach import goldbach_polynomial
from goldpoly.poly import IntPolynomial, cyclotomic, divrem_exact, multiply

from reference_fixtures import quotient_polynomial


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


class TestScreen:
    def test_finds_unit_root(self):
        res = linear_root_screen(IntPolynomial((-1, 0, 1)))
        assert res.kind == "linear"
        assert res.factor == IntPolynomial((-1, 1))

    def test_no_rational_root(self):
        assert linear_root_screen(IntPolynomial((1, 0, 1))).kind == "none"

    def test_imprimitive_reported_as_content(self):
        res = linear_root_screen(IntPolynomial((2, 2)))
        assert res.kind == "content"
        assert res.content == 2

    def test_root_at_origin(self):
        res = linear_root_screen(IntPolynomial((0, 1, 1)))
        assert res.kind == "linear"
        assert res.factor == IntPolynomial((0, 1))

    def test_non_monic_rational_root(self):
        # (2z-1)(z^2+z+1)
        f = multiply(IntPolynomial((-1, 2)), IntPolynomial((1, 1, 1)))
        res = linear_root_screen(f)
        assert res.kind == "linear"
        assert res.factor == IntPolynomial((-1, 2))


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
            prod = multiply(a, b).primitive_part()
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
        f = multiply(IntPolynomial((1, 0, 1)), IntPolynomial((1, 0, 1)))
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
        assert q.even_part() == g
        cert = certify_even(q)
        assert cert.verdict != "Irreducible"
        assert cert.degree == q.degree

    def test_nonsquare_norm_lifts_without_split_test(self):
        # z^2 + 3: g = z + 3 has norm -3
        cert = certify_even(IntPolynomial((3, 0, 1)))
        assert cert.verdict == "Irreducible"
        assert cert.degree == 2

    def test_rejects_odd_or_imprimitive(self):
        with pytest.raises(ValueError):
            certify_even(IntPolynomial((1, 1, 1)))
        with pytest.raises(ValueError):
            certify_even(IntPolynomial((2, 0, 4)))

    def test_split_test_fires_for_odd_quotients(self, small_table,
                                                monkeypatch):
        # no fallback to certify_irreducible(q): the lift alone must certify
        def no_fallback(*args, **kwargs):
            raise AssertionError("fell back to the certificate of q")

        monkeypatch.setattr(factor, "certify_irreducible", no_fallback)
        for N in range(7, 22, 2):
            cert = certify_goldbach_quotient(N, small_table)
            assert cert.verdict == "Irreducible"
            divisor = multiply(cyclotomic(N), cyclotomic(2 * N))
            q, _ = divrem_exact(goldbach_polynomial(N, small_table), divisor)
            g = q.even_part()
            assert any(excludes_mirror_split(g, p, distinct_degree_pattern(
                reduce_mod_p(g, p), p)) for p in cert.primes_used)
