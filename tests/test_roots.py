import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from goldpoly import arith, roots
from goldpoly.goldbach import goldbach_cofactor, goldbach_polynomial
from goldpoly.poly import (
    IntPolynomial,
    cyclotomic,
    gcd_rational,
    reciprocal,
)
from goldpoly.roots import (
    aberth_solve,
    classify_roots,
    strip_unit_circle_part,
    unit_circle_count_report,
)

from conftest import (
    even_part,
    multiset_distance,
    numeric_roots,
    requires_long,
    solved_cofactor,
)
from oracles import (
    aberth_all_points,
    horner_ratio_and_residual,
    horner_triple,
    product,
    schur_cohn_inside,
)
from reference_fixtures import ROOT_TABLE


def _cofactor_even_part(N, table):
    """The polynomial classify_roots hands to the solver for F_N's cofactor."""
    return goldbach_cofactor(N, table)


def _no_reciprocal_pair(P):
    """True when no root of P has its inverse as a root too: none on the
    circle, and no pair w, 1/w."""
    return gcd_rational(P, reciprocal(P)).degree == 0


def _random_polynomials():
    rng = np.random.default_rng(20)
    for degree in (20, 45, 80, 130, 200):
        coeffs = rng.integers(-1000, 1001, degree + 1).tolist()
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or 1
        yield IntPolynomial(coeffs)


def _record_evaluator(monkeypatch, poison_first=False):
    """Record how many points each sweep hands to the p/p' evaluator; with
    ``poison_first``, the first point's ratio on the first sweep is NaN."""
    counts = []
    evaluate = roots._newton_ratio

    def recording(coeffs, z):
        w = evaluate(coeffs, z)
        if poison_first and not counts:
            w[0] = complex("nan")
        counts.append(len(z))
        return w

    monkeypatch.setattr(roots, "_newton_ratio", recording)
    return counts


class TestAberth:
    def test_conjugate_pair(self):
        res = aberth_solve(IntPolynomial((-1, 0, 1)))
        got = sorted(res.roots.real.tolist())
        assert abs(got[0] + 1) < 1e-12 and abs(got[1] - 1) < 1e-12
        assert abs(res.roots.imag).max() < 1e-12

    def test_twelfth_cyclotomic_on_circle(self):
        res = aberth_solve(cyclotomic(12))
        assert np.abs(np.abs(res.roots) - 1).max() < 1e-12

    def test_random_degree_50_residuals(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            coeffs = rng.integers(-1000, 1001, 51).tolist()
            coeffs[-1] = coeffs[-1] or 1
            coeffs[0] = coeffs[0] or 1
            res = aberth_solve(IntPolynomial(coeffs), seed=trial)
            assert res.max_residual < 1e-8

    def test_roots_at_origin_split_off(self):
        # z^2 * (z - 1)
        res = aberth_solve(IntPolynomial((0, 0, -1, 1)))
        mags = sorted(np.abs(res.roots))
        assert mags[0] == mags[1] == 0.0
        assert abs(mags[2] - 1) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        p = IntPolynomial((3, -2, 0, 0, 7, 1))
        a = aberth_solve(p, seed=42).roots
        b = aberth_solve(p, seed=42).roots
        assert np.array_equal(a, b)

    def test_frozen_points_match_oracle(self, small_table):
        polys = list(_random_polynomials())
        polys += [_cofactor_even_part(N, small_table) for N in range(6, 17)]
        for p in polys:
            for seed in range(3):
                got = aberth_solve(p, seed=seed)
                want = aberth_all_points(p, seed=seed)
                assert multiset_distance(got.roots, want.roots) < 1e-9, (
                    p.degree, seed)
                # the loop ended with every point frozen
                assert got.iterations < roots._MAX_ITER

    def test_converged_points_are_not_re_evaluated(self, small_table,
                                                   monkeypatch):
        g = _cofactor_even_part(20, small_table)
        counts = _record_evaluator(monkeypatch)
        res = aberth_solve(g)
        # the first sweep evaluates one point of each conjugate pair and the
        # unpaired point, d - floor(d / 2) in all
        assert len(counts) == res.iterations
        assert counts[0] == g.degree - g.degree // 2
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert sum(counts) < 0.35 * g.degree * res.iterations

    def test_conjugate_pairs_are_solved_once(self, small_table):
        # the lower point of each pair is the exact conjugate of the upper
        # one and carries its radius; a sweep that takes an upper point
        # across the real axis frees the pairs still active (here at
        # N = 14, 19 and 21), and every other solve keeps all floor(d/2)
        intact = []
        for N in range(6, 25):
            g = _cofactor_even_part(N, small_table)
            res = aberth_solve(g, seed=N)
            radius = dict(zip(res.roots.tolist(), res.radii.tolist()))
            assert len(radius) == g.degree, N
            pairs = [z for z in radius
                     if z.imag > 0 and z.conjugate() in radius]
            assert all(radius[z.conjugate()] == radius[z] for z in pairs), N
            assert multiset_distance(res.roots, res.roots.conj()) < 1e-9, N
            if len(pairs) == g.degree // 2:
                intact.append(N)
        assert len(intact) == 16

    def test_no_mirror_lands_on_a_free_point(self, small_table):
        # a mirror moves as the conjugate of its upper point, which is the
        # Aberth step only while the points form a conjugate-symmetric set;
        # freeing just the pair that crossed the axis broke that, and at
        # these seeds (the CLI's for N = 23, 57 at --seed 2) a mirror ran
        # onto a frozen free point, leaving two discs undetermined
        for N, seed in ((23, 2_000_029), (57, 2_000_063)):
            res = aberth_solve(_cofactor_even_part(N, small_table), seed=seed)
            assert roots._isolated(res.roots, res.radii).all(), N

    def test_non_finite_correction_keeps_point_active(self, small_table,
                                                      monkeypatch):
        # a NaN ratio gives the point a non-finite correction: it must be
        # jittered and solved, never frozen where it stands
        g = _cofactor_even_part(12, small_table)
        _record_evaluator(monkeypatch, poison_first=True)
        res = aberth_solve(g)
        assert multiset_distance(res.roots, aberth_all_points(g).roots) < 1e-9
        assert res.max_residual < 1e-11


# d + 1 is a perfect square at 3, 8, 15, 24, and not a multiple of the
# block length L = isqrt(d) + 1 at 2, 117, 521
EVALUATOR_DEGREES = (1, 2, 3, 8, 15, 24, 117, 521)


def _test_points(rng, n):
    """Points inside, outside, exactly on and within 1e-9 of |z| = 1."""
    angles = 2 * np.pi * rng.random(n)
    radii = np.concatenate([rng.random(n) ** 0.5, 1 + 3 * rng.random(n),
                            1 + 1e-9 * (2 * rng.random(n) - 1)])
    circle = np.array([1, -1, 1j, -1j, 0.6 + 0.8j])
    return np.concatenate([radii * np.tile(np.exp(1j * angles), 3), circle])


def _exact_values(coeffs, x):
    """p(x) and p'(x) as pairs of Fractions, for integer or float
    coefficients and x a complex with dyadic parts: Horner's rule in
    integers over the common denominators C of the coefficients and D of
    x, where the running value after j coefficients carries C D^(j-1)."""
    cs = [Fraction(c) for c in coeffs]
    C = max(c.denominator for c in cs)
    xr, xi = Fraction(x.real), Fraction(x.imag)
    D = max(xr.denominator, xi.denominator)
    a, b = int(xr * D), int(xi * D)
    pr = pi = dr = di = 0
    scale = C
    for c in cs[::-1]:
        dr, di = dr * a - di * b + pr, dr * b + di * a + pi
        pr, pi = pr * a - pi * b + int(c * scale), pr * b + pi * a
        scale *= D
    den = scale // D
    return ((Fraction(pr, den), Fraction(pi, den)),
            (Fraction(dr * D, den), Fraction(di * D, den)))


class TestEvaluator:
    """Baby-step giant-step p/p' (``_bsgs_values``, ``_newton_ratio``)."""

    @pytest.mark.parametrize("d", EVALUATOR_DEGREES)
    def test_matches_horner_oracle(self, d):
        rng = np.random.default_rng(d)
        c = rng.standard_normal(d + 1)
        z = _test_points(rng, 12)
        got = roots._newton_ratio(c, z)
        want = horner_ratio_and_residual(c, z)[0]
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)
        for k in (0, len(z) - 1):
            assert np.allclose(roots._newton_ratio(c, z[k:k + 1]), want[k],
                               rtol=1e-9, atol=0.0)
        # each evaluation errs by a small multiple of d u sum |c_k| |x|^k
        inside = z[np.abs(z) <= 1.0]
        v, dv = roots._bsgs_values(roots._with_derivative(c), inside)
        hv, hdv, s = horner_triple(c, inside)
        assert np.all(np.abs(v - hv) <= 16 * (d + 1) * 2.0 ** -53 * s)
        assert np.allclose(dv, hdv, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("d", EVALUATOR_DEGREES)
    def test_rounding_bound_at_exact_powers(self, d):
        # the powers of these points are exact in binary floating point, so
        # the only error is that of the sums: 3 (L + nb) u sum |c_k| |x|^k
        rng = np.random.default_rng(100 + d)
        c = rng.integers(-9, 10, d + 1).astype(np.float64)
        c[-1] = c[-1] or 1.0
        x = np.array([0, 1, -1, 1j, -1j, 0.5, -0.5j, 0.5 + 0.5j,
                      -0.5 + 0.5j, 0.25 - 0.25j])
        L = math.isqrt(d) + 1
        nb = -(-(d + 1) // L)
        gamma = 3 * (L + nb) * 2.0 ** -53
        k = np.arange(d + 1)
        v, dv = roots._bsgs_values(roots._with_derivative(c), x)
        for i, xi in enumerate(x):
            ax = np.abs(xi) ** k
            bounds = (gamma * float(np.abs(c) @ ax),
                      gamma * float(np.abs(c[1:] * k[1:]) @ ax[:-1]))
            for got, want, bound in zip((v[i], dv[i]), _exact_values(c, xi),
                                        bounds):
                err2 = ((Fraction(got.real) - want[0]) ** 2
                        + (Fraction(got.imag) - want[1]) ** 2)
                assert err2 <= Fraction(bound) ** 2, (d, xi)


def _strip_product(sr):
    """cofactor * prod Phi_e^m, which must give back F."""
    return product(sr.cofactor, *(cyclotomic(e)
                                  for e, mult in sr.cyclotomic_factors
                                  for _ in range(mult)))


class TestStrip:
    def test_goldbach_six(self, small_table):
        F6 = goldbach_polynomial(6, small_table)
        sr = strip_unit_circle_part(F6)
        assert sr.cyclotomic_factors == [(12, 1)]
        assert _no_reciprocal_pair(sr.cofactor)
        assert _strip_product(sr) == F6

    def test_off_circle_reciprocal_pair(self):
        # (z-2)(2z-1): the gcd contains both roots but none on the circle,
        # so both stay in the cofactor
        F = IntPolynomial((2, -5, 2))
        sr = strip_unit_circle_part(F)
        assert sr.cofactor == F
        assert sr.cyclotomic_factors == []

    def test_cyclotomic_times_linear(self):
        F = product(cyclotomic(7), IntPolynomial((-3, 1)))
        sr = strip_unit_circle_part(F)
        assert sr.cofactor == IntPolynomial((-3, 1))
        assert sr.cyclotomic_factors == [(7, 1)]
        assert _strip_product(sr) == F

    def test_reciprocal_pair_stays_with_cofactor(self):
        # Phi_5 (w^2 - 3w + 1)(w - 3): the gcd with the reciprocal is
        # Phi_5 (w^2 - 3w + 1), whose pair (3 +- sqrt5)/2 is off the circle;
        # the one cofactor holds it beside w - 3, and one solve places all
        # three roots
        rest = product(IntPolynomial((1, -3, 1)), IntPolynomial((-3, 1)))
        sr = strip_unit_circle_part(product(cyclotomic(5), rest))
        assert sr.cyclotomic_factors == [(5, 1)]
        assert sr.cofactor == rest
        for seed in range(3):
            assert roots._solve_counts(sr.cofactor, seed=seed) == (0, 1, 2, 0)

    def test_rejects_root_at_origin(self):
        with pytest.raises(ValueError):
            strip_unit_circle_part(IntPolynomial((0, 1)))

    def test_even_part_strip_matches_full_degree(self, small_table):
        # classify_roots strips g, not F = g(z^2): the cofactor of F is
        # that of g composed with z^2, and the on-circle count
        # sum phi(d) m of F is twice that of g, whose factors are Phi_e(w)
        phi4_sq = product(cyclotomic(4), cyclotomic(4))
        polys = [goldbach_polynomial(N, small_table) for N in range(6, 19)]
        polys += [
            product(phi4_sq, IntPolynomial((2, 0, -5, 0, 2))),
            product(phi4_sq, cyclotomic(12), IntPolynomial((-3, 0, 1))),
            product(IntPolynomial((1, 0, 3)), IntPolynomial((1, 0, 3))),
            IntPolynomial((5, 0, 0, 0, 1)),
        ]
        for F in polys:
            assert F[0] != 0
            g = even_part(F)
            full, half = strip_unit_circle_part(F), strip_unit_circle_part(g)
            assert half.cofactor.compose_square() == full.cofactor, F
            assert _strip_product(full) == F and _strip_product(half) == g, F
            on = [sum(arith.euler_phi(d) * m for d, m in s.cyclotomic_factors)
                  for s in (full, half)]
            assert on[0] == 2 * on[1], F

    @pytest.mark.parametrize("partner", [reciprocal, IntPolynomial.derivative],
                             ids=["reciprocal", "derivative"])
    def test_half_degree_gcd_matches_full_degree(self, small_table, partner):
        # the gcds taken on g map to those of F = g(z^2) by z -> z^2:
        # reciprocal(F) = reciprocal(g)(z^2) and F' = 2z g'(z^2) with F(0) != 0
        phi4_sq = product(cyclotomic(4), cyclotomic(4))
        polys = [goldbach_polynomial(N, small_table) for N in range(6, 19)]
        polys += [
            product(phi4_sq, IntPolynomial((2, 0, -5, 0, 2))),
            product(phi4_sq, cyclotomic(12), IntPolynomial((-3, 0, 1))),
            product(IntPolynomial((1, 0, 3)), IntPolynomial((1, 0, 3))),
            IntPolynomial((5, 0, 0, 0, 1)),
        ]
        for F in polys:
            assert F[0] != 0
            g = even_part(F)
            assert (gcd_rational(g, partner(g)).compose_square()
                    == gcd_rational(F, partner(F))), F

    def test_repeated_cyclotomic_multiplicity(self):
        F = product(cyclotomic(4), cyclotomic(4), IntPolynomial((-2, 1)))
        sr = strip_unit_circle_part(F)
        assert sr.cyclotomic_factors == [(4, 2)]
        assert _strip_product(sr) == F


class TestClassification:
    @pytest.mark.parametrize("N, seed", [
        pytest.param(6, 0, id="6"),
        pytest.param(11, 0, id="11"),
        pytest.param(20, 0, id="20"),
    ] + [pytest.param(N, seed, id=f"{N}-seed{seed}")
         for N in range(21, 25) for seed in range(4)])
    def test_matches_root_table(self, small_table, N, seed):
        # the row depends on N alone; the seed moves only the fallback
        # solve, which converges at each
        rc = classify_roots(N, small_table)
        two_phi, inside, on, outside = ROOT_TABLE[N]
        assert (rc.inside, rc.on_circle, rc.outside) == (inside, on, outside)
        assert rc.undetermined == 0
        assert rc.inside + rc.on_circle + rc.outside + rc.undetermined == \
            goldbach_polynomial(N, small_table).degree
        assert solved_cofactor(N, small_table, seed).max_residual < 1e-8

    def test_rejects_small_N(self, small_table):
        with pytest.raises(ValueError):
            classify_roots(5, small_table)

    def test_conjecture_reports(self, small_table):
        rep7 = unit_circle_count_report(classify_roots(7, small_table))
        assert rep7.holds and rep7.witness["on_circle"] == 12
        rep12 = unit_circle_count_report(classify_roots(12, small_table))
        assert rep12.holds and rep12.witness["on_circle"] == 8

    def test_multiset_closures(self, small_table):
        pts = numeric_roots(11, small_table)
        # closed under conjugation and negation within tolerance
        for transform in (np.conj, np.negative):
            assert multiset_distance(pts, transform(pts)) < 1e-6

    def test_repeated_roots_handled(self, small_table):
        # classify a polynomial with a squared cyclotomic factor through the
        # same pipeline pieces: F = Phi_4^2 * (z-2) * (2z-1) has 4 circle
        # roots (multiplicity 2), one inside, one outside
        F = product(cyclotomic(4), cyclotomic(4), IntPolynomial((2, -5, 2)))
        # the double roots +-i lie on the circle, so the count declines and
        # the strip divides Phi_4^2 off: the circle roots are counted
        # exactly, never numerically, and the other two by the count
        assert roots._winding_count(F) is None
        assert roots._solve_counts(F, seed=0) == (4, 1, 1, 0)
        strip = strip_unit_circle_part(F)
        assert strip.cyclotomic_factors == [(4, 2)]
        assert strip.cofactor == IntPolynomial((2, -5, 2))
        assert roots._solve_counts(strip.cofactor, seed=0) == (0, 1, 1, 0)


class TestExactFallback:
    """The strip runs only where the count declines, and counts the
    cyclotomic roots on the circle exactly."""

    def test_cyclotomic_roots_are_counted_on_the_circle(self):
        # Phi_5 (w^2 - 3w + 1)(w - 3): the four roots of Phi_5 lie on the
        # circle, so the count declines and the strip divides Phi_5 off;
        # the pair (3 +- sqrt5)/2 and 3 are then counted
        rest = product(IntPolynomial((1, -3, 1)), IntPolynomial((-3, 1)))
        P = product(cyclotomic(5), rest)
        for seed in range(3):
            assert roots._solve_counts(P, seed=seed) == (4, 1, 2, 0)

    @pytest.mark.parametrize("P, counts", [
        (product(IntPolynomial((4, 3, 5)), IntPolynomial((4, 3, 5)),
                 IntPolynomial((-7, 2))), (0, 4, 1, 0)),
        (product(IntPolynomial((2, -5, 2)), IntPolynomial((2, -5, 2))),
         (0, 2, 2, 0)),
    ], ids=["double-pair-inside", "self-reciprocal-square"])
    def test_repeated_root_off_the_circle(self, P, counts):
        # (5w^2 + 3w + 4)^2 (2w - 7) and (2w^2 - 5w + 2)^2: the discs of a
        # double root overlap, but the count counts multiplicity, so no
        # root is left to the solver; the second is self-reciprocal
        assert roots._winding_count(P) == counts[1]
        for seed in range(3):
            assert roots._solve_counts(P, seed=seed) == counts

    @pytest.mark.parametrize("N", [6, 7, 12, 15])
    def test_extra_cyclotomic_factor_of_the_cofactor(self, monkeypatch,
                                                     small_table, N):
        # a cofactor carrying Phi_3 too: its two roots reach the strip and
        # are proved on the circle, beside the phi(N) of Phi_N
        plain = classify_roots(N, small_table)
        cofactor = roots.goldbach_cofactor
        monkeypatch.setattr(roots, "goldbach_cofactor",
                            lambda N, table: product(cofactor(N, table),
                                                     cyclotomic(3)))
        rc = classify_roots(N, small_table)
        assert rc.on_circle == 2 * (arith.euler_phi(N) + 2)
        assert rc.undetermined == 0
        assert (rc.inside, rc.outside) == (plain.inside, plain.outside)


def _float_coeffs(coeffs):
    """The float coefficients ``aberth_solve`` hands to the disc pass, and
    their scale: the largest integer coefficient in magnitude."""
    scale = max(abs(c) for c in coeffs)
    return np.array([float(x) / scale for x in coeffs]), scale


def _exact_gap2(got, num, den):
    """|got - (num[0] + i num[1]) / den|**2 as a Fraction."""
    return ((Fraction(got.real) - Fraction(num[0], den)) ** 2
            + (Fraction(got.imag) - Fraction(num[1], den)) ** 2)


def _linear_product(factors):
    """The integer polynomial prod (b w - a) for pairs (a, b), times the
    quadratics b**2 w**2 - 2 a b w + (a**2 + c**2), with roots (a +- ic)/b,
    for triples (a, b, c)."""
    polys = []
    for f in factors:
        if len(f) == 2:
            a, b = f
            polys.append(IntPolynomial((-a, b)))
        else:
            a, b, c = f
            polys.append(IntPolynomial((a * a + c * c, -2 * a * b, b * b)))
    return product(*polys)


def _known_roots(factors):
    out = []
    for f in factors:
        if len(f) == 2:
            out.append((Fraction(f[0], f[1]), Fraction(0)))
        else:
            a, b, c = f
            out += [(Fraction(a, b), Fraction(c, b)),
                    (Fraction(a, b), Fraction(-c, b))]
    return out


def _nearest_in_disc(res, want):
    """For each point of the solve, the index in want of its nearest known
    root, asserting exactly that the point's disc holds that root; an
    infinite disc holds every root and gives None."""
    nearest = []
    for z, r in zip(res.roots, res.radii):
        if not np.isfinite(r):
            nearest.append(None)
            continue
        zr, zi = Fraction(z.real), Fraction(z.imag)
        gaps = [(zr - wr) ** 2 + (zi - wi) ** 2 for wr, wi in want]
        k = min(range(len(want)), key=gaps.__getitem__)
        assert gaps[k] <= Fraction(float(r)) ** 2, (z, r, want[k])
        nearest.append(k)
    return nearest


def _known_root_cases():
    rng = np.random.default_rng(31)
    for trial in range(4):
        factors = [(int(rng.integers(-60, 61)) or 1, int(b))
                   for b in rng.choice([3, 7, 9, 11, 13, 17], 6)]
        factors += [(int(rng.integers(-40, 41)), int(b),
                     int(rng.integers(1, 30)))
                    for b in rng.choice([3, 7, 11, 13], 3)]
        yield factors
    # roots 1e-12 and 1e-15 from the circle, and one cluster of two
    yield [(10 ** 12 + 1, 10 ** 12), (10 ** 15, 10 ** 15 + 1), (1, 3),
           (2, 7, 5)]
    yield [(3, 7), (5, 7), (4, 7), (-6, 7), (1, 5, 3), (1, 5, 4)]


class TestInclusionDiscs:
    """The disc pass: rigorous evaluation bounds, radii, disjointness."""

    def test_evaluation_bounds_hold_exactly(self, small_table):
        # at dyadic points inside, outside, on and within 1e-9 of |z| = 1,
        # the bounds of _evaluate_with_bounds cover the distance from the
        # exact p(x) and p'(x) of the integer polynomial over its scale,
        # for p and for the reversed polynomial that points outside use
        rng = np.random.default_rng(5)
        polys = [_cofactor_even_part(N, small_table) for N in range(6, 17)]
        polys += list(_random_polynomials())[:3]
        for P in polys:
            for coeffs in (P.coeffs, P.coeffs[::-1]):
                c, scale = _float_coeffs(coeffs)
                x = _test_points(rng, 4)
                v, dv, ev, edv, s = roots._evaluate_with_bounds(c, x)
                assert np.all(ev > 0) and np.all(edv > 0)
                for k, xk in enumerate(x):
                    value, slope = _exact_values(coeffs, xk)
                    assert _exact_gap2(v[k], value, scale) <= \
                        Fraction(float(ev[k])) ** 2, (P.degree, xk)
                    assert _exact_gap2(dv[k], slope, scale) <= \
                        Fraction(float(edv[k])) ** 2, (P.degree, xk)

    @pytest.mark.parametrize("factors", list(_known_root_cases()))
    def test_discs_hold_the_known_roots(self, factors):
        # every disc holds a true root, compared exactly; disjoint discs
        # hold one each
        P = _linear_product(factors)
        want = _known_roots(factors)
        for seed in range(2):
            res = aberth_solve(P, seed=seed)
            nearest = _nearest_in_disc(res, want)
            if roots._isolated(res.roots, res.radii).all():
                assert sorted(nearest) == list(range(len(want)))

    def test_goldbach_discs_are_disjoint_and_off_the_circle(self, small_table):
        for N in range(6, 25):
            res = aberth_solve(_cofactor_even_part(N, small_table), seed=N)
            assert roots._isolated(res.roots, res.radii).all(), N
            assert res.radii.max() < 1e-8, N
            assert np.all(np.abs(np.abs(res.roots) - 1) > res.radii), N

    def test_isolated_matches_all_pairs(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(2, 300))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if trial % 3 == 0:
                # conjugate pairs share their real parts
                z[n // 2:] = np.conj(z[:n - n // 2])
            r = 10.0 ** rng.uniform(-8, -0.5, n)
            if trial % 4 == 1:
                # a few discs that touch exactly
                i, j = 0, 1
                r[j] = abs(z[i] - z[j]) - r[i] if abs(z[i] - z[j]) > r[i] \
                    else r[j]
            dist = np.abs(z[:, None] - z[None, :]) * roots._DOWN
            hit = dist <= (r[:, None] + r[None, :]) * roots._UP
            np.fill_diagonal(hit, False)
            assert np.array_equal(roots._isolated(z, r), ~hit.any(axis=1))
        # one infinite disc meets every other; a single disc is isolated
        z = np.array([0j, 5 + 0j, 10j])
        assert not roots._isolated(z, np.array([1e-9, np.inf, 1e-9])).any()
        assert roots._isolated(z[:1], np.array([np.inf])).all()

    def test_residual_matches_horner_oracle(self, small_table):
        # the disc pass's backward residual against the Horner loop it
        # replaced: both at the rounding floor
        g = _cofactor_even_part(14, small_table)
        res = aberth_solve(g, seed=3)
        c, _ = _float_coeffs(g.coeffs)
        got = roots._inclusion_radii(c, res.roots)[1]
        want = horner_ratio_and_residual(c, res.roots)[1]
        assert np.all(got < 1e-13) and np.all(want < 1e-13)
        assert res.max_residual == float(got.max())


def _solve_counts_sound(P, on, inside, outside, seed=0):
    """_solve_counts of P, checked against its true on-circle, inside and
    outside counts: never more roots on a side, or on the circle, than it
    has.  The counts are returned for the caller's own checks."""
    got_on, got_in, got_out, undet = roots._solve_counts(P, seed=seed)
    assert got_on <= on, (got_on, on)
    assert got_in <= inside and got_out <= outside, (got_in, got_out)
    assert got_on + got_in + got_out + undet == P.degree
    return got_on, got_in, got_out, undet


# a fixed cofactor: 1/3 and the roots of 5w^2 + 3w + 4 (|w|^2 = 4/5) inside,
# -7/2 outside
_FILLER = product(IntPolynomial((-1, 3)), IntPolynomial((7, 2)),
                  IntPolynomial((4, 3, 5)))


class TestSoundness:
    """No root ever lands on the wrong side of the circle."""

    @pytest.mark.parametrize("b, a, side, placed", [
        (10 ** 12, 10 ** 12 + 1, 1, True), (10 ** 12 + 1, 10 ** 12, -1, True),
        (10 ** 15, 10 ** 15 + 1, 1, False),
        (10 ** 15 + 1, 10 ** 15, -1, False),
        (3 * 10 ** 14, 3 * 10 ** 14 - 1, -1, False),
    ], ids=["1e-12-out", "1e-12-in", "1e-15-out", "1e-15-in", "3e-15-in"])
    def test_root_near_the_circle(self, b, a, side, placed):
        # b w - a has its root a/b within 1e-12 .. 1e-15 of |w| = 1; the
        # count places it at 1e-12, and below that, where the count
        # declines and the root's disc meets the circle, it alone is left
        # undetermined
        P = product(IntPolynomial((-a, b)), _FILLER)
        inside, outside = 3 + (side < 0), 1 + (side > 0)
        for seed in range(3):
            got = _solve_counts_sound(P, 0, inside, outside, seed)
            assert got[3] == (0 if placed else 1)
            if placed:
                assert got == (0, inside, outside, 0)

    @pytest.mark.parametrize("offset, on, inside, outside", [
        (1, 0, 0, 2), (-3, 0, 2, 0), (-1, 1, 1, 0), (-2, 0, 2, 0)],
        ids=["both-out", "both-in", "in-and-on", "both-in-close"])
    def test_near_double_root(self, offset, on, inside, outside):
        # (b w - a)(b w - a - 1) with b about 1e9: two roots 1e-9 apart at
        # most 3e-9 from the circle, one exactly on it for a = b - 1; for
        # a = b - 2 both, (b - 2)/b and (b - 1)/b, lie inside it
        b = 10 ** 9 + 7
        a = b + offset
        P = product(IntPolynomial((-a, b)), IntPolynomial((-a - 1, b)))
        for seed in range(3):
            _solve_counts_sound(P, on, inside, outside, seed)
            _solve_counts_sound(product(P, _FILLER), on, inside + 3,
                                outside + 1, seed)

    def test_self_reciprocal_factor_on_the_circle(self):
        # Lehmer's polynomial: self-reciprocal, not cyclotomic, 8 roots on
        # the circle and the Salem pair 1.17628..., 1/1.17628...; and
        # 2w^2 - w + 2, whose two roots lie on the circle
        lehmer = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
        strip = strip_unit_circle_part(lehmer)
        assert strip.cyclotomic_factors == [] and strip.cofactor == lehmer
        for seed in range(3):
            assert _solve_counts_sound(lehmer, 8, 1, 1, seed)[3] == 8
            assert _solve_counts_sound(IntPolynomial((2, -1, 2)), 2, 0, 0,
                                       seed) == (0, 0, 0, 2)
            assert _solve_counts_sound(product(lehmer, _FILLER), 8, 4, 2,
                                       seed)[3] == 8

    @pytest.mark.parametrize("paired_sweeps", [
        1, roots._PAIRED_SWEEPS, roots._MAX_ITER],
        ids=["freed-at-once", "default", "freed-by-crossing"])
    @pytest.mark.parametrize("factors", [
        [(k, 3) for k in range(-14, 15) if abs(k) != 3],
        [(s * k, 5) for k in range(1, 13) if k != 5 for s in (1, -1)],
        [(k, 40, 1) for k in range(-60, 61, 12)] + [(-2, 3), (1, 3), (4, 3)],
    ], ids=["3w-k", "25w2-k2", "near-axis-pairs"])
    def test_real_roots_free_conjugate_pairs(self, monkeypatch, factors,
                                             paired_sweeps):
        # products of 3w - k, of 25w^2 - k^2 = (5w - k)(5w + k), and of
        # pairs (k +- i)/40 next to real roots: the start points come in
        # conjugate pairs with at most one real point, so every further
        # real root is reached by points freed when an upper point crosses
        # the real axis; with _PAIRED_SWEEPS at _MAX_ITER nothing else
        # frees a pair
        monkeypatch.setattr(roots, "_PAIRED_SWEEPS", paired_sweeps)
        P = _linear_product(factors)
        inside = sum(wr * wr + wi * wi < 1 for wr, wi in _known_roots(factors))
        for seed in range(3):
            assert roots._count_sides(aberth_solve(P, seed=seed)) == (
                inside, P.degree - inside, 0)

    @pytest.mark.parametrize("factors", list(_known_root_cases()))
    def test_unconverged_solve_is_sound(self, monkeypatch, factors):
        # stopped after 1 to 8 sweeps, where no point can freeze, the
        # solve still returns: every finite disc holds a true root,
        # compared exactly, and the disc counts are lower bounds on each
        # side, the roots they miss left undetermined
        monkeypatch.setattr(roots, "_TOL", 1e-30)
        P = _linear_product(factors)
        want = _known_roots(factors)
        inside = sum(wr * wr + wi * wi < 1 for wr, wi in want)
        undetermined = 0
        for max_iter in (1, 2, 3, 5, 8):
            monkeypatch.setattr(roots, "_MAX_ITER", max_iter)
            for seed in range(2):
                res = aberth_solve(P, seed=seed)
                assert res.iterations == max_iter
                _nearest_in_disc(res, want)
                n_in, n_out, undet = roots._count_sides(res)
                assert n_in <= inside and n_out <= P.degree - inside
                undetermined += undet
        assert undetermined

    def test_overlapping_discs_are_undetermined_and_strict_exits_3(
            self, capsys, monkeypatch, small_table):
        # the count proves every g_N row, so the solver runs only when it
        # declines
        monkeypatch.setattr(roots, "_winding_count", lambda q: None)
        monkeypatch.setattr(roots, "_isolated",
                            lambda z, r: np.zeros(len(z), dtype=bool))
        rc = classify_roots(8, small_table)
        assert (rc.inside, rc.on_circle, rc.outside, rc.undetermined) == (
            0, 8, 0, 90)
        assert not unit_circle_count_report(rc).holds
        from goldpoly import cli
        assert cli.main(["table1", "--n-max", "8", "--strict"]) == 3
        assert cli.main(["table1", "--n-max", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[3] == "8,8,0,8,0,90"


def _record_levels(monkeypatch):
    """Record ``_winding_count``'s levels: the arguments and verdicts of
    each ``_arc_test`` call, its rows stacked (the first level's from the
    FFT), and the centres of each bisected level, handed to the
    evaluator."""
    tests, centres = [], []
    arc_test, evaluate = roots._arc_test, roots._bsgs_values

    def recording_test(rows, E, rho, tail):
        Y = np.array(list(rows))
        ok, values, err = arc_test(Y, E, rho, tail)
        tests.append((Y, E.copy(), rho, tail, ok.copy(), err.copy()))
        return ok, values, err

    def recording_evaluate(rows, x):
        if len(rows) == roots._ORDERS:
            centres.append(x.copy())
        return evaluate(rows, x)

    monkeypatch.setattr(roots, "_arc_test", recording_test)
    monkeypatch.setattr(roots, "_bsgs_values", recording_evaluate)
    return tests, centres


def _horner(coeffs, w):
    """p at every point of w, by a float Horner loop."""
    v = np.zeros(w.shape, dtype=np.complex128)
    for c in coeffs[::-1]:
        v = v * w + c
    return v


def _level_arcs(tests, centres):
    """(Y, E, rho, tail, ok, x, r) per level: the recorded arc test, the
    evaluation centres (the L-th roots of unity on the first level) and
    the arcs' true half-width r."""
    Y, *rest, _ = tests[0]
    L = 2 * (Y.shape[1] - 1)
    x = np.exp(2j * np.pi * np.arange(L // 2 + 1) / L)
    yield (Y.conj(), *rest, x, np.pi / L)
    for depth, (test, x) in enumerate(zip(tests[1:], centres), start=1):
        yield (*test[:-1], x, np.pi / L / 2 ** depth)


# pi to 50 digits; the circle points below are taken at 50 digits, so a
# float bound compared with them errs by nothing a test can see
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def _decimal_cis(turns):
    """(cos, sin) of the angle pi * turns, turns a Fraction in [0, 1], by
    their Taylor series in 50-digit ``decimal``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        theta = _PI * turns.numerator / turns.denominator
        c = s = Decimal(0)
        term, k = Decimal(1), 0
        while abs(term) > Decimal(10) ** -55:
            if k % 2:
                s += term if k % 4 == 1 else -term
            else:
                c += term if k % 4 == 0 else -term
            k += 1
            term = term * theta / k
        return c, s


def _level_points(level, x):
    """A level's evaluation centres as pairs of Decimals: the exact
    upper-half L-th roots of unity on the first level, the float centres
    below it."""
    if level == 0:
        L = 2 * (len(x) - 1)
        return [_decimal_cis(Fraction(2 * j, L)) for j in range(len(x))]
    return [(Decimal(w.real), Decimal(w.imag)) for w in x]


def _decimal_taylor(coeffs, point, orders):
    """q^(m)(w)/m! = sum_k C(k, m) c_k w^(k - m) at w = point for each m
    in orders, as pairs of Decimals, in 50-digit ``decimal``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        wr, wi = point
        powers = [(Decimal(1), Decimal(0))]
        for _ in range(len(coeffs) - 1):
            pr, pi = powers[-1]
            powers.append((pr * wr - pi * wi, pr * wi + pi * wr))
        out = []
        for m in orders:
            tr = ti = Decimal(0)
            for k in range(m, len(coeffs)):
                c = math.comb(k, m) * Decimal(coeffs[k])
                tr += c * powers[k - m][0]
                ti += c * powers[k - m][1]
            out.append((tr, ti))
        return out


# 1000 (w - 1)^5 + 3, whose Taylor terms of orders 1..4 vanish at w = 1,
# so only the tail bounds its spread there; 1000 w^20 - 1001, whose 20
# zeros lie 5e-5 outside the circle, so every one takes bisection; and
# the g_N cofactor at N = 24
_BOUND_CASES = [
    IntPolynomial((-997, 5000, -10000, 10000, -5000, 1000)),
    IntPolynomial((-1001,) + (0,) * 19 + (1000,)),
]


class TestWindingCount:
    """The argument-principle count (``_winding_count``) of the zeros of q
    inside the circle: proved, or None, never wrong."""

    @pytest.mark.parametrize("case", [0, 1, 24], ids=["tail", "bisected",
                                                        "N24"])
    def test_each_disc_covers_its_arc_and_bounds_the_spread(
            self, monkeypatch, small_table, case):
        # every passing arc's disc of radius rho about its centre holds the
        # arc's two ends, and |q(w) - q(x)| there stays within the bound B
        # the arc passed with, up to the float Horner error of both values
        if case < len(_BOUND_CASES):
            P = _BOUND_CASES[case]
            want = schur_cohn_inside(P)
        else:
            P, want = goldbach_cofactor(case, small_table), ROOT_TABLE[case][1]
            want //= 2
        tests, centres = _record_levels(monkeypatch)
        assert roots._winding_count(P) == want
        if case == 1:
            assert len(centres) > 3
        slack = 8 * (P.degree + 1) * 2.0 ** -53 * sum(map(abs, P.coeffs))
        for Y, E, rho, tail, ok, x, r in _level_arcs(tests, centres):
            B = tail + sum((np.abs(Y[m]) + E[m]) * rho ** m
                           for m in range(1, roots._ORDERS))
            x, B = x[ok], B[ok]
            for side in (-1, 1):
                w = x * np.exp(1j * side * r)
                assert np.all(np.abs(w - x) <= rho + 2.0 ** -50), r
                spread = np.abs(_horner(P.coeffs, w) - _horner(P.coeffs, x))
                assert np.all(spread <= B + slack), r

    @pytest.mark.parametrize("P", _BOUND_CASES, ids=["tail", "bisected"])
    def test_value_bounds_hold_exactly(self, monkeypatch, P):
        # each level's values of the Taylor rows lie within E of their
        # exact values: on the first level at every upper-half L-th root of
        # unity, against q^(m)(w)/m! at 50 digits; below it at the first
        # centres of each level, against the float rows in rationals
        tests, centres = _record_levels(monkeypatch)
        roots._winding_count(P)
        X = roots._taylor_rows(P.coeffs)
        levels = _level_arcs(tests, centres)
        Y, E, *_, x, _ = next(levels)
        bound2 = [Decimal(float(e)) ** 2 for e in E]
        for j, point in enumerate(_level_points(0, x)):
            want = _decimal_taylor(P.coeffs, point, range(roots._ORDERS))
            for m, (wr, wi) in enumerate(want):
                gap2 = ((Decimal(Y[m, j].real) - wr) ** 2
                        + (Decimal(Y[m, j].imag) - wi) ** 2)
                assert gap2 <= bound2[m], (j, m)
        for level, (Y, E, *_, x, _) in enumerate(levels, start=1):
            for j in range(min(3, len(x))):
                for m in range(roots._ORDERS):
                    want = _exact_values(X[m], complex(x[j]))[0]
                    assert _exact_gap2(Y[m, j], want, 1) <= \
                        Fraction(float(E[m])) ** 2, (level, j, m)

    @pytest.mark.parametrize("P", _BOUND_CASES, ids=["tail", "bisected"])
    def test_tail_bounds_the_exact_taylor_tail(self, monkeypatch, P):
        # at every centre x of every level, tail >= sum_(m >= 5)
        # |q^(m)(x)/m!| rho^m, the part of q(w) - q(x) the rows leave out
        tests, centres = _record_levels(monkeypatch)
        roots._winding_count(P)
        orders = range(roots._ORDERS, P.degree + 1)
        for level, (_, _, rho, tail, _, x, _) in enumerate(
                _level_arcs(tests, centres)):
            powers = [Decimal(rho) ** m for m in orders]
            for point in _level_points(level, x):
                with decimal.localcontext() as ctx:
                    ctx.prec = 50
                    exact = sum((tr * tr + ti * ti).sqrt() * power
                                for (tr, ti), power in zip(
                                    _decimal_taylor(P.coeffs, point, orders),
                                    powers))
                assert exact <= Decimal(tail), (level, point)

    @pytest.mark.parametrize("P", [
        _BOUND_CASES[1], IntPolynomial((100001, 100000)),
    ], ids=["bisected", "near-minus-one"])
    def test_bisected_arc_ends_lie_within_rho(self, monkeypatch, P):
        # with T bisected levels, at depth t an arc's key k is an odd
        # multiple of s = 2**(T - t), in units of pi / (L 2**T), and its
        # ends are at k -+ s; both, at 50 digits, lie within rho of the
        # float centre the evaluator was given, which errs from the circle
        # point by up to 14u.  The zero of 100000 w + 100001, 1e-5 outside
        # the circle at w = -1, takes the bisection 14 levels deep, where
        # the arc's chord falls short of r by less than that error:
        # without _OFF, rho = r would miss an end there by 3e-16
        tests, centres = _record_levels(monkeypatch)
        roots._winding_count(P)
        levels = [(rho, x) for _, _, rho, _, _, x, _ in
                  _level_arcs(tests, centres)]
        L, T = 2 * (len(levels[0][1]) - 1), len(levels) - 1
        unit = math.pi / L / (1 << T)
        for depth, (rho, x) in enumerate(levels[1:], start=1):
            step = 1 << (T - depth)
            keys = (2 * np.floor(np.angle(x) / unit / (2 * step))
                    .astype(np.int64) + 1) * step
            theta = keys * unit
            assert np.array_equal(np.cos(theta) + 1j * np.sin(theta), x)
            rho2 = Decimal(rho) ** 2
            for key, w in zip(keys.tolist(), x):
                for end in (key - step, key + step):
                    c, s = _decimal_cis(Fraction(end, L << T))
                    gap2 = ((c - Decimal(w.real)) ** 2
                            + (s - Decimal(w.imag)) ** 2)
                    assert gap2 <= rho2, (depth, key, end)

    @pytest.mark.parametrize("factors", list(_known_root_cases()))
    def test_matches_schur_cohn_on_known_roots(self, factors):
        # four of the six products have a coefficient of 2**53 or more and
        # are declined; the other two, one with roots 1e-12 and 1e-15 from
        # the circle, are proved
        P = _linear_product(factors)
        got = roots._winding_count(P)
        big = max(map(abs, P.coeffs)) >= 2 ** 53
        assert got is None if big else got == schur_cohn_inside(P)

    def test_matches_schur_cohn_on_random_polynomials(self):
        for P in _random_polynomials():
            assert roots._winding_count(P) == schur_cohn_inside(P), P.degree

    @pytest.mark.parametrize("P", [
        IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)),
        product(IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)),
                _FILLER),
        IntPolynomial((2, -1, 2)),
        product(IntPolynomial((-(10 ** 9 + 6), 10 ** 9 + 7)),
                IntPolynomial((-(10 ** 9 + 7), 10 ** 9 + 7))),
        product(cyclotomic(5), _FILLER),
        IntPolynomial((-(2 ** 53) - 1, 2 ** 53)),
    ], ids=["lehmer", "lehmer-filler", "2w2-w+2", "near-double-on",
            "phi5-filler", "coefficient-2^53"])
    def test_declines_zeros_on_the_circle(self, P):
        # Lehmer's polynomial has 8 roots on the circle, 2w^2 - w + 2 two,
        # (b w - b + 1)(b w - b) one at w = 1 beside one 1e-9 inside, and
        # Phi_5 four; the last is declined for its coefficients
        assert roots._winding_count(P) is None

    def test_bisection_runs_to_the_float_floor_and_no_further(
            self, monkeypatch):
        # (w^2 + w + 1)(w + 3) has a zero on the circle at e^(2 pi i / 3),
        # whose arcs fail on every level.  d = 3, so L = 128, and D = 43 is
        # the deepest level whose half-width pi / 128 / 2**D is still at
        # least _OFF: the count runs the first level and levels 1..43,
        # each within the cap of 4 (d + 1) arcs, and declines with arcs
        # still failing on the last
        P = product(IntPolynomial((1, 1, 1)), IntPolynomial((3, 1)))
        h, D = math.pi / 128, 43
        assert h / 2 ** D >= roots._OFF > h / 2 ** (D + 1)
        tests, centres = _record_levels(monkeypatch)
        assert roots._winding_count(P) is None
        assert len(tests) == D + 1 and len(centres) == D
        rhos = [rho for _, _, rho, _, _, _ in tests]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))
        assert all(len(x) <= 4 * (P.degree + 1) for x in centres)
        assert not tests[-1][4].all()

    @pytest.mark.parametrize("b, a", [
        (10 ** 12, 10 ** 12 + 1), (10 ** 12 + 1, 10 ** 12),
        (10 ** 15, 10 ** 15 + 1), (10 ** 15 + 1, 10 ** 15),
        (3 * 10 ** 14, 3 * 10 ** 14 - 1),
        (10 ** 9 + 7, 10 ** 9 + 8), (10 ** 9 + 7, 10 ** 9 + 4),
        (10 ** 9 + 7, 10 ** 9 + 5),
    ], ids=["1e-12-out", "1e-12-in", "1e-15-out", "1e-15-in", "3e-15-in",
            "double-out", "double-in", "double-in-close"])
    def test_roots_near_the_circle_are_right_or_declined(self, b, a):
        # b w - a alone beside the filler, or the near-double pair
        # (b w - a)(b w - a - 1), roots 1e-9 apart within 3e-9 of the
        # circle; a lone root 1e-12 or more from the circle is counted
        single = product(IntPolynomial((-a, b)), _FILLER)
        double = product(single, IntPolynomial((-a - 1, b)))
        got = {P: roots._winding_count(P) for P in (single, double)}
        for P, count in got.items():
            assert count is None or count == schur_cohn_inside(P), (b, a)
        if abs(a - b) / b > 1e-13:
            assert got[single] is not None

    def test_matches_disc_count_51_to_60(self, table):
        for N in range(51, 61):
            q = goldbach_cofactor(N, table)
            inside = roots._winding_count(q)
            assert roots._count_sides(aberth_solve(q, seed=0)) == (
                inside, q.degree - inside, 0), N

    @requires_long
    def test_matches_disc_count_6_to_120(self, table):
        # from N = 83 on, a few discs meet the circle and leave their roots
        # undetermined; the discs never place more roots on a side than
        # the count
        for N in range(6, 121):
            q = goldbach_cofactor(N, table)
            inside = roots._winding_count(q)
            assert inside is not None, N
            n_in, n_out, undet = roots._count_sides(aberth_solve(q, seed=0))
            assert n_in <= inside and n_out <= q.degree - inside, N
            assert undet or n_in == inside, N

    @requires_long
    def test_counts_every_cofactor_121_to_200_but_183(self, table):
        # the rows the count proves past N = 120, with the inside counts
        # pinned where the solver's discs had left roots undetermined;
        # N = 183 has no root on the circle (gcd(q, rev q) = 1), but some
        # within the count's float floor, so the row stays unproved
        pinned = {126: 650, 131: 652, 165: 1100, 182: 1336, 187: 1318,
                  190: 1352, 195: 1484}
        for N in range(121, 201):
            inside = roots._winding_count(goldbach_cofactor(N, table))
            assert (inside is None) == (N == 183), N
            assert inside == pinned.get(N, inside), N
        rc = classify_roots(183, table)
        assert rc.on_circle == 2 * arith.euler_phi(183)
        assert rc.undetermined > 0

    def test_angle_bounds_cover_the_error_discs(self, monkeypatch, small_table):
        # a value Y_0 within E_0 of q(x) is off q(x)'s direction by at most
        # asin(E_0 / |Y_0|); every passing centre's err bounds that angle
        for P in _BOUND_CASES + [goldbach_cofactor(24, small_table)]:
            tests, _ = _record_levels(monkeypatch)
            assert roots._winding_count(P) is not None
            for Y, E, _, _, ok, err in tests:
                widest = np.arcsin(np.minimum(1.0, E[0] / np.abs(Y[0, ok])))
                assert np.all(widest <= err[ok]), P.degree

    def test_arc_passes_only_within_half_its_lower_bound(self):
        # synthetic rows Y_0 = 1, Y_1 = s, no other row, no error, rho = 1
        # and no tail: B = s against A = 1, so the arc passes iff s <= 1/2,
        # and q(w) / q(x) stays within pi/6 of 1; a rule of B <= A would
        # pass s = 0.75 and let the argument turn by pi/2
        rows = np.zeros((roots._ORDERS, 2), dtype=np.complex128)
        rows[0] = 1.0
        rows[1] = [0.75, 0.49]
        ok, values, err = roots._arc_test(rows, np.zeros(roots._ORDERS),
                                          1.0, 0.0)
        assert ok.tolist() == [False, True]
        assert values.tolist() == [1.0, 1.0] and err[1] == 0.0

    @pytest.mark.parametrize("turn, want",
                             [(math.pi, None), (0.5, 3), (1.5, None)],
                             ids=["pi", "half", "one-and-a-half"])
    def test_one_centre_turned_within_its_bound(self, monkeypatch, turn,
                                                want):
        # (3w - 1)(5w^2 + 3w + 4) has its three zeros inside, so arg q
        # rises along the half circle.  One passing centre's value is
        # turned by its own angle bound: by pi, the steps into and out of
        # it wrap the other way and the plain sum loses 2 pi, so the count
        # must decline rather than say 1; by 0.5, the two errors cancel in
        # the sum and the count stays proved; by 1.5 they would cancel
        # too, but a bound above pi/3 leaves a step no room, so the count
        # declines
        P = product(IntPolynomial((-1, 3)), IntPolynomial((4, 3, 5)))
        assert roots._winding_count(P) == schur_cohn_inside(P) == 3
        arc_test = roots._arc_test

        def turned(rows, E, rho, tail):
            ok, values, err = arc_test(rows, E, rho, tail)
            values, err = values.copy(), err.copy()
            k = np.flatnonzero(ok)[int(ok.sum()) // 2]
            values[k] *= np.exp(1j * turn)
            err[k] = turn
            return ok, values, err

        monkeypatch.setattr(roots, "_arc_test", turned)
        assert roots._winding_count(P) == want


class TestSchurCohn:
    def test_inside_counts_match_exact_schur_cohn(self, small_table):
        # the cofactor's roots inside the circle, counted exactly; a
        # singular case (some delta_j = 0) would be listed, not compared
        singular = []
        for N in range(6, 17):
            strip = strip_unit_circle_part(
                even_part(goldbach_polynomial(N, small_table)))
            assert _no_reciprocal_pair(strip.cofactor), N
            want = schur_cohn_inside(strip.cofactor)
            if want is None:
                singular.append(N)
                continue
            assert classify_roots(N, small_table).inside == 2 * want, N
        assert singular == []

    def test_oracle_on_known_roots(self):
        for factors in _known_root_cases():
            want = sum(wr * wr + wi * wi < 1
                       for wr, wi in _known_roots(factors))
            assert schur_cohn_inside(_linear_product(factors)) == want
        assert schur_cohn_inside(IntPolynomial((2, -1, 2))) is None
