import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from goldpoly import arith, roots
from goldpoly.goldbach import goldbach_polynomial
from goldpoly.poly import (
    IntPolynomial,
    cyclotomic,
    gcd_rational,
    multiply,
    reciprocal,
)
from goldpoly.roots import (
    SolverError,
    aberth_solve,
    classify_roots,
    strip_unit_circle_part,
    unit_circle_count_report,
)

from conftest import multiset_distance, numeric_roots, solved_cofactor
from oracles import (
    aberth_all_points,
    horner_ratio_and_residual,
    horner_triple,
    schur_cohn_inside,
)
from reference_fixtures import ROOT_TABLE


def _cofactor_even_part(N, table):
    """The polynomial classify_roots hands to the solver for F_N's cofactor."""
    g = goldbach_polynomial(N, table).even_part()
    return strip_unit_circle_part(g).cofactor


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

    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(roots, "_TOL", 1e-30)
        monkeypatch.setattr(roots, "_MAX_ITER", 1)
        with pytest.raises(SolverError) as exc:
            aberth_solve(IntPolynomial((-1, 0, 1)))
        assert exc.value.iterations == 1
        assert exc.value.max_correction > 0

    def test_solver_error_pickles(self):
        err = SolverError("no convergence", iterations=7, max_correction=0.5,
                          max_residual=1e-3)
        back = pickle.loads(pickle.dumps(err))
        assert str(back) == str(err)
        assert "no convergence" in str(back)
        assert (back.iterations, back.max_correction, back.max_residual) == (
            7, 0.5, 1e-3)

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
                assert got.max_correction < 1e-12

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
    """p(x) and p'(x) as pairs of Fractions, x a complex with dyadic parts."""
    xr, xi = Fraction(x.real), Fraction(x.imag)
    pr = pi = dr = di = Fraction(0)
    for c in coeffs[::-1]:
        dr, di = dr * xr - di * xi + pr, dr * xi + di * xr + pi
        pr, pi = pr * xr - pi * xi + Fraction(c), pr * xi + pi * xr
    return (pr, pi), (dr, di)


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
        v, dv = roots._bsgs_values(c, inside)
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
        v, dv = roots._bsgs_values(c, x)
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
    P = sr.cofactor
    for e, mult in sr.cyclotomic_factors:
        for _ in range(mult):
            P = multiply(P, cyclotomic(e))
    return P


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
        F = multiply(cyclotomic(7), IntPolynomial((-3, 1)))
        sr = strip_unit_circle_part(F)
        assert sr.cofactor == IntPolynomial((-3, 1))
        assert sr.cyclotomic_factors == [(7, 1)]
        assert _strip_product(sr) == F

    def test_reciprocal_pair_stays_with_cofactor(self):
        # Phi_5 (w^2 - 3w + 1)(w - 3): the gcd with the reciprocal is
        # Phi_5 (w^2 - 3w + 1), whose pair (3 +- sqrt5)/2 is off the circle;
        # the one cofactor holds it beside w - 3, and one solve places all
        # three roots
        rest = multiply(IntPolynomial((1, -3, 1)), IntPolynomial((-3, 1)))
        sr = strip_unit_circle_part(multiply(cyclotomic(5), rest))
        assert sr.cyclotomic_factors == [(5, 1)]
        assert sr.cofactor == rest
        for seed in range(3):
            assert roots._solve_counts(sr.cofactor, seed=seed) == (1, 2, 0)

    def test_rejects_root_at_origin(self):
        with pytest.raises(ValueError):
            strip_unit_circle_part(IntPolynomial((0, 1)))

    def test_even_part_strip_matches_full_degree(self, small_table):
        # classify_roots strips g, not F = g(z^2): the cofactor of F is
        # that of g composed with z^2, and the on-circle count
        # sum phi(d) m of F is twice that of g, whose factors are Phi_e(w)
        phi4_sq = multiply(cyclotomic(4), cyclotomic(4))
        polys = [goldbach_polynomial(N, small_table) for N in range(6, 19)]
        polys += [
            multiply(phi4_sq, IntPolynomial((2, 0, -5, 0, 2))),
            multiply(multiply(phi4_sq, cyclotomic(12)),
                     IntPolynomial((-3, 0, 1))),
            multiply(IntPolynomial((1, 0, 3)), IntPolynomial((1, 0, 3))),
            IntPolynomial((5, 0, 0, 0, 1)),
        ]
        for F in polys:
            assert F[0] != 0 and F.is_even()
            g = F.even_part()
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
        phi4_sq = multiply(cyclotomic(4), cyclotomic(4))
        polys = [goldbach_polynomial(N, small_table) for N in range(6, 19)]
        polys += [
            multiply(phi4_sq, IntPolynomial((2, 0, -5, 0, 2))),
            multiply(multiply(phi4_sq, cyclotomic(12)),
                     IntPolynomial((-3, 0, 1))),
            multiply(IntPolynomial((1, 0, 3)), IntPolynomial((1, 0, 3))),
            IntPolynomial((5, 0, 0, 0, 1)),
        ]
        for F in polys:
            assert F[0] != 0 and F.is_even()
            g = F.even_part()
            assert (gcd_rational(g, partner(g)).compose_square()
                    == gcd_rational(F, partner(F))), F

    def test_repeated_cyclotomic_multiplicity(self):
        F = multiply(multiply(cyclotomic(4), cyclotomic(4)), IntPolynomial((-2, 1)))
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
        rc = classify_roots(N, small_table, seed=seed)
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
        F = multiply(multiply(cyclotomic(4), cyclotomic(4)),
                     IntPolynomial((2, -5, 2)))
        deg = F.degree

        pieces = roots._squarefree_pieces(F)
        assert sum(p.degree for p in pieces) == deg
        assert all(gcd_rational(p, p.derivative()).degree == 0
                   for p in pieces)
        # the double roots +-i overlap, so the solve splits F; the circle
        # roots are never placed numerically, the other two are
        assert roots._solve_counts(F, seed=0) == (1, 1, 4)
        strip = strip_unit_circle_part(F)
        assert strip.cyclotomic_factors == [(4, 2)]
        assert strip.cofactor == IntPolynomial((2, -5, 2))
        assert roots._solve_counts(strip.cofactor, seed=0) == (1, 1, 0)


def _float_coeffs(coeffs):
    """The float coefficients ``aberth_solve`` hands to the disc pass, and
    their scale: the largest integer coefficient in magnitude."""
    scale = max(abs(c) for c in coeffs)
    return np.array([float(x) / scale for x in coeffs]), scale


def _grid(x):
    """(a, b, e) with x = (a + ib) / 2**e exactly, for a complex float x."""
    re, im = Fraction(x.real), Fraction(x.imag)
    e = max(re.denominator, im.denominator).bit_length() - 1
    return int(re * 2 ** e), int(im * 2 ** e), e


def _exact_gap2(got, num, den):
    """|got - (num[0] + i num[1]) / den|**2 as a Fraction."""
    return ((Fraction(got.real) - Fraction(num[0], den)) ** 2
            + (Fraction(got.imag) - Fraction(num[1], den)) ** 2)


def _linear_product(factors):
    """The integer polynomial prod (b w - a) for pairs (a, b), times the
    quadratics b**2 w**2 - 2 a b w + (a**2 + c**2), with roots (a +- ic)/b,
    for triples (a, b, c)."""
    P = IntPolynomial.one()
    for f in factors:
        if len(f) == 2:
            a, b = f
            P = multiply(P, IntPolynomial((-a, b)))
        else:
            a, b, c = f
            P = multiply(P, IntPolynomial((a * a + c * c, -2 * a * b, b * b)))
    return P


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
                d = len(coeffs) - 1
                x = _test_points(rng, 4)
                v, dv, ev, edv, s = roots._evaluate_with_bounds(c, x)
                assert np.all(ev > 0) and np.all(edv > 0)
                for k, xk in enumerate(x):
                    a, b, e = _grid(xk)
                    vr, vi, wr, wi = roots._exact_values(coeffs, a, b, e)
                    assert _exact_gap2(v[k], (vr, vi), scale << e * d) <= \
                        Fraction(float(ev[k])) ** 2, (P.degree, xk)
                    assert _exact_gap2(dv[k], (wr, wi),
                                       scale << e * (d - 1)) <= \
                        Fraction(float(edv[k])) ** 2, (P.degree, xk)

    def test_exact_values_match_fraction_horner(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 40):
            coeffs = tuple(int(v) for v in rng.integers(-50, 51, d + 1))
            for x in _test_points(rng, 2)[::3]:
                a, b, e = _grid(x)
                got = roots._exact_values(coeffs, a, b, e)
                (pr, pi), (dr, di) = _exact_values(coeffs, x)
                scale = Fraction(2) ** e
                assert got == (pr * scale ** d, pi * scale ** d,
                               dr * scale ** (d - 1),
                               di * scale ** (d - 1)), (d, x)

    @pytest.mark.parametrize("factors", list(_known_root_cases()))
    def test_discs_hold_the_known_roots(self, factors):
        # every disc holds a true root, compared exactly; disjoint discs
        # hold one each
        P = _linear_product(factors)
        want = _known_roots(factors)
        for seed in range(2):
            res = aberth_solve(P, seed=seed)
            nearest = []
            for z, r in zip(res.roots, res.radii):
                zr, zi = Fraction(z.real), Fraction(z.imag)
                gaps = [(zr - wr) ** 2 + (zi - wi) ** 2 for wr, wi in want]
                k = min(range(len(want)), key=gaps.__getitem__)
                assert gaps[k] <= Fraction(float(r)) ** 2, (z, r, want[k])
                nearest.append(k)
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
        # the disc pass's backward residual, the solver's acceptance gate,
        # against the Horner loop it replaced: both at the rounding floor
        g = _cofactor_even_part(14, small_table)
        res = aberth_solve(g, seed=3)
        c, _ = _float_coeffs(g.coeffs)
        got = roots._inclusion_radii(c, res.roots)[1]
        want = horner_ratio_and_residual(c, res.roots)[1]
        assert np.all(got < 1e-13) and np.all(want < 1e-13)
        assert res.max_residual == float(got.max())


def _solve_counts_sound(P, inside, outside, seed=0):
    """_solve_counts of P, checked against its true inside and outside
    counts: never more roots on a side than it has.  The counts are
    returned for the caller's own checks."""
    got_in, got_out, undet = roots._solve_counts(P, seed=seed)
    assert got_in <= inside and got_out <= outside, (got_in, got_out)
    assert got_in + got_out + undet == P.degree
    return got_in, got_out, undet


# a fixed cofactor: 1/3 and the roots of 5w^2 + 3w + 4 (|w|^2 = 4/5) inside,
# -7/2 outside
_FILLER = multiply(multiply(IntPolynomial((-1, 3)), IntPolynomial((7, 2))),
                   IntPolynomial((4, 3, 5)))


class TestSoundness:
    """No root ever lands on the wrong side of the circle."""

    @pytest.mark.parametrize("b, a, side", [
        (10 ** 12, 10 ** 12 + 1, 1), (10 ** 12 + 1, 10 ** 12, -1),
        (10 ** 15, 10 ** 15 + 1, 1), (10 ** 15 + 1, 10 ** 15, -1),
        (3 * 10 ** 14, 3 * 10 ** 14 - 1, -1),
    ], ids=["1e-12-out", "1e-12-in", "1e-15-out", "1e-15-in", "3e-15-in"])
    def test_root_near_the_circle(self, b, a, side):
        # b w - a has its root a/b within 1e-12 .. 1e-15 of |w| = 1; the
        # float discs meet the circle and the exact step must place it
        P = multiply(IntPolynomial((-a, b)), _FILLER)
        inside, outside = 3 + (side < 0), 1 + (side > 0)
        for seed in range(3):
            assert _solve_counts_sound(P, inside, outside, seed) == (
                inside, outside, 0)

    def test_root_near_the_circle_needs_the_exact_step(self, monkeypatch):
        calls = []
        exact_side = roots._exact_side

        def counting(*args):
            calls.append(args[1])
            return exact_side(*args)

        monkeypatch.setattr(roots, "_exact_side", counting)
        P = multiply(IntPolynomial((-(10 ** 15 + 1), 10 ** 15)), _FILLER)
        assert roots._solve_counts(P, seed=0) == (3, 2, 0)
        assert len(calls) == 1 and abs(abs(calls[0]) - 1) < 1e-14

    @pytest.mark.parametrize("offset, inside, outside", [
        (1, 0, 2), (-3, 2, 0), (-1, 1, 0), (-2, 1, 0)],
        ids=["both-out", "both-in", "in-and-on", "on-and-in"])
    def test_near_double_root(self, offset, inside, outside):
        # (b w - a)(b w - a - 1) with b about 1e9: two roots 1e-9 apart at
        # most 3e-9 from the circle, one exactly on it for a = b - 1, b - 2
        b = 10 ** 9 + 7
        a = b + offset
        P = multiply(IntPolynomial((-a, b)), IntPolynomial((-a - 1, b)))
        for seed in range(3):
            _solve_counts_sound(P, inside, outside, seed)
            _solve_counts_sound(multiply(P, _FILLER), inside + 3,
                                outside + 1, seed)

    def test_self_reciprocal_factor_on_the_circle(self):
        # Lehmer's polynomial: self-reciprocal, not cyclotomic, 8 roots on
        # the circle and the Salem pair 1.17628..., 1/1.17628...; and
        # 2w^2 - w + 2, whose two roots lie on the circle
        lehmer = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
        strip = strip_unit_circle_part(lehmer)
        assert strip.cyclotomic_factors == [] and strip.cofactor == lehmer
        for seed in range(3):
            assert _solve_counts_sound(lehmer, 1, 1, seed)[2] == 8
            assert _solve_counts_sound(IntPolynomial((2, -1, 2)), 0, 0,
                                       seed) == (0, 0, 2)
            assert _solve_counts_sound(multiply(lehmer, _FILLER), 4, 2,
                                       seed)[2] == 8

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
            assert roots._solve_counts(P, seed=seed) == (
                inside, P.degree - inside, 0)

    def test_overlapping_discs_are_undetermined_and_strict_exits_3(
            self, capsys, monkeypatch, small_table):
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


class TestSchurCohn:
    def test_inside_counts_match_exact_schur_cohn(self, small_table):
        # the cofactor's roots inside the circle, counted exactly; a
        # singular case (some delta_j = 0) would be listed, not compared
        singular = []
        for N in range(6, 17):
            strip = strip_unit_circle_part(
                goldbach_polynomial(N, small_table).even_part())
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
