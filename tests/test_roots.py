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
    divrem_exact,
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

from conftest import multiset_distance
from oracles import aberth_all_points, horner_ratio_and_residual, horner_triple
from reference_fixtures import ROOT_TABLE


def _cofactor_even_part(N, table):
    """The polynomial classify_roots hands to the solver for F_N's cofactor."""
    g = goldbach_polynomial(N, table).even_part()
    return strip_unit_circle_part(g).cofactor


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
        assert len(counts) == res.iterations
        assert counts[0] == g.degree
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert sum(counts) < 0.6 * g.degree * res.iterations

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


class TestStrip:
    def test_goldbach_six(self, small_table):
        F6 = goldbach_polynomial(6, small_table)
        sr = strip_unit_circle_part(F6)
        assert divrem_exact(sr.self_reciprocal_part, cyclotomic(12))[1].is_zero
        assert sr.cyclotomic_factors == [(12, 1)]
        assert sr.residual == IntPolynomial.one()
        assert multiply(sr.self_reciprocal_part, sr.cofactor) == F6

    def test_off_circle_reciprocal_pair(self):
        # (z-2)(2z-1): the gcd contains both roots but none on the circle
        F = IntPolynomial((2, -5, 2))
        sr = strip_unit_circle_part(F)
        assert sr.self_reciprocal_part == F
        assert sr.cyclotomic_factors == []
        assert sr.residual == F

    def test_cyclotomic_times_linear(self):
        F = multiply(cyclotomic(7), IntPolynomial((-3, 1)))
        sr = strip_unit_circle_part(F)
        assert sr.self_reciprocal_part == cyclotomic(7)
        assert sr.cofactor == IntPolynomial((-3, 1))
        assert sr.cyclotomic_factors == [(7, 1)]

    def test_rejects_root_at_origin(self):
        with pytest.raises(ValueError):
            strip_unit_circle_part(IntPolynomial((0, 1)))

    def test_even_part_strip_matches_full_degree(self, small_table):
        # classify_roots strips g, not F = g(z^2): the cofactor and residual
        # of F are those of g composed with z^2, and the on-circle count
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
            assert half.residual.compose_square() == full.residual, F
            assert (half.self_reciprocal_part.compose_square()
                    == full.self_reciprocal_part), F
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
            rc.degree
        assert rc.max_residual < 1e-8

    def test_rejects_small_N(self, small_table):
        with pytest.raises(ValueError):
            classify_roots(5, small_table)

    def test_conjecture_reports(self, small_table):
        rep7 = unit_circle_count_report(classify_roots(7, small_table))
        assert rep7.holds and rep7.witness["on_circle"] == 12
        rep12 = unit_circle_count_report(classify_roots(12, small_table))
        assert rep12.holds and rep12.witness["on_circle"] == 8

    def test_multiset_closures(self, small_table):
        rc = classify_roots(11, small_table)
        pts = rc.numeric_roots
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

        from goldpoly.poly import gcd_rational, divrem_exact
        pieces = []
        work = [F]
        while work:
            piece = work.pop()
            g = gcd_rational(piece, piece.derivative())
            if g.degree > 0:
                work.append(divrem_exact(piece, g)[0])
                work.append(g)
            else:
                pieces.append(piece)
        assert sum(p.degree for p in pieces) == deg
