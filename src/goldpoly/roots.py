"""Root localization: exact unit-circle split plus simultaneous iteration.

Every odd-prime F_N is even, F_N(z) = g(z^2), and its roots are the
square roots +-sqrt(w) of the roots w of g, with |z| < 1, = 1 or > 1
exactly when |w| is.  So the whole classification runs on g, in the
plane w = z^2, and its counts are doubled at the end.

The unit-circle roots of a real polynomial g with g(0) != 0 all divide
gcd(g, reciprocal(g)), so they are isolated exactly: that gcd is peeled
into cyclotomic factors (each contributing phi(e) circle roots per
multiplicity) and a residual.  Everything else is classified numerically
by an Aberth-Ehrlich solver with an escalation ladder for roots landing
in the epsilon-band around the circle: extended-precision Newton
refinement first, an honest "undetermined" verdict if that cannot decide.

The solver freezes each approximation once its correction is below
tolerance, so a sweep evaluates and moves only the points still active,
while the frozen ones stay in every pairwise Aberth sum.  A sweep takes
p/p' for all active points by baby-step giant-step evaluation (Paterson
and Stockmeyer): blocks of sqrt(d) coefficients against a table of
powers, O(sqrt(d)) numpy calls per sweep instead of a Horner loop of d
steps, with a rounding bound of the same order as Horner's.  The products
run in ``einsum``, not BLAS, whose threads would cost more CPU than they
save.  Points outside the unit disk go through the reversed polynomial at
1/z.  The backward residual, the acceptance gate, is a separate Horner
pass, evaluated once after the last sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from . import arith
from .arith import PrimeTable
from .goldbach import TheoremReport, goldbach_polynomial
from .poly import (
    IntPolynomial,
    cyclotomic,
    divrem_exact,
    exact_quotient_or_none,
    gcd_rational,
    reciprocal,
)

# Golden angle in radians; irrational rotation spreads the start points.
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Half-width of the band around |z| = 1 whose solved points are escalated
# to extended-precision Newton refinement.
_EPSILON = 1e-6
# Aberth stopping rule: a point is frozen once its correction, relative to
# 1 + |z|, is below _TOL; the solve fails after _MAX_ITER sweeps.
_TOL = 1e-12
_MAX_ITER = 600
# Entries per block of the solver's work arrays: 2**18 complex, 4 MB.
_BLOCK_ENTRIES = 1 << 18


class SolverError(RuntimeError):
    """Aberth iteration failed to converge; carries diagnostics.

    All four fields are positional ``args``, so the error pickles and
    crosses a process pool intact.
    """

    def __init__(self, message: str, iterations: int, max_correction: float,
                 max_residual: float):
        super().__init__(message, iterations, max_correction, max_residual)
        self.message = message
        self.iterations = iterations
        self.max_correction = max_correction
        self.max_residual = max_residual

    def __str__(self) -> str:
        return (f"{self.message} (iterations={self.iterations}, "
                f"max_correction={self.max_correction:.3e}, "
                f"max_residual={self.max_residual:.3e})")


@dataclass
class SolveResult:
    roots: np.ndarray
    iterations: int
    max_correction: float
    max_residual: float


def _bsgs_values(coeffs: np.ndarray, x: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """p(x) and p'(x) at every point by baby-step giant-step evaluation.

    With L = isqrt(d) + 1 and nb = ceil((d + 1) / L), column b of the real
    L x 2nb matrix C holds the block c[bL : bL + L] of p and column nb + b
    the same block of p', so with the baby steps T = [x^0 .. x^(L-1)] and
    the giant steps U = [y^0 .. y^(nb-1)], y = x^L,
    p(x) = sum_b U_b (T C)_b and p'(x) = sum_b U_b (T C)_(nb+b)
    (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973).  Both power tables
    come from ``cumprod`` and T C from two real ``einsum`` products, for
    T.real and T.imag, since C is real: a sweep costs O(sqrt(d)) numpy
    calls and O(d) flops per point.  ``einsum`` runs in numpy's own loops;
    BLAS (``@``) would start its thread pool and spend more CPU than it
    saves wall time.  Row blocks of points keep T C within 2**18 entries.

    Rounding: with S(x) = sum |c_k| |x|^k, the two sums add at most
    3 (L + nb) u S(x) to the error of the power tables (u = 2**-53), and
    the same for p' with the weights k c_k.  A power x^k = y^b x^j is a
    chain of at most k + nb complex products, relative error about
    sqrt(5) (k + nb) u, the order of Horner's own 2 d u bound; at points
    whose powers are exact (x = 0, 1/2, (1 + i)/2, ...) only the sums err.
    """
    d = len(coeffs) - 1
    L = math.isqrt(d) + 1
    nb = -(-(d + 1) // L)
    blocks = np.zeros((2 * nb, L), dtype=np.float64)
    flat = blocks.reshape(2, nb * L)
    flat[0, :d + 1] = coeffs
    flat[1, :d] = coeffs[1:] * np.arange(1, d + 1)
    C = np.ascontiguousarray(blocks.T)
    p = np.empty(x.shape, dtype=np.complex128)
    dp = np.empty(x.shape, dtype=np.complex128)
    rows = max(1, _BLOCK_ENTRIES // (2 * nb))
    for i0 in range(0, len(x), rows):
        xb = x[i0:i0 + rows]
        T = np.empty((len(xb), L), dtype=np.complex128)
        T[:, 0] = 1.0
        T[:, 1:] = xb[:, None]
        np.cumprod(T, axis=1, out=T)
        B = (np.einsum("ij,jk->ik", T.real, C)
             + 1j * np.einsum("ij,jk->ik", T.imag, C))
        U = np.empty((len(xb), nb), dtype=np.complex128)
        U[:, 0] = 1.0
        U[:, 1:] = (T[:, -1] * xb)[:, None]
        np.cumprod(U, axis=1, out=U)
        p[i0:i0 + rows] = np.einsum("ij,ij->i", U, B[:, :nb])
        dp[i0:i0 + rows] = np.einsum("ij,ij->i", U, B[:, nb:])
    return p, dp


def _newton_ratio(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z)/p'(z) at every point, value and derivative by ``_bsgs_values``.

    Points outside the unit disk are evaluated through the reversed
    polynomial at 1/z, which keeps |z|^degree out of the arithmetic and
    cannot overflow at high degree: with q = rev(p) and u = 1/z,
    p/p' = z*q(u) / (d*q(u) - u*q'(u)).  Every power table then has
    entries of modulus at most 1.
    """
    d = len(coeffs) - 1
    outside = np.abs(z) > 1.0
    w = np.empty(z.shape, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not outside.all():
            v, dv = _bsgs_values(coeffs, z[~outside])
            w[~outside] = v / dv
        if outside.any():
            zo = z[outside]
            u = 1.0 / zo
            q, dq = _bsgs_values(coeffs[::-1], u)
            w[outside] = zo * q / (d * q - u * dq)
    return w


def _backward_residual(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The backward residual |p(z)| / sum |c_i| |z|^i at every point.

    Points outside the unit disk use the reversed coefficients at 1/z;
    numerator and denominator both scale by |z|^degree, so the ratio is
    unchanged and nothing overflows.
    """
    be = np.empty(z.shape, dtype=np.float64)
    outside = np.abs(z) > 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sel, cs, x in ((~outside, coeffs, z[~outside]),
                           (outside, coeffs[::-1], 1.0 / z[outside])):
            if not x.size:
                continue
            v = np.full(x.shape, cs[-1], dtype=np.complex128)
            s = np.full(x.shape, abs(cs[-1]), dtype=np.float64)
            ax = np.abs(x)
            for cf in cs[-2::-1]:
                v = v * x + cf
                s = s * ax + abs(cf)
            be[sel] = np.abs(v) / np.maximum(s, 1e-300)
    return be


def aberth_solve(p: IntPolynomial, seed: int = 0) -> SolveResult:
    """All roots of p by simultaneous Aberth-Ehrlich iteration.

    Start points sit on the circle of radius (|a_0|/|a_d|)^(1/d) with
    golden-angle spacing and seeded 1e-3 radial jitter, so runs are
    reproducible.  Each sweep moves only the active points: a point is
    frozen once its correction falls below _TOL (relative to 1 + |z|), and
    the loop ends when none is left.  Frozen points still enter the
    pairwise Aberth sum of the active ones, so they keep repelling them.
    A point whose correction is not finite (coincident approximations, a
    vanishing derivative) is jittered and stays active.  p/p' is taken by
    baby-step giant-step evaluation (``_newton_ratio``); the backward
    residual, by Horner's rule, only once after the loop.  Convergence
    means every correction fell below _TOL within _MAX_ITER sweeps; if
    the correction test stalls at the rounding floor, a final
    backward-residual check below 1e-11 still accepts.  Roots at the
    origin are split off exactly first.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    coeffs = list(p.coeffs)
    n_zero = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        n_zero += 1
    scale = max(abs(c) for c in coeffs)
    c = np.array([float(x) / scale for x in coeffs], dtype=np.float64)
    d = len(c) - 1
    if d == 0:
        roots = np.zeros(n_zero, dtype=np.complex128)
        return SolveResult(roots, 0, 0.0, 0.0)

    rng = np.random.default_rng(seed)
    radius = (abs(c[0]) / abs(c[-1])) ** (1.0 / d)
    radii = radius * (1.0 + 1e-3 * (2.0 * rng.random(d) - 1.0))
    angles = _GOLDEN_ANGLE * np.arange(d)
    z = radii * np.exp(1j * angles)

    chunk = max(1, _BLOCK_ENTRIES // d)
    active = np.arange(d)
    iterations = 0
    max_corr = math.inf
    for iterations in range(1, _MAX_ITER + 1):
        za = z[active]
        w = _newton_ratio(c, za)
        s = np.empty(len(active), dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i0 in range(0, len(active), chunk):
                rows = active[i0:i0 + chunk]
                diff = z[rows, None] - z[None, :]
                diff[np.arange(len(rows)), rows] = np.inf
                s[i0:i0 + len(rows)] = np.divide(1.0, diff, out=diff).sum(axis=1)
            corr = w / (1.0 - w * s)
        bad = ~np.isfinite(corr)
        if bad.any():
            corr[bad] = 0.0
            za[bad] *= 1.0 + 1e-9 * (1.0 + rng.random(int(bad.sum())))
        za -= corr
        z[active] = za
        rel = np.abs(corr) / (1.0 + np.abs(za))
        max_corr = math.inf if bad.any() else float(rel.max())
        active = active[bad | (rel >= _TOL)]
        if not active.size:
            break
    resid = _backward_residual(c, z)
    max_resid = float(resid.max()) if np.isfinite(resid).all() else math.inf
    if max_corr >= _TOL and max_resid > 1e-11:
        raise SolverError("Aberth iteration did not converge",
                          iterations=iterations, max_correction=max_corr,
                          max_residual=max_resid)
    if n_zero:
        z = np.concatenate([z, np.zeros(n_zero, dtype=np.complex128)])
    return SolveResult(z, iterations, max_corr, max_resid)


# ---------------------------------------------------------------------------
# Exact unit-circle split
# ---------------------------------------------------------------------------

@dataclass
class StripResult:
    self_reciprocal_part: IntPolynomial          # gcd(F, reciprocal(F))
    cofactor: IntPolynomial                      # F / gcd, exact
    cyclotomic_factors: list[tuple[int, int]]    # (d, multiplicity)
    residual: IntPolynomial                      # non-cyclotomic part of the gcd


def strip_unit_circle_part(F: IntPolynomial) -> StripResult:
    """Split off the factor of F carrying every root on the unit circle.

    Requires F(0) != 0.  The gcd with the reversed polynomial is computed
    exactly, then peeled by exact trial division against each cyclotomic
    of degree at most deg(gcd); whatever remains (off-circle reciprocal
    pairs, or self-reciprocal non-cyclotomic factors) is returned as the
    residual for numeric classification.  ``classify_roots`` passes the
    even part g of F_N = g(z**2), so there the factors are Phi_e(w) in the
    plane w = z**2.
    """
    if F.is_zero:
        raise ValueError("zero polynomial")
    if F[0] == 0:
        raise ValueError("F(0) must be nonzero; divide out z first")
    G = gcd_rational(F, reciprocal(F))
    H = exact_quotient_or_none(F, G)
    if H is None:
        raise AssertionError("gcd does not divide exactly")
    factors: list[tuple[int, int]] = []
    residual = G
    # candidates d have phi(d) <= deg(residual); phi(d) > sqrt(d) for d > 6
    d = 0
    while residual.degree > 0 and d < max(6, residual.degree ** 2):
        d += 1
        phi_d = arith.euler_phi(d)
        if phi_d > residual.degree:
            continue
        # numeric prefilter: exact division attempted only near zeros
        zeta = complex(math.cos(2 * math.pi / d), math.sin(2 * math.pi / d))
        val = residual.evaluate_complex(zeta)
        scale = sum(abs(cf) for cf in residual.coeffs)
        if abs(val) > 1e-6 * scale:
            continue
        phi_poly = cyclotomic(d)
        mult = 0
        while residual.degree >= phi_d:
            q, r = divrem_exact(residual, phi_poly)
            if not r.is_zero:
                break
            residual = q
            mult += 1
        if mult:
            factors.append((d, mult))
    return StripResult(G, H, factors, residual)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass
class RootClassification:
    N: int
    degree: int
    inside: int
    on_circle: int
    outside: int
    undetermined: int
    residual_on_circle: int
    max_residual: float
    iterations: int
    numeric_roots: np.ndarray = field(repr=False, default=None)


def _refine_abs_delta(coeffs: tuple[int, ...], z0: complex) -> float:
    """|z| - 1 for the nearby true root, at doubled working precision."""
    with mpmath.workdps(34):
        z = mpmath.mpc(z0)
        for _ in range(60):
            pv = mpmath.mpc(0)
            dv = mpmath.mpc(0)
            for cf in reversed(coeffs):
                dv = dv * z + pv
                pv = pv * z + cf
            if dv == 0:
                break
            step = pv / dv
            z -= step
            if abs(step) <= mpmath.mpf("1e-28") * (1 + abs(z)):
                break
        return float(abs(z) - 1)


def _classify_points(points: np.ndarray, src: IntPolynomial, *,
                     allow_on: bool) -> tuple[int, int, int, int]:
    """Count (inside, on, outside, undetermined) for roots w of src.

    With z**2 = w, the band 1 - eps < |z| < 1 + eps is
    (1 - eps)**2 < |w| < (1 + eps)**2 for w.  Band points are
    escalated by extended-precision Newton on the exact source
    polynomial; only residual factors may legitimately sit on the circle
    (``allow_on``).
    """
    lo = (1.0 - _EPSILON) ** 2
    hi = (1.0 + _EPSILON) ** 2
    inside = on = outside = undet = 0
    mags = np.abs(points)
    for mag, pt in zip(mags, points):
        if mag < lo:
            inside += 1
        elif mag > hi:
            outside += 1
        else:
            delta = _refine_abs_delta(src.coeffs, complex(pt))
            if abs(delta) <= 1e-20:
                if allow_on:
                    on += 1
                else:
                    undet += 1
            elif delta < 0:
                inside += 1
            else:
                outside += 1
    return inside, on, outside, undet


def _solve_counts(P: IntPolynomial, *, seed: int, allow_on: bool):
    """Solve P numerically and classify its roots against the unit circle."""
    if P.degree < 1:
        return (0, 0, 0, 0), 0.0, 0, np.empty(0, dtype=np.complex128)
    result = aberth_solve(P, seed=seed)
    counts = _classify_points(result.roots, P, allow_on=allow_on)
    return counts, result.max_residual, result.iterations, result.roots


def classify_roots(N: int, table: PrimeTable, *,
                   seed: int = 0) -> RootClassification:
    """Locate all roots of F_N relative to the unit circle.

    F_N is even, F_N(z) = g(z**2), and all the work runs on g, in the
    plane w = z**2: |z| and |w| lie on the same side of 1, and each root w
    gives the two roots +-sqrt(w), so every count is doubled at the end.
    The on-circle count is exact for the cyclotomic part (sum of phi(e)
    over exactly divided factors Phi_e(w)); the cofactor and any
    non-cyclotomic residual are classified numerically with escalation.
    Repeated roots are handled by classifying gcd(g, g') separately and
    adding counts.
    """
    if N <= 5:
        raise ValueError("classification is defined for N > 5")
    g = goldbach_polynomial(N, table).even_part()

    # decompose into squarefree pieces; a root of multiplicity m lands in
    # m pieces, so the piecewise counts are additive
    pieces: list[IntPolynomial] = []
    work = [g]
    while work:
        piece = work.pop()
        sqf_gcd = gcd_rational(piece, piece.derivative())
        if sqf_gcd.degree > 0:
            work.append(divrem_exact(piece, sqf_gcd)[0])
            work.append(sqf_gcd)
        else:
            pieces.append(piece)

    inside = on_exact = outside = undet = residual_on = 0
    max_resid = 0.0
    iters = 0
    all_roots = []
    for piece in pieces:
        strip = strip_unit_circle_part(piece)
        for e, m in strip.cyclotomic_factors:
            on_exact += arith.euler_phi(e) * m
        (h_in, h_on, h_out, h_un), r1, i1, roots1 = _solve_counts(
            strip.cofactor, seed=seed, allow_on=False)
        (g_in, g_on, g_out, g_un), r2, i2, roots2 = _solve_counts(
            strip.residual, seed=seed + 1, allow_on=True)
        inside += h_in + g_in
        outside += h_out + g_out
        undet += h_un + g_un
        residual_on += h_on + g_on
        max_resid = max(max_resid, r1, r2)
        iters = max(iters, i1, i2)
        all_roots.extend([roots1, roots2])

    sq = np.sqrt(np.concatenate(all_roots))
    return RootClassification(
        N=N, degree=2 * g.degree, inside=2 * inside,
        on_circle=2 * (on_exact + residual_on), outside=2 * outside,
        undetermined=2 * undet,
        residual_on_circle=2 * residual_on,
        max_residual=max_resid, iterations=iters,
        numeric_roots=np.concatenate([sq, -sq]),
    )


def unit_circle_count_report(classification: RootClassification) -> TheoremReport:
    """Check that F_N has exactly 2*phi(N) roots on the unit circle."""
    N = classification.N
    expected = 2 * arith.euler_phi(N)
    holds = (classification.on_circle == expected
             and classification.residual_on_circle == 0
             and classification.undetermined == 0)
    return TheoremReport(
        "unit_circle_count", N, holds,
        witness={
            "expected_on_circle": expected,
            "on_circle": classification.on_circle,
            "residual_on_circle": classification.residual_on_circle,
            "undetermined": classification.undetermined,
        },
    )
