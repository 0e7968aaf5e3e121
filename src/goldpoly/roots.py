"""Root localization: exact unit-circle split, simultaneous iteration and
inclusion discs.

Every odd-prime F_N is even, F_N(z) = g(z^2), and its roots are the
square roots +-sqrt(w) of the roots w of g, with |z| < 1, = 1 or > 1
exactly when |w| is.  So the whole classification runs on g, in the
plane w = z^2, and its counts are doubled at the end.

The unit-circle roots of a real polynomial g with g(0) != 0 all divide
gcd(g, reciprocal(g)), so they are isolated exactly: that gcd is peeled
into cyclotomic factors (each contributing phi(e) circle roots per
multiplicity), each divided off g too.  Every root of the one cofactor
left is located by an Aberth-Ehrlich solver and proved by an inclusion
disc.  Since
p'/p(z) = sum_k 1/(z - zeta_k), some root of p lies within d |p(z)/p'(z)|
of any point z, so with rigorous bounds B_i >= |p(z_i)| and
L_i <= |p'(z_i)| the disc of radius r_i = d B_i / L_i about the solver's
point z_i holds a root.  If the d discs are pairwise disjoint, each holds
exactly one simple root.  A disc wholly inside or outside |w| = 1 counts
its root on that side.  A disc that meets the circle is evaluated again,
exactly, in Python integers, at its dyadic centre and if need be after one
Newton step; the refined disc has to lie inside the old one and miss the
circle.  A root that none of this places,
and every root of discs that overlap even after a squarefree split, is
"undetermined": no verdict is a guess, and no root is called "on" the
circle numerically.

Every polynomial solved here is real, so its roots come in conjugate
pairs, and the solver keeps its approximations in pairs as well: it
starts from floor(d/2) pairs (u, conj u) with Im u > 0 and, for odd d, one
point on the negative real axis, moves only the upper point of each pair
and sets its mirror to the exact conjugate, which is the mirror's own
Aberth step while the points form a conjugate-symmetric set.  The first
time an upper point reaches or crosses the real axis, which is how
further real roots are reached, every pair still moving is freed into two
independent points, as it is after a fixed number of sweeps.  The
solver also freezes each approximation once its correction is below
tolerance, so a sweep evaluates and moves only the active
representatives, while every point, frozen or mirrored, stays in every
pairwise Aberth sum.  A sweep takes p/p' for those points by baby-step
giant-step evaluation (Paterson and Stockmeyer): blocks of sqrt(d)
coefficients against a table of powers, O(sqrt(d)) numpy calls per sweep
instead of a Horner loop of d steps, with a rounding bound of the same
order as Horner's.  The products run in ``einsum``, not BLAS, whose
threads would cost more CPU than they save.  Points outside the unit disk
go through the reversed polynomial at 1/z.
The discs come from one more pass after the last sweep, one evaluation of
p and p' and one of the weights sum |c_k| |z|^k at each representative,
which also give the backward residual, the acceptance gate.  A mirror
takes its upper point's radius and residual: conjugation maps the roots
of a real p onto themselves and the disc D(z, r) onto D(conj z, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

# Aberth stopping rule: a point is frozen once its correction, relative to
# 1 + |z|, is below _TOL; the solve fails after _MAX_ITER sweeps.
_TOL = 1e-12
_MAX_ITER = 600
# Conjugate pairs still active after this many sweeps are freed; the g_N
# solves up to N = 120 take about 6 to 20 sweeps in all.
_PAIRED_SWEEPS = 50
# Entries per block of the solver's work arrays: 2**18 complex, 4 MB.
_BLOCK_ENTRIES = 1 << 18
# Unit roundoff of float64.
_U = 2.0 ** -53
# Every bound of the disc pass is rounded outward by these factors, far
# above the rounding of the few float operations that form it.
_UP = 1.0 + 2.0 ** -40
_DOWN = 1.0 - 2.0 ** -40
# Absolute slack for underflow: each of at most a million operations of an
# evaluation errs by at most 2**-1075 beyond its relative bound.
_TINY = 2.0 ** -1000
# The exact Newton step starts from its centre rounded to the grid
# 2**-_GRID_BITS and rounds the refined centre to 2**-(2 * _GRID_BITS).
_GRID_BITS = 64


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
    radii: np.ndarray            # inclusion radius about each root


def _bsgs_shape(d: int) -> tuple[int, int]:
    """Block length L and block count nb of ``_bsgs_values`` at degree d."""
    L = math.isqrt(d) + 1
    return L, -(-(d + 1) // L)


def _bsgs_error(d: int) -> float:
    """The constant gamma of ``_bsgs_values``' rounding bound at degree d."""
    L, nb = _bsgs_shape(d)
    return 4 * (d + 2 * L + 2 * nb) * _U


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
    calls and O(d) flops per point.  Real points (the weights of the disc
    pass) run in real arithmetic throughout.  ``einsum`` runs in numpy's
    own loops; BLAS (``@``) would start its thread pool and spend more CPU
    than it saves wall time.  Row blocks of points keep T C within 2**18
    entries.

    Rounding, with u = 2**-53 and S(x) = sum |c_k| |x|^k: the computed
    p(x) is within gamma S(x) of the exact value of the float polynomial,
    gamma = 4 (d + 2L + 2nb) u (``_bsgs_error``), when d u < 1e-6 and
    nothing underflows.  A power x^k = y^b x^j is a chain of at most
    k + nb complex products of relative error sqrt(5) u each, the real dot
    products of length L and the complex sum over the nb blocks add
    sqrt(2) (L + nb) u, and the product U_b (T C)_b adds sqrt(5) u: at
    most (3 (d + nb) + 2 (L + nb) + 3) u per term to first order, which
    gamma covers with a quarter to spare.  The same holds for p' with the
    weights S'(x) = sum k |c_k| |x|^(k-1), once its coefficients k c_k are
    rounded (u more).  At points whose powers are exact (x = 0, 1/2,
    (1 + i)/2, ...) only the sums err, by at most 3 (L + nb) u S(x).
    """
    d = len(coeffs) - 1
    L, nb = _bsgs_shape(d)
    blocks = np.zeros((2 * nb, L), dtype=np.float64)
    flat = blocks.reshape(2, nb * L)
    flat[0, :d + 1] = coeffs
    flat[1, :d] = coeffs[1:] * np.arange(1, d + 1)
    C = np.ascontiguousarray(blocks.T)
    dtype = np.result_type(x, np.float64)
    p = np.empty(x.shape, dtype=dtype)
    dp = np.empty(x.shape, dtype=dtype)
    rows = max(1, _BLOCK_ENTRIES // (2 * nb))
    for i0 in range(0, len(x), rows):
        xb = x[i0:i0 + rows]
        T = np.empty((len(xb), L), dtype=dtype)
        T[:, 0] = 1.0
        T[:, 1:] = xb[:, None]
        np.cumprod(T, axis=1, out=T)
        if dtype == np.complex128:
            B = (np.einsum("ij,jk->ik", T.real, C)
                 + 1j * np.einsum("ij,jk->ik", T.imag, C))
        else:
            B = np.einsum("ij,jk->ik", T, C)
        U = np.empty((len(xb), nb), dtype=dtype)
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


def _evaluate_with_bounds(c: np.ndarray, x: np.ndarray):
    """(v, dv, ev, edv, s): p(x) and p'(x) with rigorous error bounds.

    v and dv come from ``_bsgs_values``; for every real polynomial p with
    |c_k - p_k| <= 4u |c_k| they satisfy |v - p(x)| <= ev and
    |dv - p'(x)| <= edv.  That covers ``aberth_solve``'s coefficients,
    each the quotient of two rounded integers (3u at most).  The bounds
    add that coefficient error (5u for p', whose k c_k are rounded once
    more) to ``_bsgs_error``, both times the weights S(|x|) and S'(|x|).
    Those are evaluated at |x| rounded up, and since all their terms are
    nonnegative, each computed weight is at most a factor 1 + gamma below
    its exact value.  s is the computed S(|x|).
    """
    d = len(c) - 1
    gamma = _bsgs_error(d)
    v, dv = _bsgs_values(c, x)
    s, ds = _bsgs_values(np.abs(c), np.abs(x) * _UP)
    grow = (1.0 + gamma) * _UP
    ev = ((gamma + 4 * _U) * grow * s + _TINY) * _UP
    edv = ((gamma + 5 * _U) * grow * ds + _TINY) * _UP
    return v, dv, ev, edv, s


def _disc_radii(c: np.ndarray, x: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Inclusion radii about the points x and backward residuals.

    The disc of radius d B / L about x holds a root of p, where
    B = |v| + ev >= |p(x)| and L = |dv| - edv <= |p'(x)|; the radius is
    infinite when L <= 0.  The residual is |p(x)| / S(|x|), computed.
    """
    d = len(c) - 1
    v, dv, ev, edv, s = _evaluate_with_bounds(c, x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        upper = (np.abs(v) + ev) * _UP
        lower = (np.abs(dv) * _DOWN - edv) * _DOWN
        rho = np.where(lower > 0, d * upper / lower * _UP, np.inf)
        resid = np.abs(v) / s
    rho[np.isnan(rho)] = np.inf
    return rho, resid


def _inclusion_radii(c: np.ndarray, z: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Radii r_i such that the disc of radius r_i about z_i holds a root of
    p = sum c_k w^k, and the backward residuals, from one pass.

    Points outside the unit disk are evaluated through q = rev(p) at
    u = fl(1/z), as in ``_newton_ratio``.  A disc D(u, rho) with rho < |u|
    holds a root of q, whose inverse is a root of p, and inversion maps it
    into the disc about 1/u of radius rho / (|u| (|u| - rho)).  numpy
    divides complex numbers by Smith's algorithm, relative error at most
    6u, so 1/u is within 7u |z| of z; the radius adds 16u |z| for it.
    """
    outside = np.abs(z) > 1.0
    radii = np.empty(z.shape, dtype=np.float64)
    resid = np.empty(z.shape, dtype=np.float64)
    if not outside.all():
        radii[~outside], resid[~outside] = _disc_radii(c, z[~outside])
    if outside.any():
        zo = z[outside]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = 1.0 / zo
            rho, resid[outside] = _disc_radii(c[::-1], u)
            au = np.abs(u) * _DOWN
            gap = (au - rho) * _DOWN
            r = np.where(gap > 0, rho / (au * gap * _DOWN) * _UP, np.inf)
            radii[outside] = (r + np.abs(zo) * 2.0 ** -49) * _UP
    return radii, resid


def aberth_solve(p: IntPolynomial, seed: int = 0) -> SolveResult:
    """All roots of p by simultaneous Aberth-Ehrlich iteration, solving
    each conjugate pair of approximations once.

    p is real, so its roots come in conjugate pairs, and the iteration
    keeps its approximations in pairs too.  With m = floor(d/2) and
    n = 2m + 1, the start points are the m upper points u_k at angles
    (2k + 1) pi / n, k < m, all in the open upper half plane, their m
    conjugates, and for odd d one point on the negative real axis, all on
    the circle of radius (|a_0|/|a_d|)^(1/d) with seeded 1e-3 radial
    jitter, so runs are reproducible.  No start point lies on the
    imaginary axis, and the set is not symmetric under z -> -z, where an
    even p would keep it.

    A sweep computes p/p' (``_newton_ratio``) and the pairwise Aberth sum
    only for the active representatives: the upper point of each pair and
    every point of no pair.  Each sum still runs over all d points, and
    each mirror is then set to the exact conjugate of its upper point, so
    a sweep costs about half the unpaired one.  That conjugate is the
    mirror's own Aberth step because the points form a conjugate-symmetric
    set: pairs, and the one point on the real axis.  The first sweep that
    takes an upper point onto the real axis or below it, which is how a
    second and further real roots are reached, therefore frees every pair
    still active into two independent points, not the crossing pair alone:
    a mirror moved beside a free point it never saw could land on it.  A
    freed mirror keeps its place from before that sweep, so the two do not
    stay conjugate.  The same happens after _PAIRED_SWEEPS sweeps, and
    from then on the loop is the unpaired iteration; pairs frozen before
    stay pairs.  A point is frozen once its correction falls below
    _TOL (relative to 1 + |z|), and the loop ends when none is left;
    frozen points still enter the pairwise sums, so they keep repelling
    the active ones.  A point whose correction is not finite (coincident
    approximations, a vanishing derivative) is jittered and stays active.

    After the loop, one pass (``_inclusion_radii``) gives each
    representative the radius of a disc about it that holds a root of p,
    and its backward residual; a mirror copies both from its upper point.
    That is rigorous: p is real, so conjugation maps roots of p to roots
    and the disc D(z, r) onto D(conj z, r), which then holds the conjugate
    root.  Convergence means every correction fell below _TOL within
    _MAX_ITER sweeps; if the correction test stalls at the rounding floor,
    a final backward-residual check below 1e-11 still accepts.  Roots at
    the origin are split off exactly first, with radius 0.
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
        return SolveResult(roots, 0, 0.0, 0.0, np.zeros(n_zero))

    # z = [upper points (m), their mirrors (m), the unpaired point (d - 2m)];
    # paired[k] holds while z[k + m] is the conjugate of z[k]
    m = d // 2
    rng = np.random.default_rng(seed)
    radius = (abs(c[0]) / abs(c[-1])) ** (1.0 / d)
    radii = radius * (1.0 + 1e-3 * (2.0 * rng.random(d - m) - 1.0))
    angles = np.pi * (2 * np.arange(m) + 1) / (2 * m + 1)
    upper = radii[:m] * np.exp(1j * angles)
    z = np.concatenate([upper, upper.conj(), -radii[m:]])
    paired = np.zeros(d, dtype=bool)
    paired[:m] = True

    chunk = max(1, _BLOCK_ENTRIES // d)
    active = np.r_[:m, 2 * m:d]
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
        up = active[paired[active]]
        active = active[bad | (rel >= _TOL)]
        if iterations < _PAIRED_SWEEPS and (z[up].imag > 0.0).all():
            z[up + m] = z[up].conj()
        elif up.size:
            # free every pair still active; each mirror keeps its place
            # from before this sweep
            paired[up] = False
            active = np.union1d(active, np.concatenate([up, up + m]))
        if not active.size:
            break
    mirrors = np.flatnonzero(paired) + m
    rep = np.ones(d, dtype=bool)
    rep[mirrors] = False
    radii = np.empty(d, dtype=np.float64)
    resid = np.empty(d, dtype=np.float64)
    radii[rep], resid[rep] = _inclusion_radii(c, z[rep])
    radii[mirrors], resid[mirrors] = radii[mirrors - m], resid[mirrors - m]
    max_resid = float(resid.max()) if np.isfinite(resid).all() else math.inf
    if max_corr >= _TOL and max_resid > 1e-11:
        raise SolverError("Aberth iteration did not converge",
                          iterations=iterations, max_correction=max_corr,
                          max_residual=max_resid)
    if n_zero:
        z = np.concatenate([z, np.zeros(n_zero, dtype=np.complex128)])
        radii = np.concatenate([radii, np.zeros(n_zero)])
    return SolveResult(z, iterations, max_corr, max_resid, radii)


# ---------------------------------------------------------------------------
# Exact unit-circle split
# ---------------------------------------------------------------------------

@dataclass
class StripResult:
    cofactor: IntPolynomial                      # F / prod Phi_d^m
    cyclotomic_factors: list[tuple[int, int]]    # (d, multiplicity)


def strip_unit_circle_part(F: IntPolynomial) -> StripResult:
    """Divide every cyclotomic factor of F, with its multiplicity, off F.

    Requires F(0) != 0.  Phi_d^m divides F exactly when it divides
    G = gcd(F, reciprocal(F)), as Phi_d is palindromic up to sign.  G is
    computed exactly, then peeled by exact trial division against every
    Phi_d with phi(d) at most the degree of what remains, with no
    floating-point screen, and each Phi_d found is divided off F too.  The
    cofactor keeps every other root (reciprocal pairs, self-reciprocal
    non-cyclotomic factors) for numeric classification.  ``classify_roots``
    passes g of F_N = g(z**2), so there the factors are Phi_e(w).
    """
    if F.is_zero:
        raise ValueError("zero polynomial")
    if F[0] == 0:
        raise ValueError("F(0) must be nonzero; divide out z first")
    G = gcd_rational(F, reciprocal(F))
    cofactor = F
    factors: list[tuple[int, int]] = []
    # candidates d have phi(d) <= deg(G); phi(d) > sqrt(d) for d > 6
    d = 0
    while G.degree > 0 and d < max(6, G.degree ** 2):
        d += 1
        phi_d = arith.euler_phi(d)
        if phi_d > G.degree:
            continue
        phi_poly = cyclotomic(d)
        mult = 0
        while G.degree >= phi_d:
            q, r = divrem_exact(G, phi_poly)
            if not r.is_zero:
                break
            G = q
            cofactor = divrem_exact(cofactor, phi_poly)[0]
            mult += 1
        if mult:
            factors.append((d, mult))
    return StripResult(cofactor, factors)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass
class RootClassification:
    N: int
    inside: int
    on_circle: int
    outside: int
    undetermined: int


def _isolated(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """True where the disc D(z_i, r_i) meets no other disc of the set.

    Discs i and j can meet only if |Re z_i - Re z_j| <= r_i + max r, so
    after sorting on the real part each disc is compared with the
    neighbours within that reach only, never with all the others.
    Distances are rounded down and radii up.
    """
    n = len(z)
    if n < 2:
        return np.ones(n, dtype=bool)
    if not np.isfinite(r).all():
        return np.zeros(n, dtype=bool)
    order = np.argsort(z.real, kind="stable")
    zs, rs = z[order], r[order]
    x = zs.real
    reach = x + 2 * (rs + rs.max()) + np.abs(x) * 2.0 ** -50
    hi = np.searchsorted(x, reach, side="right")
    free = np.ones(n, dtype=bool)
    span = int((hi - np.arange(1, n + 1)).max())
    if span:
        step = np.arange(1, span + 1)
        rows = max(1, _BLOCK_ENTRIES // span)
        for i0 in range(0, n, rows):
            i = np.arange(i0, min(i0 + rows, n))[:, None]
            valid = i + step < hi[i]
            j = np.where(valid, i + step, i)
            hit = valid & (np.abs(zs[i] - zs[j]) * _DOWN
                           <= (rs[i] + rs[j]) * _UP)
            free[i[hit.any(axis=1), 0]] = False
            free[j[hit]] = False
    out = np.empty(n, dtype=bool)
    out[order] = free
    return out


def _pairwise_sum(coeffs: list[int], powers: list[tuple[int, int]], e: int
                  ) -> tuple[int, int]:
    """D^(n-1) sum_k c_k x^k for the n coefficients, x = A / D, D = 2^e.

    Summed pairwise, like a product tree: a block of n coefficients
    carries D^(n-1) times its value, and a full block of width m joins the
    block to its right, of width n', as L D^n' + A^m R, with A^m the
    squaring ``powers[j]`` = A^(2^j) and the Gaussian product taken by
    three integer products.
    """
    vals = [(c, 0) for c in coeffs]
    n, width = len(vals), 1
    for pr, pi in powers:
        if len(vals) == 1:
            break
        joined = []
        for i in range(0, len(vals) - 1, 2):
            (lr, li), (rr, ri) = vals[i], vals[i + 1]
            shift = e * min(width, n - (i + 1) * width)
            k1 = rr * (pr + pi)
            k2 = pr * (ri - rr)
            k3 = pi * (rr + ri)
            joined.append(((lr << shift) + k1 - k3, (li << shift) + k1 + k2))
        if len(vals) % 2:
            joined.append(vals[-1])
        vals, width = joined, 2 * width
    return vals[0]


def _exact_values(coeffs: tuple[int, ...], a: int, b: int, e: int
                  ) -> tuple[int, int, int, int]:
    """D^d p(x) and D^(d-1) p'(x) at x = (a + ib) / D, D = 2^e, exactly.

    Returned as (Re, Im, Re, Im) integers, both summed pairwise
    (``_pairwise_sum``) on one table of squarings of a + ib.  Python's
    Karatsuba products make that O(M(d e) log d), where Horner's rule
    would take O(d^2 e): at d = 7897 and e = 64, 0.4 s against 2.7 s.
    """
    powers = [(a, b)]
    while 1 << len(powers) < len(coeffs):
        pr, pi = powers[-1]
        powers.append(((pr - pi) * (pr + pi), 2 * pr * pi))
    derivative = [k * c for k, c in enumerate(coeffs)][1:]
    return (*_pairwise_sum(coeffs, powers, e),
            *_pairwise_sum(derivative, powers, e))


def _sqrt_up(num: int, den: int) -> Fraction:
    """A rational upper bound on sqrt(num / den) within a relative 2**-60."""
    shift = max(0, min(num.bit_length(), den.bit_length()) - 192)
    num, den = (num >> shift) + 1, den >> shift
    t = max(0, (130 - num.bit_length() + den.bit_length()) // 2)
    return Fraction(math.isqrt((num << 2 * t) // den) + 1, 1 << t)


def _exact_disc_side(z: complex, r: float, a: int, b: int, e: int,
                     rho: Fraction) -> int:
    """-1 or 1 if the disc about c = (a + ib) / 2^e of radius rho lies
    inside D(z, r) and inside or outside |w| = 1, else 0; exactly."""
    scale = Fraction(1, 1 << e)
    if math.isfinite(r):
        slack = Fraction(r) - rho
        dist2 = ((a * scale - Fraction(z.real)) ** 2
                 + (b * scale - Fraction(z.imag)) ** 2)
        if slack < 0 or dist2 > slack * slack:
            return 0
    mag2 = (a * a + b * b) * scale * scale
    if rho < 1 and mag2 < (1 - rho) ** 2:
        return -1
    if mag2 > (1 + rho) ** 2:
        return 1
    return 0


def _exact_side(coeffs: tuple[int, ...], z: complex, r: float) -> int:
    """-1 (inside) or 1 (outside) if exact arithmetic places a root of p
    in the disc D(z, r) on that side of |w| = 1, else 0.

    It keeps the side verdict of a disjoint disc that meets the circle,
    else undetermined: 112 discs of ``table1`` to N = 120, all N >= 83,
    and none in the benchmark or ``table1`` to N = 40, seeds 0 and 1.

    p and p' are taken exactly (``_exact_values``) at z rounded to the
    grid 2**-64, and the disc of radius rho >= d |p/p'| about that point
    holds a root; if it lies inside D(z, r), that is a root of D(z, r),
    the only one when the solver's discs are disjoint.  If the disc does
    not settle the side, one Newton step, rounded to the grid 2**-128,
    gives a second centre and disc, again exact.  Every comparison is
    exact, in rationals.
    """
    d = len(coeffs) - 1
    e = _GRID_BITS
    a, b = round(math.ldexp(z.real, e)), round(math.ldexp(z.imag, e))
    while True:
        vr, vi, wr, wi = _exact_values(coeffs, a, b, e)
        w2 = wr * wr + wi * wi
        if not w2:
            return 0
        rho = _sqrt_up(d * d * (vr * vr + vi * vi), w2 << 2 * e)
        side = _exact_disc_side(z, r, a, b, e, rho)
        if side or e > _GRID_BITS:
            return side
        # x - p/p' = (A W - V) / (W D), rounded to the grid 2**-2e
        nr, ni = a * wr - b * wi - vr, a * wi + b * wr - vi
        a = ((nr * wr + ni * wi << e + 1) + w2) // (2 * w2)
        b = ((ni * wr - nr * wi << e + 1) + w2) // (2 * w2)
        e *= 2


def _count_sides(P: IntPolynomial, result: SolveResult
                 ) -> tuple[int, int, int, bool]:
    """(inside, outside, undetermined, disjoint) for the solved roots of P.

    Only discs that meet no other disc are counted.  When all of them are
    disjoint (``disjoint``) each holds exactly one root, so the counts are
    exact; otherwise each counted disc still holds at least one, and the
    inside and outside counts are proved lower bounds.  A disc that meets
    the circle goes to ``_exact_side``.
    """
    z, r = result.roots, result.radii
    free = _isolated(z, r)
    mag = np.abs(z)
    inside = free & (mag * _UP + r * _UP < _DOWN)
    outside = free & (mag * _DOWN - r * _UP > _UP)
    n_in, n_out = int(inside.sum()), int(outside.sum())
    for k in np.flatnonzero(free & ~inside & ~outside):
        side = _exact_side(P.coeffs, complex(z[k]), float(r[k]))
        n_in += side < 0
        n_out += side > 0
    return n_in, n_out, len(z) - n_in - n_out, bool(free.all())


def _squarefree_pieces(P: IntPolynomial) -> list[IntPolynomial]:
    """Squarefree polynomials whose product is P, split by gcd(P, P'); a
    root of multiplicity m lies in m of them, so their counts add.

    Only overlapping discs reach it, never in the benchmark or in
    ``table1`` to N = 40.  It keeps proved counts for repeated roots,
    whose discs overlap at any precision and would be undetermined."""
    pieces: list[IntPolynomial] = []
    work = [P]
    while work:
        piece = work.pop()
        G = gcd_rational(piece, piece.derivative())
        if G.degree > 0:
            work += [exact_quotient_or_none(piece, G), G]
        else:
            pieces.append(piece)
    return pieces


def _solve_counts(P: IntPolynomial, seed: int) -> tuple[int, int, int]:
    """(inside, outside, undetermined) for the roots of P, P(0) != 0.

    P is solved as it stands: for ``classify_roots``, once per N, the one
    cofactor of g.  Only when its discs overlap is it split into
    squarefree pieces, each solved and counted on its own.
    """
    if P.degree < 1:
        return 0, 0, 0
    *counts, disjoint = _count_sides(P, aberth_solve(P, seed=seed))
    if not disjoint:
        pieces = _squarefree_pieces(P)
        if len(pieces) > 1:
            split = [_count_sides(q, aberth_solve(q, seed=seed))[:3]
                     for q in pieces]
            counts = [sum(col) for col in zip(*split)]
    return tuple(counts)


def classify_roots(N: int, table: PrimeTable, *,
                   seed: int = 0) -> RootClassification:
    """Locate all roots of F_N relative to the unit circle.

    F_N is even, F_N(z) = g(z**2), and all the work runs on g, in the
    plane w = z**2: |z| and |w| lie on the same side of 1, and each root w
    gives the two roots +-sqrt(w), so every count is doubled at the end.
    The on-circle count is exact: the sum of phi(e) m over the factors
    Phi_e(w)^m divided off g.  The one cofactor left, with every other
    root, is solved and its roots placed by inclusion discs
    (``_solve_counts``); g itself is never split by gcd(g, g'), which only
    runs for a solved polynomial whose discs overlap.
    """
    if N <= 5:
        raise ValueError("classification is defined for N > 5")
    g = goldbach_polynomial(N, table).even_part()
    strip = strip_unit_circle_part(g)
    on = sum(arith.euler_phi(e) * m for e, m in strip.cyclotomic_factors)
    inside, outside, undet = _solve_counts(strip.cofactor, seed)
    return RootClassification(N=N, inside=2 * inside, on_circle=2 * on,
                              outside=2 * outside, undetermined=2 * undet)


def unit_circle_count_report(classification: RootClassification) -> TheoremReport:
    """Check that F_N has exactly 2*phi(N) roots on the unit circle."""
    N = classification.N
    expected = 2 * arith.euler_phi(N)
    holds = (classification.on_circle == expected
             and classification.undetermined == 0)
    return TheoremReport(
        "unit_circle_count", N, holds,
        witness={
            "expected_on_circle": expected,
            "on_circle": classification.on_circle,
            "undetermined": classification.undetermined,
        },
    )
