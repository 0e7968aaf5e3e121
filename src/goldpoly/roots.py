"""Root localization: a proved count of the roots inside the unit circle
by the argument principle, and, where it declines, the exact unit-circle
strip and one solve with inclusion discs.

Every odd-prime F_N is even, F_N(z) = g(z^2), and its roots are the
square roots +-sqrt(w) of the roots w of g, with |z| < 1, = 1 or > 1
exactly when |w| is.  So the whole classification runs on g, in the
plane w = z^2, and its counts are doubled at the end.

By the divisibility theorems Phi_N(w) divides g, and its phi(N) roots lie
on the circle; the cofactor q = g / Phi_N (``goldbach.goldbach_cofactor``)
holds every other root.  ``_solve_counts`` counts them.

**The count.**  If q has no zero on |w| = 1, the number of its zeros
inside, with multiplicity, is the winding number of q(e^(i theta)), and q
is real, so that is Theta / pi, Theta the gain of arg q over the upper
half circle.  The half circle is tiled by arcs.  On each, q and its
Taylor coefficients q^(m)/m!, m <= 4, are evaluated at a centre: on the
first level, L >= 32 (d + 1) arcs about the L-th roots of unity, by a
real FFT of each of the five rows in turn, with Percival's bound for its
error; on the levels below, the two halves of every arc that failed, by
baby-step giant-step evaluation (``_bsgs_values``), with its rounding
bound.  A Taylor bound with a global tail term then proves
|q(w) - q(x)| <= |q(x)| / 2 on a disc about the centre x that covers the
arc, or the arc fails.  An arc that passes holds no zero and turns arg q
by at most pi/6 from its centre, so along the chain from the exact q(1)
through the passing centres to the exact q(-1) each true move is within
pi/3.  Each computed angle errs by its centre's own bound; where two
neighbours' bounds add to less than pi/3, the principal argument of the
computed step is the true move plus the later error minus the earlier
one, and the sum telescopes: Theta, up to rounding, since both ends are
exact.  The count is proved when that leaves one multiple of pi; all of
q's zeros then lie off the circle.  The count declines (None) when q(1)
or q(-1) is 0, when a coefficient reaches 2**53 or the degree 2**16, when
an arc still fails after 40 bisections or a level grows past 4 (d + 1)
arcs, when two neighbours' angle bounds reach pi/3, and when the rounding
bound is too wide.  Every g_N cofactor to N = 200 but N = 183 is counted.

**The fallback.**  Where the count declines, ``strip_unit_circle_part``
divides the cyclotomic factors off (their roots are on the circle,
counted exactly from a gcd with the reciprocal), and if it divided any,
what is left is counted again.  If that declines too, it is solved once:
each of its roots is located by an Aberth-Ehrlich solver and proved by an
inclusion disc.  Since p'/p(z) = sum_k 1/(z - zeta_k), some root of p
lies within d |p(z)/p'(z)| of any point z, so with rigorous bounds
B_i >= |p(z_i)| and L_i <= |p'(z_i)| the disc of radius r_i = d B_i / L_i
about the solver's point z_i holds a root.  A disc that meets no other
disc holds exactly one root, and if it lies wholly inside or outside
|w| = 1 it counts that root on its side.  Every other root is
"undetermined": no verdict is a guess, and no root is called "on" the
circle numerically.  The discs hold roots whether or not the iteration
converged, so the solve never fails: a point still far from a root after
_MAX_ITER sweeps gets a wide or infinite disc and leaves its root
undetermined.  Its seed is N (``classify_roots``), so a row of the table
depends on N alone.

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
giant-step evaluation, the count's evaluator: blocks of sqrt(d)
coefficients against a table of powers, O(sqrt(d)) numpy calls per sweep
instead of a Horner loop of d steps, with a rounding bound of the same
order as Horner's.  The products run in ``einsum``, not BLAS, whose
threads would cost more CPU than they save.  Points outside the unit disk
go through the reversed polynomial at 1/z.
The discs come from one more pass after the last sweep, one evaluation of
p and p' and one of the weights sum |c_k| |z|^k at each representative,
which also give the backward residual, a diagnostic only.  A mirror
takes its upper point's radius and residual: conjugation maps the roots
of a real p onto themselves and the disc D(z, r) onto D(conj z, r).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import arith
from .arith import PrimeTable
from .goldbach import TheoremReport, goldbach_cofactor
from .poly import (
    IntPolynomial,
    cyclotomic,
    divrem_exact,
    gcd_rational,
    reciprocal,
)

# Aberth stopping rule: a point is frozen once its correction, relative to
# 1 + |z|, is below _TOL; the loop stops after _MAX_ITER sweeps at most.
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


@dataclass
class SolveResult:
    roots: np.ndarray
    iterations: int
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


def _with_derivative(coeffs: np.ndarray) -> np.ndarray:
    """The rows of p and p' for ``_bsgs_values``: c and (k c_k), padded."""
    d = len(coeffs) - 1
    rows = np.zeros((2, d + 1), dtype=np.float64)
    rows[0] = coeffs
    rows[1, :d] = coeffs[1:] * np.arange(1, d + 1)
    return rows


def _bsgs_values(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every row polynomial at every point, by baby-step giant-step
    evaluation: entry (r, i) is sum_k rows[r, k] x_i^k.

    With d + 1 coefficients per row, L = isqrt(d) + 1 and
    nb = ceil((d + 1) / L), column r nb + b of the real L x R nb matrix C
    holds the block rows[r, bL : bL + L], so with the baby steps
    T = [x^0 .. x^(L-1)] and the giant steps U = [y^0 .. y^(nb-1)],
    y = x^L, row r at x is sum_b U_b (T C)_(r nb + b) (Paterson and
    Stockmeyer, SIAM J. Comput. 2, 1973).  Both power tables come from
    ``cumprod`` and T C from two real ``einsum`` products, for T.real and
    T.imag, since C is real: R rows cost O(sqrt(d)) numpy calls and
    O(R d) flops per point.  Real points (the weights of the disc pass)
    run in real arithmetic throughout.  ``einsum`` runs in numpy's own
    loops; BLAS (``@``) would start its thread pool and spend more CPU
    than it saves wall time.  Row blocks of points keep T C within 2**18
    entries.

    Rounding, with u = 2**-53 and S(x) = sum |c_k| |x|^k for a row c: the
    computed value is within gamma S(x) of the exact value of the float
    polynomial, gamma = 4 (d + 2L + 2nb) u (``_bsgs_error``), when d u < 1e-6
    and nothing underflows.  A power x^k = y^b x^j is a chain of at most
    k + nb complex products of relative error sqrt(5) u each, the real dot
    products of length L and the complex sum over the nb blocks add
    sqrt(2) (L + nb) u, and the product U_b (T C)_b adds sqrt(5) u: at
    most (3 (d + nb) + 2 (L + nb) + 3) u per term to first order, which
    gamma covers with a quarter to spare.  The row (k c_k) of p' from
    ``_with_derivative`` has the weights S'(x) = sum k |c_k| |x|^(k-1),
    and its rounded coefficients add u more.  At points whose powers are
    exact (x = 0, 1/2, (1 + i)/2, ...) only the sums err, by at most
    3 (L + nb) u S(x).
    """
    R, n = rows.shape
    L, nb = _bsgs_shape(n - 1)
    blocks = np.zeros((R, nb * L), dtype=np.float64)
    blocks[:, :n] = rows
    C = np.ascontiguousarray(blocks.reshape(R * nb, L).T)
    dtype = np.result_type(x, np.float64)
    out = np.empty((R, len(x)), dtype=dtype)
    step = max(1, _BLOCK_ENTRIES // (R * nb))
    for i0 in range(0, len(x), step):
        xb = x[i0:i0 + step]
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
        out[:, i0:i0 + step] = np.einsum("ib,irb->ri", U,
                                         B.reshape(len(xb), R, nb))
    return out


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
            v, dv = _bsgs_values(_with_derivative(coeffs), z[~outside])
            w[~outside] = v / dv
        if outside.any():
            zo = z[outside]
            u = 1.0 / zo
            q, dq = _bsgs_values(_with_derivative(coeffs[::-1]), u)
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
    v, dv = _bsgs_values(_with_derivative(c), x)
    s, ds = _bsgs_values(_with_derivative(np.abs(c)), np.abs(x) * _UP)
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
    root.  The solve returns whether or not the loop converged: a point
    still far from a root after _MAX_ITER sweeps gets a wide or infinite
    disc, whose root ``_count_sides`` leaves undetermined.  ``iterations`` counts the
    sweeps run, below _MAX_ITER once every point froze.  Roots at the
    origin are split off exactly first, with radius 0.
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
        return SolveResult(roots, 0, 0.0, np.zeros(n_zero))

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
    work = np.empty((min(chunk, d), d), dtype=np.complex128)
    active = np.r_[:m, 2 * m:d]
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        za = z[active]
        w = _newton_ratio(c, za)
        s = np.empty(len(active), dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i0 in range(0, len(active), chunk):
                rows = active[i0:i0 + chunk]
                diff = np.subtract(z[rows, None], z[None, :],
                                   out=work[:len(rows)])
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
    if n_zero:
        z = np.concatenate([z, np.zeros(n_zero, dtype=np.complex128)])
        radii = np.concatenate([radii, np.zeros(n_zero)])
    return SolveResult(z, iterations, max_resid, radii)


# ---------------------------------------------------------------------------
# Counting by the argument principle
# ---------------------------------------------------------------------------

# Taylor rows of the arc test: q^(m)/m! for m < _ORDERS, then a tail bound.
_ORDERS = 5
# The first level has L >= _ARCS_PER_ROOT (d + 1) arcs on the whole circle.
_ARCS_PER_ROOT = 32
# Bisection levels below the first; arc centres are integer keys in units
# of h / 2**_MAX_DEPTH.
_MAX_DEPTH = 40
# A float sum or Euclidean norm of at most 2**30 nonnegative terms is at
# most this factor below the exact one.
_SUM_UP = 1.0 + 2.0 ** -20
# A bisected arc's evaluation centre lies within _OFF of its circle point.
_OFF = 16 * _U


def _taylor_rows(coeffs: tuple[int, ...]) -> np.ndarray:
    """Row m holds the coefficients of q^(m)/m!, C(j + m, m) c_(j+m) at j.

    C(k, m) is exact in int64 for k < 2**16, and so is every float c_k
    below 2**53: each entry is the exact one rounded at most twice, within
    3u of it.
    """
    d = len(coeffs) - 1
    c = np.array(coeffs, dtype=np.float64)
    k = np.arange(d + 1, dtype=np.int64)
    binom = np.ones(d + 1, dtype=np.int64)
    rows = np.zeros((_ORDERS, d + 1), dtype=np.float64)
    rows[0] = c
    for m in range(1, _ORDERS):
        binom = binom * (k - m + 1) // m
        rows[m, :max(d + 1 - m, 0)] = binom[m:] * c[m:]
    return rows


def _fft_error(L: int) -> float:
    """eps_L: every entry of ``rfft(x, L)`` is within eps_L sqrt(L) ||x||_2
    of the exact transform of the float vector x.

    Percival's bound for one transform of length 2**k (Math. Comp. 72,
    2003; Higham, *Accuracy and Stability*, Thm 24.2) is
    ||y^ - y||_2 <= ||y||_2 ((1 + u)^k (1 + u sqrt5)^k (1 + beta)^k - 1),
    with ||y||_2 = sqrt(L) ||x||_2.  This is its first-order term, as in
    ``modp.fft_error_bound``, with u doubled for margin and one level more
    for the real transform's packing.
    """
    k = math.log2(L) + 1
    return 2 * _U * (2 + math.sqrt(5)) * k


def _arc_test(rows: Iterable[np.ndarray], E: np.ndarray, rho: float,
              tail: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, values, err) for the discs |w - x_j| <= rho about the
    evaluation centres x_j, given the rows Y_m, m < _ORDERS, in order, with
    Y_m[j] within E[m] of q^(m)(x_j)/m! or of its conjugate, and
    tail >= sum_(m >= _ORDERS) |q^(m)(x_j)/m!| rho^m.

    With A_j = |Y_0[j]| - E[0] <= |q(x_j)| and
    B_j = sum_(m >= 1) (|Y_m[j]| + E[m]) rho^m + tail >= |q(w) - q(x_j)|
    on the disc, rounded down and up, the arc passes iff B_j <= A_j / 2:
    then q(w) / q(x_j) lies in the disc |z - 1| <= 1/2, so q has no zero
    there and its argument stays within pi/6 of that of q(x_j).  values is
    Y_0, and err_j bounds the angle between Y_0[j] and q(x_j), or its
    conjugate: asin(E[0] / A_j) <= (pi/2) E[0] / A_j while E[0] <= A_j,
    and above pi/2, a bound no chain step accepts, otherwise.  rows may be
    any iterable, an array or a generator: each row after Y_0 is folded
    into B as it arrives and then dropped.
    """
    rows = iter(rows)
    values = next(rows)
    lower = (np.abs(values) * _DOWN - E[0]) * _DOWN
    spread = np.full(lower.shape, tail)
    power = rho
    for m in range(1, _ORDERS):
        spread += (np.abs(next(rows)) + E[m]) * power
        power *= rho * _UP
    ok = (lower > 0) & (spread * _UP <= 0.5 * lower)
    err = (np.pi / 2) * E[0] / np.where(ok, lower, 1.0) * _UP * _UP
    return ok, values, err


def _winding_count(q: IntPolynomial) -> int | None:
    """The number of zeros of q in |w| < 1, with multiplicity, when a
    rigorous argument-principle count proves it and the circle free of
    zeros; None otherwise.

    q is real, so the argument of q(e^(i theta)) gains as much over
    [pi, 2 pi] as over [0, pi], and the count is Theta / pi, Theta the
    gain over [0, pi].  That interval is tiled by arcs, each the set of
    circle points within angle r of its centre theta: first L / 2 + 1
    arcs of half-width h = pi / L about the L-th roots of unity, then the
    two halves of every arc that fails ``_arc_test``.  Each arc is tested
    on a disc of radius rho about an evaluation centre x that covers it.
    Along a chain of passing arcs, from the exact q(1) to the exact q(-1),
    the argument moves by at most pi/3 from one centre to the next, and
    Theta is the sum of those moves.  The computed sum is within a
    rounding bound of Theta, an integer multiple of pi, and the count is
    proved when that leaves one multiple.

    - **Decline** (None) if q(1) or q(-1) is 0, if some |c_k| >= 2**53 (the
      float copy of every smaller one is exact), or if d + 1 > 2**16 (the
      keys and binomials below must fit in int64).
    - **First level.** L is the power of two at least 32 (d + 1).  A real
      FFT of each of the _ORDERS rows of ``_taylor_rows`` in turn gives
      q^(m)/m! at the upper-half L-th roots of unity, each within
      E_m = eps_L sqrt(L) ||X_m||_2 + 4u sum |X_m| (``_fft_error`` and the
      rows' own rounding); rho = h.  ``_arc_test`` folds each transform
      into its bound as it comes, so no more than two are held.
    - **Bisection.** A failing arc (theta, r) gives (theta +- r/2, r/2);
      at theta = 0 and pi only the child inside [0, pi] stays.  Every
      child of one level is evaluated in one ``_bsgs_values`` call, at
      x = cos theta + i sin theta computed in float: the key's conversion
      and scaling err by at most 2.4u theta and cos and sin by 4 ulps
      each, so |x - e^(i theta)| <= 14u < 16u = _OFF, and rho = r + _OFF.
      The weights sum |X_m[k]| |x|^k are at most the scalars
      (1 + _OFF)^d sum |X_m|, and E_m is ``_bsgs_error`` plus 4u of them.
    - **Tail.** sum_(m >= 5) |q^(m)(x)/m!| rho^m is at most
      sum_k |c_k| C(k, 5) rho^5 (|x| + rho)^(k-5)
      <= e^(d (rho + _OFF)) rho^5 / 5! sum_k |c_k| k^5.
    - **Stop.** An arc still failing at depth _MAX_DEPTH declines, and so
      does a level of more than 4 (d + 1) arcs, which would cost more than
      four solver sweeps: each zero near the circle fails two to four arcs
      a level while the bisection closes in on it.  So does a level whose
      half-width h / 2**depth is below _OFF: there rho = r + _OFF no
      longer shrinks, and nearly every arc fails again.
    - **Sum.** The chain's points are P_0 = the exact q(1), the passing
      centres in key order, and the exact q(-1) last; point j's computed
      angle errs by delta_j, its ``_arc_test`` err, and 0 at both ends.
      The true move t_j from P_j to P_(j+1) is within pi/3, so where
      delta_j + delta_(j+1) < pi/3 the computed step, wrapped into
      (-pi, pi], is t_j + delta_(j+1) - delta_j, and the steps sum to
      Theta + delta_last - delta_0 = Theta: the angle errors telescope.
      The count declines if any step breaks that condition.  Otherwise
      ``angle`` and the wrap add 64u a step and ``fsum`` 2u |Theta|, and
      with z = round(Theta / pi), the count is z if |Theta - z pi| plus
      that bound is below pi/4: the true gain is then within pi/4 of z pi,
      and a multiple of pi.

    Every bound is rounded outward, as in ``_evaluate_with_bounds``.
    """
    coeffs = q.coeffs
    d = q.degree
    at_one, at_minus_one = sum(coeffs), sum(coeffs[::2]) - sum(coeffs[1::2])
    if (not at_one or not at_minus_one or d + 1 > 1 << 16
            or max(map(abs, coeffs)) >= 1 << 53):
        return None
    L = 1 << (_ARCS_PER_ROOT * (d + 1) - 1).bit_length()
    h = math.pi / L
    X = _taylor_rows(coeffs)
    absX = np.abs(X)
    size = absX.sum(axis=1) * _SUM_UP
    moment = float(sum(abs(ck) * k ** 5 for k, ck in enumerate(coeffs)))

    def tail(rho: float) -> float:
        return (math.exp(d * (rho + _OFF)) * rho ** 5 / 120 * moment
                * _UP ** 5)

    # first level: rfft gives conj(q^(m)(w_j)/m!) at w_j = e^(2 pi i j / L)
    norm = np.sqrt(np.einsum("ij,ij->i", absX, absX)) * _SUM_UP
    E = (_fft_error(L) * math.sqrt(L) * norm + 4 * _U * size) * _UP + _TINY
    rho = h * _UP
    ok, values, err = _arc_test((np.fft.rfft(row, L) for row in X), E, rho,
                                tail(rho))
    keys = np.arange(L // 2 + 1, dtype=np.int64) << (_MAX_DEPTH + 1)
    passed = [(keys[ok], -np.angle(values[ok]), err[ok])]
    failing = keys[~ok]
    del values

    E = ((_bsgs_error(d) + 4 * _U) * math.exp(d * _OFF) * _UP * size
         * _UP + _TINY)
    last = keys[-1]
    for depth in range(1, _MAX_DEPTH + 1):
        if not failing.size:
            break
        if h / (1 << depth) < _OFF:
            return None
        half = 1 << (_MAX_DEPTH - depth)
        kids = np.concatenate([failing - half, failing + half])
        kids = kids[(kids >= 0) & (kids <= last)]
        if len(kids) > 4 * (d + 1):
            return None
        theta = kids * (h / (1 << _MAX_DEPTH))
        rho = (h / (1 << depth) * _UP + _OFF) * _UP
        ok, values, err = _arc_test(
            _bsgs_values(X, np.cos(theta) + 1j * np.sin(theta)), E, rho,
            tail(rho))
        passed.append((kids[ok], np.angle(values[ok]), err[ok]))
        failing = kids[~ok]
    if failing.size:
        return None

    keys, phase, errs = (np.concatenate(col) for col in zip(*passed))
    order = np.argsort(keys, kind="stable")
    phase = np.concatenate([[0.0 if at_one > 0 else math.pi], phase[order],
                            [0.0 if at_minus_one > 0 else math.pi]])
    errs = np.concatenate([[0.0], errs[order], [0.0]])
    if ((errs[:-1] + errs[1:]) * _UP >= math.pi / 3).any():
        return None
    steps = np.diff(phase)
    steps -= 2 * np.pi * np.round(steps / (2 * np.pi))
    theta = math.fsum(steps)
    bound = (64 * _U * len(steps) + 2 * _U * abs(theta)) * _UP
    z = round(theta / math.pi)
    if 0 <= z <= d and abs(theta - z * math.pi) + bound < math.pi / 4:
        return z
    return None


# ---------------------------------------------------------------------------
# Exact unit-circle strip
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
    non-cyclotomic factors).  ``_solve_counts`` calls it only for a
    polynomial whose count declined.
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


def _count_sides(result: SolveResult) -> tuple[int, int, int]:
    """(inside, outside, undetermined) for the solved roots of a polynomial.

    Only discs that meet no other disc and lie wholly inside or wholly
    outside the circle are counted, each for one root, so the inside and
    outside counts are proved lower bounds, and exact when no root is
    left undetermined.
    """
    z, r = result.roots, result.radii
    free = _isolated(z, r)
    mag = np.abs(z)
    n_in = int((free & (mag * _UP + r * _UP < _DOWN)).sum())
    n_out = int((free & (mag * _DOWN - r * _UP > _UP)).sum())
    return n_in, n_out, len(z) - n_in - n_out


def _solve_counts(P: IntPolynomial, seed: int) -> tuple[int, int, int, int]:
    """(on, inside, outside, undetermined) for the roots of P, P(0) != 0,
    with multiplicity.

    In order: ``_winding_count(P)``; where it declines,
    ``strip_unit_circle_part(P)``, whose cyclotomic roots are counted on
    the circle; if the strip divided anything off, the count of the
    cofactor left; and if that is still not proved, one ``aberth_solve``
    of the cofactor, counted by its discs (``_count_sides``), the only
    step that ``seed`` moves; a root whose point did not converge is left
    undetermined.  A cofactor of degree 0 has no roots.
    """
    if P.degree < 1:
        return 0, 0, 0, 0
    inside = _winding_count(P)
    on = 0
    if inside is None:
        strip = strip_unit_circle_part(P)
        on = sum(arith.euler_phi(e) * m for e, m in strip.cyclotomic_factors)
        P = strip.cofactor
        if P.degree < 1:
            return on, 0, 0, 0
        if on:
            inside = _winding_count(P)
        if inside is None:
            return (on, *_count_sides(aberth_solve(P, seed=seed)))
    return on, inside, P.degree - inside, 0


def classify_roots(N: int, table: PrimeTable) -> RootClassification:
    """Locate all roots of F_N relative to the unit circle.

    F_N is even, F_N(z) = g(z**2), and all the work runs on g, in the
    plane w = z**2: |z| and |w| lie on the same side of 1, and each root w
    gives the two roots +-sqrt(w), so every count is doubled at the end.
    Three steps: the cofactor q = g / Phi_N (``goldbach.goldbach_cofactor``),
    its counts (``_solve_counts``, whose fallback solve takes N as its
    seed, so the result depends on N alone), and the phi(N) roots of
    Phi_N(w) added to the on-circle count.
    """
    on, inside, outside, undet = _solve_counts(goldbach_cofactor(N, table),
                                               seed=N)
    on += arith.euler_phi(N)
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
