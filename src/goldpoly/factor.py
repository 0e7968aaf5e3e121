"""Irreducibility certification by factor-degree patterns across primes.

A proper factor over the integers reduces mod every good prime to a
product of some sub-multiset of the mod-p irreducible factors, so its
degree lies in the subset-sum closure of the mod-p degree pattern.
Intersecting those closures across primes can empty the set of possible
proper-factor degrees, certifying irreducibility; it can never falsely
certify.  Patterns come from distinct-degree factorization (DDF: degrees
only, no equal-degree splitting needed), which also yields each
component G_d, the product of the degree-d factors.

Each prime costs one DDF, and a random Frobenius has a fixed point with
probability about 1 - 1/e, so degree 1 (and with it deg - 1) is often the
last degree to survive.  ``small_degree_screen`` rules out degrees 1 and 2
exactly before any prime.  When g is monic, g(0) != 0 and Cauchy's bound
2^n > sum_{k<n} |c_k| 2^k holds, every root has |z| < 2, and by Gauss's
lemma a factor of degree d may be taken monic in Z[z].  For d = 1 it is
z - r with r in {-1, 0, 1}, so g(-1) g(0) g(1) != 0 excludes it; for d = 2
it is z^2 + a z + b with |a|, |b| <= 3 and b != 0, 42 candidates, each
excluded by a nonzero remainder of g modulo it and a prime.

DDF iterates the Frobenius map h -> h^p mod f.  Over F_p it is linear,
(sum h_i z^i)^p = sum h_i z^(p i), so its matrix is Berlekamp's Q, with
row i equal to z^(p i) mod f.  ``modp.FrobeniusMap`` builds Q once per
prime (one ``powmod``, then log2(deg f) doublings by row-batched
products, each of whose last row is the next doubling's multiplier), and
each DDF step is then one matrix-vector product instead of a ``powmod``.
That product sums deg f terms below (p - 1)^2: Q is int32 while
deg f * (p - 1)^2 < 2**31 (degrees up to about 214 000 at p = 101) and
int64 beyond, and DDF raises ValueError once the sum may reach 2**63.
The steps run in blocks whose product of the h - z is built as a product
tree, one batched multiplication and reduction per level.  The gcd G of
that product with the cofactor collects the factors whose degrees the
block spans, and the cofactor is divided by G once.  G is unpacked by
per-degree gcds that run at the degree of G, not of f, after all of the
block's rows are reduced modulo G at once (von zur Gathen & Gerhard,
Modern Computer Algebra, 9.1).  They stop as soon as the rest of G has
degree below twice the least degree it can still hold: that rest is one
irreducible factor, taken without a gcd, and a G of degree below twice
the block's first degree skips the reduction of the rows as well.

Every F_N is even, F_N(z) = g_N(z^2), and Phi_N(z^2) is exactly the
forced cyclotomic part of F_N (Phi_2N for even N, Phi_N * Phi_2N for odd
N).  So the Goldbach quotient is q(z) = g(z^2) with g = g_N / Phi_N, the
one exact division at half the degree that ``goldbach.goldbach_cofactor``
makes for ``roots.classify_roots`` too, and q is never built:
``certify_even`` runs the intersection on g and lifts the verdict to q
without any DDF of q.
Let g be irreducible with root b.  By Capelli's lemma g(z^2) is
irreducible unless b is a square in Q(b), which forces the norm of b, of
square class (-1)^deg g * g(0) * lc(g), to be a rational square.

- Even N: deg g is odd, g(0) > 0 and lc(g) = 1, so that class is
  negative and q is irreducible.
- Odd N: the norm is a square, and what is left to rule out is
  q = +-h(z)h(-z).  Take a used prime p with p not dividing g(0), so
  that q is squarefree mod p.  Suppose some component G_d of g mod p has
  Legendre symbol ((-1)^deg G_d * G_d(0) | p) = -1.  That symbol is the
  product over the factors u of G_d of ((-1)^d u(0) | p), the quadratic
  character of the norm of a root c of u, and c is a square in F_{p^d}
  iff its norm is a square in F_p.  So some u has a non-square root,
  and u(z^2) is irreducible mod p.  Being even, u(z^2) would divide both
  h(z) and h(-z) mod p, and q mod p would not be squarefree.

When g is not certified, or no used prime passes that test, q itself goes
through the intersection, so a verdict is never forced.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import arith, modp
from .arith import PrimeTable
from .goldbach import goldbach_cofactor
from .poly import IntPolynomial, exact_quotient_or_none, gcd_rational

_DDF_BLOCK = 16
# prime modulo which the degree-2 screen takes its remainders
_SCREEN_PRIME = 2 ** 31 - 1
# a and b of the degree-2 candidates z^2 + a z + b: |a|, |b| <= 3, b != 0
_QUAD_A, _QUAD_B = (np.array(v, dtype=np.int64) for v in zip(
    *((a, b) for a in range(-3, 4) for b in range(-3, 4) if b)))
# first prime tried by the pattern intersection
_PRIME_START = 101
# surviving degrees listed in a certificate's JSON
_JSON_DEGREES = 64


class BadPrimeError(RuntimeError):
    """This prime cannot be used (leading coefficient or squarefreeness)."""


@dataclass
class FactorCertificate:
    verdict: str                   # "Irreducible" | "Unresolved" | "Reducible"
    degree: int
    primes_used: list[int]
    surviving_degrees: tuple[int, ...]
    witness_factor: IntPolynomial | None = None
    N: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "degree": self.degree,
            "primes_used": self.primes_used,
            "surviving_degree_set": list(self.surviving_degrees[:_JSON_DEGREES]),
        }
        if self.N is not None:
            out["N"] = self.N
        if self.witness_factor is not None:
            out["witness_factor"] = list(self.witness_factor.coeffs)
        return out


class DegreePattern(list):
    """Sorted irreducible factor degrees of a squarefree polynomial over F_p.

    ``components[d]`` is the monic product of its degree-d factors, so the
    components multiply to the monic polynomial.
    """

    def __init__(self, components: dict[int, np.ndarray]):
        super().__init__(sorted(d for d, gd in components.items()
                                for _ in range((len(gd) - 1) // d)))
        self.components = components


# ---------------------------------------------------------------------------
# Reduction and distinct-degree patterns
# ---------------------------------------------------------------------------

def reduce_mod_p(f: IntPolynomial, p: int) -> np.ndarray:
    """Coefficientwise reduction of f mod p; rejects vanishing lead."""
    if f.is_zero:
        return np.zeros(0, dtype=np.int64)
    if f.lead % p == 0:
        raise BadPrimeError(f"leading coefficient vanishes mod {p}")
    return modp.from_coeffs(f.coeffs, p)


def distinct_degree_pattern(fp: np.ndarray, p: int) -> DegreePattern:
    """Multiset of irreducible factor degrees of squarefree fp over F_p.

    Iterates h -> h^p mod fp starting from h = z; the gcd of the
    remaining cofactor with h - z after d steps collects all factors of
    degree d, kept as the component of degree d.  Each step is one
    product with the Frobenius matrix of fp (``modp.FrobeniusMap``), built
    once per call, and all steps run mod fp.  That product is exact while
    deg fp * (p - 1)^2 < 2**63; beyond that this raises ValueError.

    The steps run in blocks of ``_DDF_BLOCK``, kept as the rows h_d - z
    of one array.  Their product mod fp is a product tree: each level
    multiplies the rows pairwise in one batched ``modp.mul`` and
    ``ModulusContext.reduce``, padding an odd level with a row equal to 1.
    One gcd G of the cofactor with that product holds exactly the factors
    of degree d0 + 1 .. d0 + steps, and the cofactor is divided by G
    once.  While the rest of G has degree at least 2 dd, the per-degree
    gcd at dd splits off the component of degree dd, against the rows
    reduced mod G in one batched ``reduce`` (done only when
    deg G >= 2 (d0 + 1)).  Below that the rest of G is one irreducible
    factor, recorded without a gcd; an assertion checks that every G is
    used up this way.  Raises BadPrimeError when fp is not squarefree.
    """
    fp = modp.monic(modp.trim(fp), p)
    n = len(fp) - 1
    if n < 1:
        raise ValueError("need degree >= 1")
    if len(modp.gcd(fp, modp.derivative(fp, p), p)) != 1:
        raise BadPrimeError(f"not squarefree mod {p}")
    ctx = modp.ModulusContext(fp, p)
    frobenius = modp.FrobeniusMap(ctx)
    one = np.zeros((1, n), dtype=np.int64)
    one[0, 0] = 1
    components: dict[int, np.ndarray] = {}
    rem = fp
    h = np.array([0, 1], dtype=np.int64)
    d = 0
    while len(rem) - 1 > 0:
        rdeg = len(rem) - 1
        if 2 * (d + 1) > rdeg:
            components[rdeg] = rem
            break
        steps = min(_DDF_BLOCK, rdeg // 2 - d)
        # rows h_d - z, d = d0 + 1 .. d0 + steps; 2 <= rdeg <= n here
        rows = np.zeros((steps, n), dtype=np.int64)
        for i in range(steps):
            h = frobenius(h)
            rows[i, : len(h)] = h
        rows[:, 1] = (rows[:, 1] - 1) % p
        level = rows
        while len(level) > 1:
            if len(level) % 2:
                level = np.concatenate([level, one])
            level = ctx.reduce(modp.mul(level[0::2], level[1::2], p))
        g = modp.gcd(rem, level[0], p)
        if len(g) - 1 > 0:
            rem, r_rem = modp.divmod_poly(rem, g, p)
            if len(r_rem):
                raise AssertionError("inexact split in pattern")
            # g holds the factors of degree d + 1 .. d + steps; once its
            # degree is below twice the least degree left, it is one factor
            dd = d + 1
            if len(g) - 1 >= 2 * dd:
                small = modp.ModulusContext(g, p).reduce(rows)
            while dd <= d + steps and len(g) - 1 >= 2 * dd:
                gd = modp.gcd(g, small[dd - d - 1], p)
                if len(gd) > 1:
                    if (len(gd) - 1) % dd:
                        raise AssertionError("degree pattern inconsistency")
                    components[dd] = gd
                    g, g_rem = modp.divmod_poly(g, gd, p)
                    if len(g_rem):
                        raise AssertionError("inexact split in pattern")
                dd += 1
            if len(g) > 1:
                if not dd <= len(g) - 1 <= d + steps:
                    raise AssertionError("block gcd not used up")
                components[len(g) - 1] = g
        d += steps
    pattern = DegreePattern(components)
    if sum(pattern) != n:
        raise AssertionError("pattern degrees do not sum to the degree")
    return pattern


# ---------------------------------------------------------------------------
# Cheap reducibility screen
# ---------------------------------------------------------------------------

def _bounded_divisors(n: int, cap: int = 10 ** 6) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(min(n, cap * cap)) + 1):
        if n % d == 0:
            out.append(d)
            if n // d <= cap:
                out.append(n // d)
    return sorted(set(out))


def linear_root_screen(f: IntPolynomial) -> IntPolynomial | None:
    """A primitive linear factor of f from a rational root, or None.

    Reached as ``certify_irreducible`` is; it is the one source of a
    Reducible verdict, whose witness is an exact factor."""
    if f.is_zero or f.degree < 1:
        return None
    if f[0] == 0:
        return IntPolynomial((0, 1))
    for q in _bounded_divisors(f.lead, cap=10 ** 3):
        for pv in _bounded_divisors(f[0], cap=10 ** 6):
            for num in (pv, -pv):
                # root num/q  <->  factor q*z - num (primitive when coprime)
                if math.gcd(num, q) != 1:
                    continue
                val = 0
                for k in range(f.degree, -1, -1):
                    val = val * num + f[k] * q ** (f.degree - k)
                if val == 0:
                    return IntPolynomial((-num, q)).primitive_part()
    return None


def small_degree_screen(g: IntPolynomial) -> int:
    """Bit mask of the degrees 0..deg g that a factor of g may have, less
    d and deg g - d for each d in {1, 2}, 0 < d < deg g, at which g
    provably has no factor over Q.

    Needs g monic with g(0) != 0 and 2^n > sum_{k<n} |c_k| 2^k (Cauchy's
    bound, in integers), so that every root has |z| < 2; otherwise every
    degree is kept.  A monic factor over Q of a monic integer polynomial
    lies in Z[z] (Gauss).  One of degree 1 is z - r with r an integer root,
    |r| < 2, so g(-1), g(0), g(1) != 0 rule it out.  One of degree 2 is
    z^2 + a z + b with |a| = |r1 + r2| < 4 and 0 < |b| = |r1 r2| < 4, and
    each of those 42 candidates is ruled out by a nonzero remainder of g
    modulo it and ``_SCREEN_PRIME``.  A zero remainder keeps the degree.
    """
    n = g.degree
    mask = (1 << (n + 1)) - 1
    cs = g.coeffs
    if (g.lead != 1 or cs[0] == 0
            or sum(abs(c) << k for k, c in enumerate(cs[:-1])) >= 1 << n):
        return mask
    if n > 1 and sum(cs) != 0 and sum(cs[0::2]) != sum(cs[1::2]):
        mask &= ~(1 << 1 | 1 << (n - 1))
    if n > 2:
        # Horner's rule modulo each candidate: r1 z + r0 is the remainder
        # of the leading part of g, and z^2 = -a z - b
        a, b, P = _QUAD_A, _QUAD_B, _SCREEN_PRIME
        r1 = np.zeros_like(a)
        r0 = np.zeros_like(a)
        for c in modp.from_coeffs(cs, P)[::-1]:
            r1, r0 = (r0 - a * r1) % P, (c - b * r1) % P
        if np.count_nonzero(r1 | r0) == len(a):
            mask &= ~(1 << 2 | 1 << (n - 2))
    return mask


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def _subset_sum_mask(pattern: list[int]) -> int:
    mask = 1
    for d in pattern:
        mask |= mask << d
    return mask


def _intersect_patterns(f: IntPolynomial, surviving: int, max_primes: int,
                        accept=None) -> FactorCertificate:
    """Pattern intersection for f over its first usable primes >= 101.

    ``surviving`` is the bit mask of the factor degrees not yet ruled out,
    with bits 0 and deg f set.  Bad primes are skipped and not counted.
    Irreducible once no proper factor degree survives and, when ``accept``
    is given, accept(p, pattern) has held at some used prime; Unresolved
    with the surviving degree set when ``max_primes`` primes do not get
    there, or at once when f is not squarefree, since then every prime is
    bad.
    """
    n = f.degree
    proper_mask = surviving & ~(1 | (1 << n))
    accepted = accept is None
    squarefree = None
    primes_used: list[int] = []
    schedule = filter(arith.is_prime, itertools.count(_PRIME_START, 2))
    while len(primes_used) < max_primes:
        p = next(schedule)
        try:
            pattern = distinct_degree_pattern(reduce_mod_p(f, p), p)
        except BadPrimeError:
            if squarefree is None:
                squarefree = gcd_rational(f, f.derivative()).degree == 0
            if not squarefree:
                break
            continue
        primes_used.append(p)
        surviving &= _subset_sum_mask(pattern)
        accepted = accepted or accept(p, pattern)
        if surviving & proper_mask == 0 and accepted:
            return FactorCertificate("Irreducible", n, primes_used, ())
    remaining = tuple(d for d in range(1, n) if surviving >> d & 1)
    return FactorCertificate("Unresolved", n, primes_used, remaining)


def certify_irreducible(f: IntPolynomial,
                        max_primes: int = 12) -> FactorCertificate:
    """Degree-pattern certificate for primitive f of degree >= 1.

    Uses the first ``max_primes`` usable primes >= 101 (bad primes are
    skipped and not counted).  Outcomes: Irreducible when no
    proper factor degree survives the intersection; Reducible with an
    exact witness from the rational-root screen; otherwise Unresolved
    with the surviving degree set (an honest outcome, never forced).
    A Goldbach quotient reaches it only when its g is Unresolved or
    unaccepted in ``certify_even`` (no N of the benchmark); it keeps that
    q's verdict unforced.
    """
    n = f.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    if abs(f.content()) != 1:
        raise ValueError("certify_irreducible expects a primitive polynomial")
    if n == 1:
        return FactorCertificate("Irreducible", n, [], ())
    wit = linear_root_screen(f)
    if wit is not None:
        if exact_quotient_or_none(f, wit) is None:
            raise AssertionError("screen witness does not divide")
        return FactorCertificate("Reducible", n, [], tuple(range(1, n)),
                                 witness_factor=wit)
    return _intersect_patterns(f, (1 << (n + 1)) - 1, max_primes)


def excludes_mirror_split(g: IntPolynomial, p: int,
                          pattern: DegreePattern) -> bool:
    """True when the DDF of g mod p rules out g(z^2) = +-h(z)h(-z).

    Needs p not dividing g(0), so that g(z^2) is squarefree mod p, and
    some component G_d with ((-1)^deg G_d * G_d(0) | p) = -1; the module
    docstring gives the proof.
    """
    if g[0] % p == 0:
        return False
    half = (p - 1) // 2
    return any(pow((-1) ** (len(gd) - 1) * int(gd[0]), half, p) == p - 1
               for gd in pattern.components.values())


def certify_even(g: IntPolynomial, max_primes: int = 12) -> FactorCertificate:
    """Certificate for q(z) = g(z^2), g primitive, from the DDF of g.

    Certifies g by pattern intersection, starting from the degrees that
    ``small_degree_screen`` leaves, and lifts the verdict to q: at
    once when the norm class (-1)^deg g * g(0) * lc(g) is not a square,
    otherwise only after ``excludes_mirror_split`` held at a used prime.
    If neither happens within ``max_primes`` primes, q is built and the
    certificate is ``certify_irreducible(q)``.  Degree and verdict refer
    to q.
    """
    if g.degree < 1:
        raise ValueError("certify_even expects g of degree >= 1")
    if abs(g.content()) != 1:
        raise ValueError("certify_even expects a primitive polynomial")
    norm = (-1) ** g.degree * g[0] * g.lead
    accept = None
    if norm >= 0 and math.isqrt(norm) ** 2 == norm:
        accept = functools.partial(excludes_mirror_split, g)
    cert = _intersect_patterns(g, small_degree_screen(g), max_primes, accept)
    if cert.verdict != "Irreducible":
        return certify_irreducible(g.compose_square(), max_primes)
    return FactorCertificate("Irreducible", 2 * g.degree, cert.primes_used, ())


def certify_goldbach_quotient(N: int, table: PrimeTable,
                              max_primes: int = 12) -> FactorCertificate:
    """Certificate for q = F_N / Phi_N(z^2), F_N with its forced cyclotomic
    factors divided out: F_N / Phi_2N for even N, F_N / (Phi_N * Phi_2N)
    for odd N.

    With F_N(z) = g_N(z^2), q(z) = g(z^2) for g = g_N / Phi_N
    (``goldbach.goldbach_cofactor``, which raises TheoremViolation if the
    division is inexact), and g goes through ``certify_even``.
    """
    cert = certify_even(goldbach_cofactor(N, table), max_primes=max_primes)
    cert.N = N
    return cert
