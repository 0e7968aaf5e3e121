"""Irreducibility certification by factor-degree patterns across primes.

A proper factor over the integers reduces mod every good prime to a
product of some sub-multiset of the mod-p irreducible factors, so its
degree lies in the subset-sum closure of the mod-p degree pattern.
Intersecting those closures across primes can empty the set of possible
proper-factor degrees, certifying irreducibility; it can never falsely
certify.  Patterns come from distinct-degree factorization (degrees only,
no equal-degree splitting needed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import arith, modp
from .arith import PrimeTable
from .goldbach import goldbach_polynomial
from .poly import (
    IntPolynomial,
    cyclotomic,
    divrem_exact,
    exact_quotient_or_none,
    multiply,
)

_DDF_BLOCK = 8


class BadPrimeError(RuntimeError):
    """This prime cannot be used (leading coefficient or squarefreeness)."""


@dataclass
class ScreenResult:
    kind: str                      # "none" | "content" | "linear"
    content: int = 1
    factor: IntPolynomial | None = None


@dataclass
class FactorCertificate:
    verdict: str                   # "Irreducible" | "Unresolved" | "Reducible"
    degree: int
    primes_used: list[int]
    surviving_degrees: tuple[int, ...]
    witness_factor: IntPolynomial | None = None
    N: int | None = None

    def to_json_dict(self, truncate: int = 64) -> dict:
        out = {
            "verdict": self.verdict,
            "degree": self.degree,
            "primes_used": self.primes_used,
            "surviving_degree_set": list(self.surviving_degrees[:truncate]),
        }
        if self.N is not None:
            out["N"] = self.N
        if self.witness_factor is not None:
            out["witness_factor"] = list(self.witness_factor.coeffs)
        return out


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


def distinct_degree_pattern(fp: np.ndarray, p: int) -> list[int]:
    """Multiset of irreducible factor degrees of squarefree fp over F_p.

    Iterates h -> h^p mod fp starting from h = z; the gcd of the
    remaining cofactor with h - z after d steps collects all factors of
    degree d.  gcds are batched in blocks and unpacked only when a block
    hits.  Raises BadPrimeError when fp is not squarefree.
    """
    fp = modp.monic(modp.trim(fp), p)
    n = len(fp) - 1
    if n < 1:
        raise ValueError("need degree >= 1")
    if len(modp.gcd(fp, modp.derivative(fp, p), p)) != 1:
        raise BadPrimeError(f"not squarefree mod {p}")
    ctx = modp.ModulusContext(fp, p)
    z_poly = np.array([0, 1], dtype=np.int64)
    degrees: list[int] = []
    rem = fp
    h = z_poly
    d = 0
    while len(rem) - 1 > 0:
        rdeg = len(rem) - 1
        if 2 * (d + 1) > rdeg:
            degrees.append(rdeg)
            rem = np.array([1], dtype=np.int64)
            break
        if rdeg >= 2 and 2 * rdeg < len(ctx.f) - 1:
            # rebase onto the (much smaller) remaining cofactor
            ctx = modp.ModulusContext(rem, p)
            h = modp.divmod_poly(h, rem, p)[1]
        steps = min(_DDF_BLOCK, rdeg // 2 - d)
        block: list[tuple[int, np.ndarray]] = []
        prod = np.array([1], dtype=np.int64)
        for _ in range(steps):
            h = ctx.powmod(h, p)
            d += 1
            block.append((d, h))
            h_minus_z = modp.sub(h, z_poly, p)
            prod = ctx.mulmod(prod, h_minus_z) if len(h_minus_z) else h_minus_z
        g = modp.gcd(rem, prod, p)
        if len(g) - 1 > 0:
            for dd, hd in block:
                gd = modp.gcd(g, modp.sub(hd, z_poly, p), p)
                deg_gd = len(gd) - 1
                if deg_gd > 0:
                    if deg_gd % dd:
                        raise AssertionError("degree pattern inconsistency")
                    degrees.extend([dd] * (deg_gd // dd))
                    g, g_rem = modp.divmod_poly(g, gd, p)
                    rem, r_rem = modp.divmod_poly(rem, gd, p)
                    if len(g_rem) or len(r_rem):
                        raise AssertionError("inexact split in pattern")
    if sum(degrees) != n:
        raise AssertionError("pattern degrees do not sum to the degree")
    return sorted(degrees)


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


def linear_root_screen(f: IntPolynomial) -> ScreenResult:
    """Rational-root and content screen; returns a linear witness if found."""
    if f.is_zero or f.degree < 1:
        return ScreenResult("none")
    c = f.content()
    if c != 1:
        return ScreenResult("content", content=c)
    if f[0] == 0:
        return ScreenResult("linear", factor=IntPolynomial((0, 1)))
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
                    return ScreenResult(
                        "linear", factor=IntPolynomial((-num, q)).primitive_part())
    return ScreenResult("none")


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def _subset_sum_mask(pattern: list[int]) -> int:
    mask = 1
    for d in pattern:
        mask |= mask << d
    return mask


def certify_irreducible(f: IntPolynomial, max_primes: int = 12,
                        prime_start: int = 101) -> FactorCertificate:
    """Degree-pattern certificate for primitive f of degree >= 1.

    Uses the first ``max_primes`` usable primes >= ``prime_start`` (bad
    primes are skipped and not counted).  Outcomes: Irreducible when no
    proper factor degree survives the intersection; Reducible with an
    exact witness from the rational-root screen; otherwise Unresolved
    with the surviving degree set (an honest outcome, never forced).
    """
    n = f.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    if abs(f.content()) != 1:
        raise ValueError("certify_irreducible expects a primitive polynomial")
    if n == 1:
        return FactorCertificate("Irreducible", n, [], ())
    screen = linear_root_screen(f)
    if screen.kind == "linear":
        wit = screen.factor
        if exact_quotient_or_none(f, wit) is None:
            raise AssertionError("screen witness does not divide")
        return FactorCertificate("Reducible", n, [], tuple(range(1, n)),
                                 witness_factor=wit)

    surviving = (1 << (n + 1)) - 1
    proper_mask = surviving & ~(1 | (1 << n))
    primes_used: list[int] = []
    schedule = filter(arith.is_prime, itertools.count(prime_start | 1, 2))
    while len(primes_used) < max_primes:
        p = next(schedule)
        try:
            fp = reduce_mod_p(f, p)
            pattern = distinct_degree_pattern(fp, p)
        except BadPrimeError:
            continue
        primes_used.append(p)
        surviving &= _subset_sum_mask(pattern)
        if surviving & proper_mask == 0:
            return FactorCertificate("Irreducible", n, primes_used, ())
    remaining = tuple(d for d in range(1, n) if surviving >> d & 1)
    return FactorCertificate("Unresolved", n, primes_used, remaining)


def certify_goldbach_quotient(N: int, table: PrimeTable,
                              F: IntPolynomial | None = None,
                              max_primes: int = 12) -> FactorCertificate:
    """Certificate for F_N with its forced cyclotomic factors divided out.

    Even N: F_N / Phi_2N.  Odd N: F_N / (Phi_N * Phi_2N).  The division
    must be exact; a nonzero remainder would falsify the divisibility
    theorems and raises immediately.
    """
    if N <= 5:
        raise ValueError("quotient certification is defined for N > 5")
    if F is None:
        F = goldbach_polynomial(N, table)
    divisor = cyclotomic(2 * N)
    if N % 2 == 1:
        divisor = multiply(divisor, cyclotomic(N))
    quotient, rem = divrem_exact(F, divisor)
    if not rem.is_zero:
        raise ArithmeticError(f"cyclotomic quotient inexact at N={N}")
    cert = certify_irreducible(quotient, max_primes=max_primes)
    cert.N = N
    return cert
