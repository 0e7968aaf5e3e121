"""Exact dense polynomial arithmetic over the integers.

IntPolynomial stores an immutable tuple of Python ints (index = exponent),
canonical: empty tuple is the zero polynomial, otherwise the last entry is
nonzero.  It is a value with no ring operators: products are taken on
coefficient arrays by ``modp.convolve``.  General division is one
schoolbook long-division loop: ``divrem_exact`` (monic divisor) and
``exact_quotient_or_none`` (any divisor, None unless exact) are checks
around it.  Phi_M and Psi_M = (z**M - 1) / Phi_M are Moebius products
of binomials, built once per radical and cached per M as int64 arrays
with their largest magnitudes (``_division_data``), where ``cyclotomic``
reads Phi_M.  Two routines divide by Phi_M without the long division:
``cyclotomic_quotient_or_none``, the exact quotient, is
a * Psi_M / (z**M - 1), one ``convolve`` and a running sum over rows, and
``remainder_mod_cyclotomic`` folds mod z**M - 1 and takes two
``convolve`` products through the power-series inverse of Phi_M.

gcd_rational returns the primitive integer generator of the gcd ideal over
the rationals: a modular gcd over word primes whose candidate is verified
by exact trial division after every image, so the result is certified
at every degree.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import arith, modp


class NonMonicDivisorError(ValueError):
    """divrem_exact requires a monic divisor."""


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = tuple(map(int, coeffs))
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- construction -----------------------------------------------------
    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    # -- basic queries -----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "IntPolynomial(0)"
        terms = []
        for e in range(self.degree, -1, -1):
            c = self[e]
            if c:
                terms.append(f"{c}*z^{e}" if e else str(c))
        body = " + ".join(terms[:6])
        if len(terms) > 6:
            body += f" + ... ({len(terms)} terms)"
        return f"IntPolynomial({body})"

    # -- structure ----------------------------------------------------------
    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> "IntPolynomial":
        """Content-free copy with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.lead < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def compose_square(self) -> "IntPolynomial":
        """self(z**2)."""
        cs = [0] * (2 * len(self.coeffs))
        cs[0::2] = self.coeffs
        return IntPolynomial(cs)


# ---------------------------------------------------------------------------
# Long division
# ---------------------------------------------------------------------------

def _long_divide(a: IntPolynomial, b: IntPolynomial
                 ) -> tuple[IntPolynomial, IntPolynomial] | None:
    """(quotient, remainder) of a by b over the integers, deg r < deg b.

    None as soon as a leading coefficient is not a multiple of lc(b); for
    monic b that never happens.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    db, lead = b.degree, b.lead
    terms = [(j, bj) for j, bj in enumerate(b.coeffs[:-1]) if bj]
    rem = list(a.coeffs)
    q = [0] * max(0, len(rem) - db)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + db]
        if c:
            c, r = divmod(c, lead)
            if r:
                return None
            q[i] = c
            for j, bj in terms:
                rem[i + j] -= c * bj
            rem[i + db] = 0
    return IntPolynomial(q), IntPolynomial(rem[:db])


def divrem_exact(a: IntPolynomial, b: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Exact (quotient, remainder) for monic b: a = q*b + r, deg r < deg b."""
    if b and b.lead != 1:
        raise NonMonicDivisorError("divisor must be monic")
    return _long_divide(a, b)


def exact_quotient_or_none(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial | None:
    """Quotient when b divides a exactly over the integers, else None.

    b need not be monic; every elimination step checks integer
    divisibility of the leading coefficient.
    """
    qr = _long_divide(a, b)
    if qr is None or not qr[1].is_zero:
        return None
    return qr[0]


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

def _radical_product(primes: tuple[int, ...], cofactor: bool) -> tuple[int, ...]:
    """Phi_r = prod_{d | r} (z**d - 1)**mu(r/d), or with ``cofactor``
    Psi_r = (z**r - 1) / Phi_r, the same product over d < r with exponents
    -mu(r/d), for r the product of ``primes`` (Arnold & Monagan, Math.
    Comp. 80, 2011).

    Each z**d - 1 has constant term -1, so the product is taken as a power
    series mod z**L, L the degree plus one (phi(r) + 1, or r - phi(r) + 1
    for Psi_r), in any order: multiplying by z**d - 1 subtracts the series
    from its shift by d, dividing is a running sum within each residue
    class mod d, and a binomial with d >= L is -1.  Coefficients are
    Python ints throughout.
    """
    rad = math.prod(primes)
    phi = math.prod(p - 1 for p in primes)
    length = (rad - phi if cofactor else phi) + 1
    cs = [1] + [0] * (length - 1)
    for k in range(len(primes) + 1):
        for subset in itertools.combinations(primes, k):
            d = math.prod(subset)
            # mu(r/d) = (-1)**(number of primes of r missing from d)
            mu_plus = (len(primes) - k) % 2 == 0
            if cofactor and d == rad:
                continue
            if d >= length:
                # z**d - 1 = -1 mod z**L, whatever its exponent
                cs = [-c for c in cs]
            elif mu_plus != cofactor:
                # exponent +1: a * (z**d - 1) = a shifted up by d, minus a
                cs = [hi - lo for hi, lo in zip([0] * d + cs, cs)]
            else:
                # exponent -1: a / (z**d - 1) = q, q[i] = q[i - d] - a[i]
                cs = [-c for c in cs]
                for r in range(d):
                    cs[r::d] = itertools.accumulate(cs[r::d])
    return tuple(cs)


@functools.cache
def _radical_arrays(primes: tuple[int, ...]) -> tuple:
    """Phi_r and -Psi_r less its top coefficient (``_radical_product``) as
    int64 arrays, and the largest magnitude of each (0 for Psi_1's empty
    one); a coefficient past int64 raises OverflowError here, not wraps."""
    phi = np.array(_radical_product(primes, False), dtype=np.int64)
    neg_psi = -np.array(_radical_product(primes, True)[:-1], dtype=np.int64)
    phi.flags.writeable = neg_psi.flags.writeable = False
    return (phi, neg_psi, int(np.abs(phi).max()),
            int(np.abs(neg_psi).max(initial=0)))


@functools.cache
def _division_data(M: int) -> tuple:
    """phi(M), Phi_M and -Psi_M[:k] (k = M - phi(M)) as int64 arrays, and
    the largest magnitudes of the two, for M >= 1: the radical's
    ``_radical_arrays`` spread by M / rad(M), since Phi_M(z) =
    Phi_r(z**(M/r)) and Psi_M(z) = Psi_r(z**(M/r)) for r = rad(M)."""
    primes = tuple(p for p, _ in arith.factorize(M))
    phi_r, neg_psi_r, phi_max, psi_max = _radical_arrays(primes)
    step = M // math.prod(primes)
    m = step * (len(phi_r) - 1)
    phi = np.zeros(m + 1, dtype=np.int64)
    phi[::step] = phi_r
    # Psi_M has degree k = M - m; its top coefficient is left out
    neg_psi = np.zeros(M - m, dtype=np.int64)
    neg_psi[::step] = neg_psi_r
    phi.flags.writeable = neg_psi.flags.writeable = False
    return m, phi, neg_psi, phi_max, psi_max


def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial (n >= 1), from ``_division_data``."""
    return IntPolynomial(_division_data(n)[1].tolist())


def cyclotomic_quotient_or_none(a, M: int) -> IntPolynomial | None:
    """a / Phi_M when Phi_M divides a exactly, else None; M >= 2.

    ``a`` is as for ``remainder_mod_cyclotomic``.  Phi_M divides a iff
    z**M - 1 divides p = a * Psi_M, and then a / Phi_M = p / (z**M - 1)
    (von zur Gathen & Gerhard, 9.1): one ``modp.convolve``, then the
    running sums down the rows of p cut into M columns, which are -q row
    by row and end in p mod z**M - 1, zero iff the division is exact.
    They stay in int64 while rows * min(len a, len Psi_M) * max|a| *
    max|Psi_M|, which bounds them all, is below 2**62.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    cs = (np.array(a.coeffs, dtype=object) if isinstance(a, IntPolynomial)
          else np.asarray(a))
    amax = max(int(cs.max()), -int(cs.min())) if len(cs) else 0
    if not amax:
        return IntPolynomial.zero()
    m, _, neg_psi, _, psi_max = _division_data(M)
    psi = np.append(-neg_psi, 1)
    prod = modp.convolve(cs, psi, (amax, psi_max))
    rows = -(-len(prod) // M)
    top = rows * min(len(cs), len(psi)) * amax * psi_max
    sums = np.zeros(rows * M, dtype=np.int64 if top < 2 ** 62 else object)
    sums[:len(prod)] = prod
    sums = sums.reshape(rows, M).cumsum(axis=0)
    if sums[-1].any():
        return None
    return IntPolynomial((-sums.ravel()[:len(cs) - m]).tolist())


def remainder_mod_cyclotomic(a, M: int, bound: int | None = None
                             ) -> IntPolynomial:
    """a mod Phi_M, exact; degree < phi(M).

    ``a`` is an IntPolynomial or a 1-D array of int64 or Python-int
    coefficients, and ``bound``, when the caller knows one, is an upper
    bound on |a| (then ``a`` is not scanned).  It is first folded mod
    z**M - 1 (a multiple of Phi_M) by one reshape-sum, with no padded copy
    when M divides its length, which keeps the cost linear in deg a.  For
    M >= 2 the fold f, of degree < M, is divided by the
    reversed-power-series quotient (von zur Gathen & Gerhard, Modern
    Computer Algebra, 9.1).  With m = phi(M), k = M - m and
    Psi_M = (z**M - 1) / Phi_M: Phi_M is palindromic and
    Phi_M * (-Psi_M) = 1 mod z**k, so the reversed quotient is
    rev(f)[:k] * (-Psi_M) mod z**k, and the remainder is
    f[:m] - (q * Phi_M)[:m].  The two products are ``modp.convolve``
    calls, exact whatever the size of the fold's entries; each gets the
    bounds known here as its hint: |f| <= rows * max|a|, max|Psi_M| and
    max|Phi_M| from ``_division_data``, and |q| <= k * |f| * max|Psi_M|.
    """
    if M < 1:
        raise ValueError("M must be positive")
    cs = (np.array(a.coeffs, dtype=object) if isinstance(a, IntPolynomial)
          else np.asarray(a))
    if bound is None:
        bound = max(int(cs.max()), -int(cs.min())) if len(cs) else 0
    if not bound:
        return IntPolynomial.zero()
    rows = -(-len(cs) // M)
    top = rows * bound
    # fold entries are at most rows * max|a| < 2**62 in int64, and an int64
    # product from convolve is below 2**53, so the difference cannot wrap
    dtype = np.int64 if top < 2 ** 62 else object
    if len(cs) == rows * M:
        fold = cs.astype(dtype, copy=False)
    else:
        fold = np.zeros(rows * M, dtype=dtype)
        fold[:len(cs)] = cs
    fold = fold.reshape(rows, M).sum(axis=0)
    if M == 1:
        return IntPolynomial(fold.tolist())
    m, phi, neg_psi, phi_max, psi_max = _division_data(M)
    k = M - m
    q = modp.convolve(fold[m:][::-1], neg_psi, (top, psi_max))[k - 1::-1]
    prod = modp.convolve(q, phi, (k * top * psi_max, phi_max))
    return IntPolynomial((fold[:m] - prod[:m]).tolist())


# ---------------------------------------------------------------------------
# Reversal, symmetry, serialization
# ---------------------------------------------------------------------------

def reciprocal(a: IntPolynomial) -> IntPolynomial:
    """z**deg(a) * a(1/z): the coefficient sequence reversed."""
    if a.is_zero:
        raise ValueError("reciprocal of the zero polynomial is undefined")
    return IntPolynomial(a.coeffs[::-1])


def substitute_negate(a: IntPolynomial) -> IntPolynomial:
    """a(-z), exact."""
    cs = list(a.coeffs)
    cs[1::2] = [-c for c in cs[1::2]]
    return IntPolynomial(cs)


def to_text(a: IntPolynomial) -> str:
    """Canonical text form: space-separated coefficients, ascending exponent."""
    if a.is_zero:
        return "0"
    return " ".join(str(c) for c in a.coeffs)


# ---------------------------------------------------------------------------
# GCD over the rationals (primitive integer generator)
# ---------------------------------------------------------------------------

def _modular_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Brown's modular gcd; each candidate is checked by exact trial division.

    Images are taken modulo the primes below 2**31, descending, until the
    lifted candidate divides both inputs; there is no cap on their number,
    so gcds with coefficients of any size are reached.  The images of the
    lowest degree seen so far, scaled to leading coefficient
    gcd(lc a, lc b), are combined by CRT one prime at a time.  A candidate
    that divides both inputs is the gcd: it divides the true gcd, and its
    degree, that of an image, is at least the true gcd's.
    """
    lead_gcd = math.gcd(a.lead, b.lead)
    best_deg = None
    residues: list[int] = []
    modulus = 1
    for p in filter(arith.is_prime, range(2 ** 31 - 1, 2, -2)):
        if a.lead % p == 0 or b.lead % p == 0:
            continue
        ga = modp.from_coeffs(a.coeffs, p)
        gb = modp.from_coeffs(b.coeffs, p)
        gp = modp.gcd(ga, gb, p)
        dg = len(gp) - 1
        if dg == 0:
            return IntPolynomial.one()  # coprime over Q, proven by one prime
        lead = lead_gcd % p
        scaled = [int(c) * lead % p for c in gp]
        if best_deg is None or dg < best_deg:
            best_deg = dg
            residues, modulus = scaled, p
        elif dg == best_deg:
            inv = pow(modulus, -1, p)
            residues = [r + modulus * ((s - r % p) * inv % p)
                        for r, s in zip(residues, scaled)]
            modulus *= p
        else:
            continue  # unlucky prime, discard
        half = modulus // 2
        lifted = [r - modulus if r > half else r for r in residues]
        candidate = IntPolynomial(lifted).primitive_part()
        if (exact_quotient_or_none(a, candidate) is not None
                and exact_quotient_or_none(b, candidate) is not None):
            return candidate
    raise ArithmeticError("modular gcd ran out of primes")  # pragma: no cover


def gcd_rational(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive integer generator of gcd(a, b) over the rationals.

    Normalized to positive leading coefficient.  gcd(a, 0) is the
    primitive part of a.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.primitive_part()
    if b.is_zero:
        return a.primitive_part()
    pa, pb = a.primitive_part(), b.primitive_part()
    if pa.degree == 0 or pb.degree == 0:
        return IntPolynomial.one()
    return _modular_gcd(pa, pb)
