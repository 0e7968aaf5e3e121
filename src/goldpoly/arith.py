"""Number-theoretic kernel: prime sieve, pair counts, multiplicative functions.

Everything here is exact.  Bulk routines return numpy integer arrays; the
scalar multiplicative functions work from trial-division factorizations,
against the sieve's primes when a table is given and against 2 and the odd
numbers otherwise.  ``is_prime`` is a deterministic Miller-Rabin test for
single numbers beyond any table.  Rational values (the singular-series
factor and its divisor-weighted aggregate) are `fractions.Fraction`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from . import modp

# Hard ceiling on sieve size; beyond this the dense tables stop being
# "desk scale" and a segmented sieve would be required.
MAX_SIEVE_LIMIT = 200_000_000


class SieveRangeError(ValueError):
    """Requested limit outside the supported sieve range."""


class PrimeTable:
    """Immutable sieve of odd primes up to ``limit`` with prefix counts.

    ``is_odd_prime(n)`` is the indicator of the odd primes (2 excluded);
    ``prime_count(x)`` is the usual pi(x) including 2.  Instances are
    read-only after construction and safe to share between threads or
    worker processes.
    """

    __slots__ = ("limit", "_odd_mask", "_odd_primes", "_all_primes")

    def __init__(self, limit: int):
        if limit < 3:
            raise SieveRangeError(f"sieve limit must be >= 3, got {limit}")
        if limit > MAX_SIEVE_LIMIT:
            raise SieveRangeError(
                f"sieve limit {limit} exceeds ceiling {MAX_SIEVE_LIMIT}")
        self.limit = int(limit)
        # Odd-only bit sieve: slot i represents 2i+1.
        size = (limit + 1) // 2
        odd = np.ones(size, dtype=bool)
        odd[0] = False  # 1 is not prime
        for p in range(3, math.isqrt(limit) + 1, 2):
            if odd[p // 2]:
                odd[p * p // 2:: p] = False
        self._odd_mask = odd
        self._odd_mask.setflags(write=False)
        self._odd_primes = (2 * np.nonzero(odd)[0] + 1).astype(np.int64)
        self._odd_primes.setflags(write=False)
        self._all_primes = np.concatenate(([np.int64(2)], self._odd_primes))
        self._all_primes.setflags(write=False)

    def is_odd_prime(self, n: int) -> bool:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside sieve range [1, {self.limit}]")
        return bool(n & 1) and bool(self._odd_mask[n // 2])

    def is_prime(self, n: int) -> bool:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside sieve range [1, {self.limit}]")
        if n == 2:
            return True
        return bool(n & 1) and bool(self._odd_mask[n // 2])

    def prime_count(self, x) -> int | np.ndarray:
        """pi(x): number of primes <= x (2 included).  Accepts arrays."""
        scalar = np.isscalar(x)
        xa = np.atleast_1d(np.asarray(x, dtype=np.int64))
        if xa.size and int(xa.max()) > self.limit:
            raise ValueError("prime_count query beyond sieve limit")
        counts = np.searchsorted(self._all_primes, xa, side="right")
        return int(counts[0]) if scalar else counts

    @property
    def odd_primes(self) -> np.ndarray:
        """All odd primes <= limit, ascending (read-only int64 array)."""
        return self._odd_primes

    @property
    def primes(self) -> np.ndarray:
        """All primes <= limit including 2, ascending."""
        return self._all_primes

    def odd_primes_upto(self, n: int) -> np.ndarray:
        idx = np.searchsorted(self._odd_primes, n, side="right")
        return self._odd_primes[:idx]

    def __repr__(self):
        return f"PrimeTable(limit={self.limit})"


def sieve(limit: int) -> PrimeTable:
    """Build a PrimeTable covering [1, limit]."""
    return PrimeTable(limit)


def odd_prime_indicator(n: int, table: PrimeTable) -> int:
    """1 if n is an odd prime, 0 otherwise (2 is excluded)."""
    return 1 if table.is_odd_prime(n) else 0


# ---------------------------------------------------------------------------
# Pair counts
# ---------------------------------------------------------------------------

def goldbach_count_table(limit: int, table: PrimeTable) -> np.ndarray:
    """Exact array r with r[n] = ordered odd-prime pair count for all n <= limit.

    The autocorrelation of the odd-prime indicator, by ``modp.convolve``.
    Odd primes sit at odd n only, so the indicator is taken over the odd
    numbers (slot i is 2i + 1) and its square lands on n = 2i + 2j + 2.
    """
    if limit > table.limit:
        raise ValueError("pair-count limit beyond sieve limit")
    odd = np.zeros((limit + 1) // 2, dtype=np.uint8)
    odd[table.odd_primes_upto(limit) // 2] = 1
    counts = np.zeros(limit + 1, dtype=np.int64)
    counts[2::2] = modp.convolve(odd, odd)[: limit // 2]
    return counts


def prime_pair_count(x: float, table: PrimeTable, include_two: bool = True) -> int:
    """Ordered pairs of primes (p, q) with p + q <= x.

    ``include_two`` controls whether p=2 or q=2 is allowed; both
    conventions appear in summatory identities, so neither is guessed.
    """
    xf = math.floor(x)
    if xf < 4:
        return 0
    if xf > table.limit:
        raise ValueError("pair-count query beyond sieve limit")
    primes = table.primes if include_two else table.odd_primes
    lo = 2 if include_two else 3
    ps = primes[: np.searchsorted(primes, xf - lo, side="right")]
    if ps.size == 0:
        return 0
    # For each p count the allowed q <= xf - p.
    counts = np.searchsorted(primes, xf - ps, side="right")
    return int(counts.sum())


# ---------------------------------------------------------------------------
# Factorization and the classical multiplicative functions
# ---------------------------------------------------------------------------

def factorize(n: int, table: PrimeTable | None = None) -> list[tuple[int, int]]:
    """Prime factorization of n by trial division.

    Divides by the sieve's primes when a table is given, else by 2 and the
    odd numbers (fine for the small n of cyclotomic indices and degrees).
    """
    if table is None:
        if n < 1:
            raise ValueError(f"n={n} must be positive")
        trial = itertools.chain((2,), itertools.count(3, 2))
    elif not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside sieve range")
    else:
        trial = map(int, table.primes)
    out = []
    rem = n
    for p in trial:
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            out.append((p, e))
    if rem > 1:
        out.append((rem, 1))
    return out


def divisors(n: int, table: PrimeTable | None = None) -> list[int]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n, table):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3 * 10**24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def omega(n: int, table: PrimeTable) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n, table))


def tau(n: int, table: PrimeTable) -> int:
    """Number of divisors."""
    t = 1
    for _, e in factorize(n, table):
        t *= e + 1
    return t


def euler_phi(n: int, table: PrimeTable | None = None) -> int:
    """Euler totient."""
    val = n
    for p, _ in factorize(n, table):
        val = val // p * (p - 1)
    return val


def mobius(n: int, table: PrimeTable) -> int:
    """Moebius function."""
    mu = 1
    for _, e in factorize(n, table):
        if e > 1:
            return 0
        mu = -mu
    return mu


def liouville(n: int, table: PrimeTable) -> int:
    """Liouville lambda: (-1)**Omega(n), completely multiplicative."""
    big_omega = sum(e for _, e in factorize(n, table))
    return -1 if big_omega & 1 else 1


# ---------------------------------------------------------------------------
# Bulk sieved tables used by the range verifiers
# ---------------------------------------------------------------------------

def omega_sieve(limit: int, table: PrimeTable) -> np.ndarray:
    """omega(n) for all n <= limit."""
    out = np.zeros(limit + 1, dtype=np.int64)
    for p in map(int, table.primes):
        if p > limit:
            break
        out[p::p] += 1
    return out


def tau_sieve(limit: int) -> np.ndarray:
    """Divisor counts tau(n) for all n <= limit."""
    out = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        out[d::d] += 1
    return out


def spf_sieve(limit: int) -> np.ndarray:
    """Smallest prime factor for all n <= limit (0 for n < 2)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[2::2] = 2
    # an odd composite n has spf(n) <= isqrt(n); any odd p still unset
    # when the loop reaches it is prime
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == 0:
            spf[p * p::2 * p] = np.where(spf[p * p::2 * p] == 0, p,
                                         spf[p * p::2 * p])
    # odd entries still unset are prime
    rest = np.arange(limit + 1)
    spf = np.where((spf == 0) & (rest >= 2), rest, spf)
    return spf


def liouville_sieve(limit: int, table: PrimeTable) -> np.ndarray:
    """Liouville lambda(n) for all n <= limit (lambda(0) set to 0)."""
    lam = np.ones(limit + 1, dtype=np.int8)
    lam[0] = 0
    for p in map(int, table.primes):
        if p > limit:
            break
        pk = p
        while pk <= limit:
            lam[pk::pk] *= -1
            pk *= p
    return lam


# ---------------------------------------------------------------------------
# Singular-series rationals
# ---------------------------------------------------------------------------

def singular_series_factor(n: int, table: PrimeTable) -> Fraction:
    """Product of (p-1)/(p-2) over odd primes p dividing n, exactly."""
    val = Fraction(1)
    for p, _ in factorize(n, table):
        if p > 2:
            val *= Fraction(p - 1, p - 2)
    return val


def series_weight(m: int, table: PrimeTable) -> Fraction:
    """Multiplicative weight (2 - 1/2**k) * prod (1 - 2/p**(l+1)) / (1 - 2/p).

    Here 2**k and p**l are the exact prime-power parts of m.  Always >= 1;
    equals (1/m) * sum_{d|m} d * singular_series_factor(d).
    """
    val = Fraction(1)
    k = 0
    for p, e in factorize(m, table):
        if p == 2:
            k = e
        else:
            val *= Fraction(p ** (e + 1) - 2, p ** e * (p - 2))
    return val * (2 - Fraction(1, 2 ** k))


def weighted_divisor_sum(m: int, table: PrimeTable) -> Fraction:
    """sum_{d|m} d * singular_series_factor(d), as an exact rational.

    Not integral in general (m=5 gives 23/3); it always equals
    m * series_weight(m).
    """
    total = Fraction(0)
    for d in divisors(m, table):
        total += d * singular_series_factor(d, table)
    return total


# ---------------------------------------------------------------------------
# Twin prime constant
# ---------------------------------------------------------------------------

def twin_prime_constant(prime_limit: int, table: PrimeTable | None = None) -> tuple[float, float]:
    """Truncated product of (1 - 1/(p-1)**2) over odd primes p <= prime_limit.

    Returns (approximation, tail_bound).  The omitted factors lie in
    (1 - S, 1) with S = sum_{p > limit} 1/(p-1)**2 <= 1/(prime_limit - 1)
    by integral comparison, so the limit value differs from the truncation
    by at most roughly approximation * S; tail_bound also absorbs the
    floating-point rounding of the finite product.
    """
    if prime_limit < 3:
        raise ValueError("prime_limit must be >= 3")
    if table is None or table.limit < prime_limit:
        table = PrimeTable(prime_limit)
    ps = table.odd_primes_upto(prime_limit).astype(np.float64)
    factors = 1.0 - 1.0 / (ps - 1.0) ** 2
    approx = float(np.prod(factors))
    tail_sum = 1.0 / (prime_limit - 1)
    rounding = 4.0 * len(factors) * 2.0 ** -52
    bound = approx * (tail_sum + rounding) / max(1.0 - tail_sum, 0.5)
    return approx, bound
