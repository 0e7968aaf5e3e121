"""Number-theoretic kernel: prime sieve, pair counts, small factorizations.

Everything here is exact.  Bulk routines return numpy integer arrays and
read the primes of a ``PrimeTable``, rejecting limits beyond it.
``factorize``, ``divisors`` and ``euler_phi`` work by trial division by 2
and the odd numbers, for the small n of cyclotomic indices and degrees.
``is_prime`` is a deterministic Miller-Rabin test for single numbers
beyond any table.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import modp

# Hard ceiling on sieve size; beyond this the dense tables stop being
# "desk scale" and a segmented sieve would be required.
MAX_SIEVE_LIMIT = 200_000_000


class SieveRangeError(ValueError):
    """Requested limit outside the supported sieve range."""


class PrimeTable:
    """Immutable sieve of the primes up to ``limit``.

    ``primes`` includes 2; ``odd_primes_upto(n)`` is the ascending odd
    primes <= n.  Instances are read-only after construction and safe to
    share between threads or worker processes.
    """

    __slots__ = ("limit", "_odd_primes", "_all_primes")

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
        self._odd_primes = (2 * np.nonzero(odd)[0] + 1).astype(np.int64)
        self._odd_primes.setflags(write=False)
        self._all_primes = np.concatenate(([np.int64(2)], self._odd_primes))
        self._all_primes.setflags(write=False)

    @property
    def primes(self) -> np.ndarray:
        """All primes <= limit including 2, ascending."""
        return self._all_primes

    def odd_primes_upto(self, n: int) -> np.ndarray:
        idx = np.searchsorted(self._odd_primes, n, side="right")
        return self._odd_primes[:idx]

    def __repr__(self):
        return f"PrimeTable(limit={self.limit})"


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
    # the product first, so that the count array is not alive during it
    pairs = modp.convolve(odd, odd)[: limit // 2]
    counts = np.zeros(limit + 1, dtype=np.int64)
    counts[2::2] = pairs
    return counts


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n by trial division by 2 and the odd numbers
    (fine for the small n of cyclotomic indices and degrees)."""
    if n < 1:
        raise ValueError(f"n={n} must be positive")
    out = []
    rem = n
    for p in itertools.chain((2,), itertools.count(3, 2)):
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


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
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


def euler_phi(n: int) -> int:
    """Euler totient."""
    val = n
    for p, _ in factorize(n):
        val = val // p * (p - 1)
    return val


# ---------------------------------------------------------------------------
# Bulk sieved tables
# ---------------------------------------------------------------------------

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
    """Liouville lambda(n) for all n <= limit (lambda(0) set to 0).

    Every prime up to ``limit`` flips the sign of its multiples, so the
    table has to reach ``limit``.
    """
    if limit > table.limit:
        raise ValueError("Liouville sieve limit beyond sieve limit")
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
# Twin prime constant
# ---------------------------------------------------------------------------

def twin_prime_constant(prime_limit: int, table: PrimeTable) -> tuple[float, float]:
    """Truncated product of (1 - 1/(p-1)**2) over odd primes p <= prime_limit.

    Returns (approximation, tail_bound).  The omitted factors lie in
    (1 - S, 1) with S = sum_{p > limit} 1/(p-1)**2 <= 1/(prime_limit - 1)
    by integral comparison, so the limit value differs from the truncation
    by at most roughly approximation * S; tail_bound also absorbs the
    floating-point rounding of the finite product.  The table has to
    reach ``prime_limit``.
    """
    if prime_limit < 3:
        raise ValueError("prime_limit must be >= 3")
    if prime_limit > table.limit:
        raise ValueError("twin prime product limit beyond sieve limit")
    ps = table.odd_primes_upto(prime_limit).astype(np.float64)
    factors = 1.0 - 1.0 / (ps - 1.0) ** 2
    approx = float(np.prod(factors))
    tail_sum = 1.0 / (prime_limit - 1)
    rounding = 4.0 * len(factors) * 2.0 ** -52
    bound = approx * (tail_sum + rounding) / max(1.0 - tail_sum, 0.5)
    return approx, bound
