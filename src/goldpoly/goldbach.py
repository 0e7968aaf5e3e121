"""Goldbach polynomials and their verified properties.

The central object is the family F_N(z) = sum_k (sum_n chi(n) z^(k n))^2,
where chi is the odd-prime indicator (pluggable: any 0/1 indicator works,
the Liouville-negative set is built in).  ``pair_sums`` is the
indicator's autocorrelation, one ``modp.convolve`` per N.
``exponent_spread`` spreads pair sums over the exponent steps k, the one
place that does: spread whole they give F_N (``goldbach_polynomial``),
spread mod z^(2N) - 1 they give F_N's fold, and their even half spread
gives g_N with F_N(z) = g_N(z^2), from which ``goldbach_cofactor``
divides the forced cyclotomic part Phi_N off at half the degree.
``theorem_reports`` checks the cyclotomic divisibility statements, the
even symmetry and the root-of-unity lower bounds for the odd-prime F_N
from the pair sums alone, without F_N's O(N**2) coefficients: they give
the fold, from which the remainders F_N mod Phi_M (M | N and M = 2N,
``cyclotomic_remainders``) are taken, the pair counts R(n) for n <= N,
and the parity of F_N's exponents.  The stabilized coefficients a(m),
the summatory function A(M) with its asymptotic ratio and the
Hardy-Littlewood summary of a(2m) are whole-array sweeps over one
pair-count table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith, modp
from .arith import PrimeTable
from .poly import (
    IntPolynomial,
    cyclotomic,
    divrem_exact,
    remainder_mod_cyclotomic,
)


class TheoremViolation(ArithmeticError):
    """An exact computation contradicts one of the paper's theorems."""


class NonConstantRemainderError(TheoremViolation):
    """Remainder mod a cyclotomic was expected to be constant and is not."""


# ---------------------------------------------------------------------------
# Indicator sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicatorSet:
    """Deterministic 0/1 indicator realized as a bit array over [0, limit]."""

    name: str
    bits: np.ndarray

    @property
    def limit(self) -> int:
        return len(self.bits) - 1

    def support_upto(self, n_max: int) -> np.ndarray:
        if n_max > self.limit:
            raise ValueError("indicator support query beyond its range")
        return np.nonzero(self.bits[: n_max + 1])[0].astype(np.int64)

    @classmethod
    def liouville_negative(cls, limit: int, table: PrimeTable) -> "IndicatorSet":
        lam = arith.liouville_sieve(limit, table)
        bits = lam == -1
        bits[0] = False
        return cls("liouville", bits)


def _support(source, N: int) -> np.ndarray:
    """Indicator support on [1, N-1] from a PrimeTable or IndicatorSet."""
    if isinstance(source, PrimeTable):
        return source.odd_primes_upto(N - 1)
    if isinstance(source, IndicatorSet):
        supp = source.support_upto(min(N - 1, source.limit))
        if N - 1 > source.limit:
            raise ValueError("indicator does not cover [1, N-1]")
        return supp[supp >= 1]
    raise TypeError(f"expected PrimeTable or IndicatorSet, got {type(source)!r}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class TheoremReport:
    theorem_id: str
    N: int
    holds: bool
    witness: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"theorem_id": self.theorem_id, "N": self.N,
                "holds": self.holds, "witness": self.witness}


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def pair_sums(N: int, source) -> np.ndarray:
    """Ordered pair sums of the indicator support S on [1, N-1]: entry s
    counts the pairs (n1, n2) in S x S with n1 + n2 = s.

    One autocorrelation of the 0/1 indicator of S by ``modp.convolve``,
    with 1 as its hint.
    Its length is 2*max(S) + 1, so the last entry is nonzero, and its
    entries sum to |S|**2; an empty S gives an empty array.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    supp = _support(source, N)
    if not len(supp):
        return np.zeros(0, dtype=np.int64)
    ind = np.zeros(int(supp[-1]) + 1, dtype=np.uint8)
    ind[supp] = 1
    return modp.convolve(ind, ind, 1)


def exponent_spread(N: int, pairs: np.ndarray,
                    period: int | None = None) -> np.ndarray:
    """sum over k < N and s of pairs[s] * z**(k*s) as int64 coefficients,
    reduced mod z**period - 1 to ``period`` entries when one is given.

    For ``pair_sums(N, .)`` that is F_N, and for its even entries
    ``pair_sums(N, .)[0::2]`` it is g_N with F_N(z) = g_N(z**2).  Shift
    k = 0 puts sum(pairs) on exponent 0; the shifts k = 1..N-1 meet the
    nonzero s in one outer product of exponents and one weighted
    ``bincount``.  Unreduced, the last entry is at (N-1)*max s, nonzero,
    and empty pairs give an empty array.  bincount sums its weights in
    float64, which is exact while every sum is below 2**53; the entries
    sum to N*sum(pairs), and a larger total raises ValueError.
    """
    total = int(pairs.sum())
    if N * total >= 2 ** 53:
        raise ValueError(f"F_{N}(1) = {N * total} is past 2^53, beyond "
                         f"which the float64 spread is not exact")
    if not len(pairs) and period is None:
        return np.zeros(0, dtype=np.int64)
    s = np.flatnonzero(pairs)
    exps = s[:, None] * np.arange(1, N)
    if period is not None:
        exps %= period
    out = np.bincount(exps.ravel(), np.repeat(pairs[s], N - 1),
                      minlength=period or 1).astype(np.int64)
    out[0] += total
    return out


def goldbach_polynomial(N: int, source) -> IntPolynomial:
    """F_N as an exact polynomial: the ``exponent_spread`` of its pair
    sums."""
    return IntPolynomial(exponent_spread(N, pair_sums(N, source)).tolist())


def goldbach_cofactor(N: int, table: PrimeTable) -> IntPolynomial:
    """g_N / Phi_N, where F_N(z) = g_N(z^2), for the odd-prime F_N, N > 5.

    Phi_N(z^2) is the forced cyclotomic part of F_N (Phi_2N for even N,
    Phi_N * Phi_2N for odd N), so this is F_N with that part divided out,
    in the plane w = z^2: one exact division at half the degree.  Every
    odd-prime pair sum is even, so g_N is the ``exponent_spread`` of the
    even pair sums alone, built without F_N.  It is what
    ``factor.certify_goldbach_quotient`` certifies and what
    ``roots.classify_roots`` solves.  A nonzero remainder would falsify
    the divisibility theorems and raises TheoremViolation.
    """
    if N <= 5:
        raise ValueError("the Goldbach cofactor is defined for N > 5")
    g = IntPolynomial(exponent_spread(N, pair_sums(N, table)[0::2]).tolist())
    quotient, rem = divrem_exact(g, cyclotomic(N))
    if not rem.is_zero:
        raise TheoremViolation(f"Phi_{N} does not divide g_{N}")
    return quotient


# ---------------------------------------------------------------------------
# Stabilized coefficients
# ---------------------------------------------------------------------------

def stable_coefficient_table(limit: int, counts: np.ndarray) -> np.ndarray:
    """a(m) for all m <= limit by a divisor-sum sieve over a pair-count
    table reaching limit.

    The sieve is split at T = isqrt(limit).  A divisor d <= T adds R(d) to
    its multiples with one slice-add.  A divisor d > T has cofactor
    k = m/d <= limit // (T + 1), so for each such k one slice-add puts
    R(d) on k*d for every even d in (T, limit // k]: the targets step by
    2k and the sources by 2, and the targets are distinct.  That is about
    2*sqrt(limit) numpy calls in place of limit/2, with the same int64
    sums.  Only even d >= 6 carry pair counts.
    """
    out = np.zeros(limit + 1, dtype=np.int64)
    T = math.isqrt(limit)
    for d in range(6, T + 1, 2):
        c = int(counts[d])
        if c:
            out[d::d] += c
    d_lo = max(6, T + 1 + (T + 1) % 2)
    for k in range(1, limit // d_lo + 1):
        top = limit // k
        out[k * d_lo: k * top + 1: 2 * k] += counts[d_lo: top + 1: 2]
    return out


# ---------------------------------------------------------------------------
# Divisibility and symmetry theorems
# ---------------------------------------------------------------------------

def cyclotomic_remainders(N: int, coeffs: np.ndarray) -> dict[int, IntPolynomial]:
    """F mod Phi_M for every M | N (ascending) and for M = 2N, computed once
    for both the divisibility and the root-of-unity reports.

    ``coeffs`` are F's int64 coefficients, or their fold mod z**(2N) - 1
    (both by ``exponent_spread``): every Phi_M here divides z**M - 1,
    which divides z**(2N) - 1, so the fold leaves each remainder
    unchanged.  ``coeffs`` is scanned once, for the largest magnitude that
    every remainder takes as its bound.
    """
    top = max(int(coeffs.max()), -int(coeffs.min())) if len(coeffs) else 0
    rems = {M: remainder_mod_cyclotomic(coeffs, M, top)
            for M in arith.divisors(N)}
    rems[2 * N] = remainder_mod_cyclotomic(coeffs, 2 * N, top)
    return rems


def verify_divisibility(N: int, counts: np.ndarray,
                        remainders: dict[int, IntPolynomial]) -> TheoremReport:
    """Check the cyclotomic divisibility facts for one N.

    (a) Phi_2N | F_N unconditionally; (b) Phi_N | F_N iff the pair count
    vanishes; (c) for N = 2M with M odd, Phi_M | F_N iff Phi_N | F_N;
    (d) any cyclotomic divisor Phi_M with M | N forces a vanishing pair
    count (checked for N > 4).  ``counts`` is a pair-count table reaching
    at least N, and ``remainders`` are those of ``cyclotomic_remainders``.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    pair_count = int(counts[N])
    rem_by_M = {M: rem.is_zero for M, rem in remainders.items()}

    checks = {
        "phi_2N_divides": rem_by_M[2 * N],
        "phi_N_iff_failure": rem_by_M[N] == (pair_count == 0),
    }
    if N % 2 == 0 and (N // 2) % 2 == 1:
        checks["odd_half_equivalence"] = rem_by_M[N // 2] == rem_by_M[N]
    if N > 4:
        checks["divisor_forces_failure"] = all(
            pair_count == 0
            for M, divides_F in rem_by_M.items()
            if divides_F and M <= N
        )
    holds = all(checks.values())
    witness = {"pair_count": pair_count, "divides": rem_by_M, **checks}
    return TheoremReport("divisibility", N, holds, witness=witness)


def symmetry_report(N: int, pairs: np.ndarray) -> TheoremReport:
    """F_N(z) = F_N(-z), from the pair sums of ``pair_sums``; for the
    odd-prime indicator all exponents are even."""
    # F(-z) = F(z) exactly when no exponent k*s is odd; every pair sum is
    # nonnegative and k = 1 occurs, so that is when no odd s has a pair
    even = not pairs[1::2].any()
    return TheoremReport(
        "even_symmetry", N, even,
        witness={"substitution_fixed": even, "support_even": even},
    )


# ---------------------------------------------------------------------------
# Values at roots of unity
# ---------------------------------------------------------------------------

def _constant_value(rem: IntPolynomial, M: int) -> int:
    """The value of a constant remainder mod Phi_M; a non-constant one
    would falsify the evaluation argument and raises."""
    if rem.degree > 0:
        raise NonConstantRemainderError(
            f"remainder mod Phi_{M} has degree {rem.degree}")
    return rem[0]


def root_bounds_report(N: int, counts: np.ndarray,
                       remainders: dict[int, IntPolynomial]) -> TheoremReport:
    """Lower bounds for F_N at primitive M-th roots of unity, M | N.

    For N > 4: odd M gives F_N(zeta_M) >= N * sum of pair counts R(2nM)
    for n <= floor(N/2M); even M gives the analogous bound over R(nM),
    n <= N/M.  Both imply F_N(zeta_M) >= N*R(N), with equality at M = N
    and (observed, flagged if violated) at odd M with N = 2M.  Every R
    argument is at most N, so only ``counts[: N + 1]`` is read, whatever
    the table's length.  ``remainders`` are those of
    ``cyclotomic_remainders``.
    """
    counts = counts[: N + 1]
    pair_count = int(counts[N])
    per_divisor = {}
    holds = True
    for M in arith.divisors(N):
        value = _constant_value(remainders[M], M)
        entry = {"value": value}
        if N > 4:
            # R vanishes at odd arguments, so for odd M this sums R(2nM)
            bound = N * int(counts[M::M].sum())
            entry["bound"] = bound
            entry["bound_ok"] = value >= bound
            entry["simple_ok"] = value >= N * pair_count
            ok = entry["bound_ok"] and entry["simple_ok"]
            if M == N:
                entry["equality_at_N"] = value == N * pair_count
                ok = ok and entry["equality_at_N"]
            if M % 2 == 1 and N == 2 * M:
                entry["equality_at_odd_half"] = value == N * pair_count
                ok = ok and entry["equality_at_odd_half"]
            holds = holds and ok
        per_divisor[M] = entry
    return TheoremReport("root_of_unity_bounds", N, holds,
                         witness={"pair_count": pair_count,
                                  "per_divisor": per_divisor})


def theorem_reports(N: int, table: PrimeTable) -> list[TheoremReport]:
    """The divisibility, symmetry and root-of-unity reports for the
    odd-prime F_N, all from one ``pair_sums`` array: its fold of F_N mod
    z**(2N) - 1 gives the cyclotomic remainders, and its first N + 1
    entries are the pair counts R(n), n <= N (every pair summing to at
    most N lies in [1, N-1])."""
    pairs = pair_sums(N, table)
    remainders = cyclotomic_remainders(N, exponent_spread(N, pairs, 2 * N))
    counts = np.zeros(N + 1, dtype=np.int64)
    head = pairs[: N + 1]
    counts[: len(head)] = head
    return [
        verify_divisibility(N, counts, remainders),
        symmetry_report(N, pairs),
        root_bounds_report(N, counts, remainders),
    ]


# ---------------------------------------------------------------------------
# Summatory function and asymptotics
# ---------------------------------------------------------------------------

def summatory(M: int, counts: np.ndarray) -> int:
    """A(M): sum of stabilized coefficients a(m) for m <= 2M, from a
    pair-count table reaching 2M."""
    return int(stable_coefficient_table(2 * M, counts).sum())


def summatory_via_pairs(M: int, counts: np.ndarray) -> int:
    """A(M) through the telescoped identity: sum over n <= M/2 of the
    count of odd-prime pairs with p + q <= 2M/n, from a pair-count table
    reaching 2M."""
    prefix = np.cumsum(counts[: 2 * M + 1], dtype=np.int64)
    ns = np.arange(1, M // 2 + 1, dtype=np.int64)
    if ns.size == 0:
        return 0
    return int(prefix[2 * M // ns].sum())


def summatory_report(M: int, table: PrimeTable) -> dict:
    """A(M), the pairs-route value, and the ratio to the main term."""
    if M < 16:
        raise ValueError("M must be >= 16 for the asymptotic report")
    counts = arith.goldbach_count_table(2 * M, table)
    a_direct = summatory(M, counts)
    a_pairs = summatory_via_pairs(M, counts)
    main = math.pi ** 2 * M ** 2 / (3 * math.log(M) ** 2)
    return {
        "M": M,
        "A": a_direct,
        "A_via_pairs": a_pairs,
        "identity_ok": a_direct == a_pairs,
        "main_term": main,
        "ratio": a_direct / main,
    }


# ---------------------------------------------------------------------------
# Hardy-Littlewood comparison for a(2m)
# ---------------------------------------------------------------------------

# Largest m_hi for which 2*m_hi^2 <= 2^53: the weight integers of
# ``series_weight_terms`` are then exact float64 values.
HL_M_MAX = 2 ** 26
HL_BLOCK = 2 ** 16


def check_hl_range(m_lo: int, m_hi: int) -> None:
    """Raise ValueError unless 3 <= m_lo <= m_hi <= HL_M_MAX.

    Above HL_M_MAX the float64 series weights of ``hl_summary`` are no
    longer provably exact.
    """
    if not 3 <= m_lo <= m_hi:
        raise ValueError("need 3 <= m-min <= m-max")
    if m_hi > HL_M_MAX:
        raise ValueError(
            f"m-max {m_hi} exceeds {HL_M_MAX} = 2^26, beyond which the "
            f"series weights are not exact in float64")


def series_weight_terms(ms: np.ndarray, spf: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Integers (num, den) with num/den = J(m), per m in ms.

    J(m) = (2 - 1/2^k) * prod (1 - 2/p^(e+1)) / (1 - 2/p) is the
    multiplicative series weight, equal to (1/m) times the sum over d | m
    of d * prod_{odd p | d} (p-1)/(p-2).  Here
    num = (2^(k+1) - 1) * prod (p^(e+1) - 2) and den = 2^k * prod p^e (p - 2)
    over the prime powers 2^k, p^e of m, peeled from the smallest-prime-
    factor table ``spf`` (reaching max(ms)) for all m together: one pass
    per prime factor, one inner pass per extra power.  Both are below
    2*m^2, so int64 holds them for m <= 2^31.
    """
    rem = np.array(ms, dtype=np.int64)
    num = np.ones(len(rem), dtype=np.int64)
    den = np.ones(len(rem), dtype=np.int64)
    active = np.nonzero(rem > 1)[0]
    while active.size:
        r = rem[active]
        p = spf[r]
        r //= p
        pe = p.copy()
        more = np.nonzero(r % p == 0)[0]
        while more.size:
            r[more] //= p[more]
            pe[more] *= p[more]
            more = more[r[more] % p[more] == 0]
        odd = p != 2
        num[active] *= np.where(odd, pe * p - 2, 2 * pe - 1)
        den[active] *= np.where(odd, pe * (p - 2), pe)
        rem[active] = r
        active = active[r > 1]
    return num, den


def hl_summary(m_lo: int, m_hi: int, table: PrimeTable) -> dict:
    """Median Hardy-Littlewood ratio over [m_lo, m_hi] with C2 error bars.

    The ratio at m is a(2m) * log^2 m / (2 * C2 * J(m) * m), with C2 a
    truncated twin-prime-constant product.  The weights J(m) come from the
    exact integers of ``series_weight_terms``.  Both are below
    2*m^2 <= 2^53 for m <= HL_M_MAX = 2^26, so they convert to float64
    exactly and one IEEE division rounds num/den correctly: the same float
    as the exact rational J(m) converted.  The ratio keeps that scalar
    formula's operation order and ``math.log(m) ** 2`` per m, so every
    ratio is bit-identical to evaluating it one m at a time.

    The median is the middle order statistic of one ``np.partition``, or
    for an even count (x + y) / 2 of the two middle ones: the float that
    ``np.median`` returns, as its mean of two values is that sum halved.
    ``np.median`` itself is not called, because its NaN check imports
    ``numpy.ma``, which costs about as much as the rest of this function
    at m-max 30000.
    """
    check_hl_range(m_lo, m_hi)
    counts = arith.goldbach_count_table(2 * m_hi, table)
    coeff = stable_coefficient_table(2 * m_hi, counts)
    c2, c2_err = arith.twin_prime_constant(min(table.limit, 10 ** 6), table)
    spf = arith.spf_sieve(m_hi)
    ratios = np.empty(m_hi - m_lo + 1, dtype=np.float64)
    # blocks of m keep the temporaries to a few MB
    for lo in range(m_lo, m_hi + 1, HL_BLOCK):
        hi = min(lo + HL_BLOCK, m_hi + 1)
        ms = np.arange(lo, hi, dtype=np.int64)
        num, den = series_weight_terms(ms, spf)
        weight = num.astype(np.float64) / den.astype(np.float64)
        log_sq = np.fromiter((math.log(m) ** 2 for m in range(lo, hi)),
                             dtype=np.float64, count=hi - lo)
        ratios[lo - m_lo: hi - m_lo] = (coeff[2 * lo: 2 * hi: 2] * log_sq
                                        / (2 * c2 * weight * ms))
    h = len(ratios) // 2
    if len(ratios) % 2:
        med = float(np.partition(ratios, h)[h])
    else:
        part = np.partition(ratios, (h - 1, h))
        med = float((part[h - 1] + part[h]) / 2)
    rel = c2_err / c2
    return {
        "m_lo": m_lo,
        "m_hi": m_hi,
        "count": len(ratios),
        "median_ratio": med,
        "median_ratio_low": med / (1 + rel),
        "median_ratio_high": med / (1 - rel),
        "c2": c2,
        "c2_tail_bound": c2_err,
        "mean_ratio": float(ratios.mean()),
    }
