"""Slow, independent reference algorithms that the library is checked against.

Except ``ddf_by_powmod``, none of them goes through ``modp.convolve``:
products are schoolbook loops (``school_mul``, and ``product``, which
builds the tests' IntPolynomial inputs), pair counts the square of one
packed big number or scalar loops over primes, F_N a dict of pair sums spread over
the exponent steps, and Phi_n the divisor chain of exact divisions of
z**n - 1 (``cyclotomic_by_division``).  ``theorem_reports_from_polynomial``
takes the theorem reports' remainders from that full F_N and that Phi_n.
``divmod_by_trimming`` and ``gcd_by_trimming`` are the F_p long division
and Euclid that trim and copy once per eliminated degree, the reference
for ``modp``'s in-place elimination loop.  ``ddf_by_powmod`` checks
``factor.distinct_degree_pattern`` (Frobenius-matrix steps, product-tree
blocks and batched unpacking) against repeated ``powmod``, a sequential
block product and per-degree gcds, all on those two loops.
``aberth_all_points`` is the Aberth loop that moves every point on every
sweep from golden-angle start points, none of them conjugate, the
reference for the solver that freezes converged points and solves each
conjugate pair once; its
Horner evaluation (``horner_triple``, ``horner_ratio_and_residual``) is
the reference for the solver's baby-step giant-step p/p'.
``stable_coefficient_table_by_divisor_sweep``, ``hl_summary_by_fractions``
and ``coefficient_csv_by_join`` are the one-step-per-index loops behind the
whole-array coefficient sweeps.

The rest are the paper's quantities that no command prints: the explicit
coefficient formula for a_{N,m} (``coefficient_by_formula``), the
multiplicative functions omega, tau and Liouville's lambda with their
sieved tables, the singular-series factor and the series weight J(m) as
exact ``Fraction`` values, and the prime-pair counting function with its
trend against x^2 / (2 log^2 x).  They factor by ``arith.factorize``.
"""

import decimal
import math
from fractions import Fraction

import numpy as np

from goldpoly import arith, goldbach, modp
from goldpoly.factor import BadPrimeError, DegreePattern
from goldpoly.goldbach import TheoremReport, _support
from goldpoly.poly import IntPolynomial, divrem_exact, substitute_negate
from goldpoly.roots import SolveResult

# Golden angle in radians: ``aberth_all_points`` rotates each start point by
# it from the last, so no two start points are conjugate.
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def school_mul(a, b) -> list:
    """Schoolbook product of two nonempty coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def product(*polys) -> IntPolynomial:
    """Product of IntPolynomials by ``school_mul``; 1 for no factors."""
    out = [1]
    for p in polys:
        if p.is_zero:
            return IntPolynomial.zero()
        out = school_mul(out, p.coeffs)
    return IntPolynomial(out)


def _pseudo_remainder(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """lc(b)**(deg a - deg b + 1) * a  reduced mod b (integer arithmetic)."""
    db, lcb = b.degree, b.lead
    r = list(a.coeffs)
    k = a.degree - db + 1
    while len(r) > db:
        # r * lc(b) - lc(r) z**shift b cancels the top coefficient
        shift, lead = len(r) - 1 - db, r[-1]
        r = [c * lcb for c in r]
        for j, c in enumerate(b.coeffs):
            r[shift + j] -= lead * c
        while r and r[-1] == 0:
            r.pop()
        k -= 1
    if k > 0:
        r = [c * lcb ** k for c in r]
    return IntPolynomial(r)


def subresultant_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Last nonzero element of the subresultant remainder sequence."""
    r0, r1 = a, b
    g, h = 1, 1
    while not r1.is_zero:
        d = r0.degree - r1.degree
        rem = _pseudo_remainder(r0, r1)
        r0, r1 = r1, IntPolynomial(tuple(x // (g * h ** d) for x in rem.coeffs))
        g = r0.lead
        if d >= 1:
            h = g ** d // h ** (d - 1) if d > 1 else g
        # d == 0 leaves h unchanged
    return r0


def big_int_pair_counts(limit: int, table) -> np.ndarray:
    """Ordered odd-prime pair counts r[n], n <= limit, by one big-int square.

    The odd-prime indicator is packed into 32-bit limbs of one Python int
    and squared; limbs never carry, since every count is below 2**32.
    """
    ind = np.zeros(limit + 1, dtype="<u4")
    ind[table.odd_primes_upto(limit)] = 1
    packed = int.from_bytes(ind.tobytes(), "little")
    raw = (packed * packed).to_bytes(8 * (limit + 1), "little")
    return np.frombuffer(raw, dtype="<u4")[: limit + 1].astype(np.int64)


def decimal_pair_counts(limit: int, table) -> np.ndarray:
    """The same square with base-10**7 limbs, in ``decimal``.

    CPython squares a 64-Mbit int by Karatsuba in about a minute; libmpdec
    multiplies numbers this long exactly by number-theoretic transforms in
    about a second, so this oracle reaches limit 2e6.  Every count is at
    most pi(limit) < 10**7 for limit <= 1e8, so limbs never carry.
    """
    width = 7
    digits = np.full((limit + 1, width), ord("0"), dtype=np.uint8)
    digits[table.odd_primes_upto(limit), -1] += 1
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    packed = ctx.create_decimal(digits[::-1].tobytes().decode())
    n = 2 * limit + 1
    text = format(ctx.multiply(packed, packed), "f").rjust(n * width, "0")
    limbs = np.frombuffer(text.encode(), dtype=np.uint8).reshape(n, width)[::-1]
    place = 10 ** np.arange(width - 1, -1, -1)
    return ((limbs[: limit + 1] - ord("0")).astype(np.int64) * place).sum(axis=1)


_CYCLOTOMIC_BY_DIVISION: dict[int, IntPolynomial] = {}


def cyclotomic_by_division(n: int) -> IntPolynomial:
    """Phi_n by the divisor chain: z**n - 1 divided exactly by Phi_d for
    every proper divisor d of n, each taken from this oracle's own memo."""
    got = _CYCLOTOMIC_BY_DIVISION.get(n)
    if got is not None:
        return got
    num = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in arith.divisors(n)[:-1]:
        num, rem = divrem_exact(num, cyclotomic_by_division(d))
        assert rem.is_zero, f"cyclotomic division left a remainder at n={n}"
    _CYCLOTOMIC_BY_DIVISION[n] = num
    return num


def goldbach_polynomial_by_pairs(N: int, source) -> IntPolynomial:
    """F_N by counting the pair sums p + q of the indicator support in a
    dict, then adding each count at every exponent k * (p + q), k < N."""
    supp = [int(v) for v in _support(source, N)]
    if not supp:
        return IntPolynomial.zero()
    pair_sums: dict[int, int] = {}
    for p in supp:
        for q in supp:
            pair_sums[p + q] = pair_sums.get(p + q, 0) + 1
    acc = [0] * ((N - 1) * 2 * max(supp) + 1)
    for k in range(N):
        for s, c in pair_sums.items():
            acc[k * s] += c
    return IntPolynomial(acc)


def goldbach_count(N: int, table) -> int:
    """Number of ordered pairs (p, q) of odd primes with p + q = N, by a
    scalar loop over the odd primes below N."""
    if not 1 <= N <= table.limit:
        raise ValueError(f"N={N} outside sieve range")
    if N < 6 or N & 1:
        return 0
    odd = table.odd_primes_upto(N - 3).tolist()
    members = set(odd)
    return sum(1 for p in odd if N - p in members)


def stable_coefficient_by_scalar_counts(m: int, table) -> int:
    """a(m) as the sum of scalar pair counts over the divisors of m."""
    return sum(goldbach_count(d, table) for d in arith.divisors(m))


def stable_coefficient_table_by_divisor_sweep(limit: int, table,
                                              counts=None) -> np.ndarray:
    """a(m) for all m <= limit, one slice-add per even divisor d <= limit."""
    if counts is None:
        counts = arith.goldbach_count_table(limit, table)
    out = np.zeros(limit + 1, dtype=np.int64)
    for d in range(6, limit + 1, 2):
        c = int(counts[d])
        if c:
            out[d::d] += c
    return out


def hl_summary_by_fractions(m_lo: int, m_hi: int, table) -> dict:
    """goldbach.hl_summary with one Fraction weight and one scalar ratio per m,
    on the divisor-sweep coefficient table."""
    coeff = stable_coefficient_table_by_divisor_sweep(2 * m_hi, table)
    c2, c2_err = arith.twin_prime_constant(min(table.limit, 10 ** 6), table)
    ratios = np.empty(m_hi - m_lo + 1, dtype=np.float64)
    for i, m in enumerate(range(m_lo, m_hi + 1)):
        weight = float(series_weight(m))
        ratios[i] = coeff[2 * m] * math.log(m) ** 2 / (2 * c2 * weight * m)
    med = float(np.median(ratios))
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


def coefficient_csv_by_join(coeff: np.ndarray) -> str:
    """The ``coeffs`` CSV for the table a(0..m_max) as one joined string,
    printed line included."""
    lines = ["m,a"]
    lines.extend(f"{m},{coeff[m]}" for m in range(1, len(coeff)))
    return "\n".join(lines) + "\n"


def root_bound_by_scalar_counts(N: int, M: int, table) -> int:
    """The lower bound for F_N at a primitive M-th root of unity, M | N, as a
    sum of scalar pair counts: N * sum of R(2nM) over n <= N/2M for odd M,
    N * sum of R(nM) over n <= N/M for even M."""
    if M % 2:
        return N * sum(goldbach_count(2 * n * M, table)
                       for n in range(1, N // (2 * M) + 1))
    return N * sum(goldbach_count(n * M, table)
                   for n in range(1, N // M + 1))


def theorem_reports_from_polynomial(N: int, table) -> list[TheoremReport]:
    """``goldbach.theorem_reports`` with every remainder taken from the full
    F_N polynomial of ``goldbach_polynomial_by_pairs``: F_N folded mod
    z**M - 1 for each M, then divided by ``cyclotomic_by_division(M)``;
    the symmetry read off F_N(-z) == F_N(z)."""
    F = goldbach_polynomial_by_pairs(N, table)
    remainders = {}
    for M in arith.divisors(N) + [2 * N]:
        folded = IntPolynomial([sum(F.coeffs[r::M]) for r in range(M)])
        remainders[M] = divrem_exact(folded, cyclotomic_by_division(M))[1]
    counts = arith.goldbach_count_table(N, table)
    even = substitute_negate(F) == F
    symmetry = TheoremReport("even_symmetry", N, even,
                             witness={"substitution_fixed": even,
                                      "support_even": even})
    return [goldbach.verify_divisibility(N, counts, remainders), symmetry,
            goldbach.root_bounds_report(N, counts, remainders)]


# ---------------------------------------------------------------------------
# The explicit coefficient formula
# ---------------------------------------------------------------------------

def _window_pair_count(d: int, N: int, table) -> int:
    """Ordered pairs of odd primes (n, d-n) with max(0,d-N) < n < min(N,d)."""
    lo = max(0, d - N) + 1
    hi = min(N, d) - 1
    if hi < lo:
        return 0
    members = set(table.odd_primes_upto(d).tolist())
    return sum(1 for p in table.odd_primes_upto(hi).tolist()
               if p >= lo and d - p in members)


def coefficient_by_formula(N: int, m: int, table) -> int:
    """a_{N,m} for 0 < m <= 2(N-1)^2, without constructing the polynomial.

    Sums, over divisors d of m with m/d < N, the count of ways to write d
    as an ordered sum of two indicator elements below N.
    """
    if not 0 < m <= 2 * (N - 1) ** 2:
        raise ValueError(f"m={m} outside (0, 2(N-1)^2]")
    return sum(_window_pair_count(d, N, table)
               for d in arith.divisors(m) if m // d < N)


def coefficient_table_by_formula(N: int, table) -> list[int]:
    """All coefficients of F_N via the explicit formula (plus the constant).

    Window pair counts per divisor value, swept over multiples.  The
    constant term is the squared count of indicator elements below N.
    """
    below = len(table.odd_primes_upto(N - 1))
    if below == 0:
        return [0]
    deg = 2 * (N - 1) * int(table.odd_primes_upto(N - 1)[-1])
    out = [0] * (deg + 1)
    for d in range(1, 2 * N - 1):
        w = _window_pair_count(d, N, table)
        if w:
            for k in range(1, N):
                out[k * d] += w
    out[0] = below ** 2
    return out


# ---------------------------------------------------------------------------
# Multiplicative functions and their sieved tables
# ---------------------------------------------------------------------------

def omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(arith.factorize(n))


def tau(n: int) -> int:
    """Number of divisors."""
    t = 1
    for _, e in arith.factorize(n):
        t *= e + 1
    return t


def liouville(n: int) -> int:
    """Liouville lambda: (-1)**Omega(n), completely multiplicative."""
    big_omega = sum(e for _, e in arith.factorize(n))
    return -1 if big_omega & 1 else 1


def omega_sieve(limit: int, table) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Singular-series rationals
# ---------------------------------------------------------------------------

def singular_series_factor(n: int) -> Fraction:
    """Product of (p-1)/(p-2) over odd primes p dividing n, exactly."""
    val = Fraction(1)
    for p, _ in arith.factorize(n):
        if p > 2:
            val *= Fraction(p - 1, p - 2)
    return val


def series_weight(m: int) -> Fraction:
    """Multiplicative weight (2 - 1/2**k) * prod (1 - 2/p**(l+1)) / (1 - 2/p).

    Here 2**k and p**l are the exact prime-power parts of m.  Always >= 1;
    equals (1/m) * sum_{d|m} d * singular_series_factor(d).
    """
    val = Fraction(1)
    k = 0
    for p, e in arith.factorize(m):
        if p == 2:
            k = e
        else:
            val *= Fraction(p ** (e + 1) - 2, p ** e * (p - 2))
    return val * (2 - Fraction(1, 2 ** k))


def weighted_divisor_sum(m: int) -> Fraction:
    """sum_{d|m} d * singular_series_factor(d), as an exact rational.

    Not integral in general (m=5 gives 23/3); it always equals
    m * series_weight(m).
    """
    total = Fraction(0)
    for d in arith.divisors(m):
        total += d * singular_series_factor(d)
    return total


# ---------------------------------------------------------------------------
# Prime-pair counting function
# ---------------------------------------------------------------------------

def prime_pair_count(x: float, table, include_two: bool = True) -> int:
    """Ordered pairs of primes (p, q) with p + q <= x.

    ``include_two`` controls whether p=2 or q=2 is allowed; both
    conventions appear in summatory identities, so neither is guessed.
    """
    xf = math.floor(x)
    if xf < 4:
        return 0
    if xf > table.limit:
        raise ValueError("pair-count query beyond sieve limit")
    primes = table.primes if include_two else table.primes[1:]
    lo = 2 if include_two else 3
    ps = primes[: np.searchsorted(primes, xf - lo, side="right")]
    if ps.size == 0:
        return 0
    # For each p count the allowed q <= xf - p.
    counts = np.searchsorted(primes, xf - ps, side="right")
    return int(counts.sum())


def pair_count_trend(grid: list[int], table,
                     include_two: bool = True) -> list[dict]:
    """Ratio of the prime-pair counting function to x^2 / (2 log^2 x)."""
    out = []
    for x in grid:
        q = prime_pair_count(x, table, include_two=include_two)
        main = x ** 2 / (2 * math.log(x) ** 2)
        out.append({"x": x, "Q": q, "main_term": main, "ratio": q / main})
    return out


def divmod_by_trimming(a: np.ndarray, b: np.ndarray,
                       p: int) -> tuple[np.ndarray, np.ndarray]:
    """(quotient, remainder) of a by nonzero b over F_p, trimming after
    every eliminated degree."""
    b = modp.trim(b)
    if len(b) == 0:
        raise ZeroDivisionError("division by zero polynomial")
    a = modp.trim(a.copy())
    db = len(b) - 1
    if len(a) - 1 < db:
        return a[:0], a
    inv = pow(int(b[-1]), -1, p)
    q = np.zeros(len(a) - db, dtype=np.int64)
    while len(a) >= len(b):
        c = (int(a[-1]) * inv) % p
        sh = len(a) - len(b)
        q[sh] = c
        if c:
            a[sh:] = (a[sh:] - c * b) % p
        a = modp.trim(a[:-1])
    return modp.trim(q), a


def gcd_by_trimming(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd over F_p by Euclid, trimming after every eliminated degree."""
    a = modp.trim(a.copy())
    b = modp.trim(b.copy())
    if len(a) < len(b):
        a, b = b, a
    while len(b):
        inv = pow(int(b[-1]), -1, p)
        while len(a) >= len(b):
            c = (int(a[-1]) * inv) % p
            if c:
                sh = len(a) - len(b)
                a[sh:] = (a[sh:] - c * b) % p
            a = modp.trim(a[:-1])
        a, b = b, a
    return modp.monic(a, p)


def ddf_by_powmod(fp: np.ndarray, p: int) -> DegreePattern:
    """Distinct-degree factorization of squarefree fp over F_p, each step
    h -> h^p mod fp a ``powmod``, gcds in blocks of 8 steps, and the modulus
    rebased onto the remaining cofactor once that has shrunk below half the
    degree."""
    fp = modp.monic(modp.trim(fp), p)
    if len(fp) < 2:
        raise ValueError("need degree >= 1")
    if len(gcd_by_trimming(fp, modp.derivative(fp, p), p)) != 1:
        raise BadPrimeError(f"not squarefree mod {p}")
    ctx = modp.ModulusContext(fp, p)
    z_poly = np.array([0, 1], dtype=np.int64)
    components = {}
    rem = fp
    h = z_poly
    d = 0
    while len(rem) - 1 > 0:
        rdeg = len(rem) - 1
        if 2 * (d + 1) > rdeg:
            components[rdeg] = rem
            break
        if rdeg >= 2 and 2 * rdeg < len(ctx.f) - 1:
            ctx = modp.ModulusContext(rem, p)
            h = divmod_by_trimming(h, rem, p)[1]
        hs = []
        prod = np.array([1], dtype=np.int64)
        for _ in range(min(8, rdeg // 2 - d)):
            h = ctx.powmod(h, p)
            d += 1
            hs.append((d, h))
            h_minus_z = modp.sub(h, z_poly, p)
            prod = ctx.mulmod(prod, h_minus_z) if len(h_minus_z) else h_minus_z
        g = gcd_by_trimming(rem, prod, p)
        if len(g) > 1:
            for dd, hd in hs:
                gd = gcd_by_trimming(g, modp.sub(hd, z_poly, p), p)
                if len(gd) > 1:
                    components[dd] = gd
                    g = divmod_by_trimming(g, gd, p)[0]
                    rem = divmod_by_trimming(rem, gd, p)[0]
    return DegreePattern(components)


def horner_triple(coeffs: np.ndarray, z: np.ndarray):
    """Value, derivative value and absolute scale at all points."""
    v = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    dv = np.zeros(z.shape, dtype=np.complex128)
    s = np.full(z.shape, abs(coeffs[-1]), dtype=np.float64)
    az = np.abs(z)
    for c in coeffs[-2::-1]:
        dv = dv * z + v
        v = v * z + c
        s = s * az + abs(c)
    return v, dv, s


def horner_ratio_and_residual(coeffs: np.ndarray, z: np.ndarray):
    """p(z)/p'(z) and the backward residual |p(z)| / sum |c_i| |z|^i.

    Points outside the unit disk are evaluated through the reversed
    polynomial at 1/z, which keeps |z|^degree out of the arithmetic and
    cannot overflow at high degree: with q = rev(p) and u = 1/z,
    p/p' = z*q(u) / (d*q(u) - u*q'(u)) and the residual scales match.
    """
    d = len(coeffs) - 1
    w = np.empty(z.shape, dtype=np.complex128)
    be = np.empty(z.shape, dtype=np.float64)
    outside = np.abs(z) > 1.0
    inside = ~outside
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if inside.any():
            zi = z[inside]
            v, dv, s = horner_triple(coeffs, zi)
            w[inside] = v / dv
            be[inside] = np.abs(v) / np.maximum(s, 1e-300)
        if outside.any():
            zo = z[outside]
            u = 1.0 / zo
            qv, dqv, s = horner_triple(coeffs[::-1], u)
            w[outside] = zo * qv / (d * qv - u * dqv)
            be[outside] = np.abs(qv) / np.maximum(s, 1e-300)
    return w, be


class OracleNotConverged(RuntimeError):
    """``aberth_all_points`` did not converge: no reference to compare."""


def aberth_all_points(p: IntPolynomial, tol: float = 1e-12, max_iter: int = 600,
                      seed: int = 0) -> SolveResult:
    """All roots of p by the Aberth-Ehrlich loop that moves every point on
    every sweep and evaluates value, derivative and residual scale together;
    the reference for ``roots.aberth_solve``, which freezes converged points
    and solves each conjugate pair of points once.

    Start points sit on the circle of radius (|a_0|/|a_d|)^(1/d) with
    golden-angle spacing and seeded 1e-3 radial jitter, so runs are
    reproducible.  No two of them are conjugate, and no point is tied to
    another: every point moves on its own from the first sweep.
    Convergence means every correction fell below tol (relative to
    1 + |z|); if the correction test stalls at the rounding floor, a final
    backward-residual check below 1e-11 still accepts; otherwise it
    raises ``OracleNotConverged``.  Roots at the origin are split off
    exactly first.
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

    rng = np.random.default_rng(seed)
    radius = (abs(c[0]) / abs(c[-1])) ** (1.0 / d)
    radii = radius * (1.0 + 1e-3 * (2.0 * rng.random(d) - 1.0))
    angles = _GOLDEN_ANGLE * np.arange(d)
    z = radii * np.exp(1j * angles)

    chunk = max(1, (1 << 22) // max(d, 1))
    iterations = 0
    max_corr = math.inf
    for iterations in range(1, max_iter + 1):
        w, _ = horner_ratio_and_residual(c, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.zeros(d, dtype=np.complex128)
            for i0 in range(0, d, chunk):
                i1 = min(i0 + chunk, d)
                diff = z[i0:i1, None] - z[None, :]
                idx = np.arange(i0, i1)
                diff[idx - i0, idx] = np.inf
                s[i0:i1] = (1.0 / diff).sum(axis=1)
            corr = w / (1.0 - w * s)
        bad = ~np.isfinite(corr)
        if bad.any():
            # broken points (coincident approximations, vanishing
            # derivative) are jittered and keep the sweep unconverged
            corr[bad] = 0.0
            z[bad] *= 1.0 + 1e-9 * (1.0 + rng.random(int(bad.sum())))
        z = z - corr
        max_corr = float((np.abs(corr) / (1.0 + np.abs(z))).max())
        if bad.any():
            max_corr = math.inf
        if max_corr < tol:
            break
    resid = horner_ratio_and_residual(c, z)[1]
    max_resid = float(resid.max()) if np.isfinite(resid).all() else math.inf
    if max_corr >= tol and max_resid > 1e-11:
        raise OracleNotConverged(
            f"after {iterations} sweeps: max correction {max_corr:.3e}, "
            f"max residual {max_resid:.3e}")
    if n_zero:
        z = np.concatenate([z, np.zeros(n_zero, dtype=np.complex128)])
    # no inclusion discs: an infinite radius about every point
    return SolveResult(z, iterations, max_resid, np.full(len(z), np.inf))


def schur_cohn_inside(p: IntPolynomial) -> int | None:
    """Number of roots of the real polynomial p inside |z| = 1, exactly, by
    the Schur-Cohn recursion (Marden, *Geometry of Polynomials*, ch. X,
    Theorem 43.1); None in the singular case, when some delta_j is 0.

    With f_0 = p of degree n and f^* the reversal of f at its nominal
    degree m, f_(j+1) = f_j(0) f_j - [z^m] f_j * f_j^* loses its top term,
    and delta_(j+1) = f_(j+1)(0).  If no delta_j vanishes, p has no root on
    the circle and as many inside as there are negative products
    delta_1 ... delta_k, k = 1..n.  Each f_j is divided by its content,
    which scales every later delta by a positive square and so keeps the
    signs, and keeps the integers from doubling in length at every step.
    """
    a = list(p.coeffs)
    inside = 0
    sign = 1
    for m in range(len(a) - 1, 0, -1):
        a = [a[0] * a[k] - a[m] * a[m - k] for k in range(m)]
        if a[0] == 0:
            return None
        sign = sign if a[0] > 0 else -sign
        inside += sign < 0
        content = math.gcd(*a)
        a = [c // content for c in a]
    return inside
