"""Exact integer convolution, and dense polynomial arithmetic over F_p.

``convolve`` is the one place where goldpoly multiplies integer sequences
exactly: the pair-count table (``arith``), ``goldbach.pair_sums``, the
exact quotients and remainders by Phi_M (``poly``) and the F_p products
below all go through it.  It has three branches.  One
pair of rows with la * lb <= 2**15 whose entries stay below 2**53 is
multiplied directly in int64 (``np.convolve``).  Anything larger runs as a
real FFT when a rounding bound computed from the operands' lengths and
largest magnitudes certifies it; the direct product is the cheaper one
below that crossover (measured on a 2-core x86_64 for la = lb: 7 against
14 us at 128, 25 against 17 us at 256).  A product that neither test
certifies packs each operand into one Python int (signed Kronecker
substitution) and multiplies exactly.  A caller that knows bounds on its
operands' magnitudes passes them as a hint.  A hint that certifies the
branch of the product's shape spares the scan of the operands; one that
does not gives way to the scanned maxima, so a loose hint never sends a
product to the packer.

``convolve`` and ``mul`` take a batch of rows (a 2-D array) on either
operand or both; the batches broadcast, so one row can meet many.

F_p coefficient arrays are little-endian (index = exponent), trimmed (empty
array = zero polynomial), all entries in [0, p); ``mul`` passes p - 1 as
its operands' hint from that contract.  ``divmod_poly`` and ``gcd`` share
one long-division loop that works in place on copies of their inputs.  A
``ModulusContext`` reduces a batch of rows, or one polynomial as a batch
of one, of any degree, with a Newton inverse of the reversed modulus that
it extends as wider inputs need it; each reduction then costs two
multiplications.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 2.0 ** -52  # twice the unit roundoff of float64
_BATCH_COEFFS = 2 ** 18  # transform points of one row-batched product
_DIRECT_COEFFS = 2 ** 15  # largest la * lb of a direct product


def fft_error_bound(la: int, lb: int, amax: int, bmax: int, length: int) -> float:
    """Bound on |computed - exact| for every entry of an rFFT convolution.

    Percival's bound (Math. Comp. 72, 2003) for FFT products of length
    2**k is ||a|| ||b|| ((1+u)^3k (1+u sqrt5)^(3k+1) (1+beta)^3k - 1),
    with Euclidean norms, u the unit roundoff and beta <= u the twiddle
    error.  This is its first-order term with u doubled for margin, and
    ||a|| <= sqrt(la) amax.
    """
    k = math.log2(length)
    terms = 6.0 * k + math.sqrt(5.0) * (3.0 * k + 1.0)
    return _EPS * terms * math.sqrt(la * lb) * float(amax) * float(bmax)


def convolve(a: np.ndarray, b: np.ndarray,
             bound: int | tuple[int, int] | None = None) -> np.ndarray:
    """Exact linear convolution of integer arrays, 1-D or 2-D on either side.

    Entries are machine integers, or Python ints of any size and sign in an
    object array.  A 2-D operand is a batch of rows; the batches broadcast
    together (equal row counts, or one row against many) and each pair of
    rows is convolved.  ``bound`` is the caller's hint: an upper bound on
    every |entry|, one int for both operands or a pair (a's, b's).  Three
    branches, chosen from the maxima amax, bmax of |entry|:

    - **Direct**, for one row pair with la * lb <= 2**15 (``_DIRECT_COEFFS``,
      the measured crossover) when the maxima give min(la, lb) * amax * bmax
      < 2**53: ``np.convolve`` of the int64 operands, exact as no entry or
      partial sum reaches 2**53.
    - **FFT**, for any other shape when the maxima pass the same 2**53 test
      and ``fft_error_bound`` is below 1/4: rounding the rFFT product
      recovers every entry.  ``convolve(a, a)`` transforms ``a`` once.
    - **Kronecker**, the exact packer, row pair by row pair; the result is
      an object array of Python ints.

    The hint's maxima are tried first; when they certify the float branch
    of the product's shape, neither operand is scanned.  Otherwise, or
    without a hint, the operands' largest magnitudes are scanned over the
    whole batch and the same rule is applied to them.  So a loose hint
    never sends a product to the packer, and a product takes the same
    branch whether its maxima come from a hint or from the scan; a
    direct-sized product is never asked ``fft_error_bound``.  The direct
    and FFT results are int64 and equal entry for entry.
    """
    la, lb = a.shape[-1], b.shape[-1]
    batch = (np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) if b.ndim > 1
             else a.shape[:-1])
    if la == 0 or lb == 0:
        return np.zeros(batch + (0,), dtype=np.int64)
    n = la + lb - 1
    length = 1 << (n - 1).bit_length()
    direct = la * lb <= _DIRECT_COEFFS and math.prod(batch) == 1
    if bound is not None:
        amax, bmax = bound if isinstance(bound, tuple) else (bound, bound)
    if bound is None or not _certified(direct, la, lb, amax, bmax, length):
        amax, bmax = int(np.abs(a).max()), int(np.abs(b).max())
        if amax == 0 or bmax == 0:
            return np.zeros(batch + (n,), dtype=np.int64)
        if not _certified(direct, la, lb, amax, bmax, length):
            rows_a = np.broadcast_to(a, batch + (la,)).reshape(-1, la).tolist()
            rows_b = np.broadcast_to(b, batch + (lb,)).reshape(-1, lb).tolist()
            rows = [_kronecker(ra, rb) for ra, rb in zip(rows_a, rows_b)]
            return np.array(rows, dtype=object).reshape(batch + (n,))
    if direct:
        return _direct(a, b, batch, n)
    return _fft(a, b, length, n)


def _certified(direct: bool, la: int, lb: int, amax: int, bmax: int,
               length: int) -> bool:
    """Whether maxima amax, bmax certify the int64 branch of this shape."""
    # every entry is at most min(la, lb) * amax * bmax: below 2**53 the
    # int64 sums are exact, and so are the float64 copies and the rounded
    # FFT result once its rounding bound holds too
    if min(la, lb) * amax * bmax >= 2 ** 53:
        return False
    return direct or fft_error_bound(la, lb, amax, bmax, length) < 0.25


def _direct(a: np.ndarray, b: np.ndarray, batch: tuple, n: int) -> np.ndarray:
    out = np.convolve(np.asarray(a, dtype=np.int64).reshape(-1),
                      np.asarray(b, dtype=np.int64).reshape(-1))
    return out.reshape(batch + (n,))


def _fft(a: np.ndarray, b: np.ndarray, length: int, n: int) -> np.ndarray:
    spec = np.fft.rfft(np.asarray(a, dtype=np.float64), length)
    if b is a:
        spec *= spec
    else:
        spec = spec * np.fft.rfft(np.asarray(b, dtype=np.float64), length)
    # drop the spectrum and round in place: fewer full-length temporaries
    out = np.fft.irfft(spec, length)[..., :n]
    del spec
    return np.rint(out, out=out).astype(np.int64)


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """Exact convolution of nonempty sequences by signed Kronecker substitution.

    Each entry has |c| <= min(len) * max|a| * max|b| < 2**(bits - 1), with
    bits the limb width, so adding 2**(bits - 1) to every limb of the
    product makes all limbs nonnegative without carries between them.  The
    maxima are taken as at least 1, so that the limbs of an all-zero
    sequence are still wide enough to hold the other one.  Only products
    past the FFT bound reach it (p near 2**31, large --max-primes, big
    coefficients; none in the benchmark); it keeps ``convolve`` exact.
    """
    need = (min(len(a), len(b)) * max(1, max(map(abs, a)))
            * max(1, max(map(abs, b))))
    width = need.bit_length() // 8 + 1
    n = len(a) + len(b) - 1
    half = 1 << (8 * width - 1)
    prod = _pack(a, width) * _pack(b, width)
    bias = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    raw = (prod + bias).to_bytes(width * n, "little")
    return [int.from_bytes(raw[k * width:(k + 1) * width], "little") - half
            for k in range(n)]


def _pack(vals: list[int], width: int) -> int:
    """sum(v * 256**(width * i)) for signed v with |v| < 256**width."""
    pos = b"".join(max(v, 0).to_bytes(width, "little") for v in vals)
    neg = b"".join(max(-v, 0).to_bytes(width, "little") for v in vals)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def trim(a: np.ndarray) -> np.ndarray:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def from_coeffs(coeffs, p: int) -> np.ndarray:
    """Reduce arbitrary-size integer coefficients mod p into an array."""
    return trim(np.array([c % p for c in coeffs], dtype=np.int64))


def sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % p
    return trim(out)


def scale(a: np.ndarray, c: int, p: int) -> np.ndarray:
    c %= p
    if c == 0:
        return a[:0]
    return (a * c) % p


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a * b over F_p.  With a 2-D operand the rows broadcast as in
    ``convolve`` and each product row comes back untrimmed.  The operands'
    entries lie in [0, p), so p - 1 is their hint: they are scanned only
    where it certifies no float product (p near 2**31)."""
    out = (convolve(a, b, p - 1) % p).astype(np.int64, copy=False)
    return trim(out) if out.ndim == 1 else out


def monic(a: np.ndarray, p: int) -> np.ndarray:
    if len(a) == 0:
        return a
    lead = int(a[-1])
    if lead == 1:
        return a
    return scale(a, pow(lead, -1, p), p)


def _eliminate(a: np.ndarray, da: int, b: np.ndarray, db: int, p: int,
               q: np.ndarray | None = None) -> int:
    """Reduce a[:da + 1] modulo b[:db + 1] in place, by long division.

    ``da`` and ``db`` are the degrees (b[db] != 0).  Each step subtracts
    c z^sh b from the top of a, which stays exact in int64 for p < 2**31,
    and steps down one degree without trimming.  The quotient coefficients
    go into ``q`` when it is given.  Returns the degree of the remainder,
    -1 when it is zero.
    """
    inv = pow(b.item(db), -1, p)
    bb = b[: db + 1]
    while da >= db:
        c = a.item(da) * inv % p
        if c:
            sh = da - db
            if q is not None:
                q[sh] = c
            seg = a[sh: da + 1]
            seg -= c * bb
            seg %= p
        da -= 1
    while da >= 0 and a.item(da) == 0:
        da -= 1
    return da


def divmod_poly(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(quotient, remainder) of a by nonzero b over F_p."""
    b = trim(b)
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("division by zero polynomial")
    a = trim(np.array(a, dtype=np.int64))
    da = len(a) - 1
    if da < db:
        return a[:0], a
    q = np.zeros(da - db + 1, dtype=np.int64)
    return q, a[: _eliminate(a, da, b, db, p, q) + 1]


def gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd by Euclid on two work rows: gcd(a, 0) = gcd(0, a) = monic(a),
    and gcd(0, 0) is the empty array."""
    a = trim(np.array(a, dtype=np.int64))
    b = trim(np.array(b, dtype=np.int64))
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        a, b, da, db = b, a, db, da
    while db >= 0:
        da = _eliminate(a, da, b, db, p)
        a, b, da, db = b, a, db, da
    return monic(a[: da + 1], p)


def derivative(a: np.ndarray, p: int) -> np.ndarray:
    if len(a) <= 1:
        return a[:0]
    k = np.arange(1, len(a), dtype=np.int64)
    return trim((a[1:] * k) % p)


class ModulusContext:
    """Reduction context mod a monic polynomial f over F_p.

    Keeps rev(f)^{-1} mod z^k, computed by Newton iteration when a
    reduction first needs it and extended by Newton doubling from the
    precision it has whenever a wider input needs more, so that each
    reduction costs two multiplications.
    """

    def __init__(self, f: np.ndarray, p: int):
        f = trim(f)
        if len(f) == 0 or int(f[-1]) != 1:
            raise ValueError("modulus must be monic and nonzero")
        self.p = p
        self.f = f
        self.n = len(f) - 1
        # rev(f)^{-1} mod z^prec; rev(f)[0] = 1 since f is monic
        self._inv = np.array([1], dtype=np.int64)
        self._prec = 1

    def _inverse(self, k: int) -> np.ndarray:
        """rev(f)^{-1} mod z^k."""
        if k > self._prec:
            p, g = self.p, self.f[::-1]
            inv, t = self._inv, self._prec
            while t < k:
                t = min(2 * t, k)
                prod = mul(inv, trim(g[:t]), p)[:t]
                two_minus = sub(np.array([2], dtype=np.int64), prod, p)
                inv = mul(inv, two_minus, p)[:t]
            self._inv, self._prec = inv, t
        return self._inv[:k]

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """a mod f, for a of any degree.

        A 2-D ``a`` is a batch of rows, each reduced as a polynomial of
        formal degree width - 1; the result has width exactly deg f.  A 1-D
        ``a`` is the one-row batch trim(a)[None], its remainder trimmed.
        """
        if a.ndim == 1:
            return trim(self.reduce(trim(a)[None])[0])
        p, n = self.p, self.n
        width = a.shape[-1]
        out = np.zeros((len(a), n), dtype=np.int64)
        out[:, : min(n, width)] = a[:, :n]
        if width <= n:
            return out
        dq = width - 1 - n
        # rev(q) = rev(a) rev(f)^{-1} mod z^(dq+1); row products come back
        # untrimmed: q keeps its low zeros, mul(q, f) has >= n columns
        q = mul(a[:, ::-1][:, : dq + 1], self._inverse(dq + 1), p)[:, dq::-1]
        out -= mul(q, self.f, p)[:, :n]
        out %= p
        return out

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(mul(a, b, self.p))

    def powmod(self, h: np.ndarray, e: int) -> np.ndarray:
        """h**e mod f by binary exponentiation."""
        result = np.array([1], dtype=np.int64)
        base = self.reduce(h)
        while e:
            if e & 1:
                result = self.mulmod(result, base)
            e >>= 1
            if e:
                base = self.mulmod(base, base)
        return result


class FrobeniusMap:
    """h -> h^p mod f over F_p as one matrix-vector product.

    Over F_p, (sum h_i z^i)^p = sum h_i z^(p i), so the map is linear and
    its matrix is Berlekamp's Q, whose row i is z^(p i) = x^i mod f with
    x = z^p mod f (von zur Gathen & Shoup, Comput. Complexity 2, 1992).
    The build takes one ``powmod`` for x = row 1 and then doubles: with
    rows [0, k] known, rows [k + 1, k + m] are rows [1, m] times row k =
    x^k, by row-batched ``mul`` and ``reduce``, for m = min(k, n - 1 - k).
    The last row of a full level, x^(2k), is the next level's multiplier,
    so no level squares x^k on its own.  A batch holds as many rows as
    fit 2**18 points of the products' transform length (2n to 4n), so up
    to degree 512 a level is one batch, and above it a batch's
    temporaries stay near 8 MiB whatever the degree.  The matrix is kept
    as built, ``q`` = Q, int32 while n (p - 1)^2 < 2**31 and int64
    otherwise.  A step is h Q, an einsum over Q's rows in that dtype,
    which numpy runs without BLAS and so without threads; it is exact
    while n (p - 1)^2 < 2**63, and a larger modulus is rejected with
    ValueError.
    """

    def __init__(self, ctx: ModulusContext):
        n, p = ctx.n, ctx.p
        if n * (p - 1) ** 2 >= 2 ** 63:
            raise ValueError(f"n (p-1)^2 >= 2^63 at n={n}, p={p}: "
                             "the int64 Frobenius step would overflow")
        # a step sums n products below (p - 1)^2 in the matrix's dtype
        dtype = np.int32 if n * (p - 1) ** 2 < 2 ** 31 else np.int64
        q = np.zeros((n, n), dtype=dtype)
        q[0, 0] = 1
        x = ctx.powmod(np.array([0, 1], dtype=np.int64), p)
        if n > 1:
            q[1, : len(x)] = x
        # rows per batched product: a row's product with x^k, and each
        # product of its reduction, is transformed at this length, so the
        # transform temporaries stay near _BATCH_COEFFS entries
        rows = max(1, _BATCH_COEFFS >> (2 * n - 2).bit_length())
        k = 1
        while k < n - 1:
            m = min(k, n - 1 - k)
            for lo in range(1, m + 1, rows):
                hi = min(lo + rows, m + 1)
                q[k + lo:k + hi] = ctx.reduce(mul(q[lo:hi], q[k], p))
            k += m
        self.p = p
        self.n = n
        self.q = q

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """h^p mod f for h of degree < deg f."""
        v = np.zeros(self.n, dtype=self.q.dtype)
        v[: len(h)] = h
        out = np.einsum("ij,i->j", self.q, v) % self.p
        return trim(out.astype(np.int64, copy=False))

