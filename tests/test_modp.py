import numpy as np
import pytest

from goldpoly import modp

from oracles import divmod_by_trimming, gcd_by_trimming, school_mul

PRIMES = [5, 101, 2_147_483_647]


def rand_poly(rng, p, max_deg=40, monic=False):
    deg = int(rng.integers(0, max_deg + 1))
    a = rng.integers(0, p, deg + 1).astype(np.int64)
    if monic:
        a[-1] = 1
    return modp.trim(a) if not monic else a


def school_exact(a, b):
    return school_mul([int(x) for x in a], [int(x) for x in b])


def school(a, b, p):
    out = np.array(school_exact(a, b), dtype=object)
    return modp.trim((out % p).astype(np.int64))


class TestMul:
    @pytest.mark.parametrize("p", [101, 5, 2_147_483_647])
    def test_small_random(self, p):
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = rand_poly(rng, p, 12)
            b = rand_poly(rng, p, 12)
            if len(a) == 0 or len(b) == 0:
                assert len(modp.mul(a, b, p)) == 0
                continue
            assert np.array_equal(modp.mul(a, b, p), school(a, b, p))

    def test_fft_path_exact(self):
        rng = np.random.default_rng(1)
        p = 151
        a = rng.integers(0, p, 700).astype(np.int64)
        b = rng.integers(0, p, 650).astype(np.int64)
        a[-1] = b[-1] = 1
        assert np.array_equal(modp.mul(a, b, p), school(a, b, p))

    def test_kronecker_matches_fft(self):
        rng = np.random.default_rng(2)
        p = 103
        a = rng.integers(0, p, 300).astype(np.int64)
        b = rng.integers(0, p, 280).astype(np.int64)
        a[-1] = b[-1] = 1
        assert modp.convolve(a, b).dtype == np.int64  # the FFT path
        packed = np.array(modp._kronecker(a.tolist(), b.tolist())) % p
        assert np.array_equal(packed, modp.mul(a, b, p))

    def test_large_prime_falls_back_to_exact_packing(self):
        # at p ~ 2^20 the FFT rounding bound fails, forcing the exact path
        # for an FFT-sized product; a direct-sized one needs only its
        # entries below 2**53 and stays int64
        rng = np.random.default_rng(3)
        p = 1_048_573
        for lb, dtype in [(64, np.int64), (1024, object)]:
            a = rng.integers(0, p, 64).astype(np.int64)
            b = rng.integers(0, p, lb).astype(np.int64)
            a[-1] = b[-1] = 1
            length = 1 << (64 + lb - 2).bit_length()
            assert modp.fft_error_bound(64, lb, p - 1, p - 1, length) >= 0.25
            assert modp.convolve(a, b).dtype == dtype
            assert np.array_equal(modp.mul(a, b, p), school(a, b, p))

    def test_wide_limb_packing(self):
        # limb width above 8 bytes: word prime, (2**31 - 2)**2 per term, so
        # the bound fails at every length and the packer runs
        rng = np.random.default_rng(4)
        p = 2_147_483_647
        for la, lb in [(40, 40), (1, 1), (3, 200), (257, 256)]:
            a = rng.integers(0, p, la).astype(np.int64)
            b = rng.integers(0, p, lb).astype(np.int64)
            a[-1] = b[-1] = p - 1
            length = 1 << (la + lb - 2).bit_length()
            assert modp.fft_error_bound(la, lb, p - 1, p - 1, length) >= 0.25
            conv = modp.convolve(a, b)
            assert conv.dtype == object
            assert conv.tolist() == school_exact(a, b)
            assert np.array_equal(modp.mul(a, b, p), school(a, b, p))


class TestMulContract:
    """mul hints p - 1, the module's bound on its operands' entries, to
    convolve.  Where that hint certifies no float product (p near 2**31)
    the operands are scanned; these hold p - 1, so they still pack."""

    @pytest.mark.parametrize("p", [2, 3, 101, 65_521, 2_147_483_647])
    @pytest.mark.parametrize("shape_a, shape_b", [
        ((37,), (20,)), ((5, 30), (30,)), ((30,), (4, 25)), ((6, 33), (6, 12)),
        ((1, 40), (3, 40)), ((4, 9), (1, 9)),
    ])
    def test_matches_reduced_convolution(self, monkeypatch, p,
                                         shape_a, shape_b):
        rng = np.random.default_rng(p % 1009 + len(shape_a) + 3 * shape_b[-1])
        a = rng.integers(0, p, shape_a).astype(np.int64)
        b = rng.integers(0, p, shape_b).astype(np.int64)
        if a.ndim == 2:
            a[-1] = 0  # a zero row
        a.flat[-1] = b.flat[-1] = p - 1
        packed = []
        kronecker = modp._kronecker

        def counted(x, y):
            packed.append(1)
            return kronecker(x, y)

        monkeypatch.setattr(modp, "_kronecker", counted)
        got = modp.mul(a, b, p)
        taken = len(packed)
        expected = (modp.convolve(a, b) % p).astype(np.int64)
        if expected.ndim == 1:
            expected = modp.trim(expected)
        assert got.dtype == np.int64
        assert got.tolist() == expected.tolist()
        # beyond the float bound the exact packer runs on scanned operands
        assert (taken > 0) == (p == 2_147_483_647)

    @pytest.mark.parametrize("p", [2, 101, 2_147_483_647])
    def test_zero_operands(self, p):
        zero, one = np.zeros(0, dtype=np.int64), np.array([1], dtype=np.int64)
        assert modp.mul(zero, one, p).tolist() == []
        assert modp.mul(np.zeros(4, dtype=np.int64), one, p).tolist() == []
        rows = np.zeros((3, 5), dtype=np.int64)
        got = modp.mul(rows, np.array([0, 1, p - 1], dtype=np.int64), p)
        assert got.tolist() == [[0] * 7] * 3


class TestConvolve:
    def test_largest_admitted_magnitudes_are_exact(self):
        # signed operands at the largest magnitude the bound still admits,
        # every entry near the extremes: the FFT result equals the packer's
        rng = np.random.default_rng(7)
        for la, lb in [(2000, 2000), (4000, 3), (64, 1000)]:
            length = 1 << (la + lb - 2).bit_length()
            m = 1
            while modp.fft_error_bound(la, lb, 2 * m, 2 * m, length) < 0.25:
                m *= 2
            signs_a = rng.choice([-1, 1], la)
            signs_b = rng.choice([-1, 1], lb)
            a = (signs_a * (m - rng.integers(0, 4, la))).astype(np.int64)
            b = (signs_b * (m - rng.integers(0, 4, lb))).astype(np.int64)
            conv = modp.convolve(a, b)
            assert conv.dtype == np.int64
            assert conv.tolist() == modp._kronecker(a.tolist(), b.tolist())

    def test_zero_and_empty_operands(self):
        a = np.array([3, -1, 4], dtype=np.int64)
        assert modp.convolve(a, np.zeros(2, dtype=np.int64)).tolist() == [0] * 4
        assert len(modp.convolve(a, np.zeros(0, dtype=np.int64))) == 0
        zero = np.zeros(5, dtype=np.int64)
        for x, y, shape in [(zero, a, (7,)), (zero[None], a, (1, 7)),
                            (a[None], zero[None], (1, 7))]:
            got = modp.convolve(x, y)
            assert got.dtype == np.int64
            assert got.shape == shape and not got.any()


def count_transforms(monkeypatch):
    """Wrap numpy.fft.rfft; the list grows by one entry per call."""
    calls = []
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    return calls


class TestDirectConvolve:
    # (la, lb) on both sides of la * lb = 2**15, the direct branch's bound
    SHAPES = [(1, 1), (5, 7), (128, 128), (181, 181), (64, 512), (1, 2 ** 15),
              (182, 181), (64, 513), (1, 2 ** 15 + 1), (256, 256)]

    @pytest.mark.parametrize("la, lb", SHAPES)
    def test_matches_fft_and_packer(self, monkeypatch, la, lb):
        rng = np.random.default_rng(la * 1000 + lb)
        a = rng.integers(-100, 101, la).astype(np.int64)
        b = rng.integers(0, 101, lb).astype(np.int64)
        calls = count_transforms(monkeypatch)
        got = modp.convolve(a, b)
        assert (len(calls) == 0) == (la * lb <= 2 ** 15)
        monkeypatch.setattr(modp, "_DIRECT_COEFFS", 0)
        fft = modp.convolve(a, b)
        assert got.dtype == fft.dtype == np.int64
        assert got.shape == fft.shape == (la + lb - 1,)
        assert got.tolist() == fft.tolist()
        assert got.tolist() == modp._kronecker(a.tolist(), b.tolist())
        square = modp.convolve(a, a)
        assert square.dtype == np.int64
        assert square.tolist() == modp._kronecker(a.tolist(), a.tolist())

    def test_narrow_and_object_inputs(self, monkeypatch):
        # uint8 entries would wrap if multiplied in their own dtype; Python
        # ints in an object array are converted too
        rng = np.random.default_rng(11)
        a = rng.integers(200, 256, 150).astype(np.uint8)
        b = np.array([int(x) for x in rng.integers(0, 1000, 90)], dtype=object)
        calls = count_transforms(monkeypatch)
        for x, y in [(a, a), (a, b), (b, a)]:
            got = modp.convolve(x, y)
            assert got.dtype == np.int64
            assert got.tolist() == modp._kronecker([int(v) for v in x],
                                                   [int(v) for v in y])
        assert not calls

    @pytest.mark.parametrize("shape_a, shape_b", [((1, 40), (27,)),
                                                  ((40,), (1, 27)),
                                                  ((1, 40), (1, 27))])
    def test_one_row_batches(self, monkeypatch, shape_a, shape_b):
        rng = np.random.default_rng(13)
        a = rng.integers(0, 101, shape_a).astype(np.int64)
        b = rng.integers(0, 101, shape_b).astype(np.int64)
        calls = count_transforms(monkeypatch)
        got = modp.convolve(a, b)
        assert not calls
        monkeypatch.setattr(modp, "_DIRECT_COEFFS", 0)
        fft = modp.convolve(a, b)
        assert got.shape == fft.shape == (1, 66)
        assert got.dtype == fft.dtype == np.int64
        assert got.tolist() == fft.tolist()
        expected = modp._kronecker(a.ravel().tolist(), b.ravel().tolist())
        assert got[0].tolist() == expected

    def test_entries_at_2_53_take_the_packer(self):
        a = np.array([2 ** 27], dtype=np.int64)
        b = np.array([2 ** 26, -3], dtype=np.int64)
        got = modp.convolve(a, b)
        assert got.dtype == object
        assert got.tolist() == [2 ** 53, -3 * 2 ** 27]


class TestConvolveHint:
    """A caller's bound is a hint: it may spare the scan, and a loose one
    never sends a product to another branch or changes its result."""

    # both sides of la * lb = 2**15
    SHAPES = [(5, 7), (64, 512), (181, 181), (64, 513), (182, 181), (300, 280)]

    @staticmethod
    def _branches(monkeypatch):
        """Record 'kronecker' per packed row pair and 'fft' per rfft."""
        seen = []
        rfft, kronecker = np.fft.rfft, modp._kronecker

        def counted_rfft(*args, **kwargs):
            seen.append("fft")
            return rfft(*args, **kwargs)

        def counted_kronecker(a, b):
            seen.append("kronecker")
            return kronecker(a, b)

        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        monkeypatch.setattr(modp, "_kronecker", counted_kronecker)
        return seen

    @pytest.mark.parametrize("la, lb", SHAPES)
    @pytest.mark.parametrize("peak_a, peak_b",
                             [(100, 100), (2 ** 26, 2 ** 26)])
    def test_loose_hint_keeps_values_dtype_and_branch(self, monkeypatch,
                                                      la, lb, peak_a, peak_b):
        # small entries take the direct or FFT branch; large ones reach
        # 2**53 in every shape here, so they take the packer
        rng = np.random.default_rng(la * 1000 + lb)
        a = rng.integers(-peak_a, peak_a + 1, la).astype(np.int64)
        b = rng.integers(-peak_b, peak_b + 1, lb).astype(np.int64)
        a[-1], b[0] = peak_a, -peak_b
        seen = self._branches(monkeypatch)
        plain = modp.convolve(a, b)
        branch = sorted(set(seen)) or ["direct"]
        for hint in (2 * peak_a, (peak_a + 1, 3 * peak_b), (2 ** 40, peak_b),
                     2 ** 40):
            seen.clear()
            got = modp.convolve(a, b, hint)
            assert (sorted(set(seen)) or ["direct"]) == branch, hint
            assert got.dtype == plain.dtype
            assert got.tolist() == plain.tolist()
        assert branch == (["kronecker"] if peak_a > 100 else
                          ["direct"] if la * lb <= 2 ** 15 else ["fft"])
        assert plain.tolist() == school_exact(a, b)

    def test_certifying_hint_takes_no_float_bound(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("fft_error_bound on the direct branch")

        monkeypatch.setattr(modp, "fft_error_bound", refuse)
        rng = np.random.default_rng(21)
        for la, lb in [(1, 1), (40, 27), (64, 512), (1, 2 ** 15)]:
            a = rng.integers(-1000, 1001, la).astype(np.int64)
            b = rng.integers(-1000, 1001, lb).astype(np.int64)
            for x in (a, a[None]):
                got = modp.convolve(x, b, (1000, 1000))
                assert got.dtype == np.int64
                assert got.reshape(-1).tolist() == school_exact(a, b)
        # below 2**53 the int64 product is exact whatever the float bound,
        # so neither the hint nor the scanned maxima consult it
        a = np.array([2 ** 27], dtype=np.int64)
        b = np.array([2 ** 25, -3], dtype=np.int64)
        for hint in ((2 ** 27, 2 ** 25), None):
            got = modp.convolve(a, b, hint)
            assert got.dtype == np.int64
            assert got.tolist() == [2 ** 52, -3 * 2 ** 27]

    def test_loose_hint_on_fft_sized_bits(self, monkeypatch):
        # 0/1 operands whose hint fails the float bound: the scan finds 1
        rng = np.random.default_rng(22)
        a = rng.integers(0, 2, 3000).astype(np.uint8)
        b = rng.integers(0, 2, 2000).astype(np.uint8)
        a[-1] = b[-1] = 1
        seen = self._branches(monkeypatch)
        got = modp.convolve(a, b, 2 ** 40)
        assert "kronecker" not in seen and "fft" in seen
        assert got.dtype == np.int64
        assert got.tolist() == modp.convolve(a, b).tolist()
        assert got.tolist() == np.convolve(a.astype(np.int64),
                                           b.astype(np.int64)).tolist()


class TestDivmod:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        p = 101
        for _ in range(60):
            a = rand_poly(rng, p, 30)
            b = rand_poly(rng, p, 10)
            if len(b) == 0:
                continue
            q, r = modp.divmod_poly(a, b, p)
            # a - q*b == r over F_p
            assert np.array_equal(modp.sub(a, modp.mul(q, b, p), p), r)
            assert len(r) < len(b)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            modp.divmod_poly(np.array([1], dtype=np.int64),
                             np.zeros(0, dtype=np.int64), 101)


class TestGcd:
    def test_divides_both(self):
        rng = np.random.default_rng(4)
        p = 101
        for _ in range(40):
            g = rand_poly(rng, p, 6, monic=True)
            a = modp.mul(g, rand_poly(rng, p, 8, monic=True), p)
            b = modp.mul(g, rand_poly(rng, p, 8, monic=True), p)
            got = modp.gcd(a, b, p)
            assert len(got) >= len(g)
            assert len(modp.divmod_poly(a, got, p)[1]) == 0
            assert len(modp.divmod_poly(b, got, p)[1]) == 0
            assert got[-1] == 1  # monic

    def test_gcd_with_zero(self):
        p = 101
        a = np.array([2, 4], dtype=np.int64)
        got = modp.gcd(a, np.zeros(0, dtype=np.int64), p)
        assert np.array_equal(got, np.array([2 * pow(4, p - 2, p) % p, 1]))

    @pytest.mark.parametrize("p", [7, 2_147_483_647])
    def test_zero_operand_on_either_side(self, p):
        zero = np.zeros(0, dtype=np.int64)
        b = np.array([3, 5, 2], dtype=np.int64)
        expected = np.array([3 * pow(2, -1, p) % p, 5 * pow(2, -1, p) % p, 1])
        assert np.array_equal(modp.monic(b, p), expected)
        assert np.array_equal(modp.gcd(zero, b, p), expected)
        assert np.array_equal(modp.gcd(b, zero, p), expected)
        assert len(modp.gcd(zero, zero, p)) == 0


def _with_factor(rng, p, shared, deg):
    """shared times a random polynomial of degree deg, non-monic."""
    other = rng.integers(0, p, deg + 1).astype(np.int64)
    other[-1] = int(rng.integers(1, p))
    return modp.mul(shared, other, p)


class TestEliminationAgainstOracles:
    """gcd and divmod_poly against the trim-per-degree loops they replaced."""

    @staticmethod
    def check_pair(a, b, p):
        a0, b0 = a.copy(), b.copy()
        got = modp.gcd(a, b, p)
        expected = gcd_by_trimming(a, b, p)
        assert got.dtype == np.int64
        assert got.tolist() == expected.tolist()
        if len(modp.trim(b)):
            q, r = modp.divmod_poly(a, b, p)
            eq, er = divmod_by_trimming(a, b, p)
            assert q.dtype == r.dtype == np.int64
            assert q.tolist() == eq.tolist() and r.tolist() == er.tolist()
            assert len(q) == 0 or q[-1] != 0
            assert len(r) == 0 or r[-1] != 0
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

    @pytest.mark.parametrize("p", PRIMES)
    def test_shared_factors(self, p):
        rng = np.random.default_rng(p % 1000)
        for k in range(1, 21):
            shared = rng.integers(0, p, k + 1).astype(np.int64)
            shared[-1] = int(rng.integers(1, p))
            for da, db in ((0, 0), (3, 3), (int(rng.integers(0, 30)),
                                            int(rng.integers(0, 30)))):
                a = _with_factor(rng, p, shared, da)
                b = _with_factor(rng, p, shared, db)
                self.check_pair(a, b, p)
                self.check_pair(b, a, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_zeros_and_trailing_zeros(self, p):
        rng = np.random.default_rng(p % 997)
        zero = np.zeros(0, dtype=np.int64)
        for _ in range(30):
            a = rng.integers(0, p, int(rng.integers(1, 25))).astype(np.int64)
            b = rng.integers(0, p, int(rng.integers(1, 25))).astype(np.int64)
            # trailing (high-order) zeros that the loops must skip
            a = np.concatenate([a, np.zeros(int(rng.integers(0, 4)), np.int64)])
            b = np.concatenate([b, np.zeros(int(rng.integers(0, 4)), np.int64)])
            for x, y in ((a, b), (b, a), (a, zero), (zero, a),
                         (a, np.zeros(3, np.int64)), (a, a), (a, b[:1])):
                self.check_pair(x, y, p)
        self.check_pair(zero, zero, p)
        self.check_pair(np.zeros(4, np.int64), np.zeros(2, np.int64), p)

    def test_remainder_with_vanishing_top_coefficients(self):
        # b divides the top of a exactly: the remainder loses several degrees
        p = 101
        b = np.array([3, 0, 7, 5], dtype=np.int64)
        a = modp.mul(b, np.array([2, 9, 4], dtype=np.int64), p)
        a[:2] = (a[:2] + [1, 1]) % p
        self.check_pair(a, b, p)
        assert modp.divmod_poly(a, b, p)[1].tolist() == [1, 1]


class TestModulusContext:
    def test_reduce_matches_divmod(self):
        rng = np.random.default_rng(5)
        p = 101
        for deg in (3, 8, 20, 64):
            f = rand_poly(rng, p, deg, monic=True)
            if len(f) < 2:
                continue
            ctx = modp.ModulusContext(f, p)
            for _ in range(10):
                a = rand_poly(rng, p, 2 * (len(f) - 1) - 2)
                expected = modp.divmod_poly(a, f, p)[1]
                assert np.array_equal(ctx.reduce(a), expected)

    @pytest.mark.parametrize("p", [101, 65_521])
    def test_reduce_at_any_width(self, p):
        # widths up to 4 deg f, narrow and wide calls interleaved so that
        # the cached inverse is both reused and extended
        rng = np.random.default_rng(p)
        for n in (1, 2, 10, 33):
            f = rng.integers(0, p, n + 1).astype(np.int64)
            f[-1] = 1
            ctx = modp.ModulusContext(f, p)
            for width in (4 * n, 2, 2 * n, 3 * n + 1, n + 1, 4 * n):
                a = rng.integers(0, p, (5, width)).astype(np.int64)
                a[1, width // 2:] = 0
                a[4] = 0
                got = ctx.reduce(a)
                assert got.shape == (5, n)
                for row, out in zip(a, got):
                    expected = modp.divmod_poly(row, f, p)[1]
                    assert modp.trim(out).tolist() == expected.tolist()
                    assert ctx.reduce(row).tolist() == expected.tolist()

    @pytest.mark.parametrize("p", [101, 2_147_483_647])
    def test_one_polynomial_is_a_batch_of_one_row(self, p):
        # reduce(a) runs as the one-row batch trim(a)[None]: at every width
        # from 0 to 3 deg f + 2, with trailing zeros and for zero itself
        rng = np.random.default_rng(p % 1000)
        for n in (1, 4, 17):
            f = rng.integers(0, p, n + 1).astype(np.int64)
            f[-1] = 1
            ctx = modp.ModulusContext(f, p)
            for width in range(3 * n + 3):
                a = rng.integers(0, p, width).astype(np.int64)
                tail = a.copy()
                tail[width // 2:] = 0
                for x in (a, tail, np.zeros(width, dtype=np.int64)):
                    got = ctx.reduce(x)
                    assert got.tolist() == modp.trim(
                        ctx.reduce(x[None])[0]).tolist()
                    assert got.tolist() == modp.divmod_poly(x, f, p)[1].tolist()

    @pytest.mark.parametrize("e", [1, 2, 3, 7])
    def test_powmod_of_a_wide_base(self, e):
        # powmod reduces its base first: deg h up to 4 deg f
        rng = np.random.default_rng(e)
        p, n = 101, 10
        f = rng.integers(0, p, n + 1).astype(np.int64)
        f[-1] = 1
        ctx = modp.ModulusContext(f, p)
        for deg_h in (2 * n - 1, 34, 4 * n):
            h = rng.integers(0, p, deg_h + 1).astype(np.int64)
            h[-1] = 1
            expected = np.array([1], dtype=np.int64)
            for _ in range(e):
                expected = modp.divmod_poly(modp.mul(expected, h, p), f, p)[1]
            assert ctx.powmod(h, e).tolist() == expected.tolist()

    def test_powmod_frobenius_fixed_point(self):
        # z^(p^n) == z mod f for irreducible f of degree n: z^2+1 mod 3, n=2
        p = 3
        f = np.array([1, 0, 1], dtype=np.int64)
        ctx = modp.ModulusContext(f, p)
        z = np.array([0, 1], dtype=np.int64)
        assert np.array_equal(ctx.powmod(z, p ** 2), z)

    def test_powmod_small_cases(self):
        p = 101
        f = np.array([5, 3, 1], dtype=np.int64)
        ctx = modp.ModulusContext(f, p)
        z = np.array([0, 1], dtype=np.int64)
        direct = np.array([1], dtype=np.int64)
        for _ in range(13):
            direct = ctx.mulmod(direct, z)
        assert np.array_equal(ctx.powmod(z, 13), direct)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            modp.ModulusContext(np.array([1, 2], dtype=np.int64), 101)

    def test_derivative(self):
        p = 7
        a = np.array([1, 2, 3, 4], dtype=np.int64)
        assert np.array_equal(modp.derivative(a, p),
                              np.array([2, 6, 5], dtype=np.int64))


class TestRowBatchedConvolve:
    @pytest.mark.parametrize("p, fft", [(101, True), (2_147_483_647, False)])
    def test_rows_match_one_dimensional(self, p, fft):
        rng = np.random.default_rng(8)
        a = rng.integers(0, p, (7, 50)).astype(np.int64)
        a[3] = 0  # a zero row among nonzero ones
        b = rng.integers(0, p, 33).astype(np.int64)
        got = modp.convolve(a, b)
        assert got.shape == (7, 82)
        assert got.dtype == (np.int64 if fft else object)
        for row, out in zip(a, got):
            assert out.tolist() == modp.convolve(row, b).tolist()
        assert got[3].tolist() == [0] * 82

    @pytest.mark.parametrize("p, fft", [(101, True), (2_147_483_647, False)])
    @pytest.mark.parametrize("rows_a, rows_b", [(5, 5), (1, 4), (4, 1),
                                                (None, 3)])
    def test_row_batches_on_both_operands(self, p, fft, rows_a, rows_b):
        rng = np.random.default_rng(p % 97 + 3 * (rows_a or 0) + (rows_b or 0))

        def operand(rows, width):
            shape = (width,) if rows is None else (rows, width)
            return rng.integers(0, p, shape).astype(np.int64)

        a, b = operand(rows_a, 40), operand(rows_b, 27)
        if a.ndim == 2 and len(a) > 2:
            a[2] = 0
        got = modp.convolve(a, b)
        mod = modp.mul(a, b, p)
        rows = max(rows_a or 1, rows_b or 1)
        assert got.shape == mod.shape == (rows, 66)
        assert got.dtype == (np.int64 if fft else object)
        ra = a if a.ndim == 2 else a[None]
        rb = b if b.ndim == 2 else b[None]
        for i in range(rows):
            x, y = ra[i % len(ra)], rb[i % len(rb)]
            assert got[i].tolist() == modp.convolve(x, y).tolist()
            expected = np.zeros(66, dtype=np.int64)
            row = modp.mul(x, y, p)
            expected[: len(row)] = row
            assert mod[i].tolist() == expected.tolist()

    def test_batched_reduce_matches_rows(self):
        rng = np.random.default_rng(9)
        p = 103
        n = 30
        f = rng.integers(0, p, n + 1).astype(np.int64)
        f[-1] = 1
        ctx = modp.ModulusContext(f, p)
        for width in (5, n, 2 * n - 1):
            a = rng.integers(0, p, (6, width)).astype(np.int64)
            a[2, width // 2:] = 0  # lower actual degree than the width
            got = ctx.reduce(a)
            assert got.shape == (6, n)
            for row, out in zip(a, got):
                expected = modp.divmod_poly(row, f, p)[1]
                assert modp.trim(out).tolist() == expected.tolist()


def frobenius_dtype(n, p):
    """The Frobenius matrix's dtype: a step sums n products below (p-1)^2."""
    return np.int32 if n * (p - 1) ** 2 < 2 ** 31 else np.int64


def build_with_batches(monkeypatch, ctx):
    """ctx's Frobenius map and the row count of each doubling's batch."""
    seen, mul = [], modp.mul

    def spy(a, b, p):
        if a.ndim == 2 and b.shape == (ctx.n,):  # rows [lo, hi) times x^k
            seen.append(len(a))
        return mul(a, b, p)

    monkeypatch.setattr(modp, "mul", spy)
    frob = modp.FrobeniusMap(ctx)
    monkeypatch.setattr(modp, "mul", mul)
    return frob, seen


def assert_rows_are_powers(frob, ctx, n, p):
    for i in range(n):
        zi = np.zeros(i + 1, dtype=np.int64)
        zi[i] = 1
        row = modp.trim(frob.q[i].astype(np.int64))
        assert row.tolist() == ctx.powmod(zi, p).tolist(), i


class TestFrobeniusMap:
    @pytest.mark.parametrize("p, n", [(3, 1), (3, 17), (101, 64), (10007, 45)])
    def test_rows_are_powers_of_z(self, p, n):
        rng = np.random.default_rng(p + n)
        f = rng.integers(0, p, n + 1).astype(np.int64)
        f[-1] = 1
        ctx = modp.ModulusContext(f, p)
        frob = modp.FrobeniusMap(ctx)
        assert frob.q.shape == (n, n) and frob.q.dtype == frobenius_dtype(n, p)
        assert frob.q.flags.c_contiguous
        assert_rows_are_powers(frob, ctx, n, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 33])
    @pytest.mark.parametrize("p", [3, 101])
    def test_last_row_of_each_level(self, p, n):
        # the last row of a full level is the next level's multiplier; at
        # these sizes a level ends on row n - 1 or stops short of a full one
        rng = np.random.default_rng(7 * n + p)
        f = rng.integers(0, p, n + 1).astype(np.int64)
        f[-1] = 1
        ctx = modp.ModulusContext(f, p)
        assert_rows_are_powers(modp.FrobeniusMap(ctx), ctx, n, p)

    @pytest.mark.parametrize("n, rows, k, batches", [
        pytest.param(9, 3, 4, [1, 2, 3, 1], id="9-3-4"),
        pytest.param(17, 3, 4, [1, 2, 3, 1, 3, 3, 2], id="17-3-4"),
        pytest.param(33, 7, 8, [1, 2, 4, 7, 1, 7, 7, 2], id="33-7-8"),
        pytest.param(33, 5, 16, [1, 2, 4, 5, 3, 5, 5, 5, 1], id="33-5-16"),
    ])
    def test_batch_boundary_on_the_multiplier_row(self, monkeypatch,
                                                  n, rows, k, batches):
        # level k computes rows [k + 1, 2k] in batches of `rows` rows from
        # k + 1 on; here the last batch holds row 2k = x^(2k) alone, which
        # the next level multiplies by (n = 17, 33) or which ends Q
        assert (k - 1) % rows == 0 and 2 * k <= n - 1
        rng = np.random.default_rng(n)
        p = 101
        f = rng.integers(0, p, n + 1).astype(np.int64)
        f[-1] = 1
        ctx = modp.ModulusContext(f, p)
        whole = modp.FrobeniusMap(ctx).q
        # a batch holds _BATCH_COEFFS >> bit_length(2n - 2) rows
        monkeypatch.setattr(modp, "_BATCH_COEFFS",
                            rows << (2 * n - 2).bit_length())
        split, seen = build_with_batches(monkeypatch, ctx)
        assert seen == batches
        assert np.array_equal(split.q, whole)
        assert_rows_are_powers(split, ctx, n, p)

    @pytest.mark.parametrize("p, n, dtype", [
        (46_337, 1, np.int32),   # 46336^2 < 2^31
        (46_337, 2, np.int64),   # 2 * 46336^2 >= 2^31
        (46_349, 1, np.int64),   # 46348^2 >= 2^31
        (32_749, 2, np.int32),   # 2 * 32748^2 < 2^31
        (32_749, 3, np.int64),   # 3 * 32748^2 >= 2^31
    ])
    def test_dtype_rule_at_its_edge(self, p, n, dtype):
        assert frobenius_dtype(n, p) == dtype
        rng = np.random.default_rng(p + n)
        f = rng.integers(0, p, n + 1).astype(np.int64)
        f[-1] = 1
        ctx = modp.ModulusContext(f, p)
        frob = modp.FrobeniusMap(ctx)
        assert frob.q.dtype == dtype
        assert_rows_are_powers(frob, ctx, n, p)
        for h in ([p - 1] * n, rng.integers(0, p, n).tolist()):
            h = modp.trim(np.array(h, dtype=np.int64))
            step = frob(h)
            assert step.dtype == np.int64
            assert step.tolist() == ctx.powmod(h, p).tolist()

    def test_split_batches_give_the_same_matrix(self, monkeypatch):
        # above 2**18 coefficients a doubling is split into row batches;
        # shrink the cap so that a small degree takes the same path
        rng = np.random.default_rng(11)
        p, n = 101, 50
        f = rng.integers(0, p, n + 1).astype(np.int64)
        f[-1] = 1
        ctx = modp.ModulusContext(f, p)
        whole = modp.FrobeniusMap(ctx).q
        monkeypatch.setattr(modp, "_BATCH_COEFFS",
                            3 << (2 * n - 2).bit_length())
        split, seen = build_with_batches(monkeypatch, ctx)
        assert max(seen) == 3 and seen.count(3) > 1
        assert np.array_equal(split.q, whole)

    def test_batches_are_sized_by_transform_length(self, monkeypatch):
        # at n = 600 a row's product is transformed at 2048 points, so a
        # batch holds 128 rows and the levels from k = 128 on are split
        rng = np.random.default_rng(12)
        p, n = 101, 600
        f = rng.integers(0, p, n + 1).astype(np.int64)
        f[-1] = 1
        ctx = modp.ModulusContext(f, p)
        ctx.powmod(np.array([0, 1], dtype=np.int64), p)  # Newton inverse
        batches = []
        mul = modp.mul

        def spy(a, b, prime):
            if a.ndim == 2:
                length = 1 << (a.shape[-1] + b.shape[-1] - 2).bit_length()
                batches.append((len(a), length))
            return mul(a, b, prime)

        monkeypatch.setattr(modp, "mul", spy)
        frob = modp.FrobeniusMap(ctx)
        monkeypatch.undo()
        assert max(rows * length for rows, length in batches) <= 2 ** 18
        assert max(rows for rows, _ in batches) == 128
        monkeypatch.setattr(modp, "_BATCH_COEFFS", 2 ** 40)
        assert np.array_equal(modp.FrobeniusMap(ctx).q, frob.q)
        for i in (0, 1, 255, 256, 511, 512, 599):
            zi = np.zeros(i + 1, dtype=np.int64)
            zi[i] = 1
            row = modp.trim(frob.q[i].astype(np.int64))
            assert row.tolist() == ctx.powmod(zi, p).tolist(), i

    @pytest.mark.parametrize("p", [5, 101, 65_521])
    def test_step_is_powmod(self, p):
        rng = np.random.default_rng(p)
        for n in (2, 9, 40, 131):
            f = rand_poly(rng, p, n, monic=True)
            if len(f) < 2:
                continue
            ctx = modp.ModulusContext(f, p)
            frob = modp.FrobeniusMap(ctx)
            for _ in range(3):
                h = modp.trim(rng.integers(0, p, len(f) - 1).astype(np.int64))
                assert frob(h).tolist() == ctx.powmod(h, p).tolist()

    def test_overflow_guard(self):
        # a step sums n products below (p - 1)^2 in int64: at p = 2^31 - 1
        # that is exact for n = 2 and rejected from n = 3 on
        p = 2_147_483_647
        assert 2 * (p - 1) ** 2 < 2 ** 63 <= 3 * (p - 1) ** 2
        ctx = modp.ModulusContext(np.array([3, 5, 1], dtype=np.int64), p)
        frob = modp.FrobeniusMap(ctx)
        h = np.array([p - 1, p - 1], dtype=np.int64)
        assert frob(h).tolist() == ctx.powmod(h, p).tolist()
        with pytest.raises(ValueError):
            modp.FrobeniusMap(modp.ModulusContext(
                np.array([3, 5, 7, 1], dtype=np.int64), p))
