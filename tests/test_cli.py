import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import numpy as np

from goldpoly import arith, cli, factor, goldbach, modp, poly, roots
from goldpoly.poly import IntPolynomial, cyclotomic

from oracles import (
    coefficient_csv_by_join,
    cyclotomic_by_division,
    goldbach_count,
    goldbach_polynomial_by_pairs,
    product,
    stable_coefficient_table_by_divisor_sweep,
)
from reference_fixtures import from_text, quotient_polynomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(got: str, want: str, window: int = 40) -> None:
    """got == want; on a mismatch, report both lengths and the first
    differing offset with a short window of each text, not pytest's diff of
    the whole strings, which takes minutes at a megabyte."""
    if got == want:
        return
    at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo = max(0, at - window)
    pytest.fail(f"texts differ: lengths {len(got)} and {len(want)}, first "
                f"difference at offset {at}: got {got[lo:at + window]!r}, "
                f"want {want[lo:at + window]!r}", pytrace=False)


class TestConstruct:
    def test_quotient_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "construct", "6", "--quotient", "2N")
        assert code == 0
        assert from_text(out.strip()) == quotient_polynomial((6, "2N"))

    def test_odd_quotient_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "construct", "7", "--quotient", "N,2N")
        assert code == 0
        assert from_text(out.strip()) == quotient_polynomial((7, "N,2N"))

    def test_odd_half_quotient_where_phi_n_divides(self, capsys, small_table):
        # R(4) = 0, so Phi_4 | F_4 and the quotient is exact
        code, out, _ = run(capsys, "construct", "4", "--quotient", "N,2N")
        assert code == 0
        F4 = goldbach.goldbach_polynomial(4, small_table)
        assert product(from_text(out.strip()), cyclotomic(4),
                       cyclotomic(8)) == F4

    def test_quotient_is_the_goldbach_cofactor(self, capsys, small_table):
        # F_N / Phi_2N for even N and F_N / (Phi_N Phi_2N) for odd N are
        # both g_N / Phi_N composed with z**2, the cofactor of the table1
        # and irreducible sweeps; the command divides the full-degree F_N
        # by the same routine as the cofactor, which also covers N <= 5
        # and gives R(N) > 0 its usage error
        for N in range(6, 21):
            quotient = "2N" if N % 2 == 0 else "N,2N"
            code, out, _ = run(capsys, "construct", str(N), "--quotient",
                               quotient)
            cofactor = goldbach.goldbach_cofactor(N, small_table)
            assert (code, out) == (0, poly.to_text(cofactor.compose_square())
                                   + "\n"), N

    def test_quotients_match_full_degree_long_division(self, capsys):
        # both shapes for N = 2..60 against F_N divided by the divisor-chain
        # Phi_2N and Phi_N with divrem_exact; where Phi_N leaves a
        # remainder (R(N) > 0), N,2N is a usage error with this message
        for N in range(2, 61):
            F = goldbach_polynomial_by_pairs(N, arith.PrimeTable(max(16, N)))
            warn = self._zero_warning(N, F)
            half, rem = poly.divrem_exact(F, cyclotomic_by_division(2 * N))
            assert rem.is_zero, N
            assert run(capsys, "construct", str(N), "--quotient", "2N") == \
                (0, poly.to_text(half) + "\n", warn), N
            quotient, rem = poly.divrem_exact(half, cyclotomic_by_division(N))
            got = run(capsys, "construct", str(N), "--quotient", "N,2N")
            if rem.is_zero:
                assert got == (0, poly.to_text(quotient) + "\n", warn), N
            else:
                assert got == (2, "", warn + (
                    f"usage error: Phi_{N} does not divide F_{N}: {N} is a "
                    f"sum of two odd primes (R({N}) > 0); use --quotient "
                    f"2N\n")), N

    def test_liouville_output_and_quotient_usage_error(self, capsys):
        for N in range(2, 61):
            table = arith.PrimeTable(max(16, N))
            F = goldbach_polynomial_by_pairs(
                N, goldbach.IndicatorSet.liouville_negative(table.limit, table))
            warn = self._zero_warning(N, F)
            assert run(capsys, "construct", str(N), "--indicator",
                       "liouville") == (0, poly.to_text(F) + "\n", warn), N
            for quotient in ("2N", "N,2N"):
                assert run(capsys, "construct", str(N), "--indicator",
                           "liouville", "--quotient", quotient) == (
                    2, "", warn + "usage error: --quotient applies to the "
                    "odd-prime indicator only\n"), (N, quotient)

    @staticmethod
    def _zero_warning(N: int, F: IntPolynomial) -> str:
        return (f"warning: F_{N} is the zero polynomial (indicator support "
                f"below {N} is empty)\n" if F.is_zero else "")

    def test_command_path_runs_no_long_division(self, capsys, small_table,
                                                monkeypatch):
        # the cofactor and both quotient shapes divide by Phi_M through
        # poly.cyclotomic_quotient_or_none alone
        def refuse(a, b):
            raise AssertionError("long division on the command path")

        monkeypatch.setattr(poly, "_long_divide", refuse)
        for N in range(6, 41):
            assert not goldbach.goldbach_cofactor(N, small_table).is_zero
        for N in range(2, 31):
            code, out, _ = run(capsys, "construct", str(N), "--quotient", "2N")
            assert code == 0 and out, N
            exact = goldbach_count(N, small_table) == 0
            code, out, _ = run(capsys, "construct", str(N), "--quotient",
                               "N,2N")
            assert (code, bool(out)) == ((0, True) if exact else (2, False)), N

    def test_inexact_phi_2n_quotient_is_a_theorem_violation(self, capsys,
                                                            monkeypatch):
        # F_6 + 1 leaves remainder 1 mod Phi_12: the one error format, exit 1
        build = goldbach.goldbach_polynomial

        def shifted(N, source):
            F = build(N, source)
            return IntPolynomial((F[0] + 1,) + F.coeffs[1:])

        monkeypatch.setattr(goldbach, "goldbach_polynomial", shifted)
        code, out, err = run(capsys, "construct", "6", "--quotient", "2N")
        assert (code, out) == (1, "")
        assert err == "error: TheoremViolation: Phi_12 does not divide F_6\n"

    def test_phi_n_quotient_of_a_goldbach_n_is_usage_error(self, capsys):
        # 10 = 3 + 7, so Phi_10 does not divide F_10 (theorem (b)): asking
        # for that quotient is a usage error, not a failed theorem
        code, out, err = run(capsys, "construct", "10", "--quotient", "N,2N")
        assert code == 2
        assert out == ""
        assert "Phi_10 does not divide F_10" in err

    def test_zero_polynomial_warns(self, capsys):
        code, out, err = run(capsys, "construct", "2")
        assert code == 0
        assert out.strip() == "0"
        assert "zero polynomial" in err

    def test_rejects_n_below_two(self, capsys):
        code, _, err = run(capsys, "construct", "1")
        assert code == 2
        assert "usage error" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "construct", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["object"] == "F_6"
        assert payload["coefficients"].split()[0] == "4"


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "12")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["holds"] for r in reports)
        assert {r["theorem_id"] for r in reports} == {
            "divisibility", "even_symmetry", "root_of_unity_bounds"}

    def test_includes_n4_edge(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "4", "--format", "csv")
        assert code == 0
        assert "4,divisibility,True" in out

    def test_malformed_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--n-max", "notanumber")
        assert code == 2

    def test_builds_one_pair_sum_array_per_n(self, capsys, monkeypatch):
        calls = Counter()
        pair_sums = goldbach.pair_sums

        def counted(N, source):
            calls[N] += 1
            return pair_sums(N, source)

        spread = goldbach.exponent_spread

        def folded_only(N, pairs, period=None):
            if period != 2 * N:
                raise AssertionError("verify builds F_N's coefficients")
            return spread(N, pairs, period)

        monkeypatch.setattr(goldbach, "pair_sums", counted)
        monkeypatch.setattr(goldbach, "exponent_spread", folded_only)
        code, _, _ = run(capsys, "verify", "--n-max", "12")
        assert code == 0
        assert calls == Counter(range(2, 13))

    def test_computes_each_remainder_and_pair_count_once(self, capsys,
                                                         monkeypatch):
        calls = Counter()
        fold, count = goldbach.remainder_mod_cyclotomic, arith.goldbach_count_table

        def counted_fold(a, M, bound=None):
            calls["fold"] += 1
            return fold(a, M, bound)

        def counted_count(limit, table):
            calls["count"] += 1
            return count(limit, table)

        monkeypatch.setattr(goldbach, "remainder_mod_cyclotomic", counted_fold)
        monkeypatch.setattr(arith, "goldbach_count_table", counted_count)
        code, _, _ = run(capsys, "verify", "--n-max", "12")
        assert code == 0
        # one remainder per M | N and one for M = 2N, for N = 2..12; the
        # pair counts come from the pair sums, with no separate table
        assert calls["fold"] == 45
        assert calls["count"] == 0

    def test_jobs_equivalence(self, capsys):
        _, out1, _ = run(capsys, "verify", "--n-max", "20", "--jobs", "1")
        _, out2, _ = run(capsys, "verify", "--n-max", "20", "--jobs", "2")
        assert out1 == out2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_to_120_matches_benchmark_reference(self, capsys, jobs):
        # the benchmark's recorded `verify --n-max 120` output, read only
        reference = json.loads((Path(__file__).resolve().parents[1]
                                / "perfbench" / "reference.json").read_text())
        ref = reference["theorems"][0]
        assert ref["argv"] == ["verify", "--n-max", "120"]
        code, out, _ = run(capsys, *ref["argv"], "--jobs", jobs)
        assert code == 0
        assert out.splitlines() == ref["lines"]


class TestTable1:
    def test_rows_match_reference(self, capsys):
        code, out, _ = run(capsys, "table1", "--n-max", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,two_phi_N,inside,on,outside,undetermined"
        assert lines[1] == "6,4,16,4,30,0"
        assert lines[2] == "7,12,4,12,44,0"
        assert lines[3] == "8,8,24,8,66,0"
        assert not any(line.startswith("5,") for line in lines)

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "table1", "--n-max", "7", "--seed", "3")
        _, out2, _ = run(capsys, "table1", "--n-max", "7", "--seed", "3")
        assert out1 == out2

    def test_jobs_equivalence(self, capsys):
        _, out1, _ = run(capsys, "table1", "--n-max", "9", "--jobs", "1")
        _, out2, _ = run(capsys, "table1", "--n-max", "9", "--jobs", "2")
        assert out1 == out2

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rows_match_benchmark_reference(self, capsys, jobs, seed):
        # the benchmark's recorded `table1 --n-max 24` output, read only
        reference = json.loads((Path(__file__).resolve().parents[1]
                                / "perfbench" / "reference.json").read_text())
        ref = reference["roots"][0]
        assert ref["argv"] == ["table1", "--n-max", "24"]
        code, out, _ = run(capsys, *ref["argv"], "--jobs", jobs,
                           "--seed", seed)
        assert code == 0
        assert out.splitlines() == ref["lines"]

    def test_rejects_tiny_n_max(self, capsys):
        code, _, _ = run(capsys, "table1", "--n-max", "5")
        assert code == 2

    def test_pool_has_one_worker_per_item_at_most(self, capsys, monkeypatch):
        # one row with --jobs 3 builds a pool of one worker, with the same
        # stdout as --jobs 1
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        code, out_pool, _ = run(capsys, "table1", "--n-max", "6", "--jobs", "3")
        assert code == 0 and workers == [1]
        code, out_serial, _ = run(capsys, "table1", "--n-max", "6",
                                  "--jobs", "1")
        assert code == 0 and workers == [1]
        assert out_pool == out_serial

    def test_pool_has_one_worker_per_core_at_most(self, capsys, monkeypatch):
        # three rows and --jobs 2 on a one-core host start one worker
        workers = []
        process_pool = concurrent.futures.ProcessPoolExecutor

        class CountingPool(process_pool):
            def map(self, fn, *iterables, **kwargs):
                results = list(super().map(fn, *iterables, **kwargs))
                workers.append(len(self._processes))
                return results

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code, out_pool, _ = run(capsys, "table1", "--n-max", "8", "--jobs", "2")
        assert code == 0 and workers == [1]
        code, out_serial, _ = run(capsys, "table1", "--n-max", "8")
        assert code == 0 and out_pool == out_serial

    def test_count_mismatch_exits_1(self, capsys, monkeypatch):
        # a classification with one root moved off the circle contradicts
        # the 2 phi(N) count; stdout still prints the row as classified
        classify = roots.classify_roots

        def off_by_one(N, table, **kwargs):
            rc = classify(N, table, **kwargs)
            if N == 7:
                rc = dataclasses.replace(rc, on_circle=rc.on_circle - 1,
                                         outside=rc.outside + 1)
            return rc

        monkeypatch.setattr(roots, "classify_roots", off_by_one)
        code, out, _ = run(capsys, "table1", "--n-max", "8")
        assert code == 1
        assert out.strip().splitlines()[2] == "7,12,4,11,45,0"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unconverged_solve_leaves_rows_undetermined(self, capsys,
                                                        monkeypatch, jobs):
        # forced onto the fallback solve and stopped after one sweep, long
        # before any point converges, table1 still prints every row, with
        # undetermined roots and nothing on stderr; --strict alone turns
        # them into exit 3.  The patch reaches the pool workers only by fork
        if jobs != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers do not inherit the patched solver")
        monkeypatch.setattr(roots, "_winding_count", lambda q: None)
        monkeypatch.setattr(roots, "_MAX_ITER", 1)
        monkeypatch.setattr(roots, "_TOL", 1e-30)
        argv = ("table1", "--n-max", "8", "--jobs", jobs)
        code, out, err = run(capsys, *argv, "--seed", "0")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["6", "7", "8"]
        assert all(int(row[5]) > 0 for row in rows)
        assert run(capsys, *argv, "--strict") == (3, out, "")
        # the seed does not reach the solve: stopped after 1, 3 or 6
        # sweeps, the solve decides the rows, and at 6 a seed-dependent
        # start would leave different roots undetermined
        assert run(capsys, *argv, "--seed", "5") == (0, out, "")
        for sweeps in (3, 6):
            monkeypatch.setattr(roots, "_MAX_ITER", sweeps)
            code, out, err = run(capsys, *argv, "--seed", "0")
            assert run(capsys, *argv, "--seed", "5") == (code, out, err)

    def test_common_path_counts_without_solving(self, capsys, monkeypatch):
        # the argument-principle count proves every row of g_N / Phi_N to
        # N = 24, so neither the strip nor the solver runs: no strip, no
        # gcd, no solve, no disc count, the cofactor is built once per N,
        # and --seed moves no byte
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(roots, "aberth_solve")
        count(roots, "_count_sides")
        count(roots, "strip_unit_circle_part")
        count(roots, "gcd_rational")
        count(poly, "gcd_rational")
        count(roots, "goldbach_cofactor")
        outs = set()
        for seed in range(4):
            code, out, _ = run(capsys, "table1", "--n-max", "24",
                               "--seed", str(seed))
            assert code == 0
            outs.add(out)
        assert calls == {"goldbach_cofactor": 4 * 19}
        assert len(outs) == 1


class TestFailureExits:
    """An error raised at one N exits with its documented code and one
    stderr line naming that N, never a traceback, in the process or from a
    pool worker; stdout keeps the records of every N before it."""

    SWEEPS = [("verify", goldbach, "theorem_reports"),
              ("table1", roots, "classify_roots"),
              ("irreducible", factor, "certify_goldbach_quotient")]

    @staticmethod
    def fail_at_7(capsys, monkeypatch, jobs, command, module, name, error):
        """(exit code, stderr lines) of ``command --n-max 9`` with
        module.name raising ``error`` at N = 7; stdout must be that of
        ``--n-max 6``, the header and the records for N < 7."""
        # the patch reaches the pool workers only by fork
        if jobs != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers do not inherit the patched function")
        code, before, _ = run(capsys, command, "--n-max", "6")
        assert code == 0
        fn = getattr(module, name)

        def fail(N, *args, **kwargs):
            if N == 7:
                raise error
            return fn(N, *args, **kwargs)

        monkeypatch.setattr(module, name, fail)
        code, out, err = run(capsys, command, "--n-max", "9", "--jobs", jobs)
        assert out == before
        return code, err.splitlines()

    @pytest.mark.parametrize("command, module, name", SWEEPS,
                             ids=[sweep[0] for sweep in SWEEPS])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_theorem_violation_exits_1(self, capsys, monkeypatch, jobs,
                                       command, module, name):
        error = goldbach.TheoremViolation("Phi_7 does not divide g_7")
        assert self.fail_at_7(capsys, monkeypatch, jobs, command, module,
                              name, error) == (1, [
            "error: N=7: TheoremViolation: Phi_7 does not divide g_7"])

    @pytest.mark.parametrize("command, module, name", SWEEPS,
                             ids=[sweep[0] for sweep in SWEEPS])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_other_error_exits_3(self, capsys, monkeypatch, jobs, command,
                                 module, name):
        # raised, never allocated: a MemoryError stands for any exception
        # that is neither a usage error nor a theorem violation
        error = MemoryError("forced failure")
        assert self.fail_at_7(capsys, monkeypatch, jobs, command, module,
                              name, error) == (3, [
            "error: N=7: MemoryError: forced failure"])


class TestSummatory:
    def test_identity_and_fields(self, capsys):
        code, out, _ = run(capsys, "summatory", "--M", "500")
        assert code == 0
        payload = json.loads(out)
        assert payload["identity_ok"] is True
        assert payload["A"] == payload["A_via_pairs"]


class TestCoeffs:
    def test_stream_and_odd_zeros(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--m-max", "60")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,a"
        values = {int(l.split(",")[0]): int(l.split(",")[1]) for l in lines[1:]}
        assert len(values) == 60
        assert all(values[m] == 0 for m in range(1, 61, 2))
        assert values[6] == 1 and values[30] == 10

    @pytest.mark.parametrize("m_max", [1, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1,
                                       3 * 2 ** 14 + 5])
    def test_csv_blocks_match_joined_text(self, capsys, table, m_max):
        code, out, _ = run(capsys, "coeffs", "--m-max", str(m_max))
        assert code == 0
        expected = stable_coefficient_table_by_divisor_sweep(m_max, table)
        assert_same_text(out, coefficient_csv_by_join(expected))

    @pytest.mark.parametrize("m_max", [1, 2000, 2 ** 14 - 1, 2 ** 14,
                                       2 ** 14 + 1, 3 * 2 ** 14 + 5])
    def test_json_format(self, capsys, table, m_max):
        code, out, _ = run(capsys, "coeffs", "--m-max", str(m_max),
                           "--format", "json")
        assert code == 0
        expected = stable_coefficient_table_by_divisor_sweep(m_max, table)
        assert_same_text(out, json.dumps({"m_max": m_max,
                                          "a": expected[1:].tolist()}) + "\n")

    def test_matches_benchmark_reference(self, capsys):
        # the benchmark's recorded `coeffs` workload output, read only:
        # the CSV by its digest, the JSON lines field by field, floats to
        # the benchmark's relative 1e-9
        reference = json.loads((Path(__file__).resolve().parents[1]
                                / "perfbench" / "reference.json").read_text())
        csv_ref, summatory_ref, hl_ref = reference["coeffs"]
        assert csv_ref["argv"] == ["coeffs", "--m-max", "200000"]
        assert summatory_ref["argv"] == ["summatory", "--M", "50000"]
        assert hl_ref["argv"] == ["hl", "--m-max", "30000"]
        code, out, _ = run(capsys, *csv_ref["argv"])
        assert code == 0
        assert len(out.encode()) == csv_ref["bytes"]
        assert hashlib.sha256(out.encode()).hexdigest() == csv_ref["sha256"]
        for ref in (summatory_ref, hl_ref):
            code, out, _ = run(capsys, *ref["argv"])
            assert code == 0
            lines = out.splitlines()
            assert len(lines) == len(ref["lines"]) == 1
            got, want = json.loads(lines[0]), json.loads(ref["lines"][0])
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert type(got[key]) is type(value), key
                if isinstance(value, float):
                    assert math.isclose(got[key], value, rel_tol=1e-9,
                                        abs_tol=0.0), key
                else:
                    assert got[key] == value, key


def _joined(columns, seps):
    """The rows of ``cli._decimal_rows`` by f-strings of Python ints."""
    return "".join("".join(f"{v}{sep}" for v, sep in zip(row, seps))
                   for row in zip(*(c.tolist() for c in columns)))


class TestDecimalRows:
    EDGES = sorted({0, 9999, 10 ** 4, 10 ** 8 - 1, 10 ** 8 + 1, 2 ** 63 - 1}
                   | {10 ** (k - 1) for k in range(1, 20)}
                   | {10 ** k - 1 for k in range(1, 19)})

    def test_every_digit_width(self):
        col = np.array(self.EDGES, dtype=np.int64)
        assert {len(str(v)) for v in self.EDGES} == set(range(1, 20))
        assert cli._decimal_rows([col], ["\n"]) == "".join(
            f"{v}\n" for v in self.EDGES)

    @pytest.mark.parametrize("value", [0, 9999, 10 ** 4, 2 ** 63 - 1])
    def test_one_row_block(self, value):
        col = np.array([value], dtype=np.int64)
        assert cli._decimal_rows([col], ["\n"]) == f"{value}\n"
        assert (cli._decimal_rows([np.arange(7, 8), col], [",", "\n"])
                == f"7,{value}\n")

    @pytest.mark.parametrize("seps", [["\n"], [", "], [",", ",", "\n"]])
    def test_random_int64_columns(self, seps):
        rng = np.random.default_rng(len(seps) * 10 + len(seps[0]))
        n = 5000
        # every magnitude: full-range values shifted right by 0..62 bits
        columns = [rng.integers(0, 2 ** 63 - 1, n, dtype=np.int64,
                                endpoint=True)
                   >> rng.integers(0, 63, n) for _ in seps]
        columns[0][::97] = 0
        assert cli._decimal_rows(columns, seps) == _joined(columns, seps)

    @pytest.mark.parametrize("position", [0, 1])
    def test_negative_value_raises(self, position):
        columns = [np.arange(5, dtype=np.int64), np.arange(5, dtype=np.int64)]
        columns[position][3] = -12
        with pytest.raises(ValueError):
            cli._decimal_rows(columns, [",", "\n"])


class TestHl:
    def test_summary_shape(self, capsys):
        code, out, _ = run(capsys, "hl", "--m-min", "50", "--m-max", "200")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 151
        assert payload["median_ratio_low"] <= payload["median_ratio"]

    def test_m_max_beyond_exact_weights_is_usage_error(self, capsys,
                                                       monkeypatch):
        def no_sieve(limit):
            raise AssertionError(f"sieve of {limit} built before the guard")

        monkeypatch.setattr(cli, "PrimeTable", no_sieve)
        code, out, err = run(capsys, "hl", "--m-max", str(2 ** 26 + 1))
        assert code == 2
        assert out == ""
        assert "2^26" in err

    def test_sieve_limit_validation(self, capsys):
        # --m-max 200 reads pair counts up to 400
        code, out, err = run(capsys, "hl", "--m-min", "50", "--m-max", "200",
                             "--sieve-limit", "399")
        assert code == 2
        assert out == ""
        assert "sieve-limit" in err

    def test_sieve_limit_sets_the_twin_prime_product(self, capsys):
        # the product runs to the sieve limit: a longer one moves c2 and
        # tightens its tail bound
        argv = ["hl", "--m-min", "50", "--m-max", "200"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, out_long, _ = run(capsys, *argv, "--sieve-limit", "100000")
        assert code == 0
        short, long = json.loads(out), json.loads(out_long)
        assert long["c2"] != short["c2"]
        assert long["c2_tail_bound"] < short["c2_tail_bound"]
        assert long["count"] == short["count"]


class TestIrreducible:
    def test_certificates(self, capsys):
        code, out, _ = run(capsys, "irreducible", "--n-max", "8")
        assert code == 0
        certs = [json.loads(line) for line in out.strip().splitlines()]
        assert [c["N"] for c in certs] == [6, 7, 8]
        assert all(c["verdict"] == "Irreducible" for c in certs)
        assert not any("elapsed_ms" in c for c in certs)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_certificates_match_benchmark_reference(self, capsys, jobs):
        # the benchmark's recorded `irreducible --n-max 12` output, read
        # only.  The reference predates the half-degree certificates, so
        # its primes differ; the primes below are the first usable ones
        # at which the degree patterns of g mod p, together with the exact
        # screen that rules out factor degrees 1 and 2 of g, prove
        # irreducibility: facts about g that no change of algorithm may move.
        primes_used = {6: [101, 103, 107], 7: [101, 103],
                       8: [101, 103, 107, 109, 113], 9: [101, 103, 107, 109],
                       10: [101], 11: [101, 103],
                       12: [101, 103, 107, 109]}
        reference = json.loads((Path(__file__).resolve().parents[1]
                                / "perfbench" / "reference.json").read_text())
        ref = reference["certify"][0]
        assert ref["argv"] == ["irreducible", "--n-max", "12"]
        code, out, _ = run(capsys, *ref["argv"], "--jobs", jobs)
        assert code == 0
        got = [json.loads(line) for line in out.splitlines()]
        expected = [json.loads(line) for line in ref["lines"]]
        assert len(got) == len(expected)
        for row, ref_row in zip(got, expected):
            assert row.pop("primes_used") == primes_used[row["N"]]
            # the reference was recorded when stdout still carried a time
            for key in ("elapsed_ms", "primes_used"):
                ref_row.pop(key)
            assert row == ref_row

    @pytest.mark.parametrize("max_primes", ["0", "-3"])
    def test_max_primes_below_one_is_usage_error(self, capsys, max_primes):
        code, out, err = run(capsys, "irreducible", "--n-max", "6",
                             "--max-primes", max_primes)
        assert code == 2
        assert out == ""
        assert "--max-primes" in err

    def test_deterministic_modulo_timing(self, capsys):
        # stdout carries no timing, so whole outputs compare equal
        _, out1, _ = run(capsys, "irreducible", "--n-max", "8")
        _, out2, _ = run(capsys, "irreducible", "--n-max", "8")
        _, out_pool, _ = run(capsys, "irreducible", "--n-max", "8",
                             "--jobs", "2")
        assert out1 != ""
        assert out1 == out2 == out_pool

    def test_factors_only_half_degree_polynomials(self, capsys, monkeypatch):
        # each quotient q(z) = g(z^2) is certified from the DDF of g
        seen = Counter()
        ddf = factor.distinct_degree_pattern

        def counted(fp, p, stop):
            seen[len(fp) - 1] += 1
            return ddf(fp, p, stop)

        monkeypatch.setattr(factor, "distinct_degree_pattern", counted)
        code, out, _ = run(capsys, "irreducible", "--n-max", "12")
        assert code == 0
        degrees = [json.loads(line)["degree"] for line in out.splitlines()]
        assert set(seen) == {d // 2 for d in degrees}

    def test_one_powmod_per_ddf(self, capsys, monkeypatch):
        # the Frobenius step is a matrix product: the only powmod of a DDF
        # is the one that builds the matrix
        calls = Counter()
        ddf = factor.distinct_degree_pattern
        powmod = modp.ModulusContext.powmod

        def counted_ddf(fp, p, stop):
            calls["ddf"] += 1
            return ddf(fp, p, stop)

        def counted_powmod(self, h, e):
            calls["powmod"] += 1
            return powmod(self, h, e)

        monkeypatch.setattr(factor, "distinct_degree_pattern", counted_ddf)
        monkeypatch.setattr(modp.ModulusContext, "powmod", counted_powmod)
        code, _, _ = run(capsys, "irreducible", "--n-max", "12")
        assert code == 0
        assert calls["ddf"] > 0
        assert calls["powmod"] == calls["ddf"]

    def test_mul_operands_lie_in_the_field(self, capsys, monkeypatch):
        # modp.mul bounds its operands by p - 1 without scanning them, so
        # every caller must hand it entries in [0, p)
        mul = modp.mul
        seen = Counter()

        def checked(a, b, p, **kw):
            for x in (a, b):
                assert x.size == 0 or (x.min() >= 0 and x.max() < p)
            seen[p] += 1
            return mul(a, b, p, **kw)

        monkeypatch.setattr(modp, "mul", checked)
        code, _, _ = run(capsys, "irreducible", "--n-max", "12")
        assert code == 0
        assert sum(seen.values()) > 1000 and min(seen) >= 101


class TestIndicatorFlag:
    def test_liouville_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "8", "--indicator", "liouville")
        assert code == 0
        got = from_text(out.strip())
        from goldpoly import arith
        from goldpoly.goldbach import IndicatorSet, goldbach_polynomial
        table = arith.PrimeTable(16)
        expected = goldbach_polynomial(
            8, IndicatorSet.liouville_negative(16, table))
        assert got == expected

    def test_quotient_rejected_for_liouville(self, capsys):
        code, _, err = run(capsys, "construct", "8", "--indicator", "liouville",
                           "--quotient", "2N")
        assert code == 2
        assert "odd-prime" in err


# a small valid run of each subcommand
ONE_RUN_PER_COMMAND = [
    ["construct", "6"],
    ["verify", "--n-max", "8"],
    ["table1", "--n-max", "6"],
    ["coeffs", "--m-max", "10"],
    ["summatory", "--M", "16"],
    ["hl", "--m-max", "100"],
    ["irreducible", "--n-max", "6"],
]


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["definitely-not-a-command"]) == 2

    @pytest.mark.parametrize("argv", [
        ["table1", "--indicator", "liouville"],
        ["summatory", "--format", "json"],
        ["coeffs", "--long"],
        ["construct", "6", "--strict"],
        ["verify", "--indicator", "liouville"],
        *[argv + ["--sieve-limit", "100"] for argv in ONE_RUN_PER_COMMAND
          if argv[0] != "hl"],
    ])
    def test_flag_the_command_ignores_is_usage_error(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("argv", ONE_RUN_PER_COMMAND,
                             ids=lambda argv: argv[0])
    def test_jobs_below_one_is_usage_error(self, capsys, argv, jobs):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("argv", ONE_RUN_PER_COMMAND,
                             ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("command, first", [
        ("verify", 2), ("table1", 6), ("irreducible", 6)])
    def test_sweep_starts_at_its_first_n(self, capsys, command, first):
        # below the first N the sweep is a usage error that prints nothing;
        # at it, the sweep prints the record of that one N
        code, out, err = run(capsys, command, "--n-max", str(first - 1))
        assert code == 2 and out == "" and f">= {first}" in err
        code, out, _ = run(capsys, command, "--n-max", str(first))
        assert code == 0
        lines = out.splitlines()
        if command == "table1":
            assert lines[0].startswith("N,") and len(lines) == 2
            assert lines[1].split(",")[0] == str(first)
        elif command == "irreducible":
            assert [json.loads(line)["N"] for line in lines] == [first]
        else:
            got = [json.loads(line)["N"] for line in lines]
            assert got == [first] * len(
                goldbach.theorem_reports(first, arith.PrimeTable(16)))

    def test_max_primes_is_checked_before_the_sweep(self, capsys):
        # at the default --n-max as well, no record is printed
        code, out, err = run(capsys, "irreducible", "--max-primes", "0")
        assert code == 2 and out == "" and "--max-primes" in err

    def test_version_flag_exits_cleanly(self, capsys):
        assert cli.main(["--version"]) == 0


class TestImports:
    ROOT = Path(__file__).resolve().parents[1]

    def test_cli_import_loads_no_mpmath_and_no_process_pool(self):
        # a fresh interpreter: nothing the test process imported counts
        probe = ("import sys, goldpoly.cli; "
                 "print(sorted({'mpmath', 'concurrent.futures.process'} "
                 "& set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", probe],
                              env={"PYTHONPATH": str(self.ROOT / "src")},
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_benchmark_commands_load_no_numpy_ma(self):
        # numpy.ma costs about as much as hl's arithmetic at m-max 30000;
        # compared against the modules after the import, since numpy 1.x
        # loads numpy.ma with numpy itself
        probe = """if True:
            import contextlib, io, sys
            from goldpoly import cli
            before = set(sys.modules)
            for argv in (["irreducible", "--n-max", "8"],
                         ["table1", "--n-max", "8"],
                         ["verify", "--n-max", "10"],
                         ["coeffs", "--m-max", "1000"],
                         ["summatory", "--M", "100"],
                         ["hl", "--m-max", "1000"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
                added = set(sys.modules) - before
                print(argv[0], sorted(m for m in added if m == "numpy.ma"
                                      or m.startswith("numpy.ma.")))
            """
        done = subprocess.run([sys.executable, "-c", probe],
                              env={"PYTHONPATH": str(self.ROOT / "src")},
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines() == [
            f"{command} []" for command in
            ("irreducible", "table1", "verify", "coeffs", "summatory", "hl")]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="counts threads in /proc/self/task (Linux)")
    @pytest.mark.parametrize("given, kept", [(None, "1"), ("2", "2")])
    def test_cli_import_starts_no_blas_thread(self, given, kept):
        # numpy's OpenBLAS starts a spinning worker thread unless told not
        # to; goldpoly sets the default before numpy loads, and a value
        # already in the environment wins
        probe = ("import os, goldpoly.cli; "
                 "print(len(os.listdir('/proc/self/task')), "
                 "os.environ['OPENBLAS_NUM_THREADS'])")
        env = {"PYTHONPATH": str(self.ROOT / "src")}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        threads, value = done.stdout.split()
        assert value == kept
        if given is None:
            assert threads == "1"

    def test_numpy_is_the_only_dependency(self):
        text = (self.ROOT / "pyproject.toml").read_text()
        block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M)
        assert re.findall(r'"([^"]*)"', block.group(1)) == ["numpy>=1.24"]
