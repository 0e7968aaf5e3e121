import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from goldpoly import arith, cli, factor, goldbach, modp, roots
from goldpoly.poly import cyclotomic, multiply
from oracles import (
    coefficient_csv_by_join,
    stable_coefficient_table_by_divisor_sweep,
)
from reference_fixtures import from_text, quotient_polynomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert multiply(from_text(out.strip()),
                        multiply(cyclotomic(4), cyclotomic(8))) == F4

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

        def forbidden(N, source):
            raise AssertionError("verify builds F_N's coefficients")

        monkeypatch.setattr(goldbach, "pair_sums", counted)
        monkeypatch.setattr(goldbach, "goldbach_coefficients", forbidden)
        code, _, _ = run(capsys, "verify", "--n-max", "12")
        assert code == 0
        assert calls == Counter(range(2, 13))

    def test_computes_each_remainder_and_pair_count_once(self, capsys,
                                                         monkeypatch):
        calls = Counter()
        fold, count = goldbach.remainder_mod_cyclotomic, arith.goldbach_count_table

        def counted_fold(a, M):
            calls["fold"] += 1
            return fold(a, M)

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
    def test_solver_failure_exits_3(self, capsys, monkeypatch, jobs):
        # the patched solver reaches the pool workers only by fork; the
        # error has to cross back to the parent intact
        if jobs != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers do not inherit the patched solver")

        def fail(p, *args, **kwargs):
            raise roots.SolverError("forced failure", iterations=1,
                                    max_correction=1.0, max_residual=1.0)

        monkeypatch.setattr(roots, "aberth_solve", fail)
        code, _, err = run(capsys, "table1", "--n-max", "7", "--jobs", jobs)
        assert code == 3
        assert any(line.startswith("error: forced failure")
                   for line in err.splitlines())


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
        assert out == coefficient_csv_by_join(expected)

    def test_json_format(self, capsys, table):
        code, out, _ = run(capsys, "coeffs", "--m-max", "2000",
                           "--format", "json")
        assert code == 0
        expected = stable_coefficient_table_by_divisor_sweep(2000, table)
        assert out == json.dumps({"m_max": 2000,
                                  "a": expected[1:].tolist()}) + "\n"


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
        # at which the degree patterns of g mod p prove irreducibility,
        # facts about g that no change of algorithm may move.
        primes_used = {6: [101, 103, 107], 7: [101, 103, 107, 109],
                       8: [101, 103, 107, 109, 113], 9: [101, 103, 107, 109],
                       10: [101, 103, 107], 11: [101, 103, 107],
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

        def counted(fp, p):
            seen[len(fp) - 1] += 1
            return ddf(fp, p)

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

        def counted_ddf(fp, p):
            calls["ddf"] += 1
            return ddf(fp, p)

        def counted_powmod(self, h, e):
            calls["powmod"] += 1
            return powmod(self, h, e)

        monkeypatch.setattr(factor, "distinct_degree_pattern", counted_ddf)
        monkeypatch.setattr(modp.ModulusContext, "powmod", counted_powmod)
        code, _, _ = run(capsys, "irreducible", "--n-max", "12")
        assert code == 0
        assert calls["ddf"] > 0
        assert calls["powmod"] == calls["ddf"]


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

    def test_numpy_is_the_only_dependency(self):
        text = (self.ROOT / "pyproject.toml").read_text()
        block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M)
        assert re.findall(r'"([^"]*)"', block.group(1)) == ["numpy>=1.24"]
