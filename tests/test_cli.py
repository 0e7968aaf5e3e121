import json
import multiprocessing
from collections import Counter

import pytest

from goldpoly import arith, cli, factor, goldbach, roots
from goldpoly.poly import from_text

from reference_fixtures import quotient_polynomial


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

    def test_builds_each_polynomial_once(self, capsys, monkeypatch):
        built = Counter()
        construct = goldbach.goldbach_polynomial

        def counted(N, source):
            built[N] += 1
            return construct(N, source)

        monkeypatch.setattr(goldbach, "goldbach_polynomial", counted)
        code, _, _ = run(capsys, "verify", "--n-max", "12")
        assert code == 0
        assert built == Counter(range(2, 13))

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
        # one fold per M | N and one for M = 2N, one pair-count table per N,
        # for N = 2..12
        assert calls["fold"] == 45
        assert calls["count"] == 11

    def test_jobs_equivalence(self, capsys):
        _, out1, _ = run(capsys, "verify", "--n-max", "20", "--jobs", "1")
        _, out2, _ = run(capsys, "verify", "--n-max", "20", "--jobs", "2")
        assert out1 == out2

    def test_sieve_limit_needs_only_n_max(self, capsys):
        # every report reads primes and pair counts up to N only
        code, out, _ = run(capsys, "verify", "--n-max", "50")
        assert code == 0
        code, out_60, _ = run(capsys, "verify", "--n-max", "50",
                              "--sieve-limit", "60")
        assert code == 0
        assert out_60 == out
        code, out_40, err = run(capsys, "verify", "--n-max", "50",
                                "--sieve-limit", "40")
        assert code == 2
        assert out_40 == ""
        assert "sieve-limit" in err


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

    def test_rejects_tiny_n_max(self, capsys):
        code, _, _ = run(capsys, "table1", "--n-max", "5")
        assert code == 2

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

    def test_sieve_limit_validation(self, capsys):
        code, _, err = run(capsys, "summatory", "--M", "500",
                           "--sieve-limit", "100")
        assert code == 2
        assert "sieve-limit" in err


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


class TestHl:
    def test_summary_shape(self, capsys):
        code, out, _ = run(capsys, "hl", "--m-min", "50", "--m-max", "200")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 151
        assert payload["median_ratio_low"] <= payload["median_ratio"]


class TestIrreducible:
    def test_certificates(self, capsys):
        code, out, _ = run(capsys, "irreducible", "--n-max", "8")
        assert code == 0
        certs = [json.loads(line) for line in out.strip().splitlines()]
        assert [c["N"] for c in certs] == [6, 7, 8]
        assert all(c["verdict"] == "Irreducible" for c in certs)
        assert all("elapsed_ms" in c for c in certs)

    def test_deterministic_modulo_timing(self, capsys):
        _, out1, _ = run(capsys, "irreducible", "--n-max", "7")
        _, out2, _ = run(capsys, "irreducible", "--n-max", "7")

        def strip_timing(text):
            rows = [json.loads(line) for line in text.strip().splitlines()]
            for row in rows:
                row.pop("elapsed_ms")
            return rows

        assert strip_timing(out1) == strip_timing(out2)

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


class TestIndicatorFlag:
    def test_liouville_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "8", "--indicator", "liouville")
        assert code == 0
        got = from_text(out.strip())
        from goldpoly import arith
        from goldpoly.goldbach import IndicatorSet, goldbach_polynomial
        table = arith.sieve(16)
        expected = goldbach_polynomial(
            8, IndicatorSet.liouville_negative(16, table))
        assert got == expected

    def test_quotient_rejected_for_liouville(self, capsys):
        code, _, err = run(capsys, "construct", "8", "--indicator", "liouville",
                           "--quotient", "2N")
        assert code == 2
        assert "odd-prime" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["definitely-not-a-command"]) == 2

    @pytest.mark.parametrize("argv", [
        ["table1", "--indicator", "liouville"],
        ["summatory", "--format", "json"],
        ["coeffs", "--long"],
        ["construct", "6", "--strict"],
        ["verify", "--indicator", "liouville"],
    ])
    def test_flag_the_command_ignores_is_usage_error(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert out == ""

    def test_version_flag_exits_cleanly(self, capsys):
        assert cli.main(["--version"]) == 0
