"""The benchmark's outside-in tracer patches goldpoly functions by name, so
every name it lists has to exist on the loaded package."""

import importlib.util
from pathlib import Path

import numpy.fft

from goldpoly import arith, cli, goldbach, poly

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(capsys):
    originals = (goldbach.goldbach_polynomial, arith.goldbach_count_table,
                 goldbach.remainder_mod_cyclotomic, poly.remainder_mod_cyclotomic,
                 numpy.fft.rfft)
    tracer = load_tracer().Tracer("verify")
    tracer.install()
    try:
        assert goldbach.goldbach_polynomial is not originals[0]
        assert cli.main(["verify", "--n-max", "8"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (goldbach.goldbach_polynomial, arith.goldbach_count_table,
            goldbach.remainder_mod_cyclotomic, poly.remainder_mod_cyclotomic,
            numpy.fft.rfft) == originals
    summary = tracer.summary()
    spans = summary["spans"]
    # verify works from one pair-sum array per N and never builds the
    # polynomial or a pair-count table; it takes d(N) + 1 remainders for
    # each N = 2..8, none of them by long division
    assert spans["goldbach.goldbach_polynomial"]["calls"] == 0
    assert spans["poly.remainder_mod_cyclotomic"]["calls"] == 26
    assert spans["poly.divrem_exact"]["calls"] == 0
    assert spans["arith.goldbach_count_table"]["calls"] == 0
    assert summary["counters"]["goldbach.distinct_n"] == 0
