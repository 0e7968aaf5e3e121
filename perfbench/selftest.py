"""Self-test of the benchmark: tiny workloads, a live correctness check, tracing.

Run from the repository root:

    python3 perfbench/selftest.py

1. Records tiny-size references from the current code and runs one untraced
   and two traced passes per workload: no item may fail, no verdict may be
   unproved, and the traced counts must repeat exactly.
2. Corrupts each reference (a flipped verdict, an altered count, a changed
   digest) and requires the check to report failures.
3. Feeds the checker an ``Unresolved`` certificate that matches its
   reference: the invariant alone must fail it and count it unproved.
   A certificate proved with other scheduled primes must pass; one with
   primes off the schedule or surviving degrees must fail.
4. Makes one traced count differ between two passes: it must be a failed
   item.
5. Runs run.py in a directory holding only BENCHMARK.json and perfbench/:
   it must exit non-zero without printing a result.

Exits 0 when every case passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

from check import check
from record_reference import record
from run import BENCH, OUT_DIR, ROOT, layer_metrics, merge_traces, run_pass

TINY = {
    "certify": [["irreducible", "--n-max", "7"]],
    "roots": [["table1", "--n-max", "8"]],
    "coeffs": [["coeffs", "--m-max", "300"], ["summatory", "--M", "100"],
               ["hl", "--m-max", "100"]],
    "theorems": [["verify", "--n-max", "10"]],
}


def corrupt(workload: str, refs: list[dict]) -> list[dict]:
    bad = copy.deepcopy(refs)
    if workload == "certify":
        bad[0]["lines"][0] = bad[0]["lines"][0].replace("Irreducible", "Reducible")
    elif workload == "roots":
        row = bad[0]["lines"][1].split(",")
        row[2] = str(int(row[2]) + 1)  # one more root inside
        bad[0]["lines"][1] = ",".join(row)
    elif workload == "coeffs":
        bad[0]["sha256"] = "0" * 64
    else:
        bad[0]["lines"][0] = bad[0]["lines"][0].replace('"holds": true', '"holds": false')
    assert bad != refs, f"corruption of {workload} changed nothing"
    return bad


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    refs = record(TINY)
    deadline = time.perf_counter() + 600
    traced_passes = {}
    for workload, wrefs in refs.items():
        plain = run_pass(wrefs, 5, False, None, deadline)
        o = plain["outcome"]
        expect(plain["ok"] and o.failed == 0 and o.unproved == 0 and o.verdicts > 0,
               f"{workload}: {o.items} items, {o.failed} failed, "
               f"{o.unproved}/{o.verdicts} unproved")
        traced_passes[workload] = [run_pass(wrefs, 5, True, None, deadline)
                                   for _ in range(2)]
        traced = [merge_traces(p) for p in traced_passes[workload]]
        counts = [{k: s["calls"] for k, s in t["spans"].items()} | t["counters"]
                  for t in traced]
        for c in counts:
            del c["cli.stdout_bytes"]  # elapsed_ms in irreducible's output varies
        expect(counts[0] == counts[1] and counts[0]["cli.main"] == len(wrefs),
               f"{workload}: traced counts repeat ({sum(counts[0].values())} total)")
        bad = run_pass(corrupt(workload, wrefs), 5, False, None, deadline)
        expect(bad["outcome"].failed > 0,
               f"{workload}: corrupted reference detected "
               f"({bad['outcome'].failed} failed)")

    def cert(verdict="Irreducible", primes=(101, 103), surviving=()):
        return json.dumps({"verdict": verdict, "degree": 46, "primes_used": list(primes),
                           "surviving_degree_set": list(surviving), "N": 6})

    def check_cert(line: str):
        return check({"argv": ["irreducible"], "lines": [cert()]}, 0, line + "\n", None)

    o = check_cert(cert("Unresolved", surviving=(2,)))
    expect(o.failed == 1 and o.unproved == 1, "Unresolved certificate fails its invariant")
    expect(check_cert(cert(primes=(107, 109, 113))).failed == 0,
           "certificate proved with other scheduled primes passes")
    expect(check_cert(cert(primes=(103, 101))).failed == 1
           and check_cert(cert(primes=(101, 105))).failed == 1
           and check_cert(cert(primes=(97,))).failed == 1
           and check_cert(cert(primes=())).failed == 1,
           "primes off the schedule fail")
    expect(check_cert(cert(surviving=(3,))).failed == 1,
           "Irreducible with surviving degrees fails")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    passes = copy.deepcopy(traced_passes["roots"])
    _, same_counts = layer_metrics(spec, passes, passes)
    passes[1]["commands"][0]["trace"]["counters"]["roots.aberth_solve.iterations"] += 1
    _, other_counts = layer_metrics(spec, passes, passes)
    expect(same_counts.failed == 0 and other_counts.failed == 1,
           f"a count that does not repeat is a failed item "
           f"({other_counts.failed}/{other_counts.items})")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    res = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                          "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(res.returncode != 0 and '"correct"' not in res.stdout,
           f"bare directory: exit {res.returncode}, no result printed")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
