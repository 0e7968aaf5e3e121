"""Record the reference stdout of every workload command into reference.json.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

The outputs are taken with seed 0; table1's root counts must not depend on
the seed, so the same reference serves every seed.
"""

from __future__ import annotations

import json
import time

from check import record_reference
from run import BENCH, WORKLOADS, command_line, run_command

HASHED = {"coeffs"}  # multi-MB all-integer CSV: keep a digest, not the lines


def record(workloads: dict[str, list[list[str]]]) -> dict:
    refs = {}
    for name, commands in workloads.items():
        refs[name] = []
        for base in commands:
            res = run_command(command_line(base, 0), False, None,
                              time.perf_counter() + 900)
            if res["rc"] != 0:
                raise RuntimeError(f"{base} failed: {res['error']}")
            refs[name].append(record_reference(base, res["stdout"], base[0] in HASHED))
    return refs


if __name__ == "__main__":
    refs = record(WORKLOADS)
    (BENCH / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
