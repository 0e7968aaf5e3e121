"""goldpoly sweep benchmark: the CLI end to end, and per module from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Each pass runs every command of the workload through ``goldpoly.cli.main``
in a fresh interpreter (``--jobs 1``), so per-process caches start cold as
they do for a CLI user.  Passes repeat until ``--seconds`` have gone by.
Every pass's stdout is checked against ``reference.json``.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the
JSON carries the per-layer metrics of the traced ones (see tracer.py) and
the tracing overhead, and the self-time share of each module function is
printed.  A count that does not repeat exactly across traced passes is a
failed item.  Metric names and units come from BENCHMARK.json.
Details, samples and spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import Outcome, check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Command lines of one pass.  Every command also gets --jobs 1 --seed SEED;
# only table1 uses the seed (solver start-point jitter).
WORKLOADS = {
    "certify": [["irreducible", "--n-max", "12"]],
    "roots": [["table1", "--n-max", "24"]],
    "coeffs": [["coeffs", "--m-max", "200000"], ["summatory", "--M", "50000"],
               ["hl", "--m-max", "30000"]],
    "theorems": [["verify", "--n-max", "120"]],
}

MIN_PASSES = 3
# Stop starting passes after this long, and kill a command still running at
# RUN_BUDGET_S, so that a run ends within 180 s even on a slow host.
SOFT_CAP_S = 110.0
RUN_BUDGET_S = 165.0
# Duration of calibrate.calibration_job on the reference host.  Each time is
# divided by the calibration time measured around it and multiplied by this,
# giving the time on a host that runs the job in exactly CALIB_REF_S.
CALIB_REF_S = 0.100
# setup_s has its own reference job: a fresh interpreter that imports
# goldpoly's third-party dependencies, not goldpoly.  Process start and
# imports (file reads, page faults) slow down at other times than the
# compute of calibration_job does, by up to a third between sets of runs.  Each
# set-up time is divided by the job's time, measured at the start of its
# pass, and multiplied by SPAWN_REF_S.
SPAWN_JOB = "import time, numpy, mpmath; print(time.perf_counter())"
SPAWN_REF_S = 0.200
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def child_env() -> dict:
    # bytecode is cached, as for an installed package, so that setup_s times
    # imports rather than compilation; the cache lives inside the checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_command(argv: list[str], trace: bool, span_file: Path | None,
                deadline: float) -> dict:
    """One command in a fresh interpreter; setup_s is spawn until imported."""
    spec = {"argv": argv, "trace": trace,
            "span_file": str(span_file) if span_file else None}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"rc": None, "error": "timed out", "stdout": ""}
    if proc.returncode != 0:
        return {"rc": None, "error": f"child exited {proc.returncode}\n{err}",
                "stdout": ""}
    res = json.loads(out)
    res["setup_s"] = res.pop("imported_at") - t0
    return res


def spawn_job(deadline: float) -> float:
    """Seconds from spawning an interpreter until SPAWN_JOB has imported."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SPAWN_JOB], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=max(1.0, deadline - t0)).stdout
    return float(out) - t0


def command_line(base: list[str], seed: int) -> list[str]:
    return base + ["--jobs", "1", "--seed", str(seed)]


def run_pass(refs: list[dict], seed: int, trace: bool, span_prefix: str | None,
             deadline: float) -> dict:
    """Every command of ``refs`` once, each checked against its reference."""
    results, outcome = [], Outcome()
    spawn_s = spawn_job(deadline)
    for ref in refs:
        argv = command_line(ref["argv"], seed)
        span_file = OUT_DIR / f"{span_prefix}-{argv[0]}.spans.csv" if span_prefix else None
        res = run_command(argv, trace, span_file, deadline)
        outcome.add(check(ref, res["rc"], res["stdout"], res["error"]))
        res["stdout_bytes"] = len(res.pop("stdout").encode())
        results.append(res)
    ok = all(r["rc"] is not None for r in results)
    done = [r for r in results if "calib_s" in r]
    return {
        "trace": trace,
        "ok": ok,
        "wall_s": sum(r["wall_s"] for r in results) if ok else None,
        "cpu_s": sum(r["cpu_s"] for r in results) if ok else None,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results) if ok else None,
        "calib_s": statistics.fmean(r["calib_s"] for r in results) if ok else None,
        "spawn_s": spawn_s,
        "setup_s": [r["setup_s"] for r in done],
        "setup_ref_s": [SPAWN_REF_S * r["setup_s"] / spawn_s for r in done],
        "stdout_bytes": sum(r["stdout_bytes"] for r in results),
        "commands": results,
        "outcome": outcome,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def merge_traces(p: dict) -> dict:
    """Sum the trace summaries of a pass's commands."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for res in p["commands"]:
        for name, s in res["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += s["calls"]
            acc["self_s"] += s["self_s"]
        for name, v in res["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + v
    counters["cli.stdout_bytes"] = p["stdout_bytes"]
    return {"spans": spans, "counters": counters}


def layer_value(name: str, t: dict) -> float:
    spans, counters = t["spans"], t["counters"]
    span, _, field = name.rpartition(".")
    if field in ("self_s", "calls") and span in spans:
        return spans[span][field]
    if name == "goldbach.polys_per_n":
        n = counters["goldbach.distinct_n"]
        return spans["goldbach.goldbach_polynomial"]["calls"] / n if n else 0.0
    if name == "factor.prime_yield":
        reduced = spans["factor.reduce_mod_p"]["calls"]
        return counters["factor.primes_used"] / reduced if reduced else 0.0
    return counters[name]


def self_shares(traced: list[dict]) -> dict[str, float]:
    """Per span: median over traced passes of self time / command wall time."""
    merged = [merge_traces(p) for p in traced]
    return {name: statistics.median(t["spans"][name]["self_s"] / p["wall_s"]
                                    for t, p in zip(merged, traced))
            for name in merged[0]["spans"]}


def layer_metrics(spec: list[dict], traced: list[dict],
                  plain: list[dict]) -> tuple[dict, Outcome]:
    """Self times and output size: median over traced passes.  Counts of
    work (calls, iterations, primes, FFT points) must repeat exactly: each
    is an item of the returned outcome, failed when it does not repeat."""
    merged = [merge_traces(p) for p in traced]
    metrics, repeats = {}, Outcome()
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_frac":
            value = (statistics.median(p["wall_s"] / p["calib_s"] for p in traced)
                     / statistics.median(p["wall_s"] / p["calib_s"] for p in plain)
                     - 1.0)
        elif name.endswith("self_s") or name == "cli.stdout_bytes":
            # stdout_bytes varies with the digits of irreducible's elapsed_ms
            value = statistics.median(layer_value(name, t) for t in merged)
        else:
            values = [layer_value(name, t) for t in merged]
            repeats.items += 1
            if len(set(values)) > 1:
                repeats.failed += 1
                repeats.problems.append(f"{name} does not repeat: {values}")
            value = values[0]
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, repeats


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec_path, ref_path = ROOT / "BENCHMARK.json", BENCH / "reference.json"
    if not (SRC / "goldpoly" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no goldpoly sources under {SRC} or no {spec_path.name}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    refs = json.loads(ref_path.read_text())[args.workload]
    if [r["argv"] for r in refs] != WORKLOADS[args.workload]:
        print(f"error: {ref_path.name} does not match the {args.workload} "
              "commands; re-record it", file=sys.stderr)
        return 2

    # build step: compile and import the package once, untimed
    OUT_DIR.mkdir(exist_ok=True)
    build = subprocess.run([sys.executable, "-c", "import goldpoly.cli"],
                           env=child_env(), cwd=ROOT, capture_output=True,
                           text=True, timeout=120)
    if build.returncode != 0:
        print(f"error: cannot import goldpoly.cli\n{build.stderr}", file=sys.stderr)
        return 1
    env = environment()

    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    passes: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(passes) >= MIN_PASSES:
            break
        if elapsed >= SOFT_CAP_S and passes:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        first_traced = traced and not any(p["trace"] for p in passes)
        passes.append(run_pass(refs, args.seed, traced,
                               args.workload if first_traced else None, deadline))

    total = Outcome()
    for p in passes:
        total.add(p["outcome"])
    good = [p for p in passes if p["ok"]]
    plain = [p for p in good if not p["trace"]]
    traced = [p for p in good if p["trace"]]
    complete = bool(plain) and (bool(traced) or not args.trace)
    if args.trace and complete:
        metrics, repeats = layer_metrics(spec["per_layer"], traced, plain)
        total.add(repeats)
        shares = self_shares(traced)

    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes of {WORKLOADS[args.workload]}")
    for problem in total.problems[:20]:
        print(f"FAIL {problem}")

    def ref_s(p, key):
        return CALIB_REF_S * p[key] / p["calib_s"]

    samples = {  # reported, times in reference seconds
        "wall_s": [ref_s(p, "wall_s") for p in plain],
        "cpu_s": [ref_s(p, "cpu_s") for p in plain],
        "setup_s": [s for p in passes for s in p["setup_ref_s"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    raw = {  # as measured on this host
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "setup_s": [s for p in passes for s in p["setup_s"]],
        "calib_s": [p["calib_s"] for p in good],
        "spawn_s": [p["spawn_s"] for p in passes],
    }
    print("metric                unit   median     q1         q3         n")
    rows = [(k, v) for k, v in samples.items()] + [(f"measured.{k}", v) for k, v in raw.items()]
    for name, values in rows:
        if values:
            q1, med, q3 = quartiles(values)
            unit = "MB" if name == "peak_rss_mb" else "s"
            print(f"{name:21s} {unit:6s} {med:<10.4f} {q1:<10.4f} {q3:<10.4f} {len(values)}")
    e2e = {k: statistics.median(v) for k, v in samples.items() if v}
    e2e["proved_frac"] = (1.0 - total.unproved / total.verdicts
                          if total.verdicts else 0.0)
    print(f"{'fail_frac':21s} ratio  {total.failed / max(total.items, 1):.6f} "
          f"({total.failed}/{total.items} items)")
    print(f"{'unproved_frac':21s} ratio  {total.unproved / max(total.verdicts, 1):.6f} "
          f"({total.unproved}/{total.verdicts} verdicts)")

    if args.trace:
        if not complete:
            print("error: no complete untraced and traced pass", file=sys.stderr)
            return 1
        print(f"counts repeating across traced passes: "
              f"{repeats.items - repeats.failed}/{repeats.items}")
        print(f"tracing overhead: {metrics['trace.overhead_frac']['value']:+.3f} of untraced wall")
        print("self-time share of traced command time (median over traced passes):")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share >= 0.005:
                print(f"  {name:40s} {share:6.1%}")
    else:
        if not complete:
            print("error: no complete pass", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    report = {"args": vars(args), "env": env, "samples": samples, "raw": raw,
              "passes": [{k: v for k, v in p.items() if k != "outcome"}
                         for p in passes],
              "metrics": metrics, "problems": total.problems,
              "self_shares": shares if args.trace else None,
              "items": total.items, "failed": total.failed,
              "verdicts": total.verdicts, "unproved": total.unproved}
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"correct": total.failed == 0, "attempted": total.items,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
