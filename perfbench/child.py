"""One timed CLI command in a fresh interpreter.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON holds "argv" (the goldpoly
command line), "trace" (wrap the library with tracer.Tracer) and "span_file"
(where to write the spans, or null).  The goldpoly package must be importable
(the parent puts the checkout's ``src`` on PYTHONPATH).

Prints one JSON object on stdout: the time at which ``goldpoly.cli`` had been
imported (time.perf_counter, which is CLOCK_MONOTONIC and so comparable with
the parent's clock), the wall and CPU time of ``cli.main(argv)``, the peak
resident memory of this process, the exit code, the captured stdout, the
mean duration of the calibration job run just before and just after the
command and, when tracing, the per-span summary.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import goldpoly.cli

imported_at = time.perf_counter()

from calibrate import calibration_job  # noqa: E402  (after imported_at: not setup)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run(spec: dict) -> dict:
    argv = spec["argv"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(root_item=argv[0])
        tracer.install()
    pre = calibration_job()
    out = io.StringIO()
    error = None
    cpu0 = _cpu(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = goldpoly.cli.main(argv)
    except Exception:  # the benchmark must report, not die, on a crash
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) - cpu0 + _cpu(resource.RUSAGE_CHILDREN)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    post = calibration_job()
    result = {
        "imported_at": imported_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "calib_s": (pre + post) / 2,
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if spec["span_file"]:
            tracer.dump(spec["span_file"])
    return result


if __name__ == "__main__":
    json.dump(run(json.loads(sys.argv[1])), sys.stdout)
