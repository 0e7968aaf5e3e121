"""Fixed reference job that measures how fast the host runs right now.

The host's speed drifts by 20-40% over minutes because other tenants share
its cores, and that drift moves the CPU time of a pass as much as its wall
time.  The job below mixes the kinds of work goldpoly does (an interpreted
loop with dict updates, big-integer squaring, numpy convolution and
reduction mod p) and does not touch goldpoly.  child.py runs it in
the same process just before and just after each timed command, and
run.py divides the command's times by the mean of the two.
"""

import time

import numpy as np


def calibration_job() -> float:
    """Seconds the fixed reference job took."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    x = (1 << 200_000) - 12_345
    for _ in range(6):
        x * x
    # small arrays and no numpy.fft: the command's peak RSS and its lazy
    # numpy.fft import stay as they would be without the job
    a = np.arange(512, dtype=np.int64) % 101
    for _ in range(400):
        np.convolve(a, a) % 101
    return time.perf_counter() - t0
