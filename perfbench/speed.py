"""Machine-speed calibration for wall-clock rates on a shared host.

On a shared machine the speed of one CPU drifts by tens of percent over
minutes as other tenants come and go, and the drift moves every run's
wall-clock rate with it.  calibrate() times a fixed piece of pure-Python
work that does not touch trimq, so no change to trimq can move it; scaling
a rate measured between two calibrations by their mean speed factor
removes most of the common drift.  Rates are reported as if the
calibration took NOMINAL_S, about its time on the uncontended 2-CPU machine
the baseline was recorded on.

A workload that runs on two threads is calibrated on two threads, which
then contend for the interpreter lock and the CPUs the way its threads do.
"""

import math
import threading
import time

NOMINAL_S = 0.1
_ITERS = 28_000


def calibrate(threads=1):
    """Seconds the fixed calibration work takes right now, per thread when
    `threads` run it at once."""
    if threads == 1:
        return _work()
    workers = [threading.Thread(target=_work) for _ in range(threads)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return (time.perf_counter() - t0) / threads


def _work():
    # a Monte-Carlo inner loop in plain Python: integer hashing, a short
    # list of floats built, sorted and summed
    t0 = time.perf_counter()
    acc = 0.0
    h = 0
    for i in range(_ITERS):
        h = ((h ^ i) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        xs = [((h >> k) & 0xFFFF) * 1.52587890625e-05 for k in range(10)]
        xs.sort()
        acc += math.fsum(xs) + xs[5]
    return time.perf_counter() - t0


def factor(before, after):
    """How much slower than nominal the machine ran between two
    calibrations; multiply a rate by it to report the nominal-speed rate."""
    return 0.5 * (before + after) / NOMINAL_S
