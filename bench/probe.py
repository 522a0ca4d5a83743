"""A fixed piece of work whose time tracks the speed of the shared host."""

import gc
import math
import time


def probe_s() -> float:
    """Time of a fixed piece of scalar Python and small-array numpy work.

    The benchmark runs it between timed calls, never inside them, and
    scales the call times by it to take the shared host's speed out of
    them (see run.py).  The collector is off while it runs, so the heap the
    program leaves behind does not change its time.  numpy is imported
    here, after set-up, so that set-up time stays the program's own.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 100)
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0.0
        for i in range(6000):
            s += math.floor(i * 0.37) * 0.5
        for _ in range(120):
            x = np.floor(x + np.sin(x)) * 0.5 + x * 0.25
        return time.perf_counter() - t0
    finally:
        gc.enable()


def probe_for(budget_s: float) -> list:
    """Probe times, repeated until they add up to budget_s (at least one)."""
    out = [probe_s()]
    while sum(out) < budget_s:
        out.append(probe_s())
    return out
