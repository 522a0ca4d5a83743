"""Small helpers shared between test modules."""

import itertools
import math
from fractions import Fraction

from arnoldtongues import Params, eval_lift, rotation, trace_curve


def locate_edge(kind, r, b, tol=1e-8):
    """a-position of one boundary curve at a single b, via a one-sample trace."""
    curve = trace_curve(kind, Fraction(r), (b, b), step=1.0, tol=tol)
    assert len(curve.samples) == 1
    return curve.samples[0][1]


def counting_step(monkeypatch):
    """Count the steps of rotation's kernels in the returned one-element list.

    Each array that rotation._step steps adds its size, and each step of a
    scalar kernel that rotation._scalar_kernel builds while patched adds one:
    the kernel binds math.floor when it is built and calls it once a step,
    twice with a fold, so a counting floor built into it counts every call
    on a lift and every other call on an envelope.
    """
    step, kernel, floor = rotation._step, rotation._scalar_kernel, math.floor
    count = [0]

    def counting(y, *args):
        count[0] += y.size
        return step(y, *args)

    def counting_kernel(a, c, fold):
        calls, per_step = itertools.count(), 1 if fold is None else 2

        def counting_floor(v):
            if next(calls) % per_step == 0:
                count[0] += 1
            return floor(v)

        with monkeypatch.context() as m:
            m.setattr(math, "floor", counting_floor)
            return kernel(a, c, fold)

    monkeypatch.setattr(rotation, "_step", counting)
    monkeypatch.setattr(rotation, "_scalar_kernel", counting_kernel)
    return count


def iterate_reference(lift, x, n):
    """n winding-reduced steps of a raw Params lift or a MonotoneLift at the float x, plainly.

    Each step is eval_lift's float expression, folded onto the plateau the
    way MonotoneLift.eval folds, and every one of the n steps runs.
    """
    y, wind = reduced_reference(lift, x, n)
    return y + wind


def reduced_reference(lift, x, n):
    """The reduced y and the winding after iterate_reference's n steps, apart."""
    raw, fold = (lift, None) if isinstance(lift, Params) else (lift.base, lift._fold)
    y, wind = float(x), 0.0
    for _ in range(n):
        if fold is None:
            y = eval_lift(raw, y)
        else:
            w, lo, hi = fold
            m = math.floor(y - w)
            t = y - m
            y = (lift.plateau_value if lo <= t <= hi else eval_lift(raw, t)) + m
        k = math.floor(y)
        wind += k
        y -= k
    return y, wind
