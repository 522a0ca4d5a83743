"""Small helpers shared between test modules."""

import math
from fractions import Fraction

from arnoldtongues import Params, eval_lift, rotation, trace_curve


def locate_edge(kind, r, b, tol=1e-8):
    """a-position of one boundary curve at a single b, via a one-sample trace."""
    curve = trace_curve(kind, Fraction(r), (b, b), step=1.0, tol=tol)
    assert len(curve.samples) == 1
    return curve.samples[0][1]


def counting_step(monkeypatch):
    """Patch rotation._step to add the size of each array it steps to the returned one-element list."""
    step = rotation._step
    count = [0]

    def counting(y, *args):
        count[0] += y.size
        return step(y, *args)

    monkeypatch.setattr(rotation, "_step", counting)
    return count


def iterate_reference(lift, x, n):
    """n winding-reduced steps of a raw Params lift or a MonotoneLift at the float x, plainly.

    Each step is eval_lift's float expression, folded onto the plateau the
    way MonotoneLift.eval folds, and every one of the n steps runs.
    """
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
    return y + wind
