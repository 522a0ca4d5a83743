"""Small helpers shared between test modules."""

import itertools
import math
from fractions import Fraction

from arnoldtongues import PLUS, Params, eval_lift, rotation, trace_curve


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


def true_envelope_g(a, b, which, r, x, mp):
    """G(x) = M^q(x) - x - p for the true which-envelope M of F_{a,b}, to 50 digits.

    a, b and x are floats or mpmath numbers.  M is the lift for b <= 1; for
    b > 1 it is max(F(x_max), F(t)) on the window [x_max, x_max + 1) (plus)
    and min(F(x_min), F(t)) on [x_min - 1, x_min) (minus), from the exact
    critical points.
    """
    with mp.workdps(50):
        a, b, two_pi = mp.mpf(a), mp.mpf(b), 2 * mp.pi

        def f(t):
            return t + a + b / two_pi * mp.sin(two_pi * t)

        if b > 1:
            x_max = mp.acos(-1 / b) / two_pi
            w = x_max if which == PLUS else -x_max  # x_min - 1 = -x_max
            flat = f(x_max if which == PLUS else 1 - x_max)
        y = mp.mpf(x)
        for _ in range(r.denominator):
            if b <= 1:
                y = f(y)
            else:
                k = mp.floor(y - w)
                v = f(y - k)
                y = (max(flat, v) if which == PLUS else min(flat, v)) + k
        return y - mp.mpf(x) - r.numerator


def true_b_edge(b, r, which, a0, mp):
    """The zero near a0 of h(a) = G(e), e the true flat piece's exit end, to 40 digits (b > 1).

    e is t_e with F_0(t_e) = F_0(x_max) past the local minimum for the plus
    envelope, and its mirror 1 - t_e, the start of the flat piece, for the
    minus one.  On a B-curve the critical value lands on the plateau's orbit
    through e, so this is the B edge: Bl for plus, Br for minus.
    """
    with mp.workdps(40):
        b_mp, two_pi = mp.mpf(b), 2 * mp.pi
        x_max = mp.acos(-1 / b_mp) / two_pi

        def f0(t):
            return t + b_mp / two_pi * mp.sin(two_pi * t)

        t_e = mp.findroot(lambda t: f0(t) - f0(x_max), (1 - x_max, 1 + x_max), solver="anderson")
        e = t_e if which == PLUS else 1 - t_e
        return mp.findroot(lambda a: true_envelope_g(a, b_mp, which, r, e, mp), (mp.mpf(a0), mp.mpf(a0) + 1e-9))
