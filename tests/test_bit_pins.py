"""Exact output bits of the iteration, bisection and edge-location code.

Orbit points, plateau edges, a traced curve, a curve crossing and rotation
interval endpoints are pinned as float.hex strings, so that a rework of
the array kernel rotation._iterate or its scalar twin
rotation._scalar_iterate, solvers.bisect or tongues._locate_edges cannot
move a bit unnoticed.  They hold on builds where numpy's sin and cos round
like the C library's (see maps.eval_lift).
"""

from fractions import Fraction

from arnoldtongues import (
    MINUS,
    PLUS,
    Params,
    find_periodic_orbits,
    intersect_curves,
    plateau_edges,
    rotation_interval,
    trace_curve,
)

# (a, b, label) -> orbit points, one tuple per orbit.  The 1/2 case has a
# root exactly on the scan grid (x = 0).
ORBITS = {
    (0.1, 0.8, "0"): [("0x1.499c566061523p-1",), ("0x1.b663a99f9eadfp-1",)],
    (0.34, 2.0, "1/3"): [
        ("0x1.1f56ebb1dee49p-5", "0x1.c7550cf659e5bp-2", "0x1.c94765d48b058p-1"),
        ("0x1.b1b8ac4bcda72p-3", "0x1.b8cecb00240d9p-1", "0x1.e9f0103dae27ep-1"),
    ],
    (0.5, 1.5, "1/2"): [
        ("0x0.0p+0", "0x1.0000000000000p-1"),
        ("0x1.3817871dec2bdp-3", "0x1.b1fa1e3884f51p-1"),
    ],
    (0.62, 2.5, "3/5"): [
        (
            "0x1.dc520b24e6bc6p-12",
            "0x1.da5bf9b781b2ep-4",
            "0x1.016e206fcf430p-1",
            "0x1.3e4107aeabc98p-1",
            "0x1.eec341b041cffp-1",
        ),
        (
            "0x1.1d644171a0f76p-5",
            "0x1.06521fedafa32p-3",
            "0x1.fa7a5c68f1249p-2",
            "0x1.7b83a09d623fcp-1",
            "0x1.ed8b6093c9144p-1",
        ),
        (
            "0x1.ca1731768f95ap-5",
            "0x1.0cb5ceafcc3b6p-4",
            "0x1.1661e4b7d9860p-3",
            "0x1.a02f08511b14bp-1",
            "0x1.b0a497add025dp-1",
        ),
        (
            "0x1.fb50b017a5155p-5",
            "0x1.b932b787bc59dp-4",
            "0x1.1429ecd747c59p-1",
            "0x1.aa6e1762c2046p-1",
            "0x1.f42d5ca0fe247p-1",
        ),
    ],
}

# (b, label, envelope) -> (left edge, right edge)
EDGES = {
    (2.0, "1/3", PLUS): ("0x1.2c21bc67be4c2p-2", "0x1.60ce49f3f4476p-2"),
    (1.5, "0", MINUS): ("-0x1.e0e40f5a810e6p-3", "0x1.e8ec89de8ed8ap-3"),
    (0.5, "1/2", PLUS): ("0x1.f60448228882cp-2", "0x1.04fddbeebbbeap-1"),
}

# trace_curve("Bl", 1/2, (1.5, 1.9), 0.1): (a, bracket width) per sample
TRACE_BL_HALF = [
    ("0x1.19e0efbe0838bp-1", "0x1.27a9788000000p-27"),
    ("0x1.174357c13ebb4p-1", "0x1.45f3724000000p-27"),
    ("0x1.13ed4b881c7a6p-1", "0x1.45f3720000000p-27"),
    ("0x1.100571c90b022p-1", "0x1.45f3724000000p-27"),
    ("0x1.0ba7664dd45e6p-1", "0x1.45f3724000000p-27"),
]

# intersect_curves(Ar 0/1, Al 1/1, (3.0, 3.3), tol=1e-7): (a, b)
CROSSING = [("0x1.0000000000000p-1", "0x1.921fb53333334p+1")]

# (a, b) -> rotation_interval endpoint values at default settings
INTERVALS = {
    (0.28, 2.0): ("0x1.5fdae3f4ef485p-12", "0x1.0016d73df08dbp-2"),
    (0.45, 3.3): ("0x1.550a8c2f82183p-12", "0x1.aa8f54082de04p-1"),
}


def test_orbit_points_bits():
    for (a, b, label), want in ORBITS.items():
        orbits = find_periodic_orbits(Params(a, b), Fraction(label))
        got = [tuple(x.hex() for x in o.points) for o in orbits]
        assert got == want, (a, b, label)


def test_plateau_edges_bits():
    for (b, label, which), want in EDGES.items():
        got = tuple(x.hex() for x in plateau_edges(b, Fraction(label), which))
        assert got == want, (b, label, which)


def test_trace_curve_bits():
    curve = trace_curve("Bl", Fraction(1, 2), (1.5, 1.9), 0.1)
    assert [(a.hex(), w.hex()) for _, a, w in curve.samples] == TRACE_BL_HALF


def test_intersect_crossing_bits():
    pts = intersect_curves(
        ("Ar", Fraction(0)), ("Al", Fraction(1)), (3.0, 3.3), tol=1e-7
    )
    assert [(pt.a.hex(), pt.b.hex()) for pt in pts] == CROSSING


def test_rotation_interval_bits():
    for (a, b), want in INTERVALS.items():
        ri = rotation_interval(Params(a, b))
        assert (ri.lo.value.hex(), ri.hi.value.hex()) == want, (a, b)
