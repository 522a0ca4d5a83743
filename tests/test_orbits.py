"""Periodic orbit finding, the distinguished pair, and itineraries."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnoldtongues import (
    PLUS,
    NoOrbitError,
    Params,
    critical_points,
    deriv,
    envelope,
    eval_lift,
    find_periodic_orbits,
    itinerary,
    level_sign,
    orbit_pair,
    plateau_edges,
)
from arnoldtongues import rotation
from arnoldtongues.orbits import (
    ATTRACTING,
    HYPERBOLIC,
    NEUTRAL_NONPARABOLIC,
    PARABOLIC,
    SUPERATTRACTING,
    _closure_jet,
    classify_multiplier,
)
from helpers import reduced_reference

TWO_PI = 2.0 * math.pi


def test_tangent_fixed_point():
    # a = b/2pi makes the fixed-point equation tangent at x = 3/4
    p = Params(0.5 / TWO_PI, 0.5)
    orbits = find_periodic_orbits(p, Fraction(0, 1))
    assert len(orbits) == 1
    (orbit,) = orbits
    assert orbit.points == pytest.approx((0.75,), abs=1e-6)
    assert orbit.stability == PARABOLIC
    assert orbit.on_increasing_branch


def test_no_orbit_off_label():
    with pytest.raises(NoOrbitError):
        find_periodic_orbits(Params(0.25, 0.0), Fraction(0, 1))


def test_fixed_points_at_origin_b2():
    orbits = find_periodic_orbits(Params(0.0, 2.0), Fraction(0, 1))
    assert len(orbits) == 2
    by_point = {round(o.points[0], 6): o for o in orbits}
    assert set(by_point) == {0.0, 0.5}
    assert by_point[0.0].multiplier == pytest.approx(3.0, abs=1e-9)
    assert by_point[0.0].stability == HYPERBOLIC
    assert by_point[0.0].on_increasing_branch
    assert by_point[0.5].multiplier == pytest.approx(-1.0, abs=1e-9)
    assert by_point[0.5].stability == NEUTRAL_NONPARABOLIC
    assert not by_point[0.5].on_increasing_branch


def test_denominator_cap():
    with pytest.raises(ValueError):
        find_periodic_orbits(Params(0.2, 2.0), Fraction(1, 5), q_max=4)


@pytest.mark.parametrize("b", [0.5, 0.9, 1.0])
@pytest.mark.parametrize(
    "r", [Fraction(0, 1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)], ids=str
)
def test_certificate_agrees_with_orbit_scan_at_tongue_edges(b, r):
    # For b <= 1 the plus envelope is the lift, whose rotation number is
    # p/q exactly when an orbit of type p/q exists: level_sign's decision
    # and the orbit scan must agree 1e-9 on either side of each edge.
    for edge, outside in zip(plateau_edges(b, r, PLUS, tol=1e-12), (-1, 1)):
        for a, expected in ((edge - outside * 1e-9, 0), (edge + outside * 1e-9, outside)):
            p = Params(a, b)
            assert level_sign(envelope(p, PLUS), r) == expected, (a, b, r)
            if expected == 0:
                assert find_periodic_orbits(p, r), (a, b, r)
            else:
                with pytest.raises(NoOrbitError):
                    find_periodic_orbits(p, r)


@settings(max_examples=300, deadline=None)
@given(
    a=st.one_of(st.floats(-3.0, 3.0), st.floats(-1e12, 1e12)),
    b=st.floats(0.0, 4.0),
    x=st.one_of(st.floats(-4.0, 4.0), st.floats(-1e17, 1e17)),
    r=st.builds(Fraction, st.integers(-20, 20), st.integers(1, 8)),
)
def test_closure_jet_is_closure_and_derivative_product_property(a, b, x, r):
    # The orbit scan's Newton steps read G and G_x from the jet alone: G must be the
    # level function's bits, and G_x those of deriv's product along the reduced iterates.
    p = Params(a, b)
    g, gx, _, _, _ = _closure_jet(b, a, r, x)
    assert g.hex() == rotation._closure(p, r)(x).hex()
    ys = [reduced_reference(p, x, k)[0] for k in range(r.denominator)]
    assert gx.hex() == (math.prod(deriv(p, y) for y in ys) - 1.0).hex()


def test_pair_single_class():
    orbit, second = orbit_pair(Params(0.0, 2.0), Fraction(0, 1))
    assert second is None
    assert orbit.points == pytest.approx((0.0,), abs=1e-9)


def test_pair_at_tangency():
    orbit, second = orbit_pair(Params(1.5 / TWO_PI, 1.5), Fraction(0, 1))
    assert second is None
    assert orbit.stability == PARABOLIC
    assert orbit.points == pytest.approx((0.75,), abs=1e-6)


def test_pair_two_classes():
    orbit, second = orbit_pair(Params(0.28, 2.0), Fraction(0, 1))
    assert second is not None
    assert orbit.multiplier > 1.0
    assert second.multiplier < 1.0
    assert second.stability == ATTRACTING
    assert orbit.on_increasing_branch and second.on_increasing_branch


def test_multiplier_is_derivative_product():
    p = Params(0.5, 2.0)
    for orbit in find_periodic_orbits(p, Fraction(1, 2)):
        prod = 1.0
        for x in orbit.points:
            prod *= deriv(p, x, 1)
        assert orbit.multiplier == pytest.approx(prod, rel=1e-9)


@pytest.mark.parametrize(
    "a,b,r",
    [
        (0.28, 2.0, Fraction(0, 1)),
        (0.5, 2.0, Fraction(1, 2)),
        (0.5, 2.8, Fraction(1, 2)),
    ],
)
def test_orbit_closure_property(a, b, r):
    p = Params(a, b)
    for orbit in find_periodic_orbits(p, r):
        for x in orbit.points:
            y = x
            for _ in range(r.denominator):
                y = eval_lift(p, y)
            assert y == pytest.approx(x + r.numerator, abs=1e-8)


def test_itinerary_all_increasing():
    it = itinerary(Params(0.0, 2.0), 0.0, 5)
    assert it.symbols == "LLLLL"
    assert it.length == 5


def test_itinerary_lap_boundary_is_closed():
    p = Params(0.0, 2.0)
    x_c = critical_points(p).points[0]
    assert itinerary(p, x_c, 1).symbols == "L"
    assert itinerary(p, 0.5, 1).symbols == "M"


def test_itinerary_rejects_lengths_past_the_iteration_cap():
    # Checked before the first step: a length of 1e12 would otherwise build a string for hours.
    p = Params(0.3, 2.0)
    for length in (0, -1, rotation._N_ITER_MAX + 1, 10**12):
        with pytest.raises(ValueError, match="length must be in"):
            itinerary(p, 0.1, length)
    assert len(itinerary(p, 0.1, 3).symbols) == 3


def test_itinerary_translation_invariance():
    p = Params(0.37, 2.4)
    assert itinerary(p, 0.22, 8).symbols == itinerary(p, 1.22, 8).symbols


def test_itinerary_periodicity_on_periodic_orbit():
    p = Params(0.5, 2.8)
    orbits = find_periodic_orbits(p, Fraction(1, 2))
    mixed = [o for o in orbits if not o.on_increasing_branch]
    assert mixed, "expected a translation class visiting the decreasing lap"
    sym = itinerary(p, mixed[0].points[0], 6).symbols
    assert "M" in sym
    for i in range(4):
        assert sym[i] == sym[i + 2]


def test_itinerary_validation():
    with pytest.raises(ValueError):
        itinerary(Params(0.0, 0.5), 0.1, 5)
    with pytest.raises(ValueError):
        itinerary(Params(0.0, 2.0), 0.1, 0)


def test_at_most_two_increasing_classes(rng):
    # inside the zero tongue the increasing-branch count is 1 or 2, never
    # more, and orbit_pair must not raise on any draw
    for _ in range(40):
        b = float(rng.uniform(1.0, 4.0))
        a = float(rng.uniform(-1.0, 1.0)) * b / TWO_PI
        p = Params(a, b)
        orbits = find_periodic_orbits(p, Fraction(0, 1))
        n_inc = sum(o.on_increasing_branch for o in orbits)
        assert 1 <= n_inc <= 2
        orbit_pair(p, Fraction(0, 1))


def test_second_orbit_attracts_critical_point():
    p = Params(0.28, 2.0)
    _, second = orbit_pair(p, Fraction(0, 1))
    assert second is not None
    x = critical_points(p).points[0]
    for _ in range(500):
        x = eval_lift(p, x)
    frac = x - math.floor(x)
    d = min(abs(frac - q) for q in second.points)
    d = min(d, 1.0 - d)
    assert d < 1e-6


def test_classify_multiplier_bands():
    assert classify_multiplier(0.0) == SUPERATTRACTING
    assert classify_multiplier(1e-12) == SUPERATTRACTING
    assert classify_multiplier(0.5) == ATTRACTING
    assert classify_multiplier(1.0 + 5e-7) == PARABOLIC
    assert classify_multiplier(-1.0) == NEUTRAL_NONPARABOLIC
    assert classify_multiplier(3.0) == HYPERBOLIC
