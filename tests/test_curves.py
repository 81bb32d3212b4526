import math

import numpy as np
import pytest

import frieze_lab as fl
from frieze_lab.curves import (
    derivative_consistency,
    on_grid,
    sf_compose,
    sf_identity,
    trig_poly,
)


def off_pole_grid(n=400, margin=0.2):
    xs = (np.arange(n) + 0.5) * (math.pi / n)
    return [float(x) for x in xs if abs(math.cos(x)) > margin]


def test_family_derivatives_consistent():
    for s in (0.0, 0.1, 0.3):
        cur = fl.tan_family(s)
        xs = [x for x in off_pole_grid(60) if abs(cur.f(x)) < 5.0]
        assert derivative_consistency(cur.f, xs) < 1e-6


def test_trig_poly_derivatives():
    f = trig_poly(math.pi, {1: (0.5, 0.0), 2: (0.0, -0.25)})
    xs = np.linspace(0, math.pi, 37)
    assert derivative_consistency(f, [float(x) for x in xs]) < 1e-6
    # fourth derivative available
    assert abs(f.deriv(4, 0.3) - (0.5 * 16 * math.cos(0.6) - 0.25 * 256 * math.sin(1.2))) < 1e-9


def test_schwarzian_affine_is_zero():
    s = fl.schwarzian(sf_identity())
    assert s(0.7) == 0.0


def test_schwarzian_tan_is_two():
    s = fl.schwarzian(fl.tan_family(0.0).f)
    assert max(abs(s(x) - 2.0) for x in off_pole_grid()) < 1e-10
    # the Hill-form potential at c is k = c*S(f) = 2c = 2c*pi^2/T^2 for T = pi
    c = 0.5
    assert abs(c * s(0.3) - 2.0 * c * math.pi**2 / math.pi**2) < 1e-12


def test_schwarzian_moebius_invariance():
    cur = fl.tan_family(0.0)
    s = fl.schwarzian(cur.f)
    h = fl.mobius_transform(cur.f, (2.0, 1.0, 1.0, 1.0))
    sh = fl.schwarzian(h)
    pts = [
        x
        for x in off_pole_grid()
        if abs(cur.f(x)) < 50.0 and abs(cur.f(x) + 1.0) > 0.2
    ]
    assert max(abs(sh(x) - s(x)) for x in pts) < 1e-10


def test_schwarzian_derivative_vanishes_guard():
    f = trig_poly(2 * math.pi, {1: (1.0, 0.0)})  # cos x, f'(0) = 0
    s = fl.schwarzian(f)
    with pytest.raises(fl.DerivativeVanishes):
        s(0.0)


def test_lift_unit_bracket_on_grid():
    for s in (0.0, 0.1, 0.3):
        lift = fl.lift_curve(fl.tan_family(s))
        xs = np.linspace(0.0, math.pi, 512, endpoint=False)
        worst = max(
            abs(lift.g1(float(x)) * lift.dg2(float(x)) - lift.g2(float(x)) * lift.dg1(float(x)) - 1.0)
            for x in xs
        )
        assert worst < 1e-10


def test_lift_antiperiodic():
    lift = fl.lift_curve(fl.tan_family(0.2))
    xs = np.linspace(0.0, math.pi, 128, endpoint=False)
    worst = max(
        max(
            abs(lift.g1(float(x) + math.pi) + lift.g1(float(x))),
            abs(lift.g2(float(x) + math.pi) + lift.g2(float(x))),
        )
        for x in xs
    )
    assert worst < 1e-12


def test_tan_lift_is_unit_circle():
    # the round curve lifts to (cos, sin): an arc-length unit circle
    lift = fl.lift_curve(fl.tan_family(0.0))
    for x in (0.0, 0.4, 1.1, 2.9):
        g1, g2 = lift.gamma(x)
        assert abs(g1 - math.cos(x)) < 1e-15
        assert abs(g2 - math.sin(x)) < 1e-15
        assert abs(g1 * g1 + g2 * g2 - 1.0) < 1e-15


def test_linear_lift():
    lift = fl.lift_curve(fl.linear_family())
    assert lift.gamma(3.5) == (1.0, 3.5)
    assert lift.kappa(1.0) == 0.0


def test_generic_lift_matches_family_lift_between_poles():
    # strip the closed-form lift and rebuild from f alone; valid on (0, pi/2)
    cur = fl.tan_family(0.0)
    bare = fl.ProjectiveCurve(f=cur.f, period=cur.period, c=cur.c)
    lift = fl.lift_curve(bare)
    for x in (0.1, 0.5, 1.2):
        assert abs(lift.g1(x) - math.cos(x)) < 1e-12
        assert abs(lift.g2(x) - math.sin(x)) < 1e-12
        assert abs(lift.kappa(x) + 1.0) < 1e-9


def test_second_derivative_via_potential():
    lift = fl.lift_curve(fl.tan_family(0.2))
    h = 1e-4
    for x in (0.3, 1.0, 2.5):
        fd = (lift.g1(x + h) - 2 * lift.g1(x) + lift.g1(x - h)) / h**2
        assert abs(lift.d2gamma(x)[0] - fd) < 1e-5


def test_admissibility_guard():
    fl.tan_family(0.3).require_admissible()
    with pytest.raises(fl.DerivativeVanishes):
        fl.tan_family(0.9).require_admissible()


def test_compose_chain_rule():
    f = trig_poly(math.pi, {1: (0.0, 1.0)})
    phi = trig_poly(math.pi, {2: (0.3, 0.0)})
    comp = sf_compose(f, phi)
    assert derivative_consistency(comp, [0.2, 0.9, 1.7]) < 1e-6


def test_generic_lift_rejects_decreasing_f():
    f = trig_poly(2 * math.pi, {1: (1.0, 0.0)})  # cos: f' < 0 on (0, pi)
    lift = fl.lift_curve(fl.ProjectiveCurve(f=f, period=None, c=0.5))
    with pytest.raises(fl.DerivativeVanishes):
        lift.g1(1.0)


def test_from_callable_fd_fallback():
    from frieze_lab.curves import from_callable

    f = from_callable(math.sin)
    assert abs(f.d1(0.3) - math.cos(0.3)) < 1e-7
    assert abs(f.d2(0.3) + math.sin(0.3)) < 1e-6
    assert abs(f.d3(0.3) + math.cos(0.3)) < 1e-3


# ---------------------------------------------------------------------------
# the array contract: one call on an array equals one call per float point

RNG = np.random.default_rng(20131221)
PTS = RNG.uniform(0.0, math.pi, 64)
PTS_Y = PTS + RNG.uniform(0.2, math.pi - 0.2, 64)


def assert_elementwise(fn, *coords):
    got = on_grid(fn, *coords)
    cols = np.broadcast_arrays(*coords)
    ref = [fn(*(float(c.flat[i]) for c in cols)) for i in range(got.size)]
    np.testing.assert_allclose(got.ravel(), ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_tan_family_evaluators_are_elementwise(s):
    cur = fl.tan_family(s)
    lift = fl.lift_curve(cur)
    f, inv = cur.f, cur.inv_d1
    for fn in (f.value, f.d1, f.d2, f.d3, f.d4, inv.value, inv.d1, inv.d2, inv.d3):
        assert_elementwise(fn, PTS)
    for fn in (lift.g1, lift.g2, lift.dg1, lift.dg2, lift.kappa, cur.dkappa, cur.branch_count):
        assert_elementwise(fn, PTS)


def test_trig_poly_is_elementwise():
    f = trig_poly(math.pi, {0: (0.3, 0.0), 1: (0.5, -0.2), 3: (0.0, 0.25)})
    for order in range(5):
        assert_elementwise(lambda x: f.deriv(order, x), PTS)


def test_frieze_evaluators_are_elementwise():
    cur = fl.tan_family(0.3)
    G = fl.frieze_genform(cur)
    for fn in (G.F, G.Fx, G.Fy, G.Fxy):
        assert_elementwise(fn, PTS, PTS_Y)
    tl = fl.tangent_lift(cur, trig_poly(math.pi, {0: (0.5, 0.0), 1: (-0.5, 0.0)}))
    for fn in (tl.x1, tl.x2, tl.dx1, tl.dx2):
        assert_elementwise(fn, PTS)
    pot = fl.potential_from_frieze(fl.frieze_from_curve(fl.lift_curve(cur)))
    assert_elementwise(pot.kappa, PTS)


def test_guard_messages_name_one_point():
    s = fl.schwarzian(trig_poly(2 * math.pi, {1: (1.0, 0.0)}))  # cos: f'(0) = f'(pi) = 0
    with pytest.raises(fl.DerivativeVanishes) as err:
        s(np.array([0.5, 0.0, math.pi]))
    assert str(err.value) == "f'(0.0) ~ 0"
    with pytest.raises(fl.NonPositiveF) as err:
        fl.curvature_conformal(
            fl.frieze_from_components(F=lambda x, y: y - x), grid=16, domain=((0.0, 1.0), (-2.0, -1.0))
        )
    assert str(err.value) == "F(0.0, -2.0) <= 0"


def test_admissibility_rejects_nan():
    with pytest.raises(fl.DerivativeVanishes):
        fl.tan_family(float("nan")).require_admissible()
