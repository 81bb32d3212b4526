import math

import numpy as np
import pytest

import frieze_lab as fl
from frieze_lab.curves import trig_poly
from frieze_lab.limit import DiscretizationScheme, constraint_defect, scaled_monodromy_defect
from frieze_lab.recurrence import det2

T = math.pi
XI = trig_poly(T, {0: (0.5, 0.0), 1: (-0.5, 0.0)})  # sin^2 x
ETA = trig_poly(T, {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)})
XI3 = trig_poly(T, {0: (0.375, 0.0), 1: (-0.5, 0.0), 2: (0.125, 0.0)})  # sin^4 x
XI4 = trig_poly(T, {1: (0.0, 0.25), 2: (0.0, -0.125)})  # sin^2 x sin 2x


def test_sample_polygon_circle_determinants():
    # unit circle samples: [V_i, V_{i+1}] = sin(eps)/eps = 1 - eps^2/6 + ...
    lift = fl.lift_curve(fl.tan_family(0.0))
    defects = {}
    for n in (100, 200):
        scheme = DiscretizationScheme(n=n, period=T)
        [poly] = fl.sample_polygon(lift, scheme)
        eps = scheme.eps
        expected = math.sin(eps) / eps
        assert max(abs(det2(poly[i], poly[i + 1]) - expected) for i in range(n - 1)) < 1e-12
        defects[n] = fl.unit_determinant_defect(poly)
    # second-order defect: doubling n shrinks it by ~4
    assert 3.7 < defects[100] / defects[200] < 4.3


def test_sample_polygon_antiperiodicity():
    lift = fl.lift_curve(fl.tan_family(0.2))
    for n in (64, 128):
        scheme = DiscretizationScheme(n=n, period=T)
        [poly] = fl.sample_polygon(lift, scheme)
        w = scheme.eps**-0.5
        drift = max(
            abs(poly[i][k] + w * (lift.g1, lift.g2)[k]((i + n) * scheme.eps))
            for i in (0, n // 3)
            for k in (0, 1)
        )
        assert drift < 1e-9 * w


def test_quiddity_from_potential_monodromy():
    # second-difference scheme: the period map in (value, divided-difference)
    # coordinates tends to -Id at rate eps^2
    defects = {}
    for n in (100, 200, 400):
        eq = fl.quiddity_from_potential(lambda x: -1.0, DiscretizationScheme(n=n, period=T))
        defects[n] = scaled_monodromy_defect(eq, T)
    assert defects[200] < 1e-3
    assert 3.7 < defects[100] / defects[200] < 4.3
    assert 3.7 < defects[200] / defects[400] < 4.3


def test_quiddity_constant_two_never_closes():
    eq = fl.quiddity_from_potential(lambda x: 0.0, DiscretizationScheme(n=128, period=T))
    assert all(c == 2.0 for c in eq.c)
    assert not fl.is_closed(eq)


def test_zero_variation_lifts_to_zero():
    cur = fl.tan_family(0.2)
    zero = trig_poly(T, {0: (0.0, 0.0)})
    tl = fl.tangent_lift(cur, zero)
    for x in (0.0, 0.7, 2.1):
        assert tl.x1(x) == 0.0 and tl.x2(x) == 0.0


def test_tangent_lift_derivative_consistency():
    cur = fl.tan_family(0.2)
    tl = fl.tangent_lift(cur, XI)
    h = 1e-5
    for x in (0.3, 1.0, 2.5):
        fd1 = (tl.x1(x + h) - tl.x1(x - h)) / (2 * h)
        fd2 = (tl.x2(x + h) - tl.x2(x - h)) / (2 * h)
        assert abs(tl.dx1(x) - fd1) < 1e-7
        assert abs(tl.dx2(x) - fd2) < 1e-7


def test_constraint_defect_second_order():
    cur = fl.tan_family(0.2)
    xi = fl.gauge_variation(cur, XI)
    defects = {}
    for n in (100, 200, 400):
        scheme = DiscretizationScheme(n=n, period=T)
        poly, tang = fl.sample_polygon(fl.lift_curve(cur), scheme, xi)
        defects[n] = constraint_defect(poly, tang)
    assert 3.5 < defects[100] / defects[200] < 4.5
    assert 3.5 < defects[200] / defects[400] < 4.5


def test_polygon_tangent_gauge_exact():
    cur = fl.tan_family(0.2)
    scheme = DiscretizationScheme(n=128, period=T)
    _, tang = fl.sample_polygon(fl.lift_curve(cur), scheme, fl.gauge_variation(cur, XI))
    assert tang[-1].tolist() == [0.0, 0.0]


def test_gauge_variation_pins_basepoint():
    cur = fl.tan_family(0.2)
    g = fl.gauge_variation(cur, ETA)
    assert abs(g(0.0)) < 1e-15
    assert abs(g.d1(0.0)) < 1e-15
    # the lifted tangent then vanishes at the basepoint
    tl = fl.tangent_lift(cur, g)
    assert abs(tl.x1(0.0)) < 1e-15 and abs(tl.x2(0.0)) < 1e-15


def test_continuum_integral_equals_scaled_orbit_form():
    for s in (0.0, 0.2, 0.3):
        for c in (0.5, 1.0, 0.25):
            cur = fl.tan_family(s, c=c)
            xi = fl.gauge_variation(cur, XI)
            eta = fl.gauge_variation(cur, ETA)
            lift = fl.lift_curve(cur)
            val = fl.continuum_integral(lift, fl.tangent_lift(cur, xi), fl.tangent_lift(cur, eta))
            omek = fl.kirillov_form_curve(cur, xi, eta)
            assert abs(val + omek / (4.0 * c)) < 1e-8


def test_continuum_integral_bilinear():
    cur = fl.tan_family(0.1)
    xi = fl.gauge_variation(cur, XI)
    eta = fl.gauge_variation(cur, ETA)
    two_xi = trig_poly(T, {k: (2 * a, 2 * b) for k, (a, b) in {0: (0.5, 0.0), 1: (-0.5, 0.0)}.items()})
    two_xi = fl.gauge_variation(cur, two_xi)
    lift = fl.lift_curve(cur)
    v1 = fl.continuum_integral(lift, fl.tangent_lift(cur, xi), fl.tangent_lift(cur, eta))
    v2 = fl.continuum_integral(lift, fl.tangent_lift(cur, two_xi), fl.tangent_lift(cur, eta))
    assert abs(v2 - 2.0 * v1) < 1e-12


def test_gauge_insensitivity():
    # shifting the variation by a Moebius direction (here a constant, i.e.
    # delta f = alpha) leaves the continuum integral unchanged
    cur = fl.tan_family(0.2)
    lift = fl.lift_curve(cur)
    eta = fl.gauge_variation(cur, ETA)
    shifted = trig_poly(T, {0: (0.5 + 0.7, 0.0), 1: (-0.5, 0.0)})  # XI + 0.7
    v1 = fl.continuum_integral(
        lift,
        fl.tangent_lift(cur, fl.gauge_variation(cur, XI)),
        fl.tangent_lift(cur, eta),
    )
    v2 = fl.continuum_integral(
        lift,
        fl.tangent_lift(cur, fl.gauge_variation(cur, shifted)),
        fl.tangent_lift(cur, eta),
    )
    assert abs(v1 - v2) < 1e-8


def test_discrete_form_converges():
    cur = fl.tan_family(0.2, c=0.5)
    report = fl.convergence_study(cur, XI, ETA, [100, 200, 400])
    errs = [r.err_integral for r in report.records]
    assert errs[0] > errs[1] > errs[2]
    # empirically second order
    for o in report.observed_orders:
        assert 1.7 < o < 2.3
    # boundary cells outside the sum vanish in the limit
    bs = [abs(r.boundary_cells) for r in report.records]
    assert bs[0] > bs[1] > bs[2]


def test_study_calls_the_two_primitives_by_name(monkeypatch):
    # the bench books limit.sample_busy_s and limit.discrete_form_busy_s to
    # these module attributes; a rename or a bypass would zero them silently
    import frieze_lab.limit as limit

    calls = {"sample_polygon": 0, "discrete_form_value": 0}
    for name in calls:
        def counted(*args, _fn=getattr(limit, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(limit, name, counted)
    ns = [16, 32, 64]
    report = fl.convergence_study(fl.tan_family(0.2), XI, ETA, ns, nodes=64)
    assert calls == {"sample_polygon": len(ns), "discrete_form_value": len(ns)}
    assert [r.n for r in report.records] == ns


def test_study_zero_on_equal_variations():
    cur = fl.tan_family(0.2)
    report = fl.convergence_study(cur, XI, XI, [100, 200])
    assert all(r.discrete == 0.0 for r in report.records)
    assert report.integral == 0.0 and report.kirillov_scaled == 0.0


def test_study_requires_increasing_n():
    cur = fl.tan_family(0.2)
    with pytest.raises(ValueError):
        fl.convergence_study(cur, XI, ETA, [200, 100])


def test_study_rejects_repeated_n():
    cur = fl.tan_family(0.2)
    with pytest.raises(ValueError):
        fl.convergence_study(cur, XI, ETA, [100, 100])


def test_study_runs_at_minimum_n():
    report = fl.convergence_study(fl.tan_family(0.2), XI, ETA, [8], nodes=64)
    assert report.records[0].n == 8
    assert math.isfinite(report.records[0].discrete)
    with pytest.raises(ValueError):
        fl.convergence_study(fl.tan_family(0.2), XI, ETA, [7, 16])


def _sampled_data(cur, n, xi, eta):
    scheme = DiscretizationScheme(n=n, period=T)
    return fl.sample_polygon(fl.lift_curve(cur), scheme, *(fl.gauge_variation(cur, v) for v in (xi, eta)))


def test_discrete_form_matches_exact_loop_on_floats():
    # the array sum against cluster.omega_geometric's loop on the same floats
    cur = fl.tan_family(0.2)
    for xi, eta in ((XI, ETA), (XI3, XI4)):
        for n in (100, 400):
            poly, pxi, peta = _sampled_data(cur, n, xi, eta)
            ref = float(fl.omega_geometric(poly, pxi, peta))
            got, _ = fl.discrete_form_value(poly, pxi, peta)
            assert abs(got - ref) <= 1e-13 * abs(ref)


def test_boundary_cells_match_bracket_formula():
    cur = fl.tan_family(0.2)
    for n in (100, 400):
        poly, pxi, peta = _sampled_data(cur, n, XI, ETA)
        vl = poly[n - 1]
        ref = 0.0
        for i in (0, n - 3):
            num = det2(vl, pxi[i]) * det2(vl, peta[i + 1]) - det2(vl, pxi[i + 1]) * det2(vl, peta[i])
            ref += num / (det2(vl, poly[i]) * det2(vl, poly[i + 1]))
        _, got = fl.discrete_form_value(poly, pxi, peta)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_float_gauge_violation():
    cur = fl.tan_family(0.2)
    poly, pxi, peta = _sampled_data(cur, 64, XI, ETA)
    bad = pxi.copy()
    bad[-1] = (1e-6, 0.0)
    for args in ((poly, bad, peta), (poly, peta, bad)):
        with pytest.raises(fl.GaugeViolation):
            fl.discrete_form_value(*args)


def test_scheme_minimum_size():
    with pytest.raises(ValueError):
        DiscretizationScheme(n=4, period=T)


def test_second_component_vanishes_guard():
    lift = fl.lift_curve(fl.linear_family())
    # Gamma_2 = x vanishes near the first midpoint node when the period is big
    deg = fl.lift_from_components(
        g1=lift.g1, g2=lambda x: 0.0, dg1=lift.dg1, dg2=lambda x: 0.0,
        kappa=lift.kappa, period=T,
    )
    cur = fl.tan_family(0.0)
    tl = fl.tangent_lift(cur, XI)
    with pytest.raises(fl.SecondComponentVanishes):
        fl.continuum_integral(deg, tl, tl, nodes=64)


def test_boundary_cells_are_finite():
    cur = fl.tan_family(0.2)
    scheme = DiscretizationScheme(n=128, period=T)
    xi, eta = fl.gauge_variation(cur, XI), fl.gauge_variation(cur, ETA)
    poly, xi, eta = fl.sample_polygon(fl.lift_curve(cur), scheme, xi, eta)
    assert math.isfinite(fl.discrete_form_value(poly, xi, eta)[1])


def test_tangent_lift_matches_deformed_lift_fd():
    # independent oracle: differentiate the canonical lift of f + t*xi in t by
    # central differences, on the pole-free span; this pins the f-carrying
    # second component of the differentiated lift formula
    from frieze_lab.curves import sf_combine

    cur = fl.tan_family(0.0)
    tl = fl.tangent_lift(cur, XI)
    t = 1e-6
    for x in (0.2, 0.6, 1.1, 1.4):
        vals = {}
        for sgn in (+1, -1):
            f_t = sf_combine([(1.0, cur.f), (sgn * t, XI)])
            lift_t = fl.lift_curve(fl.ProjectiveCurve(f=f_t, period=T, c=0.5))
            vals[sgn] = lift_t.gamma(x)
        fd = tuple((vals[1][k] - vals[-1][k]) / (2 * t) for k in (0, 1))
        assert abs(fd[0] - tl.x1(x)) < 1e-9
        assert abs(fd[1] - tl.x2(x)) < 1e-9
