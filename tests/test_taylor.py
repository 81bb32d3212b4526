"""Taylor rules of SmoothFunction against independent references."""

import dataclasses
import math

import numpy as np
import pytest

import frieze_lab as fl
from frieze_lab.curves import (
    from_callable,
    from_derivatives,
    sf_compose,
    sf_derivative,
    sf_product,
    sf_reciprocal,
    trig_poly,
)
from frieze_lab.hill import HillPotential

TWO_PI = 2.0 * math.pi
PTS = np.random.default_rng(20131221).uniform(0.0, TWO_PI, 64)
SIN = trig_poly(TWO_PI, {1: (0.0, 1.0)})
COS = trig_poly(TWO_PI, {1: (1.0, 0.0)})


def assert_rows_close(got, ref, tol=1e-13):
    """Relative tolerance, absolute where the reference is exactly zero."""
    got, ref = np.asarray(got), np.broadcast_to(np.asarray(ref, dtype=float), np.shape(got))
    bound = np.where(ref == 0.0, tol, tol * np.abs(ref))
    assert np.all(np.abs(got - ref) <= bound), np.max(np.abs(got - ref) - bound)


def test_taylor_shape():
    assert SIN.taylor(PTS, 3).shape == (4, 64)
    assert SIN.taylor(0.3, 2).shape == (3,)
    assert fl.tan_family(0.2).f.taylor(PTS[:, None], 4).shape == (5, 64, 1)


def test_product_is_leibniz():
    # sin x cos x = sin(2x) / 2
    ref = trig_poly(TWO_PI, {2: (0.0, 0.5)})
    assert_rows_close(sf_product(SIN, COS).taylor(PTS, 4), ref.taylor(PTS, 4))


def test_reciprocal_recurrence():
    b = trig_poly(TWO_PI, {0: (2.0, 0.0), 1: (1.0, 0.0)})  # 2 + cos x
    one = sf_product(b, sf_reciprocal(b))
    assert_rows_close(one.taylor(PTS, 4), np.array([1.0, 0.0, 0.0, 0.0, 0.0])[:, None])


def test_compose_is_faa_di_bruno():
    zero = lambda x: 0.0
    two_x = from_derivatives(lambda x: 2.0 * x, lambda x: 2.0, zero, zero, zero)
    ref = trig_poly(TWO_PI, {2: (0.0, 1.0)})  # sin 2x
    assert_rows_close(sf_compose(SIN, two_x).taylor(PTS, 4), ref.taylor(PTS, 4))


def test_compose_order_is_lowest_operand_order():
    phi = from_derivatives(lambda x: 2.0 * x, lambda x: 2.0, lambda x: 0.0)
    comp = sf_compose(SIN, phi)
    assert comp.order == 2
    assert_rows_close(comp.taylor(PTS, 2), trig_poly(TWO_PI, {2: (0.0, 1.0)}).taylor(PTS, 2))


@pytest.mark.parametrize("s", [0.0, 0.3, -0.45])
def test_tan_taylor_matches_closed_formulas(s):
    # derivatives of u = tan(g), g = x + s sin 2x, through u' = g'(1 + u^2)
    x = PTS / 2.0
    g = x + s * np.sin(2 * x)
    g1 = 1 + 2 * s * np.cos(2 * x)
    g2 = -4 * s * np.sin(2 * x)
    g3 = -8 * s * np.cos(2 * x)
    g4 = 16 * s * np.sin(2 * x)
    u = np.tan(g)
    one = 1 + u * u
    p1 = g1 * one
    p2 = g2 * one + 2 * g1 * u * p1
    p3 = g3 * one + 4 * g2 * u * p1 + 2 * g1 * p1 * p1 + 2 * g1 * u * p2
    p4 = (
        g4 * one
        + 6 * g3 * u * p1
        + 6 * g2 * p1 * p1
        + 6 * g2 * u * p2
        + 6 * g1 * p1 * p2
        + 2 * g1 * u * p3
    )
    ref = np.array([u, p1, p2, p3, p4])
    f = fl.tan_family(s).f
    assert np.array_equal(f.taylor(x, 4), ref)
    for m in range(4):
        assert np.array_equal(f.taylor(x, m), ref[: m + 1])


def test_derivative_views_read_one_row():
    tx = COS.taylor(PTS, 4)
    views = (COS.value, COS.d1, COS.d2, COS.d3, COS.d4)
    for k, view in enumerate(views):
        assert np.array_equal(view(PTS), tx[k])
        assert np.array_equal(COS.deriv(k, PTS), tx[k])
    assert np.array_equal(COS(PTS), tx[0])


def test_deriv_beyond_order_raises():
    cases = (
        SIN,
        sf_derivative(SIN),
        from_callable(math.sin),
        fl.tan_family(0.2).inv_d1,
        sf_product(SIN, sf_derivative(COS)),
    )
    for f in cases:
        f.deriv(f.order, 0.3)
        with pytest.raises(ValueError, match="not available"):
            f.deriv(f.order + 1, 0.3)


def test_kirillov_fields_evaluate_each_node_once(monkeypatch):
    cur = fl.tan_family(0.2, c=0.5)
    pot = HillPotential(kappa=fl.lift_curve(cur).kappa, c=cur.c, period=cur.period, dkappa=cur.dkappa)
    xi = trig_poly(math.pi, {0: (0.5, 0.0), 1: (-0.5, 0.0)})
    eta = trig_poly(math.pi, {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)})
    X, Y = fl.field_from_variation(cur, xi), fl.field_from_variation(cur, eta)
    calls = []
    for name in ("cos", "sin", "tan"):
        ufunc = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _u=ufunc, **kw: calls.append(1) or _u(*a, **kw))
    fl.kirillov_form_fields_both(pot, X, Y, nodes=4096)
    monkeypatch.undo()
    assert 0 < len(calls) <= 60


def count_trig_calls(monkeypatch, fn) -> int:
    calls = []
    for name in ("cos", "sin", "tan"):
        ufunc = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _u=ufunc, **kw: calls.append(1) or _u(*a, **kw))
    fn()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("s", [0.0, 0.3, -0.45])
def test_tan_lift_taylor_matches_closed_formulas(s):
    # Gamma = (cos g, sin g) / sqrt(g') with g = x + s sin 2x, bit for bit
    x = PTS / 2.0
    g = x + s * np.sin(2 * x)
    g1 = 1 + 2 * s * np.cos(2 * x)
    g2 = -4 * s * np.sin(2 * x)
    l1 = np.cos(g) / np.sqrt(g1)
    l2 = np.sin(g) / np.sqrt(g1)
    dl1 = -np.sin(g) * np.sqrt(g1) - 0.5 * np.cos(g) * g2 * g1**-1.5
    dl2 = np.cos(g) * np.sqrt(g1) - 0.5 * np.sin(g) * g2 * g1**-1.5
    lift = fl.lift_curve(fl.tan_family(s))
    got = lift.taylor(x, 1)
    assert got.shape == (2, 2, 64)
    assert np.array_equal(got, np.array([[l1, l2], [dl1, dl2]]))
    assert np.array_equal(lift.taylor(x, 0), got[:1])
    views = (lift.g1, lift.g2, lift.dg1, lift.dg2)
    for view, ref in zip(views, (l1, l2, dl1, dl2)):
        assert np.array_equal(view(x), ref)


@pytest.mark.parametrize("family", ["tan", "linear"])
def test_tangent_lift_taylor_matches_component_formulas(family):
    cur = fl.curve_family(family, s=0.3)
    lift = fl.lift_curve(cur)
    xi = trig_poly(math.pi, {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)})
    x = PTS / 2.0
    a, b, da, db = (view(x) for view in (lift.g1, lift.g2, lift.dg1, lift.dg2))
    v, v1, v2 = xi.taylor(x, 2)
    ref = np.array(
        [
            [-0.5 * v1 * a**3, v * a - 0.5 * v1 * a**2 * b],
            [
                -0.5 * (v2 * a**3 + 3.0 * v1 * a**2 * da),
                v1 * a + v * da - 0.5 * v2 * a**2 * b - 0.5 * v1 * (2.0 * a * da * b + a**2 * db),
            ],
        ]
    )
    tl = fl.tangent_lift(cur, xi)
    assert_rows_close(tl.taylor(x, 1), ref, tol=1e-14)
    assert_rows_close(tl.taylor(x, 0), ref[:1], tol=1e-14)
    for view, row in zip((tl.x1, tl.x2, tl.dx1, tl.dx2), ref.reshape(4, -1)):
        assert_rows_close(view(x), row, tol=1e-14)


def test_lift_from_components_broadcasts_constants():
    lift = fl.lift_from_components(lambda x: 1.0, lambda x: x, lambda x: 0.0, lambda x: 1.0, lambda x: 0.0)
    grid = PTS.reshape(8, 8)
    got = lift.taylor(grid, 1)
    assert got.shape == (2, 2, 8, 8)
    assert np.array_equal(got[0, 0], np.ones((8, 8))) and np.array_equal(got[0, 1], grid)
    assert np.array_equal(got[1], np.stack([np.zeros((8, 8)), np.ones((8, 8))]))
    assert lift.taylor(0.5, 0).shape == (1, 2)
    assert lift.gamma(3.5) == (1.0, 3.5) and lift.period is None


def test_lift_polygon_tangent_trig_calls(monkeypatch):
    cur = fl.tan_family(0.2, c=0.5)
    xi = fl.gauge_variation(cur, trig_poly(math.pi, {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)}))
    scheme = fl.DiscretizationScheme(n=400, period=math.pi)
    lift = fl.lift_curve(cur)
    assert 0 < count_trig_calls(monkeypatch, lambda: fl.sample_polygon(lift, scheme, xi)) <= 20


def test_liouville_field_trig_calls(monkeypatch):
    frieze = fl.frieze_from_curve(fl.lift_curve(fl.tan_family(0.2, c=0.5)))
    assert 0 < count_trig_calls(monkeypatch, lambda: fl.liouville_residual_field(frieze, grid=128)) <= 12


def test_boundary_check_trig_calls(monkeypatch):
    # the antiperiodicity evaluates the right lift once, on the shared x + u grid
    frieze = fl.frieze_from_curve(fl.lift_curve(fl.tan_family(0.2, c=0.5)))
    assert 0 < count_trig_calls(monkeypatch, lambda: fl.boundary_check(frieze, math.pi)) <= 18


def test_convergence_study_samples_lift_once_per_count():
    cur = fl.tan_family(0.2, c=0.5)
    calls = []
    lift = cur.lift
    counted = dataclasses.replace(lift, taylor=lambda x, m: calls.append(m) or lift.taylor(x, m))
    xi = trig_poly(math.pi, {0: (0.5, 0.0), 1: (-0.5, 0.0)})
    eta = trig_poly(math.pi, {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)})
    ns = [100, 200, 400, 800, 1600, 3200, 6400]
    fl.convergence_study(dataclasses.replace(cur, lift=counted), xi, eta, ns, nodes=4096)
    # 3 calls on the quadrature nodes and one per sample count
    assert len(calls) <= 10


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_genform_rows_match_partial_formulas(s):
    cur = fl.tan_family(s)
    x, y = PTS / 2.0, PTS[::-1] / 2.0
    (fx, px, qx), (fy, py, qy) = cur.f.taylor(x, 2), cur.f.taylor(y, 2)
    sign = np.where(cur.branch_count(x) % 2, -1.0, 1.0) * np.where(cur.branch_count(y) % 2, -1.0, 1.0)
    root = np.sqrt(px * py)
    F = sign * (fy - fx) / np.sqrt(px * py)
    Fx = sign * (-px / root - 0.5 * (fy - fx) * qx / (px * root))
    Fy = sign * (py / root - 0.5 * (fy - fx) * qy / (py * root))
    Fxy = sign * (
        0.5 * px * qy / (py * root)
        - 0.5 * py * qx / (px * root)
        + 0.25 * (fy - fx) * qx * qy / (px * py * root)
    )
    G = fl.frieze_genform(cur)
    assert np.array_equal(G.taylor(x, y, 1), np.array([[F, Fy], [Fx, Fxy]]))
    assert np.array_equal(G.taylor(x, y, 0), np.array([[F]]))
    for view, ref in zip((G.F, G.Fx, G.Fy, G.Fxy), (F, Fx, Fy, Fxy)):
        assert np.array_equal(view(x, y), ref)


def test_frieze_from_components_order_and_broadcast():
    one, zero = (lambda x, y: 1.0), (lambda x, y: 0.0)
    assert fl.frieze_from_components(one).order == 0
    assert fl.frieze_from_components(one, Fx=zero, Fy=zero).order == 0
    Fz = fl.frieze_from_components(lambda x, y: 1.0 + x * y, lambda x, y: y, lambda x, y: x, one)
    assert Fz.order == 1 and Fz.period is None
    x, y = PTS[:8, None], PTS[None, 8:16]
    got = Fz.taylor(x, y, 1)
    assert got.shape == (2, 2, 8, 8)
    assert np.array_equal(got[1, 1], np.ones((8, 8)))
    assert np.array_equal(got[1, 0], np.broadcast_to(y, (8, 8)))
    assert np.array_equal(got[0, 0], 1.0 + x * y)
    assert Fz.taylor(0.5, 2.0, 0).shape == (1, 1) and Fz.F(0.5, 2.0) == 2.0
    with pytest.raises(ValueError, match="not available"):
        fl.frieze_from_components(one).Fx(0.5, 2.0)
