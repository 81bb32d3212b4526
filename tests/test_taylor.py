"""Taylor rules of SmoothFunction against independent references."""

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
