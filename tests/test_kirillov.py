import math

import pytest

import frieze_lab as fl
from frieze_lab.curves import sf_compose, trig_poly
from frieze_lab.hill import HillPotential, potential_from_constant

T = math.pi

# bounded pi-periodic test variations (harmonics of e^{2ix})
XI = trig_poly(T, {0: (0.5, 0.0), 1: (-0.5, 0.0)})  # sin^2 x
ETA = trig_poly(T, {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)})


def family_potential(s, c=0.5):
    cur = fl.tan_family(s, c=c)
    return cur, HillPotential(
        kappa=fl.lift_curve(cur).kappa, c=c, period=T, dkappa=cur.dkappa
    )


def test_antisymmetry():
    _, pot = family_potential(0.0)
    X = trig_poly(T, {2: (0.0, 1.0)})
    assert abs(fl.kirillov_form_fields(pot, X, X)) < 1e-12


def test_fields_two_lines_agree_constant_potential():
    # hand value at k = 2c, X = sin 4x, Y = cos 4x:
    # int k(XY'-X'Y) = -4k pi and -c int X'Y'' = 32 pi c, total 24 pi c
    c = 0.5
    pot = potential_from_constant(-1.0, c=c, period=T)  # k = 2c
    X = trig_poly(T, {2: (0.0, 1.0)})
    Y = trig_poly(T, {2: (1.0, 0.0)})
    v1, v2 = fl.kirillov_form_fields_both(pot, X, Y)
    assert abs(v1 - 24.0 * math.pi * c) < 1e-10
    assert abs(v1 - v2) < 1e-10


def test_fields_two_lines_agree_family():
    for s in (0.0, 0.2, 0.3):
        _, pot = family_potential(s)
        X = trig_poly(T, {2: (0.0, 1.0)})
        Y = trig_poly(T, {2: (1.0, 0.0), 3: (0.0, 0.5)})
        v1, v2 = fl.kirillov_form_fields_both(pot, X, Y)
        assert abs(v1 - v2) < 1e-8 * max(1.0, abs(v1))


def test_constant_field_constant_potential_gives_zero():
    pot = potential_from_constant(-1.0, c=0.5, period=T)
    X = trig_poly(T, {0: (1.0, 0.0)})
    Y = trig_poly(T, {2: (1.0, 0.0)})
    assert abs(fl.kirillov_form_fields(pot, X, Y)) < 1e-12


def test_stabilizer_direction_in_kernel():
    # at the round point the potential is constant and sin 2x generates a
    # projective motion: the form vanishes against every Y
    _, pot = family_potential(0.0)
    Xs = trig_poly(T, {1: (0.0, 1.0)})
    for Y in (trig_poly(T, {2: (1.0, 0.0)}), trig_poly(T, {3: (0.0, 1.0)})):
        assert abs(fl.kirillov_form_fields(pot, Xs, Y)) < 1e-12


def test_curve_form_antisymmetry():
    cur = fl.tan_family(0.2)
    assert fl.kirillov_form_curve(cur, XI, XI) == 0.0


def test_curve_form_is_twice_field_form():
    # the variation dictionary xi = X f' makes the curve integral exactly
    # double the field form; this pins the convention factor
    for s in (0.0, 0.2):
        cur, pot = family_potential(s)
        X = fl.field_from_variation(cur, XI)
        Y = fl.field_from_variation(cur, ETA)
        wf = fl.kirillov_form_fields(pot, X, Y)
        wc = fl.kirillov_form_curve(cur, XI, ETA)
        assert abs(wc - 2.0 * wf) < 1e-8 * max(1.0, abs(wc))


def test_curve_form_reparameterization_invariance():
    cur = fl.tan_family(0.2)
    base = fl.kirillov_form_curve(cur, XI, ETA)
    # substitute x -> x + 0.1 sin 2x in the curve and both variations
    wig = trig_poly(T, {1: (0.0, 0.1)})
    phi = fl.from_derivatives(
        lambda x: x + wig.value(x), lambda x: 1.0 + wig.d1(x), wig.d2, wig.d3, period=T
    )
    f2 = sf_compose(cur.f, phi)
    cur2 = fl.ProjectiveCurve(f=f2, period=T, c=cur.c)
    got = fl.kirillov_form_curve(cur2, sf_compose(XI, phi), sf_compose(ETA, phi))
    assert abs(got - base) < 1e-6


def test_quadrature_disagreement_guard():
    # lying about the potential derivative must trip the cross-check
    pot = HillPotential(
        kappa=fl.lift_curve(fl.tan_family(0.3)).kappa,
        c=0.5,
        period=T,
        dkappa=lambda x: 0.0,
    )
    X = trig_poly(T, {2: (0.0, 1.0)})
    Y = trig_poly(T, {2: (1.0, 0.0), 3: (0.0, 0.5)})
    with pytest.raises(fl.QuadratureDisagreement):
        fl.kirillov_form_fields(pot, X, Y)


def test_quadrature_spectral_convergence():
    # doubling nodes changes smooth periodic integrals below 1e-10
    cur = fl.tan_family(0.2)
    v1 = fl.kirillov_form_curve(cur, XI, ETA, nodes=1024)
    v2 = fl.kirillov_form_curve(cur, XI, ETA, nodes=2048)
    v3 = fl.kirillov_form_curve(cur, XI, ETA, nodes=4096)
    assert abs(v2 - v1) < 1e-10
    assert abs(v3 - v2) < 1e-10


def test_field_from_variation_conditioned_at_poles():
    # the quotient-rule third derivative of xi/f' cancels at scale f^2 at the
    # poles of f; the family's closed-form 1/f' keeps it finite and tiny there
    cur = fl.tan_family(0.2)
    X = fl.field_from_variation(cur, XI)
    assert abs(X.d3(math.pi / 2)) < 1e-9
    # mixed pairing with a Y that does not vanish at the pole stays consistent
    _, pot = family_potential(0.2)
    Y = trig_poly(T, {2: (1.0, 0.0)})
    v1, v2 = fl.kirillov_form_fields_both(pot, X, Y)
    assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))
