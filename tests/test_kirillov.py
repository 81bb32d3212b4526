import itertools
import math
from fractions import Fraction as Fr

import frieze_lab as fl
from frieze_lab.curves import sf_compose, trig_poly
from frieze_lab.hill import HillPotential, potential_from_constant

T = math.pi

# bounded pi-periodic test variations (harmonics of e^{2ix})
XI = trig_poly(T, {0: (0.5, 0.0), 1: (-0.5, 0.0)})  # sin^2 x
ETA = trig_poly(T, {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)})


def agreed_fields_form(pot, X, Y):
    """Line 1 of the field form, after checking that line 2 agrees to 1e-8 relative."""
    line1, line2 = fl.kirillov_form_fields_both(pot, X, Y)
    assert abs(line1 - line2) <= 1e-8 * max(1.0, abs(line1), abs(line2))
    return line1


def family_potential(s, c=0.5):
    cur = fl.tan_family(s, c=c)
    return cur, HillPotential(
        kappa=fl.lift_curve(cur).kappa, c=c, period=T, dkappa=cur.dkappa
    )


def test_antisymmetry():
    _, pot = family_potential(0.0)
    X = trig_poly(T, {2: (0.0, 1.0)})
    assert abs(agreed_fields_form(pot, X, X)) < 1e-12


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
    assert abs(agreed_fields_form(pot, X, Y)) < 1e-12


def test_stabilizer_direction_in_kernel():
    # at the round point the potential is constant and sin 2x generates a
    # projective motion: the form vanishes against every Y
    _, pot = family_potential(0.0)
    Xs = trig_poly(T, {1: (0.0, 1.0)})
    for Y in (trig_poly(T, {2: (1.0, 0.0)}), trig_poly(T, {3: (0.0, 1.0)})):
        assert abs(agreed_fields_form(pot, Xs, Y)) < 1e-12


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
        wf = agreed_fields_form(pot, X, Y)
        wc = fl.kirillov_form_curve(cur, XI, ETA)
        assert abs(wc - 2.0 * wf) < 1e-8 * max(1.0, abs(wc))


def test_curve_form_reparameterization_invariance():
    cur = fl.tan_family(0.2)
    base = fl.kirillov_form_curve(cur, XI, ETA)
    # substitute x -> x + 0.1 sin 2x in the curve and both variations
    wig = trig_poly(T, {1: (0.0, 0.1)})
    phi = fl.from_derivatives(
        lambda x: x + wig.value(x), lambda x: 1.0 + wig.d1(x), wig.d2, wig.d3
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
    line1, line2 = fl.kirillov_form_fields_both(pot, X, Y)
    assert abs(line1 - line2) > 1e-8 * max(1.0, abs(line1), abs(line2))


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


def _times_cos_squared(harmonics):
    """Exact harmonics of xi cos^2 x = xi/2 + xi cos(2x)/2, xi given as {m: (a, b)} in cos 2mx, sin 2mx."""
    out = {}

    def add(m, a, b):
        a0, b0 = out.get(m, (Fr(0), Fr(0)))
        out[m] = (a0 + a, b0 + b)

    for m, (a, b) in harmonics.items():
        a, b = Fr(a), Fr(b)
        add(m, a / 2, b / 2)
        add(m + 1, a / 4, b / 4)
        # cos(2(m-1)x) and sin(2(m-1)x); at m = 0 these are cos 2x and -sin 2x
        add(abs(m - 1), a / 4, b / 4 if m >= 1 else -b / 4)
    return out


def _closed_form_over_c_pi(xi, eta):
    """omega_K(X, Y) / (c pi) at s = 0, as an exact rational.

    At s = 0 the tan family is the round curve: kappa = -1, so k = 2c, on
    the period pi, and X = xi / f' = xi cos^2 x.  A pair of modes cos 2mx,
    sin 2mx pairs to pi (k nu - c nu^3 / 2) with nu = 2m, that is
    c pi 4m (1 - m^2); different modes and constants pair to 0.
    """
    X, Y = _times_cos_squared(xi), _times_cos_squared(eta)
    total = Fr(0)
    for m in set(X) & set(Y):
        (ax, bx), (ay, by) = X[m], Y[m]
        total += 4 * m * (1 - m * m) * (ax * by - bx * ay)
    return total


def test_field_lines_match_closed_forms_at_s_zero():
    from frieze_lab.cli import VARIATIONS
    from frieze_lab.kirillov import field_from_variation

    spot = {("bump1", "bump2"): Fr(3, 8), ("bump2", "bump3"): Fr(-3, 16),
            ("bump3", "bump4"): Fr(3, 32), ("bump1", "bump4"): Fr(0)}
    for pair, value in spot.items():
        assert _closed_form_over_c_pi(*(VARIATIONS[name] for name in pair)) == value
    for c in (0.5, 1.3):
        cur, pot = family_potential(0.0, c=c)
        for xi, eta in itertools.product(sorted(VARIATIONS), repeat=2):
            X, Y = (field_from_variation(cur, trig_poly(T, VARIATIONS[name])) for name in (xi, eta))
            expected = float(_closed_form_over_c_pi(VARIATIONS[xi], VARIATIONS[eta])) * c * math.pi
            for line in fl.kirillov_form_fields_both(pot, X, Y):
                if expected == 0:
                    assert abs(line) <= 1e-15, (c, xi, eta, line)
                else:
                    assert abs(line - expected) <= 1e-14 * abs(expected), (c, xi, eta, line, expected)
