import math

import numpy as np
import pytest

import frieze_lab as fl
from frieze_lab.continuous import ContinuousFrieze, is_closed_frieze, potential_y_spread


def sin_frieze():
    return fl.frieze_from_curve(fl.lift_curve(fl.tan_family(0.0)))


def test_round_curve_gives_sine():
    Fz = sin_frieze()
    xs = (np.arange(64) + 0.5) * (math.pi / 64)
    us = np.linspace(0.05, math.pi - 0.05, 64)
    worst = max(
        abs(Fz.F(float(x), float(x + u)) - math.sin(float(u))) for x in xs for u in us
    )
    assert worst < 1e-12


def test_two_curve_frieze_one_plus_xy():
    # Gamma = (x, -1), Gamma~ = (1, y): both have unit bracket with their
    # derivative, and the mixed bracket is 1 + xy
    ga = fl.LiftedCurve(
        g1=lambda x: x, g2=lambda x: -1.0,
        dg1=lambda x: 1.0, dg2=lambda x: 0.0,
        kappa=lambda x: 0.0, period=None,
    )
    gb = fl.LiftedCurve(
        g1=lambda x: 1.0, g2=lambda x: x,
        dg1=lambda x: 0.0, dg2=lambda x: 1.0,
        kappa=lambda x: 0.0, period=None,
    )
    H = fl.frieze_from_curve(ga, gb)
    assert abs(H.F(0.5, 2.0) - 2.0) < 1e-15
    assert fl.liouville_residual(H, grid=32, domain=((0.1, 2.0), (0.1, 2.0))) < 1e-12


def test_linear_frieze():
    Fz = fl.frieze_from_curve(fl.lift_curve(fl.linear_family()))
    for x, y in ((0.0, 1.0), (0.3, 2.5)):
        assert abs(Fz.F(x, y) - (y - x)) < 1e-15
    assert fl.liouville_residual(Fz, grid=32, domain=((0.0, 1.0), (1.5, 3.0))) < 1e-12


def test_genform_matches_lift_route():
    # pointwise agreement of the two independently-evaluated constructions,
    # including across the pole of f (branch-corrected square root)
    for s in (0.0, 0.1, 0.3):
        cur = fl.tan_family(s)
        A = fl.frieze_from_curve(fl.lift_curve(cur))
        B = fl.frieze_genform(cur)
        xs = (np.arange(48) + 0.5) * (math.pi / 48)
        us = np.linspace(0.15, math.pi - 0.15, 33)
        worst = max(
            abs(A.F(float(x), float(x + u)) - B.F(float(x), float(x + u)))
            for x in xs
            for u in us
        )
        assert worst < 1e-12


def test_genform_exp():
    # f = exp on a window: (e^y - e^x)/e^((x+y)/2) = 2 sinh((y-x)/2)
    e = fl.from_derivatives(math.exp, math.exp, math.exp, math.exp, math.exp)
    cur = fl.ProjectiveCurve(f=e, period=None, c=0.5)
    G = fl.frieze_genform(cur)
    for x, y in ((0.0, 1.0), (-0.5, 0.7), (0.2, 2.0)):
        assert abs(G.F(x, y) - 2.0 * math.sinh((y - x) / 2.0)) < 1e-12


def test_liouville_residuals_family():
    for s in (0.0, 0.1, 0.3):
        cur = fl.tan_family(s)
        assert fl.liouville_residual(fl.frieze_from_curve(fl.lift_curve(cur)), grid=32) < 1e-12
        assert fl.liouville_residual(fl.frieze_genform(cur), grid=32) < 1e-10


def test_liouville_residual_fd_fallback():
    Fz = ContinuousFrieze(F=lambda x, y: 1.0 + x * y, period=None)
    res = fl.liouville_residual(Fz, grid=32, domain=((0.2, 2.0), (0.2, 2.0)), h=1e-3)
    assert res < 1e-5  # FD truncation dominates the fallback path


def test_power_product_family_residual_value():
    # F = (xy)^t + (xy)^(1-t) satisfies F F_xy - F_x F_y = (1-2t)^2, a constant
    # that equals 1 only for t in {0, 1}; at t = 0.3 the Liouville defect is
    # |(1-2t)^2 - 1| = 4t(1-t) = 0.84 exactly.
    t = 0.3

    def F(x, y):
        return (x * y) ** t + (x * y) ** (1 - t)

    def Fx(x, y):
        return (t * (x * y) ** t + (1 - t) * (x * y) ** (1 - t)) / x

    def Fy(x, y):
        return (t * (x * y) ** t + (1 - t) * (x * y) ** (1 - t)) / y

    def Fxy(x, y):
        return (t**2 * (x * y) ** t + (1 - t) ** 2 * (x * y) ** (1 - t)) / (x * y)

    Fz = ContinuousFrieze(F=F, Fx=Fx, Fy=Fy, Fxy=Fxy, period=None)
    res = fl.liouville_residual(Fz, grid=32, domain=((0.5, 2.0), (0.5, 2.0)))
    assert abs(res - (1.0 - (1.0 - 2 * t) ** 2)) < 1e-10


def test_power_product_normalized_solves_liouville():
    # dividing by (1 - 2t) restores the unit bracket normalization
    t = 0.3
    scale = 1.0 - 2 * t

    def F(x, y):
        return ((x * y) ** t + (x * y) ** (1 - t)) / scale

    def Fx(x, y):
        return (t * (x * y) ** t + (1 - t) * (x * y) ** (1 - t)) / (x * scale)

    def Fy(x, y):
        return (t * (x * y) ** t + (1 - t) * (x * y) ** (1 - t)) / (y * scale)

    def Fxy(x, y):
        return (t**2 * (x * y) ** t + (1 - t) ** 2 * (x * y) ** (1 - t)) / (x * y * scale)

    Fz = ContinuousFrieze(F=F, Fx=Fx, Fy=Fy, Fxy=Fxy, period=None)
    assert fl.liouville_residual(Fz, grid=32, domain=((0.5, 2.0), (0.5, 2.0))) < 1e-12


def test_boundary_conditions_family():
    for s in (0.0, 0.3):
        Fz = fl.frieze_from_curve(fl.lift_curve(fl.tan_family(s)))
        res = fl.boundary_check(Fz, math.pi)
        assert all(v < 1e-12 for v in res.values())
        assert is_closed_frieze(Fz, math.pi)


def test_linear_frieze_not_closed():
    Fz = fl.frieze_from_curve(fl.lift_curve(fl.linear_family()))
    res = fl.boundary_check(Fz, math.pi)
    assert res["diagonal_zero"] < 1e-12 and res["unit_slope"] < 1e-12
    assert res["antiperiodicity"] > 1.0  # no finite period closes y - x
    assert not is_closed_frieze(Fz, math.pi)


def test_potential_recovery():
    for s in (0.0, 0.2):
        cur = fl.tan_family(s, c=0.5)
        Fz = fl.frieze_from_curve(fl.lift_curve(cur))
        pot = fl.potential_from_frieze(Fz, c=0.5)
        sw = fl.schwarzian(cur.f)
        pts = [0.2, 0.8, 1.1, 2.2, 2.9]
        # curvature convention kappa = -S(f)/2, i.e. hill_k = c S(f)
        assert max(abs(pot.kappa(x) + 0.5 * sw(x)) for x in pts) < 1e-6
        assert max(abs(pot.hill_k(x) - 0.5 * sw(x)) for x in pts) < 1e-6
        assert potential_y_spread(Fz, pts) < 1e-6


def test_potential_recovery_named_values():
    # F = sin(y-x) has F_xx = -F, so kappa = -1; F = y - x gives kappa = 0
    pot = fl.potential_from_frieze(sin_frieze(), c=0.5)
    assert abs(pot.kappa(0.7) + 1.0) < 1e-6
    lin = fl.frieze_from_curve(fl.lift_curve(fl.linear_family()))
    h = 1e-4
    x, y = 0.3, 2.0
    fxx = (lin.F(x + h, y) - 2 * lin.F(x, y) + lin.F(x - h, y)) / h**2
    assert abs(fxx / lin.F(x, y)) < 1e-8


def test_curvature_constant_minus_one():
    ks, _ = fl.curvature_conformal(sin_frieze(), grid=24)
    assert np.max(np.abs(ks + 1.0)) < 1e-4
    lin = fl.frieze_from_curve(fl.lift_curve(fl.linear_family()))
    ks2, _ = fl.curvature_conformal(lin, grid=24, domain=((0.0, 1.0), (1.5, 3.0)))
    assert np.max(np.abs(ks2 + 1.0)) < 1e-4


def test_curvature_detects_non_solution():
    bad = ContinuousFrieze(F=lambda x, y: (y - x) ** 2, period=None)
    ks, _ = fl.curvature_conformal(bad, grid=16, domain=((0.0, 1.0), (1.5, 3.0)))
    assert np.max(np.abs(ks + 1.0)) > 0.1


def test_curvature_requires_positive_F():
    with pytest.raises(fl.NonPositiveF):
        fl.curvature_conformal(
            ContinuousFrieze(F=lambda x, y: y - x, period=None),
            grid=16,
            domain=((0.0, 1.0), (-2.0, -1.0)),
        )


def test_potential_degenerate_guard():
    Fz = ContinuousFrieze(F=lambda x, y: 0.0, period=math.pi)
    pot = fl.potential_from_frieze(Fz)
    with pytest.raises(fl.DegenerateF):
        pot.kappa(0.5)


def test_liouville_residual_field_shape():
    Fz = sin_frieze()
    vals, pts = fl.liouville_residual_field(Fz, grid=32)
    assert len(vals) == len(pts) == 32 * 32
    assert float(vals.max()) == fl.liouville_residual(Fz, grid=32)


def test_boundary_check_fd_fallback():
    Fz = ContinuousFrieze(F=lambda x, y: np.sin(y - x), period=math.pi)
    res = fl.boundary_check(Fz, math.pi)
    assert res["diagonal_zero"] < 1e-12
    assert res["unit_slope"] < 1e-9 and res["unit_slope_x"] < 1e-9
    assert res["antiperiodicity"] < 1e-12


def test_liouville_grid_guard():
    with pytest.raises(ValueError):
        fl.liouville_residual(sin_frieze(), grid=16)
