import math

import numpy as np
import pytest

import frieze_lab as fl
from frieze_lab.hill import HillPotential, _rk4, count_zeros, potential_from_constant


def test_harmonic_oscillator_monodromy():
    pot = potential_from_constant(-1.0, c=0.5, period=math.pi)
    sol, m = fl.hill_solve(pot, steps=4096)
    assert np.max(np.abs(m + np.eye(2))) < 1e-6
    # with y0 = 1, dy0 = 0 the solution is cos x
    assert np.max(np.abs(sol.ys - np.cos(sol.xs))) < 1e-10


def test_family_potential_antiperiodic():
    for s in (0.0, 0.25):
        cur = fl.tan_family(s, c=0.5)
        lift = fl.lift_curve(cur)
        pot = HillPotential(kappa=lift.kappa, c=0.5, period=math.pi, dkappa=cur.dkappa)
        _, m = fl.hill_solve(pot, steps=4096)
        assert fl.is_antiperiodic(m, tol=1e-6)


def test_zero_potential_not_antiperiodic():
    pot = potential_from_constant(0.0, period=math.pi)
    _, m = fl.hill_solve(pot, steps=256)
    assert not fl.is_antiperiodic(m)
    assert abs(m[0][1] - math.pi) < 1e-12  # affine solutions


def test_hill_k_convention_adapter():
    pot = potential_from_constant(-1.0, c=0.5, period=math.pi)
    # kappa = -1 corresponds to k = -2c*kappa = 1 at c = 1/2
    assert pot.hill_k(0.3) == 1.0


def test_zero_counts():
    T = math.pi
    s_sin = _rk4(lambda x: -1.0, T, 0.0, 1.0, 2048)
    assert count_zeros(s_sin.ys[:-1]) == 1
    s_sin3 = _rk4(lambda x: -9.0, T, 0.0, 3.0, 2048)
    assert count_zeros(s_sin3.ys[:-1]) == 3


def test_grid_too_coarse():
    s = _rk4(lambda x: -400.0, math.pi, 0.0, 1.0, 40)
    with pytest.raises(fl.GridTooCoarse):
        count_zeros(s.ys[:-1])


def test_nonoscillation_family():
    for s in (0.0, 0.2):
        cur = fl.tan_family(s)
        pot = HillPotential(kappa=fl.lift_curve(cur).kappa, c=0.5, period=math.pi)
        assert fl.is_nonoscillating(pot, steps=2048)
    # an oscillating potential fails
    assert not fl.is_nonoscillating(potential_from_constant(-9.0, period=math.pi), steps=2048)


def test_rk4_is_fourth_order():
    errs = []
    for steps in (128, 256):
        s = _rk4(lambda x: -1.0, math.pi, 0.0, 1.0, steps)
        errs.append(abs(s.ys[-1] - math.sin(math.pi)))
    assert 15.0 < errs[0] / errs[1] < 17.0


def test_minimum_steps_guard():
    pot = potential_from_constant(-1.0, period=math.pi)
    with pytest.raises(ValueError):
        fl.hill_solve(pot, steps=32)


def test_one_kappa_call_per_pass():
    # kappa is evaluated once per RK4 pass, on the 2*steps + 1 half-step points
    shapes = []

    def kappa(x):
        shapes.append(np.shape(x))
        return np.full(np.shape(x), -1.0)

    pot = HillPotential(kappa=kappa, c=0.5, period=math.pi)
    sol, m = fl.hill_solve(pot, steps=256)
    assert shapes == [(513,)]
    assert np.max(np.abs(m + np.eye(2))) < 1e-6
    assert np.max(np.abs(sol.ys - np.cos(sol.xs))) < 1e-8
    assert fl.is_nonoscillating(pot, steps=256)
    assert shapes == [(513,), (513,)]
