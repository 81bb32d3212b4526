import math

import numpy as np
import pytest

import frieze_lab as fl
from frieze_lab import hill
from frieze_lab.curves import on_grid
from frieze_lab.hill import HillPotential, HillSolution, _fundamental, count_zeros, potential_from_constant


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
        assert fl.is_antiperiodic(m)


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
    s_sin = 1.0 * _fundamental(lambda x: -1.0, T, 2048)[1].ys
    assert count_zeros(s_sin[:-1]) == 1
    s_sin3 = 3.0 * _fundamental(lambda x: -9.0, T, 2048)[1].ys
    assert count_zeros(s_sin3[:-1]) == 3


def test_grid_too_coarse():
    s = 1.0 * _fundamental(lambda x: -400.0, math.pi, 40)[1].ys
    with pytest.raises(fl.GridTooCoarse):
        count_zeros(s[:-1])


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
        s = 1.0 * _fundamental(lambda x: -1.0, math.pi, steps)[1].ys
        errs.append(abs(s[-1] - math.sin(math.pi)))
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


def _count_zeros_loop(samples):
    """count_zeros as a loop over the samples: the reference for the array version."""
    signs = np.sign(np.asarray(samples))
    events = []
    last = 0.0
    in_zero_run = False
    for i, s in enumerate(signs):
        if s == 0:
            if not in_zero_run:
                events.append(i)
                in_zero_run = True
            continue
        if last != 0 and s != last and not in_zero_run:
            events.append(i)
        in_zero_run = False
        last = s
    for a, b in zip(events, events[1:]):
        if b - a <= 2:
            raise fl.GridTooCoarse("two sign changes within two grid cells")
    return len(events)


def _outcome(check, *args):
    try:
        return check(*args)
    except fl.GridTooCoarse:
        return "GridTooCoarse"


def test_count_zeros_matches_loop():
    # runs of one value each, so zero runs (at either end too), NaN runs and
    # well-separated sign changes all occur, besides grids that are too coarse
    rng = np.random.default_rng(0)
    values = np.array([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0, np.nan])
    outcomes = []
    for _ in range(10_000):
        runs = rng.integers(0, 8)
        seq = np.repeat(rng.choice(values, runs), rng.integers(1, 7, runs))
        expected = _outcome(_count_zeros_loop, seq)
        assert _outcome(count_zeros, seq) == expected, seq
        outcomes.append(expected)
    assert outcomes.count("GridTooCoarse") > 1000
    assert {0, 1, 2, 3} <= set(outcomes)


def _fundamental_loop(kappas, T, steps, dtype=float):
    """_fundamental as a loop of RK4 steps: the reference for the product.

    Steps both solutions of every potential in ``kappas`` at once, one array
    entry each, so each array operation is the scalar step's operation, entry
    by entry, in the same order.
    Returns the states of both solutions with shape (len(kappas), 4,
    steps + 1), rows (u1, u1', u2, u2'), computed in ``dtype`` from the same
    float h and kappa samples.
    """
    h = dtype(T / steps)
    half, sixth = 0.5 * h, h / 6.0
    xs = np.arange(2 * steps + 1) * (0.5 * (T / steps))
    k = np.array([np.broadcast_to(on_grid(kappa, xs), xs.shape) for kappa in kappas], dtype=dtype).T

    def step(u, v, k0, kh, k1):
        k1u, k1v = v, k0 * u
        k2u = v + half * k1v
        k2v = kh * (u + half * k1u)
        k3u = v + half * k2v
        k3v = kh * (u + half * k2u)
        k4u = v + h * k3v
        k4v = k1 * (u + h * k3u)
        return (
            u + sixth * (k1u + 2 * k2u + 2 * k3u + k4u),
            v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v),
        )

    # row 0 is the solution (1, 0), row 1 the solution (0, 1)
    u = np.array([np.ones(len(kappas)), np.zeros(len(kappas))], dtype=dtype)
    du = u[::-1].copy()
    states = np.empty((steps + 1, 4, len(kappas)), dtype=dtype)
    states[0, 0::2], states[0, 1::2] = u, du
    for i in range(steps):
        u, du = step(u, du, k[2 * i], k[2 * i + 1], k[2 * i + 2])
        states[i + 1, 0::2], states[i + 1, 1::2] = u, du
    return states.transpose(2, 1, 0)


# constant potentials with fast (-400), antiperiodic (-9, -1), affine (0) and
# growing (2) solutions, and the tan family's potentials
KAPPAS = [(f"const {c}", lambda x, c=c: c) for c in (-400.0, -9.0, -1.0, 0.0, 2.0)] + [
    (f"tan {s}", fl.lift_curve(fl.tan_family(s, c=0.5)).kappa) for s in (0.0, 0.2, -0.3, 0.45)
]
WIDE = np.longdouble if np.finfo(np.longdouble).eps < np.finfo(float).eps else None


@pytest.mark.parametrize("steps", [40, 63, 64, 100, 1000, 4096, 4099, 65536])
def test_fundamental_matches_loop(steps):
    # Against the float loop the bound is 2e-12 relative: that loop drifts by
    # up to 3.3e-12 (1.0e-12 relative, kappa = 0, 65536 steps), as every step
    # adds the same rounded increment.  Where a wider float type exists, the
    # loop run in it pins the product to 3e-14 relative.
    kappas = [kappa for _, kappa in KAPPAS]
    loops = _fundamental_loop(kappas, math.pi, steps)
    wides = None if WIDE is None else _fundamental_loop(kappas, math.pi, steps, WIDE)
    for j, (name, kappa) in enumerate(KAPPAS):
        a, b = _fundamental(kappa, math.pi, steps)
        states = np.array([a.ys, a.dys, b.ys, b.dys])
        loop = loops[j]
        scale = max(1.0, float(np.max(np.abs(loop))))
        dev = float(np.max(np.abs(states - loop)))
        assert dev <= 2e-12 * scale, (name, dev, scale)
        if wides is not None:
            wide = wides[j]
            dev = float(np.max(np.abs(states - wide)))
            assert dev <= 3e-14 * scale, (name, dev, scale)
        # where the monodromy is -Id, the end state is at least as close to it
        # as the float loop's, to rounding
        m_loop = loop[:, -1].reshape(2, 2).T
        if fl.is_antiperiodic(m_loop):
            m = states[:, -1].reshape(2, 2).T
            assert hill.dev_from_minus_id(m) <= hill.dev_from_minus_id(m_loop) + 1e-14, name


def test_nonoscillation_verdicts_match_loop(monkeypatch):
    # kappa = -1600 has 40 zeros per period, too close for 64 steps
    kappas = [kappa for _, kappa in KAPPAS] + [lambda x: -1600.0]
    step_counts = (64, 256, 2048, 4096)
    cases = [(HillPotential(kappa=kappa, c=0.5, period=math.pi), steps)
             for kappa in kappas for steps in step_counts]
    new = [_outcome(fl.is_nonoscillating, pot, steps) for pot, steps in cases]
    loops = {steps: _fundamental_loop(kappas, math.pi, steps) for steps in step_counts}

    def loop_solutions(kappa, T, steps):
        """The loop's states as _fundamental's pair of HillSolutions."""
        assert T == math.pi
        a, da, b, db = loops[steps][kappas.index(kappa)]
        xs = np.arange(steps + 1) * (T / steps)
        return HillSolution(xs, a, da), HillSolution(xs, b, db)

    monkeypatch.setattr(hill, "_fundamental", loop_solutions)
    old = [_outcome(fl.is_nonoscillating, pot, steps) for pot, steps in cases]
    assert new == old
    assert {True, False, "GridTooCoarse"} <= set(old)
