"""Acceptance checklist.

One test per criterion, each printing a PASS/FAIL line (run with ``-s`` to see
them).  Criterion 4b is the power-product family (x y)^t + (x y)^(1-t) at
t = 0.3.  Taken raw it satisfies F F_xy - F_x F_y = (1-2t)^2, a constant but
not 1; divided by (1-2t) it is the two-curve frieze of the unit-bracket lifts
(x^t, x^(1-t))/sqrt(1-2t) and (-y^(1-t), y^t)/sqrt(1-2t), and solves the
Liouville identity.  The test builds it that way and checks both the closed
form and the residual; test_continuous.py checks the raw constant defect.
"""

import math
import random
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

import frieze_lab as fl
from frieze_lab.cluster import exact_rank, omega_matrix
from frieze_lab.continuous import potential_y_spread
from frieze_lab.curves import sf_compose, trig_poly
from frieze_lab.frieze import SE, SW
from frieze_lab.hill import HillPotential
from frieze_lab.recurrence import DiscreteHillEquation, det2

T = math.pi
XI = trig_poly(T, {0: (0.5, 0.0), 1: (-0.5, 0.0)})  # sin^2 x
ETA = trig_poly(T, {0: (0.25, 0.0), 1: (0.0, 0.5), 2: (-0.25, 0.0)})
XI2 = trig_poly(T, {0: (0.375, 0.0), 1: (-0.5, 0.0), 2: (0.125, 0.0)})  # sin^4 x
ETA2 = trig_poly(T, {1: (0.0, 0.25), 2: (0.0, -0.125)})  # sin^2 x sin 2x


def report(num: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {tag} {detail}")
    return ok


def random_frieze(rng, w):
    while True:
        vals = tuple(
            Fr(rng.randint(1, 6), rng.randint(1, 6)) * (1 if rng.random() < 0.8 else -1)
            for _ in range(w)
        )
        try:
            return fl.diagonal_to_frieze(vals), vals
        except fl.ZeroEntryEncountered:
            continue


def test_criterion_1_discrete_exactness():
    """Diamond rule, period, glide, closure <-> monodromy, diagonal identity."""
    start = time.monotonic()
    rng = random.Random(101)
    for w in range(1, 6):
        for _ in range(20):
            f, vals = random_frieze(rng, w)
            n = f.period
            assert n == w + 3
            checks = f.check()
            assert checks["diamond_rule"] and checks["glide_symmetry"]
            assert checks["border_rows"] and checks["nonzero_interior"]
            # closure <-> monodromy = -Id, exact over the rationals
            assert fl.is_closed(DiscreteHillEquation(c=f.quiddity))
            # diagonal read off the polygon: a_i = [V_{n-1}, V_i], exact
            p = fl.polygon_from_frieze(f)
            for i in range(1, w + 1):
                assert det2(p[n - 1], p[i]) == vals[i - 1]
        # non-closed side of the equivalence
        c = tuple(Fr(rng.randint(2, 5)) for _ in range(w + 3))
        eq = DiscreteHillEquation(c=c)
        closed = fl.is_closed(eq)
        try:
            fl.propagate_from_quiddity(c)
            propagated = True
        except (fl.NotClosed, fl.ZeroEntryEncountered):
            propagated = False
        assert closed == propagated
    elapsed = time.monotonic() - start
    assert report("1", elapsed < 10.0, f"discrete exactness suite ({elapsed:.1f}s)")


def test_criterion_2_omega_equals_omega_prime():
    """Exact equality of the zigzag and diagonal forms over every path."""
    start = time.monotonic()
    rng = random.Random(202)
    for w in range(1, 6):
        n = w + 3
        basis = [tuple(Fr(1 if k == i else 0) for k in range(w)) for i in range(w)]
        for _ in range(4):
            _, vals = random_frieze(rng, w)
            d = fl.DiagonalCoords(base=n - 1, values=vals)
            ref = {
                (i, j): fl.omega_diagonal(d, basis[i], basis[j])
                for i in range(w)
                for j in range(i + 1, w)
            }
            for s in range(n):
                for bits in range(2 ** max(w - 1, 0)):
                    moves = tuple(SE if bits & (1 << k) else SW for k in range(w - 1))
                    path = fl.ZigzagPath(start=s, moves=moves, width=w)
                    pushed = fl.pushforward_many(d, path, basis)
                    for (i, j), val in ref.items():
                        assert fl.omega_zigzag(pushed[i].base, pushed[i], pushed[j]) == val
    elapsed = time.monotonic() - start
    assert report("2", elapsed < 30.0, f"omega = omega' on all zigzags ({elapsed:.1f}s)")


def test_criterion_3_rank_parity():
    rng = random.Random(303)
    for w in range(1, 7):
        _, vals = random_frieze(rng, w)
        d = fl.DiagonalCoords(base=0, values=vals)
        rank = fl.omega_rank(d)
        assert rank == (w if w % 2 == 0 else w - 1)
        assert exact_rank(omega_matrix(d)) == rank
    assert report("3", True, "rank parity w - (w mod 2) for w = 1..6")


def test_criterion_4_closed_form_friezes():
    """Round curve, the 1 + xy solution, and the linear half-plane solution."""
    # f = tan: F = sin(y - x), max pointwise deviation < 1e-12 on 64 x 64
    Fz = fl.frieze_from_curve(fl.lift_curve(fl.tan_family(0.0)))
    xs = (np.arange(64) + 0.5) * (T / 64)
    us = np.linspace(0.02, T - 0.02, 64)
    dev = max(abs(Fz.F(float(x), float(x + u)) - math.sin(float(u))) for x in xs for u in us)
    assert dev < 1e-12
    # F = 1 + xy from the two-curve construction
    ga = fl.lift_from_components(lambda x: x, lambda x: -1.0, lambda x: 1.0, lambda x: 0.0, lambda x: 0.0, None)
    gb = fl.lift_from_components(lambda x: 1.0, lambda x: x, lambda x: 0.0, lambda x: 1.0, lambda x: 0.0, None)
    H = fl.frieze_from_curve(ga, gb)
    assert fl.liouville_residual(H, grid=32, domain=((0.1, 2.0), (0.1, 2.0))) < 1e-8
    # f = x: F = y - x with constant curvature -1
    L = fl.frieze_from_curve(fl.lift_curve(fl.linear_family()))
    assert max(abs(L.F(float(x), float(x) + 1.3) - 1.3) for x in xs) < 1e-12
    ks, _ = fl.curvature_conformal(L, grid=24, domain=((0.0, 1.0), (1.5, 3.0)))
    assert np.max(np.abs(ks + 1.0)) < 1e-4
    assert report("4", True, "tan/two-curve/linear closed forms")


def test_criterion_4_power_family_literal():
    """((xy)^t + (xy)^(1-t))/(1-2t) at t = 0.3 as a two-curve frieze.

    The raw family has F F_xy - F_x F_y = (1-2t)^2 identically (see
    test_continuous.py::test_power_product_family_residual_value).  The lifts
    a(x) = (x^t, x^(1-t))/r and b(y) = (-y^(1-t), y^t)/r with r = sqrt(1-2t)
    have [a, a'] = [b, b'] = 1 and kappa = -t(1-t)/x^2, and [a(x), b(y)] is the
    family divided by (1-2t); by the Pluecker identity its Liouville residual
    is [a, a'] [b, b'] - 1 = 0.
    """
    t = 0.3
    r = math.sqrt(1 - 2 * t)

    def kappa(x):
        return -t * (1 - t) / x**2

    ga = fl.lift_from_components(
        lambda x: x**t / r,
        lambda x: x ** (1 - t) / r,
        lambda x: t * x ** (t - 1) / r,
        lambda x: (1 - t) * x ** (-t) / r,
        kappa,
        None,
    )
    gb = fl.lift_from_components(
        lambda y: -(y ** (1 - t)) / r,
        lambda y: y**t / r,
        lambda y: -(1 - t) * y ** (-t) / r,
        lambda y: t * y ** (t - 1) / r,
        kappa,
        None,
    )
    Fz = fl.frieze_from_curve(ga, gb)
    pts = np.linspace(0.5, 2.0, 7)
    dev = max(
        abs(Fz.F(float(x), float(y)) - ((x * y) ** t + (x * y) ** (1 - t)) / (1 - 2 * t))
        for x in pts
        for y in pts
    )
    assert dev < 1e-12
    res = fl.liouville_residual(Fz, grid=32, domain=((0.5, 2.0), (0.5, 2.0)))
    report("4b", res < 1e-8, f"normalized power-product family residual = {res:.1e} (expected < 1e-8)")
    assert res < 1e-8


def test_criterion_5_liouville_boundary_potential_suite():
    for s in (0.0, 0.1, 0.3):
        cur = fl.tan_family(s, c=0.5)
        Fz = fl.frieze_from_curve(fl.lift_curve(cur))
        assert fl.liouville_residual(Fz, grid=32) < 1e-8
        assert fl.liouville_residual(fl.frieze_genform(cur), grid=32) < 1e-8
        res = fl.boundary_check(Fz, T)
        assert all(v < 1e-8 for v in res.values())
        pts = [0.2, 0.8, 1.3, 2.1, 2.8]
        assert potential_y_spread(Fz, pts) < 1e-6
        pot = fl.potential_from_frieze(Fz, c=0.5)
        sw = fl.schwarzian(cur.f)
        # hill-form potential k = -2c kappa recovers c S(f)
        assert max(abs(pot.hill_k(x) - 0.5 * sw(x)) for x in pts) < 1e-6
    assert report("5", True, "Liouville/boundary/potential on s in {0, 0.1, 0.3}")


def test_criterion_6_curvature():
    for s in (0.0, 0.1, 0.3):
        Fz = fl.frieze_from_curve(fl.lift_curve(fl.tan_family(s)))
        ks, _ = fl.curvature_conformal(Fz, grid=24, h=1e-3)
        assert np.max(np.abs(ks + 1.0)) < 1e-4
    assert report("6", True, "max |K + 1| < 1e-4 on the interior strip")


def test_criterion_7_kirillov_consistency():
    # (a) the two displayed expressions of the field form agree to 1e-8
    for s in (0.0, 0.2):
        cur = fl.tan_family(s, c=0.5)
        pot = HillPotential(kappa=fl.lift_curve(cur).kappa, c=0.5, period=T, dkappa=cur.dkappa)
        X = trig_poly(T, {2: (0.0, 1.0)})
        Y = trig_poly(T, {2: (1.0, 0.0), 3: (0.0, 0.5)})
        v1, v2 = fl.kirillov_form_fields_both(pot, X, Y)
        assert abs(v1 - v2) < 1e-8 * max(1.0, abs(v1))
    # (b) reparameterization invariance of the curve form to 1e-6
    cur = fl.tan_family(0.2, c=0.5)
    base = fl.kirillov_form_curve(cur, XI, ETA)
    wig = trig_poly(T, {1: (0.0, 0.1)})
    phi = fl.from_derivatives(
        lambda x: x + wig.value(x), lambda x: 1.0 + wig.d1(x), wig.d2, wig.d3
    )
    cur2 = fl.ProjectiveCurve(f=sf_compose(cur.f, phi), period=T, c=0.5)
    moved = fl.kirillov_form_curve(cur2, sf_compose(XI, phi), sf_compose(ETA, phi))
    assert abs(moved - base) < 1e-6
    # (c) continuum integral = -1/(4c) * curve form to 1e-8
    for c in (0.5, 1.0):
        cur = fl.tan_family(0.2, c=c)
        xi = fl.gauge_variation(cur, XI)
        eta = fl.gauge_variation(cur, ETA)
        val = fl.continuum_integral(
            fl.lift_curve(cur), fl.tangent_lift(cur, xi), fl.tangent_lift(cur, eta)
        )
        omek = fl.kirillov_form_curve(cur, xi, eta)
        assert abs(val + omek / (4.0 * c)) < 1e-8
    assert report("7", True, "field-form lines, reparameterization, -1/(4c) identity")


def test_criterion_8_cluster_form_convergence():
    start = time.monotonic()
    cur = fl.tan_family(0.2, c=0.5)
    for xi, eta in ((XI, ETA), (XI2, ETA2)):
        rep = fl.convergence_study(cur, xi, eta, [100, 200, 400, 800])
        errs = [r.err_integral for r in rep.records]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert rep.final_relative_error() < 1e-2
        # continuum integral itself matches -1/(4c) omega_K per criterion 7
        assert abs(rep.integral - rep.kirillov_scaled) < 1e-8
    elapsed = time.monotonic() - start
    assert report("8", elapsed < 60.0, f"discrete sum -> -1/(4c) orbit form ({elapsed:.1f}s)")


def test_criterion_9_schwarzian():
    lin = fl.linear_family()
    assert fl.schwarzian(lin.f)(0.7) == 0.0
    cur = fl.tan_family(0.0, c=0.5)
    s = fl.schwarzian(cur.f)
    xs = [float(x) for x in (np.arange(512) + 0.5) * (T / 512) if abs(math.cos(x)) > 0.05]
    assert max(abs(s(x) - 2.0) for x in xs) < 1e-10
    # equals the constant 2 c pi^2 / T^2 of the round potential at T = pi, up to c
    assert abs(0.5 * s(0.3) - 2.0 * 0.5 * math.pi**2 / T**2) < 1e-12
    # Moebius invariance to 1e-10 on well-conditioned nodes
    for coeffs in ((2.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0), (3.0, -1.0, 2.0, 1.0)):
        h = fl.mobius_transform(cur.f, coeffs)
        sh = fl.schwarzian(h)
        a, b, c_, d_ = coeffs
        pts = [
            x
            for x in xs
            if abs(cur.f(x)) < 50.0 and abs(c_ * cur.f(x) + d_) > 0.2
        ]
        assert max(abs(sh(x) - s(x)) for x in pts) < 1e-10
    assert report("9", True, "S(x) = 0, S(tan) = 2, Moebius invariance")
