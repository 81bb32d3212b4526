import math
import random
from fractions import Fraction as Fr

import pytest

import frieze_lab as fl
from frieze_lab.recurrence import DiscreteHillEquation, det2


def test_antiperiod_three():
    eq = DiscreteHillEquation(c=(Fr(1),) * 3)
    orbit = fl.solve_recurrence(eq, (Fr(0), Fr(1)), (Fr(1), Fr(1)), 4)
    assert orbit[3] == (Fr(0), Fr(-1))
    assert orbit[4] == (Fr(-1), Fr(-1))


def test_affine_growth_and_wronskian():
    eq = DiscreteHillEquation(c=(Fr(2),) * 4)
    orbit = fl.solve_recurrence(eq, (Fr(0), Fr(1)), (Fr(1), Fr(1)), 10)
    # double characteristic root 1: second differences vanish
    for i in range(2, 10):
        assert orbit[i][0] - 2 * orbit[i - 1][0] + orbit[i - 2][0] == 0
    ws = fl.wronskians(orbit)
    assert len(set(ws)) == 1


def test_pentagon_antiperiodicity_both_starts():
    eq = DiscreteHillEquation(c=tuple(Fr(x) for x in (1, 2, 2, 1, 3)))
    for v0, v1 in (((Fr(0), Fr(1)), (Fr(1), Fr(1))), ((Fr(1), Fr(0)), (Fr(0), Fr(1)))):
        orbit = fl.solve_recurrence(eq, v0, v1, 6)
        assert orbit[5] == (-v0[0], -v0[1])
        assert orbit[6] == (-v1[0], -v1[1])


def test_monodromy_constant_one():
    eq = DiscreteHillEquation(c=(Fr(1),) * 3)
    assert fl.monodromy(eq) == ((Fr(-1), Fr(0)), (Fr(0), Fr(-1)))
    assert fl.is_closed(eq)


def test_monodromy_golden_ratio():
    # constant coefficient 2cos(pi/5): rotation number pi/5, so M^... = -Id at n=5
    phi = 2.0 * math.cos(math.pi / 5.0)
    eq = DiscreteHillEquation(c=(phi,) * 5)
    assert fl.is_minus_identity(fl.monodromy(eq))


def test_monodromy_parabolic_never_closes():
    eq = DiscreteHillEquation(c=(Fr(2),) * 5)
    m = fl.monodromy(eq)
    assert not fl.is_minus_identity(m)
    assert m[0][0] + m[1][1] == 2  # parabolic trace persists under powers


def test_polygon_pinned_values():
    f = fl.diagonal_to_frieze((1, 2))
    p = fl.polygon_from_frieze(f)
    assert p == (
        (Fr(0), Fr(1)),
        (Fr(1), Fr(1)),
        (Fr(3), Fr(2)),
        (Fr(2), Fr(1)),
        (Fr(1), Fr(0)),
    )
    # V_2 = ((a2+1)/a1, a2)
    assert p[2] == (Fr(3), Fr(2))


def test_polygon_width0():
    f = fl.propagate_from_quiddity((1, 1, 1))
    assert fl.polygon_from_frieze(f) == ((Fr(0), Fr(1)), (Fr(1), Fr(1)), (Fr(1), Fr(0)))


def test_polygon_satisfies_recurrence_and_diagonal_identity():
    rng = random.Random(3)
    for w in range(1, 6):
        while True:
            vals = tuple(
                Fr(rng.randint(1, 6), rng.randint(1, 6)) * (1 if rng.random() < 0.7 else -1)
                for _ in range(w)
            )
            try:
                f = fl.diagonal_to_frieze(vals)
                break
            except fl.ZeroEntryEncountered:
                continue
        n = f.period
        p = fl.polygon_from_frieze(f)
        c = f.quiddity
        for i in range(1, n - 1):
            ci = c[i % n]
            assert p[i + 1] == (ci * p[i][0] - p[i - 1][0], ci * p[i][1] - p[i - 1][1])
        # full fundamental system is n-antiperiodic
        eq = DiscreteHillEquation(c=c)
        orbit = fl.solve_recurrence(eq, p[0], p[1], n + 1)
        assert orbit[n] == (-p[0][0], -p[0][1])
        # diagonal read off by brackets against the distinguished vertex
        a = f.diagonal().values
        for i in range(1, w + 1):
            assert det2(p[n - 1], p[i]) == a[i - 1]
        # consecutive brackets are -1 with this orientation (see module notes)
        assert all(det2(p[i], p[i + 1]) == -1 for i in range(n - 1))


def test_closure_iff_monodromy():
    rng = random.Random(17)
    trials = 0
    for n in range(4, 10):
        for _ in range(20):
            trials += 1
            if rng.random() < 0.5:
                # generically not closed
                c = tuple(Fr(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n))
            else:
                # closed by construction
                while True:
                    vals = tuple(
                        Fr(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n - 3)
                    )
                    try:
                        c = fl.diagonal_to_frieze(vals).quiddity
                        break
                    except fl.ZeroEntryEncountered:
                        continue
            eq = DiscreteHillEquation(c=c)
            closed = fl.is_closed(eq)
            try:
                fl.propagate_from_quiddity(c)
                propagated = True
            except (fl.NotClosed, fl.ZeroEntryEncountered):
                propagated = False
            assert closed == propagated
    assert trials >= 100


# ---------------------------------------------------------------------------
# cross-ratios


def _affine_cross_ratio(a, b, c, d):
    """Independent oracle: ((a-c)(b-d))/((a-b)(c-d)) on affine values,
    taking the standard limits when one point is at infinity."""
    pts = [a, b, c, d]
    inf = [p for p in pts if p[1] == 0]
    assert len(inf) <= 1

    def val(p):
        return Fr(p[0], p[1]) if p[1] != 0 else None

    va, vb, vc, vd = (val(p) for p in pts)
    if va is None:
        return (vb - vd) / (vc - vd)
    if vb is None:
        return (va - vc) / (vc - vd) * -1  # lim (b-d)/(a-b) = -1
    if vc is None:
        return (vb - vd) / (va - vb) * -1  # lim (a-c)/(c-d) = -1
    if vd is None:
        return (va - vc) / (va - vb)
    return ((va - vc) * (vb - vd)) / ((va - vb) * (vc - vd))


def test_cross_ratio_matches_affine_oracle():
    rng = random.Random(29)
    for w in (1, 2, 3, 4):
        while True:
            vals = tuple(Fr(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(w))
            try:
                f = fl.diagonal_to_frieze(vals)
                break
            except fl.ZeroEntryEncountered:
                continue
        p = fl.polygon_from_frieze(f)
        m = fl.cross_ratio_coordinates(p)
        assert len(m.coordinates) == f.period - 3
        n = len(p)
        for i, coord in zip(range(2, n - 1), m.coordinates):
            assert coord == _affine_cross_ratio(p[0], p[1], p[i], p[n - 1])


def test_cross_ratio_projective_invariance():
    f = fl.diagonal_to_frieze((1, 2, 3))
    p = fl.polygon_from_frieze(f)
    g = ((Fr(2), Fr(1)), (Fr(3), Fr(2)))  # det 1
    q = tuple(
        (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1]) for v in p
    )
    assert fl.cross_ratio_coordinates(p).coordinates == fl.cross_ratio_coordinates(q).coordinates


def test_even_n_fibre_is_the_form_kernel():
    # scaling a_1, a_3, ..., a_w by one factor moves along the kernel of the
    # cluster form; for even n it keeps the moduli point, for odd n it does not
    from frieze_lab.cluster import omega_matrix

    def moduli(values):
        return fl.cross_ratio_coordinates(fl.polygon_from_frieze(fl.diagonal_to_frieze(values))).coordinates

    rng = random.Random(20)
    for w in range(1, 8):
        for _ in range(6):
            a = [Fr(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(w)]
            lam = Fr(rng.choice([2, 3, 5]), rng.choice([1, 7]))
            scaled = [lam * x if i % 2 == 0 else x for i, x in enumerate(a)]
            if w % 2:  # n = w + 3 even
                kernel = [x if i % 2 == 0 else 0 for i, x in enumerate(a)]
                for row in omega_matrix(fl.DiagonalCoords(base=w + 2, values=tuple(a))):
                    assert sum(m * k for m, k in zip(row, kernel)) == 0
                assert moduli(scaled) == moduli(a), (a, lam)
            else:  # n odd
                assert moduli(scaled) != moduli(a), (a, lam)


def test_cross_ratio_degenerate_rejected():
    pts = ((Fr(0), Fr(1)), (Fr(0), Fr(2)), (Fr(1), Fr(1)), (Fr(1), Fr(0)))
    with pytest.raises(fl.DegeneratePoint):
        fl.cross_ratio_coordinates(pts)


def test_solve_recurrence_needs_two_steps():
    eq = DiscreteHillEquation(c=(Fr(1),) * 3)
    with pytest.raises(ValueError):
        fl.solve_recurrence(eq, (Fr(0), Fr(1)), (Fr(1), Fr(1)), 1)


def test_solve_recurrence_float_scalars():
    eq = DiscreteHillEquation(c=(1.5, 0.25, 2.0, 1.25))
    orbit = fl.solve_recurrence(eq, (0.0, 1.0), (1.0, 0.5), 40)
    ws = fl.wronskians(orbit)
    assert max(abs(w - ws[0]) for w in ws) < 1e-9 * max(1.0, abs(ws[0]))


def test_monodromy_is_the_ordered_step_product():
    # reference: M = S_{n-1} ... S_0 with S_i = ((c_i, -1), (1, 0)), as matrix products
    def step_product(c):
        m = ((1, 0), (0, 1))
        for ci in c:
            s = ((ci, -1), (1, 0))
            m = tuple(
                tuple(s[r][0] * m[0][col] + s[r][1] * m[1][col] for col in range(2))
                for r in range(2)
            )
        return m

    rng = random.Random(7)
    for n in range(1, 41):
        exact = tuple(Fr(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
        assert fl.monodromy(DiscreteHillEquation(c=exact)) == step_product(exact)
        floats = tuple(rng.uniform(-3.0, 3.0) for _ in range(n))
        assert repr(fl.monodromy(DiscreteHillEquation(c=floats))) == repr(step_product(floats))
