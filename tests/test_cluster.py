import ast
import functools
import itertools
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import frieze_lab as fl
from frieze_lab.cluster import _jet_polygon, exact_rank, omega_matrix
from frieze_lab.exceptions import ZeroEntryEncountered
from frieze_lab.frieze import (
    SE,
    SW,
    ZigzagCoords,
    _chart_polygon,
    elementary_mutation,
)
from frieze_lab.jets import Jet, seed_jets
from frieze_lab.recurrence import det2
from row_reference import complete_rows, quiddity_from_diagonal


def basis(w):
    return [tuple(Fr(1 if k == i else 0) for k in range(w)) for i in range(w)]


def random_diagonal(rng, w):
    while True:
        vals = tuple(
            Fr(rng.randint(1, 4), rng.randint(1, 4)) * (1 if rng.random() < 0.75 else -1)
            for _ in range(w)
        )
        try:
            fl.diagonal_to_frieze(vals)
            return fl.DiagonalCoords(base=w + 2, values=vals)
        except fl.ZeroEntryEncountered:
            continue


def all_paths(w, n):
    for start in range(n):
        for bits in range(2 ** max(w - 1, 0)):
            yield fl.ZigzagPath(
                start=start,
                moves=tuple(SE if bits & (1 << k) else SW for k in range(w - 1)),
                width=w,
            )


def test_omega_diagonal_examples():
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(2)))
    e1, e2 = basis(2)
    assert fl.omega_diagonal(d, e1, e2) == Fr(1, 2)
    assert fl.omega_diagonal(d, e2, e1) == Fr(-1, 2)
    assert fl.omega_diagonal(d, e1, e1) == 0
    # width 1: empty sum
    d1 = fl.DiagonalCoords(base=3, values=(Fr(5),))
    assert fl.omega_diagonal(d1, (Fr(1),), (Fr(2),)) == 0


def test_omega_zigzag_all_se_is_diagonal():
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(2)))
    z = d.as_zigzag()
    e1, e2 = basis(2)
    assert fl.omega_zigzag(z, e1, e2) == fl.omega_diagonal(d, e1, e2)


def test_pushforward_identity_and_inverse():
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(2)))
    z = d.as_zigzag()
    e1, e2 = basis(2)
    for v in (e1, e2):
        same = fl.pushforward(d, z.path, v)
        assert same.components == v
    other = fl.ZigzagPath(start=2, moves=(SW,))
    fwd = fl.pushforward(d, other, e1)
    back = fl.pushforward(fwd.base, z.path, fwd.components)
    assert back.components == e1


def test_pushforward_matches_hand_jacobian():
    # target chart: adjacent SE diagonal with entries
    # a1' = (a2+1)/a1 and a2' = (a1+a2+1)/(a1 a2); hand Jacobian at (1,2)
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(2)))
    target = fl.ZigzagPath(start=0, moves=(SE,))
    jac = fl.chart_jacobian(d, target)
    assert jac == [[Fr(-3), Fr(1)], [Fr(-3, 2), Fr(-1, 2)]]


def test_omega_zigzag_equals_omega_diagonal_exhaustive():
    rng = random.Random(41)
    for w in range(1, 6):
        for _ in range(3):
            d = random_diagonal(rng, w)
            n = w + 3
            e = basis(w)
            ref = {
                (i, j): fl.omega_diagonal(d, e[i], e[j])
                for i in range(w)
                for j in range(i + 1, w)
            }
            for path in all_paths(w, n):
                pushed = fl.pushforward_many(d, path, e)
                zbase = pushed[0].base
                for (i, j), val in ref.items():
                    assert fl.omega_zigzag(zbase, pushed[i], pushed[j]) == val


def test_omega_rank_parity():
    rng = random.Random(59)
    for w in range(1, 7):
        d = random_diagonal(rng, w)
        expected = w if w % 2 == 0 else w - 1
        assert fl.omega_rank(d) == expected
    # pinned small cases
    assert fl.omega_rank(fl.DiagonalCoords(base=0, values=(Fr(1), Fr(2)))) == 2
    assert fl.omega_rank(fl.DiagonalCoords(base=0, values=(Fr(1), Fr(2), Fr(3)))) == 2
    assert fl.omega_rank(fl.DiagonalCoords(base=0, values=(Fr(1), Fr(2), Fr(3), Fr(5)))) == 4


def test_omega_rank_matches_elimination():
    rng = random.Random(61)
    for w in range(17):
        for _ in range(3):
            vals = tuple(Fr(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(w))
            d = fl.DiagonalCoords(base=rng.randrange(w + 3), values=vals)
            assert fl.omega_rank(d) == exact_rank(omega_matrix(d))
    d = fl.DiagonalCoords(base=0, values=(Fr(2), Fr(0), Fr(3)))
    for rank in (fl.omega_rank, lambda d: exact_rank(omega_matrix(d))):
        with pytest.raises(ZeroDivisionError):
            rank(d)


def test_omega_geometric_matches_diagonal():
    rng = random.Random(67)
    for w in range(1, 6):
        d = random_diagonal(rng, w)
        e = basis(w)
        tangents = [fl.polygon_tangent_from_diagonal(d, v) for v in e]
        polygon = tangents[0][0]
        for i in range(w):
            for j in range(w):
                got = fl.omega_geometric(polygon, tangents[i][1], tangents[j][1])
                assert got == fl.omega_diagonal(d, e[i], e[j])


def test_omega_geometric_pentagon_value():
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(2)))
    p, t1 = fl.polygon_tangent_from_diagonal(d, (Fr(1), Fr(0)))
    _, t2 = fl.polygon_tangent_from_diagonal(d, (Fr(0), Fr(1)))
    assert fl.omega_geometric(p, t1, t2) == Fr(1, 2)
    assert fl.omega_geometric(p, t1, t1) == 0
    # bilinearity: scaling a tangent scales the value
    t1s = tuple((3 * a, 3 * b) for a, b in t1)
    assert fl.omega_geometric(p, t1s, t2) == Fr(3, 2)


def test_omega_geometric_gauge_violation():
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(2)))
    p, t1 = fl.polygon_tangent_from_diagonal(d, (Fr(1), Fr(0)))
    bad = list(t1)
    bad[-1] = (Fr(1), Fr(0))
    with pytest.raises(fl.GaugeViolation):
        fl.omega_geometric(p, bad, t1)


def test_polygon_tangent_respects_bracket_constraint():
    from frieze_lab.recurrence import det2

    d = fl.DiagonalCoords(base=5, values=(Fr(2), Fr(1, 3), Fr(5)))
    p, t = fl.polygon_tangent_from_diagonal(d, (Fr(1), Fr(-2), Fr(3)))
    for i in range(len(p) - 1):
        assert det2(p[i], t[i + 1]) + det2(t[i], p[i + 1]) == 0
    assert t[-1] == (0, 0)


def test_pushforward_width1_alternating_chart():
    # the two width-1 charts are a and 2/a; d(2/a)/da = -2/a^2
    d = fl.DiagonalCoords(base=3, values=(Fr(3),))
    t = fl.pushforward(d, fl.ZigzagPath(start=0, moves=(), width=1), (Fr(1),))
    assert t.base.values == (Fr(2, 3),)
    assert t.components == (Fr(-2, 9),)


def random_path(rng, w):
    return fl.ZigzagPath(
        start=rng.randint(-w - 3, 2 * w + 6),
        moves=tuple(rng.choice((SE, SW)) for _ in range(w - 1)),
        width=w,
    )


def _straighten(z: ZigzagCoords) -> ZigzagCoords:
    """Mutate a zigzag into all-SE (diagonal) form; value arithmetic is generic."""
    cur = z
    while SW in cur.path.moves:
        k = cur.path.moves.index(SW)
        # a SW move bubbles up through corners and pops off at the top
        cur = elementary_mutation(cur, k)
    return cur


def row_completion_rows(source):
    """Every row of the source's frieze completed in jets seeded on the source's values."""
    z = source.as_zigzag() if isinstance(source, fl.DiagonalCoords) else source
    n = z.width + 3
    flat = _straighten(fl.ZigzagCoords(path=z.path, values=tuple(seed_jets(z.values))))
    return complete_rows(quiddity_from_diagonal(flat.values, flat.path.start % n, n), n)


def read_transport(rows, path):
    """Target values and Jacobian read off completed jet rows along the path."""
    n = len(rows)
    out = [rows[j - i][(i + 1) % n] for i, j in path.vertices()]
    return tuple(v.val for v in out), [list(v.grad) for v in out]


def row_completion_transport(source, path):
    """Reference chart change: complete every row in jets, then read the path."""
    return read_transport(row_completion_rows(source), path)


def test_chart_jacobian_matches_row_completion():
    rng = random.Random(83)
    for _ in range(40):
        w = rng.randint(1, 10)
        d = random_diagonal(rng, w)
        source = d
        if rng.random() < 0.5:
            path = random_path(rng, w)
            source = fl.read_zigzag(fl.diagonal_to_frieze(d.values), path)
        target = random_path(rng, w)
        values, jac = row_completion_transport(source, target)
        assert fl.chart_jacobian(source, target) == jac
        assert fl.pushforward(source, target, basis(w)[0]).base.values == values


def jet_polygon_reference(z):
    """The chart's jet polygon V_0..V_{2n-1}, checked for zero entries in row order.

    Raises ZeroEntryEncountered at the first zero value bracket of band rows
    1..n-3, columns 1..n-1 then 0, as ``zigzag_to_frieze`` reports it.
    """
    V = _chart_polygon(z.path, seed_jets(z.values), Jet(Fr(1), (Fr(0),) * z.width))
    n = len(V) // 2
    P = [(x.val, y.val) for x, y in V]
    for d in range(2, n - 1):
        for j in (*range(1, n), 0):
            if det2(P[j - 1], P[j - 1 + d]) == 0:
                raise ZeroEntryEncountered(f"zero entry in row {d - 1}, column {j}")
    return V


def jet_entry(V, i, j):
    """e(i, j) as one jet bracket, read with the glide V_{k+n} = -V_k."""
    n = len(V) // 2
    return det2(V[i % n], V[j - i + i % n])


def test_integer_brackets_match_references():
    # sources at w = 0..12, 24 and 32: diagonals and zigzag charts, with
    # negative, zero and rational values; 16 sources take turns in runs of
    # charts, so the memo of 8 polygons mostly hits and sometimes evicts
    rng = random.Random(103)
    entries = (Fr(-2), Fr(-1), Fr(-1, 2), Fr(0), Fr(1, 3), Fr(1), Fr(3, 2), Fr(2), Fr(3))

    def draw_path(w):
        return random_path(rng, w) if w else fl.ZigzagPath(start=rng.randint(-3, 6), moves=(), width=0)

    def draw_values(w):
        if rng.random() < 0.15:
            return tuple(rng.choice(entries) for _ in range(w))
        return tuple(Fr(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, 1, 1, -1)) for _ in range(w))

    def draw_source(w):
        if w > 12:  # a positive diagonal: every entry is positive
            values = tuple(rng.choice((1, 2, 3, Fr(1, 2), Fr(3, 2))) for _ in range(w))
            return fl.DiagonalCoords(base=rng.randint(-3, 2 * w + 6), values=values)
        if rng.random() < 0.5:
            return fl.DiagonalCoords(base=rng.randint(-3, 2 * w + 6), values=draw_values(w))
        path, values = draw_path(w), draw_values(w)
        if rng.random() < 0.5:
            try:  # a chart of a frieze that exists
                values = fl.read_zigzag(fl.diagonal_to_frieze(values), path).values
            except fl.FriezeLabError:
                pass
        return fl.ZigzagCoords(path=path, values=values)

    def draw_vector(w):
        return tuple(rng.choice((0, 1, -2, Fr(rng.randint(-5, 5), rng.randint(1, 6)))) for _ in range(w))

    def outcome(build):
        try:
            return "ok", repr(build())
        except Exception as exc:  # every failure must match in type and message
            return type(exc), str(exc)

    def reference(src):
        """The chart's jet polygon, its completed jet rows and its polygon_tangent brackets, or the error."""
        z = src.as_zigzag() if isinstance(src, fl.DiagonalCoords) else src
        try:
            V = jet_polygon_reference(z)
        except ZeroEntryEncountered as exc:
            with pytest.raises(Exception):
                row_completion_rows(src)
            return exc
        sides = None
        if isinstance(src, fl.DiagonalCoords):  # the brackets polygon_tangent_from_diagonal reads
            n = src.width + 3
            s = src.base % n + 1
            sides = [[jet_entry(V, s - t, s + i) for i in range(n)] for t in (0, 1)]
        return functools.cache(lambda i, j: jet_entry(V, i, j)), row_completion_rows(src), sides

    def check(src, ref, target):
        w = src.width
        vectors = [draw_vector(w) for _ in range(2)]
        delta = draw_vector(w)
        calls = {
            "chart_jacobian": lambda: fl.chart_jacobian(src, target),
            "pushforward": lambda: fl.pushforward(src, target, fl.TangentVector(base=src, components=vectors[0])),
            "pushforward_many": lambda: fl.pushforward_many(src, target, vectors),
        }
        if isinstance(src, fl.DiagonalCoords) and rng.random() < 0.3:
            calls["polygon_tangent"] = lambda: fl.polygon_tangent_from_diagonal(src, delta)
        if isinstance(ref, Exception):
            for name, call in calls.items():
                assert outcome(call) == (type(ref), str(ref)), name
            return len(calls)
        entry, rows, sides = ref
        out = [entry(i, j) for i, j in target.vertices()]
        values, jac = tuple(v.val for v in out), [list(v.grad) for v in out]
        assert (values, jac) == read_transport(rows, target)

        def apply(xi):
            return tuple(sum((row[k] * xi[k] for k in range(w)), Fr(0)) for row in jac)

        base = fl.ZigzagCoords(path=target, values=values)
        expected_many = [fl.TangentVector(base=base, components=apply(v)) for v in vectors]
        expected = {"chart_jacobian": jac, "pushforward_many": expected_many, "pushforward": expected_many[0]}
        if "polygon_tangent" in calls:
            xs, ys = sides

            def d(x):
                return sum((g * e for g, e in zip(x.grad, delta)), Fr(0))

            polygon = tuple((x.val, y.val) for x, y in zip(xs, ys))
            expected["polygon_tangent"] = polygon, tuple((d(x), d(y)) for x, y in zip(xs, ys))
        for name, call in calls.items():
            assert outcome(call) == ("ok", repr(expected[name])), name
        return 0

    widths = [*range(13)] * 6 + [24, 32]
    rng.shuffle(widths)
    charts = failed_calls = failed_sources = 0
    info = _jet_polygon.cache_info()
    for group in range(0, len(widths), 16):
        sources = [draw_source(w) for w in widths[group : group + 16]]
        refs = [reference(src) for src in sources]
        failed_sources += sum(isinstance(ref, Exception) for ref in refs)
        left = [1 if isinstance(ref, Exception) else 3 if src.width > 12 else 96 - 6 * src.width for src, ref in zip(sources, refs)]
        while any(left):
            k = rng.choice([k for k, m in enumerate(left) if m])
            for _ in range(min(left[k], rng.randint(1, 8))):
                failed_calls += check(sources[k], refs[k], draw_path(sources[k].width))
                charts += 1
                left[k] -= 1
    after = _jet_polygon.cache_info()
    # every failing call builds anew, and every other source once unless evicted
    evicted = after.misses - info.misses - failed_calls - (len(widths) - failed_sources)
    assert charts >= 3000 and failed_sources >= 10
    assert after.hits - info.hits > 5000 and evicted > 50


def test_tangent_components_must_be_exact():
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(2)))
    target = fl.ZigzagPath(start=2, moves=(SW,))
    for bad in ((1.5, Fr(0)), (Fr(1), "2")):
        kind = type(bad[0] if isinstance(bad[0], float) else bad[1]).__name__
        for call in (
            lambda: fl.pushforward(d, target, bad),
            lambda: fl.pushforward_many(d, target, [(Fr(1), 2), bad]),
            lambda: fl.polygon_tangent_from_diagonal(d, bad),
        ):
            with pytest.raises(TypeError, match=f"^exact rational expected, got {kind}$"):
                call()
    for short_or_long in ((Fr(1),), (Fr(1), Fr(0), Fr(2))):
        for call in (
            lambda: fl.pushforward(d, target, short_or_long),
            lambda: fl.polygon_tangent_from_diagonal(d, short_or_long),
        ):
            with pytest.raises(ValueError, match="one component per chart value"):
                call()
    # ints and Fractions mix, and give Fractions
    t = fl.pushforward(d, target, (1, Fr(1, 2)))
    assert t.components == fl.pushforward(d, target, (Fr(1), Fr(1, 2))).components
    assert all(type(x) is Fr for x in t.components)


def test_polygon_memo_hits_equal_cold_builds():
    rng = random.Random(89)
    for w in (4, 5):
        d = random_diagonal(rng, w)
        paths = list(all_paths(w, w + 3))
        _jet_polygon.cache_clear()
        warm = [fl.chart_jacobian(d, path) for path in paths]
        assert _jet_polygon.cache_info().misses == 1
        for path, jac in zip(paths, warm):
            assert jac == row_completion_transport(d, path)[1]
            _jet_polygon.cache_clear()
            assert fl.chart_jacobian(d, path) == jac
    # two sources interleaved each get their own answer
    a, b = random_diagonal(rng, 5), random_diagonal(rng, 5)
    assert a.values != b.values
    shifted = fl.DiagonalCoords(base=a.base - 3, values=a.values)  # same values, other chart
    for path in list(all_paths(5, 8))[::7]:
        for src in (a, b, shifted):
            values, jac = row_completion_transport(src, path)
            pushed = fl.pushforward(src, path, basis(5)[0])
            assert pushed.base.values == values and fl.chart_jacobian(src, path) == jac
    # list values are not hashable, and the chart still works
    z = a.as_zigzag()
    listed = fl.ZigzagCoords(
        path=fl.ZigzagPath(start=z.path.start, moves=list(z.path.moves), width=5), values=list(z.values)
    )
    target = fl.ZigzagPath(start=3, moves=(SW, SE, SE, SW), width=5)
    assert fl.chart_jacobian(listed, target) == fl.chart_jacobian(z, target)


def test_list_moves_path_equals_tuple_path():
    z = fl.DiagonalCoords(base=7, values=(Fr(2), Fr(1, 3), Fr(5), Fr(3, 2), Fr(4))).as_zigzag()
    moves = tuple(z.path.moves)
    listed = fl.ZigzagPath(start=z.path.start, moves=list(moves), width=5)
    tupled = fl.ZigzagPath(start=z.path.start, moves=moves, width=5)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.moves == moves
    # the memo key is the path itself, so list moves reuse the tuple chart's polygon
    target = fl.ZigzagPath(start=3, moves=(SW, SE, SE, SW), width=5)
    _jet_polygon.cache_clear()
    first = fl.pushforward(ZigzagCoords(path=tupled, values=z.values), target, basis(5)[1])
    assert _jet_polygon.cache_info().hits == 0
    second = fl.pushforward(ZigzagCoords(path=listed, values=z.values), target, basis(5)[1])
    assert _jet_polygon.cache_info().hits == 1 and _jet_polygon.cache_info().misses == 1
    assert second == first


def test_zero_check_matches_row_completion():
    def outcome(build):
        try:
            build()
        except fl.FriezeLabError as exc:
            return type(exc), str(exc)
        return None

    choices = (Fr(-2), Fr(-1), Fr(-1, 2), Fr(1, 2), Fr(1), Fr(2))
    raised = 0
    for w in range(4):
        n = w + 3
        for vals in itertools.product(choices, repeat=w):
            for base in range(n):
                d = fl.DiagonalCoords(base=base, values=vals)
                z = d.as_zigzag()
                expected = outcome(lambda: fl.zigzag_to_frieze(z))
                assert outcome(lambda: fl.chart_jacobian(d, z.path)) == expected
                raised += expected is not None
    assert raised > 0
    # a failure is not cached: the same chart raises the same way again
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(-1)))
    first = outcome(lambda: fl.chart_jacobian(d, d.as_zigzag().path))
    assert first == (ZeroEntryEncountered, "zero entry in row 1, column 1")
    assert outcome(lambda: fl.chart_jacobian(d, d.as_zigzag().path)) == first


def test_zero_entry_off_the_target_path_raises():
    # the frieze of this diagonal has e(0, 2) = 0; the diagonal itself does not
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(-1)))
    with pytest.raises(fl.ZeroEntryEncountered):
        fl.pushforward(d, d.as_zigzag().path, (Fr(1), Fr(0)))
    with pytest.raises(fl.ZeroEntryEncountered):
        fl.polygon_tangent_from_diagonal(d, (Fr(1), Fr(0)))


def test_zero_entry_errors_do_not_depend_on_the_route():
    # this chart's frieze has e(1, 3) = 0; straightening it divided by that zero
    z = fl.ZigzagCoords(
        path=fl.ZigzagPath(start=12, moves=(SW, SW), width=3), values=(Fr(1, 2), Fr(-1), Fr(-3, 2))
    )
    for build in (
        lambda: fl.zigzag_to_frieze(z),
        lambda: fl.chart_jacobian(z, fl.ZigzagPath(start=0, moves=(SE, SE), width=3)),
    ):
        with pytest.raises(fl.ZeroEntryEncountered, match=r"^zero entry in row 1, column 2$"):
            build()


def test_zero_source_value_raises_zero_entry():
    d = fl.DiagonalCoords(base=4, values=(Fr(2), Fr(0)))
    z = fl.ZigzagCoords(path=fl.ZigzagPath(start=1, moves=(SW,)), values=(Fr(0), Fr(3)))
    target = fl.ZigzagPath(start=0, moves=(SE,))
    for build in (
        lambda: fl.zigzag_to_frieze(z),
        lambda: fl.chart_jacobian(d, target),
        lambda: fl.chart_jacobian(z, target),
        lambda: fl.pushforward(z, target, (Fr(1), Fr(0))),
        lambda: fl.polygon_tangent_from_diagonal(d, (Fr(1), Fr(0))),
    ):
        with pytest.raises(fl.ZeroEntryEncountered, match="zigzag values must be nonzero"):
            build()


def test_chart_needs_one_value_per_path_entry():
    for path, values in (
        (fl.ZigzagPath(start=0, moves=()), (Fr(2), Fr(3))),
        (fl.ZigzagPath(start=0, moves=(), width=0), (Fr(2),)),
    ):
        z = fl.ZigzagCoords(path=path, values=values)
        with pytest.raises(ValueError, match="one value per path entry"):
            fl.zigzag_to_frieze(z)
        with pytest.raises(ValueError, match="one value per path entry"):
            fl.chart_jacobian(z, path)


def as_strings(vectors):
    return tuple(tuple(str(x) for x in v) for v in vectors)


def test_polygon_tangent_pinned_values():
    d = fl.DiagonalCoords(base=5, values=(Fr(2), Fr(1, 3), Fr(5)))
    p, t = fl.polygon_tangent_from_diagonal(d, (Fr(1), Fr(-2), Fr(3)))
    assert as_strings(p) == (
        ("0", "1"), ("1", "2"), ("2/3", "1/3"), ("13", "5"), ("14/5", "1"), ("1", "0")
    )
    assert as_strings(t) == (
        ("0", "0"), ("0", "1"), ("-4/3", "-2"), ("64", "3"), ("278/25", "0"), ("0", "0")
    )
    # another base: the polygon is still normalized at its distinguished vertex
    d = fl.DiagonalCoords(base=1, values=(Fr(3), Fr(-1, 2)))
    p, t = fl.polygon_tangent_from_diagonal(d, (Fr(2), Fr(1)))
    assert as_strings(p) == (("0", "1"), ("1", "3"), ("1/6", "-1/2"), ("-7/3", "1"), ("1", "0"))
    assert as_strings(t) == (("0", "0"), ("0", "2"), ("2/9", "1"), ("-46/9", "0"), ("0", "0"))


def test_pushforward_base_matches_frieze_at_width_24():
    rng = random.Random(97)
    w = 24
    values = tuple(Fr(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(w))
    d = fl.DiagonalCoords(base=w + 2, values=values)
    frieze = fl.diagonal_to_frieze(values)
    for _ in range(3):
        path = random_path(rng, w)
        pushed = fl.pushforward(d, path, basis(w)[rng.randrange(w)])
        assert pushed.base.values == fl.read_zigzag(frieze, path).values


def test_width_zero_chart_change_is_empty():
    assert fl.diagonal_to_frieze(()) == fl.propagate_from_quiddity((1, 1, 1))
    d = fl.DiagonalCoords(base=2, values=())
    path = fl.ZigzagPath(start=0, moves=(), width=0)
    assert fl.chart_jacobian(d, path) == []
    p, t = fl.polygon_tangent_from_diagonal(d, ())
    assert p == ((0, 1), (1, 1), (1, 0)) and t == ((0, 0),) * 3


def test_chart_change_rejects_other_width():
    d = fl.DiagonalCoords(base=4, values=(Fr(1), Fr(2)))
    for w in (1, 3):
        with pytest.raises(ValueError):
            fl.chart_jacobian(d, fl.ZigzagPath(start=0, moves=(SE,) * (w - 1), width=w))


def test_exact_modules_do_not_import_numpy():
    # the exact side runs on Fractions and must stay free of numpy
    root = Path(fl.__file__).parent
    for name in ("frieze", "jets", "recurrence", "cluster", "serialize", "exceptions"):
        tree = ast.parse((root / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "numpy" for m in modules), f"{name}.py imports numpy"
