import itertools
import math
import random
import time
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frieze_lab as fl
from frieze_lab.frieze import SE, SW
from row_reference import complete_rows, quiddity_from_diagonal


def small_fraction(rng, lo=1, hi=6):
    v = Fr(rng.randint(lo, hi), rng.randint(lo, hi))
    return -v if rng.random() < 0.3 else v


def random_diagonal(rng, w):
    while True:
        vals = tuple(small_fraction(rng) for _ in range(w))
        try:
            return fl.diagonal_to_frieze(vals), vals
        except fl.ZeroEntryEncountered:
            continue


def test_width0_closes():
    f = fl.propagate_from_quiddity((1, 1, 1))
    assert f.width == 0
    assert f.rows == ((Fr(0),) * 3, (Fr(1),) * 3, (Fr(1),) * 3)


def test_pentagon_quiddity_closes():
    f = fl.propagate_from_quiddity((1, 2, 2, 1, 3))
    assert f.width == 2
    assert f.rows[3] == (Fr(1), Fr(3), Fr(1), Fr(2), Fr(2))
    assert f.rows[4] == (Fr(1),) * 5
    assert f.is_valid()


def test_constant_two_not_closed():
    # solutions of V_{i+1} = 2V_i - V_{i-1} are affine in i, never antiperiodic
    with pytest.raises(fl.NotClosed):
        fl.propagate_from_quiddity((2, 2, 2, 2, 2))


def test_zero_interior_entry_rejected():
    # diagonal (-1, 1) forces a zero in the quiddity row, then a division by it
    with pytest.raises(fl.ZeroEntryEncountered):
        fl.diagonal_to_frieze((-1, 1))


def test_library_rejects_huge_exponents_promptly():
    # Fraction("1e1000000") alone takes about 0.4 s, and larger exponents do not return
    for build, arg in ((fl.propagate_from_quiddity, ["1e1000000", 1, 1]), (fl.diagonal_to_frieze, ["1e5000"])):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            build(arg)
        assert time.perf_counter() - t0 < 0.1
    from frieze_lab import frieze, serialize

    assert serialize.str_to_fraction is frieze.str_to_fraction  # one parser, one message
    # accepted text gives the Fraction it always did
    for text in ("3/5", "-2", " 7 ", "2.5", "1e4300", "-15E-4300", "1_000", "2.5e0_0_3"):
        assert frieze.as_fraction(text) == Fr(text)
    assert fl.diagonal_to_frieze(["1e2"]) == fl.diagonal_to_frieze([100])


def test_width2_generic_entries():
    # hand-propagated generic width-2 frieze: first row cycles
    # a1, (a2+1)/a1, (a1+1)/a2, a2, (a1+a2+1)/(a1 a2)
    for a1, a2 in ((Fr(1), Fr(2)), (Fr(1), Fr(1)), (Fr(3, 2), Fr(5))):
        f = fl.diagonal_to_frieze((a1, a2))
        expected = {a1, (a2 + 1) / a1, (a1 + 1) / a2, a2, (a1 + a2 + 1) / (a1 * a2)}
        assert set(f.quiddity) == expected
        assert (a1 + a2 + 1) / (a1 * a2) in set(f.rows[3])


def test_width1_alternation():
    # c_i c_{i+1} = 2 forces the first row to alternate a, 2/a
    f = fl.diagonal_to_frieze((Fr(2),))
    assert sorted(set(f.quiddity)) == [Fr(1), Fr(2)]
    assert f.quiddity[0] != f.quiddity[1]
    assert f.quiddity[0] == f.quiddity[2]


def test_diagonal_roundtrip():
    rng = random.Random(11)
    for w in range(1, 6):
        for _ in range(5):
            f, vals = random_diagonal(rng, w)
            assert f.diagonal().values == vals
            for base in range(f.period):
                d = f.diagonal(base)
                assert fl.diagonal_to_frieze(d.values, base=base) == f


def test_quiddity_roundtrip():
    rng = random.Random(23)
    for w in range(1, 5):
        f, _ = random_diagonal(rng, w)
        assert fl.propagate_from_quiddity(f.quiddity) == f


# zeros, negatives and rationals: most random quiddities do not close, and
# diagonals over these values give friezes with zero entries as well
ENTRY_CHOICES = (Fr(0), Fr(1), Fr(-1), Fr(2), Fr(-2), Fr(3), Fr(1, 2), Fr(-1, 2), Fr(3, 2), Fr(-2, 3))


def _outcome(build):
    """Rows as lists, or the type and message of the error."""
    try:
        rows = build()
    except fl.FriezeLabError as exc:
        return type(exc), str(exc)
    return [list(row) for row in rows]


def test_brackets_match_division_completion():
    """Quiddities and diagonals give the division completion's rows or its error."""
    rng = random.Random(20)
    outcomes = {}
    for k in range(20000):
        w = rng.randint(0, 6)
        n = w + 3
        if k % 2:
            base = rng.choice((None, rng.randint(-n, 2 * n)))
            vals = tuple(rng.choice(ENTRY_CHOICES) for _ in range(w))
            got = _outcome(lambda: fl.diagonal_to_frieze(vals, base=base).rows)
            if 0 in vals:
                expected = (fl.ZeroEntryEncountered, "diagonal values must be nonzero")
            else:
                b = n - 1 if base is None else base % n
                expected = _outcome(lambda: complete_rows(quiddity_from_diagonal(vals, b, n), n))
        else:
            if rng.random() < 0.5:
                q = [rng.choice(ENTRY_CHOICES) for _ in range(n)]
            else:  # closed, unless one entry is moved
                vals = [rng.choice(ENTRY_CHOICES[1:]) for _ in range(w)]
                q = quiddity_from_diagonal(vals, rng.randrange(n), n)
                if rng.random() < 0.25:
                    q[rng.randrange(n)] += rng.choice(ENTRY_CHOICES[1:])
            got = _outcome(lambda: fl.propagate_from_quiddity(q).rows)
            expected = _outcome(lambda: complete_rows(q, n))
        assert got == expected, (k, w)
        kind = "rows" if isinstance(got, list) else got[0]
        if kind == "rows":
            assert all(type(x) is Fr for row in got for x in row)
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert set(outcomes) == {"rows", fl.ZeroEntryEncountered, fl.NotClosed}
    assert min(outcomes.values()) > 1000, outcomes


def test_read_zigzag_diagonal_path():
    f = fl.diagonal_to_frieze((1, 2))
    d = f.diagonal()
    z = fl.read_zigzag(f, d.as_zigzag().path)
    assert z.values == (Fr(1), Fr(2))


def test_read_zigzag_sw_goes_one_column_west():
    f = fl.diagonal_to_frieze((1, 2))
    for start in range(5):
        z = fl.read_zigzag(f, fl.ZigzagPath(start=start, moves=(SW,)))
        assert z.values[0] == f.entry(1, start + 1)
        assert z.values[1] == f.entry(2, start)  # row-2 entry one column west


def test_width0_empty_path():
    f = fl.propagate_from_quiddity((1, 1, 1))
    z = fl.read_zigzag(f, fl.ZigzagPath(start=0, moves=(), width=0))
    assert z.values == ()
    assert fl.zigzag_to_frieze(z) == f


def test_zigzag_reconstruction_exhaustive():
    # every zigzag chart determines the same frieze, all paths x all starts
    rng = random.Random(5)
    for w in range(1, 7):
        f, _ = random_diagonal(rng, w)
        n = f.period
        for start in range(n):
            for bits in range(2 ** max(w - 1, 0)):
                moves = tuple(SE if bits & (1 << k) else SW for k in range(w - 1))
                z = fl.read_zigzag(f, fl.ZigzagPath(start=start, moves=moves))
                assert fl.zigzag_to_frieze(z) == f


def test_mutation_involutive():
    f = fl.diagonal_to_frieze((1, 2, 3))
    for start in (0, 2, 5):
        for moves in ((SE, SE), (SE, SW), (SW, SE), (SW, SW)):
            z = fl.read_zigzag(f, fl.ZigzagPath(start=start, moves=moves))
            for p in range(3):
                if p == 1 and moves[0] == moves[1]:
                    with pytest.raises(ValueError):
                        fl.elementary_mutation(z, p)
                    continue
                m = fl.elementary_mutation(z, p)
                assert fl.elementary_mutation(m, p) == z
                assert fl.zigzag_to_frieze(m) == f


def test_mutation_width1_involutive():
    f = fl.diagonal_to_frieze((Fr(3),))
    z = fl.read_zigzag(f, fl.ZigzagPath(start=3, moves=()))
    assert z.values == (Fr(3),)
    m = fl.elementary_mutation(z, 0)
    assert m.values[0] == Fr(2, 3)  # (1 + 1*1)/3
    assert fl.elementary_mutation(m, 0) == z
    assert fl.zigzag_to_frieze(m) == f


def test_mutation_pentagon_first_position():
    # diamond arithmetic: new first value (1 + 1*a2)/a1 = 3 on the (1,2) pentagon
    f = fl.diagonal_to_frieze((1, 2))
    z = fl.read_zigzag(f, f.diagonal().as_zigzag().path)
    m = fl.elementary_mutation(z, 0)
    assert m.values == (Fr(3), Fr(2))
    assert m.path.moves == (SW,)
    assert fl.zigzag_to_frieze(m) == f


def test_glide_symmetry_map():
    # fixed index map (r, j) -> (w+1-r, j+r+1); its square shifts by n
    for f in (fl.diagonal_to_frieze((1, 2)), fl.diagonal_to_frieze((Fr(2),))):
        n, w = f.period, f.width
        for r in range(0, w + 2):
            for j in range(n):
                r2, j2 = f.glide_partner(r, j)
                assert f.entry(r, j) == f.entry(r2, j2)
                r3, j3 = f.glide_partner(r2, j2)
                assert (r3, (j3 - j) % n) == (r, 0)


def _glide_candidates(f):
    n, w = f.period, f.width
    return [
        (u, v)
        for u in range(n)
        for v in range(n)
        if all(
            f.entry(r, j) == f.entry(w + 1 - r, j + u * r + v)
            for r in range(0, w + 2)
            for j in range(n)
        )
    ]


def test_glide_map_found_by_search():
    # brute-force derivation of the affine index map (r, j) |-> (w+1-r, j+ur+v)
    assert (1, 1) in _glide_candidates(fl.diagonal_to_frieze((1, 2)))
    assert (1, 1) in _glide_candidates(fl.diagonal_to_frieze((Fr(2),)))
    # a generic even-width frieze pins the map down uniquely; odd widths admit
    # a second representative because the middle row is half-period
    g = fl.diagonal_to_frieze((Fr(5, 2), Fr(7, 3)))
    assert _glide_candidates(g) == [(1, 1)]
    h = fl.diagonal_to_frieze((Fr(5, 2), Fr(7, 3), Fr(1, 4)))
    assert (1, 1) in _glide_candidates(h)


def test_period_cyclic_access():
    f = fl.diagonal_to_frieze((1, 2))
    for r in range(-1, f.width + 2):
        for j in range(f.period):
            assert f.entry(r, j + f.period) == f.entry(r, j)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=Fr(-4), max_value=Fr(4)).filter(lambda q: q != 0),
        min_size=1,
        max_size=4,
    )
)
def test_property_diagonal_roundtrip(vals):
    try:
        f = fl.diagonal_to_frieze(vals)
    except fl.ZeroEntryEncountered:
        return
    assert f.diagonal().values == tuple(vals)
    assert f.is_valid()


def test_read_zigzag_width_mismatch():
    f = fl.diagonal_to_frieze((1, 2))
    with pytest.raises(ValueError):
        fl.read_zigzag(f, fl.ZigzagPath(start=0, moves=(SE, SE)))


def test_zigzag_path_validation():
    with pytest.raises(ValueError):
        fl.ZigzagPath(start=0, moves=("NE",))
    with pytest.raises(ValueError):
        fl.ZigzagPath(start=0, moves=(SE,), width=3)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=Fr(-3), max_value=Fr(3)).filter(lambda q: q != 0),
        min_size=2,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_property_mutations_preserve_frieze(vals, rng):
    try:
        f = fl.diagonal_to_frieze(vals)
    except fl.ZeroEntryEncountered:
        return
    z = fl.read_zigzag(f, f.diagonal().as_zigzag().path)
    for _ in range(4):
        w = z.width
        admissible = [
            p
            for p in range(w)
            if p in (0, w - 1) or z.path.moves[p - 1] != z.path.moves[p]
        ]
        p = rng.choice(admissible)
        m = fl.elementary_mutation(z, p)
        assert fl.elementary_mutation(m, p) == z
        assert fl.zigzag_to_frieze(m) == f
        z = m


def triangulations(verts):
    """Every triangulation of the convex polygon on ``verts``, as lists of triangles.

    The edge from the first to the last vertex lies in exactly one triangle;
    its apex splits the rest into two smaller polygons.
    """
    if len(verts) < 3:
        yield []
        return
    for k in range(1, len(verts) - 1):
        for left in triangulations(verts[: k + 1]):
            for right in triangulations(verts[k:]):
                yield [(verts[0], verts[k], verts[-1]), *left, *right]


def triangle_counts(n, triangles):
    q = [0] * n
    for t in triangles:
        for v in t:
            q[v] += 1
    return tuple(q)


@pytest.mark.parametrize("w", range(7))
def test_conway_coxeter_oracle(w):
    # Conway-Coxeter (1973): the triangle counts of the triangulations of the
    # (w+3)-gon are the quiddities of the positive integer friezes of width w
    n = w + 3
    quiddities = [triangle_counts(n, t) for t in triangulations(list(range(n)))]
    friezes = [fl.propagate_from_quiddity(q) for q in quiddities]
    catalan = math.comb(2 * (w + 1), w + 1) // (w + 2)
    assert len(set(quiddities)) == catalan
    assert len({f.rows for f in friezes}) == catalan
    paths = list(itertools.product((SE, SW), repeat=max(w - 1, 0)))
    for k, (q, f) in enumerate(zip(quiddities, friezes)):
        assert f.width == w and f.quiddity == q
        for r in range(0, w + 2):
            assert all(x.denominator == 1 and x > 0 for x in f.rows[r + 1])
        assert f.is_valid()
        assert all(
            f.entry(r, j) == f.entry(*f.glide_partner(r, j)) for r in range(0, w + 2) for j in range(n)
        )
        # one round trip of each kind per frieze, cycling through bases and paths
        base = k % n
        assert fl.diagonal_to_frieze(f.diagonal(base).values, base=base) == f
        path = fl.ZigzagPath(start=k % n, moves=paths[k % len(paths)], width=w)
        assert fl.zigzag_to_frieze(fl.read_zigzag(f, path)) == f
