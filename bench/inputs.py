"""Seeded benchmark inputs and an exact oracle for frieze entries.

Integer friezes are Conway-Coxeter friezes: their quiddity counts the
triangles at each vertex of a uniformly random triangulation of the
(w+3)-gon.  Rational friezes come from positive diagonals with small
numerators and denominators.  Every entry of a positive frieze is nonzero,
so no generated input has to be filtered.

The oracle computes entries as brackets e(i, j) = det(V_i, V_j) of the
solution vectors of V_{k+1} = c_k V_k - V_{k-1}; it shares no code with the
package's row propagation and is used to build and check documents.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

SE, SW = "SE", "SW"


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _count(k: int) -> int:
    # triangulations of a convex polygon with k vertices (k = 2 is an edge)
    return catalan(k - 2) if k >= 2 else 1


def _quiddity(n: int, triangles) -> tuple[int, ...]:
    q = [0] * n
    for tri in triangles:
        for v in tri:
            q[v] += 1
    return tuple(q)


def random_quiddity(rng: random.Random, w: int) -> tuple[int, ...]:
    """Quiddity of a uniformly random triangulation of the (w+3)-gon.

    The edge (v_0, v_{k-1}) of a sub-polygon lies in exactly one triangle
    (v_0, v_j, v_{k-1}); choosing j with weight T(j+1) T(k-j) makes every
    triangulation equally likely.
    """
    n = w + 3
    triangles = []
    stack = [list(range(n))]
    while stack:
        poly = stack.pop()
        k = len(poly)
        if k < 3:
            continue
        weights = [_count(j + 1) * _count(k - j) for j in range(1, k - 1)]
        j = rng.choices(range(1, k - 1), weights=weights)[0]
        triangles.append((poly[0], poly[j], poly[-1]))
        stack.append(poly[: j + 1])
        stack.append(poly[j:])
    return _quiddity(n, triangles)


def _triangulations(poly):
    if len(poly) < 3:
        yield []
        return
    for j in range(1, len(poly) - 1):
        for left in _triangulations(poly[: j + 1]):
            for right in _triangulations(poly[j:]):
                yield [(poly[0], poly[j], poly[-1]), *left, *right]


def all_quiddities(w: int) -> list[tuple[int, ...]]:
    n = w + 3
    return [_quiddity(n, t) for t in _triangulations(list(range(n)))]


def positive_diagonal(rng: random.Random, w: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(w))


def small_vector(rng: random.Random, w: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(w))


def random_moves(rng: random.Random, w: int) -> tuple[str, ...]:
    return tuple(rng.choice((SE, SW)) for _ in range(w - 1))


def all_moves(w: int):
    for bits in range(2 ** (w - 1)):
        yield tuple(SE if bits >> k & 1 else SW for k in range(w - 1))


def path_vertices(start: int, moves) -> list[tuple[int, int]]:
    """(i, j) bracket indices of a zigzag path: SE adds 1 to j, SW takes 1 from i."""
    pts = [(start, start + 2)]
    for m in moves:
        i, j = pts[-1]
        pts.append((i, j + 1) if m == SE else (i - 1, j))
    return pts


def flipped_path(start: int, moves, position: int) -> tuple[int, tuple[str, ...]]:
    """The path after a zigzag flip at `position`, by the rule documented in
    `frieze.elementary_mutation`: the top endpoint moves its start one column
    and turns its first move, the bottom endpoint turns its last move, and an
    interior corner swaps its two moves."""
    moves = list(moves)
    w = len(moves) + 1
    if w == 1:
        start += 1 if start % 2 == 0 else -1
    elif position == 0:
        start += 1 if moves[0] == SE else -1
        moves[0] = SW if moves[0] == SE else SE
    elif position == w - 1:
        moves[-1] = SW if moves[-1] == SE else SE
    else:
        if moves[position - 1] == moves[position]:
            raise ValueError(f"no corner at position {position}")
        moves[position - 1], moves[position] = moves[position], moves[position - 1]
    return start, tuple(moves)


class Oracle:
    """Entries e(i, j) of the closed frieze with a given quiddity."""

    def __init__(self, quiddity):
        self.c = [Fraction(x) for x in quiddity]
        self.n = len(self.c)
        vs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
        for k in range(1, 3 * self.n):
            ck = self.c[k % self.n]
            vs.append((ck * vs[k][0] - vs[k - 1][0], ck * vs[k][1] - vs[k - 1][1]))
        self.v = vs

    def e(self, i: int, j: int) -> Fraction:
        shift = (-i // self.n + 1) * self.n if i < 0 else 0
        a, b = self.v[i + shift], self.v[j + shift]
        return a[0] * b[1] - a[1] * b[0]

    def rows(self) -> list[list[Fraction]]:
        """Display rows 0..w+1; row r, column j holds e(j-1, j+r)."""
        return [[self.e(j - 1, j + r) for j in range(self.n)] for r in range(self.n - 1)]

    def diagonal(self, base: int) -> tuple[Fraction, ...]:
        return tuple(self.e(base, base + 1 + k) for k in range(1, self.n - 2))

    def polygon(self) -> list[tuple[Fraction, Fraction]]:
        return [(self.e(0, i), self.e(self.n - 1, self.n + i)) for i in range(self.n)]

    def along(self, start: int, moves) -> tuple[Fraction, ...]:
        return tuple(self.e(i, j) for i, j in path_vertices(start, moves))


def frieze_doc(quiddity) -> dict:
    """A frieze document in the package's JSON schema, built by the oracle."""
    o = Oracle(quiddity)
    return {
        "width": o.n - 3,
        "period": o.n,
        "quiddity": [str(x) for x in o.c],
        "rows": [[str(x) for x in row] for row in o.rows()],
    }


def self_test(fl) -> list[str]:
    """Generator and oracle checks: Catalan counts and valid friezes for w <= 5."""
    problems = []
    for w in range(6):
        qs = all_quiddities(w)
        if len(set(qs)) != len(qs) or len(qs) != catalan(w + 1):
            problems.append(f"w={w}: {len(set(qs))} distinct quiddities, expected {catalan(w + 1)}")
        for q in qs:
            frieze = fl.propagate_from_quiddity(q)
            report = frieze.check()
            if not all(v for k, v in report.items() if k != "period"):
                problems.append(f"quiddity {q} fails FriezePattern.check: {report}")
            stored = [list(frieze.rows[r + 1]) for r in range(w + 2)]
            if stored != Oracle(q).rows():
                problems.append(f"quiddity {q}: oracle rows differ from propagation")
    rng = random.Random(0)
    for w in range(6):
        universe = set(all_quiddities(w))
        if any(random_quiddity(rng, w) not in universe for _ in range(20)):
            problems.append(f"w={w}: sampled quiddity outside the enumeration")
    return problems
