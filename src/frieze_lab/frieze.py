"""Closed frieze patterns over exact rationals, with diagonal and zigzag coordinates.

Conventions
-----------
The display array stores one horizontal period of each row: row -1 is the
top 0-row, row 0 the top 1-row, rows 1..w the nontrivial band, row w+1 the
closing 1-row.  Internally the entry in display row r, column j is
``e(j-1, j+r)``, where ``e(i, j)`` is the bracket of fundamental-solution
vectors i and j of the associated three-term recurrence.  In that picture

* the diamond rule  left*right - top*bottom = 1  is the Pluecker relation
  ``e(i,j) e(i+1,j+1) - e(i,j+1) e(i+1,j) = 1``,
* the same relation is a discrete Liouville equation with no truncation
  error: with ``F = eps*e`` on the grid of step ``eps``, the forward-difference
  form of ``F F_xy - F_x F_y`` is ``(F00 F11 - F10 F01)/eps**2``, because the
  cross terms cancel, and that is the diamond above, so it equals 1 exactly,
* a South-East diagonal is ``e(i0, i0+1+k)`` for fixed ``i0``,
* the glide symmetry is ``e(i, j) == e(j, i+n)``, whose square is the
  horizontal shift by the period ``n = w + 3``.

Every frieze is the bracket table of one polygon, read by ``_bracket_rows``
off integer vertices: each vertex (x/D, y/D) is written once as ``(D, x, y)``
(``_integer_vertices``), so an entry is integer products and one
``Fraction``.  ``propagate_from_quiddity`` takes the vertices from the
recurrence's orbit, ``zigzag_to_frieze`` from the chart, where each path step
adds one vertex (``_chart_polygon``), and the cluster module passes the value
parts of its integer jet polygon.  All public constructors work over
``fractions.Fraction``; ``_chart_polygon`` and the zigzag mutations are
scalar-generic, and the cluster module runs ``_chart_polygon`` on jet
(dual-number) values to read every entry as a bracket of polygon vertices.
Rational text is parsed by ``str_to_fraction``, whose exponent bound holds for
the constructors here and for the command line alike.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from ._frozen import Frozen
from .exceptions import FriezeLabError, NotClosed, ZeroEntryEncountered
from .recurrence import DiscreteHillEquation, solve_recurrence

SE = "SE"
SW = "SW"


MAX_EXPONENT = 4300  # CPython's default limit on the digits of an int string


def str_to_fraction(s) -> Fraction:
    """Exact rational from an int, a Fraction or text; exponents past MAX_EXPONENT raise ValueError.

    A bool is an int to Python but not a rational here: it raises ValueError,
    so a JSON ``true`` is not read as 1.
    """
    if isinstance(s, bool):
        raise ValueError(f"{s!r} is a boolean, not a rational")
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    if isinstance(s, str) and len(s) <= MAX_EXPONENT and s.isascii() and s.removeprefix("-").isdecimal():
        return Fraction(int(s))  # an integer token, short enough for int()
    m = re.search(r"e[-+]?([\d_]+)\s*\Z", text := str(s), re.IGNORECASE)
    digits = m[1].replace("_", "").lstrip("0") if m else ""
    if len(digits) > 4 or int(digits or 0) > MAX_EXPONENT:  # Fraction would build 10**exponent
        raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")
    return Fraction(text)


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/5', and Fractions; floats are rejected.

    Strings are parsed by ``str_to_fraction``, so an exponent beyond
    MAX_EXPONENT raises ValueError instead of building a huge power of ten.
    """
    if isinstance(x, (int, str, Fraction)):
        return str_to_fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def _is_zero(x) -> bool:
    # jets compare by value part; everything else compares to 0 directly
    return getattr(x, "val", x) == 0


def _integer_vertices(V: Sequence) -> list[tuple[int, int, int]]:
    """Rational vertices (x, y) as ``(D, x*D, y*D)``, D > 0 the lcm of the two denominators."""
    out = []
    for x, y in V:
        D = lcm(x.denominator, y.denominator)
        out.append((D, x.numerator * (D // x.denominator), y.numerator * (D // y.denominator)))
    return out


def _bracket_rows(W: Sequence[tuple[int, int, int]], n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Display rows -1..n-2, entry e(j-1, j-1+d) = [W_j, W_{j+d}] in row d-1.

    ``W_k = V_{k-1}``, k = 0..2n-2, are polygon vertices with unit consecutive
    brackets, each given as integers ``(D, x, y)``: coordinates x/D and y/D
    over D > 0.  An entry is one ``Fraction(x_u y_v - y_u x_v, D_u D_v)``.
    Raises ZeroEntryEncountered at the first zero of band rows 1..n-3, scanned
    from column 1 round to column 0, and NotClosed when row n-2 is not a row
    of ones; both read the integer numerators, which have the entries' signs.
    The row after a nonzero band is then zero by the Pluecker relation.
    """
    rows = [(Fraction(0),) * n, (Fraction(1),) * n]
    for d in range(2, n):
        nums, dens = [], []
        for (Du, xu, yu), (Dv, xv, yv) in zip(W, W[d : d + n]):
            nums.append(xu * yv - yu * xv)
            dens.append(Du * Dv)
        if d < n - 1 and 0 in nums:
            j = next(j for j in (*range(1, n), 0) if nums[j] == 0)
            raise ZeroEntryEncountered(f"zero entry in row {d - 1}, column {j}")
        if d == n - 1 and nums != dens:
            raise NotClosed("no second row of ones at depth n-2")
        rows.append(tuple(map(Fraction, nums, dens)))
    return tuple(rows)


class FriezePattern(Frozen):
    """One horizontal period of a closed frieze of width ``w``."""

    __slots__ = ("width", "rows")

    def __init__(self, width: int, rows: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "rows", rows)  # display rows -1 .. width+1

    @property
    def period(self) -> int:
        return self.width + 3

    @property
    def quiddity(self) -> tuple[Fraction, ...]:
        return self.rows[2]

    def entry(self, r: int, j: int) -> Fraction:
        """Display entry in row r (-1..w+1), column j (cyclic)."""
        return self.rows[r + 1][j % self.period]

    def ent(self, i: int, j: int) -> Fraction:
        """Bracket-indexed entry e(i, j), defined for 0 <= j - i <= n."""
        r = j - i - 1
        if r == self.period - 1:
            return Fraction(0)
        if not -1 <= r <= self.width + 1:
            raise IndexError(f"e({i},{j}) outside the fundamental band")
        return self.entry(r, i + 1)

    def diagonal(self, base: int | None = None) -> "DiagonalCoords":
        """South-East diagonal values (a_1..a_w) with left endpoint ``base``.

        The default base n-1 is the diagonal adjacent to the distinguished
        vertex of the fundamental polygon.
        """
        b = (self.period - 1) if base is None else base % self.period
        vals = tuple(self.ent(b, b + 1 + k) for k in range(1, self.width + 1))
        return DiagonalCoords(base=b, values=vals)

    def glide_partner(self, r: int, j: int) -> tuple[int, int]:
        """Index map of the glide symmetry; its square is the shift by n."""
        return self.width + 1 - r, (j + r + 1) % self.period

    def check(self) -> dict:
        """Structural diagnostics; every value must be True for a valid frieze.

        Exact rows equal to the bracket table of the frieze's own quiddity pass
        all four at once: the table's consecutive brackets are 1, so its
        diamond rule is the Pluecker relation; its border rows are built in;
        ``_bracket_rows`` scanned its band for zeros and tested its closing
        row; and a closed polygon has V_{k+n} = -V_k, which is the glide
        symmetry.  The table is the one ``propagate_from_quiddity`` keeps, so
        a frieze just propagated is not built twice.  Other rows, or a
        quiddity that does not propagate, run the four diagnostics entry by
        entry.
        """
        n = self.period
        try:
            table = all(isinstance(x, (int, Fraction)) for row in self.rows for x in row) and (
                self == propagate_from_quiddity(self.quiddity)
            )
        except (FriezeLabError, ArithmeticError, LookupError, TypeError, ValueError):
            table = False  # the diagnostics below report, or raise, as they always have
        diamond_ok = table or all(
            self.ent(i, i + d) * self.ent(i + 1, i + 1 + d)
            - self.ent(i, i + 1 + d) * self.ent(i + 1, i + d)
            == 1
            for i in range(n)
            for d in range(1, n)
        )
        border_ok = table or (
            all(x == 0 for x in self.rows[0])
            and all(x == 1 for x in self.rows[1])
            and all(x == 1 for x in self.rows[n - 1])
        )
        nonzero_ok = table or all(
            x != 0 for r in range(1, self.width + 1) for x in self.rows[r + 1]
        )
        glide_ok = table or all(
            self.ent(i, i + d) == self.ent(i + d, i + n)
            for i in range(n)
            for d in range(0, n + 1)
        )
        return {
            "diamond_rule": diamond_ok,
            "border_rows": border_ok,
            "nonzero_interior": nonzero_ok,
            "glide_symmetry": glide_ok,
            "period": n,
        }

    def is_valid(self) -> bool:
        return report_is_valid(self.check())


def report_is_valid(report: dict) -> bool:
    """Whether a ``FriezePattern.check()`` report passes every check."""
    return all(v for k, v in report.items() if k != "period")


def propagate_from_quiddity(quiddity: Sequence) -> FriezePattern:
    """Build the closed frieze whose first nontrivial row is ``quiddity``."""
    c = tuple(as_fraction(x) for x in quiddity)
    if len(c) < 3:
        raise ValueError("period must be at least 3")
    return FriezePattern(width=len(c) - 3, rows=_quiddity_rows(c))


@lru_cache(maxsize=1)
def _quiddity_rows(c: tuple[Fraction, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """The bracket table of the recurrence orbit of ``c``.

    The last table is kept, so ``FriezePattern.check()`` on a frieze just
    propagated, as ``frieze check`` does after reading its document, does not
    build it again.  A quiddity that raises is not kept.
    """
    n = len(c)
    orbit = solve_recurrence(DiscreteHillEquation(c), (1, 0), (0, 1), 2 * n - 3)
    return _bracket_rows(_integer_vertices([(c[0], -1), *orbit]), n)


# ---------------------------------------------------------------------------
# diagonal coordinates


class DiagonalCoords(Frozen):
    """Values (a_1..a_w) along the SE diagonal with left endpoint ``base``."""

    __slots__ = ("base", "values")

    def __init__(self, base: int, values: tuple):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return len(self.values)

    def as_zigzag(self) -> "ZigzagCoords":
        path = ZigzagPath(
            start=self.base, moves=(SE,) * max(self.width - 1, 0), width=self.width
        )
        return ZigzagCoords(path=path, values=tuple(self.values))


def diagonal_to_frieze(values: Sequence, base: int | None = None) -> FriezePattern:
    """Closed frieze whose SE diagonal at ``base`` reads (1, a_1..a_w, 1).

    Defaults to base n-1 so that the input diagonal is the one attached to the
    fundamental polygon's distinguished vertex.
    """
    vals = tuple(as_fraction(x) for x in values)
    if any(v == 0 for v in vals):
        raise ZeroEntryEncountered("diagonal values must be nonzero")
    n = len(vals) + 3
    b = (n - 1) if base is None else base % n
    return zigzag_to_frieze(DiagonalCoords(base=b, values=vals).as_zigzag())


# ---------------------------------------------------------------------------
# zigzag coordinates


class ZigzagPath(Frozen):
    """Monotone-down path visiting one entry in each row 1..w.

    ``start`` is the left e-index of the row-1 vertex, i.e. the first vertex
    is e(start, start+2).  A SE move sends e(i, j) to e(i, j+1), a SW move to
    e(i-1, j).  ``width`` is stored explicitly so the empty path of a width-0
    frieze stays distinguishable from a width-1 path.  ``moves`` is stored as
    a tuple, so a path built from a list equals and hashes like the same path
    built from a tuple.
    """

    __slots__ = ("start", "moves", "width")

    def __init__(self, start: int, moves: tuple[str, ...], width: int | None = None):
        moves = tuple(moves)
        w = len(moves) + 1 if width is None else width
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "width", w)
        if w > 0 and len(moves) != w - 1:
            raise ValueError("a width-w path needs w-1 moves")
        if any(m not in (SE, SW) for m in moves):
            raise ValueError("moves must be 'SE' or 'SW'")

    def vertices(self) -> list[tuple[int, int]]:
        """(i, j) e-indices of the visited entries, top to bottom."""
        if self.width == 0:
            return []
        pts = [(self.start, self.start + 2)]
        for m in self.moves:
            i, j = pts[-1]
            pts.append((i, j + 1) if m == SE else (i - 1, j))
        return pts


class ZigzagCoords(Frozen):
    __slots__ = ("path", "values")

    def __init__(self, path: ZigzagPath, values: tuple):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return self.path.width


def read_zigzag(frieze: FriezePattern, path: ZigzagPath) -> ZigzagCoords:
    """Frieze entries along the path, top to bottom."""
    if path.width != frieze.width:
        raise ValueError("path width does not match frieze width")
    vals = tuple(frieze.ent(i, j) for i, j in path.vertices())
    return ZigzagCoords(path=path, values=vals)


def elementary_mutation(z: ZigzagCoords, position: int) -> ZigzagCoords:
    """Flip the path vertex at ``position`` (0-based) across its diamond.

    The new value is d = (1 + b*c)/a where b and c are the on-path neighbours
    above and below (the bounding 1-rows at the endpoints).  Admissible
    positions are the two endpoints and interior corners; flipping a vertex
    inside a straight run is not a zigzag move and raises ValueError.  For
    width 1 the flip direction is not intrinsic; we move right from even start
    columns and left from odd ones, which keeps the operation an involution.
    """
    w = z.width
    p = position
    if not 0 <= p < w:
        raise ValueError(f"position {p} out of range for width {w}")
    vals = list(z.values)
    moves = list(z.path.moves)
    start = z.path.start

    a = vals[p]
    b = vals[p - 1] if p > 0 else 1
    c = vals[p + 1] if p < w - 1 else 1
    if _is_zero(a):
        raise ZeroDivisionError("zigzag value is zero")
    d = (1 + b * c) / a

    if w == 1:
        start += 1 if start % 2 == 0 else -1
    elif p == 0:
        if moves[0] == SE:
            start += 1
            moves[0] = SW
        else:
            start -= 1
            moves[0] = SE
    elif p == w - 1:
        moves[w - 2] = SW if moves[w - 2] == SE else SE
    else:
        if moves[p - 1] == moves[p]:
            raise ValueError(f"no corner at position {p}; path is straight there")
        moves[p - 1], moves[p] = moves[p], moves[p - 1]

    vals[p] = d
    path = ZigzagPath(start=start, moves=tuple(moves), width=w)
    return ZigzagCoords(path=path, values=tuple(vals))


def _chart_polygon(path: ZigzagPath, values: Sequence, one) -> list:
    """Polygon vertices V_0..V_{2n-1} read off a zigzag chart.  Scalar-generic.

    The entries visited are the row-0 entry e(s, s+1) = 1 with s = path.start,
    the path, and the closing entry of the row of ones.  The current entry is
    always e(lo, hi) over the vertices built so far, V_s = (1, 0) and
    V_{s+1} = (0, 1) to begin with.  A step from value a to value b adds one
    vertex with unit bracket against its neighbour: a SE step
    V_{hi+1} = (b V_hi - V_lo)/a, a SW step V_{lo-1} = (b V_lo - V_hi)/a.  The
    last step closes the n vertices, and V_{k+n} = -V_k gives the rest.  Only
    path values are divisors; ``one`` is the unit of the scalar type.
    """
    if len(values) != path.width:
        raise ValueError("a zigzag chart needs one value per path entry")
    if any(_is_zero(v) for v in values):
        raise ZeroEntryEncountered("zigzag values must be nonzero")
    zero = one - one
    poly = deque([(one, zero), (zero, one)])
    a = one
    # zip stops at the closing entry; for w = 0 it is the first step
    for move, b in zip((SE, *path.moves, SE), (*values, one)):
        near, far = (poly[-1], poly[0]) if move == SE else (poly[0], poly[-1])
        vertex = ((b * near[0] - far[0]) / a, (b * near[1] - far[1]) / a)
        if move == SE:
            poly.append(vertex)
        else:
            poly.appendleft(vertex)
        a = b
    lo = path.start - path.moves.count(SW)
    polygon = [*poly, *((-x, -y) for x, y in poly)]
    r = -lo % len(polygon)
    return polygon[r:] + polygon[:r]


def zigzag_to_frieze(z: ZigzagCoords) -> FriezePattern:
    """The frieze determined by zigzag coordinates: the bracket table of its chart's polygon."""
    V = _chart_polygon(z.path, z.values, Fraction(1))
    n = len(V) // 2
    frieze = FriezePattern(width=n - 3, rows=_bracket_rows(_integer_vertices([V[-1], *V[:-2]]), n))
    if read_zigzag(frieze, z.path).values != z.values:
        raise AssertionError("zigzag reconstruction mismatch")
    return frieze
