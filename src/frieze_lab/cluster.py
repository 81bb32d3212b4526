"""The canonical cluster 2-form on the space of closed friezes.

In diagonal coordinates (a_1..a_w) the form is

    omega = sum_{i=1}^{w-1}  da_i ^ da_{i+1} / (a_i a_{i+1}),

in zigzag coordinates the same sum acquires a sign (-1)^{eps_i} that is 0 on
SE steps and 1 on SW steps, and on the fundamental polygon it is the same
diagonal sum evaluated on brackets against the distinguished vertex V_{n-1}:
a_i = [V_{n-1}, V_i], and the tangent components [V_{n-1}, xi_i].

Coordinate changes run on the fundamental polygon.  The source chart is
seeded with jets and ``frieze._chart_polygon`` reads its 2n jet vertices off
the chart, one vertex per path step; every target entry is then the single
bracket e(i, j) = [V_i, V_j].  The jets carry exact first derivatives, so
equality of the three evaluations is testable as identity of rationals.

A source's polygon is built once: ``_jet_polygon`` keeps the 8 most recently
used polygons, keyed on the chart's path and values, so a sweep of one source
over many target charts takes only brackets after its first request.  A
chart that fails is not cached and raises again on every call.  The
zero-entry check on a new polygon scans the interior value brackets with
integer multiplications and no division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exceptions import GaugeViolation
from .frieze import SE, DiagonalCoords, ZigzagCoords, ZigzagPath, _bracket_rows, _chart_polygon
from .jets import Jet, seed_jets
from .recurrence import det2


@dataclass(frozen=True)
class TangentVector:
    """Coordinate components (delta a_1 .. delta a_w) at a base chart."""

    base: DiagonalCoords | ZigzagCoords
    components: tuple

    @property
    def width(self) -> int:
        return len(self.components)


def _pair_sum(values, xi, eta, signs=None):
    total = Fraction(0)
    w = len(values)
    for i in range(w - 1):
        term = (xi[i] * eta[i + 1] - xi[i + 1] * eta[i]) / (values[i] * values[i + 1])
        if signs is not None and signs[i]:
            term = -term
        total = total + term
    return total


def omega_diagonal(a: DiagonalCoords, xi: Sequence, eta: Sequence):
    """Cluster form in diagonal coordinates; bilinear and antisymmetric."""
    xi_c = getattr(xi, "components", xi)
    eta_c = getattr(eta, "components", eta)
    return _pair_sum(a.values, xi_c, eta_c)


def omega_zigzag(z: ZigzagCoords, xi: Sequence, eta: Sequence):
    """Cluster form in zigzag coordinates, with SW steps contributing -1 signs."""
    xi_c = getattr(xi, "components", xi)
    eta_c = getattr(eta, "components", eta)
    signs = [m != SE for m in z.path.moves]
    return _pair_sum(z.values, xi_c, eta_c, signs)


# ---------------------------------------------------------------------------
# exact pushforwards


def _as_zigzag(coords) -> ZigzagCoords:
    if isinstance(coords, DiagonalCoords):
        return coords.as_zigzag()
    return coords


# polygons kept by _jet_polygon; one sweep source needs one, a cycle of mixed
# sources a few
_POLYGON_MEMO_SIZE = 8


@lru_cache(maxsize=_POLYGON_MEMO_SIZE)
def _jet_polygon(path: ZigzagPath, values: tuple) -> tuple:
    """Jet vertices V_0..V_{2n-1} of the polygon read off a chart, seeded on its values.

    Memoized on ``(path, values)``, at most ``_POLYGON_MEMO_SIZE`` polygons,
    least recently used dropped first; ``_source_polygon`` builds the key.
    The result is a tuple of frozen jet vertices, safe to share between
    calls.  Failures are not cached: a chart with a zero entry raises on
    every call.

    Raises ZeroEntryEncountered when an interior entry e(i, j), i < n and
    2 <= j - i <= n - 2, of the frieze vanishes.  Each entry is the value
    bracket [V_i, V_j], and the glide symmetry e(i, j) = e(j, i + n) pairs
    j - i = d with n - d, so the scan stops at d = n // 2.  Scaling a vertex
    by its positive denominators keeps its brackets' zeros, so the scan
    multiplies integers only.  On a zero, ``_bracket_rows`` reads the rows
    off the value-part polygon to report the first zero in row order.
    """
    V = _chart_polygon(path, seed_jets(values), Jet(Fraction(1), (Fraction(0),) * path.width))
    n = len(V) // 2
    P = [(x.val.numerator * y.val.denominator, y.val.numerator * x.val.denominator) for x, y in V]
    if any(det2(P[i], P[i + d]) == 0 for i in range(n) for d in range(2, n // 2 + 1)):
        _bracket_rows([(x.val, y.val) for x, y in (V[-1], *V[:-2])], n)
    return tuple(V)


def _source_polygon(z: ZigzagCoords) -> tuple:
    """The memoized polygon of ``z``, keyed on its path and a tuple of its values."""
    return _jet_polygon(z.path, tuple(z.values))


def _brackets(V: Sequence, pairs) -> list:
    """Frieze entries e(i, j) = [V_{i mod n}, V_{j - i + i mod n}], 0 <= j - i <= n."""
    n = len(V) // 2
    return [det2(V[i % n], V[j - i + i % n]) for i, j in pairs]


def _chart_transport(source, target_path: ZigzagPath):
    """Target values and the exact Jacobian, read as brackets of jet vertices."""
    z = _as_zigzag(source)
    if target_path.width != z.width:
        raise ValueError("target path width does not match source width")
    out = _brackets(_source_polygon(z), target_path.vertices())
    base = ZigzagCoords(path=target_path, values=tuple(v.val for v in out))
    return base, [list(v.grad) for v in out]


def chart_jacobian(source, target_path: ZigzagPath) -> list[list[Fraction]]:
    """Exact Jacobian of the coordinate change source -> target zigzag chart."""
    return _chart_transport(source, target_path)[1]


def _apply(jac, xi_c):
    return tuple(
        sum((row[k] * xi_c[k] for k in range(len(xi_c))), Fraction(0)) for row in jac
    )


def pushforward(source, target_path: ZigzagPath, xi) -> TangentVector:
    """Tangent vector at the target chart, xi' = J xi with J the exact Jacobian."""
    return pushforward_many(source, target_path, [xi])[0]


def pushforward_many(source, target_path: ZigzagPath, vectors) -> list[TangentVector]:
    """Push several tangents through one shared chart change."""
    base, jac = _chart_transport(source, target_path)
    return [
        TangentVector(base=base, components=_apply(jac, getattr(v, "components", v)))
        for v in vectors
    ]


# ---------------------------------------------------------------------------
# rank of the form


def _superdiagonal(a: DiagonalCoords) -> list[Fraction]:
    """Entries 1/(a_i a_{i+1}) of the form's matrix; ZeroDivisionError on a zero value."""
    return [1 / (Fraction(x) * Fraction(y)) for x, y in zip(a.values, a.values[1:])]


def omega_matrix(a: DiagonalCoords) -> list[list[Fraction]]:
    """Antisymmetric w x w Gram matrix of the form in diagonal coordinates."""
    w = a.width
    m = [[Fraction(0)] * w for _ in range(w)]
    for i, v in enumerate(_superdiagonal(a)):
        m[i][i + 1] = v
        m[i + 1][i] = -v
    return m


def exact_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by exact Gaussian elimination (no pivot tolerance)."""
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c] / m[r][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def omega_rank(a: DiagonalCoords) -> int:
    """Rank of the cluster form: w for even w, w-1 for odd w.

    The matrix is tridiagonal and antisymmetric with nonzero superdiagonal
    m_i = 1/(a_i a_{i+1}), so its leading 2k block has Pfaffian
    m_1 m_3 ... m_{2k-1} != 0 and the rank is w - (w mod 2).  The
    superdiagonal is still built, so a zero value raises ZeroDivisionError as
    ``exact_rank(omega_matrix(a))``, the elimination oracle, does.
    """
    _superdiagonal(a)
    return a.width - a.width % 2


# ---------------------------------------------------------------------------
# geometric (polygon) evaluation


def _is_zero_vector(v) -> bool:
    """Exactly zero on rationals, within 1e-9 on floats."""
    if all(isinstance(x, (int, Fraction)) for x in v):
        return v[0] == 0 and v[1] == 0
    return abs(v[0]) <= 1e-9 and abs(v[1]) <= 1e-9


def omega_geometric(polygon: Sequence, xi: Sequence, eta: Sequence):
    """Cluster form on a polygon with tangents in the xi_{n-1} = 0 gauge.

    Evaluates sum_{i=1}^{w-1} of

        ([V_{n-1},xi_i][V_{n-1},eta_{i+1}] - [V_{n-1},xi_{i+1}][V_{n-1},eta_i])
        / ([V_{n-1},V_i][V_{n-1},V_{i+1}]),

    that is omega_diagonal on the brackets a_i = [V_{n-1}, V_i],
    x_i = [V_{n-1}, xi_i] and e_i = [V_{n-1}, eta_i], i = 1..w.  Every factor
    appears in a product of two brackets, so the value does not depend on the
    orientation convention of the bracket.
    """
    n = len(polygon)
    vlast = polygon[n - 1]
    for t in (xi, eta):
        if not _is_zero_vector(t[n - 1]):
            raise GaugeViolation("tangent must vanish at the distinguished vertex")
    a, x, e = ([det2(vlast, v[i]) for i in range(1, n - 2)] for v in (polygon, xi, eta))
    return _pair_sum(a, x, e)


def polygon_tangent_from_diagonal(a: DiagonalCoords, delta: Sequence):
    """Polygon and polygon tangent induced by a diagonal variation, exactly.

    With s = base + 1, vertex i is ([V_s, V_{s+i}], [V_{s-1}, V_{s+i}]) over
    the jet vertices seeded on the diagonal, so the returned tangent satisfies
    the bracket constraint identically and is in the xi_{n-1} = 0 gauge (the
    last vertex (1,0) is constant in these coordinates).
    """
    n = a.width + 3
    s = a.base % n + 1
    V = _source_polygon(a.as_zigzag())
    xs = _brackets(V, [(s, s + i) for i in range(n)])
    ys = _brackets(V, [(s - 1, s + i) for i in range(n)])

    def d(x):
        return sum((g * e for g, e in zip(x.grad, delta)), Fraction(0))

    polygon = tuple((x.val, y.val) for x, y in zip(xs, ys))
    tangent = tuple((d(x), d(y)) for x, y in zip(xs, ys))
    return polygon, tangent
