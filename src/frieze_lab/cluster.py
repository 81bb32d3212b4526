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
over many target charts takes only brackets after its first request.  Jets
are used only in that build: each vertex is stored as integer numerators of
its value and gradient over one denominator, so a bracket is integer
products and every output (a target value, a Jacobian entry, a component of
J xi) is normalized once, as one ``Fraction``.  A chart that fails is not
cached and raises again on every call.  The zero-entry check on a new
polygon scans the interior value brackets with integer multiplications and
no division.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Sequence

from ._frozen import Frozen
from .exceptions import GaugeViolation
from .frieze import SE, DiagonalCoords, ZigzagCoords, ZigzagPath, _bracket_rows, _chart_polygon
from .jets import Jet, seed_jets
from .recurrence import det2


class TangentVector(Frozen):
    """Coordinate components (delta a_1 .. delta a_w) at a base chart."""

    __slots__ = ("base", "components")

    def __init__(self, base: DiagonalCoords | ZigzagCoords, components: tuple):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "components", components)

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


def _integer_vertex(x: Jet, y: Jet) -> tuple:
    """(D, X, Y): a jet vertex's parts (val, *grad) as integers over D, the lcm of their denominators."""
    parts = (x.val, *x.grad, y.val, *y.grad)
    D = lcm(*(q.denominator for q in parts))
    nums = tuple(q.numerator * (D // q.denominator) for q in parts)
    return D, nums[: len(x.grad) + 1], nums[len(x.grad) + 1 :]


@lru_cache(maxsize=_POLYGON_MEMO_SIZE)
def _jet_polygon(path: ZigzagPath, values: tuple) -> tuple:
    """Integer vertices V_0..V_{2n-1} of the jet polygon read off a chart, seeded on its values.

    The polygon is built in jets, one vertex per path step, and then each
    vertex is written once as ``(D, X, Y)``: X and Y are the integer
    numerators of its two coordinates' value and gradient, in the order of the
    seed values, over one positive denominator D.  Every bracket is then
    integer products over ``D_i D_j`` (``_brackets``), normalized once per
    output.

    Memoized on ``(path, values)``, at most ``_POLYGON_MEMO_SIZE`` polygons,
    least recently used dropped first; ``_source_polygon`` builds the key.
    The result is a tuple of tuples of ints, safe to share between calls.
    Failures are not cached: a chart with a zero entry raises on every call.

    Raises ZeroEntryEncountered when an interior entry e(i, j), i < n and
    2 <= j - i <= n - 2, of the frieze vanishes.  Each entry is the value
    bracket [V_i, V_j], and the glide symmetry e(i, j) = e(j, i + n) pairs
    j - i = d with n - d, so the scan stops at d = n // 2.  A vertex's value
    numerators (X[0], Y[0]) are its values scaled by D > 0, which keeps the
    brackets' zeros, so the scan multiplies integers only.  On a zero,
    ``_bracket_rows`` reads the rows off those value numerators to report the
    first zero in row order.
    """
    V = _chart_polygon(path, seed_jets(values), Jet(Fraction(1), (Fraction(0),) * path.width))
    n = len(V) // 2
    W = [_integer_vertex(x, y) for x, y in V[:n]]
    W += [(D, tuple(-u for u in X), tuple(-u for u in Y)) for D, X, Y in W]  # V_{k+n} = -V_k
    if any(
        W[i][1][0] * W[i + d][2][0] == W[i][2][0] * W[i + d][1][0]
        for i in range(n)
        for d in range(2, n // 2 + 1)
    ):
        _bracket_rows([(D, X[0], Y[0]) for D, X, Y in (W[-1], *W[:-2])], n)
    return tuple(W)


def _source_polygon(z: ZigzagCoords) -> tuple:
    """The memoized polygon of ``z``, keyed on its path and a tuple of its values."""
    return _jet_polygon(z.path, tuple(z.values))


def _brackets(V: Sequence, pairs) -> list:
    """Frieze entries e(i, j) = [V_{i mod n}, V_{j - i + i mod n}], 0 <= j - i <= n, of integer vertices.

    Each entry is (den, value numerator, gradient numerators): the value
    ``x_u y_v - y_u x_v`` and each gradient component, by the product rule,
    are integers over ``den = D_u D_v``.
    """
    n = len(V) // 2
    out = []
    for i, j in pairs:
        Du, Xu, Yu = V[i % n]
        Dv, Xv, Yv = V[j - i + i % n]
        x, y, p, q = Xu[0], Yu[0], Xv[0], Yv[0]
        grad = [a * q + x * d - b * p - y * c for a, b, c, d in zip(Xu[1:], Yu[1:], Xv[1:], Yv[1:])]
        out.append((Du * Dv, x * q - y * p, grad))
    return out


def _target_brackets(source, target_path: ZigzagPath) -> list:
    """The entries along the target path, with their gradients, as brackets of the source's polygon."""
    z = _as_zigzag(source)
    if target_path.width != z.width:
        raise ValueError("target path width does not match source width")
    return _brackets(_source_polygon(z), target_path.vertices())


def _over_lcm(xi, width: int) -> tuple:
    """(Q, P): tangent components xi_k = P_k / Q, with Q the lcm of their denominators."""
    if len(xi) != width:
        raise ValueError("a tangent needs one component per chart value")
    for x in xi:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"exact rational expected, got {type(x).__name__}")
    Q = lcm(*(x.denominator for x in xi))
    return Q, [x.numerator * (Q // x.denominator) for x in xi]


def _apply(brackets: list, tangent: tuple) -> tuple:
    """J xi: one Fraction per entry, the gradient numerators dotted with xi's over den * Q."""
    Q, P = tangent
    return tuple(Fraction(sum(map(mul, grad, P)), den * Q) for den, _, grad in brackets)


def chart_jacobian(source, target_path: ZigzagPath) -> list[list[Fraction]]:
    """Exact Jacobian of the coordinate change source -> target zigzag chart."""
    return [[Fraction(g, den) for g in grad] for den, _, grad in _target_brackets(source, target_path)]


def pushforward(source, target_path: ZigzagPath, xi) -> TangentVector:
    """Tangent vector at the target chart, xi' = J xi with J the exact Jacobian."""
    return pushforward_many(source, target_path, [xi])[0]


def pushforward_many(source, target_path: ZigzagPath, vectors) -> list[TangentVector]:
    """Push several tangents through one shared chart change.

    Components must be ints or Fractions, one per chart value; a float raises
    TypeError, as in ``frieze.as_fraction``.
    """
    out = _target_brackets(source, target_path)
    base = ZigzagCoords(path=target_path, values=tuple(Fraction(v, den) for den, v, _ in out))
    tangents = [_over_lcm(getattr(v, "components", v), target_path.width) for v in vectors]
    return [TangentVector(base=base, components=_apply(out, t)) for t in tangents]


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
    the polygon seeded on the diagonal, so the returned tangent satisfies
    the bracket constraint identically and is in the xi_{n-1} = 0 gauge (the
    last vertex (1,0) is constant in these coordinates).  ``delta`` takes one
    int or Fraction per diagonal value, as ``pushforward_many``'s tangents do.
    """
    n = a.width + 3
    s = a.base % n + 1
    V = _source_polygon(a.as_zigzag())
    tangent = _over_lcm(delta, a.width)
    xs = _brackets(V, [(s, s + i) for i in range(n)])
    ys = _brackets(V, [(s - 1, s + i) for i in range(n)])
    polygon = tuple((Fraction(x, dx), Fraction(y, dy)) for (dx, x, _), (dy, y, _) in zip(xs, ys))
    return polygon, tuple(zip(_apply(xs, tangent), _apply(ys, tangent)))
