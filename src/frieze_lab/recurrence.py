"""Discrete Hill equations V_{i+1} = c_i V_i - V_{i-1} and their geometry.

Scalar-generic: coefficients may be exact Fractions or floats.  Closure of the
periodic potential is equivalent to the monodromy over one period being minus
the identity, in which case the fundamental solutions trace out a polygon in
the plane whose brackets against the distinguished vertex reproduce the
diagonal of the associated frieze:  a_i = [V_{n-1}, V_i].  Both the orbit
(``solve_recurrence``) and the monodromy are read off the recurrence's update
itself; the monodromy applies it to the two rows of the transfer matrix.

The bracket is the plain 2x2 determinant [u, v] = u_x v_y - u_y v_x.  With the
polygon normalized so that the diagonal identity above holds on the nose, the
consecutive brackets come out as [V_i, V_{i+1}] = -1; the two signs cannot be
made +1 simultaneously (any renormalization flips both), and we keep the
diagonal identity exact because everything downstream divides by products of
two brackets, where the orientation cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .exceptions import DegeneratePoint

if TYPE_CHECKING:
    from .frieze import FriezePattern

Vec = tuple


def det2(u: Sequence, v: Sequence):
    """Determinant bracket [u, v] of two plane vectors."""
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class DiscreteHillEquation:
    """n-periodic potential (c_0..c_{n-1}) of a three-term recurrence."""

    c: tuple

    @property
    def n(self) -> int:
        return len(self.c)

    def coefficient(self, i: int):
        return self.c[i % self.n]


def solve_recurrence(eq: DiscreteHillEquation, v0: Vec, v1: Vec, steps: int) -> list[Vec]:
    """Orbit V_0..V_steps of the recurrence; V_{i+1} = c_i V_i - V_{i-1}."""
    if steps < 2:
        raise ValueError("need at least two steps")
    out = [tuple(v0), tuple(v1)]
    for i in range(1, steps):
        ci = eq.coefficient(i)
        prev, cur = out[-2], out[-1]
        out.append((ci * cur[0] - prev[0], ci * cur[1] - prev[1]))
    return out


def wronskians(orbit: Sequence[Vec]) -> list:
    return [det2(orbit[i], orbit[i + 1]) for i in range(len(orbit) - 1)]


def monodromy(eq: DiscreteHillEquation) -> tuple:
    """Transfer matrix over one period, M = S_{n-1} ... S_1 S_0; det M = 1.

    S_i = ((c_i, -1), (1, 0)) sends the state (V_i, V_{i-1}) to
    (V_{i+1}, V_i), so left-multiplying by it steps the two rows of M through
    the recurrence itself: (top, bottom) -> (c_i top - bottom, top).
    """
    top, bottom = (1, 0), (0, 1)
    for i in range(eq.n):
        ci = eq.coefficient(i)
        top, bottom = (ci * top[0] - bottom[0], ci * top[1] - bottom[1]), top
    return top, bottom


def is_minus_identity(m) -> bool:
    """Closure test M == -Id: exact on rationals, entrywise to 1e-10 on floats."""
    target = ((-1, 0), (0, -1))
    entries = [m[r][c] for r in range(2) for c in range(2)]
    if all(isinstance(x, (int, Fraction)) for x in entries):
        return all(m[r][c] == target[r][c] for r in range(2) for c in range(2))
    return all(abs(m[r][c] - target[r][c]) <= 1e-10 for r in range(2) for c in range(2))


def is_closed(eq: DiscreteHillEquation) -> bool:
    return is_minus_identity(monodromy(eq))


# ---------------------------------------------------------------------------
# fundamental polygon and moduli coordinates


def polygon_from_frieze(frieze: FriezePattern) -> tuple[Vec, ...]:
    """Fundamental polygon V_0 = (0,1), V_1 = (1,a_1), ..., V_{n-1} = (1,0).

    Second coordinates read the SE diagonal at base n-1, first coordinates the
    neighbouring diagonal; the V_i satisfy the recurrence with the frieze's
    quiddity, and [V_{n-1}, V_i] = a_i exactly.
    """
    n = frieze.period
    return tuple(
        (frieze.ent(0, i), frieze.ent(n - 1, n + i)) for i in range(n)
    )


@dataclass(frozen=True)
class ModuliPoint:
    """n points on the projective line plus the n-3 cross-ratio coordinates."""

    points: tuple[Vec, ...]
    coordinates: tuple


def cross_ratio(a: Vec, b: Vec, c: Vec, d: Vec):
    """Projective cross-ratio ((a-c)(b-d)) / ((a-b)(c-d)) on homogeneous pairs.

    Computed as a ratio of brackets, which agrees with the affine formula on
    finite representatives and handles points at infinity uniformly.
    """
    num = det2(a, c) * det2(b, d)
    den = det2(a, b) * det2(c, d)
    if den == 0:
        raise DegeneratePoint("cross-ratio chart points coincide")
    return num / den


def cross_ratio_coordinates(polygon: Sequence[Vec]) -> ModuliPoint:
    """Cross-ratios cr(p_0, p_1, p_i, p_{n-1}) for i = 2..n-2.

    The chart is based at the three vertices (0, 1, n-1), which are pairwise
    non-proportional for any polygon with unit consecutive brackets.  For odd
    n these coordinates identify the space of closed friezes with the moduli
    space of n points on the projective line; for even n they are still
    emitted but carry no injectivity claim.
    """
    n = len(polygon)
    if n < 4:
        raise ValueError("need at least four vertices")
    pts = tuple(tuple(v) for v in polygon)
    p0, p1, plast = pts[0], pts[1], pts[-1]
    coords = []
    for i in range(2, n - 1):
        quad = (p0, p1, pts[i], plast)
        for s in range(4):
            for t in range(s + 1, 4):
                if det2(quad[s], quad[t]) == 0:
                    raise DegeneratePoint("chart points are not pairwise distinct")
        coords.append(cross_ratio(p0, p1, pts[i], plast))
    return ModuliPoint(points=pts, coordinates=tuple(coords))
