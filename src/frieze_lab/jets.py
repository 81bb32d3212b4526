"""First-order jets over exact rationals for exact Jacobians.

A Jet carries a value and a gradient with respect to a fixed tuple of base
coordinates.  Reading the polygon off a chart seeded with jets, one vertex per
path step, gives vertices whose brackets [V_i, V_j], the frieze entries, carry
exact partial derivatives with respect to the seed coordinates, with no
truncation and no symbolic algebra.

Jets are used only to build that polygon, once per source chart
(``cluster._jet_polygon``).  The cluster module then stores each vertex as
integer numerators over one denominator and takes brackets in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _as_value(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"cannot mix jets with {type(x).__name__}")


@dataclass(frozen=True)
class Jet:
    val: Fraction
    grad: tuple

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet(_as_value(other), (Fraction(0),) * len(self.grad))

    def __add__(self, other):
        o = self._lift(other)
        return Jet(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, tuple(-g for g in self.grad))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        return Jet(
            self.val * o.val,
            tuple(self.val * gb + ga * o.val for ga, gb in zip(self.grad, o.grad)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.val == 0:
            raise ZeroDivisionError("jet division by zero value")
        val = self.val / o.val
        grad = tuple(
            (ga * o.val - self.val * gb) / (o.val * o.val)
            for ga, gb in zip(self.grad, o.grad)
        )
        return Jet(val, grad)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.val == other.val and self.grad == other.grad
        # scalar comparison: equal as a constant jet
        return self.val == other and all(g == 0 for g in self.grad)

    def __hash__(self):
        return hash((self.val, self.grad))


def seed_jets(values) -> list[Jet]:
    """Independent jet variables with the given values."""
    vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    m = len(vals)
    return [
        Jet(v, tuple(Fraction(1 if k == i else 0) for k in range(m)))
        for i, v in enumerate(vals)
    ]
