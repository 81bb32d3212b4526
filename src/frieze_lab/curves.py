"""Projective curves, Schwarzian calculus, and unit-determinant lifts.

A projective curve is an orientation preserving parameterization of the
projective line, stored as a function f with analytic derivatives.  Its
canonical plane lift

    Gamma(x) = (f'(x)^{-1/2},  f(x) f'(x)^{-1/2})

satisfies [Gamma, Gamma'] = 1 for the determinant bracket used throughout the
package, is antiperiodic over one period, and obeys Gamma'' = kappa * Gamma
with kappa = -S(f)/2, where S is the Schwarzian derivative.  (The component
order is fixed by requiring the bracket of two lift points to reproduce
(f(y)-f(x))/sqrt(f'(x)f'(y)).)  In the Hill form 2c y'' + k y = 0 the same
potential reads k = -2c*kappa = c*S(f).

The positive square root in the lift formula is only correct between poles of
f; curve families whose f crosses infinity supply the lift in closed form and
a pole counter for branch-consistent use of the raw formula.

Every evaluator on the continuous side (functions, lifts, friezes, potentials)
takes a float or an ndarray and works elementwise, so consumers call it once
per grid.  One whose value does not depend on x may return a scalar; consumers
broadcast results with ``on_grid``.  Guards name the first failing point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DerivativeVanishes

_DERIV_EPS = 1e-14


def on_grid(fn: Callable, *coords) -> np.ndarray:
    """fn(*coords) as a float array of the coordinates' broadcast shape."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    return np.broadcast_to(np.asarray(fn(*coords), dtype=float), shape)


def first_where(bad, *coords) -> tuple[float, ...]:
    """The coordinates, as floats, of the first point where the mask ``bad`` holds."""
    shape = np.broadcast_shapes(np.shape(bad), *(np.shape(c) for c in coords))
    i = int(np.argmax(np.broadcast_to(bad, shape)))
    return tuple(float(np.broadcast_to(c, shape).flat[i]) for c in coords)


@dataclass(frozen=True)
class SmoothFunction:
    """Real function with analytic derivative evaluators up to order three.

    Each evaluator maps a float or an ndarray elementwise; a constant one may
    return a scalar.  A fourth derivative is optional; it is only needed when
    the function is fed through a quotient whose third derivative is
    requested (the field picture of the orbit form).
    """

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    d3: Callable[[float], float]
    d4: Callable[[float], float] | None = None
    period: float | None = None

    def __call__(self, x: float) -> float:
        return self.value(x)

    def deriv(self, order: int, x: float) -> float:
        if order == 0:
            return self.value(x)
        fn = (self.d1, self.d2, self.d3, self.d4)[order - 1]
        if fn is None:
            raise ValueError(f"derivative of order {order} not available")
        return fn(x)


def sf_const(c: float, period: float | None = None) -> SmoothFunction:
    zero = lambda x: 0.0
    return SmoothFunction(lambda x: c, zero, zero, zero, zero, period)


def sf_identity() -> SmoothFunction:
    zero = lambda x: 0.0
    return SmoothFunction(lambda x: x, lambda x: 1.0, zero, zero, zero, None)


def sf_combine(terms: list[tuple[float, SmoothFunction]], period=None) -> SmoothFunction:
    """Linear combination sum_k coeff_k * f_k."""

    def mk(order):
        def ev(x):
            return sum(c * f.deriv(order, x) for c, f in terms)

        return ev

    have4 = all(f.d4 is not None for _, f in terms)
    return SmoothFunction(mk(0), mk(1), mk(2), mk(3), mk(4) if have4 else None, period)


def sf_product(a: SmoothFunction, b: SmoothFunction) -> SmoothFunction:
    def v(x):
        return a(x) * b(x)

    def d1(x):
        return a.d1(x) * b(x) + a(x) * b.d1(x)

    def d2(x):
        return a.d2(x) * b(x) + 2 * a.d1(x) * b.d1(x) + a(x) * b.d2(x)

    def d3(x):
        return (
            a.d3(x) * b(x)
            + 3 * a.d2(x) * b.d1(x)
            + 3 * a.d1(x) * b.d2(x)
            + a(x) * b.d3(x)
        )

    return SmoothFunction(v, d1, d2, d3, None, a.period or b.period)


def sf_reciprocal(b: SmoothFunction) -> SmoothFunction:
    def v(x):
        return 1.0 / b(x)

    def d1(x):
        return -b.d1(x) / b(x) ** 2

    def d2(x):
        return -b.d2(x) / b(x) ** 2 + 2 * b.d1(x) ** 2 / b(x) ** 3

    def d3(x):
        return (
            -b.d3(x) / b(x) ** 2
            + 6 * b.d1(x) * b.d2(x) / b(x) ** 3
            - 6 * b.d1(x) ** 3 / b(x) ** 4
        )

    return SmoothFunction(v, d1, d2, d3, None, b.period)


def sf_quotient(a: SmoothFunction, b: SmoothFunction) -> SmoothFunction:
    return sf_product(a, sf_reciprocal(b))


def sf_compose(f: SmoothFunction, phi: SmoothFunction) -> SmoothFunction:
    """f(phi(x)) with chain-rule derivatives up to order three."""

    def v(x):
        return f(phi(x))

    def d1(x):
        return f.d1(phi(x)) * phi.d1(x)

    def d2(x):
        u = phi(x)
        return f.d2(u) * phi.d1(x) ** 2 + f.d1(u) * phi.d2(x)

    def d3(x):
        u = phi(x)
        return (
            f.d3(u) * phi.d1(x) ** 3
            + 3 * f.d2(u) * phi.d1(x) * phi.d2(x)
            + f.d1(u) * phi.d3(x)
        )

    return SmoothFunction(v, d1, d2, d3, None, phi.period)


def _missing(x):
    raise ValueError("derivative order exhausted")


def sf_derivative(f: SmoothFunction) -> SmoothFunction:
    """The derivative f' as a SmoothFunction (loses one derivative order)."""
    return SmoothFunction(f.d1, f.d2, f.d3, f.d4 or _missing, None, f.period)


def trig_poly(period: float, harmonics: dict[int, tuple[float, float]]) -> SmoothFunction:
    """Finite Fourier sum over the given period.

    ``harmonics[k] = (a, b)`` contributes a*cos(omega k x) + b*sin(omega k x)
    with omega = 2 pi / period; all derivative orders are exact.
    """
    omega = 2.0 * math.pi / period

    def deriv_coeffs(order):
        out = []
        for k, (a, b) in harmonics.items():
            w = omega * k
            for _ in range(order):
                a, b = w * b, -w * a
            out.append((k, a, b))
        return out

    tables = [deriv_coeffs(m) for m in range(5)]

    def make(m):
        table = tables[m]

        def ev(x):
            return sum(
                a * np.cos(omega * k * x) + b * np.sin(omega * k * x)
                for k, a, b in table
            )

        return ev

    return SmoothFunction(make(0), make(1), make(2), make(3), make(4), period)


def from_callable(fn: Callable[[float], float], h: float = 1e-4, period=None) -> SmoothFunction:
    """Finite-difference fallback for user-supplied elementwise functions.

    Derivative accuracy degrades with order (h^2 truncation against 1/h^k
    roundoff); prefer analytic evaluators whenever they exist.
    """

    def d1(x):
        return (fn(x + h) - fn(x - h)) / (2 * h)

    def d2(x):
        return (fn(x + h) - 2 * fn(x) + fn(x - h)) / (h * h)

    def d3(x):
        return (fn(x + 2 * h) - 2 * fn(x + h) + 2 * fn(x - h) - fn(x - 2 * h)) / (
            2 * h**3
        )

    return SmoothFunction(fn, d1, d2, d3, None, period)


# ---------------------------------------------------------------------------
# Schwarzian derivative


def schwarzian(f: SmoothFunction) -> Callable[[float], float]:
    """x -> S(f)(x) = f'''/f' - (3/2)(f''/f')^2; Moebius invariant.

    The expression cancels terms of size ~f^2 near a pole of f, so evaluate
    away from poles (the value there is finite but the formula loses digits
    roughly in proportion to f^2).
    """

    def s(x):
        fp = f.d1(x)
        bad = np.abs(fp) < _DERIV_EPS
        if np.any(bad):
            raise DerivativeVanishes(f"f'({first_where(bad, x)[0]}) ~ 0")
        ratio = f.d2(x) / fp
        return f.d3(x) / fp - 1.5 * ratio * ratio

    return s


def mobius_transform(f: SmoothFunction, coeffs: tuple[float, float, float, float]) -> SmoothFunction:
    """(a f + b) / (c f + d); with ad - bc != 0 this preserves the Schwarzian."""
    a, b, c, d = coeffs
    if a * d - b * c == 0:
        raise ValueError("singular coefficient matrix")
    num = sf_combine([(a, f), (b, sf_const(1.0))], period=f.period)
    den = sf_combine([(c, f), (d, sf_const(1.0))], period=f.period)
    out = sf_quotient(num, den)
    return SmoothFunction(out.value, out.d1, out.d2, out.d3, None, f.period)


# ---------------------------------------------------------------------------
# curves and lifts


@dataclass(frozen=True)
class LiftedCurve:
    """Unit-bracket plane curve with derivative evaluators.

    The components and kappa are elementwise in a float or an ndarray; a
    constant one may return a scalar.  Second derivatives are recovered from
    Gamma'' = kappa * Gamma, so a lift always carries its Hill potential in
    curvature form.
    """

    g1: Callable[[float], float]
    g2: Callable[[float], float]
    dg1: Callable[[float], float]
    dg2: Callable[[float], float]
    kappa: Callable[[float], float]
    period: float | None

    def gamma(self, x: float) -> tuple[float, float]:
        return self.g1(x), self.g2(x)

    def dgamma(self, x: float) -> tuple[float, float]:
        return self.dg1(x), self.dg2(x)

    def d2gamma(self, x: float) -> tuple[float, float]:
        k = self.kappa(x)
        return k * self.g1(x), k * self.g2(x)


@dataclass(frozen=True)
class ProjectiveCurve:
    """Parameterized projective line with f' > 0 and a central constant c.

    ``inv_d1`` optionally carries 1/f' with analytic derivatives; families
    whose f has poles supply it in a pole-safe closed form (the quotient-rule
    fallback cancels catastrophically near poles at third order).
    """

    f: SmoothFunction
    period: float | None
    c: float = 0.5
    lift: LiftedCurve | None = None
    branch_count: Callable[[float], float] | None = None
    dkappa: Callable[[float], float] | None = None
    inv_d1: SmoothFunction | None = None
    family: str = "custom"

    def min_derivative(self, grid: int = 512) -> float:
        xs = np.linspace(0.0, 1.0 if self.period is None else self.period, grid, endpoint=False)
        return float(np.min(on_grid(self.f.d1, xs)))

    def require_admissible(self, grid: int = 512) -> None:
        # NaN fails too: it compares false with everything
        if not self.min_derivative(grid) > 0.0:
            raise DerivativeVanishes("curve is not orientation preserving (f' <= 0)")


def lift_curve(curve: ProjectiveCurve) -> LiftedCurve:
    """Canonical lift of the curve; closed form when the family provides one.

    The generic branch uses the positive square root of f' and is therefore
    valid only while f stays finite on the period (no branch crossings).
    """
    if curve.lift is not None:
        return curve.lift
    f = curve.f

    def g1(x):
        fp = f.d1(x)
        bad = fp < _DERIV_EPS
        if np.any(bad):
            raise DerivativeVanishes(f"f'({first_where(bad, x)[0]}) <= 0")
        return fp**-0.5

    def g2(x):
        return f(x) * g1(x)

    def dg1(x):
        fp = f.d1(x)
        return -0.5 * f.d2(x) * fp**-1.5

    def dg2(x):
        fp = f.d1(x)
        return fp**0.5 + f(x) * dg1(x)

    s = schwarzian(f)

    def kappa(x):
        return -0.5 * s(x)

    return LiftedCurve(g1, g2, dg1, dg2, kappa, curve.period)


# ---------------------------------------------------------------------------
# built-in families


def tan_family(s: float = 0.0, c: float = 0.5) -> ProjectiveCurve:
    """f_s(x) = tan(x + s sin 2x) on the period pi.

    For |s| < 1/2 the inner map has positive derivative, so f_s is an
    admissible parameterization; s = 0 is the round curve with constant
    potential.  All derivative evaluators, the lift, and the potential are
    closed-form in g(x) = x + s sin 2x, which keeps them finite and smooth
    across the poles of f itself.
    """
    T = math.pi

    def g(x):
        return x + s * np.sin(2 * x)

    def g1(x):
        return 1 + 2 * s * np.cos(2 * x)

    def g2(x):
        return -4 * s * np.sin(2 * x)

    def g3(x):
        return -8 * s * np.cos(2 * x)

    def g4(x):
        return 16 * s * np.sin(2 * x)

    def f0(x):
        return np.tan(g(x))

    # derivatives of tan(g) through u' = g'(1 + u^2)
    def _ps(x):
        u = np.tan(g(x))
        one = 1 + u * u
        p1 = g1(x) * one
        p2 = g2(x) * one + 2 * g1(x) * u * p1
        p3 = g3(x) * one + 4 * g2(x) * u * p1 + 2 * g1(x) * p1 * p1 + 2 * g1(x) * u * p2
        p4 = (
            g4(x) * one
            + 6 * g3(x) * u * p1
            + 6 * g2(x) * p1 * p1
            + 6 * g2(x) * u * p2
            + 6 * g1(x) * p1 * p2
            + 2 * g1(x) * u * p3
        )
        return p1, p2, p3, p4

    f = SmoothFunction(
        f0,
        lambda x: _ps(x)[0],
        lambda x: _ps(x)[1],
        lambda x: _ps(x)[2],
        lambda x: _ps(x)[3],
        T,
    )

    # closed-form lift: branch-consistent and bounded through the poles of f
    def l1(x):
        return np.cos(g(x)) / np.sqrt(g1(x))

    def l2(x):
        return np.sin(g(x)) / np.sqrt(g1(x))

    def dl1(x):
        return -np.sin(g(x)) * np.sqrt(g1(x)) - 0.5 * np.cos(g(x)) * g2(x) * g1(
            x
        ) ** -1.5

    def dl2(x):
        return np.cos(g(x)) * np.sqrt(g1(x)) - 0.5 * np.sin(g(x)) * g2(x) * g1(
            x
        ) ** -1.5

    def schwarz_g(x):
        return g3(x) / g1(x) - 1.5 * (g2(x) / g1(x)) ** 2

    def kappa(x):
        # S(tan(g)) = 2 g'^2 + S(g) by the cocycle rule, and kappa = -S(f)/2
        return -g1(x) ** 2 - 0.5 * schwarz_g(x)

    def dkappa(x):
        ds = g4(x) / g1(x) - 4 * g2(x) * g3(x) / g1(x) ** 2 + 3 * g2(x) ** 3 / g1(x) ** 3
        return -2 * g1(x) * g2(x) - 0.5 * ds

    def branch_count(x):
        return np.floor((g(x) + math.pi / 2) / math.pi)

    # 1/f' = cos^2(g)/g' assembled from bounded pieces; stays conditioned at
    # the poles of f where the generic quotient rule loses all digits
    g_sf = SmoothFunction(g, g1, g2, g3, g4, T)
    gp_sf = SmoothFunction(g1, g2, g3, g4, None, T)
    cos_sq = trig_poly(math.pi, {0: (0.5, 0.0), 1: (0.5, 0.0)})  # cos^2 t
    inv_d1 = sf_product(sf_compose(cos_sq, g_sf), sf_reciprocal(gp_sf))

    lift = LiftedCurve(l1, l2, dl1, dl2, kappa, T)
    return ProjectiveCurve(
        f=f,
        period=T,
        c=c,
        lift=lift,
        branch_count=branch_count,
        dkappa=dkappa,
        inv_d1=inv_d1,
        family="tan",
    )


def linear_family(c: float = 0.5) -> ProjectiveCurve:
    """f(x) = x: the open (non-closed) model curve with zero potential."""
    zero = lambda x: 0.0
    f = sf_identity()
    f = SmoothFunction(f.value, f.d1, f.d2, f.d3, zero, None)
    lift = LiftedCurve(
        g1=lambda x: 1.0,
        g2=lambda x: x,
        dg1=zero,
        dg2=lambda x: 1.0,
        kappa=zero,
        period=None,
    )
    return ProjectiveCurve(
        f=f, period=None, c=c, lift=lift, branch_count=lambda x: 0, dkappa=zero,
        family="linear",
    )


def curve_family(name: str, s: float = 0.0, c: float = 0.5) -> ProjectiveCurve:
    if name == "tan":
        return tan_family(s=s, c=c)
    if name == "linear":
        return linear_family(c=c)
    raise ValueError(f"unknown curve family {name!r}")


def derivative_consistency(f: SmoothFunction, xs, h: float = 1e-4) -> float:
    """Max relative deviation of analytic derivatives from central differences."""
    x = np.asarray(xs, dtype=float)
    fd1 = (f(x + h) - f(x - h)) / (2 * h)
    fd2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    worst = 0.0
    for got, ref in ((on_grid(f.d1, x), fd1), (on_grid(f.d2, x), fd2)):
        dev = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        worst = max(worst, float(np.max(dev, initial=0.0)))
    return worst
