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

A ``SmoothFunction`` is its Taylor evaluator: ``taylor(x, m)`` gives the value
and the derivatives up to order m as one array, products, reciprocals and
compositions apply the Leibniz, reciprocal and Faa di Bruno rules to those
arrays, and a consumer asks once per grid for every order it needs.  Custom
functions come from ``from_derivatives``; ``d1``...``d4`` are views.  A plane
curve (the lift Gamma or a tangent lift) is a Taylor evaluator too, of shape
``(m + 1, 2, *shape(x))``; custom lifts come from ``lift_from_components``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod
from typing import Callable

import numpy as np

from .exceptions import DerivativeVanishes
from .quadrature import periodic_nodes

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
    """Real function given by its Taylor evaluator.

    ``taylor(x, m)`` takes a float or an ndarray and returns the value and the
    derivatives of orders 1..m at every point as one float array of shape
    ``(m + 1, *shape(x))``, for m up to ``order``.  Combinators apply one
    derivative rule to these arrays (Taylor arithmetic, Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., ch. 13), so each node of an expression
    is evaluated once per grid.  Leaves come from ``from_derivatives``;
    ``value``, ``d1``...``d4`` and ``deriv`` are views of one row.
    """

    taylor: Callable[[np.ndarray, int], np.ndarray]
    order: int

    def deriv(self, order: int, x):
        if order > self.order:
            raise ValueError(f"derivative of order {order} not available")
        return self.taylor(x, order)[order]

    value = __call__ = partialmethod(deriv, 0)
    d1 = partialmethod(deriv, 1)
    d2 = partialmethod(deriv, 2)
    d3 = partialmethod(deriv, 3)
    d4 = partialmethod(deriv, 4)


def from_derivatives(*fns: Callable) -> SmoothFunction:
    """Leaf from evaluators of the value, f', f'', ...; each returns one order.

    An evaluator whose value does not depend on x may return a scalar.
    """

    def taylor(x, m):
        return np.array([np.broadcast_to(fn(x), np.shape(x)) for fn in fns[: m + 1]], dtype=float)

    return SmoothFunction(taylor, len(fns) - 1)


def sf_const(c: float) -> SmoothFunction:
    zero = lambda x: 0.0
    return from_derivatives(lambda x: c, zero, zero, zero, zero)


def sf_identity() -> SmoothFunction:
    zero = lambda x: 0.0
    return from_derivatives(lambda x: x, lambda x: 1.0, zero, zero, zero)


def sf_combine(terms: list[tuple[float, SmoothFunction]]) -> SmoothFunction:
    """Linear combination sum_k coeff_k * f_k."""

    def taylor(x, m):
        return sum(c * f.taylor(x, m) for c, f in terms)

    return SmoothFunction(taylor, min(f.order for _, f in terms))


def sf_product(a: SmoothFunction, b: SmoothFunction) -> SmoothFunction:
    """a * b by the Leibniz rule (ab)_k = sum_j C(k, j) a_j b_{k-j}."""

    def taylor(x, m):
        ta, tb = a.taylor(x, m), b.taylor(x, m)
        return np.array(
            [sum(math.comb(k, j) * ta[j] * tb[k - j] for j in range(k, -1, -1)) for k in range(m + 1)]
        )

    return SmoothFunction(taylor, min(a.order, b.order))


def sf_reciprocal(b: SmoothFunction) -> SmoothFunction:
    """1 / b through the recurrence sum_j C(k, j) b_j r_{k-j} = 0 for k >= 1."""

    def taylor(x, m):
        tb = b.taylor(x, m)
        r = [1.0 / tb[0]]
        for k in range(1, m + 1):
            r.append(-sum(math.comb(k, j) * tb[j] * r[k - j] for j in range(1, k + 1)) / tb[0])
        return np.array(r)

    return SmoothFunction(taylor, b.order)


def sf_compose(f: SmoothFunction, phi: SmoothFunction) -> SmoothFunction:
    """f(phi(x)) by Faa di Bruno's formula h_k = sum_j f_j(phi) B_{k,j}.

    The partial Bell polynomials of phi', phi'', ... start from B_{k,1} = phi_k
    and follow B_{k,j} = sum_i C(k-1, i-1) phi_i B_{k-i,j-1}.
    """

    def taylor(x, m):
        p = phi.taylor(x, m)
        tf = f.taylor(p[0], m)
        rows, bell = [tf[0]], [None]
        for k in range(1, m + 1):
            bell.append(
                [None, p[k]]
                + [
                    sum(math.comb(k - 1, i - 1) * p[i] * bell[k - i][j - 1] for i in range(1, k - j + 2))
                    for j in range(2, k + 1)
                ]
            )
            rows.append(sum(tf[j] * bell[k][j] for j in range(k, 0, -1)))
        return np.array(rows)

    return SmoothFunction(taylor, min(f.order, phi.order))


def sf_derivative(f: SmoothFunction) -> SmoothFunction:
    """The derivative f' as a SmoothFunction (loses one derivative order)."""
    return SmoothFunction(lambda x, m: f.taylor(x, m + 1)[1:], f.order - 1)


def trig_poly(period: float, harmonics: dict[int, tuple[float, float]]) -> SmoothFunction:
    """Finite Fourier sum over the given period.

    ``harmonics[k] = (a, b)`` contributes a*cos(omega k x) + b*sin(omega k x)
    with omega = 2 pi / period; derivatives up to order four are exact.  Each
    harmonic's cosine and sine are evaluated once per call.
    """
    omega = 2.0 * math.pi / period

    def taylor(x, m):
        rows = [0] * (m + 1)
        for k, (a, b) in harmonics.items():
            w = omega * k
            cw, sw = np.cos(w * x), np.sin(w * x)
            for j in range(m + 1):
                rows[j] = rows[j] + (a * cw + b * sw)
                a, b = w * b, -w * a
        return np.array(rows, dtype=float)

    return SmoothFunction(taylor, 4)


def from_callable(fn: Callable[[float], float]) -> SmoothFunction:
    """Finite-difference fallback for user-supplied elementwise functions.

    Central differences with step h = 1e-4; derivative accuracy degrades with
    order (h^2 truncation against 1/h^k roundoff), so prefer analytic
    evaluators whenever they exist.
    """
    h = 1e-4

    def d1(x):
        return (fn(x + h) - fn(x - h)) / (2 * h)

    def d2(x):
        return (fn(x + h) - 2 * fn(x) + fn(x - h)) / (h * h)

    def d3(x):
        return (fn(x + 2 * h) - 2 * fn(x + h) + 2 * fn(x - h) - fn(x - 2 * h)) / (
            2 * h**3
        )

    return from_derivatives(fn, d1, d2, d3)


# ---------------------------------------------------------------------------
# Schwarzian derivative


def schwarzian(f: SmoothFunction) -> Callable[[float], float]:
    """x -> S(f)(x) = f'''/f' - (3/2)(f''/f')^2; Moebius invariant.

    The expression cancels terms of size ~f^2 near a pole of f, so evaluate
    away from poles (the value there is finite but the formula loses digits
    roughly in proportion to f^2).
    """

    def s(x):
        _, fp, f2, f3 = f.taylor(x, 3)
        bad = np.abs(fp) < _DERIV_EPS
        if np.any(bad):
            raise DerivativeVanishes(f"f'({first_where(bad, x)[0]}) ~ 0")
        ratio = f2 / fp
        return f3 / fp - 1.5 * ratio * ratio

    return s


def mobius_transform(f: SmoothFunction, coeffs: tuple[float, float, float, float]) -> SmoothFunction:
    """(a f + b) / (c f + d); with ad - bc != 0 this preserves the Schwarzian."""
    a, b, c, d = coeffs
    if a * d - b * c == 0:
        raise ValueError("singular coefficient matrix")
    num = sf_combine([(a, f), (b, sf_const(1.0))])
    den = sf_combine([(c, f), (d, sf_const(1.0))])
    return sf_product(num, sf_reciprocal(den))


# ---------------------------------------------------------------------------
# curves and lifts


@dataclass(frozen=True)
class PlaneCurve:
    """Plane curve given by its Taylor evaluator.

    ``taylor(x, m)`` for m in {0, 1} returns the curve and its derivative at a
    float or an ndarray x as one array of shape ``(m + 1, 2, *shape(x))``;
    entry ``[k, i]`` is the k-th derivative of component i + 1.
    """

    taylor: Callable[[np.ndarray, int], np.ndarray]

    def component(self, k: int, i: int, x):
        return self.taylor(x, k)[k, i]


@dataclass(frozen=True)
class LiftedCurve(PlaneCurve):
    """Unit-bracket plane curve Gamma, with Gamma'' = kappa * Gamma.

    ``g1``, ``g2``, ``dg1`` and ``dg2`` are views of one row of ``taylor``;
    kappa is elementwise and may return a scalar where it is constant.
    """

    kappa: Callable[[float], float]
    period: float | None

    g1 = partialmethod(PlaneCurve.component, 0, 0)
    g2 = partialmethod(PlaneCurve.component, 0, 1)
    dg1 = partialmethod(PlaneCurve.component, 1, 0)
    dg2 = partialmethod(PlaneCurve.component, 1, 1)

    def gamma(self, x: float) -> tuple[float, float]:
        return tuple(self.taylor(x, 0)[0])

    def d2gamma(self, x: float) -> tuple[float, float]:
        return tuple(self.kappa(x) * self.taylor(x, 0)[0])


def lift_from_components(g1, g2, dg1, dg2, kappa, period: float | None = None) -> LiftedCurve:
    """Lift from elementwise evaluators of Gamma_1, Gamma_2 and their derivatives.

    A component that does not depend on x may return a scalar.
    """
    first, second = from_derivatives(g1, dg1), from_derivatives(g2, dg2)

    def taylor(x, m):
        return np.stack([first.taylor(x, m), second.taylor(x, m)], axis=1)

    return LiftedCurve(taylor, kappa, period)


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

    def require_admissible(self) -> None:
        """Raise DerivativeVanishes unless f' > 0 at 512 nodes of one period."""
        xs = periodic_nodes(1.0 if self.period is None else self.period, 512)
        # NaN fails too: it compares false with everything
        if not np.min(on_grid(self.f.d1, xs)) > 0.0:
            raise DerivativeVanishes("curve is not orientation preserving (f' <= 0)")


def lift_curve(curve: ProjectiveCurve) -> LiftedCurve:
    """Canonical lift of the curve; closed form when the family provides one.

    The generic branch uses the positive square root of f' and is therefore
    valid only while f stays finite on the period (no branch crossings).
    """
    if curve.lift is not None:
        return curve.lift
    f = curve.f

    def taylor(x, m):
        fv, fp, *f2 = f.taylor(x, m + 1)
        bad = fp < _DERIV_EPS
        if np.any(bad):
            raise DerivativeVanishes(f"f'({first_where(bad, x)[0]}) <= 0")
        root = fp**-0.5
        rows = [[root, fv * root]]
        if m >= 1:
            d1 = -0.5 * f2[0] * fp**-1.5
            rows.append([d1, fp**0.5 + fv * d1])
        return np.array(rows)

    s = schwarzian(f)

    def kappa(x):
        return -0.5 * s(x)

    return LiftedCurve(taylor, kappa, curve.period)


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

    g_sf = from_derivatives(g, g1, g2, g3, g4)

    # derivatives of u = tan(g) through u' = g'(1 + u^2), orders 0..m
    def taylor(x, m):
        gs = g_sf.taylor(x, m)
        u = np.tan(gs[0])
        one = 1 + u * u
        p = [u]
        if m >= 1:
            p.append(gs[1] * one)
        if m >= 2:
            p.append(gs[2] * one + 2 * gs[1] * u * p[1])
        if m >= 3:
            p.append(gs[3] * one + 4 * gs[2] * u * p[1] + 2 * gs[1] * p[1] * p[1] + 2 * gs[1] * u * p[2])
        if m >= 4:
            p.append(
                gs[4] * one
                + 6 * gs[3] * u * p[1]
                + 6 * gs[2] * p[1] * p[1]
                + 6 * gs[2] * u * p[2]
                + 6 * gs[1] * p[1] * p[2]
                + 2 * gs[1] * u * p[3]
            )
        return np.array(p)

    f = SmoothFunction(taylor, 4)

    # closed-form lift: branch-consistent and bounded through the poles of f
    def lift_taylor(x, m):
        gs = g_sf.taylor(x, m + 1)
        cos_g, sin_g, root = np.cos(gs[0]), np.sin(gs[0]), np.sqrt(gs[1])
        rows = [[cos_g / root, sin_g / root]]
        if m >= 1:
            w = gs[1] ** -1.5
            rows.append([-sin_g * root - 0.5 * cos_g * gs[2] * w, cos_g * root - 0.5 * sin_g * gs[2] * w])
        return np.array(rows)

    def kappa(x):
        # S(tan(g)) = 2 g'^2 + S(g) by the cocycle rule, and kappa = -S(f)/2
        _, d1, d2, d3 = g_sf.taylor(x, 3)
        return -d1**2 - 0.5 * (d3 / d1 - 1.5 * (d2 / d1) ** 2)

    def dkappa(x):
        _, d1, d2, d3, d4 = g_sf.taylor(x, 4)
        ds = d4 / d1 - 4 * d2 * d3 / d1**2 + 3 * d2**3 / d1**3
        return -2 * d1 * d2 - 0.5 * ds

    def branch_count(x):
        return np.floor((g(x) + math.pi / 2) / math.pi)

    # 1/f' = cos^2(g)/g' assembled from bounded pieces; stays conditioned at
    # the poles of f where the generic quotient rule loses all digits
    cos_sq = trig_poly(math.pi, {0: (0.5, 0.0), 1: (0.5, 0.0)})  # cos^2 t
    inv_d1 = sf_product(sf_compose(cos_sq, g_sf), sf_reciprocal(sf_derivative(g_sf)))

    lift = LiftedCurve(lift_taylor, kappa, T)
    return ProjectiveCurve(
        f=f,
        period=T,
        c=c,
        lift=lift,
        branch_count=branch_count,
        dkappa=dkappa,
        inv_d1=inv_d1,
    )


def linear_family(c: float = 0.5) -> ProjectiveCurve:
    """f(x) = x: the open (non-closed) model curve with zero potential."""
    zero = lambda x: 0.0
    f = sf_identity()
    lift = lift_from_components(lambda x: 1.0, lambda x: x, zero, lambda x: 1.0, kappa=zero)
    return ProjectiveCurve(
        f=f, period=None, c=c, lift=lift, branch_count=lambda x: 0, dkappa=zero
    )


def curve_family(name: str, s: float = 0.0, c: float = 0.5) -> ProjectiveCurve:
    if name == "tan":
        return tan_family(s=s, c=c)
    if name == "linear":
        return linear_family(c=c)
    raise ValueError(f"unknown curve family {name!r}")


def derivative_consistency(f: SmoothFunction, xs) -> float:
    """Max relative deviation of analytic derivatives from central differences (step 1e-4)."""
    h = 1e-4
    x = np.asarray(xs, dtype=float)
    fv, d1, d2 = f.taylor(x, 2)
    up, down = f(x + h), f(x - h)
    fd1 = (up - down) / (2 * h)
    fd2 = (up - 2 * fv + down) / (h * h)
    worst = 0.0
    for got, ref in ((d1, fd1), (d2, fd2)):
        dev = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        worst = max(worst, float(np.max(dev, initial=0.0)))
    return worst
