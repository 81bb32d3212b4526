"""Discretization bridge: sampled polygons, tangent lifts, and the limit study.

Sampling a unit-determinant lift at n points with the 1/sqrt(step) weight,

    V_i = eps^{-1/2} Gamma(i eps),        eps = T / n,

produces a polygon with consecutive brackets 1 + O(eps^2).  A variation xi of
the underlying f lifts to a tangent curve along Gamma; sampled the same way
and gauge-fixed to vanish at the distinguished vertex V_{n-1}, it feeds the
geometric cluster-form sum.  The lift and its tangent are plane curves given
by their Taylor evaluators (``curves.PlaneCurve``); one lift call per grid
gives the polygon and, with xi's rows, each tangent.  Two primitives carry
the bridge: ``sample_polygon`` returns the polygon and the gauged tangents as
n x 2 arrays (row i is V_i or xi_i), and ``discrete_form_value`` evaluates
the sum as one array expression over brackets against V_{n-1}, returning the
interior cells and, apart, the end terms i = 0 and i = w (the boundary
cells).  The interior sum's limit is

    int_0^T (xi_2 eta_2' - xi_2' eta_2) / Gamma_2^2 dx

over second components.  That integral equals -1/(4c) times the curve form of
the orbit 2-form, which is the content of the convergence study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod
from typing import Callable, Sequence

import numpy as np

from .curves import (
    LiftedCurve, PlaneCurve, ProjectiveCurve, SmoothFunction, lift_curve, on_grid, sf_combine, sf_const,
)
from .exceptions import GaugeViolation, SecondComponentVanishes
from .hill import dev_from_minus_id
from .kirillov import kirillov_form_curve
from .quadrature import periodic_nodes, periodic_trapezoid, resolution
from .recurrence import DiscreteHillEquation, det2, monodromy


@dataclass(frozen=True)
class DiscretizationScheme:
    """Uniform sampling of one period; vertices sit at x = 0, eps, ..., T-eps."""

    n: int
    period: float

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("need at least 8 samples")

    @property
    def eps(self) -> float:
        return self.period / self.n


def unit_determinant_defect(polygon: Sequence[tuple[float, float]]) -> float:
    """max |[V_i, V_{i+1}] - 1| around the polygon, with V_n = -V_0."""
    v = np.asarray(polygon, dtype=float).T
    nxt = np.concatenate([v[:, 1:], -v[:, :1]], axis=1)
    return float(np.max(np.abs(det2(v, nxt) - 1.0)))


def quiddity_from_potential(kappa: Callable[[float], float], scheme: DiscretizationScheme) -> DiscreteHillEquation:
    """Second-difference discretization c_i = 2 + eps^2 kappa(i eps) of u'' = kappa u."""
    eps = scheme.eps
    c = 2.0 + eps * eps * on_grid(kappa, periodic_nodes(scheme.period, scheme.n))
    return DiscreteHillEquation(c=tuple(c.tolist()))


def scaled_monodromy_defect(eq: DiscreteHillEquation, period: float) -> float:
    """Entrywise distance of the period map from -Id in continuum normalization.

    The raw transfer matrix acts on (V_{i+1}, V_i) pairs, a basis that
    degenerates as eps -> 0 and shows only O(eps) convergence; conjugating to
    (value, divided difference) coordinates restores the O(eps^2) rate of the
    second-difference scheme.
    """
    eps = period / eq.n
    m = monodromy(eq)
    b = np.array([[1.0, 0.0], [1.0 / eps, -1.0 / eps]])
    scaled = b @ np.array(m, dtype=float) @ np.linalg.inv(b)
    return dev_from_minus_id(scaled)


# ---------------------------------------------------------------------------
# tangent lifts


@dataclass(frozen=True)
class TangentLiftCurve(PlaneCurve):
    """Derivative of the canonical lift along a variation xi of f.

    ``x1``, ``x2``, ``dx1`` and ``dx2`` are views of one row of ``taylor``.
    Components are expressed through the lift itself (x1 = -xi' g1^3 / 2,
    x2 = xi g1 - xi' g1^2 g2 / 2), which stays branch-consistent and bounded
    even where f blows up.
    """

    x1 = partialmethod(PlaneCurve.component, 0, 0)
    x2 = partialmethod(PlaneCurve.component, 0, 1)
    dx1 = partialmethod(PlaneCurve.component, 1, 0)
    dx2 = partialmethod(PlaneCurve.component, 1, 1)


def _tangent_rows(gam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Tangent-lift rows 0..m from the lift's rows 0..m and xi's rows 0..m+1."""
    (a, b), v, v1 = gam[0], t[0], t[1]
    rows = [[-0.5 * v1 * a**3, v * a - 0.5 * v1 * a**2 * b]]
    if len(gam) > 1:
        (da, db), v2 = gam[1], t[2]
        dx1 = -0.5 * (v2 * a**3 + 3.0 * v1 * a**2 * da)
        dx2 = v1 * a + v * da - 0.5 * v2 * a**2 * b - 0.5 * v1 * (2.0 * a * da * b + a**2 * db)
        rows.append([dx1, dx2])
    return np.array(rows)


def tangent_lift(curve: ProjectiveCurve, xi: SmoothFunction) -> TangentLiftCurve:
    lift = lift_curve(curve)
    return TangentLiftCurve(lambda x, m: _tangent_rows(lift.taylor(x, m), xi.taylor(x, m + 1)))


def gauge_variation(curve: ProjectiveCurve, xi: SmoothFunction) -> SmoothFunction:
    """Subtract a Moebius direction so that xi(0) = xi'(0) = 0.

    Infinitesimal Moebius motions act on f as alpha + beta f + gamma f^2 and
    lie in the kernel of the orbit form; removing the affine part (gamma = 0)
    pins the lifted tangent to zero at the basepoint, which regularizes the
    continuum integrand at the zero of Gamma_2 and matches the polygon gauge.
    """
    f = curve.f
    f0, fp0 = f.taylor(0.0, 1)
    xi0, xi1 = xi.taylor(0.0, 1)
    beta = xi1 / fp0
    alpha = xi0 - beta * f0
    return sf_combine([(1.0, xi), (-alpha, sf_const(1.0)), (-beta, f)])


def _sl2_fit(v: tuple[float, float], w: tuple[float, float]) -> np.ndarray:
    # least-squares traceless M with M v = w  (rank 2 for v != 0)
    a = np.array(
        [
            [v[0], v[1], 0.0],
            [-v[1], 0.0, v[0]],
        ]
    )
    sol, *_ = np.linalg.lstsq(a, np.array([w[0], w[1]]), rcond=None)
    return np.array([[sol[0], sol[1]], [sol[2], -sol[0]]])


def sample_polygon(lift: LiftedCurve, scheme: DiscretizationScheme, *xis: SmoothFunction) -> list[np.ndarray]:
    """The polygon V_i = eps^{-1/2} Gamma(i eps), then the gauged tangent of each xi.

    All are n x 2 arrays, built from one lift call.  Each tangent is the
    sampled tangent lift, corrected to vanish exactly at V_{n-1}: the
    correction subtracts the sl2 motion M V_i with M fitted to the raw value
    at the distinguished vertex; sl2 motions preserve the bracket constraint
    identically and change no frieze data, so this is a pure gauge choice.
    """
    w, xs = scheme.eps**-0.5, periodic_nodes(scheme.period, scheme.n)
    gam = lift.taylor(xs, 0)
    verts = w * gam[0]
    out = [verts.T]
    for xi in xis:
        raw = w * _tangent_rows(gam, xi.taylor(xs, 1))[0]
        tangent = raw - _sl2_fit(verts[:, -1], raw[:, -1]) @ verts
        # the last entry is zero by construction; clamp roundoff
        tangent[:, -1] = 0.0
        out.append(tangent.T)
    return out


def constraint_defect(
    polygon: Sequence[tuple[float, float]], tangent: Sequence[tuple[float, float]]
) -> float:
    """max |[V_i, xi_{i+1}] + [xi_i, V_{i+1}]|, the bracket-preservation residual."""
    v, t = np.asarray(polygon, dtype=float).T, np.asarray(tangent, dtype=float).T
    gap = det2(v[:, :-1], t[:, 1:]) + det2(t[:, :-1], v[:, 1:])
    return float(np.max(np.abs(gap), initial=0.0))


def discrete_form_value(polygon, xi, eta) -> tuple[float, float]:
    """The geometric cluster-form sum over cells 1..w-1, and the two cells outside it.

    Cell i = 0..w is (x_i e_{i+1} - x_{i+1} e_i) / (a_i a_{i+1}) over the
    brackets a = [V_{n-1}, V], x = [V_{n-1}, xi] and e = [V_{n-1}, eta].
    Cells 1..w-1 are the terms of cluster.omega_geometric; their sum is the
    interior part.  The boundary part is the sum of cells 0 and w.
    """
    v, x, e = (np.asarray(p, dtype=float) for p in (polygon, xi, eta))
    if not np.all(np.abs([x[-1], e[-1]]) <= 1e-9):
        raise GaugeViolation("tangent must vanish at the distinguished vertex")
    a, x, e = (det2(v[-1], p[:-1].T) for p in (v, x, e))
    terms = (x[:-1] * e[1:] - x[1:] * e[:-1]) / (a[:-1] * a[1:])
    return float(np.sum(terms[1:-1])), float(terms[0] + terms[-1])


def continuum_integral(
    lift: LiftedCurve,
    txi: TangentLiftCurve,
    teta: TangentLiftCurve,
    nodes: int | None = None,
) -> float:
    """int (xi_2 eta_2' - xi_2' eta_2) / Gamma_2^2 over one period.

    Quadrature nodes are offset by half a step: Gamma_2 vanishes at the
    basepoint, where gauged variations make the integrand a removable 0/0.
    """
    T = lift.period
    n = resolution(nodes)
    xs = periodic_nodes(T, n, offset=0.5)
    g2 = lift.taylor(xs, 0)[0, 1]
    if np.min(np.abs(g2)) < 1e-10:
        raise SecondComponentVanishes("Gamma_2 ~ 0 at a quadrature node")
    (a, da), (b, db) = txi.taylor(xs, 1)[:, 1], teta.taylor(xs, 1)[:, 1]
    return periodic_trapezoid((a * db - da * b) / g2**2, T)


# ---------------------------------------------------------------------------
# the convergence study


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    discrete: float
    err_integral: float
    err_kirillov: float
    det_defect: float
    boundary_cells: float


@dataclass(frozen=True)
class ConvergenceReport:
    c: float
    integral: float
    kirillov_curve: float
    kirillov_scaled: float  # -1/(4c) times the curve form
    records: tuple[ConvergenceRecord, ...]

    @property
    def observed_orders(self) -> tuple[float, ...]:
        out = []
        for a, b in zip(self.records, self.records[1:]):
            if b.err_integral == 0.0:
                out.append(float("inf"))
            else:
                out.append(math.log2(a.err_integral / b.err_integral))
        return tuple(out)

    def errors_decreasing(self) -> bool:
        errs = [r.err_kirillov for r in self.records]
        return all(a > b for a, b in zip(errs, errs[1:]))

    def final_relative_error(self) -> float:
        ref = abs(self.kirillov_scaled)
        if ref == 0.0:
            return abs(self.records[-1].discrete)
        return self.records[-1].err_kirillov / ref

    def rows(self) -> list[dict]:
        orders = (float("nan"),) + self.observed_orders
        return [
            {
                "n": r.n,
                "discrete": r.discrete,
                "integral": self.integral,
                "kirillov_scaled": self.kirillov_scaled,
                "err_integral": r.err_integral,
                "err_kirillov": r.err_kirillov,
                "observed_order": o,
            }
            for r, o in zip(self.records, orders)
        ]


def convergence_study(
    curve: ProjectiveCurve,
    xi: SmoothFunction,
    eta: SmoothFunction,
    n_list: Sequence[int],
    nodes: int | None = None,
) -> ConvergenceReport:
    """Discrete cluster sum against its continuum integral and the orbit form."""
    ns = list(n_list)
    if min(ns, default=0) < 8 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"sample counts must be strictly increasing and at least 8, got {ns}")
    xi_g = gauge_variation(curve, xi)
    eta_g = gauge_variation(curve, eta)
    lift = lift_curve(curve)
    txi = tangent_lift(curve, xi_g)
    teta = tangent_lift(curve, eta_g)
    integral = continuum_integral(lift, txi, teta, nodes)
    omek = kirillov_form_curve(curve, xi_g, eta_g, nodes)
    scaled = -omek / (4.0 * curve.c)

    records = []
    for n in ns:
        scheme = DiscretizationScheme(n=n, period=curve.period)
        polygon, pxi, peta = sample_polygon(lift, scheme, xi_g, eta_g)
        disc, boundary = discrete_form_value(polygon, pxi, peta)
        records.append(
            ConvergenceRecord(
                n=n,
                discrete=disc,
                err_integral=abs(disc - integral),
                err_kirillov=abs(disc - scaled),
                det_defect=unit_determinant_defect(polygon),
                boundary_cells=boundary,
            )
        )
    return ConvergenceReport(
        c=curve.c,
        integral=integral,
        kirillov_curve=omek,
        kirillov_scaled=scaled,
        records=tuple(records),
    )
