"""Continuous frieze patterns F(x, y) and their differential identities.

A closed continuous frieze satisfies the Liouville-type identity
F F_xy - F_x F_y = 1 together with the closure conditions F(x,x) = 0,
F_y(x,x) = 1, antiperiodicity F(x+T, y) = -F(x, y), and positivity on the
fundamental strip.  Every such F arises as the bracket of two points on a
unit-determinant lift, F(x,y) = [Gamma(x), Gamma(y)], equivalently as

    F(x,y) = (f(y) - f(x)) / sqrt(f'(x) f'(y))

with a branch-consistent square root.  The conformal metric -4 F^{-2} dz dzbar
in the two frieze variables has constant curvature -1 exactly when the
Liouville identity holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import LiftedCurve, ProjectiveCurve, first_where, lift_curve, on_grid
from .exceptions import DegenerateF, NonPositiveF
from .hill import HillPotential
from .quadrature import mixed_partial

Domain = tuple[tuple[float, float], tuple[float, float]]

# smallest n for the n x n grid of liouville_residual_field
MIN_LIOUVILLE_GRID = 32


@dataclass(frozen=True)
class ContinuousFrieze:
    """Two-variable frieze function with optional analytic partials.

    F, Fx, Fy and Fxy are elementwise in floats or broadcastable ndarrays x
    and y; a constant one may return a scalar.
    """

    F: Callable[[float, float], float]
    Fx: Callable[[float, float], float] | None = None
    Fy: Callable[[float, float], float] | None = None
    Fxy: Callable[[float, float], float] | None = None
    period: float | None = None

    @property
    def has_partials(self) -> bool:
        return self.Fx is not None and self.Fy is not None and self.Fxy is not None


def frieze_from_curve(lift: LiftedCurve, other: LiftedCurve | None = None) -> ContinuousFrieze:
    """F(x,y) = [Gamma(x), Gamma~(y)]; one curve gives the closed frieze."""
    left, right = lift, (lift if other is None else other)

    def bracket(i: int, j: int):
        # [d^i Gamma(x), d^j Gamma~(y)] from row i of the left lift and row j of the right
        def value(x, y):
            u, v = left.taylor(x, i)[i], right.taylor(y, j)[j]
            return u[0] * v[1] - u[1] * v[0]

        return value

    period = lift.period if other is None else None
    return ContinuousFrieze(
        F=bracket(0, 0), Fx=bracket(1, 0), Fy=bracket(0, 1), Fxy=bracket(1, 1), period=period
    )


def frieze_genform(curve: ProjectiveCurve) -> ContinuousFrieze:
    """F(x,y) = (f(y)-f(x))/sqrt(f'(x)f'(y)), branch-corrected across poles of f.

    The raw positive square root flips sign each time f passes through
    infinity; the curve's pole counter restores the sign of the continuous
    lift.  Evaluators use only f and its derivatives, independently of the
    closed-form lift, so agreement with frieze_from_curve is a real check.
    """
    f = curve.f
    branches = curve.branch_count or (lambda x: 0)

    def sigma(x):
        return np.where(branches(x) % 2, -1.0, 1.0)

    def F(x, y):
        (fx, px), (fy, py) = f.taylor(x, 1), f.taylor(y, 1)
        return sigma(x) * sigma(y) * (fy - fx) / np.sqrt(px * py)

    def Fx(x, y):
        (fx, px, qx), (fy, py) = f.taylor(x, 2), f.taylor(y, 1)
        root = np.sqrt(px * py)
        val = -px / root - 0.5 * (fy - fx) * qx / (px * root)
        return sigma(x) * sigma(y) * val

    def Fy(x, y):
        (fx, px), (fy, py, qy) = f.taylor(x, 1), f.taylor(y, 2)
        root = np.sqrt(px * py)
        val = py / root - 0.5 * (fy - fx) * qy / (py * root)
        return sigma(x) * sigma(y) * val

    def Fxy(x, y):
        (fx, px, qx), (fy, py, qy) = f.taylor(x, 2), f.taylor(y, 2)
        root = np.sqrt(px * py)
        val = (
            0.5 * px * qy / (py * root)
            - 0.5 * py * qx / (px * root)
            + 0.25 * (fy - fx) * qx * qy / (px * py * root)
        )
        return sigma(x) * sigma(y) * val

    return ContinuousFrieze(F=F, Fx=Fx, Fy=Fy, Fxy=Fxy, period=curve.period)


# ---------------------------------------------------------------------------
# residuals and diagnostics


def _grid(frieze: ContinuousFrieze, n: int, domain: Domain | None) -> tuple[np.ndarray, np.ndarray]:
    """n x n grid as (X, Y) broadcasting to (n, n); row i holds the i-th x.

    Without a domain: the strip x in [0,T), y = x + u with u away from the
    zero set; x-nodes are offset half a step so chart poles sitting on round
    fractions of the period (tan-like f at T/2) are never evaluated head-on.
    """
    if domain is not None:
        (x0, x1), (y0, y1) = domain
        return np.linspace(x0, x1, n)[:, None], np.linspace(y0, y1, n)[None, :]
    if frieze.period is None:
        raise ValueError("aperiodic frieze needs an explicit domain")
    T = frieze.period
    xs = (np.arange(n) + 0.5) * (T / n)
    us = np.linspace(T / 16.0, T - T / 16.0, n)
    return xs[:, None], xs[:, None] + us


def _points(X: np.ndarray, Y: np.ndarray) -> list[tuple[float, float]]:
    X, Y = np.broadcast_arrays(X, Y)
    return list(zip(X.ravel().tolist(), Y.ravel().tolist()))


def liouville_residual_field(
    frieze: ContinuousFrieze,
    grid: int = 48,
    domain: Domain | None = None,
    h: float = 1e-3,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Pointwise |F F_xy - F_x F_y - 1| over the evaluation grid.

    Analytic partials are used when the frieze carries them; otherwise
    second-order central differences with step h (with correspondingly
    degraded accuracy).
    """
    if grid < MIN_LIOUVILLE_GRID:
        raise ValueError(f"grid must be at least {MIN_LIOUVILLE_GRID}x{MIN_LIOUVILLE_GRID}")
    X, Y = _grid(frieze, grid, domain)
    F = frieze.F
    if frieze.has_partials:
        fx, fy, fxy = (on_grid(d, X, Y) for d in (frieze.Fx, frieze.Fy, frieze.Fxy))
    else:
        fx = (on_grid(F, X + h, Y) - on_grid(F, X - h, Y)) / (2 * h)
        fy = (on_grid(F, X, Y + h) - on_grid(F, X, Y - h)) / (2 * h)
        fxy = mixed_partial(F, X, Y, h)
    vals = np.abs(on_grid(F, X, Y) * fxy - fx * fy - 1.0)
    return vals.ravel(), _points(X, Y)


def liouville_residual(
    frieze: ContinuousFrieze,
    grid: int = 48,
    domain: Domain | None = None,
    h: float = 1e-3,
) -> float:
    """max |F F_xy - F_x F_y - 1| over the evaluation grid."""
    vals, _ = liouville_residual_field(frieze, grid, domain, h)
    return float(vals.max())


def boundary_check(frieze: ContinuousFrieze, T: float, grid: int = 256) -> dict:
    """Residuals of the closure conditions along the diagonal and the period."""
    xs = (np.arange(grid) + 0.5) * (2.0 * T / grid)
    us = np.linspace(T / 8.0, T - T / 8.0, 17)
    F = frieze.F
    if frieze.has_partials:
        fx, fy = on_grid(frieze.Fx, xs, xs), on_grid(frieze.Fy, xs, xs)
    else:
        h = 1e-5
        fy = (on_grid(F, xs, xs + h) - on_grid(F, xs, xs - h)) / (2 * h)
        fx = (on_grid(F, xs + h, xs) - on_grid(F, xs - h, xs)) / (2 * h)
    x = xs[: grid // 2, None]
    anti = on_grid(F, x + T, x + us) + on_grid(F, x, x + us)
    return {
        "diagonal_zero": float(np.max(np.abs(on_grid(F, xs, xs)))),
        "unit_slope": float(np.max(np.abs(fy - 1.0))),
        "unit_slope_x": float(np.max(np.abs(fx + 1.0))),
        "antiperiodicity": float(np.max(np.abs(anti))),
    }


def is_closed_frieze(frieze: ContinuousFrieze, T: float, tol: float = 1e-8) -> bool:
    res = boundary_check(frieze, T)
    return all(v <= tol for v in res.values())


def _fxx_over_f(frieze: ContinuousFrieze, x, h: float) -> np.ndarray:
    """F_xx/F by second differences in x; axis 0 runs over y = x + (0.3, 0.5, 0.7) T."""
    T = frieze.period
    F = frieze.F
    x = np.asarray(x, dtype=float)
    y = x + (np.array([0.3, 0.5, 0.7]) * T).reshape((3,) + (1,) * x.ndim)
    base = on_grid(F, x, y)
    bad = np.abs(base) < 1e-12
    if np.any(bad):
        px, py = first_where(bad, x, y)
        raise DegenerateF(f"F({px}, {py}) ~ 0")
    fxx = (on_grid(F, x + h, y) - 2.0 * base + on_grid(F, x - h, y)) / (h * h)
    return fxx / base


def potential_from_frieze(
    frieze: ContinuousFrieze,
    c: float = 0.5,
    h: float = 1e-4,
    tol_y: float = 1e-6,
) -> HillPotential:
    """Recover kappa(x) = F_xx(x, y) / F(x, y) from second differences of F.

    The ratio is independent of y for a genuine frieze; we verify that at
    three separated y per point and fail loudly otherwise.  The returned
    potential is in curvature convention (u'' = kappa u, i.e. k = -2c kappa).
    """
    if frieze.period is None:
        raise ValueError("closed friezes only")

    def kappa(x):
        vals = _fxx_over_f(frieze, x, h)
        if np.any(np.ptp(vals, axis=0) > tol_y):
            raise DegenerateF("recovered potential depends on y")
        return vals[1]

    return HillPotential(kappa=kappa, c=c, period=frieze.period)


def potential_y_spread(frieze: ContinuousFrieze, xs, h: float = 1e-4) -> float:
    """Max spread of F_xx/F over three y values; diagnostic for y-independence."""
    vals = _fxx_over_f(frieze, xs, h)
    return float(np.max(np.ptp(vals, axis=0), initial=0.0))


def curvature_conformal(
    frieze: ContinuousFrieze,
    grid: int = 32,
    domain: Domain | None = None,
    h: float = 1e-3,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Gaussian curvature of the metric -4 F^{-2} dz dzbar on a grid.

    In the two frieze variables the coordinate derivatives d/dz, d/dzbar act
    as d/dx, d/dy (one quarter of the Laplacian after passing to real and
    imaginary parts), so K = -(2/lam) * d2(ln|lam|)/dxdy with lam = -4 F^{-2}.
    The mixed partial is taken by second-order central differences; K is -1
    wherever F solves the Liouville identity.  A step h that vanishes against
    a grid coordinate (x + h == x) raises ValueError.
    """
    X, Y = _grid(frieze, grid, domain)
    if np.any(X + h == X) or np.any(Y + h == Y):
        raise ValueError(f"h = {h} is below the float spacing of the grid coordinates")

    def positive_F(x, y):
        val = on_grid(frieze.F, x, y)
        bad = val <= 0.0
        if np.any(bad):
            px, py = first_where(bad, x, y)
            raise NonPositiveF(f"F({px}, {py}) <= 0")
        return val

    def log_metric(x, y):
        return np.log(4.0) - 2.0 * np.log(positive_F(x, y))

    val = positive_F(X, Y)
    lam = -4.0 / (val * val)
    ks = -(2.0 / lam) * mixed_partial(log_metric, X, Y, h)
    return ks.ravel(), _points(X, Y)
