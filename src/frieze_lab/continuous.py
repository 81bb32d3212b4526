"""Continuous frieze patterns F(x, y) and their differential identities.

A closed continuous frieze satisfies the Liouville-type identity
F F_xy - F_x F_y = 1 together with the closure conditions F(x,x) = 0,
F_y(x,x) = 1, antiperiodicity F(x+T, y) = -F(x, y), and positivity on the
fundamental strip.  Every such F arises as the bracket of two points on a
unit-determinant lift, F(x,y) = [Gamma(x), Gamma(y)], equivalently as

    F(x,y) = (f(y) - f(x)) / sqrt(f'(x) f'(y))

with a branch-consistent square root.  The conformal metric -4 F^{-2} dz dzbar
in the two frieze variables has curvature K = -(F F_xy - F_x F_y), so it is
-1 exactly when the Liouville identity holds.

A ``ContinuousFrieze`` is its Taylor evaluator: one array per grid holds F and
its partials; from a lift, entry [i, j] brackets Taylor row i of Gamma(x) with
row j of Gamma~(y).  Custom friezes come from ``frieze_from_components``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partialmethod
from typing import Callable

import numpy as np

from .curves import LiftedCurve, ProjectiveCurve, first_where, lift_curve, on_grid
from .exceptions import DegenerateF, NonPositiveF
from .hill import HillPotential
from .quadrature import mixed_partial, periodic_nodes

Domain = tuple[tuple[float, float], tuple[float, float]]

# smallest n for the n x n grid of liouville_residual_field
MIN_LIOUVILLE_GRID = 32


@dataclass(frozen=True)
class ContinuousFrieze:
    """Two-variable frieze function given by its Taylor evaluator.

    ``taylor(x, y, m)`` for m <= ``order`` <= 1 takes floats or broadcastable
    ndarrays and returns one array of shape ``(m + 1, m + 1, *broadcast_shape)``
    whose entry ``[i, j]`` is d_x^i d_y^j F; ``F``, ``Fx``, ``Fy`` and ``Fxy``
    are views of one entry.  Consumers difference an order-0 frieze.
    """

    taylor: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    order: int
    period: float | None

    def partial(self, i: int, j: int, x, y):
        if max(i, j) > self.order:
            raise ValueError(f"partial of order ({i}, {j}) not available")
        return self.taylor(x, y, max(i, j))[i, j]

    F = partialmethod(partial, 0, 0)
    Fx = partialmethod(partial, 1, 0)
    Fy = partialmethod(partial, 0, 1)
    Fxy = partialmethod(partial, 1, 1)


def frieze_from_components(F, Fx=None, Fy=None, Fxy=None, period: float | None = None) -> ContinuousFrieze:
    """Frieze from elementwise evaluators, of order 1 if F_x, F_y and F_xy are all given.

    An evaluator whose value does not depend on (x, y) may return a scalar.
    """

    def taylor(x, y, m):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        fns = ((F, Fy), (Fx, Fxy))[: m + 1]
        return np.array([[np.broadcast_to(fn(x, y), shape) for fn in row[: m + 1]] for row in fns], dtype=float)

    return ContinuousFrieze(taylor, 0 if None in (Fx, Fy, Fxy) else 1, period)


def frieze_from_curve(lift: LiftedCurve, other: LiftedCurve | None = None) -> ContinuousFrieze:
    """F(x,y) = [Gamma(x), Gamma~(y)]; one curve gives the closed frieze."""
    left, right = lift, (lift if other is None else other)

    def taylor(x, y, m):
        # leading unit axes keep each lift on its own grid and align the two
        nd = max(np.ndim(x), np.ndim(y))
        u = left.taylor(np.reshape(x, (1,) * (nd - np.ndim(x)) + np.shape(x)), m)[:, None]
        v = right.taylor(np.reshape(y, (1,) * (nd - np.ndim(y)) + np.shape(y)), m)[None, :]
        return u[:, :, 0] * v[:, :, 1] - u[:, :, 1] * v[:, :, 0]

    return ContinuousFrieze(taylor, 1, lift.period if other is None else None)


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

    def taylor(x, y, m):
        tx, ty = f.taylor(x, m + 1), f.taylor(y, m + 1)
        (fx, px), (fy, py) = tx[:2], ty[:2]
        sign = sigma(x) * sigma(y)
        root = np.sqrt(px * py)
        rows = [[sign * (fy - fx) / root]]
        if m >= 1:
            qx, qy = tx[2], ty[2]
            rows[0].append(sign * (py / root - 0.5 * (fy - fx) * qy / (py * root)))
            fxy = (
                0.5 * px * qy / (py * root)
                - 0.5 * py * qx / (px * root)
                + 0.25 * (fy - fx) * qx * qy / (px * py * root)
            )
            rows.append([sign * (-px / root - 0.5 * (fy - fx) * qx / (px * root)), sign * fxy])
        return np.array(rows)

    return ContinuousFrieze(taylor, 1, curve.period)


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
    xs = periodic_nodes(T, n, 0.5)
    us = np.linspace(T / 16.0, T - T / 16.0, n)
    return xs[:, None], xs[:, None] + us


def _partials(frieze: ContinuousFrieze, x, y, h: float):
    """((F, F_y), (F_x, F_xy)) on a grid: one Taylor call, or central differences with step h at order 0."""
    if frieze.order >= 1:
        return frieze.taylor(x, y, 1)
    F = frieze.F
    fx = (on_grid(F, x + h, y) - on_grid(F, x - h, y)) / (2 * h)
    fy = (on_grid(F, x, y + h) - on_grid(F, x, y - h)) / (2 * h)
    return (on_grid(F, x, y), fy), (fx, mixed_partial(F, x, y, h))


def _points(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The grid points as an (n*n, 2) array; row k is (x, y) of the k-th raveled value."""
    X, Y = np.broadcast_arrays(X, Y)
    return np.column_stack((X.ravel(), Y.ravel()))


def liouville_residual_field(
    frieze: ContinuousFrieze,
    grid: int = 48,
    domain: Domain | None = None,
    h: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise |F F_xy - F_x F_y - 1| over the evaluation grid, and its points.

    A frieze of order 1 gives F and its partials in one Taylor call; one of
    order 0 gets second-order central differences with step h (with
    correspondingly degraded accuracy).
    """
    if grid < MIN_LIOUVILLE_GRID:
        raise ValueError(f"grid must be at least {MIN_LIOUVILLE_GRID}x{MIN_LIOUVILLE_GRID}")
    X, Y = _grid(frieze, grid, domain)
    (f, fy), (fx, fxy) = _partials(frieze, X, Y, h)
    vals = np.abs(f * fxy - fx * fy - 1.0)
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


def boundary_check(frieze: ContinuousFrieze, T: float) -> dict:
    """Residuals of the closure conditions along the diagonal and the period (256 nodes over 2T)."""
    grid = 256
    xs = periodic_nodes(2.0 * T, grid, 0.5)
    us = np.linspace(T / 8.0, T - T / 8.0, 17)
    (diag, fy), (fx, _) = _partials(frieze, xs, xs, 1e-5)
    x = xs[: grid // 2, None]
    anti = on_grid(frieze.F, np.stack((x + T, x)), x + us).sum(axis=0)
    return {
        "diagonal_zero": float(np.max(np.abs(diag))),
        "unit_slope": float(np.max(np.abs(fy - 1.0))),
        "unit_slope_x": float(np.max(np.abs(fx + 1.0))),
        "antiperiodicity": float(np.max(np.abs(anti))),
    }


def is_closed_frieze(frieze: ContinuousFrieze, T: float) -> bool:
    """Every residual of ``boundary_check`` is at most 1e-8."""
    return all(v <= 1e-8 for v in boundary_check(frieze, T).values())


def _fxx_over_f(frieze: ContinuousFrieze, x) -> np.ndarray:
    """F_xx/F by second differences in x with step 1e-4; axis 0 runs over y = x + (0.3, 0.5, 0.7) T."""
    h = 1e-4
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


def potential_from_frieze(frieze: ContinuousFrieze, c: float = 0.5) -> HillPotential:
    """Recover kappa(x) = F_xx(x, y) / F(x, y) from second differences of F.

    The ratio is independent of y for a genuine frieze; we verify that at
    three separated y per point, to a spread of 1e-6, and fail loudly
    otherwise.  The returned potential is in curvature convention
    (u'' = kappa u, i.e. k = -2c kappa).
    """
    if frieze.period is None:
        raise ValueError("closed friezes only")

    def kappa(x):
        vals = _fxx_over_f(frieze, x)
        if np.any(np.ptp(vals, axis=0) > 1e-6):
            raise DegenerateF("recovered potential depends on y")
        return vals[1]

    return HillPotential(kappa=kappa, c=c, period=frieze.period)


def potential_y_spread(frieze: ContinuousFrieze, xs) -> float:
    """Max spread of F_xx/F over three y values; diagnostic for y-independence."""
    vals = _fxx_over_f(frieze, xs)
    return float(np.max(np.ptp(vals, axis=0), initial=0.0))


def curvature_conformal(
    frieze: ContinuousFrieze,
    grid: int = 32,
    domain: Domain | None = None,
    h: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian curvature of the metric -4 F^{-2} dz dzbar on a grid, and its points.

    In the two frieze variables the coordinate derivatives d/dz, d/dzbar act
    as d/dx, d/dy (one quarter of the Laplacian after passing to real and
    imaginary parts), so K = -(2/lam) * d2(ln|lam|)/dxdy with lam = -4 F^{-2}.
    By the chain rule that is exactly K = -(F F_xy - F_x F_y): the curvature
    is minus the Liouville expression, and K is -1 wherever F solves the
    Liouville identity.  The mixed partial is taken by second-order central
    differences, so the result differs from -(F F_xy - F_x F_y) by O(h^2).
    A step h that vanishes against a grid coordinate (x + h == x) raises
    ValueError.
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
