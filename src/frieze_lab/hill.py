"""Hill equation integration, monodromy, and the non-oscillation test.

The internal form of the equation is u'' = kappa(x) u.  The classical
parameterization 2c y'' + k(x) y = 0 corresponds to kappa = -k / (2c); a
HillPotential stores kappa together with the central constant c and exposes
the k-form through an adapter, so each caller states explicitly which
convention it consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import on_grid
from .exceptions import GridTooCoarse
from .quadrature import resolution


@dataclass(frozen=True)
class HillPotential:
    """Periodic potential in curvature form u'' = kappa u.

    kappa, dkappa and the k-form adapters are elementwise in a float or an
    ndarray; a constant one may return a scalar.
    """

    kappa: Callable[[float], float]
    c: float
    period: float
    dkappa: Callable[[float], float] | None = None

    def hill_k(self, x: float) -> float:
        """Potential of the same equation written as 2c y'' + k y = 0."""
        return -2.0 * self.c * self.kappa(x)

    def hill_dk(self, x: float) -> float:
        if self.dkappa is None:
            raise ValueError("potential has no analytic derivative")
        return -2.0 * self.c * self.dkappa(x)


def potential_from_constant(value: float, c: float = 0.5, period: float = np.pi) -> HillPotential:
    return HillPotential(
        kappa=lambda x: value, c=c, period=period, dkappa=lambda x: 0.0
    )


@dataclass(frozen=True)
class HillSolution:
    xs: np.ndarray
    ys: np.ndarray
    dys: np.ndarray


def _fundamental(kappa, T: float, steps: int) -> tuple[HillSolution, HillSolution]:
    """Fixed-step RK4 for the two solutions started at (u, u') = (1, 0) and (0, 1).

    kappa is evaluated once, on the 2*steps + 1 half-step points of [0, T].
    """
    h = T / steps
    xs = np.arange(2 * steps + 1) * (0.5 * h)
    k = on_grid(kappa, xs).tolist()

    def step(u, v, k0, kh, k1):
        # classical RK4 on (u, u') with u'' = kappa u; kappa at the step's
        # start, midpoint and end
        k1u, k1v = v, k0 * u
        k2u = v + 0.5 * h * k1v
        k2v = kh * (u + 0.5 * h * k1u)
        k3u = v + 0.5 * h * k2v
        k3v = kh * (u + 0.5 * h * k2u)
        k4u = v + h * k3v
        k4v = k1 * (u + h * k3u)
        return (
            u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u),
            v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v),
        )

    a, da, b, db = 1.0, 0.0, 0.0, 1.0
    states = [(a, da, b, db)]
    for i in range(steps):
        k0, kh, k1 = k[2 * i], k[2 * i + 1], k[2 * i + 2]
        a, da = step(a, da, k0, kh, k1)
        b, db = step(b, db, k0, kh, k1)
        states.append((a, da, b, db))
    a, da, b, db = np.array(states).T
    return HillSolution(xs[::2], a, da), HillSolution(xs[::2], b, db)


def _combine(a: HillSolution, b: HillSolution, y0: float, dy0: float) -> HillSolution:
    return HillSolution(a.xs, y0 * a.ys + dy0 * b.ys, y0 * a.dys + dy0 * b.dys)


def _monodromy(a: HillSolution, b: HillSolution) -> np.ndarray:
    return np.array([[a.ys[-1], b.ys[-1]], [a.dys[-1], b.dys[-1]]])


def _rk4(kappa, T: float, y0: float, dy0: float, steps: int) -> HillSolution:
    """The solution with u(0) = y0, u'(0) = dy0, from one fundamental pass."""
    return _combine(*_fundamental(kappa, T, steps), y0, dy0)


def hill_solve(
    pot: HillPotential,
    T: float | None = None,
    y0: float = 1.0,
    dy0: float = 0.0,
    steps: int | None = None,
) -> tuple[HillSolution, np.ndarray]:
    """Integrate one period and return the samples plus the monodromy matrix."""
    T = pot.period if T is None else T
    steps = resolution(steps)
    if steps < 64:
        raise ValueError("need at least 64 steps per period")
    a, b = _fundamental(pot.kappa, T, steps)
    return _combine(a, b, y0, dy0), _monodromy(a, b)


def monodromy_matrix(pot: HillPotential, T: float | None = None, steps: int | None = None) -> np.ndarray:
    T = pot.period if T is None else T
    return _monodromy(*_fundamental(pot.kappa, T, resolution(steps)))


def is_antiperiodic(m: np.ndarray, tol: float = 1e-6) -> bool:
    return bool(np.max(np.abs(m + np.eye(2))) <= tol)


def count_zeros(samples: np.ndarray) -> int:
    """Zeros over a half-open sample window, by sign changes and exact hits.

    A run of exact-zero samples counts as one zero (Hill solutions have simple
    zeros, so a run is one zero seen twice, not two).  Raises GridTooCoarse
    when two zeros fall within two grid cells of each other.
    """
    ys = np.asarray(samples)
    signs = np.sign(ys)
    events = []
    last = 0.0
    in_zero_run = False
    for i, s in enumerate(signs):
        if s == 0:
            if not in_zero_run:
                events.append(i)
                in_zero_run = True
            continue
        if last != 0 and s != last and not in_zero_run:
            events.append(i)
        in_zero_run = False
        last = s
    for a, b in zip(events, events[1:]):
        if b - a <= 2:
            raise GridTooCoarse("two sign changes within two grid cells")
    return len(events)


def is_nonoscillating(
    pot: HillPotential,
    T: float | None = None,
    steps: int | None = None,
    trials: int = 8,
    seed: int = 0,
) -> bool:
    """Every solution has exactly one zero per period, over random basis mixes."""
    T = pot.period if T is None else T
    a, b = _fundamental(pot.kappa, T, resolution(steps))
    rng = random.Random(seed)
    for _ in range(trials):
        alpha = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-1.0, 1.0)
        if abs(alpha) + abs(beta) < 1e-3:
            alpha = 1.0
        ys = alpha * a.ys + beta * b.ys
        if count_zeros(ys[:-1]) != 1:
            return False
    return True
