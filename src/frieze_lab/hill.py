"""Hill equation integration, monodromy, and the non-oscillation test.

The internal form of the equation is u'' = kappa(x) u.  The classical
parameterization 2c y'' + k(x) y = 0 corresponds to kappa = -k / (2c); a
HillPotential stores kappa together with the central constant c and exposes
the k-form through an adapter, so each caller states explicitly which
convention it consumes.

Every result is read off one RK4 pass, ``_fundamental``, which steps the two
fundamental solutions (u, u') = (1, 0) and (0, 1) together: ``hill_solve``
returns the first one and the monodromy matrix of their end values, and
``is_nonoscillating`` counts the zeros of random mixes of the two.
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


def hill_solve(pot: HillPotential, steps: int | None = None) -> tuple[HillSolution, np.ndarray]:
    """The solution with u(0) = 1, u'(0) = 0 over one period, and the monodromy matrix."""
    a, b = _fundamental(pot.kappa, pot.period, resolution(steps))
    return a, np.array([[a.ys[-1], b.ys[-1]], [a.dys[-1], b.dys[-1]]])


def is_antiperiodic(m: np.ndarray) -> bool:
    """The monodromy matrix is -Id to 1e-6 entrywise."""
    return bool(np.max(np.abs(m + np.eye(2))) <= 1e-6)


def count_zeros(samples: np.ndarray) -> int:
    """Zeros over a half-open sample window, by sign changes and exact hits.

    A run of exact-zero samples counts as one zero, at its first sample (Hill
    solutions have simple zeros, so a run is one zero seen twice, not two); a
    sign change right after a run is that same zero.  So an event falls at
    i >= 1 when sample i-1 is nonzero and its sign differs from sample i's, and
    at 0 when sample 0 is zero.  Raises GridTooCoarse when two zeros fall
    within two grid cells of each other.
    """
    s = np.sign(samples)
    events = np.flatnonzero(np.concatenate((s[:1] == 0, (s[:-1] != 0) & (s[1:] != s[:-1]))))
    if np.any(np.diff(events) <= 2):
        raise GridTooCoarse("two sign changes within two grid cells")
    return len(events)


def is_nonoscillating(pot: HillPotential, steps: int | None = None) -> bool:
    """Every solution has exactly one zero per period, over 8 random basis mixes.

    The mixes come from random.Random(0), so the test is deterministic.
    """
    a, b = _fundamental(pot.kappa, pot.period, resolution(steps))
    rng = random.Random(0)
    for _ in range(8):
        alpha = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-1.0, 1.0)
        if abs(alpha) + abs(beta) < 1e-3:
            alpha = 1.0
        ys = alpha * a.ys + beta * b.ys
        if count_zeros(ys[:-1]) != 1:
            return False
    return True
