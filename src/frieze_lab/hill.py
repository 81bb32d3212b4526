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

An RK4 step of this linear equation is a 2x2 matrix M_i = I + E_i with E_i of
order h, so a pass is the ordered product M_{n-1} ... M_0: the continuous
counterpart of a frieze's transfer matrices, which are I + O(eps) in (value,
divided difference) coordinates when c_i = 2 + eps^2 kappa(i eps).  The pass
forms all the prefix products as arrays, in blocks of about sqrt(steps)/2
steps, and keeps each one as its difference from I.  Its states agree with
the same RK4 steps taken one by one in extended precision to 3e-14 times the
largest state entry (or 1, if larger) for the potentials and step counts of
tests/test_hill.py, up to 65536 steps; the same steps in float64 drift from
that reference by up to 1e-12 times the same scale.
"""

from __future__ import annotations

import math
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


def _mul(x, y):
    """x @ y for 2x2 matrices indexed by the first two axes; the other axes broadcast."""
    return x[:, :1] * y[:1] + x[:, 1:] * y[1:]


def _prefix_deltas(e: np.ndarray) -> np.ndarray:
    """(I + e_i) ... (I + e_0) - I for every i, with the 2x2 matrices e of shape (2, 2, n).

    Products are kept as their difference D from I and updated as
    D <- D + (e + e D).  Storing I + e would round 1 + e_i the same way at
    every step when kappa is constant, an error that grows linearly with n.
    Inside blocks of B steps the products run vectorized over the blocks; the
    products of the blocks before each block are prefixes of near-identity
    matrices too, and come from the same function.
    """
    n = e.shape[-1]
    B = math.ceil(math.sqrt(n) / 2)
    nb = -(-n // B)
    e = np.concatenate((e, np.zeros((2, 2, nb * B - n))), axis=-1).reshape(2, 2, nb, B)
    d = np.empty_like(e)
    d[..., 0] = e[..., 0]
    for j in range(1, B):
        d[..., j] = d[..., j - 1] + (e[..., j] + _mul(e[..., j], d[..., j - 1]))
    before = np.zeros((2, 2, nb, 1))
    if nb > 1:
        before[..., 1:, 0] = _prefix_deltas(d[..., :-1, -1])
    return (d + (before + _mul(d, before))).reshape(2, 2, -1)[..., :n]


def _fundamental(kappa, T: float, steps: int) -> tuple[HillSolution, HillSolution]:
    """Fixed-step RK4 for the two solutions started at (u, u') = (1, 0) and (0, 1).

    kappa is evaluated once, on the 2*steps + 1 half-step points of [0, T].
    Step i is linear, (u, u') -> (I + E_i)(u, u'): the RK4 stages run on the
    basis columns for every step at once and give E_i as the increment
    (h/6)(k1 + 2 k2 + 2 k3 + k4).  The states are the prefix products I + D,
    with D from ``_prefix_deltas``; they agree with the steps taken one at a
    time to the tolerance stated in the module docstring.
    """
    h = T / steps
    xs = np.arange(2 * steps + 1) * (0.5 * h)
    k = on_grid(kappa, xs)
    k0, kh, k1 = k[0:-1:2], k[1::2], k[2::2]

    def increment(u, v):
        # classical RK4 on (u, u') with u'' = kappa u, less the state itself;
        # kappa at the step's start, midpoint and end
        k1u, k1v = v, k0 * u
        k2u = v + 0.5 * h * k1v
        k2v = kh * (u + 0.5 * h * k1u)
        k3u = v + 0.5 * h * k2v
        k3v = kh * (u + 0.5 * h * k2u)
        k4u = v + h * k3v
        k4v = k1 * (u + h * k3u)
        return (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u), (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)

    e = np.empty((2, 2, steps))
    e[:, 0] = increment(1.0, 0.0)
    e[:, 1] = increment(0.0, 1.0)
    p = np.concatenate((np.zeros((2, 2, 1)), _prefix_deltas(e)), axis=-1) + np.eye(2)[..., None]
    return HillSolution(xs[::2], p[0, 0], p[1, 0]), HillSolution(xs[::2], p[0, 1], p[1, 1])


def hill_solve(pot: HillPotential, steps: int | None = None) -> tuple[HillSolution, np.ndarray]:
    """The solution with u(0) = 1, u'(0) = 0 over one period, and the monodromy matrix."""
    a, b = _fundamental(pot.kappa, pot.period, resolution(steps))
    return a, np.array([[a.ys[-1], b.ys[-1]], [a.dys[-1], b.dys[-1]]])


def dev_from_minus_id(m) -> float:
    """Largest entry of |m + Id|: how far a 2x2 monodromy matrix is from -Id."""
    return float(np.max(np.abs(np.asarray(m) + np.eye(2))))


def is_antiperiodic(m: np.ndarray) -> bool:
    """The monodromy matrix is -Id to 1e-6 entrywise."""
    return dev_from_minus_id(m) <= 1e-6


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
