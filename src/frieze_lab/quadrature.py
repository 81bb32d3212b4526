"""Quadrature and finite-difference helpers.

Integrals of smooth T-periodic functions use the composite trapezoidal rule on
uniform grids, which is spectrally accurate in that setting; the default
resolution is 4096 nodes and may be overridden with the FRIEZE_LAB_NODES
environment variable.  Any count, from a flag or the environment, must be at
least MIN_RESOLUTION = 64, the coarsest grid the RK4 Hill passes accept.
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_NODES = 4096
MIN_RESOLUTION = 64


def resolution(override: int | None = None) -> int:
    """Node/step count: the override, else FRIEZE_LAB_NODES, else the default."""
    env = os.environ.get("FRIEZE_LAB_NODES")
    if override is None and not env:
        return DEFAULT_NODES
    n = int(env if override is None else override)
    if n < MIN_RESOLUTION:
        source = "FRIEZE_LAB_NODES" if override is None else "the requested resolution (--nodes/--steps)"
        raise ValueError(f"{source} must be at least {MIN_RESOLUTION}, got {n}")
    return n


def periodic_nodes(period: float, n: int, offset: float = 0.0) -> np.ndarray:
    """Uniform nodes (k + offset) * T/n, k = 0..n-1."""
    return (np.arange(n) + offset) * (period / n)


def periodic_trapezoid(values, period: float) -> float:
    """Trapezoidal rule for one full period of samples on a uniform grid."""
    v = np.asarray(values, dtype=float)
    return float(v.mean() * period)


def mixed_partial(F, x: float, y: float, h: float = 1e-3) -> float:
    """Second-order central estimate of d^2 F / dx dy, elementwise in x and y."""
    return (
        F(x + h, y + h) - F(x + h, y - h) - F(x - h, y + h) + F(x - h, y - h)
    ) / (4.0 * h * h)
