"""Kirillov's symplectic form on the orbit of Hill potentials.

Two evaluations are provided.  The field picture pairs two vector fields
X d/dx, Y d/dx at a potential (k, c):

    omega_K(X, Y) = int k (X Y' - X' Y) dx  -  c int X' Y'' dx
                  = -int (X k' + 2 X' k + c X''') Y dx,

where the second line is the coadjoint-action form of the same integral and
both are computed and compared.  The curve picture pairs two variations
xi, eta of the parameterizing function f:

    omega_curve(xi, eta) = -c int (xi' eta'' - xi'' eta') / f'^2 dx.

The variation dictionary is xi = X f' (a variation of the values of f); on
that correspondence the curve integral evaluates to exactly twice the field
integral -- the antisymmetrized integrand double-counts the integration by
parts -- and the factor is asserted by the test-suite rather than silently
absorbed.  The curve integrand is only integrable for bounded variations
(xi growing like f' at a pole of f makes it divergent), so cross-checks are
run on bounded xi with X = xi / f'.
"""

from __future__ import annotations

import numpy as np

from .curves import ProjectiveCurve, SmoothFunction, on_grid, sf_derivative, sf_product, sf_reciprocal
from .exceptions import DerivativeVanishes
from .hill import HillPotential
from .quadrature import periodic_nodes, periodic_trapezoid, resolution


def kirillov_form_fields_both(
    pot: HillPotential,
    X: SmoothFunction,
    Y: SmoothFunction,
    nodes: int | None = None,
) -> tuple[float, float]:
    """Both displayed expressions of the field form, for cross-validation."""
    T = pot.period
    n = resolution(nodes)
    xs = periodic_nodes(T, n)
    k, dk = on_grid(pot.hill_k, xs), on_grid(pot.hill_dk, xs)
    Xv, X1, _, X3 = X.taylor(xs, 3)
    Yv, Y1, Y2 = Y.taylor(xs, 2)
    c = pot.c
    line1 = periodic_trapezoid(k * (Xv * Y1 - X1 * Yv), T) - c * periodic_trapezoid(
        X1 * Y2, T
    )
    line2 = -periodic_trapezoid((Xv * dk + 2.0 * X1 * k + c * X3) * Yv, T)
    return line1, line2


def kirillov_form_curve(
    curve: ProjectiveCurve,
    xi: SmoothFunction,
    eta: SmoothFunction,
    nodes: int | None = None,
) -> float:
    """-c int (xi' eta'' - xi'' eta') / f'^2 over one period.

    Requires bounded variations; see the module docstring for the relation to
    the field form (a factor of two on xi = X f').
    """
    T = curve.period
    if T is None:
        raise ValueError("closed curves only")
    n = resolution(nodes)
    xs = periodic_nodes(T, n)
    f = curve.f
    fp = f.taylor(xs, 1)[1]
    if np.min(np.abs(fp)) < 1e-14:
        raise DerivativeVanishes("f' vanished at a quadrature node")
    _, x1, x2 = xi.taylor(xs, 2)
    _, e1, e2 = eta.taylor(xs, 2)
    return -curve.c * periodic_trapezoid((x1 * e2 - x2 * e1) / fp**2, T)


def field_from_variation(curve: ProjectiveCurve, xi: SmoothFunction) -> SmoothFunction:
    """Vector-field component X = xi / f' matching a variation xi of f.

    Uses the curve's pole-safe 1/f' evaluators when available; the quotient
    fallback needs f'''' and is only conditioned away from poles of f.
    """
    return sf_product(xi, curve.inv_d1 or sf_reciprocal(sf_derivative(curve.f)))
