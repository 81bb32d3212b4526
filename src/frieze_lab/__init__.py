"""frieze-lab: Coxeter frieze patterns and their continuum limit.

Discrete side: exact-rational closed friezes, diagonal/zigzag coordinates
with cluster mutations, three-term recurrences with monodromy, fundamental
polygons, and the canonical cluster 2-form with exact jet pushforwards.

Continuous side: Schwarzian calculus, unit-determinant lifts, Hill equation
integration, continuous friezes solving F F_xy - F_x F_y = 1, curvature of
the associated conformal metric, and Kirillov's orbit 2-form.

Bridge: sampling lifts into polygons shows the cluster form converging to
-1/(4c) times the orbit form.

The namespace is lazy: each public name, and each submodule, is imported on
first use.  So ``import frieze_lab`` alone loads no numpy, and code that uses
only the exact side never loads it.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it gives the package
_EXPORTS = {
    "cluster": (
        "TangentVector", "chart_jacobian", "omega_diagonal", "omega_geometric", "omega_rank",
        "omega_zigzag", "polygon_tangent_from_diagonal", "pushforward", "pushforward_many",
    ),
    "continuous": (
        "ContinuousFrieze", "boundary_check", "curvature_conformal", "frieze_from_components",
        "frieze_from_curve", "frieze_genform", "liouville_residual", "liouville_residual_field",
        "potential_from_frieze",
    ),
    "curves": (
        "LiftedCurve", "ProjectiveCurve", "SmoothFunction", "curve_family", "from_derivatives",
        "lift_curve", "lift_from_components", "linear_family", "mobius_transform", "schwarzian",
        "tan_family", "trig_poly",
    ),
    "exceptions": (
        "DegenerateF", "DegeneratePoint", "DerivativeVanishes", "FriezeLabError", "GaugeViolation",
        "GridTooCoarse", "NonPositiveF", "NotClosed", "SecondComponentVanishes",
        "ZeroEntryEncountered",
    ),
    "frieze": (
        "SE", "SW", "DiagonalCoords", "FriezePattern", "ZigzagCoords", "ZigzagPath",
        "diagonal_to_frieze", "elementary_mutation", "propagate_from_quiddity", "read_zigzag",
        "zigzag_to_frieze",
    ),
    "hill": ("HillPotential", "hill_solve", "is_antiperiodic", "is_nonoscillating", "potential_from_constant"),
    "jets": ("Jet", "seed_jets"),
    "kirillov": ("field_from_variation", "kirillov_form_curve", "kirillov_form_fields_both"),
    "limit": (
        "ConvergenceReport", "DiscretizationScheme", "continuum_integral", "convergence_study",
        "discrete_form_value", "gauge_variation", "quiddity_from_potential", "sample_polygon",
        "tangent_lift", "unit_determinant_defect",
    ),
    "quadrature": (),
    "recurrence": (
        "DiscreteHillEquation", "ModuliPoint", "cross_ratio", "cross_ratio_coordinates", "det2",
        "is_closed", "is_minus_identity", "monodromy", "polygon_from_frieze", "solve_recurrence",
        "wronskians",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    # Nothing is stored in the module globals: a name is read from its
    # submodule on every access, so a rebinding there (a test's monkeypatch,
    # a tracing wrapper and its restore) shows through here.
    if name in _ORIGIN:
        return getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
