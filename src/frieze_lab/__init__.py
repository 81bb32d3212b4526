"""frieze-lab: Coxeter frieze patterns and their continuum limit.

Discrete side: exact-rational closed friezes, diagonal/zigzag coordinates
with cluster mutations, three-term recurrences with monodromy, fundamental
polygons, and the canonical cluster 2-form with exact jet pushforwards.

Continuous side: Schwarzian calculus, unit-determinant lifts, Hill equation
integration, continuous friezes solving F F_xy - F_x F_y = 1, curvature of
the associated conformal metric, and Kirillov's orbit 2-form.

Bridge: sampling lifts into polygons shows the cluster form converging to
-1/(4c) times the orbit form.
"""

from .cluster import (
    TangentVector,
    chart_jacobian,
    omega_diagonal,
    omega_geometric,
    omega_rank,
    omega_zigzag,
    polygon_tangent_from_diagonal,
    pushforward,
    pushforward_many,
)
from .continuous import (
    ContinuousFrieze,
    boundary_check,
    curvature_conformal,
    frieze_from_curve,
    frieze_genform,
    liouville_residual,
    liouville_residual_field,
    potential_from_frieze,
)
from .curves import (
    LiftedCurve,
    ProjectiveCurve,
    SmoothFunction,
    curve_family,
    from_derivatives,
    lift_curve,
    linear_family,
    mobius_transform,
    schwarzian,
    tan_family,
    trig_poly,
)
from .exceptions import (
    DegenerateF,
    DegeneratePoint,
    DerivativeVanishes,
    FriezeLabError,
    GaugeViolation,
    GridTooCoarse,
    NonPositiveF,
    NotClosed,
    QuadratureDisagreement,
    SecondComponentVanishes,
    ZeroEntryEncountered,
)
from .frieze import (
    SE,
    SW,
    DiagonalCoords,
    FriezePattern,
    ZigzagCoords,
    ZigzagPath,
    diagonal_to_frieze,
    elementary_mutation,
    propagate_from_quiddity,
    read_zigzag,
    zigzag_to_frieze,
)
from .hill import (
    HillPotential,
    hill_solve,
    is_antiperiodic,
    is_nonoscillating,
    monodromy_matrix,
    potential_from_constant,
)
from .jets import Jet, seed_jets
from .kirillov import (
    field_from_variation,
    kirillov_form_curve,
    kirillov_form_fields,
    kirillov_form_fields_both,
)
from .limit import (
    ConvergenceReport,
    DiscretizationScheme,
    continuum_integral,
    convergence_study,
    discrete_form_value,
    gauge_variation,
    lift_polygon_tangent,
    quiddity_from_potential,
    sample_polygon,
    tangent_lift,
    unit_determinant_defect,
)
from .recurrence import (
    DiscreteHillEquation,
    ModuliPoint,
    cross_ratio,
    cross_ratio_coordinates,
    det2,
    is_closed,
    is_minus_identity,
    monodromy,
    polygon_from_frieze,
    solve_recurrence,
    wronskians,
)

__version__ = "0.1.0"
