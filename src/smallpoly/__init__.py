"""Unit-diameter polygons with near-maximal area for an even number of sides."""

from .geometry import (
    AngleVector,
    AreaReport,
    SkeletonError,
    SmallPolygon,
    area_dissection,
    max_pairwise_distance,
    regular_area,
    upper_bound,
    validate,
    vertices_from_angles,
)
from .reduced import (
    ReducedParams,
    construct_Q,
    construct_Q_theorem,
    derive,
    expand_angles,
    reduced_area,
)
from .solver import (
    BoxProblem,
    BracketError,
    Diagnostics,
    InfeasibleError,
    maximize_box,
    nlp_objective,
    objective_gradient,
    solve_full_nlp,
)
from .asymptotics import (
    AsymptoticFit,
    estimate_q_numeric,
    minimize_cubic,
    theorem_constants,
    verify_certificates,
)

__version__ = "0.1.0"

__all__ = [
    "AngleVector",
    "AreaReport",
    "AsymptoticFit",
    "BoxProblem",
    "BracketError",
    "Diagnostics",
    "InfeasibleError",
    "ReducedParams",
    "SkeletonError",
    "SmallPolygon",
    "area_dissection",
    "construct_Q",
    "construct_Q_theorem",
    "derive",
    "estimate_q_numeric",
    "expand_angles",
    "max_pairwise_distance",
    "maximize_box",
    "minimize_cubic",
    "nlp_objective",
    "objective_gradient",
    "reduced_area",
    "regular_area",
    "solve_full_nlp",
    "theorem_constants",
    "upper_bound",
    "validate",
    "verify_certificates",
    "vertices_from_angles",
]
