"""Positivity-preserving, elementary-stable nonstandard finite difference
schemes of second order, with baselines, a systems extension, and audit
tooling.
"""

from .denominator import check_H_conditions, constant_rate, derived_denominator, phi, phim
from .model import (
    Equilibrium,
    Representation,
    ScalarProblem,
    SchemeConfig,
    Trajectory,
    classify_equilibria,
    register_problem,
)
from .problems import get_problem, get_scheme, problem_names, scheme_bundles
from .schemes import StepMap, integrate, nsfd_step_map, reference_solution
from .splitting import (
    SplitBounds,
    compute_bounds,
    lemma1_split,
    theorem1_split,
    validate_representation,
)
from .systems import (
    SystemProblem,
    SystemSchemeConfig,
    get_system,
    integrate_system,
    second_order_config,
    second_order_rates,
    system_step_map,
)

__version__ = "0.1.0"

__all__ = [
    "check_H_conditions", "constant_rate", "derived_denominator", "phi", "phim",
    "Equilibrium", "Representation", "ScalarProblem", "SchemeConfig", "Trajectory",
    "classify_equilibria", "register_problem",
    "get_problem", "get_scheme", "problem_names", "scheme_bundles",
    "StepMap", "integrate", "nsfd_step_map", "reference_solution",
    "SplitBounds", "compute_bounds", "lemma1_split", "theorem1_split",
    "validate_representation",
    "SystemProblem", "SystemSchemeConfig", "get_system", "integrate_system",
    "second_order_config", "second_order_rates", "system_step_map",
    "__version__",
]
