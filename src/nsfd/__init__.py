"""Positivity-preserving, elementary-stable nonstandard finite difference
schemes of second order, with baselines, a systems extension, and audit
tooling.
"""

from .denominator import (
    DenominatorSpec,
    check_H_conditions,
    constant_rate,
    derived_denominator,
    lambda_from_scheme,
    phi,
    phim,
)
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
from .schemes import (
    StepMap,
    euler_step,
    integrate,
    mickens_cubic_step,
    mickens_monod_step,
    mickens_sine_step,
    nsfd_step,
    powerlaw_nsfd_step,
    reference_solution,
    rk2_step,
    wood_kojouharov_step,
)
from .splitting import (
    SplitBounds,
    compute_bounds,
    find_zeros,
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
    system_nsfd_step,
)

__version__ = "0.1.0"

__all__ = [
    "DenominatorSpec", "check_H_conditions", "constant_rate", "derived_denominator",
    "lambda_from_scheme", "phi", "phim",
    "Equilibrium", "Representation", "ScalarProblem", "SchemeConfig", "Trajectory",
    "classify_equilibria", "register_problem",
    "get_problem", "get_scheme", "problem_names", "scheme_bundles",
    "StepMap", "euler_step", "integrate", "mickens_cubic_step", "mickens_monod_step",
    "mickens_sine_step", "nsfd_step", "powerlaw_nsfd_step", "reference_solution",
    "rk2_step", "wood_kojouharov_step",
    "SplitBounds", "compute_bounds", "find_zeros", "lemma1_split", "theorem1_split",
    "validate_representation",
    "SystemProblem", "SystemSchemeConfig", "get_system", "integrate_system",
    "second_order_config", "second_order_rates", "system_nsfd_step",
    "__version__",
]
