"""The errata report: the denominators printed in the source material
against the derived ones, with the measured convergence order of each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import RateTable, convergence_rates
from .denominator import DenominatorSpec
from .problems import get_problem, get_scheme
from .schemes import nsfd_step_map


@dataclass(frozen=True)
class ErrataEntry:
    scheme: str
    printed: str
    derived: str
    printed_order: str
    derived_order: str
    remark: str = ""


def _order_str(table: RateTable) -> str:
    if table.is_exact_candidate:
        return "exact to machine precision"
    return f"{table.fitted_order:.3f}"


def _measured(problem_name: str, label: str, y0: float = 0.5, T: float = 1.0,
              h_list=(1e-1, 1e-2, 1e-3)) -> str:
    problem = get_problem(problem_name)
    step = get_scheme(problem_name, label).step
    return _order_str(convergence_rates(problem, step, h_list, T, y0))


def errata_entries() -> list[ErrataEntry]:
    """Printed-versus-derived denominator discrepancies with measured orders.

    Every derived denominator follows the self-consistent rate construction
    lam = -f' + 2*beta*f_minus; the printed displays listed here satisfy the
    negated second-derivative condition (or are sign-invalid) and measure at
    first order.
    """
    entries = [
        ErrataEntry(
            scheme="logistic / snsfd1",
            printed="phi = (1 - e^{(2 + 0.5y)h})/(2 + 0.5y)",
            derived="phi = (e^{(2 + 0.5y)h} - 1)/(2 + 0.5y)   [lambda = -2 - 0.5y]",
            printed_order="not integrable: printed phi < 0 for h > 0 (violates positivity of phi)",
            derived_order=_measured("logistic", "snsfd1"),
            remark="printed display is the negative of the derived denominator",
        ),
        ErrataEntry(
            scheme="logistic / snsfd2",
            printed="phi = (1 - e^{-(2 + 3y)h})/(2 + 3y)",
            derived="phi = (e^{(2 + 3y)h} - 1)/(2 + 3y)   [lambda = -2 - 3y]",
            printed_order=_order_str(_printed_snsfd2_rates()),
            derived_order=_measured("logistic", "snsfd2"),
            remark="printed rate has the sign of f' - 2*beta*f_minus instead of its negative",
        ),
        ErrataEntry(
            scheme="logistic / snsfd3 (exact-candidate row)",
            printed="phi = (1 - e^{-2h})/2",
            derived="phi = (e^{2h} - 1)/2   [lambda = -2]",
            printed_order=_measured("logistic", "snsfd3-printed"),
            derived_order=_measured("logistic", "snsfd3"),
            remark="the derived variant reproduces the exact logistic flow; the printed one does not",
        ),
        ErrataEntry(
            scheme="cubic / weighted scheme (beta = 3/2)",
            printed="phi = 1 - e^{-h}",
            derived="phi = e^h - 1   [lambda = -1]",
            printed_order=_measured("cubic", "nsfd-printed"),
            derived_order=_measured("cubic", "nsfd"),
            remark="order-2 condition value is +1; the printed phi delivers -1",
        ),
        ErrataEntry(
            scheme="monod / weighted scheme (beta = 1, mu = 2)",
            printed="R(y) = [(mu+1) + 4(mu+1)y + 3(mu+1)y^2]/(1+y)^2 "
                    "(text condition uses (mu+3) in the first term)",
            derived="lambda(y) = -[(mu-1) + (mu+1)y^2]/(1+y)^2",
            printed_order=_measured("monod", "nsfd-printed"),
            derived_order=_measured("monod", "nsfd"),
            remark="neither printed rate matches the derivative of the right-hand side",
        ),
        ErrataEntry(
            scheme="sine / weighted scheme (beta = 1)",
            printed="lambda(y) = pi*cos(pi*y) - 2*pi",
            derived="lambda(y) = -pi*cos(pi*y) - 2*pi",
            printed_order=_measured("sine", "nsfd-printed"),
            derived_order=_measured("sine", "nsfd"),
            remark="sign of the cosine term",
        ),
        ErrataEntry(
            scheme="powerlaw / one-sided scheme (a = b = 1, m = 4)",
            printed="phi = (1 - e^{-ah})/a",
            derived="phi = (e^{ah} - 1)/a   [lambda = -a]",
            printed_order=_measured("powerlaw", "nsfd-printed"),
            derived_order=_measured("powerlaw", "nsfd"),
        ),
        ErrataEntry(
            scheme="cubic / maximum-symmetry scheme",
            printed="phi = (1 - e^{-2h})/2 (claimed second order)",
            derived="its own split has f' - 2*beta*f_minus = 0, so order 2 needs d2phi/dh2(0) = 0",
            printed_order=_measured("cubic", "mickens"),
            derived_order="n/a",
            remark="measured order contradicts the printed second-order claim",
        ),
        ErrataEntry(
            scheme="logistic / branching positive scheme",
            printed="phi = 1 - e^{-h}",
            derived="n/a (scheme lies outside the weighted family; kept as baseline)",
            printed_order=_measured("logistic", "wood"),
            derived_order="n/a",
        ),
    ]
    return entries


def _printed_snsfd2_rates() -> RateTable:
    problem = get_problem("logistic")
    bundle = get_scheme("logistic", "snsfd2")
    printed_lambda = lambda y: 2.0 + 3.0 * np.asarray(y, dtype=float)  # noqa: E731
    spec = DenominatorSpec(lambda_fn=printed_lambda,
                           label="(1 - e^{-(2+3y)h})/(2+3y) as printed")
    step = nsfd_step_map(problem, bundle.rep, bundle.config, spec, label="snsfd2-printed")
    return convergence_rates(problem, step, (1e-1, 1e-2, 1e-3), 1.0, 0.5)


def errata_report() -> str:
    """Human-readable errata: printed denominator, derived denominator, and
    the measured convergence order of each."""
    lines = [
        "Denominator errata: printed displays vs derived rate functions",
        "(derived = self-consistent construction lambda = -f' + 2*beta*f_minus;",
        " measured orders are least-squares log-log fits at T = 1, y0 = 0.5)",
        "",
    ]
    for e in errata_entries():
        lines.append(f"* {e.scheme}")
        lines.append(f"    printed: {e.printed}")
        lines.append(f"    derived: {e.derived}")
        lines.append(f"    measured order (printed): {e.printed_order}")
        lines.append(f"    measured order (derived): {e.derived_order}")
        if e.remark:
            lines.append(f"    remark: {e.remark}")
        lines.append("")
    return "\n".join(lines)
