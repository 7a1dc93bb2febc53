"""The errata report: the denominators printed in the source material
against the derived ones, with the measured convergence order of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analysis import RateTable, convergence_rates
from .problems import get_problem, get_scheme
from .schemes import nsfd_step_map

#: every measured order is a fit over these step sizes, from Y0 to time T
H_LIST = (1e-1, 1e-2, 1e-3)
T = 1.0
Y0 = 0.5


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


def _measured(problem_name: str, label: str, rate: Optional[Callable] = None) -> str:
    """The measured order of a registry scheme, or of its weighted update
    with the rate function ``rate`` in place of its own."""
    problem = get_problem(problem_name)
    bundle = get_scheme(problem_name, label)
    step = bundle.step if rate is None else nsfd_step_map(problem, bundle.rep, bundle.config, rate)
    return _order_str(convergence_rates(problem, step, H_LIST, T, Y0))


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
            printed_order=_measured("logistic", "snsfd2",
                                    rate=lambda y: 2.0 + 3.0 * np.asarray(y, dtype=float)),
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


def errata_report() -> str:
    """Human-readable errata: printed denominator, derived denominator, and
    the measured convergence order of each."""
    lines = [
        "Denominator errata: printed displays vs derived rate functions",
        "(derived = self-consistent construction lambda = -f' + 2*beta*f_minus;",
        f" measured orders are least-squares log-log fits at T = {T:g}, y0 = {Y0:g})",
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
