"""Experiment driver.

Commands: split, check, run, run-sys, rates, audit, errata, table2, figures.
Exit code 0 means every requested check passed. Flags can also be supplied
through a plain key=value file via --config; explicit flags win.

CSV conventions: '.' decimal separator, '\\n' line endings, trajectory
values at full round-trip precision, table values at 6 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import convergence_rates, elementary_stability_audit, positivity_audit
from .denominator import check_H_conditions, derived_from
from .errata import errata_report
from .errors import (BadHorizon, DimensionMismatch, NegativeState, NonPositiveStep,
                     StepCountOverflow, ZeroStepCount)
from .problems import get_problem, get_scheme, problem_names, scheme_bundles
from .schemes import integrate
from .splitting import theorem1_split, validate_representation
from .systems import (
    DEFAULT_STARTS,
    conserved_series,
    get_system,
    integrate_system,
    plain_config,
    second_order_config,
    system_names,
    system_params,
)

TABLE2_H = (1e-1, 1e-2, 1e-3, 1e-4)
TABLE2_H_FULL = TABLE2_H + (1e-5,)
FIGURE_H = 1.25
FIGURE_STEPS = 40

#: the library's input-contract errors: a command that raises one reports a
#: usage error (exit 2) instead of a traceback
INPUT_ERRORS = (NonPositiveStep, NegativeState, BadHorizon, ZeroStepCount, StepCountOverflow,
                DimensionMismatch)


def _fmt_table(x) -> str:
    return "" if x is None else f"{x:.6g}"


def _fmt_full(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _config_tokens(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """The key=value lines of a --config file as flag tokens for ``command``,
    so they are parsed exactly like flags. An on/off flag takes true/false
    (1/0, yes/no, on/off)."""
    defaults = vars(parser.parse_args([command]))
    tokens = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        if not isinstance(defaults.get(key.replace("-", "_")), bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
        elif value.lower() not in ("", "0", "false", "no", "off"):
            parser.error(f"{path}: {key} takes true or false, got {value!r}")
    return tokens


def _h_list(text: str) -> list[float]:
    """--h-list of rates: two or more comma-separated step sizes, finite,
    > 0 and strictly decreasing."""
    try:
        hs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(0.0 < h < math.inf for h in hs):
        raise argparse.ArgumentTypeError(f"step sizes must be finite and > 0, got {text!r}")
    if len(hs) < 2 or any(a <= b for a, b in zip(hs, hs[1:])):
        raise argparse.ArgumentTypeError(
            f"expected two or more strictly decreasing step sizes, got {text!r}")
    return hs


def _int_at_least(least: int):
    """Argparse type for an integer flag of at least ``least``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    return parse


def _state(text: str) -> tuple[float, ...]:
    """--y0 of run-sys: comma-separated numbers (none for an empty value)."""
    try:
        return tuple(float(tok) for tok in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _params(text: str) -> dict[str, float]:
    """--params of run-sys: comma-separated key=value numbers."""
    params = {}
    for token in text.split(",") if text else ():
        key, _, value = token.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated key=value numbers, got {text!r}") from None
    return params


def _check_against_model(parser: argparse.ArgumentParser, args) -> None:
    """Usage errors for values that depend on another flag: the scheme label
    of a problem, and the start state and parameters of a run-sys model."""
    if args.command in ("run", "check", "rates"):
        labels = sorted(scheme_bundles(args.problem))
        if args.scheme not in labels:
            parser.error(f"argument --scheme: invalid choice for {args.problem}: "
                         f"{args.scheme!r} (choose from {', '.join(labels)})")
    if args.command == "run-sys":
        accepted = system_params(args.model)
        unknown = sorted(set(args.params or {}) - set(accepted))
        if unknown:
            parser.error(f"argument --params: {args.model} takes {', '.join(accepted)}, "
                         f"not {', '.join(unknown)}")
        dim = get_system(args.model).dim
        if args.y0 and len(args.y0) != dim:
            parser.error(f"argument --y0: {args.model} needs {dim} comma-separated values, "
                         f"got {len(args.y0)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_split(args) -> int:
    problem = get_problem(args.problem)
    rep = theorem1_split(problem)
    report = validate_representation(problem, rep)
    ys = np.linspace(*report.window, 5)
    print(f"derived representation for {problem.name} (provenance {rep.provenance})")
    print(f"{'y':>10} {'f_plus':>14} {'f_minus':>14} {'residual':>12}")
    for y in ys:
        fp, fm = float(rep.f_plus(y)), float(rep.f_minus(y))
        res = fp + y * fm - float(problem.f(y))
        print(f"{y:>10.4g} {fp:>14.6g} {fm:>14.6g} {res:>12.3e}")
    print(report)
    print("signs checked on [{:g}, {:g}]; not checked beyond it".format(*report.window))
    return 0 if report.passed else 1


def cmd_check(args) -> int:
    bundle = get_scheme(args.problem, args.scheme)
    if bundle.rep is None or bundle.config is None or bundle.spec is None:
        print(f"{args.scheme} is a step-only baseline; no condition report", file=sys.stderr)
        return 2
    problem = get_problem(args.problem)
    report = check_H_conditions(problem, bundle.rep, bundle.config, bundle.spec)
    print(f"conditions for {args.problem}/{args.scheme}:")
    print(report)
    if args.out:
        rows = [[name, "pass" if ok else "fail"]
                for name, ok in zip(("H1", "H2", "H3", "H4"),
                                    (report.h1, report.h2, report.h3, report.h4))]
        rows += [["note", w] for w in report.witnesses]
        _write_csv(args.out, ["condition", "status"], rows)
    return 0 if report.passed else 1


def cmd_run(args) -> int:
    problem = get_problem(args.problem)
    bundle = get_scheme(args.problem, args.scheme)
    traj = integrate(bundle.step, args.y0, args.h, args.t_end, problem_name=problem.name)
    rows = []
    for t, y in zip(traj.times, traj.states):
        if problem.exact_solution is not None:
            exact = float(problem.exact_solution(t, args.y0))
            rows.append([_fmt_full(t), _fmt_full(y), _fmt_full(exact), _fmt_full(abs(y - exact))])
        else:
            rows.append([_fmt_full(t), _fmt_full(y), "", ""])
    _write_csv(args.out, ["t", "y", "y_exact", "abs_error"], rows)
    print(f"wrote {args.out}: {len(rows)} rows, final y = {traj.final_state:.9g}, "
          f"min state = {traj.min_state:.3g}")
    return 0


def cmd_run_sys(args) -> int:
    system = get_system(args.model, **(args.params or {}))
    state0 = args.y0 or DEFAULT_STARTS[args.model]
    if args.scheme == "nsfd2":
        cfg = second_order_config(system)
    else:
        cfg = plain_config(system)
    traj = integrate_system(system, cfg, state0, args.h, args.t_end)
    header = ["t"] + [f"x_{i + 1}" for i in range(system.dim)]
    cons = conserved_series(system, traj)
    if cons is not None:
        header.append("conserved")
    rows = []
    for k, t in enumerate(traj.times):
        row = [_fmt_full(t)] + [_fmt_full(v) for v in traj.states[k]]
        if cons is not None:
            row.append(_fmt_full(cons[k]))
        rows.append(row)
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}: {len(rows)} rows, min state = {traj.min_state:.3g}")
    return 0


def cmd_rates(args) -> int:
    problem = get_problem(args.problem)
    bundle = get_scheme(args.problem, args.scheme)
    table = convergence_rates(problem, bundle.step, args.h_list, args.t_end, args.y0)
    print(table)
    if args.out:
        rows = [[_fmt_table(r.h), _fmt_table(r.error), _fmt_table(r.rate), r.note]
                for r in table.rows]
        _write_csv(args.out, ["h", "error", "rate", "note"], rows)
    return 0


def cmd_table2(args) -> int:
    problem = get_problem("logistic")
    h_list = TABLE2_H_FULL if args.full else TABLE2_H
    tables = {label: convergence_rates(problem, get_scheme("logistic", label).step,
                                       h_list, 1.0, 0.5)
              for label in ("snsfd1", "snsfd2", "wood")}
    header = ["h",
              "snsfd1_error", "snsfd1_rate",
              "snsfd2_error", "snsfd2_rate",
              "wood_error", "wood_rate"]
    rows = []
    for i, h in enumerate(h_list):
        row = [f"{h:.0e}"]
        for label in ("snsfd1", "snsfd2", "wood"):
            r = tables[label].rows[i]
            row += [_fmt_table(r.error), _fmt_table(r.rate)]
        rows.append(row)
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}")
    for label in ("snsfd1", "snsfd2", "wood"):
        print(tables[label])
    return 0


def cmd_figures(args) -> int:
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    problem = get_problem("logistic")
    t_end = FIGURE_H * FIGURE_STEPS
    trajs = {
        label: integrate(get_scheme("logistic", label).step, 0.5, FIGURE_H, t_end,
                         problem_name="logistic")
        for label in ("euler", "rk2", "snsfd1", "wood")
    }

    def write(path: Path, labels: list[str]) -> None:
        rows = []
        for k, t in enumerate(trajs[labels[0]].times):
            rows.append([_fmt_full(t)] + [_fmt_full(trajs[lab].states[k]) for lab in labels])
        _write_csv(str(path), ["t"] + labels, rows)

    write(outdir / "fig1.csv", ["euler", "rk2", "snsfd1"])
    write(outdir / "fig2.csv", ["snsfd1", "wood"])
    print(f"wrote {outdir / 'fig1.csv'} and {outdir / 'fig2.csv'} "
          f"({FIGURE_STEPS + 1} rows each)")
    return 0


def cmd_audit(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = []
    names = [args.problem] if args.problem else problem_names()
    if not names:
        print("warning: empty registry selection; nothing audited", file=sys.stderr)
        return 0
    h_stab = (0.1, 1.25, 10.0, 100.0)
    for pname in names:
        problem = get_problem(pname)
        for label, bundle in sorted(scheme_bundles(pname).items()):
            in_family = (bundle.rep is not None and bundle.config is not None
                         and bundle.spec is not None and bundle.config.weights_admissible)
            if in_family:
                conditions = check_H_conditions(problem, bundle.rep, bundle.config, bundle.spec)
                print(f"[conditions] {pname}/{label}: {'pass' if conditions.passed else 'fail'}")
                # non-derived denominators are expected to miss H3; only a
                # derived scheme failing its own contract is an audit failure
                if derived_from(bundle.spec) is not None and not conditions.passed:
                    failures.append(f"{pname}/{label}: derived scheme fails conditions")
            if bundle.positive:
                y0s = rng.uniform(0.0, 10.0, size=args.samples)
                pos = positivity_audit(bundle.step, y0s, (0.1, 1.0, 10.0, 100.0),
                                       n_steps=args.steps)
                print(f"[positivity] {pname}/{label}: {pos}")
                if not pos.passed:
                    failures.append(f"{pname}/{label}: positivity violated")
            if bundle.elementary_stable:
                kwargs = dict(step_map=bundle.step)
                if in_family:
                    kwargs.update(rep=bundle.rep, config=bundle.config, spec=bundle.spec)
                stab = elementary_stability_audit(problem, h_stab, scan_points=args.scan, **kwargs)
                print(f"[stability] {pname}/{label}: {'pass' if stab.passed else str(stab)}")
                if not stab.passed:
                    failures.append(f"{pname}/{label}: elementary stability violated")
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall audits passed")
    return 0


def cmd_errata(args) -> int:
    text = errata_report()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # flags listed in _required may come from either the command line or a
    # --config file, so they are declared optional here and validated in main()
    config_parent = argparse.ArgumentParser(add_help=False)
    config_parent.add_argument("--config", help="key=value file of flag values, parsed like flags")
    parser = argparse.ArgumentParser(prog="nsfd", description=__doc__, parents=[config_parent],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", parents=[config_parent], help="derive and validate a representation")
    p.add_argument("--problem", choices=problem_names())
    p.set_defaults(func=cmd_split, _required=("problem",))

    p = sub.add_parser("check", parents=[config_parent], help="H1-H4 condition report for a scheme")
    p.add_argument("--problem", choices=problem_names())
    p.add_argument("--scheme")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check, _required=("problem", "scheme"))

    p = sub.add_parser("run", parents=[config_parent], help="integrate a scalar problem, write CSV")
    p.add_argument("--problem", choices=problem_names())
    p.add_argument("--scheme")
    p.add_argument("--y0", type=float, default=0.5)
    p.add_argument("--h", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run, _required=("problem", "scheme", "h", "t_end", "out"))

    p = sub.add_parser("run-sys", parents=[config_parent], help="integrate a system, write CSV")
    p.add_argument("--model", choices=system_names())
    p.add_argument("--params", type=_params, help="comma-separated k=v model parameters")
    p.add_argument("--scheme", default="nsfd2", choices=("nsfd2", "plain"))
    p.add_argument("--y0", type=_state, help="comma-separated start state")
    p.add_argument("--h", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run_sys, _required=("model", "h", "t_end", "out"))

    p = sub.add_parser("rates", parents=[config_parent], help="error/rate table for one scheme")
    p.add_argument("--problem", choices=problem_names())
    p.add_argument("--scheme")
    p.add_argument("--h-list", type=_h_list, default="1e-1,1e-2,1e-3")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--y0", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rates, _required=("problem", "scheme"))

    p = sub.add_parser("table2", parents=[config_parent], help="benchmark error/rate table, all three schemes")
    p.add_argument("--out")
    p.add_argument("--full", action="store_true", help="include the h = 1e-5 row")
    p.set_defaults(func=cmd_table2, _required=("out",))

    p = sub.add_parser("figures", parents=[config_parent], help="large-step comparison trajectories")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_figures, _required=())

    p = sub.add_parser("audit", parents=[config_parent], help="conditions + positivity + stability for the registry")
    p.add_argument("--problem", choices=problem_names())
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--samples", type=_int_at_least(1), default=64, help="random starts per scheme")
    p.add_argument("--steps", type=_int_at_least(1), default=1000, help="steps per positivity run")
    p.add_argument("--scan", type=_int_at_least(2), default=20000, help="fixed-point scan resolution")
    p.set_defaults(func=cmd_audit, _required=())

    p = sub.add_parser("errata", parents=[config_parent], help="printed vs derived denominator report")
    p.add_argument("--out")
    p.set_defaults(func=cmd_errata, _required=())

    for p in sub.choices.values():
        p.set_defaults(_parser=p)  # usage errors found after parsing name the subcommand
    return parser


def main(argv=None) -> int:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    pre_args, rest = pre.parse_known_args(argv)
    parser = build_parser()
    if pre_args.config and rest:
        # config values go before the explicit flags, so the explicit ones win
        rest = rest[:1] + _config_tokens(parser, rest[0], pre_args.config) + rest[1:]
    args = parser.parse_args(rest)
    missing = [name for name in args._required if getattr(args, name) in (None, "")]
    if missing:
        args._parser.error(f"missing required value(s) for {args.command}: "
                           + ", ".join(f"--{m.replace('_', '-')}" for m in missing))
    _check_against_model(args._parser, args)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        args._parser.error(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
