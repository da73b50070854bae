"""Command-line front end.

Subcommands expose every computation as a batch operation with
machine-readable output (csv, json or markdown):

    table1   upper estimate and diagonalization vs the embedded fixture
    table2   symmetric bounds per truncation order vs the embedded fixture
    sums     series-identity checks (double sums, resummation, trigamma)
    solve    ground-state eigenvalue by basis diagonalization
    coeffs   perturbation coefficients for one parameter set
    bounds   bound report per lambda

Exit codes: 0 all checks pass, 1 numeric disagreement, 2 usage or domain
error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from . import bounds, fixtures, model, perturb, series, solver
from .specfun import ConvergenceError, DomainError

DIGITS = 12  # significant digits of floats in csv and markdown output


@dataclass
class RunConfig:
    command: str
    A: Optional[float] = None
    l: Optional[int] = None
    alpha: float = 4.0
    lambdas: List[float] = field(default_factory=list)
    basis_cap: int = 2048
    tol: float = 1e-11
    fmt: str = "csv"
    out: Optional[str] = None

    def resolved_A(self) -> float:
        if self.l is not None:
            return float(self.l * (self.l + 1))
        return float(self.A if self.A is not None else 12.0)


def _fmt_num(x):
    if isinstance(x, float):
        return "%.*g" % (DIGITS, x)
    return str(x)


def _emit(rows, columns, cfg: RunConfig, summary: dict) -> str:
    buf = io.StringIO()
    if cfg.fmt == "csv":
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(_fmt_num(row.get(c, "")) for c in columns)
                      + "\n")
    elif cfg.fmt == "json":
        doc = {
            "command": cfg.command,
            "config": {
                "A": cfg.resolved_A(), "alpha": cfg.alpha,
                "lambdas": cfg.lambdas,
                "basis_cap": cfg.basis_cap, "tol": cfg.tol,
            },
            "rows": rows,
            "summary": summary,
        }
        buf.write(json.dumps(doc, indent=2, sort_keys=False,
                             default=lambda o: o.item()))
        buf.write("\n")
    else:  # markdown
        buf.write("| " + " | ".join(columns) + " |\n")
        buf.write("|" + "|".join("---" for _ in columns) + "|\n")
        for row in rows:
            buf.write("| " + " | ".join(_fmt_num(row.get(c, ""))
                                        for c in columns) + " |\n")
    return buf.getvalue()


def _write(text: str, cfg: RunConfig):
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_table1(cfg: RunConfig):
    rows = []
    failures = 0
    for lam, l, eu_ref, e_ref in fixtures.TABLE1:
        row = {"lambda": lam, "l": l, "status": "ok"}
        try:
            params = model.make_params(float(l * (l + 1)), cfg.alpha, lam)
            eu = bounds.variational_upper(params)
            res = solver.ground_state(params, tol=cfg.tol,
                                      basis_cap=cfg.basis_cap)
            e = res.ground_energy
            row.update({
                "E_upper": eu, "E": e,
                "dev_upper": abs(eu - float(eu_ref)),
                "dev_E": abs(e - float(e_ref)),
            })
            if not (fixtures.matches_printed(eu, eu_ref)
                    and fixtures.matches_printed(e, e_ref)):
                row["status"] = "mismatch"
                failures += 1
        except (DomainError, ConvergenceError) as exc:
            row["status"] = "error: %s" % exc
            failures += 1
        rows.append(row)
    cols = ["lambda", "l", "E_upper", "E", "dev_upper", "dev_E", "status"]
    return rows, cols, failures


def cmd_table2(cfg: RunConfig):
    rows = []
    failures = 0
    for lam, refs in fixtures.TABLE2.items():
        row = {"lambda": lam, "status": "ok"}
        try:
            params = model.make_params(cfg.resolved_A(), cfg.alpha, lam)
            report = bounds.bound_report(params)
            notes = []
            for k, p in enumerate((1, 2, 3)):
                lo, up, _mu = report.per_order[p]
                row["lower_p%d" % p] = lo
                row["upper_p%d" % p] = up
                for side, value, ref in (("lower", lo, refs[2 * k]),
                                         ("upper", up, refs[2 * k + 1])):
                    if not fixtures.matches_printed(value, ref):
                        if (lam, p, side) in fixtures.TABLE2_INCONSISTENT:
                            notes.append("fixture_inconsistent_p%d_%s"
                                         % (p, side))
                        else:
                            row["status"] = "mismatch"
            row["optimal_lower"] = report.optimal[0]
            row["optimal_upper"] = report.optimal[1]
            row["optimal_valid"] = report.optimal_valid
            if notes:
                row["status"] = ("ok;" if row["status"] == "ok" else
                                 row["status"] + ";") + ";".join(notes)
            if row["status"].startswith("mismatch"):
                failures += 1
        except (DomainError, ConvergenceError) as exc:
            row["status"] = "error: %s" % exc
            failures += 1
        rows.append(row)
    cols = (["lambda"]
            + ["%s_p%d" % (s, p) for p in (1, 2, 3) for s in ("lower", "upper")]
            + ["optimal_lower", "optimal_upper", "optimal_valid", "status"])
    return rows, cols, failures


_SUM_GRIDS = {
    2: (2.0, 3.0, 4.0, 6.0, 10.0),
    4: (4.25, 4.5, 5.0, 6.0, 8.0),
    6: (7.5, 8.0, 9.5, 12.0, 20.0),
}


def cmd_sums(cfg: RunConfig):
    rows = []
    failures = 0

    def add(name, alpha, gamma, check):
        nonlocal failures
        ok = check.agrees
        if not ok:
            failures += 1
        rows.append({
            "identity": name, "alpha": alpha, "gamma": gamma,
            "closed": float(check.closed_value),
            "truncated": float(check.truncated_value),
            "tail": float(check.tail_estimate), "agrees": ok, "status": "ok",
        })

    for alpha, gammas in _SUM_GRIDS.items():
        for g in gammas:
            try:
                closed = series.double_sum_closed(alpha, g)
                tr = series.double_sum_truncated(alpha, g, 400)
                add("double_sum", alpha, g,
                    series.SeriesCheck(closed, tr.value, tr.terms, tr.tail_estimate))
            except DomainError as exc:
                rows.append({"identity": "double_sum", "alpha": alpha,
                             "gamma": g, "status": "skipped: %s" % exc})
    for a in (1.0, 1.5, 2.4):
        add("resummation", a, 1.5, series.resummation_check(a))
    limit = series.resummation_limit()
    target = 0.3668502750680849  # pi^2/16 - 1/4
    ok = abs(limit - target) < 1e-6
    if not ok:
        failures += 1
    rows.append({"identity": "resummation_limit", "alpha": 2.0, "gamma": 1.5,
                 "closed": target, "truncated": limit,
                 "tail": 1e-6, "agrees": ok, "status": "ok"})
    for g in (1.5, 2.0, 5.0):
        add("trigamma_series", 0.0, g, series.trigamma_series_identity(g))
    cols = ["identity", "alpha", "gamma", "closed", "truncated", "tail",
            "agrees", "status"]
    return rows, cols, failures


def cmd_solve(cfg: RunConfig):
    rows = []
    for lam in cfg.lambdas or [0.0]:
        params = model.make_params(cfg.resolved_A(), cfg.alpha, lam)
        res = solver.ground_state(params, tol=cfg.tol, basis_cap=cfg.basis_cap)
        rows.append({
            "lambda": lam, "gamma": params.gamma,
            "energy": res.ground_energy, "basis_size": res.basis_size,
            "delta": res.delta_last_refinement,
        })
    cols = ["lambda", "gamma", "energy", "basis_size", "delta"]
    return rows, cols, 0


def cmd_coeffs(cfg: RunConfig):
    params = model.make_params(cfg.resolved_A(), cfg.alpha, 0.0)
    a, g = params.alpha, params.gamma
    co = perturb.coefficients(params)
    rows = [{
        "A": cfg.resolved_A(), "alpha": cfg.alpha, "gamma": g,
        "E0": co.E0, "eps1": co.eps1,
        "eps2": co.eps2 if co.eps2 is not None else "",
        "eps3": co.eps3 if co.eps3 is not None else "",
        "valid_order": co.valid_order,
        "phi1_norm_sq": perturb.phi1_norm_sq(a, g) if a < g + 2.0 else "",
    }]
    cols = ["A", "alpha", "gamma", "E0", "eps1", "eps2", "eps3",
            "valid_order", "phi1_norm_sq"]
    return rows, cols, 0


def cmd_bounds(cfg: RunConfig):
    rows = []
    for lam in cfg.lambdas or [0.001]:
        params = model.make_params(cfg.resolved_A(), cfg.alpha, lam)
        report = bounds.bound_report(params)
        row = {"lambda": lam}
        for p in (1, 2, 3):
            lo, up, mu = report.per_order[p]
            row["lower_p%d" % p] = lo
            row["upper_p%d" % p] = up
            row["norm_p%d" % p] = mu
        row["variational_upper"] = report.variational_upper
        row["optimal_lower"] = report.optimal[0]
        row["optimal_upper"] = report.optimal[1]
        row["optimal_valid"] = report.optimal_valid
        rows.append(row)
    cols = (["lambda"]
            + ["%s_p%d" % (s, p) for p in (1, 2, 3)
               for s in ("lower", "upper", "norm")]
            + ["variational_upper", "optimal_lower", "optimal_upper",
               "optimal_valid"])
    return rows, cols, 0


_COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "sums": cmd_sums,
    "solve": cmd_solve,
    "coeffs": cmd_coeffs,
    "bounds": cmd_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikedho",
        description="Perturbation expansions and eigenvalue bounds for "
                    "generalized spiked harmonic oscillators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--A", type=float, default=None,
                           help="coupling of the 1/x^2 term")
        group.add_argument("--l", type=int, default=None,
                           help="angular momentum; implies A = l(l+1)")
        p.add_argument("--alpha", type=float, default=4.0)
        p.add_argument("--lambda", dest="lam", type=float, action="append",
                       default=None, help="perturbation coupling (repeatable)")
        p.add_argument("--basis-cap", type=int, default=2048)
        p.add_argument("--tol", type=float, default=1e-11)
        p.add_argument("--format", dest="fmt", default="csv",
                       choices=("csv", "json", "md"))
        p.add_argument("--out", default=None)
    return parser


def config_from_args(args) -> RunConfig:
    lambdas = args.lam if args.lam is not None else []
    if not all(map(math.isfinite, lambdas + [args.alpha, args.A or 0.0])):
        raise DomainError("A, alpha and lambda must be finite")
    if any(lam < 0.0 for lam in lambdas):
        raise DomainError("all lambda values must be >= 0")
    solver.check_options(args.tol, args.basis_cap)
    return RunConfig(command=args.command, A=args.A, l=args.l,
                     alpha=args.alpha, lambdas=lambdas,
                     basis_cap=args.basis_cap, tol=args.tol, fmt=args.fmt,
                     out=args.out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
        rows, cols, failures = _COMMANDS[cfg.command](cfg)
        summary = {"rows": len(rows), "failures": failures}
        _write(_emit(rows, cols, cfg, summary), cfg)
        return 1 if failures else 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, ConvergenceError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
