"""Seeded workloads of the spikedho benchmark and the check on every result.

A workload is a list of queries.  A query is a plain tuple, so that a seed
fully determines the list and tests can compare lists for equality.  Each
query is run through spikedho's public functions, always looked up as
module attributes at call time so that the tracer can wrap them.

Every query ends in one of three verdicts:

* ``ok``     the result passed its check;
* ``raised`` the library raised DomainError or ConvergenceError;
* ``wrong``  the library returned a result that failed its check.

Both ``raised`` and ``wrong`` count as failed; only ``wrong`` makes a run
incorrect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from spikedho import bounds, fixtures, model, perturb, series, solver
from spikedho.specfun import ConvergenceError, DomainError

OK, RAISED, WRONG = "ok", "raised", "wrong"

# Settings of the ``spikedho table1|table2|sums`` subcommands (their
# defaults), so that the fixtures workload issues exactly the CLI's calls.
CLI_ALPHA = 4.0
CLI_A = 12.0
CLI_TOL = 1e-11
CLI_BASIS_CAP = 2048
SUM_GRIDS = {
    2: (2.0, 3.0, 4.0, 6.0, 10.0),
    4: (4.25, 4.5, 5.0, 6.0, 8.0),
    6: (7.5, 8.0, 9.5, 12.0, 20.0),
}
DOUBLE_SUM_TERMS = 400
RESUMMATION_ALPHAS = (1.0, 1.5, 2.4)
RESUMMATION_LIMIT = 0.3668502750680849  # pi^2/16 - 1/4
TRIGAMMA_GAMMAS = (1.5, 2.0, 5.0)

# general_alpha: rigorous bracket checked with the solver's own tolerance.
GENERAL_POINTS = 8
GENERAL_TOL = 1e-9
GENERAL_BASIS_CAP = 64

# bounds_sweep: l ranges where order-3 coefficients exist (gamma = l + 3/2
# above 1, 4 and 7).  Every (alpha, l) group is in every seed's query set,
# so the cost of a pass does not depend on the seed.  A report costs about
# 18, 23 and 32 ms at alpha = 2, 4 and 6, and a few ms in the two groups
# that raise (alpha = 4, l = 4; alpha = 6, l = 8).  Five alpha = 2 groups
# put as many queries below the alpha = 4 groups as above them, so the
# median query lies in the middle of that cluster instead of at its edge,
# where a few queries moving between clusters would shift it by 25%.
SWEEP_L = {2: range(1, 6), 4: range(3, 11), 6: range(6, 14)}
SWEEP_LAMBDAS = 12


# ---------------------------------------------------------------------------
# fixtures: the rows of `spikedho table1`, `table2` and `sums`
# ---------------------------------------------------------------------------

def fixture_queries_in_cli_order() -> List[tuple]:
    """Every row the three fixture subcommands print, in their order."""
    out = [("table1", lam, l, eu, e) for lam, l, eu, e in fixtures.TABLE1]
    out += [("table2", lam) for lam in fixtures.TABLE2]
    out += [("double_sum", a, g) for a, gs in SUM_GRIDS.items() for g in gs]
    out += [("resummation", a) for a in RESUMMATION_ALPHAS]
    out += [("resummation_limit",)]
    out += [("trigamma_series", g) for g in TRIGAMMA_GAMMAS]
    return out


def table1_row(lam, l, eu_ref, e_ref) -> dict:
    """One row of `spikedho table1`, computed as the CLI computes it."""
    row = {"lambda": lam, "l": l, "status": "ok"}
    try:
        params = model.make_params(float(l * (l + 1)), CLI_ALPHA, lam)
        eu = bounds.variational_upper(params)
        e = solver.ground_state(params, tol=CLI_TOL,
                                basis_cap=CLI_BASIS_CAP).ground_energy
        row.update({"E_upper": eu, "E": e,
                    "dev_upper": abs(eu - float(eu_ref)),
                    "dev_E": abs(e - float(e_ref))})
        if not (fixtures.matches_printed(eu, eu_ref)
                and fixtures.matches_printed(e, e_ref)):
            row["status"] = "mismatch"
    except (DomainError, ConvergenceError) as exc:
        row["status"] = "error: %s" % exc
    return row


def table2_row(lam) -> dict:
    """One row of `spikedho table2`, computed as the CLI computes it."""
    refs = fixtures.TABLE2[lam]
    row = {"lambda": lam, "status": "ok"}
    try:
        report = bounds.bound_report(model.make_params(CLI_A, CLI_ALPHA, lam))
        notes = []
        for k, p in enumerate((1, 2, 3)):
            lo, up, _mu = report.per_order[p]
            row["lower_p%d" % p] = lo
            row["upper_p%d" % p] = up
            for side, value, ref in (("lower", lo, refs[2 * k]),
                                     ("upper", up, refs[2 * k + 1])):
                if not fixtures.matches_printed(value, ref):
                    if (lam, p, side) in fixtures.TABLE2_INCONSISTENT:
                        notes.append("fixture_inconsistent_p%d_%s" % (p, side))
                    else:
                        row["status"] = "mismatch"
        row["optimal_lower"] = report.optimal[0]
        row["optimal_upper"] = report.optimal[1]
        row["optimal_valid"] = report.optimal_valid
        if notes:
            row["status"] += ";" + ";".join(notes)
    except (DomainError, ConvergenceError) as exc:
        row["status"] = "error: %s" % exc
    return row


def _sums_row(name, alpha, gamma, check: series.SeriesCheck) -> dict:
    return {"identity": name, "alpha": alpha, "gamma": gamma,
            "closed": float(check.closed_value),
            "truncated": float(check.truncated_value),
            "tail": float(check.tail_estimate), "agrees": check.agrees,
            "status": "ok"}


def sums_row(kind, *args) -> dict:
    """One row of `spikedho sums`, computed as the CLI computes it."""
    if kind == "double_sum":
        alpha, g = args
        try:
            closed = series.double_sum_closed(alpha, g)
            tr = series.double_sum_truncated(alpha, g, DOUBLE_SUM_TERMS)
        except DomainError as exc:
            return {"identity": kind, "alpha": alpha, "gamma": g,
                    "status": "skipped: %s" % exc}
        return _sums_row(kind, alpha, g, series.SeriesCheck(
            closed, tr.value, tr.terms, tr.tail_estimate))
    if kind == "resummation":
        (alpha,) = args
        return _sums_row(kind, alpha, 1.5, series.resummation_check(alpha))
    if kind == "resummation_limit":
        limit = series.resummation_limit()
        return {"identity": kind, "alpha": 2.0, "gamma": 1.5,
                "closed": RESUMMATION_LIMIT, "truncated": limit, "tail": 1e-6,
                "agrees": abs(limit - RESUMMATION_LIMIT) < 1e-6,
                "status": "ok"}
    (g,) = args
    return _sums_row(kind, 0.0, g, series.trigamma_series_identity(g))


def fixture_row(query) -> dict:
    kind = query[0]
    if kind == "table1":
        return table1_row(*query[1:])
    if kind == "table2":
        return table2_row(*query[1:])
    return sums_row(*query)


def row_verdict(row: dict) -> Tuple[str, str]:
    """The CLI's own pass/fail rule for a row, as a verdict."""
    status = row["status"]
    if status.startswith(("error", "skipped")):
        return RAISED, status
    if status.startswith("mismatch") or row.get("agrees") is False:
        return WRONG, status
    return OK, ""


def run_fixture(query) -> Tuple[str, str]:
    return row_verdict(fixture_row(query))


def fixtures_queries(seed: int) -> List[tuple]:
    """All fixture rows; the seed only permutes their order."""
    queries = fixture_queries_in_cli_order()
    random.Random(seed).shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# general_alpha: hypergeometric coefficients and the general-alpha solver
# ---------------------------------------------------------------------------

def _eps1(alpha: float, gamma: float) -> float:
    """First-order coefficient Gamma(gamma - alpha/2) / Gamma(gamma) from the
    standard library, independent of spikedho's gamma kernel."""
    return math.exp(math.lgamma(gamma - alpha / 2.0) - math.lgamma(gamma))


def general_alpha_queries(seed: int) -> List[tuple]:
    """GENERAL_POINTS points, each coordinate stratified: every l in 1..4
    occurs equally often, alpha is uniform within its own one of
    GENERAL_POINTS equal bins of (1.1, 3.9), log10 lambda likewise within
    [-3, -2], and the three are paired at random.  Each coordinate keeps
    the distribution of an unstratified draw, but the mix of l and alpha,
    on which a query's cost depends, is the same for every seed."""
    rng = random.Random(seed)
    n = GENERAL_POINTS
    ls = [1 + k % 4 for k in range(n)]
    alphas = [1.1 + 2.8 * (k + rng.random()) / n for k in range(n)]
    lams = [10.0 ** (-3.0 + (k + rng.random()) / n) for k in range(n)]
    for column in (ls, alphas, lams):
        rng.shuffle(column)
    return [("general_alpha", l, alpha, lam)
            for l, alpha, lam in zip(ls, alphas, lams)]


def run_general_alpha(query) -> Tuple[str, str]:
    """2 gamma <= E <= 2 gamma + lam eps1: V >= 0 gives the lower side, the
    Rayleigh quotient of psi0 the upper side.  Both sides are widened by
    the solver's tolerance, and the library's eps1 must match _eps1."""
    _, l, alpha, lam = query
    try:
        params = model.make_params(float(l * (l + 1)), alpha, lam)
        co = perturb.coefficients(params)
        e_p = perturb.energy_series(params, co.valid_order)
        e = solver.ground_state(params, tol=GENERAL_TOL,
                                basis_cap=GENERAL_BASIS_CAP).ground_energy
    except (DomainError, ConvergenceError) as exc:
        return RAISED, "%s: %s" % (type(exc).__name__, exc)
    eps1 = _eps1(alpha, params.gamma)
    lower, upper = 2.0 * params.gamma, 2.0 * params.gamma + lam * eps1
    if not (math.isfinite(e_p) and co.E0 == lower
            and math.isclose(co.eps1, eps1, rel_tol=1e-10)
            and lower - GENERAL_TOL <= e <= upper + GENERAL_TOL):
        return WRONG, "E=%r outside [%r, %r] or E_p=%r" % (e, lower, upper, e_p)
    return OK, ""


# ---------------------------------------------------------------------------
# bounds_sweep: bound reports over lambda for closed-form alphas
# ---------------------------------------------------------------------------

def bounds_sweep_queries(seed: int) -> List[tuple]:
    """SWEEP_LAMBDAS log-uniform lambdas in [1e-4, 1] for every (alpha, l)
    group, all queries shuffled together."""
    rng = random.Random(seed)
    out = [("bounds_sweep", alpha, l, 10.0 ** rng.uniform(-4.0, 0.0))
           for alpha, ls in SWEEP_L.items() for l in ls
           for _ in range(SWEEP_LAMBDAS)]
    rng.shuffle(out)
    return out


def run_bounds_sweep(query) -> Tuple[str, str]:
    """Every lower bound <= 2 gamma + lam eps1, every upper bound >= 2 gamma,
    every value finite."""
    _, alpha, l, lam = query
    try:
        params = model.make_params(float(l * (l + 1)), float(alpha), lam)
        report = bounds.bound_report(params)
    except (DomainError, ConvergenceError) as exc:
        return RAISED, "%s: %s" % (type(exc).__name__, exc)
    e0 = 2.0 * params.gamma
    rayleigh = e0 + lam * _eps1(params.alpha, params.gamma)
    lowers = [lo for lo, _, _ in report.per_order.values()] + [report.optimal[0]]
    uppers = [up for _, up, _ in report.per_order.values()] + [report.optimal[1]]
    norms = [mu for _, _, mu in report.per_order.values()]
    values = lowers + uppers + norms + [report.variational_upper]
    if not (all(math.isfinite(v) for v in values)
            and all(lo <= rayleigh for lo in lowers)
            and all(up >= e0 for up in uppers)):
        return WRONG, "bounds %r violate [%r, %r]" % (report.per_order, e0, rayleigh)
    return OK, ""


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    queries: Callable[[int], List[tuple]]
    run: Callable[[tuple], Tuple[str, str]]
    # Fixed tail percentile, and the fewest queries a run makes, so that
    # at least ten samples lie beyond it (general_alpha: see below).
    tail_pct: float
    min_queries: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fixtures", fixtures_queries, run_fixture, 90.0, 100),
    # Four passes give 32 samples, so ten beyond the tail would mean p66,
    # which falls between the host's two speeds and spread 0.20 across
    # seeds; p90, the fourth-slowest sample, follows the slower speed.
    Workload("general_alpha", general_alpha_queries, run_general_alpha,
             90.0, 30),
    Workload("bounds_sweep", bounds_sweep_queries, run_bounds_sweep,
             95.0, 200),
)}


def warm_up() -> None:
    """First-call lazy set-up before the first timed query: fills the
    Gauss-Legendre node cache of unit-argument pFq and loads the LAPACK
    eigensolver, touching each layer once at a tiny size."""
    params = model.make_params(12.0, 4.0, 1e-3)
    bounds.bound_report(params)
    solver.ground_state(params, tol=1e-3, basis_cap=64)
    model.matrix_element_table(3.0, 4.5, 4)
    series.trigamma_series_identity(2.0, 100)
