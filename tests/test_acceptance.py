"""End-to-end acceptance checks.

Each test here exercises one headline capability of the package against
the embedded benchmark digits, an independent oracle, or an exact special
case, including the runtime budgets for the two expensive suites.
"""

import math
import time

import numpy as np
import pytest

from spikedho import bounds, model, perturb, series, solver
from spikedho.fixtures import TABLE1, TABLE2, matches_printed
from spikedho.specfun import HypergeometricSpec, gauss_2f1_unit, pfq, trigamma


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def A_from_gamma(gamma):
    return (gamma - 1.0) ** 2 - 0.25


# ---------------------------------------------------------------------------
# 1. Upper estimates and converged eigenvalues reproduce every stored
#    benchmark row, within 30 seconds.
# ---------------------------------------------------------------------------

def test_acceptance_1_benchmark_table_rows():
    start = time.monotonic()
    for lam, l, eu_ref, e_ref in TABLE1:
        params = model.make_params(float(l * (l + 1)), 4.0, lam)
        eu = bounds.variational_upper(params)
        e = solver.ground_state(params).ground_energy
        assert matches_printed(eu, eu_ref), (lam, l, eu, eu_ref)
        assert matches_printed(e, e_ref), (lam, l, e, e_ref)
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 2. The worked small-coupling example at gamma = 4.5, lam = 0.001.
# ---------------------------------------------------------------------------

def test_acceptance_2_small_coupling_example():
    params = model.make_params(12.0, 4.0, 0.001)
    assert matches_printed(perturb.energy_series(params, 1), "9.000114285")
    assert matches_printed(perturb.energy_series(params, 2), "9.000114279")
    report = bounds.bound_report(params)
    mu1 = report.per_order[1][2]
    assert abs(mu1 - 4.8346e-8) <= 1.000001e-12
    lo3, up3, _ = report.per_order[3]
    assert matches_printed(lo3, "9.000114231")
    assert matches_printed(up3, "9.000114327")


# ---------------------------------------------------------------------------
# 3. The symmetric-bounds table: every reproducible entry, plus the
#    optimal-pair selection.  One stored entry is internally inconsistent
#    (see fixtures.TABLE2_INCONSISTENT and the strict xfail in
#    test_bounds); the remaining 23 must match.
# ---------------------------------------------------------------------------

def test_acceptance_3_symmetric_bounds_table():
    checked = 0
    for lam, refs in TABLE2.items():
        params = model.make_params(12.0, 4.0, lam)
        report = bounds.bound_report(params)
        for k, p in enumerate((1, 2, 3)):
            lo, up, _ = report.per_order[p]
            if (lam, p) != (0.001, 1):
                assert matches_printed(lo, refs[2 * k]), (lam, p, "lower")
                checked += 1
            assert matches_printed(up, refs[2 * k + 1]), (lam, p, "upper")
            checked += 1
        # the optimal pair is always lower(p=1) with upper(p=2)
        assert report.optimal[0] == report.per_order[1][0]
        assert report.optimal[1] == report.per_order[2][1]
        assert report.optimal_valid
    assert checked == 23


# ---------------------------------------------------------------------------
# 4. Exact closure of the alpha = 2 family: the perturbation merely shifts
#    the coupling of the x^-2 term, so every quantity has an exact value.
# ---------------------------------------------------------------------------

def test_acceptance_4_alpha2_exact_closure():
    for A in (0.0, 1.0, 12.0):
        g = model.gamma_from_A(A)
        b = g - 1.0
        assert rel_err(perturb.epsilon1(2.0, g), 1.0 / b) < 1e-12
        assert rel_err(perturb.epsilon2_closed(2, g), -1.0 / (4.0 * b ** 3)) < 1e-12
        assert rel_err(perturb.epsilon3_closed(2, g), 1.0 / (8.0 * b ** 5)) < 1e-12
        for lam in (0.001, 0.1, 1.0):
            params = model.make_params(A, 2.0, lam)
            exact = 2.0 + math.sqrt(1.0 + 4.0 * (A + lam))
            # slow basis convergence at small gamma: relax the certificate
            e = solver.ground_state(params, tol=2e-9).ground_energy
            assert abs(e - exact) < 1e-9
            # the truncated series is the Taylor polynomial of the exact
            # energy; its error is bounded by the next Taylor term
            e3 = perturb.energy_series(params, 3)
            next_term = (5.0 / 64.0) * lam ** 4 / b ** 7
            assert abs(e3 - exact) <= 1.01 * next_term + 1e-13


# ---------------------------------------------------------------------------
# 5. The double-sum closed forms against 400-term truncations over the
#    whole gamma grid and against quadrature, within 60 seconds.
# ---------------------------------------------------------------------------

def test_acceptance_5_double_sum_suite():
    start = time.monotonic()
    grids = {2: (2.0, 3.0, 4.0, 6.0, 10.0), 4: (4.25, 4.5, 5.0, 6.0, 8.0),
             6: (7.5, 8.0, 9.5, 12.0, 20.0)}
    for alpha, gammas in grids.items():
        for g in gammas:
            closed = series.double_sum_closed(alpha, g)
            tr = series.double_sum_truncated(alpha, g, 400)
            assert abs(closed - tr.value) <= tr.tail_estimate + 1e-12
    x, w = model.half_line_nodes()
    for alpha, g in ((2, 3.0), (4, 4.5), (6, 8.0)):
        phi = model.phi1_eval(x, alpha, g)
        quad = float(np.dot(w, x ** -float(alpha) * phi * phi))
        assert rel_err(quad, series.double_sum_closed(alpha, g)) < 1e-7
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. Hypergeometric invariants: Gauss summation on 1000 random draws, the
#    parameter-shift reduction on 200 draws, the closed 4F3 form, the
#    trigamma value at 1/2, and the removable-singularity limit.
# ---------------------------------------------------------------------------

def test_acceptance_6_hypergeometric_invariants():
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        a = float(rng.uniform(0.05, 2.5))
        b = float(rng.uniform(0.05, 2.5))
        c = a + b + float(rng.uniform(0.1, 5.0))
        assert rel_err(pfq(HypergeometricSpec((a, b), (c,), 1.0)),
                       gauss_2f1_unit(a, b, c)) < 1e-10
    from spikedho.specfun import shifted_4f3
    for k in range(200):
        a = float(rng.uniform(0.2, 1.8))
        b = float(rng.uniform(0.2, 1.8))
        c = float(rng.uniform(0.5, 3.0))
        d = float(rng.uniform(0.5, 3.0))
        z = 0.5 if k % 2 == 0 else 1.0
        e = (a + b + 2.0 + float(rng.uniform(0.3, 3.0)) if z == 1.0
             else float(rng.uniform(1.0, 6.0)))
        direct = pfq(HypergeometricSpec((a, b, c + 1.0, d + 1.0), (e, c, d), z))
        assert rel_err(shifted_4f3(a, b, c, d, e, z), direct) < 1e-10
    for g in (6.0, 8.0, 12.0):
        closed = (g / 18.0) * ((g - 2.0) * (g - 1.0) / ((g - 5.0) * (g - 4.0))
                               + 2.0 * (g - 1.0) / (g - 4.0)
                               + (40.0 - 57.0 * g + 24.0 * g * g - 3.0 * g ** 3)
                               / ((g - 3.0) * (g - 2.0) * (g - 1.0)))
        direct = pfq(HypergeometricSpec((1.0, 1.0, 4.0, 4.0),
                                        (2.0, 2.0, g + 1.0), 1.0))
        assert rel_err(direct, closed) < 1e-10
    assert rel_err(trigamma(0.5), math.pi ** 2 / 2.0) < 1e-13
    assert abs(series.resummation_limit()
               - (math.pi ** 2 / 16.0 - 0.25)) < 1e-6


# ---------------------------------------------------------------------------
# 7. Closed second/third-order coefficients against the sum-over-states
#    oracles for alpha in {4, 6}, four gamma values each, and the
#    discrimination between the two published alpha=6 transcriptions.
# ---------------------------------------------------------------------------

def test_acceptance_7_closed_coefficients_vs_oracles():
    cases = {4: (4.25, 4.5, 6.0, 8.0), 6: (7.5, 8.0, 9.5, 12.0)}
    for alpha, gammas in cases.items():
        for g in gammas:
            s2 = perturb.epsilon2_series(float(alpha), g, 4000)
            assert abs(perturb.epsilon2_closed(alpha, g) - s2.value) \
                <= s2.tail_estimate + 1e-12
            s3 = perturb.epsilon3_series(float(alpha), g, 400)
            assert abs(perturb.epsilon3_closed(alpha, g) - s3.value) \
                <= s3.tail_estimate + 1e-12
    # the competing cubic (40, -57, 8, -1) in the alpha=6 second-order
    # bracket is rejected by the same oracle (at gamma = 9.5; the two
    # variants happen to coincide at gamma = 8)
    g = 9.5
    e1 = 1.0 / ((g - 1.0) * (g - 2.0) * (g - 3.0))
    variant = ((g - 2.0) * (g - 1.0) / ((g - 5.0) * (g - 4.0))
               + 2.0 * (g - 1.0) / (g - 4.0)
               + (40.0 - 57.0 * g + 8.0 * g * g - g ** 3)
               / ((g - 3.0) * (g - 2.0) * (g - 1.0)))
    rejected = -(36.0 / (16.0 * g)) * e1 * e1 * (g / 18.0) * variant
    s2 = perturb.epsilon2_series(6.0, g, 4000)
    assert abs(rejected - s2.value) > 100.0 * s2.tail_estimate


# ---------------------------------------------------------------------------
# 8. Bracketing and ordering: the eigenvalue sits between the first-order
#    lower bound and the smaller of the second-order upper bound and the
#    variational estimate, and the truncated energies interleave.
# ---------------------------------------------------------------------------

def test_acceptance_8_bracketing_and_ordering():
    co = perturb.coefficients(model.make_params(12.0, 4.0, 0.0))
    lam_max = abs(co.eps2) / co.eps3
    for lam in (0.001, 0.1, 1.0):
        params = model.make_params(12.0, 4.0, lam)
        e = solver.ground_state(params).ground_energy
        report = bounds.bound_report(params)
        lower = report.per_order[1][0]
        upper = min(report.per_order[2][1], report.variational_upper)
        assert lower <= e <= upper, (lam, lower, e, upper)
        if lam < lam_max:
            e1 = perturb.energy_series(params, 1)
            e2 = perturb.energy_series(params, 2)
            e3 = perturb.energy_series(params, 3)
            assert e1 > e3 > e2
