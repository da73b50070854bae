"""Residual-norm bound tests: the residual integral and its quadrature
cross-check, one constants pass per bound report, the per-order symmetric
bounds against the embedded fixture digits, and bracketing of the
eigensolver."""

import math

import numpy as np
import pytest

from spikedho import bounds, model, perturb, solver
from spikedho.fixtures import TABLE2, matches_printed
from spikedho.specfun import ConvergenceError, DomainError


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def A_from_gamma(gamma):
    return (gamma - 1.0) ** 2 - 0.25


def test_variational_upper_at_zero_coupling():
    params = model.make_params(12.0, 4.0, 0.0)
    assert bounds.variational_upper(params) == 9.0


def test_variational_upper_matches_bare_series():
    params = model.make_params(12.0, 4.0, 1.0)
    assert bounds.variational_upper(params) == perturb.energy_series(params, 3)


def test_variational_upper_normalized_is_larger():
    # eps2 lam^2 + eps3 lam^3 < 0 here, so damping it raises the estimate
    params = model.make_params(12.0, 4.0, 1.0)
    bare = bounds.variational_upper(params)
    norm = bounds.variational_upper(params, normalized=True)
    assert norm > bare


def test_residual_integral_positive():
    # non-integer gamma for alpha = 6: the continuation has poles at the
    # nonpositive integers reached when gamma - 6 - k is integral
    for alpha, g in ((2, 3.0), (4, 4.5), (6, 8.5)):
        assert bounds.residual_integral(alpha, g) > 0.0


def test_residual_integral_vs_literal_quadrature():
    # for gamma > 2 alpha - 2 the defining integral converges and must
    # agree with the continued form
    cases = ((2, 3.0), (4, 8.0), (6, 12.0))
    x, w = model.half_line_nodes()
    for alpha, g in cases:
        e1 = perturb.epsilon1(float(alpha), g)
        phi = model.phi1_eval(x, alpha, g)
        quad = float(np.dot(w, (x ** -float(alpha) - e1) ** 2 * phi * phi))
        closed = bounds.residual_integral(alpha, g)
        assert rel_err(quad, closed) < 1e-7


def test_residual_integral_domain():
    with pytest.raises(DomainError):
        bounds.residual_integral(4, 3.5)
    with pytest.raises(DomainError):
        bounds.residual_integral(3, 8.0)
    # (phi1, x^(-2 alpha) phi1) has poles at whole gamma <= 2 alpha - 2
    for alpha, gamma in ((6, 8.0), (4, 6.0)):
        with pytest.raises(DomainError):
            bounds.residual_integral(alpha, gamma)


# ---------------------------------------------------------------------------
# The moments of phi1 against a 40-digit termwise evaluation: Gamma, psi and
# psi' taken directly at s = gamma - beta/2 - k - k', negative s included.
# ---------------------------------------------------------------------------

def _mp_overlap(mp, alpha, gamma, beta):
    g = mp.mpf(gamma)
    h = alpha // 2
    C = mp.gamma(g - h) / (2 * mp.sqrt(2) * mp.gamma(g) ** mp.mpf(1.5))
    psg = mp.digamma(g)
    p = [[-psg], [1 - psg, 1 - g], [mp.mpf(1.5) - psg, 1 - g,
                                    -(g - 1) * (g - 2) / 2]][h - 1]
    q = [1] + [0] * (h - 1)
    total = 0
    for k in range(h):
        for kp in range(h):
            s = g - mp.mpf(beta) / 2 - k - kp
            G, d = mp.gamma(s), mp.digamma(s)
            total += G * (p[k] * p[kp] + (p[k] * q[kp] + q[k] * p[kp]) * d
                          + q[k] * q[kp] * (d * d + mp.psi(1, s))) / 2
    return C * C * total


# phi1 needs gamma > alpha/2; points with gamma <= beta/2 + alpha - 2, such
# as (4, 4.5, beta = 8), test the continuation
_MOMENT_POINTS = [(a, g) for a in (2, 4, 6) for g in (3.0, 4.5, 8.5, 12.25, 40.5)
                  if g > a / 2]


@pytest.mark.parametrize("alpha,gamma", _MOMENT_POINTS)
def test_phi1_weighted_overlap_vs_mpmath(alpha, gamma):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for beta in (0, alpha, 2 * alpha):
            if gamma.is_integer() and gamma <= beta / 2 + alpha - 2:
                continue  # a pole
            ref = _mp_overlap(mpmath, alpha, gamma, beta)
            val = model.phi1_weighted_overlap(alpha, gamma, float(beta))
            assert float(abs(val - ref) / abs(ref)) <= 1e-13, beta


@pytest.mark.parametrize("alpha,gamma", [(a, g) for a, g in _MOMENT_POINTS
                                         if g > a])
def test_residual_integral_vs_mpmath(alpha, gamma):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        e1 = mpmath.gamma(g - alpha // 2) / mpmath.gamma(g)
        ref = (_mp_overlap(mpmath, alpha, gamma, 2 * alpha)
               - 2 * e1 * _mp_overlap(mpmath, alpha, gamma, alpha)
               + e1 * e1 * _mp_overlap(mpmath, alpha, gamma, 0))
        val = bounds.residual_integral(alpha, gamma)
        assert float(abs(val - ref) / abs(ref)) <= 1e-13


@pytest.mark.parametrize("beta", [3.0, 1.0, -2.0, math.inf, math.nan])
def test_phi1_weighted_overlap_needs_even_whole_beta(beta):
    with pytest.raises(DomainError):
        model.phi1_weighted_overlap(4, 4.5, beta)


def test_residual_integral_needs_no_gamma_function(monkeypatch):
    # every moment is rational in gamma plus one trigamma(gamma)
    def refuse(*args):
        raise AssertionError("gamma-function call in the moments")

    monkeypatch.setattr(model, "ln_gamma", refuse)
    monkeypatch.setattr(model, "digamma", refuse)
    for alpha, gamma in ((2, 3.0), (4, 4.5), (6, 8.5)):
        assert bounds.residual_integral(alpha, gamma) > 0.0


def test_first_order_norm_digits():
    params = model.make_params(12.0, 4.0, 0.001)
    mu1 = bounds.bound_report(params).per_order[1][2]
    assert abs(mu1 - 4.8346e-8) <= 1.000001e-12


def test_norms_shrink_with_order_at_small_coupling():
    params = model.make_params(12.0, 4.0, 0.001)
    report = bounds.bound_report(params)
    mus = [report.per_order[p][2] for p in (1, 2, 3)]
    assert mus[0] > mus[1] >= mus[2] * 0.999999


def test_mu_norm_grows_with_coupling():
    prev = 0.0
    for lam in (0.001, 0.01, 0.1, 1.0):
        params = model.make_params(12.0, 4.0, lam)
        mu = bounds.bound_report(params).per_order[1][2]
        assert mu > prev
        prev = mu


def test_bound_pairs_match_fixture_digits():
    for lam, refs in TABLE2.items():
        report = bounds.bound_report(model.make_params(12.0, 4.0, lam))
        for k, p in enumerate((1, 2, 3)):
            lo, up, _ = report.per_order[p]
            if (lam, p) != (0.001, 1):
                # the remaining lower entry is covered by the xfail below
                assert matches_printed(lo, refs[2 * k]), (lam, p, lo)
            assert matches_printed(up, refs[2 * k + 1]), (lam, p, up)


@pytest.mark.xfail(strict=True, reason="single internally inconsistent "
                   "fixture entry; see fixtures.TABLE2_INCONSISTENT")
def test_inconsistent_fixture_entry():
    """The stored lower entry at lam=0.001, p=1 cannot be reproduced: the
    bounds are symmetric about E_1 by construction, and the stored upper
    entry 9.000114334 together with E_1 = 9.0001142857 forces a lower
    entry of 9.000114237, not the stored 9.000114234."""
    params = model.make_params(12.0, 4.0, 0.001)
    lo, up, _ = bounds.bound_report(params).per_order[1]
    assert matches_printed(up, TABLE2[0.001][1])  # upper reproduces
    assert matches_printed(lo, TABLE2[0.001][0])  # lower cannot


def test_optimal_bounds_selection():
    report = bounds.bound_report(model.make_params(12.0, 4.0, 1.0))
    lo, up = report.optimal
    assert lo == report.per_order[1][0] and up == report.per_order[2][1]
    assert report.optimal_valid
    assert matches_printed(lo, "9.065963521")
    assert matches_printed(up, "9.155786288")


def test_bounds_bracket_eigenvalue():
    for lam in (0.001, 0.1):
        params = model.make_params(12.0, 4.0, lam)
        e = solver.ground_state(params).ground_energy
        report = bounds.bound_report(params)
        lo1 = report.per_order[1][0]
        up2 = report.per_order[2][1]
        assert lo1 <= e <= min(up2, report.variational_upper)


def test_variational_upper_within_second_order_window():
    for lam in (0.01, 0.1, 1.0):
        params = model.make_params(12.0, 4.0, lam)
        report = bounds.bound_report(params)
        assert report.variational_upper <= report.per_order[2][1]


def test_bound_report_computes_constants_once(monkeypatch):
    calls = {"coefficients": 0, "residual_integral": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(perturb, "coefficients",
                        counted("coefficients", perturb.coefficients))
    monkeypatch.setattr(bounds, "residual_integral",
                        counted("residual_integral", bounds.residual_integral))
    for alpha, A, lam in ((4.0, 12.0, 0.1), (2.0, 12.0, 0.5), (6.0, 56.0, 0.01)):
        calls.update(coefficients=0, residual_integral=0)
        bounds.bound_report(model.make_params(A, alpha, lam))
        assert calls == {"coefficients": 1, "residual_integral": 1}


def test_report_variational_upper_is_third_order_energy():
    for alpha, A, lam in ((4.0, 12.0, 0.001), (4.0, 12.0, 1.0),
                          (2.0, 12.0, 0.5), (6.0, 56.0, 0.3)):
        params = model.make_params(A, alpha, lam)
        report = bounds.bound_report(params)
        assert (report.variational_upper == bounds.variational_upper(params)
                == perturb.energy_series(params, 3))


def test_bound_report_needs_third_order_coefficients():
    # alpha = 6 with 6 < gamma <= 7: eps3 is unavailable
    params = model.make_params(A_from_gamma(6.5), 6.0, 0.01)
    with pytest.raises(DomainError):
        bounds.bound_report(params)
    with pytest.raises(DomainError):
        bounds.variational_upper(params)
