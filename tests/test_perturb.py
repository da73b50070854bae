"""Perturbation-coefficient tests: closed forms vs hypergeometric forms vs
sum-over-states truncation oracles, the exactly solvable alpha = 2 case,
and the truncated-energy ordering."""

import math

import numpy as np
import pytest

from spikedho import model, perturb
from spikedho.fixtures import matches_printed
from spikedho.specfun import DomainError


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def A_from_gamma(gamma):
    return (gamma - 1.0) ** 2 - 0.25


def test_epsilon1_examples():
    # Gamma(2.5)/Gamma(4.5) = 1/(3.5 * 2.5) = 4/35
    assert rel_err(perturb.epsilon1(4.0, 4.5), 4.0 / 35.0) < 1e-13
    # Gamma(gamma-1)/Gamma(gamma) = 1/(gamma-1)
    for g in (2.0, 3.0, 7.5):
        assert rel_err(perturb.epsilon1(2.0, g), 1.0 / (g - 1.0)) < 1e-13
    with pytest.raises(DomainError):
        perturb.epsilon1(4.0, 2.0)


def test_epsilon1_closed_alphas_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for alpha in (2, 4, 6):
            for g in (3.5, 4.5, 8.5, 12.25, 20.0, 40.5):
                ref = (mpmath.gamma(mpmath.mpf(g) - alpha // 2)
                       / mpmath.gamma(mpmath.mpf(g)))
                value = perturb.epsilon1(float(alpha), g)
                assert abs(value - ref) <= 1e-15 * ref


def test_epsilon_signs():
    for alpha, gammas in ((2, (2.0, 3.0, 6.0)), (4, (4.25, 4.5, 8.0)),
                          (6, (7.5, 9.5, 12.0))):
        for g in gammas:
            assert perturb.epsilon1(float(alpha), g) > 0.0
            assert perturb.epsilon2_closed(alpha, g) < 0.0
            assert perturb.epsilon3_closed(alpha, g) > 0.0


def test_epsilon2_closed_vs_hypergeom():
    for alpha, gammas in ((2, (2.0, 3.0, 6.0, 10.0)),
                          (4, (4.25, 4.5, 6.0, 8.0)),
                          (6, (7.5, 8.0, 9.5, 12.0))):
        for g in gammas:
            closed = perturb.epsilon2_closed(alpha, g)
            hyp = perturb.epsilon2_hypergeom(float(alpha), g)
            assert rel_err(closed, hyp) < 1e-10


# alpha x gamma grid of the S checks, restricted to alpha < gamma + 1.
# mpmath.hyper spends 36 s on (3.43, 2.5) before it raises NoConvergence,
# so that point is checked against mp_second_order_sum instead.
HYPER_GRID = [(a, g) for a in (1.1, 1.3, 2.07, 2.7, 3.007, 3.43, 3.9)
              for g in (2.5, 3.5, 4.5, 5.5, 12.25, 51.5, 1000.5)
              if a < g + 1.0 and (a, g) != (3.43, 2.5)]


def mp_second_order_sum(mp, alpha, gamma, shift=200):
    """S(alpha/2, gamma) in mpmath's working precision: the direct sum at
    gamma + shift, then S(x) = S(x+1) + D(x)/x down to gamma, with
    D(x) = Gamma(x+1) Gamma(x+1-2h) / Gamma(x+1-h)^2 - 1 by Gauss's sum."""
    h, g = mp.mpf(alpha) / 2, mp.mpf(gamma)
    x0 = g + shift
    s, t, j = mp.mpf(0), h * h / x0, 1
    while t > mp.eps * s or s == 0:
        s += t
        t *= j * (h + j) ** 2 / ((j + 1) ** 2 * (x0 + j))
        j += 1
    for i in range(shift - 1, -1, -1):
        x = g + i
        d = mp.gamma(x + 1) * mp.gamma(x + 1 - 2 * h) / mp.gamma(x + 1 - h) ** 2
        s += (d - 1) / x
    return s


@pytest.mark.parametrize("alpha, gamma", HYPER_GRID)
def test_second_order_sum_vs_mpmath_hyper(alpha, gamma):
    mp = pytest.importorskip("mpmath")
    h = alpha / 2.0
    with mp.workdps(40):
        try:
            ref = h * h / mp.mpf(gamma) * mp.hyper(
                [1, 1, 1 + mp.mpf(h), 1 + mp.mpf(h)], [2, 2, mp.mpf(gamma) + 1], 1)
        except mp.libmp.NoConvergence:
            pytest.skip("mpmath.hyper does not converge at this point")
        assert abs(perturb._second_order_sum(h, gamma) - ref) <= 2e-15 * ref


@pytest.mark.parametrize("alpha, gamma", [(3.43, 2.5), (2.7, 4.5), (3.9, 51.5)])
def test_second_order_sum_vs_mpmath_recurrence(alpha, gamma):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        ref = mp_second_order_sum(mp, alpha, gamma)
        assert abs(perturb._second_order_sum(alpha / 2.0, gamma) - ref) <= 2e-15 * ref


@pytest.mark.parametrize("excess", [1e-3, 1e-6])
@pytest.mark.parametrize("gamma", [2.5, 4.5, 12.25])
def test_second_order_sum_near_the_domain_edge(gamma, excess):
    # S grows like 1/excess as alpha -> gamma + 1; the recurrence takes the
    # excess as (x+1)(x+1-2h) and keeps its digits
    mp = pytest.importorskip("mpmath")
    alpha = gamma + 1.0 - excess
    with mp.workdps(50):
        ref = mp_second_order_sum(mp, alpha, gamma)
        assert abs(perturb._second_order_sum(alpha / 2.0, gamma) - ref) <= 4e-15 * ref


def test_epsilon2_hypergeom_at_large_alpha():
    mp = pytest.importorskip("mpmath")
    alpha, gamma = 30.0, 40.5
    value = perturb.epsilon2_hypergeom(alpha, gamma)
    assert math.isfinite(value)
    with mp.workdps(50):
        s = mp_second_order_sum(mp, alpha, gamma)
        assert abs(perturb._second_order_sum(alpha / 2.0, gamma) - s) <= 1e-13 * s
        ref = -(mp.gamma(mp.mpf(gamma) - 15) / mp.gamma(mp.mpf(gamma))) ** 2 * s / 4
        assert abs(value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("alpha, gamma", [
    (5.5, 4.5), (6.0, 4.5), (math.nan, 4.5), (2.7, math.nan),
    (math.inf, 4.5), (-math.inf, 4.5), (2.7, math.inf)])
def test_epsilon2_hypergeom_domain(alpha, gamma):
    with pytest.raises(DomainError):
        perturb.epsilon2_hypergeom(alpha, gamma)


def test_epsilon2_closed_vs_series_oracle():
    for alpha, gammas in ((2, (2.0, 4.0)), (4, (4.25, 4.5, 6.0, 8.0)),
                          (6, (7.5, 8.0, 9.5, 12.0))):
        for g in gammas:
            closed = perturb.epsilon2_closed(alpha, g)
            series = perturb.epsilon2_series(float(alpha), g, 4000)
            assert abs(closed - series.value) <= series.tail_estimate + 1e-12


def test_epsilon3_closed_vs_series_oracle():
    for alpha, gammas in ((2, (2.0, 4.0)), (4, (4.25, 4.5, 6.0, 8.0)),
                          (6, (7.5, 8.0, 9.5, 12.0))):
        for g in gammas:
            closed = perturb.epsilon3_closed(alpha, g)
            series = perturb.epsilon3_series(float(alpha), g, 400)
            assert abs(closed - series.value) <= series.tail_estimate + 1e-12


def test_alpha6_second_order_variant_discrimination():
    """Two published transcriptions of the alpha=6 second-order bracket
    differ in the cubic term: (40, -57, 24, -3) vs (40, -57, 8, -1).  The
    sum-over-states oracle accepts the first and rejects the second.  The
    two variants coincide at gamma = 8 (their difference carries a factor
    8 - gamma), so discriminating gamma values are used."""
    for g in (9.5, 12.0):
        e1 = 1.0 / ((g - 1.0) * (g - 2.0) * (g - 3.0))
        variant = ((g - 2.0) * (g - 1.0) / ((g - 5.0) * (g - 4.0))
                   + 2.0 * (g - 1.0) / (g - 4.0)
                   + (40.0 - 57.0 * g + 8.0 * g * g - g ** 3)
                   / ((g - 3.0) * (g - 2.0) * (g - 1.0)))
        rejected = -(36.0 / (16.0 * g)) * e1 * e1 * (g / 18.0) * variant
        series = perturb.epsilon2_series(6.0, g, 4000)
        accepted = perturb.epsilon2_closed(6, g)
        assert abs(accepted - series.value) <= series.tail_estimate + 1e-12
        assert abs(rejected - series.value) > 100.0 * series.tail_estimate


def test_alpha2_exact_taylor_closure():
    # E(lam) = 2 + 2 sqrt((gamma-1)^2 + lam); its Taylor coefficients are
    # 1/(gamma-1), -1/(4(gamma-1)^3), 1/(8(gamma-1)^5)
    for g in (2.0, 3.0, 4.5, 10.0):
        b = g - 1.0
        assert rel_err(perturb.epsilon1(2.0, g), 1.0 / b) < 1e-12
        assert rel_err(perturb.epsilon2_closed(2, g), -1.0 / (4.0 * b ** 3)) < 1e-12
        assert rel_err(perturb.epsilon3_closed(2, g), 1.0 / (8.0 * b ** 5)) < 1e-12


def test_truncated_energy_digits():
    params = model.make_params(12.0, 4.0, 0.001)
    assert matches_printed(perturb.energy_series(params, 1), "9.000114285")
    assert matches_printed(perturb.energy_series(params, 2), "9.000114279")


def test_energy_ordering():
    # E_1 > E_3 > E_2 whenever lam < |eps2| / eps3
    for g in (4.5, 6.0):
        co = perturb.coefficients(model.make_params(A_from_gamma(g), 4.0, 0.0))
        lam_max = abs(co.eps2) / co.eps3
        for lam in (0.001, 0.1, 0.9 * lam_max):
            p = model.make_params(A_from_gamma(g), 4.0, lam)
            e1 = perturb.energy_series(p, 1)
            e2 = perturb.energy_series(p, 2)
            e3 = perturb.energy_series(p, 3)
            assert e1 > e3 > e2


def test_phi1_norm_sq_vs_quadrature():
    from spikedho.model import half_line_nodes, phi1_eval
    x, w = half_line_nodes()
    for alpha, g in ((2, 3.0), (4, 4.5), (6, 8.0)):
        phi = phi1_eval(x, alpha, g)
        quad = float(np.dot(w, phi * phi))
        assert rel_err(perturb.phi1_norm_sq(float(alpha), g), quad) < 1e-8


def test_phi1_norm_sq_vs_state_sum():
    # (phi1, phi1) = sum_i V_0i^2 / (16 i^2)
    for alpha, g in ((4.0, 4.5), (6.0, 8.0)):
        left, t, right = model.connection_factor(alpha, g, 20001)
        v0 = right[0] ** 2 * left[1:] * t[1:]
        i = np.arange(1, 20001, dtype=float)
        trunc = float(np.sum(v0 * v0 / (16.0 * i * i)))
        assert rel_err(perturb.phi1_norm_sq(alpha, g), trunc) < 1e-9


def test_coefficients_validity_orders():
    co = perturb.coefficients(model.make_params(12.0, 4.0, 0.001))
    assert co.valid_order == 3 and co.eps2 is not None and co.eps3 is not None
    # gamma = 3.5: second order available for alpha = 4, third is not
    co = perturb.coefficients(model.make_params(A_from_gamma(3.5), 4.0, 0.001))
    assert co.valid_order == 2 and co.eps3 is None
    # gamma = 2.5: only first order for alpha = 4
    co = perturb.coefficients(model.make_params(A_from_gamma(2.5), 4.0, 0.001))
    assert co.valid_order == 1 and co.eps2 is None and co.eps3 is None
    # alpha = 6, gamma = 5.5: eps2 exists, eps3 does not
    co = perturb.coefficients(model.make_params(A_from_gamma(5.5), 6.0, 0.001))
    assert co.valid_order == 2 and co.eps3 is None
    # non-closed alpha: hypergeometric second order
    co = perturb.coefficients(model.make_params(12.0, 3.0, 0.001))
    assert co.valid_order == 2
    assert rel_err(co.eps2, perturb.epsilon2_hypergeom(3.0, 4.5)) < 1e-13


def test_coefficients_evaluate_no_pfq(monkeypatch):
    def no_pfq(spec):
        raise AssertionError("pfq called for %r" % (spec,))

    monkeypatch.setattr(perturb, "pfq", no_pfq)
    for alpha in (2.0, 4.0, 6.0):
        co = perturb.coefficients(model.make_params(56.0, alpha, 0.1))
        assert co.valid_order == 3
    co = perturb.coefficients(model.make_params(56.0, 2.7, 0.1))
    assert co.valid_order == 2


def test_energy_series_rejects_unavailable_order():
    params = model.make_params(A_from_gamma(2.5), 4.0, 0.001)
    with pytest.raises(DomainError):
        perturb.energy_series(params, 2)
    with pytest.raises(DomainError):
        perturb.energy_series(model.make_params(12.0, 4.0, 0.001), 4)
