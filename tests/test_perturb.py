"""Perturbation-coefficient tests: closed forms vs hypergeometric forms vs
sum-over-states truncation oracles, the exactly solvable alpha = 2 case,
and the truncated-energy ordering."""

import math

import numpy as np
import pytest

from spikedho import model, perturb
from spikedho.fixtures import matches_printed
from spikedho.specfun import DomainError, pfq


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


def test_coefficients_evaluate_only_the_eps2_hypergeometric(monkeypatch):
    def no_pfq(spec):
        raise AssertionError("pfq called for %r" % (spec,))

    monkeypatch.setattr(perturb, "pfq", no_pfq)
    for alpha in (2.0, 4.0, 6.0):
        co = perturb.coefficients(model.make_params(56.0, alpha, 0.1))
        assert co.valid_order == 3
    specs = []
    monkeypatch.setattr(perturb, "pfq",
                        lambda spec: specs.append(spec) or pfq(spec))
    co = perturb.coefficients(model.make_params(56.0, 2.7, 0.1))
    assert co.valid_order == 2 and len(specs) == 1
    assert len(specs[0].numerators) == 4        # the 4F3 of eps2


def test_energy_series_rejects_unavailable_order():
    params = model.make_params(A_from_gamma(2.5), 4.0, 0.001)
    with pytest.raises(DomainError):
        perturb.energy_series(params, 2)
    with pytest.raises(DomainError):
        perturb.energy_series(model.make_params(12.0, 4.0, 0.001), 4)
