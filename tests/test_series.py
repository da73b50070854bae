"""Series-identity tests: the trigamma closed forms of the double sum
against brute-force truncation and against the continued weighted overlap,
the resummation split and its removable-singularity limit, and the
single-sum trigamma identity."""

import math

import numpy as np
import pytest

from spikedho import model, perturb, series
from spikedho.specfun import DomainError, HypergeometricSpec, pfq, trigamma


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_single_term_truncation():
    alpha, gamma = 4, 4.5
    v01 = model.matrix_element_closed(0, 1, alpha, gamma)
    v11 = model.matrix_element_closed(1, 1, alpha, gamma)
    got = series.double_sum_truncated(alpha, gamma, 1)
    assert rel_err(got.value, v01 * v01 * v11 / 16.0) < 1e-13


def test_double_sum_truncation_converges_monotonically():
    for alpha, gamma in ((2, 3.0), (4, 4.5), (6, 8.0)):
        closed = series.double_sum_closed(alpha, gamma)
        errs = []
        for m in (50, 100, 200, 400):
            tr = series.double_sum_truncated(alpha, gamma, m)
            errs.append(abs(tr.value - closed))
        assert errs[0] > errs[1] > errs[2] > errs[3]
        final = series.double_sum_truncated(alpha, gamma, 400)
        assert abs(final.value - closed) <= final.tail_estimate + 1e-12


def test_epsilon3_series_is_double_sum_minus_norm_term():
    # eps3 oracle = double sum - eps1 sum_i V_0i^2 / (16 i^2)
    for alpha, gamma, m in ((2, 3.0, 100), (4, 4.5, 200), (6, 8.0, 200),
                            (2.7, 3.5, 150)):
        left, t, right = model.connection_factor(alpha, gamma, m + 1)
        v0 = right[0] ** 2 * left[1:] * t[1:]
        i = np.arange(1, m + 1, dtype=float)
        norm = perturb.epsilon1(alpha, gamma) * float(np.sum(v0 ** 2 / (16.0 * i ** 2)))
        expected = series.double_sum_truncated(alpha, gamma, m).value - norm
        got = perturb.epsilon3_series(alpha, gamma, m).value
        assert rel_err(got, expected) < 1e-14


def test_double_sum_closed_grid():
    grids = {2: (2.0, 3.0, 4.0, 6.0, 10.0), 4: (4.25, 4.5, 5.0, 6.0, 8.0),
             6: (7.5, 8.0, 9.5, 12.0, 20.0)}
    for alpha, gammas in grids.items():
        for g in gammas:
            closed = series.double_sum_closed(alpha, g)
            tr = series.double_sum_truncated(alpha, g, 400)
            assert abs(closed - tr.value) <= tr.tail_estimate + 1e-12


def test_double_sum_equals_weighted_overlap():
    # S(alpha, gamma) = (phi1, x^-alpha phi1) through the continued moments
    for alpha, gamma in ((2, 3.0), (4, 4.5), (6, 8.0), (4, 6.0), (6, 12.0)):
        closed = series.double_sum_closed(alpha, gamma)
        overlap = model.phi1_weighted_overlap(alpha, gamma, float(alpha))
        assert rel_err(closed, overlap) < 1e-10


def test_double_sum_quadrature_cross_check():
    # points where the literal integral int x^-alpha phi1^2 dx converges
    x, w = model.half_line_nodes()
    for alpha, gamma in ((2, 3.0), (4, 4.5), (6, 8.0)):
        phi = model.phi1_eval(x, alpha, gamma)
        quad = float(np.dot(w, x ** -float(alpha) * phi * phi))
        assert rel_err(quad, series.double_sum_closed(alpha, gamma)) < 1e-7


def test_polynomial_numerators_transcription():
    """Reconstruct the rational part of each closed form from the
    truncation oracle and compare against the stored coefficient lists,
    isolating the polynomial from the trigamma term."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = float(rng.uniform(6.0, 9.0))
        den = 16.0 * (g - 4.0) * (g - 3.0) ** 2 * (g - 2.0) ** 5 * (g - 1.0) ** 5
        tr = series.double_sum_truncated(4, g, 800)
        rational = tr.value - trigamma(g) / (16.0 * (g - 2.0) ** 3 * (g - 1.0) ** 3)
        target = rational * den
        stored = series._poly(series._DS4_NUM, g)
        assert abs(stored - target) <= (tr.tail_estimate + 1e-12) * abs(den)
    for _ in range(5):
        g = float(rng.uniform(9.0, 14.0))
        den = (32.0 * (g - 7.0) * (g - 5.0) ** 2 * (g - 4.0)
               * (g - 3.0) ** 5 * (g - 2.0) ** 5 * (g - 1.0) ** 5)
        tr = series.double_sum_truncated(6, g, 800)
        rational = tr.value - trigamma(g) / (16.0 * (g - 3.0) ** 3
                                             * (g - 2.0) ** 3 * (g - 1.0) ** 3)
        target = rational * den
        stored = series._poly(series._DS6_NUM, g)
        assert abs(stored - target) <= (tr.tail_estimate + 1e-12) * abs(den)


def test_double_sum_domain():
    with pytest.raises(DomainError):
        series.double_sum_closed(4, 3.5)
    with pytest.raises(DomainError):
        series.double_sum_closed(6, 6.5)
    with pytest.raises(DomainError):
        series.double_sum_closed(3, 8.0)


def test_resummation_identity():
    for a in (1.0, 1.5, 2.4):
        check = series.resummation_check(a)
        assert check.agrees, (a, check)


def test_resummation_domain():
    with pytest.raises(DomainError):
        series.resummation_check(2.0)
    with pytest.raises(DomainError):
        series.resummation_check(2.5)


def test_resummation_limit():
    exact = math.pi ** 2 / 16.0 - 0.25
    assert abs(series.resummation_limit() - exact) < 1e-6


def test_trigamma_series_identity():
    for g in (1.5, 2.0, 5.0):
        check = series.trigamma_series_identity(g)
        assert check.agrees, (g, check)
    # gamma = 3/2: (1/2) psi'(1/2) - 1 = pi^2/4 - 1
    val = series.trigamma_series_identity(1.5).closed_value
    assert rel_err(val, math.pi ** 2 / 4.0 - 1.0) < 1e-12


def test_trigamma_series_hypergeometric_form():
    # the sum equals (1/(2 gamma)) 3F2(1, 2, 2; 3, gamma+1; 1)
    for g in (1.5, 2.0, 5.0):
        f = pfq(HypergeometricSpec((1.0, 2.0, 2.0), (3.0, g + 1.0), 1.0))
        closed = series.trigamma_series_identity(g).closed_value
        assert rel_err(f / (2.0 * g), closed) < 1e-10


def test_trigamma_series_decays_in_gamma():
    vals = [series.trigamma_series_identity(g).closed_value
            for g in (10.0, 20.0, 40.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_trigamma_series_domain():
    with pytest.raises(DomainError):
        series.trigamma_series_identity(1.0)
