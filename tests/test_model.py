"""Basis, matrix-element and first-order-correction tests: orthonormality,
symmetry, agreement of the closed forms with the general hypergeometric
form, and the defining differential equation of phi1."""

import math

import numpy as np
import pytest

from spikedho import model, perturb
from spikedho.specfun import DomainError


def test_make_params_examples():
    assert model.make_params(0.0, 2.0, 0.1).gamma == 1.5
    assert model.make_params(12.0, 4.0, 0.1).gamma == 4.5
    assert model.make_params(2550.0, 4.0, 1.0).gamma == 51.5


def test_make_params_constraints():
    with pytest.raises(DomainError):
        model.make_params(-1.0, 4.0, 0.1)
    with pytest.raises(DomainError):
        model.make_params(12.0, 4.0, -0.1)
    with pytest.raises(DomainError):
        model.make_params(12.0, 0.0, 0.1)
    # A = 0 gives gamma = 1.5 and 2*gamma = 3 <= alpha = 4
    with pytest.raises(DomainError):
        model.make_params(0.0, 4.0, 0.1)
    # A = 3 gives gamma ~ 2.80, so 2*gamma > 4 holds
    model.make_params(3.0, 4.0, 0.1)


@pytest.mark.parametrize("A,alpha,lam", [
    (math.nan, 4.0, 0.1), (math.inf, 4.0, 0.1),
    (12.0, math.nan, 0.1), (12.0, math.inf, 0.1),
    (12.0, 4.0, math.nan), (12.0, 4.0, math.inf),
])
def test_make_params_rejects_non_finite(A, alpha, lam):
    with pytest.raises(DomainError):
        model.make_params(A, alpha, lam)


def test_effective_A_examples():
    assert model.effective_A(0.0, 3, 3) == 12.0
    assert model.effective_A(0.0, 0, 1) == 0.0
    assert model.effective_A(0.0, 0, 3) == 0.0
    assert model.effective_A(5.0, 0, 1) == 5.0
    assert model.effective_A(0.0, 2, 5) == 4.0 * 3.0
    with pytest.raises(DomainError):
        model.effective_A(0.0, 1, 0)


def test_basis_energy():
    assert model.basis_energy(0, 4.5) == 9.0
    assert model.basis_energy(3, 1.5) == 15.0


def test_basis_ground_state_closed_form():
    # gamma = 3/2: psi_0(x) = 2 pi^(-1/4) x exp(-x^2/2)
    x = np.linspace(0.1, 4.0, 40)
    ref = 2.0 * math.pi ** -0.25 * x * np.exp(-0.5 * x * x)
    assert np.max(np.abs(model.basis_eval(0, 1.5, x) - ref)) < 1e-13


def test_basis_orthonormality():
    gamma = 4.5
    x, w = model.half_line_nodes()
    psis = [model.basis_eval(n, gamma, x) for n in range(9)]
    gram = np.array([[float(np.dot(w, pi * pj)) for pj in psis]
                     for pi in psis])
    assert np.max(np.abs(gram - np.eye(9))) < 1e-9


def test_matrix_element_symmetry():
    for alpha, gamma in ((2, 3.0), (4, 4.5), (6, 8.0)):
        for i in range(0, 21, 5):
            for j in range(0, 21, 4):
                vij = model.matrix_element_closed(i, j, alpha, gamma)
                vji = model.matrix_element_closed(j, i, alpha, gamma)
                assert vij == vji


def test_general_vs_closed_forms():
    for alpha in (2, 4, 6):
        for gamma in (3.5, 4.5, 6.0, 8.0):
            for i in range(16):
                for j in range(16):
                    a = model.matrix_element_general(i, j, float(alpha), gamma)
                    b = model.matrix_element_closed(i, j, alpha, gamma)
                    assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


def test_general_form_noninteger_alpha_quadrature():
    alpha, gamma = 3.0, 4.5
    x, w = model.half_line_nodes()
    for i, j in ((0, 0), (0, 3), (2, 5)):
        quad = float(np.dot(w, model.basis_eval(i, gamma, x)
                            * x ** -alpha * model.basis_eval(j, gamma, x)))
        assert abs(quad - model.matrix_element_general(i, j, alpha, gamma)) < 1e-9


def test_matrix_element_table_matches_elementwise():
    for alpha, gamma in ((2, 3.0), (4, 4.5), (6, 8.0), (4, 51.5)):
        table = model.matrix_element_table(alpha, gamma, 12)
        assert np.max(np.abs(table - table.T)) < 1e-13
        for i in (0, 3, 11):
            for j in (0, 7):
                ref = model.matrix_element_closed(i, j, int(alpha), gamma)
                assert abs(table[i, j] - ref) < 1e-13
                assert abs(table[i, j] - ref) <= 1e-13 * abs(ref)
    for alpha, gamma in ((2.5, 4.0), (1.3, 4.0), (3.0, 4.5)):
        table = model.matrix_element_table(alpha, gamma, 12)
        assert np.max(np.abs(table - table.T)) < 1e-13
        for i in range(12):
            for j in range(12):
                ref = model.matrix_element_general(i, j, alpha, gamma)
                assert abs(table[i, j] - ref) <= 1e-13 * abs(ref)


def test_matrix_element_table_large_basis_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    table = model.matrix_element_table(2, 1.5, 2048)

    def exact(i, j):
        # alpha = 2 closed form, lo = min(i, j), hi = max(i, j):
        # (-1)^(i+j) sqrt(hi! Gamma(gamma+lo) / (lo! Gamma(gamma+hi))) / (gamma-1)
        gamma = mpmath.mpf(3) / 2
        lo, hi = min(i, j), max(i, j)
        return ((-1) ** (i + j) / (gamma - 1) * mpmath.sqrt(
            mpmath.factorial(hi) * mpmath.gamma(gamma + lo)
            / (mpmath.factorial(lo) * mpmath.gamma(gamma + hi))))

    with mpmath.workdps(30):
        for i, j in ((0, 0), (0, 2047), (1023, 1023), (700, 1900),
                     (2047, 1500), (2047, 2047)):
            ref = exact(i, j)
            assert abs((table[i, j] - ref) / ref) < 1e-13


def test_connection_factor_rebuilds_table_exactly():
    for alpha, gamma, size in ((4, 4.5, 300), (2, 1.5, 257), (2.7, 3.5, 64)):
        left, t, right = model.connection_factor(alpha, gamma, size)
        n = np.arange(size)
        lag = np.subtract.outer(n, n)
        toeplitz = np.where(lag >= 0, t[np.abs(lag)], 0.0)
        b = toeplitz * left[:, None] * right
        assert np.array_equal(b @ b.T,
                              model.matrix_element_table(alpha, gamma, size))


@pytest.mark.parametrize("alpha", [2, 4, 6, 2.7])
def test_connection_factor_prefix_is_smaller_factor(alpha):
    # every vector is a running product, so a ladder slices one factor
    full = model.connection_factor(alpha, 4.5, 2048)
    for n in (1, 32, 64, 1000):
        for whole, part in zip(full, model.connection_factor(alpha, 4.5, n)):
            assert np.array_equal(whole[:n], part)


@pytest.mark.parametrize("alpha,gamma", [(4, 4.5), (6, 8.0), (2.7, 3.5)])
def test_connection_factor_v0_column_vs_mpmath(alpha, gamma):
    # V_0i = B_00 B_i0 = eps1 (-1)^i sqrt(i!/(gamma)_i) (h)_i/i!
    mpmath = pytest.importorskip("mpmath")
    left, t, right = model.connection_factor(alpha, gamma, 20001)
    v0 = right[0] ** 2 * left * t
    with mpmath.workdps(30):
        g, h = mpmath.mpf(gamma), mpmath.mpf(alpha) / 2
        for i in (1, 10, 1000, 20000):
            ref = ((-1) ** i * mpmath.gamma(g - h) / mpmath.gamma(g)
                   * mpmath.sqrt(mpmath.factorial(i) / mpmath.rf(g, i))
                   * mpmath.rf(h, i) / mpmath.factorial(i))
            assert abs((v0[i] - ref) / ref) < 2e-13


def test_matrix_element_domain():
    with pytest.raises(DomainError):
        model.matrix_element_closed(0, 0, 4, 1.5)
    with pytest.raises(DomainError):
        model.matrix_element_closed(0, 0, 3, 4.5)
    with pytest.raises(DomainError):
        model.matrix_element_general(0, 0, 4.0, 2.0)
    for alpha, gamma in ((4, 2.0), (2, 1.0), (3.0, 1.2), (6, 3.0)):
        with pytest.raises(DomainError):
            model.matrix_element_table(alpha, gamma, 4)
        with pytest.raises(DomainError):
            model.connection_factor(alpha, gamma, 4)
    with pytest.raises(DomainError):
        model.matrix_element_table(4, 4.5, 0)
    with pytest.raises(DomainError):
        model.connection_factor(4, 4.5, 0)


# ---------------------------------------------------------------------------
# phi1: the defining equation (H0 - E0) phi1 = (eps1 - V) psi0
# ---------------------------------------------------------------------------

def A_from_gamma(gamma):
    return (gamma - 1.0) ** 2 - 0.25


@pytest.mark.parametrize("alpha,gamma", [(2, 3.0), (4, 4.5), (6, 8.0)])
def test_phi1_satisfies_first_order_equation(alpha, gamma):
    A = A_from_gamma(gamma)
    e0 = 2.0 * gamma
    e1 = perturb.epsilon1(alpha, gamma)
    x = np.linspace(0.3, 6.0, 400)
    h = 1e-4
    phi = model.phi1_eval(x, alpha, gamma)
    d2 = (model.phi1_eval(x + h, alpha, gamma) - 2.0 * phi
          + model.phi1_eval(x - h, alpha, gamma)) / (h * h)
    lhs = -d2 + (x * x + A / (x * x) - e0) * phi
    rhs = (e1 - x ** -float(alpha)) * model.basis_eval(0, gamma, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-5


@pytest.mark.parametrize("alpha,gamma", [(2, 3.0), (4, 4.5), (6, 8.0)])
def test_phi1_orthogonal_to_ground_state(alpha, gamma):
    x, w = model.half_line_nodes()
    overlap = float(np.dot(w, model.basis_eval(0, gamma, x)
                           * model.phi1_eval(x, alpha, gamma)))
    assert abs(overlap) < 1e-10


def test_phi1_projection_gives_second_order_coefficient():
    # (psi0, x^-2 phi1) = eps2 = -1/(4 (gamma-1)^3) at alpha = 2
    gamma = 3.0
    x, w = model.half_line_nodes()
    val = float(np.dot(w, model.basis_eval(0, gamma, x) * x ** -2.0
                       * model.phi1_eval(x, 2, gamma)))
    assert abs(val - (-1.0 / 32.0)) < 1e-10


def test_phi1_weighted_overlap_vs_quadrature():
    # points where the literal integral converges at the origin
    cases = ((2, 3.0, 2.0), (4, 4.5, 4.0), (6, 8.0, 6.0),
             (2, 3.0, 0.0), (4, 4.5, 0.0), (6, 8.0, 0.0))
    x, w = model.half_line_nodes()
    for alpha, gamma, beta in cases:
        phi = model.phi1_eval(x, alpha, gamma)
        quad = float(np.dot(w, x ** -beta * phi * phi))
        closed = model.phi1_weighted_overlap(alpha, gamma, beta)
        assert abs(quad - closed) <= 1e-9 * max(1.0, abs(closed))


def test_phi1_domain():
    with pytest.raises(DomainError):
        model.phi1_structure(4, 1.8)
    with pytest.raises(DomainError):
        model.phi1_structure(3, 4.5)


def test_integrate_checked_gaussian():
    val = model.integrate_checked(lambda x: np.exp(-x * x))
    assert abs(val - 0.5 * math.sqrt(math.pi)) < 1e-12
