"""Eigensolver tests: Hamiltonian assembly, the exactly solvable alpha = 2
family, and Rayleigh-Ritz monotonicity under basis refinement."""

import math

import numpy as np
import pytest

from spikedho import model, perturb, solver
from spikedho.specfun import ConvergenceError, DomainError


def test_build_hamiltonian_entries():
    params = model.make_params(12.0, 4.0, 0.5)
    h = solver.build_hamiltonian(params, 6)
    assert h.shape == (6, 6)
    assert np.max(np.abs(h - h.T)) < 1e-13
    # (0,0): E_0 + lam V_00, and V_00 = eps1
    v00 = 0.5 * perturb.epsilon1(4.0, 4.5)
    assert abs(h[0, 0] - (9.0 + v00)) < 1e-13
    assert abs(h[2, 2] - (17.0 + 0.5 * model.matrix_element_closed(2, 2, 4, 4.5))) < 1e-13


def test_zero_coupling_spectrum_is_diagonal():
    params = model.make_params(12.0, 4.0, 0.0)
    res = solver.ground_state(params)
    n = np.arange(res.basis_size)
    assert np.max(np.abs(res.eigenvalues - (4.0 * n + 9.0))) < 1e-10
    assert res.ground_energy == pytest.approx(9.0, abs=1e-12)


def test_alpha2_exact_energies():
    # lam/x^2 merges with A/x^2: E = 2 + sqrt(1 + 4(A + lam)).  The basis
    # converges slowly for small gamma, so the certificate is relaxed; the
    # extrapolated energies are far more accurate than it.
    for A in (0.0, 1.0, 12.0):
        for lam in (0.001, 0.1, 1.0):
            params = model.make_params(A, 2.0, lam)
            exact = 2.0 + math.sqrt(1.0 + 4.0 * (A + lam))
            res = solver.ground_state(params, tol=2e-9)
            assert abs(res.ground_energy - exact) < 1e-9


def test_rayleigh_ritz_monotonicity():
    params = model.make_params(12.0, 4.0, 1.0)
    energies = []
    for n in (8, 16, 32, 64):
        vals = np.linalg.eigvalsh(solver.build_hamiltonian(params, n))
        energies.append(float(vals[0]))
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-13


def test_converged_result_reports_size_and_delta():
    params = model.make_params(12.0, 4.0, 0.001)
    res = solver.ground_state(params)
    assert res.basis_size <= 2048
    assert res.delta_last_refinement < 1e-11


def test_basis_cap_failure():
    params = model.make_params(12.0, 4.0, 1.0)
    with pytest.raises(ConvergenceError):
        solver.ground_state(params, tol=1e-16, basis_cap=64)
    with pytest.raises(ConvergenceError):
        solver.ground_state(params, basis_cap=32)  # cap below first doubling
    with pytest.raises(DomainError):
        solver.ground_state(params, tol=0.0)



@pytest.fixture
def no_eigensolve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigensolve before the input check")
    monkeypatch.setattr(solver.np.linalg, "eigvalsh", fail)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_tol_must_be_positive_and_finite(tol, no_eigensolve):
    params = model.make_params(12.0, 4.0, 0.001)
    with pytest.raises(DomainError):
        solver.ground_state(params, tol=tol)


@pytest.mark.parametrize("cap", [0, 31])
def test_basis_cap_below_start_is_domain_error(cap, no_eigensolve):
    params = model.make_params(12.0, 4.0, 0.001)
    with pytest.raises(DomainError):
        solver.ground_state(params, basis_cap=cap)
