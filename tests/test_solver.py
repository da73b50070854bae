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
    assert all(abs(value - 9.0) < 1e-12 for _, value, _ in res.ladder)
    n = np.arange(64)
    assert np.array_equal(solver.build_hamiltonian(params, 64),
                          np.diag(4.0 * n + 9.0))
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


def test_certificate_is_never_zero():
    # windows at the roundoff floor pass through Aitken unchanged; the
    # certificate still reports the floor instead of 0
    for A, lam in ((2550.0, 1.0), (12.0, 0.0)):
        res = solver.ground_state(model.make_params(A, 4.0, lam))
        assert res.delta_last_refinement >= (solver._NOISE_FLOOR
                                             * abs(res.ground_energy)) > 0.0


@pytest.mark.parametrize("h", [1, 2, 3])
def test_inverse_factor_inverts_connection_factor(h):
    left, t, right = model.connection_factor(2.0 * h, 8.5, 64)
    n = np.arange(64)
    b = np.where(n[:, None] >= n, left[:, None] * t[np.abs(n[:, None] - n)]
                 * right, 0.0)
    g = solver._inverse_factor(left, right, h)
    dense = sum(np.diag(g[m, m:], -m) for m in range(h + 1))
    assert np.max(np.abs(dense @ b - np.eye(64))) < 1e-12


@pytest.mark.parametrize("h", [1, 2, 3])
def test_factor_products_match_dense_factor(h):
    n = 2048
    x = np.random.default_rng(h).standard_normal(n)
    for gamma in (4.5, 8.5):
        left, t, right = model.connection_factor(2.0 * h, gamma, n)
        toeplitz = np.lib.stride_tricks.sliding_window_view(
            np.r_[np.zeros(n - 1), t], n)[:, ::-1]
        b = toeplitz * left[:, None] * right
        w, vx = solver._factor_products(left, right, h, x)
        for fast, dense in ((w, b.T @ x), (vx, b @ (b.T @ x))):
            assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))


def reference_band_solve(p, b):
    """The generic band Cholesky that `solver._band_solve` unrolls: any
    number h of sub-diagonals, p[s][i] = P[i, i-s], None unless P is
    positive definite."""
    h = len(p) - 1
    n = len(b)
    lb = [[0.0] * n for _ in p]    # lb[s][i] = L[i, i-s]
    diag, z = lb[0], list(b)       # z = L^-1 b, then P^-1 b
    for i in range(n):
        top = h if i > h else i
        d, acc_z = p[0][i], z[i]
        for s in range(top, 0, -1):
            j = i - s
            acc = p[s][i]
            for m in range(s + 1, top + 1):
                acc -= lb[m][i] * lb[m - s][j]
            lb[s][i] = v = acc / diag[j]
            d -= v * v
            acc_z -= v * z[j]
        if not d > 0.0:
            return None
        diag[i] = d = math.sqrt(d)
        z[i] = acc_z / d
    for i in range(n - 1, -1, -1):
        acc = z[i]
        for m in range(1, min(n - 1 - i, h) + 1):
            acc -= lb[m][i + m] * z[i + m]
        z[i] = acc / diag[i]
    return np.array(z)


def band_matrix(h, gamma, lam, sigma, n):
    """The rows p[s] of P(sigma) = G (D - sigma) G^T + lam I, as in
    `solver._banded_rung`."""
    left, _, right = model.connection_factor(2.0 * h, gamma, n)
    g = solver._inverse_factor(left, right, h)
    e = 4.0 * np.arange(n) + 2.0 * gamma - sigma
    p = np.zeros((h + 1, n))
    for s in range(h + 1):
        for m in range(s, h + 1):
            p[s, m:] += g[m, m:] * g[m - s, m - s:n - s] * e[:n - m]
    p[0] += lam
    return p


@pytest.mark.parametrize("h, gamma", [(1, 4.5), (2, 4.5), (3, 8.5)])
@pytest.mark.parametrize("n", [32, 64, 2048])
def test_band_solve_is_bit_identical_to_generic_loop(h, gamma, n):
    lam = 1.0
    p = band_matrix(h, gamma, lam, 2.0 * gamma - 0.5 * lam, n).tolist()
    b = np.random.default_rng(n + h).standard_normal(n).tolist()
    fast = solver._band_solve(p, b)
    assert np.array_equal(fast, reference_band_solve(p, b))
    assert np.array_equal(fast, solver._band_substitute(solver._band_factor(p), b))


@pytest.mark.parametrize("n", [32, 64, 2048])
def test_band_solve_matches_dense_solve(n):
    gamma, lam = 4.5, 1.0
    p = band_matrix(1, gamma, lam, 2.0 * gamma - 0.5 * lam, n)
    dense = np.diag(p[0]) + np.diag(p[1, 1:], -1) + np.diag(p[1, 1:], 1)
    b = np.random.default_rng(n).standard_normal(n)
    ref = np.linalg.solve(dense, b)
    y = solver._band_solve(p.tolist(), b.tolist())
    assert np.max(np.abs(y - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("h, gamma", [(1, 4.5), (2, 4.5), (3, 8.5)])
def test_band_factor_rejects_indefinite_and_nan(h, gamma):
    n = 64
    p = band_matrix(h, gamma, 1.0, 2.0 * gamma + 10.0, n).tolist()
    assert solver._band_factor(p) is None
    assert reference_band_solve(p, [1.0] * n) is None
    p = band_matrix(h, gamma, 1.0, 2.0 * gamma - 0.5, n)
    assert solver._band_factor(p.tolist()) is not None
    p[0, n // 2] = math.nan
    assert solver._band_factor(p.tolist()) is None
    assert solver._band_solve(p.tolist(), [1.0] * n) is None


@pytest.mark.parametrize("alpha, A", [(2.0, 1.0), (2.0, 12.0), (4.0, 12.0),
                                      (4.0, 20.0), (6.0, 30.0)])
def test_banded_rungs_match_dense(alpha, A):
    for lam in (1e-3, 0.1, 1.0):
        params = model.make_params(A, alpha, lam)
        rungs = list(solver._rungs(params, [32, 64, 256, 1024]))
        assert rungs[0][2] is None                     # the dense seed
        for n, value, width in rungs[1:]:
            assert width is not None and width <= 8.0 * np.finfo(float).eps * value
            dense = np.linalg.eigvalsh(solver.build_hamiltonian(params, n))[0]
            assert abs(value - dense) <= 1e-12


def test_alpha2_banded_rungs_lie_above_exact_energy():
    for A in (0.0, 1.0, 12.0):
        for lam in (0.001, 0.1, 1.0):
            params = model.make_params(A, 2.0, lam)
            exact = 2.0 + math.sqrt(1.0 + 4.0 * (A + lam))
            ladder = solver.ground_state(params, tol=2e-9).ladder
            assert any(width is not None for _, _, width in ladder)
            for _, value, width in ladder:
                if width is not None:
                    assert value >= exact - 1e-13


@pytest.mark.parametrize("A, alpha, lam", [(12.0, 6.0, 10.0), (12.0, 6.0, 50.0),
                                           (4.0, 6.0, 0.1)])
def test_dense_rung_matches_the_certified_banded_rung(A, alpha, lam):
    # the dense value is the positive-sum Rayleigh quotient of the eigh
    # vector; eigvalsh was off by up to 7.8e-12 at these points
    params = model.make_params(A, alpha, lam)
    (n, dense, width), = solver._rungs(params, [256])
    banded = list(solver._rungs(params, [32, 64, 128, 256]))[-1]
    assert width is None and banded[2] is not None
    assert abs(dense - banded[1]) <= 1e-14 * banded[1]


def test_all_dense_alpha2_ladder_meets_exact_energy():
    # H_00 = 2 gamma + lam eps1 = 9 >= 2 gamma + 4: every rung is dense
    res = solver.ground_state(model.make_params(0.0, 2.0, 3.0))
    assert all(width is None for _, _, width in res.ladder)
    assert abs(res.ground_energy - (2.0 + math.sqrt(13.0))) <= 2e-13


def test_dense_path_where_the_band_or_temple_fails():
    # alpha = 8 has a band of four sub-diagonals, beyond the unrolled sweep
    for A, alpha, lam in ((12.0, 2.7, 0.1), (0.0, 2.0, 10.0), (56.0, 8.0, 1.0)):
        res = solver.ground_state(model.make_params(A, alpha, lam))
        assert all(width is None for _, _, width in res.ladder)


def test_fallback_to_dense_keeps_the_answer(monkeypatch):
    params = model.make_params(12.0, 6.0, 1e-3)
    expected = 9.000076047158338  # all-dense ladder, basis size 2048
    res = solver.ground_state(params)
    assert res.basis_size == 2048
    assert abs(res.ground_energy - expected) < 1e-13
    # a rung that the banded iteration cannot certify turns it and every
    # later rung dense
    solve = solver._band_solve
    monkeypatch.setattr(solver, "_band_solve",
                        lambda p, b: None if len(b) >= 256 else solve(p, b))
    res = solver.ground_state(params)
    assert [width is None for _, _, width in res.ladder] == [
        True, False, False, True, True, True, True]
    assert abs(res.ground_energy - expected) < 1e-13


def test_banded_rung_inside_exact_temple_interval(monkeypatch):
    # At alpha = 6, gamma = 4.5, lam = 50 the large entries of lam V cost
    # eigvalsh digits (7.8e-12 at N = 256).  Temple's interval of the banded
    # vector, taken in 40-digit arithmetic, pins the banded value to a few
    # ulp.
    mp = pytest.importorskip("mpmath")
    params = model.make_params(12.0, 6.0, 50.0)
    n, kept = 128, []
    banded_rung = solver._banded_rung
    monkeypatch.setattr(solver, "_banded_rung",
                        lambda *args: kept.append(banded_rung(*args)) or kept[-1])
    value = list(solver._rungs(params, [32, 64, n]))[-1][1]
    with mp.workdps(40):
        g, h = mp.mpf(4.5), 3
        left = [(-1) ** k * mp.sqrt(mp.factorial(k) / mp.rf(g, k))
                for k in range(n)]
        t = [mp.rf(h, k) / mp.factorial(k) for k in range(n)]
        right = [mp.sqrt(mp.gamma(k + g - h) / (mp.factorial(k) * mp.gamma(g)))
                 for k in range(n)]
        x = [mp.mpf(float(v)) for v in kept[-1][2]]
        norm = mp.sqrt(mp.fsum(v * v for v in x))
        x = [v / norm for v in x]
        w = [right[k] * mp.fsum(t[i - k] * left[i] * x[i] for i in range(k, n))
             for k in range(n)]
        hx = [(4 * i + 2 * g) * x[i] + 50 * left[i]
              * mp.fsum(t[i - k] * right[k] * w[k] for k in range(i + 1))
              for i in range(n)]
        theta = mp.fsum(a * b for a, b in zip(x, hx))
        r2 = mp.fsum((a - theta * b) ** 2 for a, b in zip(hx, x))
        lower = theta - r2 / (2 * g + 4 - theta)
        assert theta - lower < 1e-14
        assert lower - 1e-14 <= value <= theta + 1e-14


@pytest.fixture
def no_eigensolve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigensolve before the input check")
    monkeypatch.setattr(solver.np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(solver.np.linalg, "eigh", fail)


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
