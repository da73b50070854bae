"""Independent eigenvalue oracle: diagonalize H0 + lam V in the
unperturbed eigenbasis with increasing truncation until the ground
eigenvalue settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .specfun import ConvergenceError, DomainError

N_START = 32  # basis size of the first rung of the doubling ladder


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray        # ascending, at the final basis size
    basis_size: int
    delta_last_refinement: float   # estimated remaining truncation error
    ground_energy: float           # tail-corrected ground eigenvalue


def build_hamiltonian(params: model.OscillatorParams, n_basis: int) -> np.ndarray:
    """Symmetric matrix with entries (4n + 2 gamma) [n=m] + lam V_nm."""
    if n_basis < 1:
        raise DomainError("basis size must be >= 1")
    h = params.lam * model.matrix_element_table(params.alpha, params.gamma,
                                                n_basis)
    diag = 4.0 * np.arange(n_basis) + 2.0 * params.gamma
    h[np.diag_indices(n_basis)] += diag
    return h


_NOISE_FLOOR = 64.0 * np.finfo(float).eps


def _aitken_level(seq):
    """One level of Aitken acceleration; windows at the roundoff floor are
    passed through unchanged to avoid amplifying noise."""
    out = []
    for x0, x1, x2 in zip(seq, seq[1:], seq[2:]):
        d1 = x1 - x0
        d2 = x2 - x1
        den = d2 - d1
        if abs(den) <= _NOISE_FLOOR * abs(x2):
            out.append(x2)
        else:
            out.append(x2 - d2 * d2 / den)
    return out


def _extrapolate(values):
    """Iterated Aitken acceleration of the ground-eigenvalue ladder.

    The candidates are the last entry of each tableau level, each carrying
    as error certificate its distance from the level below.  Deeper levels
    help for power-law ladders and hurt for superlinear ones, so the
    candidate with the smallest certificate wins.

    Returns (estimate, certificate).
    """
    best = values[-1]
    cert = abs(values[-1] - values[-2])
    prev_last = values[-1]
    s = list(values)
    while len(s) >= 3:
        s = _aitken_level(s)
        c = abs(s[-1] - prev_last)
        if c < cert:
            best, cert = s[-1], c
        prev_last = s[-1]
    return best, cert


def check_options(tol: float, basis_cap: int) -> None:
    """Raise DomainError unless tol is positive and finite and basis_cap
    leaves room for the starting size."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError("tol must be positive and finite, got %r" % tol)
    if basis_cap < N_START:
        raise DomainError("basis cap %d is below the starting size %d"
                          % (basis_cap, N_START))


def ground_state(params: model.OscillatorParams, tol: float = 1e-11,
                 basis_cap: int = 2048) -> SpectrumResult:
    """Eigensolve at doubling basis sizes until the extrapolated ground
    eigenvalue carries an error certificate below tol.

    The ground eigenvalue decreases monotonically with basis size
    (Rayleigh-Ritz); the ladder of values at successive doublings is
    accelerated by iterated Aitken extrapolation, and the reported energy
    is the accelerated value, not the raw eigenvalue at the final size.
    """
    check_options(tol, basis_cap)
    n = N_START
    ladder = []
    cert = math.inf
    while True:
        vals = np.linalg.eigvalsh(build_hamiltonian(params, n))
        ladder.append(float(vals[0]))
        if len(ladder) >= 2:
            ground, cert = _extrapolate(ladder)
            if cert < tol:
                return SpectrumResult(eigenvalues=vals, basis_size=n,
                                      delta_last_refinement=cert,
                                      ground_energy=ground)
        if n >= basis_cap:
            if len(ladder) < 2:
                raise ConvergenceError("basis cap %d leaves no room to refine "
                                       "the starting size" % basis_cap)
            raise ConvergenceError(
                "ground eigenvalue not converged at basis cap %d "
                "(error certificate %.3e, tol %.3e)" % (basis_cap, cert, tol))
        n = min(2 * n, basis_cap)
