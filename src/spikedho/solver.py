"""Independent eigenvalue oracle: the ground Ritz value of
H = D + lam B B^T (D = diag(4n + 2 gamma), B from `model.connection_factor`)
at doubling basis sizes N, extrapolated until it settles.

For alpha = 2h, h whole, the Toeplitz part of B is the series of
(1 - x)^-h, so G = B^-1 has h + 1 diagonals and H - sigma is congruent to
the band matrix P(sigma) = G (D - sigma) G^T + lam I, whose Cholesky factor
exists exactly when sigma is below the ground eigenvalue.  Such a rung is
solved by shift-invert steps at O(h N) cost per solve, started from the
previous rung's vector; the Rayleigh quotient and residual are taken on H
itself by 2h running sums, and Temple's inequality with
theta_1 >= 2 gamma + 4 (H >= D) certifies the rung to 8 eps relative.
Dense `eigvalsh` serves non-integer alpha/2, ladders with
H_00 = 2 gamma + lam eps1 >= 2 gamma + 4 (Temple's bound may not apply),
and every rung from the first one the banded steps fail to certify.  The
first rung is always dense; its eigenvector seeds the banded steps.
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
    ladder: tuple  # per rung: (size, Ritz value, Temple width or None: dense)
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
_TEMPLE_TOL = 8.0 * np.finfo(float).eps  # accepted Temple width, relative
_BANDED_STEPS = 8  # shift-invert steps per rung before falling back to dense
_SHIFT_MARGIN = math.sqrt(np.finfo(float).eps)  # relative, see _banded_rung


def _inverse_factor(left, right, h):
    """The h + 1 diagonals g[m, i] = G[i, i-m] (0 for i < m) of
    G = B^-1 = diag(1/right) T^-1 diag(1/left) for alpha = 2h, h whole,
    where T^-1 is the lower-triangular Toeplitz matrix of (1 - x)^h."""
    n = len(left)
    g = np.zeros((h + 1, n))
    for m in range(h + 1):
        g[m, m:] = (-1) ** m * math.comb(h, m) / (right[m:] * left[:n - m])
    return g


def _factor_products(left, right, h, v):
    """(B^T v, B B^T v) for alpha = 2h, h whole, by 2h running sums: the
    Toeplitz part of B is the series of (1 - x)^-h, so T y is h cumulative
    sums of y, and T^T y the same sums taken from the end."""
    y = left * v
    for _ in range(h):
        y = np.cumsum(y[::-1])[::-1]
    w = right * y
    y = right * w
    for _ in range(h):
        y = np.cumsum(y)
    return w, left * y


def _band_solve(p, b):
    """Solve P y = b for the symmetric band matrix with p[s][i] = P[i, i-s]
    by Cholesky, or return None unless P is positive definite.  L is kept
    as h + 1 flat lists, so a solve allocates no list per row."""
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


def _banded_rung(x, params, factor, h):
    """Shift-invert steps on H from the vector x until Temple's bound
    certifies the Rayleigh quotient; returns (value, width, vector), or
    None when the rung is not certified within _BANDED_STEPS steps."""
    left, _, right = factor
    n, lam = len(x), params.lam
    d = 4.0 * np.arange(n) + 2.0 * params.gamma
    gap = 2.0 * params.gamma + 4.0  # lower bound on the second eigenvalue
    g = _inverse_factor(left, right, h)
    for step in range(_BANDED_STEPS + 1):
        x = x / math.sqrt(x @ x)
        w, vx = _factor_products(left, right, h, x)      # B^T x and V x
        theta = float(d @ (x * x) + lam * (w @ w))
        r = d * x + lam * vx - theta * x
        if theta >= gap:
            return None
        width = float(r @ r) / (gap - theta)
        if width <= _TEMPLE_TOL * theta:
            return theta, width, x
        if step == _BANDED_STEPS:
            return None
        # Inverse iteration as x <- x - M r, M = (H - sigma)^-1 =
        # G^T P(sigma)^-1 G, so P's rounding enters through r and dies with
        # it; the margin below the Temple bound keeps P safely definite.
        e = d - (theta - 2.0 * width - _SHIFT_MARGIN * theta)
        p = np.zeros((h + 1, n))
        for s in range(h + 1):
            for m in range(s, h + 1):
                p[s, m:] += g[m, m:] * g[m - s, m - s:n - s] * e[:n - m]
        p[0] += lam
        gr = g[0] * r                                                 # G r
        for m in range(1, h + 1):
            gr[m:] += g[m, m:] * r[:n - m]
        z = _band_solve(p.tolist(), gr.tolist())
        if z is None:
            return None
        x = x - g[0] * z                                              # G^T z
        for m in range(1, h + 1):
            x[:n - m] -= g[m, m:] * z[m:]


def _rungs(params: model.OscillatorParams, sizes):
    """Yield (size, ground Ritz value, Temple width or None for a dense
    rung) for each of the increasing basis sizes."""
    alpha, gamma = params.alpha, params.gamma
    x = None  # the previous rung's ground vector while the ladder is banded
    for n in sizes:
        if x is not None:
            factor = model.connection_factor(alpha, gamma, n)
            out = _banded_rung(np.concatenate((x, np.zeros(n - len(x)))),
                               params, factor, int(alpha) // 2)
            if out is not None:
                value, width, x = out
                yield n, value, width
                continue
            x = None
        h = build_hamiltonian(params, n)
        # The first rung seeds the banded path where B^-1 is banded and
        # Temple's bound applies: H_00 = 2 gamma + lam eps1 < 2 gamma + 4.
        if n == sizes[0] and alpha % 2 == 0 and h[0, 0] < 2.0 * gamma + 4.0:
            vals, vecs = np.linalg.eigh(h)
            x = vecs[:, 0]
        else:
            vals = np.linalg.eigvalsh(h)
        yield n, float(vals[0]), None


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
    candidate with the smallest certificate wins.  No certificate is
    smaller than the roundoff floor _NOISE_FLOOR |estimate|.

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
    return best, max(cert, _NOISE_FLOOR * abs(best))


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
    """Ground Ritz values at doubling basis sizes until the extrapolated
    ground eigenvalue carries an error certificate below tol.

    The ground Ritz value decreases monotonically with basis size
    (Rayleigh-Ritz); the ladder of values at successive doublings is
    accelerated by iterated Aitken extrapolation, and the reported energy
    is the accelerated value, not the raw Ritz value at the final size.
    """
    check_options(tol, basis_cap)
    sizes = [N_START]
    while sizes[-1] < basis_cap:
        sizes.append(min(2 * sizes[-1], basis_cap))
    ladder = []
    for rung in _rungs(params, sizes):
        ladder.append(rung)
        if len(ladder) >= 2:
            ground, cert = _extrapolate([value for _, value, _ in ladder])
            if cert < tol:
                return SpectrumResult(ladder=tuple(ladder), basis_size=rung[0],
                                      delta_last_refinement=cert,
                                      ground_energy=ground)
    if len(ladder) < 2:
        raise ConvergenceError("basis cap %d leaves no room to refine "
                               "the starting size" % basis_cap)
    raise ConvergenceError(
        "ground eigenvalue not converged at basis cap %d "
        "(error certificate %.3e, tol %.3e)" % (basis_cap, cert, tol))
