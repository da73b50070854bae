"""Independent eigenvalue oracle: the ground Ritz value of
H = D + lam B B^T (D = diag(4n + 2 gamma), B from `model.connection_factor`)
at doubling basis sizes N, extrapolated until it settles.

For alpha = 2h, h whole, the Toeplitz part of B is the series of
(1 - x)^-h, so G = B^-1 has h + 1 diagonals and H - sigma is congruent to
the band matrix P(sigma) = G (D - sigma) G^T + lam I, whose Cholesky factor
exists exactly when sigma is below the ground eigenvalue.  For h <= 3
(alpha in {2, 4, 6}) such a rung is solved by shift-invert steps, started
from the previous rung's vector.  Each step factors P by one unrolled
sweep that serves h = 1, 2 and 3 (`_band_factor`, O(N)) and substitutes
on that factor (`_band_substitute`).  The Rayleigh quotient and residual
are taken on H itself by 2h running sums, and Temple's inequality with
theta_1 >= 2 gamma + 4 (H >= D) certifies the rung to 8 eps relative.
A ladder builds the connection factor once, at its largest size, and
hands each banded rung the leading slices.
Dense `eigvalsh` serves every other alpha, ladders with
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


def _band_factor(p):
    """Cholesky factor L of the symmetric band matrix P with p[s][i] =
    P[i, i-s] (0 for i < s), at most three sub-diagonals, as lists
    (d, l1, l2, l3) with d[i] = L[i, i] and ls[i] = L[i, i-s]; None unless
    P is positive definite.  The sweep keeps the last three rows of L in
    locals and reads an absent diagonal as zero, so one loop serves h = 1,
    2 and 3."""
    p0, p1, p2, p3 = p + [[0.0] * len(p[0])] * (4 - len(p))
    d, l1, l2, l3 = [], [], [], []
    c1 = c2 = c3 = 1.0      # L[i-1, i-1], L[i-2, i-2], L[i-3, i-3]
    a1 = a2 = b1 = 0.0      # L[i-1, i-2], L[i-2, i-3], L[i-1, i-3]
    for q0, q1, q2, q3 in zip(p0, p1, p2, p3):
        v3 = q3 / c3
        v2 = (q2 - v3 * a2) / c2
        v1 = (q1 - v2 * a1 - v3 * b1) / c1
        a = q0 - v3 * v3 - v2 * v2 - v1 * v1
        if not a > 0.0:
            return None
        a = math.sqrt(a)
        d.append(a)
        l1.append(v1)
        l2.append(v2)
        l3.append(v3)
        c1, c2, c3 = a, c1, c2
        a1, a2, b1 = v1, a1, v2
    return d, l1, l2, l3


def _band_substitute(factor, b):
    """Solve L L^T y = b for the factor of `_band_factor`."""
    d, l1, l2, l3 = factor
    z, z1, z2, z3 = [], 0.0, 0.0, 0.0               # z = L^-1 b
    for a, v1, v2, v3, c in zip(d, l1, l2, l3, b):
        z1, z2, z3 = (c - v3 * z3 - v2 * z2 - v1 * z1) / a, z1, z2
        z.append(z1)
    y, y1, y2, y3 = [], 0.0, 0.0, 0.0               # y = L^-T z
    for a, c, v1, v2, v3 in zip(reversed(d), reversed(z),
                                reversed(l1[1:] + [0.0]),
                                reversed(l2[2:] + [0.0, 0.0]),
                                reversed(l3[3:] + [0.0, 0.0, 0.0])):
        y1, y2, y3 = (c - v1 * y1 - v2 * y2 - v3 * y3) / a, y1, y2
        y.append(y1)
    return np.array(y[::-1])


def _band_solve(p, b):
    """Solve P y = b as in `_band_factor`, or return None unless P is
    positive definite."""
    factor = _band_factor(p)
    return None if factor is None else _band_substitute(factor, b)


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
    factor = None  # the connection factor at the top size, built once
    for n in sizes:
        if x is not None:
            # each vector is a running product: its prefix is the size-n factor
            if factor is None:
                factor = model.connection_factor(alpha, gamma, sizes[-1])
            out = _banded_rung(np.concatenate((x, np.zeros(n - len(x)))),
                               params, [v[:n] for v in factor], int(alpha) // 2)
            if out is not None:
                value, width, x = out
                yield n, value, width
                continue
            x = None
        h = build_hamiltonian(params, n)
        # The first rung seeds the banded path where B^-1 has at most four
        # diagonals and Temple's bound applies: H_00 < 2 gamma + 4.
        if (n == sizes[0] and alpha in model.CLOSED_FORM_ALPHAS
                and h[0, 0] < 2.0 * gamma + 4.0):
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
