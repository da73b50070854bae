"""Problem definition for the generalized spiked harmonic oscillator

    H = -d^2/dx^2 + x^2 + A/x^2 + lam / x^alpha   on (0, inf),

with the exactly solvable unperturbed part H0 = -d^2/dx^2 + x^2 + A/x^2.
The unperturbed eigenfunctions psi_n and energies 4n + 2*gamma, with
gamma = 1 + sqrt(1+4A)/2, form the working basis; this module supplies the
basis, the perturbation matrix elements V_nm = (psi_n, x^-alpha psi_m)
(every table, and the V_0i column, from one connection factor V = B B^T
of the Laguerre connection formula for every alpha with 2*gamma > alpha;
the elementwise hypergeometric form and the closed forms for alpha in
{2,4,6} as references), the first-order wavefunction correction phi1,
and the quadrature scheme for inner products on the half-line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, digamma, ln_gamma, ln_pochhammer, trigamma

CLOSED_FORM_ALPHAS = (2, 4, 6)


@dataclass(frozen=True)
class OscillatorParams:
    """A physical problem instance.  gamma is derived from A; use
    make_params so the two can never disagree."""

    A: float
    alpha: float
    lam: float
    gamma: float


def gamma_from_A(A: float) -> float:
    return 1.0 + 0.5 * math.sqrt(1.0 + 4.0 * A)


def make_params(A: float, alpha: float, lam: float) -> OscillatorParams:
    if not all(map(math.isfinite, (A, alpha, lam))):
        raise DomainError("A, alpha and lambda must be finite: %r, %r, %r"
                          % (A, alpha, lam))
    if A < 0.0:
        raise DomainError("constraint A >= 0 violated: A = %g" % A)
    if alpha <= 0.0:
        raise DomainError("constraint alpha > 0 violated: alpha = %g" % alpha)
    if lam < 0.0:
        raise DomainError("constraint lambda >= 0 violated: lambda = %g" % lam)
    g = gamma_from_A(A)
    if 2.0 * g <= alpha:
        raise DomainError(
            "constraint 2*gamma > alpha violated: 2*%g <= %g" % (g, alpha))
    return OscillatorParams(A=float(A), alpha=float(alpha), lam=float(lam),
                            gamma=g)


def effective_A(A: float, l: int, n_dim: int) -> float:
    """Coupling that maps the N-dimensional radial problem with angular
    momentum l onto the one-dimensional form:
    A + (l + (N-1)/2)(l + (N-3)/2)."""
    if n_dim < 1:
        raise DomainError("n_dim must be >= 1")
    return A + (l + (n_dim - 1) / 2.0) * (l + (n_dim - 3) / 2.0)


def basis_energy(n: int, gamma: float) -> float:
    return 4.0 * n + 2.0 * gamma


def basis_eval(n: int, gamma: float, x):
    """Unperturbed eigenfunction psi_n at x > 0 (vectorized in x).

    psi_n(x) = (-1)^n sqrt(2 (gamma)_n / (n! Gamma(gamma)))
               x^(gamma-1/2) exp(-x^2/2) 1F1(-n; gamma; x^2),
    evaluated through the generalized Laguerre three-term recurrence to
    keep large n stable.
    """
    x = np.asarray(x, dtype=float)
    z = x * x
    a = gamma - 1.0
    lk = np.zeros_like(z)
    lk1 = np.ones_like(z)          # L_0
    if n >= 1:
        lk, lk1 = lk1, 1.0 + a - z  # L_1
    for k in range(1, n):
        lk, lk1 = lk1, ((2.0 * k + 1.0 + a - z) * lk1 - (k + a) * lk) / (k + 1.0)
    # 1F1(-n;gamma;z) = n!/(gamma)_n L_n^(gamma-1)(z); fold the conversion
    # into the normalization: coefficient sqrt(2 n! / ((gamma)_n Gamma(gamma)))
    ln_coef = 0.5 * (math.log(2.0) + ln_gamma(n + 1.0) - ln_gamma(gamma + n))
    sign = -1.0 if n % 2 else 1.0
    out = sign * np.exp(ln_coef + (gamma - 0.5) * np.log(x) - 0.5 * z) * lk1
    return out if out.ndim else float(out)


def matrix_element_general(i: int, j: int, alpha: float, gamma: float) -> float:
    """V_ij = (psi_i, x^-alpha psi_j) in hypergeometric form, valid for any
    alpha with 2*gamma > alpha.

    The printed form carries a terminating 3F2 whose first parameter is the
    negative of the smaller index, so the arguments are swapped first;
    symmetry in (i, j) then holds by construction.
    """
    if 2.0 * gamma <= alpha:
        raise DomainError("matrix elements need 2*gamma > alpha")
    if j > i:
        i, j = j, i
    h = alpha / 2.0
    ln_pref = (ln_pochhammer(h, i) + ln_gamma(gamma - h) - ln_gamma(gamma)
               - ln_pochhammer(gamma, i)
               + 0.5 * (ln_pochhammer(gamma, i) + ln_pochhammer(gamma, j)
                        - ln_gamma(i + 1.0) - ln_gamma(j + 1.0)))
    sign = -1.0 if (i + j) % 2 else 1.0
    # terminating 3F2(-j, gamma-h, 1-h; gamma, 1-i-h; 1)
    t = 1.0
    total = 1.0
    for k in range(j):
        t *= ((-j + k) * (gamma - h + k) * (1.0 - h + k)
              / ((gamma + k) * (1.0 - i - h + k) * (k + 1.0)))
        total += t
    return sign * math.exp(ln_pref) * total


def _closed_gamma_check(alpha: int, gamma: float):
    limits = {2: 1.0, 4: 2.0, 6: 3.0}
    if alpha not in limits:
        raise DomainError("closed matrix elements exist for alpha in (2, 4, 6)")
    if gamma <= limits[alpha]:
        raise DomainError(
            "closed matrix elements for alpha=%d need gamma > %g" % (alpha, limits[alpha]))


def matrix_element_closed(n: int, m: int, alpha: int, gamma: float) -> float:
    """Closed-form V_nm for alpha in {2, 4, 6} (branch-symmetric)."""
    _closed_gamma_check(alpha, gamma)
    if n > m:
        n, m = m, n
    g = gamma
    half = math.exp(0.5 * (ln_gamma(m + 1.0) + ln_gamma(g + n)
                           - ln_gamma(n + 1.0) - ln_gamma(g + m)))
    sign = -1.0 if (n + m) % 2 else 1.0
    if alpha == 2:
        return sign * math.exp(ln_gamma(g - 1.0) - ln_gamma(g)) * half
    if alpha == 4:
        return (sign * math.exp(ln_gamma(g - 2.0) - ln_gamma(g + 1.0)) * half
                * (g * (m - n + 1.0) + 2.0 * n))
    bracket = ((2.0 + m) * (1.0 + m) * g * (g + 1.0)
               - 2.0 * n * (1.0 + m) * (g - 3.0) * (g + 1.0)
               - n * (1.0 - n) * (g - 2.0) * (g - 3.0))
    return (sign * math.exp(ln_gamma(g - 3.0) - ln_gamma(g + 2.0)) * half
            * bracket / 2.0)


def connection_factor(alpha: float, gamma: float, size: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factor B of V = B B^T, for any alpha with 2*gamma > alpha, as
    three vectors (left, t, right): B = diag(left) T diag(right) with T the
    lower-triangular Toeplitz matrix T_nk = t[n-k], k <= n.

    With h = alpha/2 the Laguerre connection formula (DLMF 18.18(iii))
    gives left_n = (-1)^n sqrt(n!/(gamma)_n), t_m = (h)_m/m! and
    right_k = sqrt(Gamma(k+gamma-h)/(k! Gamma(gamma))); for h > 0 every
    summand of B B^T is positive.  Each vector is a running product of
    ratios, so nothing overflows or cancels at large n.
    """
    if size < 1:
        raise DomainError("table size must be >= 1")
    if not 2.0 * gamma > alpha:
        raise DomainError("matrix elements need 2*gamma > alpha")
    h = alpha / 2.0
    k = np.arange(1.0, size)
    root_p = np.cumprod(np.sqrt(np.r_[1.0, (gamma - 1.0 + k) / k]))
    right = np.cumprod(np.sqrt(np.r_[math.exp(ln_gamma(gamma - h) - ln_gamma(gamma)),
                                     (gamma - h - 1.0 + k) / k]))
    t = np.cumprod(np.r_[1.0, (h - 1.0 + k) / k])
    left = np.where(np.arange(size) % 2, -1.0, 1.0) / root_p
    return left, t, right


def matrix_element_table(alpha: float, gamma: float, size: int) -> np.ndarray:
    """Symmetric N x N table V = B B^T from the connection factor."""
    left, t, right = connection_factor(alpha, gamma, size)
    # T[n, k] = t[n-k] for k <= n, else 0: a view of the zero-padded t
    toeplitz = np.lib.stride_tricks.sliding_window_view(
        np.r_[np.zeros(size - 1), t], size)[:, ::-1]
    b = toeplitz * left[:, None] * right
    return b @ b.T


# ---------------------------------------------------------------------------
# First-order wavefunction correction phi1 for alpha in {2, 4, 6}.
#
# All three closed forms share the structure
#     phi1(x) = C x^(gamma-1/2) exp(-x^2/2) *
#               sum_k (c_k + q_k * (log x^2 - psi(gamma))) x^(-2k),
# with C = Gamma(gamma - alpha/2) / (2 sqrt(2) Gamma(gamma) sqrt(Gamma(gamma)))
# and c_k, q_k rational in gamma.
# ---------------------------------------------------------------------------


def phi1_structure(alpha: int, gamma: float):
    """The rational coefficients (c_k, q_k) of the x^(-2k) terms."""
    if alpha not in CLOSED_FORM_ALPHAS:
        raise DomainError("phi1 closed forms exist for alpha in (2, 4, 6)")
    if gamma <= alpha / 2.0:
        raise DomainError("phi1 for alpha=%d needs gamma > %g"
                          % (alpha, alpha / 2.0))
    g = gamma
    if alpha == 2:
        return [(0.0, 1.0)]
    if alpha == 4:
        return [(1.0, 1.0), (-(g - 1.0), 0.0)]
    return [(1.5, 1.0), (-(g - 1.0), 0.0), (-(g - 1.0) * (g - 2.0) / 2.0, 0.0)]


def phi1_eval(x, alpha: int, gamma: float):
    """First-order wavefunction correction (vectorized in x > 0)."""
    coeffs = phi1_structure(alpha, gamma)
    C = math.exp(ln_gamma(gamma - alpha / 2.0) - 1.5 * ln_gamma(gamma)
                 ) / (2.0 * math.sqrt(2.0))
    x = np.asarray(x, dtype=float)
    z = x * x
    L = np.log(z) - digamma(gamma)
    acc = np.zeros_like(z)
    for k, (c, q) in enumerate(coeffs):
        acc = acc + (c + q * L) * z ** (-float(k))
    out = C * np.exp((gamma - 0.5) * np.log(x) - 0.5 * z) * acc
    return out if out.ndim else float(out)


# With s = gamma - m, the moments int_0^inf x^(2s-1) e^(-x^2) (log x^2 -
# psi(gamma))^j dx are Gamma(s)/2 times 1, dpsi and dpsi^2 + psi'(s) for
# j = 0, 1, 2, where dpsi = psi(s) - psi(gamma); and C^2 Gamma(s)/2 =
# eps1^2/16 Gamma(gamma-m)/Gamma(gamma).  m is whole, so the integer-shift
# recurrences (DLMF 5.5.1, 5.5.2, 5.15.5) make every factor but psi'(gamma)
# rational in gamma, and continue the moments analytically in gamma where
# the integral diverges at the origin.

_POLE_TOL = 1e-9


def phi1_weighted_overlap(alpha: int, gamma: float, beta: float) -> float:
    """(phi1, x^(-beta) phi1) for whole beta/2 >= 0, termwise by the moments
    above.  It equals the integral only for gamma > beta/2 + alpha - 2;
    below that it is the analytic continuation in gamma, whose poles at
    whole gamma <= beta/2 + alpha - 2 raise a domain error."""
    coeffs = phi1_structure(alpha, gamma)
    if not 0.0 <= beta < math.inf or beta % 2.0:
        raise DomainError("phi1_weighted_overlap needs beta/2 a whole number "
                          ">= 0, got beta = %r" % beta)
    b, h = int(beta) // 2, int(alpha) // 2
    # moments[m] = (Gamma(gamma-m)/Gamma(gamma), dpsi, psi'(gamma-m))
    r, d, t = 1.0, 0.0, trigamma(gamma)
    moments = [(r, d, t)]
    for j in range(1, max(b + 2 * len(coeffs) - 2, h) + 1):
        s = gamma - j
        if abs(s) < _POLE_TOL:
            raise DomainError("phi1 moments have a pole at gamma = %g" % gamma)
        r, d, t = r / s, d - 1.0 / s, t + 1.0 / (s * s)
        moments.append((r, d, t))
    total = 0.0
    for k, (c, q) in enumerate(coeffs):
        for kp, (cp, qp) in enumerate(coeffs):
            r, d, t = moments[b + k + kp]
            total += r * (c * cp + (c * qp + q * cp) * d
                          + q * qp * (d * d + t))
    e1 = moments[h][0]  # Gamma(gamma - alpha/2) / Gamma(gamma)
    return e1 * e1 / 16.0 * total


# ---------------------------------------------------------------------------
# Quadrature on (0, inf): composite Gauss-Legendre panels in log x, sized
# so both the x^(2 gamma - 1 - alpha) small-x behavior (with log factors)
# and the Gaussian decay are resolved.
# ---------------------------------------------------------------------------

def half_line_nodes(x_min: float = 1e-20, x_max: float = 35.0,
                    panel_width: float = 0.25, order: int = 16):
    """Nodes and weights for int_0^inf f(x) dx (integrand assumed to decay
    inside [x_min, x_max]); log-substitution x = e^t."""
    t_lo, t_hi = math.log(x_min), math.log(x_max)
    npan = int(math.ceil((t_hi - t_lo) / panel_width))
    # imported here, so that only callers of the quadrature load it
    from numpy.polynomial.legendre import leggauss
    xg, wg = leggauss(order)
    edges = np.linspace(t_lo, t_hi, npan + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + hw[:, None] * xg[None, :]).ravel()
    w = (hw[:, None] * wg[None, :]).ravel()
    x = np.exp(t)
    return x, w * x  # dx = x dt


def integrate_half_line(f, x_min: float = 1e-20, x_max: float = 35.0,
                        panel_width: float = 0.25, order: int = 16) -> float:
    """Integrate a vectorized integrand over (0, inf)."""
    x, w = half_line_nodes(x_min, x_max, panel_width, order)
    return float(np.dot(w, f(x)))


def integrate_checked(f, rel_tol: float = 1e-10, **kw) -> float:
    """Integrate and verify by node doubling; raises ConvergenceError when
    the two refinements disagree beyond rel_tol."""
    from .specfun import ConvergenceError
    order = kw.pop("order", 16)
    v1 = integrate_half_line(f, order=order, **kw)
    v2 = integrate_half_line(f, order=2 * order, **kw)
    scale = max(abs(v2), 1e-300)
    if abs(v1 - v2) > rel_tol * scale:
        raise ConvergenceError(
            "quadrature did not converge: %.3e vs %.3e" % (v1, v2))
    return v2
