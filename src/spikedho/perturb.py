"""Rayleigh-Schrodinger perturbation coefficients eps1, eps2, eps3 for the
spiked perturbation lam / x^alpha, in three independent ways:

* closed rational/trigamma forms (alpha in {2, 4, 6});
* forms valid for general alpha: eps1 as a gamma-function ratio, and eps2
  as that ratio squared times a 4F3 at unit argument, summed by an
  integer-shift recurrence of positive terms instead of by `pfq`;
* brute-force truncations of the sum-over-states formulas, which act as
  oracles for the other two.

Also the squared norm (phi1, phi1) of the first-order wavefunction
correction, a unit-argument 5F4 and the one `pfq` of this module (the
resummation 4F3 of `series` is the other), and the truncated energy
E_p(lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import model
from .specfun import (ConvergenceError, DomainError, HypergeometricSpec,
                      ln_gamma, pfq)


class SeriesValue(NamedTuple):
    """A truncated series value with an error estimate for the dropped
    tail (heuristic, scaled by a safety factor of two)."""

    value: float
    tail_estimate: float
    terms: int


def epsilon1(alpha: float, gamma: float) -> float:
    """First-order coefficient Gamma(gamma - alpha/2) / Gamma(gamma); for
    alpha in {2, 4, 6} the product 1 / prod_{j=1..alpha/2} (gamma - j)."""
    if 2.0 * gamma <= alpha:
        raise DomainError("epsilon1 needs 2*gamma > alpha")
    h = alpha / 2.0
    if alpha in model.CLOSED_FORM_ALPHAS:
        return 1.0 / math.prod(gamma - j for j in range(1, int(h) + 1))
    return math.exp(ln_gamma(gamma - h) - ln_gamma(gamma))


_SHIFT_DECAY = 30.0  # least start and decay power of the direct sums in S
_SHIFT_TERMS = 500   # term budget of each direct sum
_EPS_QUARTER = 0.25 * np.finfo(float).eps


def _second_order_sum(h: float, gamma: float) -> float:
    """S(h, gamma) = sum_{j>=1} (h)_j^2 / (j (gamma)_j j!) for gamma > 0
    and gamma + 1 > 2h, by an integer-shift recurrence of positive terms.

    With D(x) = 2F1(h, h; x+1; 1) - 1 = sum_{j>=1} (h)_j^2 / ((x+1)_j j!),
    S(h, x) - S(h, x+1) = D(x)/x, and Gauss's sum gives
    D(x) = (D(x+1) + q)/(1 - q) with q = h^2/(x+1-h)^2, where
    1 - q = (x+1)(x+1-2h)/(x+1-h)^2 does not cancel as 2h -> x + 1.
    gamma is shifted up by whole steps to an x0 >= 30 where the terms of
    S(h, x0) and D(x0) fall from j = 1 and like j^-(x0+2-2h), at least
    j^-30; both are summed there and the recurrence runs back to gamma.
    """
    k = max(_SHIFT_DECAY, _SHIFT_DECAY - 2.0 + 2.0 * h,
            (h * h + 2.0 * abs(h) - 1.0) / 2.0) - gamma
    shifts = max(0, math.ceil(k))
    x = gamma + shifts
    # The term ratio of S is 1 - N(j)/((j+1)^2 (x+j)) with
    # N(j) = a j^2 + (2x+1-h^2) j + x, a = x + 2 - 2h; that of D is
    # 1 - (a j + x+1-h^2)/((j+1)(x+1+j)).  Both ratios are at most
    # 1 - c/(j+1) <= (j/(j+1))^c for j >= J, with the c_J below, so the
    # terms after the J-th sum to at most (J-th term) J/(c_J - 1).
    a = x + 2.0 - 2.0 * h
    p_s, q_s = (x - h) ** 2 + (x + 1.0 - 2.0 * h), x * (x + 1.0 - 2.0 * h)
    p_d = (x + 1.0) * (x + 1.0 - 2.0 * h) + h * h
    t, u = h * h / x, h * h / (x + 1.0)      # the j = 1 terms of S and D
    s, d = t, u
    for j in range(1, _SHIFT_TERMS + 1):
        # c_J < a, so the bound is worth computing only once t J and u J
        # have fallen below eps/4 a times their sums
        if t * j <= _EPS_QUARTER * a * s and u * j <= _EPS_QUARTER * a * d:
            c_s = a - p_s / (j + x + 1.0) - q_s / (j * (j + x + 1.0))
            c_d = a - p_d / (j + x + 1.0)
            if (t * j <= _EPS_QUARTER * (c_s - 1.0) * s
                    and u * j <= _EPS_QUARTER * (c_d - 1.0) * d):
                break
        t *= j * (h + j) ** 2 / ((j + 1.0) ** 2 * (x + j))
        u *= (h + j) ** 2 / ((j + 1.0) * (x + 1.0 + j))
        s += t
        d += u
    else:
        raise ConvergenceError("S(%r, %r) not converged in %d terms"
                               % (h, x, _SHIFT_TERMS))
    for i in range(shifts - 1, -1, -1):
        x = gamma + i
        y = x + 1.0
        d = (d * (y - h) ** 2 + h * h) / (y * (y - 2.0 * h))
        s += d / x
    return s


def epsilon2_hypergeom(alpha: float, gamma: float) -> float:
    """Second-order coefficient -(1/4) (Gamma(gamma-h)/Gamma(gamma))^2 S
    with h = alpha/2 and S = sum_{j>=1} (h)_j^2 / (j (gamma)_j j!), that is
    -(alpha^2/(16 gamma)) (Gamma(gamma-h)/Gamma(gamma))^2
      * 4F3(1, 1, 1+h, 1+h; 2, 2, gamma+1; 1),
    valid for alpha < gamma + 1.  S comes from the integer-shift
    recurrence of `_second_order_sum`."""
    if not (math.isfinite(alpha) and math.isfinite(gamma)):
        raise DomainError("epsilon2_hypergeom needs finite alpha and gamma, "
                          "got %r, %r" % (alpha, gamma))
    if alpha >= gamma + 1.0:
        raise DomainError("epsilon2_hypergeom needs alpha < gamma + 1")
    if alpha == 0.0:
        return 0.0
    h = alpha / 2.0
    ratio = math.exp(2.0 * (ln_gamma(gamma - h) - ln_gamma(gamma)))
    return -0.25 * ratio * _second_order_sum(h, gamma)


_EPS2_GAMMA_MIN = {2: 1.0, 4: 3.0, 6: 5.0}
_EPS3_GAMMA_MIN = {2: 1.0, 4: 4.0, 6: 7.0}


def epsilon2_closed(alpha: int, gamma: float) -> float:
    """Closed second-order coefficient for alpha in {2, 4, 6}.

    The alpha=6 cubic coefficient set (40, -57, 24, -3) is the variant
    validated against the sum-over-states oracle (see tests); a competing
    transcription with cubic (40, -57, 8, -1) fails that check.
    """
    if alpha not in _EPS2_GAMMA_MIN:
        raise DomainError("epsilon2_closed supports alpha in (2, 4, 6)")
    if gamma <= _EPS2_GAMMA_MIN[alpha]:
        raise DomainError("epsilon2_closed(alpha=%d) needs gamma > %g"
                          % (alpha, _EPS2_GAMMA_MIN[alpha]))
    g = gamma
    if alpha == 2:
        return -1.0 / (4.0 * (g - 1.0) ** 3)
    if alpha == 4:
        return -(4.0 * g * g - 15.0 * g + 13.0) / (
            4.0 * (g - 1.0) ** 3 * (g - 2.0) ** 3 * (g - 3.0))
    e1 = 1.0 / ((g - 1.0) * (g - 2.0) * (g - 3.0))
    bracket = ((g - 2.0) * (g - 1.0) / ((g - 5.0) * (g - 4.0))
               + 2.0 * (g - 1.0) / (g - 4.0)
               + (40.0 - 57.0 * g + 24.0 * g * g - 3.0 * g ** 3)
               / ((g - 3.0) * (g - 2.0) * (g - 1.0)))
    # -(36/(16 g)) eps1^2 * 4F3(1,1,4,4;2,2,g+1;1), with the 4F3 in its
    # closed form (g/18) * bracket
    return -(36.0 / (16.0 * g)) * e1 * e1 * (g / 18.0) * bracket


def epsilon3_closed(alpha: int, gamma: float) -> float:
    """Closed third-order coefficient for alpha in {2, 4, 6}."""
    if alpha not in _EPS3_GAMMA_MIN:
        raise DomainError("epsilon3_closed supports alpha in (2, 4, 6)")
    if gamma <= _EPS3_GAMMA_MIN[alpha]:
        raise DomainError("epsilon3_closed(alpha=%d) needs gamma > %g"
                          % (alpha, _EPS3_GAMMA_MIN[alpha]))
    g = gamma
    if alpha == 2:
        # third Taylor coefficient of the exact energy 2 + 2 sqrt((g-1)^2 + lam)
        return 1.0 / (8.0 * (g - 1.0) ** 5)
    if alpha == 4:
        num = (16.0 * g ** 5 - 175.0 * g ** 4 + 742.0 * g ** 3
               - 1525.0 * g * g + 1520.0 * g - 590.0)
        return num / (8.0 * (g - 4.0) * (g - 3.0) ** 2
                      * (g - 2.0) ** 5 * (g - 1.0) ** 5)
    i1 = (192088.0 - 655905.0 * g + 945811.0 * g ** 2 - 751923.0 * g ** 3
          + 360811.0 * g ** 4 - 107151.0 * g ** 5 + 19257.0 * g ** 6
          - 1917.0 * g ** 7 + 81.0 * g ** 8)
    i2 = (8.0 * (g - 7.0) * (g - 5.0) ** 2 * (g - 4.0)
          * (g - 3.0) ** 5 * (g - 2.0) ** 5 * (g - 1.0) ** 5)
    return i1 / i2


def _series_tail(t_last: float, t_prev: float, n_last: int) -> float:
    """Tail estimate from the last term ratio, doubled for safety.

    Ratios approaching 1 like 1 - c/n signal power-law decay n^(-c); the
    plain geometric bound t r/(1-r) underestimates those tails by the
    factor c/(c-1), so the exponent is estimated and used instead.
    """
    if t_last == 0.0:
        return 0.0
    r = abs(t_last) / max(abs(t_prev), 1e-300)
    if r >= 1.0:
        return math.inf
    if r < 0.9:
        return 2.0 * abs(t_last) * r / (1.0 - r)
    c = n_last * (1.0 - r)
    if c <= 1.05:
        return math.inf
    return 2.0 * abs(t_last) * n_last / (c - 1.0)


def epsilon2_series(alpha: float, gamma: float, n_terms: int) -> SeriesValue:
    """Sum-over-states oracle -sum_i V_{0i}^2 / (4 i), truncated."""
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    left, t, right = model.connection_factor(alpha, gamma, n_terms + 1)
    v0 = right[0] ** 2 * left[1:] * t[1:]  # V_0i = B_00 B_i0
    i = np.arange(1, n_terms + 1, dtype=float)
    terms = v0 * v0 / (4.0 * i)
    value = -float(np.sum(terms))
    tail = 0.0 if n_terms < 2 else _series_tail(terms[-1], terms[-2], n_terms)
    return SeriesValue(value, tail, n_terms)


def _partial_tail(s_quarter: float, s_half: float, s_full: float) -> float:
    """Tail estimate from partial sums at M/4, M/2, M assuming power-law
    approach to the limit; doubled for safety."""
    d1 = abs(s_half - s_quarter)
    d2 = abs(s_full - s_half)
    if d2 == 0.0:
        return 0.0
    r = d2 / max(d1, 1e-300)
    if r >= 1.0:
        return math.inf
    return 2.0 * d2 * r / (1.0 - r)


def _double_state_sum(alpha: float, gamma: float, n_terms: int,
                      norm_weight: float) -> SeriesValue:
    """Truncation at M = n_terms of
        sum_{s,k<=M} V_{0s} V_{sk} V_{k0} / (16 s k)
          - norm_weight sum_{i<=M} V_{0i}^2 / (16 i^2),
    with a power-law tail estimate from the partial sums at M/4, M/2, M."""
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    left, t, right = model.connection_factor(alpha, gamma, n_terms + 1)
    v0 = right[0] ** 2 * left[1:] * t[1:]  # V_0i = B_00 B_i0
    i = np.arange(1, n_terms + 1, dtype=float)
    w = v0 / (4.0 * i)
    lw = left * np.r_[0.0, w]

    def partial(m):
        # w^T V[1:m+1, 1:m+1] w = |B[1:m+1, :m+1]^T w|^2, B lower triangular
        bw = right[:m + 1] * np.convolve(lw[m::-1], t[:m + 1])[m::-1]
        return (float(bw @ bw)
                - norm_weight * float(np.sum(v0[:m] ** 2 / (16.0 * i[:m] ** 2))))

    full = partial(n_terms)
    if n_terms >= 4:
        tail = _partial_tail(partial(n_terms // 4), partial(n_terms // 2), full)
    else:
        tail = math.inf
    return SeriesValue(full, tail, n_terms)


def epsilon3_series(alpha: float, gamma: float, n_terms: int) -> SeriesValue:
    """Double sum-over-states oracle
    sum_{s,k} V_{0s} V_{sk} V_{k0} / (16 s k) - eps1 sum_i V_{0i}^2 / (16 i^2)."""
    return _double_state_sum(alpha, gamma, n_terms, epsilon1(alpha, gamma))


def phi1_norm_sq(alpha: float, gamma: float) -> float:
    """(phi1, phi1) = (alpha^2/(64 gamma)) (Gamma(gamma-alpha/2)/Gamma(gamma))^2
    * 5F4(1, 1, 1, alpha/2+1, alpha/2+1; 2, 2, 2, gamma+1; 1),
    valid for alpha < gamma + 2."""
    if alpha >= gamma + 2.0:
        raise DomainError("phi1_norm_sq needs alpha < gamma + 2")
    if alpha == 0.0:
        return 0.0
    h = alpha / 2.0
    f = pfq(HypergeometricSpec((1.0, 1.0, 1.0, h + 1.0, h + 1.0),
                               (2.0, 2.0, 2.0, gamma + 1.0), 1.0))
    ratio = math.exp(2.0 * (ln_gamma(gamma - h) - ln_gamma(gamma)))
    return (alpha * alpha / (64.0 * gamma)) * ratio * f


@dataclass(frozen=True)
class PerturbationCoefficients:
    """E0 and the first three energy coefficients, with per-order validity.

    Coefficients whose gamma precondition fails are None, never zero.
    """

    E0: float
    eps1: float
    eps2: Optional[float]
    eps3: Optional[float]
    valid_order: int

    def energy(self, lam: float, p: int) -> float:
        """Truncated energy E_p(lam) = E0 + sum_{i<=p} lam^i eps_i."""
        if p not in (1, 2, 3):
            raise DomainError("order p must be 1, 2 or 3")
        if p > self.valid_order:
            raise DomainError("order %d coefficients unavailable (valid "
                              "order is %d)" % (p, self.valid_order))
        out = self.E0 + lam * self.eps1
        if p >= 2:
            out += lam * lam * self.eps2
        if p >= 3:
            out += lam ** 3 * self.eps3
        return out


def coefficients(params: model.OscillatorParams) -> PerturbationCoefficients:
    a, g = params.alpha, params.gamma
    e1 = epsilon1(a, g)
    e2 = e3 = None
    order = 1
    if a in model.CLOSED_FORM_ALPHAS:
        ia = int(a)
        if g > _EPS2_GAMMA_MIN[ia]:
            e2 = epsilon2_closed(ia, g)
            order = 2
            if g > _EPS3_GAMMA_MIN[ia]:
                e3 = epsilon3_closed(ia, g)
                order = 3
    elif a < g + 1.0:
        e2 = epsilon2_hypergeom(a, g)
        order = 2
    return PerturbationCoefficients(E0=2.0 * g, eps1=e1, eps2=e2, eps3=e3,
                                    valid_order=order)


def energy_series(params: model.OscillatorParams, p: int) -> float:
    """Truncated energy E_p(lam) from the closed coefficient forms."""
    return coefficients(params).energy(params.lam, p)
