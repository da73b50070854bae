"""Closed-form evaluators and brute-force truncation oracles for the
single and double infinite series identities behind the third-order
coefficients.

The central object is the double sum

    S(alpha, gamma) = sum_{n,m>=1} V_0n V_nm V_m0 / (16 n m)
                    = (phi1, x^(-alpha) phi1),

which has trigamma closed forms for alpha in {2, 4, 6}.  The long
polynomial numerators are stored as explicit coefficient lists; a
dedicated transcription test compares them against independently written
factored/expanded forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import perturb
from .perturb import SeriesValue
from .specfun import (DomainError, HypergeometricSpec, gauss_2f1_unit,
                      pfq, trigamma)


_AGREE_ABS_FLOOR = 1e-12  # absolute slack of SeriesCheck.agrees


@dataclass(frozen=True)
class SeriesCheck:
    """Closed value vs truncated oracle, with the truncation's own tail
    estimate.  The agreement flag is derived, never stored."""

    closed_value: float
    truncated_value: float
    terms_used: Union[int, tuple]
    tail_estimate: float

    @property
    def agrees(self) -> bool:
        return bool(abs(self.closed_value - self.truncated_value)
                    <= self.tail_estimate + _AGREE_ABS_FLOOR)


def double_sum_truncated(alpha: int, gamma: float, m_terms: int) -> SeriesValue:
    """Truncation sum_{n,m=1}^{M} V_0n V_nm V_m0 / (16 n m), with a
    power-law tail estimate extrapolated from the partial sums at M/4,
    M/2, M."""
    return perturb._double_state_sum(alpha, gamma, m_terms, 0.0)


# Polynomial numerators of the rational parts, low degree first.
_DS4_NUM = (-820.0, 1954.0, -1753.0, 694.0, -90.0, -12.0, 3.0)
_DS6_NUM = (522652.0, -1717440.0, 2371931.0, -1785046.0, 792061.0,
            -206964.0, 28725.0, -1158.0, -169.0, 16.0)


def _poly(coeffs, g: float) -> float:
    out = 0.0
    for c in reversed(coeffs):
        out = out * g + c
    return out


def double_sum_closed(alpha: int, gamma: float) -> float:
    """Trigamma closed form of the double sum, for alpha in {2, 4, 6}.

    Validity: gamma > 1, > 4, > 7 respectively.
    """
    g = gamma
    if alpha == 2:
        if g <= 1.0:
            raise DomainError("double_sum_closed(alpha=2) needs gamma > 1")
        return (1.0 / (8.0 * (g - 1.0) ** 5)
                + trigamma(g) / (16.0 * (g - 1.0) ** 3))
    if alpha == 4:
        if g <= 4.0:
            raise DomainError("double_sum_closed(alpha=4) needs gamma > 4")
        den = 16.0 * (g - 4.0) * (g - 3.0) ** 2 * (g - 2.0) ** 5 * (g - 1.0) ** 5
        return (_poly(_DS4_NUM, g) / den
                + trigamma(g) / (16.0 * (g - 2.0) ** 3 * (g - 1.0) ** 3))
    if alpha == 6:
        if g <= 7.0:
            raise DomainError("double_sum_closed(alpha=6) needs gamma > 7")
        den = (32.0 * (g - 7.0) * (g - 5.0) ** 2 * (g - 4.0)
               * (g - 3.0) ** 5 * (g - 2.0) ** 5 * (g - 1.0) ** 5)
        return (_poly(_DS6_NUM, g) / den
                + trigamma(g) / (16.0 * (g - 3.0) ** 3
                                 * (g - 2.0) ** 3 * (g - 1.0) ** 3))
    raise DomainError("double_sum_closed supports alpha in (2, 4, 6)")


# ---------------------------------------------------------------------------
# Resummation identity for the A = 0 (gamma = 3/2) second-order series:
#
#   sum_{i>=1} (a/2)_i^2 / (4 i (3/2)_i i!)
#     = [2F1(a/2-1, a/2-1; 1/2; 1) - 1 - 2 (a/2-1)^2] / (8 (a/2-1)^2)
#       + sum_{i>=1} (a/2)_i^2 / (4 i (i+1) (3/2)_i i!),
#
# with the second series summing to (a^2/48) 4F3(a/2+1, a/2+1, 1, 1;
# 2, 3, 5/2; 1).  Both sides converge for a < 5/2; the first term has a
# removable singularity at a = 2 with limit pi^2/16 - 1/4.
# ---------------------------------------------------------------------------

def _resummation_first_term(alpha: float) -> float:
    h1 = alpha / 2.0 - 1.0
    f = gauss_2f1_unit(h1, h1, 0.5)
    return (f - 1.0 - 2.0 * h1 * h1) / (8.0 * h1 * h1)


def resummation_check(alpha: float, n_terms: int = 20000) -> SeriesCheck:
    """Compare the direct series against its split closed form."""
    if alpha >= 2.5:
        raise DomainError("resummation identity needs alpha < 5/2")
    if abs(alpha - 2.0) < 1e-9:
        raise DomainError("alpha = 2 is the removable-singularity point; "
                          "use resummation_limit")
    h = alpha / 2.0
    i = np.arange(n_terms, dtype=float)
    # cumulative product of (h+i)^2 / ((3/2+i)(i+1)) gives (h)_k^2/((3/2)_k k!)
    ratios = ((h + i) ** 2) / ((1.5 + i) * (i + 1.0))
    terms = np.cumprod(ratios) / (4.0 * np.arange(1, n_terms + 1))
    truncated = float(np.sum(terms))
    tail = perturb._series_tail(float(terms[-1]), float(terms[-2]), n_terms)
    second = (alpha * alpha / 48.0) * pfq(HypergeometricSpec(
        (h + 1.0, h + 1.0, 1.0, 1.0), (2.0, 3.0, 2.5), 1.0))
    closed = _resummation_first_term(alpha) + second
    return SeriesCheck(closed_value=closed, truncated_value=truncated,
                       terms_used=n_terms, tail_estimate=tail)


def resummation_limit(h: float = 1e-4) -> float:
    """alpha -> 2 limit of the resummation identity's first term, by
    Richardson extrapolation of symmetric evaluations at 2 +- h and
    2 +- h/2 (the exact limit is pi^2/16 - 1/4)."""
    def sym(step):
        return 0.5 * (_resummation_first_term(2.0 - step)
                      + _resummation_first_term(2.0 + step))

    a_h = sym(h)
    a_h2 = sym(h / 2.0)
    return (4.0 * a_h2 - a_h) / 3.0


def trigamma_series_identity(gamma: float, n_terms: int = 20000) -> SeriesCheck:
    """sum_{i>=1} i! / ((i+1) (gamma)_i)  =  (gamma-1) psi'(gamma-1) - 1,
    checked by truncation.  The sum equals (1/(2 gamma)) 3F2(1, 2, 2;
    3, gamma+1; 1), which tests may verify separately."""
    if gamma <= 1.0:
        raise DomainError("identity needs gamma > 1")
    # t_1 = 1/(2 gamma); ratio t_{i+1}/t_i = (i+1)^2 / ((i+2)(gamma+i)), i >= 1
    i = np.arange(1, n_terms, dtype=float)
    ratios = ((i + 1.0) ** 2) / ((i + 2.0) * (gamma + i))
    terms = np.cumprod(np.concatenate(([1.0 / (2.0 * gamma)], ratios)))
    truncated = float(np.sum(terms))
    tail = perturb._series_tail(float(terms[-1]), float(terms[-2]), n_terms)
    closed = (gamma - 1.0) * trigamma(gamma - 1.0) - 1.0
    return SeriesCheck(closed_value=closed, truncated_value=truncated,
                       terms_used=n_terms, tail_estimate=tail)
