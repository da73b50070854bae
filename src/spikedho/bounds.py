"""Upper bound from the truncated expansion and symmetric lower/upper
bounds for the ground-state energy.

The symmetric bounds follow the residual-norm construction: with the
normalized trial state phi = N1 (psi0 + lam phi1) and the truncated energy
E_p(lam), the quantity ||mu|| = ||(H - E_p) phi|| brackets the exact
eigenvalue:  E_p - ||mu|| <= E <= E_p + ||mu||.
R = (phi1, (V - eps1)^2 phi1) in ||mu|| is finite as an integral only for
gamma > 2 alpha - 2; below that residual_integral gives its analytic
continuation in gamma, and E_p -/+ ||mu|| is not proven to bracket E there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from . import model, perturb
from .specfun import ConvergenceError, DomainError


def _third_order_coefficients(params: model.OscillatorParams
                              ) -> perturb.PerturbationCoefficients:
    co = perturb.coefficients(params)
    if co.valid_order < 3:
        raise DomainError(
            "third-order coefficients unavailable at alpha=%g, gamma=%g "
            "(need alpha in (2, 4, 6) with admissible gamma)"
            % (params.alpha, params.gamma))
    return co


def variational_upper(params: model.OscillatorParams,
                      normalized: bool = False) -> float:
    """Third-order upper estimate E0 + eps1 lam + eps2 lam^2 + eps3 lam^3.

    The default (bare truncated series) is what the reference tabulation
    in the fixtures records.  With normalized=True the second- and
    third-order terms are divided by 1 + lam^2 (phi1, phi1), which is the
    Rayleigh quotient of the trial state psi0 + lam phi1 and therefore a
    guaranteed upper bound.
    """
    co = _third_order_coefficients(params)
    lam = params.lam
    if not normalized:
        return co.energy(lam, 3)
    pns = perturb.phi1_norm_sq(params.alpha, params.gamma)
    correction = lam * lam * co.eps2 + lam ** 3 * co.eps3
    correction /= 1.0 + lam * lam * pns
    return co.E0 + lam * co.eps1 + correction


_RESIDUAL_GAMMA_MIN = {2: 2.0, 4: 4.0, 6: 6.0}


def residual_integral(alpha: int, gamma: float) -> float:
    """R = (phi1, (V - eps1)^2 phi1) with V = x^(-alpha), from the moments
    (phi1, x^(-2 alpha) phi1) - 2 eps1 (phi1, x^(-alpha) phi1)
    + eps1^2 (phi1, phi1): rational in gamma plus a multiple of psi'(gamma),
    and equal to the integral only for gamma > 2 alpha - 2."""
    if alpha not in _RESIDUAL_GAMMA_MIN:
        raise DomainError("residual_integral supports alpha in (2, 4, 6)")
    if gamma <= _RESIDUAL_GAMMA_MIN[alpha]:
        raise DomainError("residual_integral for alpha=%d needs gamma > %g"
                          % (alpha, _RESIDUAL_GAMMA_MIN[alpha]))
    e1 = perturb.epsilon1(alpha, gamma)
    return (model.phi1_weighted_overlap(alpha, gamma, 2.0 * alpha)
            - 2.0 * e1 * model.phi1_weighted_overlap(alpha, gamma, float(alpha))
            + e1 * e1 * model.phi1_weighted_overlap(alpha, gamma, 0.0))


@dataclass(frozen=True)
class BoundReport:
    """Everything the bounding machinery produces for one parameter set."""

    params: model.OscillatorParams
    per_order: Dict[int, Tuple[float, float, float]]  # p -> (lower, upper, norm)
    variational_upper: float
    optimal: Tuple[float, float]
    optimal_valid: bool


def bound_report(params: model.OscillatorParams) -> BoundReport:
    """Symmetric bounds E_p -/+ ||mu_p|| for p = 1, 2, 3, the optimal pair
    and the variational estimate, from one set of lambda-independent
    constants (the coefficients, (phi1, phi1) and the residual integral R).

    With the normalized trial state N1 (psi0 + lam phi1),

        ||mu_p||^2 = N1^2 lam^4 R + Delta_p^2
                     - 2 N1^2 Delta_p lam^2 (eps2 + lam eps3),

    with Delta_p = sum_{i=2..p} lam^i eps_i (so Delta_1 = 0).  The cross
    terms use (psi0, (V-eps1) phi1) = eps2 and (phi1, (V-eps1) phi1) = eps3
    exactly.  The optimal pair is the lower bound of p=1 with the upper
    bound of p=2; it relies on the ordering E_1 > E_3 > E_2, which holds
    for lam < |eps2| / eps3, and optimal_valid records that condition.
    """
    co = _third_order_coefficients(params)
    a, g, lam = params.alpha, params.gamma, params.lam
    R = residual_integral(int(a), g)
    n1sq = 1.0 / (1.0 + lam * lam * perturb.phi1_norm_sq(a, g))
    d2 = lam * lam * co.eps2
    per_order = {}
    for p, delta in ((1, 0.0), (2, d2), (3, d2 + lam ** 3 * co.eps3)):
        radicand = n1sq * lam ** 4 * R
        if p > 1:
            radicand = (radicand + delta * delta
                        - 2.0 * n1sq * delta * lam * lam
                        * (co.eps2 + lam * co.eps3))
        if radicand < 0.0:
            raise ConvergenceError(
                "negative residual-norm radicand (%g): inconsistent "
                "coefficients" % radicand)
        mu = math.sqrt(radicand)
        ep = co.energy(lam, p)
        per_order[p] = (ep - mu, ep + mu, mu)
    valid = co.eps3 > 0.0 and lam < abs(co.eps2) / co.eps3
    return BoundReport(params=params, per_order=per_order,
                       variational_upper=co.energy(lam, 3),
                       optimal=(per_order[1][0], per_order[2][1]),
                       optimal_valid=valid)
