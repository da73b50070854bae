"""Perturbation expansions, variational estimates and symmetric eigenvalue
bounds for generalized spiked harmonic oscillators

    H = -d^2/dx^2 + x^2 + A/x^2 + lambda / x^alpha   on (0, inf).
"""

from .bounds import (BoundReport, bound_report, residual_integral,
                     variational_upper)
from .model import (MatrixElementTable, OscillatorParams, basis_energy,
                    basis_eval, effective_A, make_params,
                    matrix_element_closed, matrix_element_general,
                    matrix_element_table, phi1_eval)
from .perturb import (PerturbationCoefficients, coefficients, energy_series,
                      epsilon1, epsilon2_closed, epsilon2_hypergeom,
                      epsilon2_series, epsilon3_closed, epsilon3_series,
                      phi1_norm_sq)
from .series import (SeriesCheck, double_sum_closed, double_sum_truncated,
                     resummation_check, resummation_limit,
                     trigamma_series_identity)
from .solver import SpectrumResult, build_hamiltonian, ground_state
from .specfun import (ConvergenceError, DomainError, HypergeometricSpec,
                      digamma, gauss_2f1_unit, ln_gamma, pfq, pochhammer,
                      shifted_4f3, trigamma)

__version__ = "0.1.0"
