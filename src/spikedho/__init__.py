"""Perturbation expansions, variational estimates and symmetric eigenvalue
bounds for generalized spiked harmonic oscillators

    H = -d^2/dx^2 + x^2 + A/x^2 + lambda / x^alpha   on (0, inf).
"""

from .bounds import bound_report, variational_upper
from .model import make_params
from .perturb import coefficients, energy_series
from .solver import ground_state
from .specfun import DomainError

__version__ = "0.1.0"
