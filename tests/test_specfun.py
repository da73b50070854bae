"""Special-function kernel tests.

Reference values were computed once with 30-digit arithmetic and frozen
here as literals; everything else is checked through internal identities
(recurrences, Gauss summation, parameter-shift reductions).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spikedho import specfun
from spikedho.specfun import (ConvergenceError, DomainError,
                              HypergeometricSpec, digamma, gamma_value,
                              gauss_2f1_unit, ln_gamma, ln_pochhammer, pfq,
                              pochhammer, shifted_4f3, trigamma)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------

LN_GAMMA_REFS = (
    (0.5, 0.5723649429247000870717),
    (10.3, 13.48203678613835697062),
    (123.456, 469.6055471299294687301),
)

DIGAMMA_REFS = (
    (1.0, -0.5772156649015328606065),
    (4.5, 1.388870926359528901511),
    (77.7, 4.346406448064601870216),
)

TRIGAMMA_REFS = (
    (0.5, 4.934802200544679309417),   # pi^2 / 2
    (1.0, 1.644934066848226436472),   # pi^2 / 6
    (33.3, 0.03048544409533888514884),
)


def test_ln_gamma_reference_values():
    for x, ref in LN_GAMMA_REFS:
        assert rel_err(ln_gamma(x), ref) < 1e-13


def test_ln_gamma_integers():
    assert abs(ln_gamma(1.0)) < 1e-14
    assert abs(ln_gamma(2.0)) < 1e-14
    assert rel_err(gamma_value(5.0), 24.0) < 1e-13
    assert rel_err(gamma_value(0.5), math.sqrt(math.pi)) < 1e-13


def test_ln_gamma_array_matches_scalar():
    xs = np.array([0.7, 1.0, 4.5, 12.0, 80.0])
    out = ln_gamma(xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert v == ln_gamma(float(x))


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-1.5)


def test_digamma_reference_values():
    for x, ref in DIGAMMA_REFS:
        assert rel_err(digamma(x), ref) < 1e-13


def test_trigamma_reference_values():
    for x, ref in TRIGAMMA_REFS:
        assert rel_err(trigamma(x), ref) < 1e-13


def test_digamma_recurrence():
    # psi(x+1) = psi(x) + 1/x
    for x in np.linspace(0.5, 50.0, 100):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12


def test_trigamma_recurrence():
    # psi'(x+1) = psi'(x) - 1/x^2
    for x in np.linspace(0.5, 50.0, 100):
        x = float(x)
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) < 1e-12


def test_digamma_trigamma_domain():
    for f in (digamma, trigamma):
        with pytest.raises(DomainError):
            f(0.0)
        with pytest.raises(DomainError):
            f(-2.0)


def test_pochhammer_values():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(-2.0, 5) == 0.0          # terminates exactly
    assert pochhammer(0.5, 2) == 0.75
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


def test_ln_pochhammer_matches_product():
    for a in (0.3, 1.0, 4.5):
        for n in (0, 1, 5, 12):
            assert rel_err(math.exp(ln_pochhammer(a, n)),
                           pochhammer(a, n)) < 1e-12


# ---------------------------------------------------------------------------
# HypergeometricSpec bookkeeping
# ---------------------------------------------------------------------------

def test_spec_validate_rejects_bad_denominator():
    with pytest.raises(DomainError):
        HypergeometricSpec((1.0,), (0.0,), 1.0).validate()
    with pytest.raises(DomainError):
        HypergeometricSpec((1.0,), (-3.0,), 1.0).validate()
    HypergeometricSpec((1.0,), (-2.5,), 0.5).validate()  # non-integer ok


def test_pfq_rejects_non_finite_parameters():
    nan, inf = math.nan, math.inf
    start = time.monotonic()
    for spec in (HypergeometricSpec((nan, 1.0), (2.0,), 0.5),
                 HypergeometricSpec((nan, 1.0), (4.0,), 1.0),
                 HypergeometricSpec((1.0, 1.0), (inf,), 0.5),
                 HypergeometricSpec((-inf, 1.0), (2.0,), 0.5),
                 HypergeometricSpec((1.0, 1.0), (-inf,), 0.5),
                 HypergeometricSpec((1.0, 1.0), (2.0,), nan)):
        with pytest.raises(DomainError):
            pfq(spec)
    assert time.monotonic() - start < 0.5


def test_spec_excess_and_termination():
    s = HypergeometricSpec((1.0, 1.0, 4.0, 4.0), (2.0, 2.0, 7.0), 1.0)
    assert abs(s.excess - 1.0) < 1e-14
    assert s.termination_order() is None
    t = HypergeometricSpec((-3.0, 2.0, -5.0), (4.0,), 1.0)
    assert t.termination_order() == 3


# ---------------------------------------------------------------------------
# pFq evaluation
# ---------------------------------------------------------------------------

def test_pfq_terminating():
    # 2F1(-3, 2; 4; 1) summed exactly: 1 - 3/2 + 9/10 - 1/5
    val = pfq(HypergeometricSpec((-3.0, 2.0), (4.0,), 1.0))
    assert rel_err(val, 1.0 - 1.5 + 0.9 - 0.2) < 1e-14


def test_pfq_trivial_cases():
    assert pfq(HypergeometricSpec((1.0,), (2.0,), 0.0)) == 1.0
    # 2F1(1,1;4;1) = Gamma(4)Gamma(2)/Gamma(3)^2 = 3/2
    assert rel_err(pfq(HypergeometricSpec((1.0, 1.0), (4.0,), 1.0)), 1.5) < 1e-12


def test_pfq_inside_unit_disc():
    # 2F1(1/2, 1/2; 3/2; z^2) = arcsin(z)/z at z = 1/2
    val = pfq(HypergeometricSpec((0.5, 0.5), (1.5,), 0.25))
    assert rel_err(val, math.asin(0.5) / 0.5) < 1e-12
    # geometric series 1F0 is out of scope (p > q+1 only at z >= 1), but
    # 2F1(1, 1; 2; z) = -log(1-z)/z converges
    val = pfq(HypergeometricSpec((1.0, 1.0), (2.0,), 0.7))
    assert rel_err(val, -math.log(0.3) / 0.7) < 1e-12


UNIT_ARG_REFS = (
    # ((numerators), (denominators), value) at z = 1, 30-digit references
    ((0.7, 0.9), (1.7001,), 7.418511782912772666614),      # excess 0.1001
    ((1.0, 1.0, 3.0, 3.0), (2.0, 2.0, 5.5), 2.271428571428571428571),
    ((1.0, 1.0, 1.0, 3.0, 3.0), (2.0, 2.0, 2.0, 5.5), 1.372672883776029529217),
)


def test_pfq_unit_argument_references():
    for num, den, ref in UNIT_ARG_REFS:
        val = pfq(HypergeometricSpec(num, den, 1.0))
        assert rel_err(val, ref) < 1e-12


@pytest.mark.parametrize("s", [1e-2, 1e-3, 1e-4])
def test_pfq_unit_argument_small_excess(s):
    # 3F2(1, 1, 1; 2, 1+s; 1) = s psi'(s): excess s, tail reaching past the
    # range where the Stirling remainders freeze
    val = pfq(HypergeometricSpec((1.0, 1.0, 1.0), (2.0, 1.0 + s), 1.0))
    assert rel_err(val, s * trigamma(s)) < 1e-11


def test_unit_argument_rule_is_leggauss_20():
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(20)
    assert specfun._GL20_NODES.tobytes() == nodes.tobytes()
    assert specfun._GL20_WEIGHTS.tobytes() == weights.tobytes()


def test_bound_report_leaves_numpy_polynomial_unimported():
    # in a fresh process: this one may have imported numpy.polynomial
    code = ("import sys; from spikedho import bounds, model; "
            "bounds.bound_report(model.make_params(12, 4, 1e-3)); "
            "sys.exit('numpy.polynomial' in sys.modules)")
    src = str(Path(specfun.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_pfq_divergent_raises():
    with pytest.raises(DomainError):
        pfq(HypergeometricSpec((1.0, 1.0), (2.0,), 1.0))     # excess 0
    with pytest.raises(DomainError):
        pfq(HypergeometricSpec((2.0, 2.0), (1.5,), 1.0))     # excess < 0
    with pytest.raises(DomainError):
        pfq(HypergeometricSpec((1.0, 1.0), (4.0,), 1.5))     # |z| > 1


# ---------------------------------------------------------------------------
# Gauss summation invariant: 1000 random parameter draws
# ---------------------------------------------------------------------------

def test_gauss_summation_invariant_1000_draws():
    rng = np.random.default_rng(20260824)
    for _ in range(1000):
        a = float(rng.uniform(0.05, 2.5))
        b = float(rng.uniform(0.05, 2.5))
        excess = float(rng.uniform(0.1, 5.0))
        c = a + b + excess
        closed = gauss_2f1_unit(a, b, c)
        series = pfq(HypergeometricSpec((a, b), (c,), 1.0))
        assert rel_err(series, closed) < 1e-10


def test_gauss_2f1_unit_domain():
    with pytest.raises(DomainError):
        gauss_2f1_unit(1.0, 1.0, 2.0)     # c - a - b = 0
    with pytest.raises(DomainError):
        gauss_2f1_unit(3.0, 3.0, 4.0)     # c - a - b < 0


# ---------------------------------------------------------------------------
# Parameter-shift reduction: 200 random draws at z = 1/2 and z = 1
# ---------------------------------------------------------------------------

def test_shifted_4f3_reduction_200_draws():
    rng = np.random.default_rng(7)
    for k in range(200):
        a = float(rng.uniform(0.2, 1.8))
        b = float(rng.uniform(0.2, 1.8))
        c = float(rng.uniform(0.5, 3.0))
        d = float(rng.uniform(0.5, 3.0))
        z = 0.5 if k % 2 == 0 else 1.0
        if z == 1.0:
            e = a + b + 2.0 + float(rng.uniform(0.3, 3.0))
        else:
            e = float(rng.uniform(1.0, 6.0))
        closed = shifted_4f3(a, b, c, d, e, z)
        direct = pfq(HypergeometricSpec((a, b, c + 1.0, d + 1.0),
                                        (e, c, d), z))
        assert rel_err(closed, direct) < 1e-10


def test_shifted_4f3_domain():
    with pytest.raises(DomainError):
        shifted_4f3(1.0, 1.0, -2.0, 2.0, 8.0, 0.5)   # shift param -2
    with pytest.raises(DomainError):
        shifted_4f3(1.0, 1.0, 2.0, 2.0, 3.5, 1.0)    # e - a - b <= 2
    with pytest.raises(DomainError):
        shifted_4f3(1.0, 1.0, 2.0, 2.0, 8.0, 1.5)    # |z| > 1


# ---------------------------------------------------------------------------
# Closed form of 4F3(1,1,4,4; 2,2,g+1; 1)
# ---------------------------------------------------------------------------

CLOSED_4F3_REFS = {6.0: 4.522222222222222, 8.0: 2.230687830687831,
                   12.0: 1.545550745550746}


def closed_4f3_1144(g):
    return (g / 18.0) * ((g - 2.0) * (g - 1.0) / ((g - 5.0) * (g - 4.0))
                         + 2.0 * (g - 1.0) / (g - 4.0)
                         + (40.0 - 57.0 * g + 24.0 * g * g - 3.0 * g ** 3)
                         / ((g - 3.0) * (g - 2.0) * (g - 1.0)))


def test_4f3_1144_closed_form():
    for g, ref in CLOSED_4F3_REFS.items():
        series = pfq(HypergeometricSpec((1.0, 1.0, 4.0, 4.0),
                                        (2.0, 2.0, g + 1.0), 1.0))
        assert rel_err(series, closed_4f3_1144(g)) < 1e-11
        assert rel_err(series, ref) < 1e-12
