"""Special-function kernel: gamma family, Pochhammer symbols, and
generalized hypergeometric series.

Everything here is implemented from scratch on top of numpy scalars and
arrays.  All production code paths need only positive gamma-function
arguments; there is deliberately no reflection formula in the public
interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """A series or iterative evaluation failed to reach the requested
    tolerance within its configured budget."""


# Lanczos approximation, g = 7, 9 coefficients.  Relative error of the
# resulting Gamma values is a few ulp for positive arguments.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_ln_gamma(x):
    """ln Gamma for x >= 0.5 (array or scalar), no domain checks."""
    xp = x - 1.0
    acc = np.full_like(np.asarray(xp, dtype=float), _LANCZOS_COEF[0])
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc = acc + c / (xp + i)
    t = xp + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (xp + 0.5) * np.log(t) - t + np.log(acc)


def ln_gamma(x):
    """Natural log of the Gamma function for positive x.

    Accepts scalars or numpy arrays; relative error is well below 1e-13
    on [0.5, 200].
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("ln_gamma requires x > 0, got %r" % (x,))
    small = arr < 0.5
    shifted = np.where(small, arr + 1.0, arr)
    out = _lanczos_ln_gamma(shifted)
    out = np.where(small, out - np.log(arr), out)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def gamma_value(x):
    """Gamma(x) for positive x, via exp(ln_gamma)."""
    return np.exp(ln_gamma(x))


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), computed as a running
    product so that nonpositive-integer a terminates exactly at zero."""
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def ln_pochhammer(a, n):
    """ln (a)_n for a > 0, as a ln-gamma difference (array-friendly)."""
    return ln_gamma(np.asarray(a, dtype=float) + n) - ln_gamma(a)


# Asymptotic (Bernoulli) coefficients:
#   psi(x)  ~ ln x - 1/(2x) - sum B_2n / (2n x^2n)
#   psi'(x) ~ 1/x + 1/(2x^2) + sum B_2n / x^(2n+1)
_PSI_ASY = (1.0 / 12, -1.0 / 120, 1.0 / 252, -1.0 / 240,
            1.0 / 132, -691.0 / 32760, 1.0 / 12)
_PSI1_ASY = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
             5.0 / 66, -691.0 / 2730, 7.0 / 6)

_MIN_ASY = 12.0


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for positive x."""
    if x <= 0.0:
        raise DomainError("digamma requires x > 0, got %g" % x)
    acc = 0.0
    while x < _MIN_ASY:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    p = inv2
    tail = 0.0
    for c in _PSI_ASY:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def trigamma(x: float) -> float:
    """psi'(x), the first derivative of the digamma function, for x > 0."""
    if x <= 0.0:
        raise DomainError("trigamma requires x > 0, got %g" % x)
    acc = 0.0
    while x < _MIN_ASY:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    p = inv * inv2
    tail = 0.0
    for c in _PSI1_ASY:
        tail += c * p
        p *= inv2
    return acc + inv + 0.5 * inv2 + tail


_INT_TOL = 1e-12  # numerator parameter this close to a nonpositive integer
                  # is treated as exactly that integer (terminating series)


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameter lists and argument for a pFq evaluation."""

    numerators: tuple = ()
    denominators: tuple = ()
    argument: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(float(a) for a in self.numerators))
        object.__setattr__(self, "denominators", tuple(float(b) for b in self.denominators))

    def validate(self):
        if not all(map(math.isfinite, self.numerators + self.denominators
                       + (self.argument,))):
            raise DomainError("pFq parameters and argument must be finite")
        for b in self.denominators:
            if b <= 0.0 and abs(b - round(b)) < _INT_TOL:
                raise DomainError(
                    "denominator parameter %g is zero or a negative integer" % b)

    @property
    def excess(self) -> float:
        """Parametric excess sum(denominators) - sum(numerators)."""
        return math.fsum(self.denominators) - math.fsum(self.numerators)

    def termination_order(self):
        """Smallest m such that a numerator parameter equals -m (within
        tolerance), or None if the series does not terminate."""
        orders = [int(round(-a)) for a in self.numerators
                  if a <= _INT_TOL and abs(a - round(a)) < _INT_TOL]
        if not orders:
            return None
        return min(orders)


def _terminating_sum(spec: HypergeometricSpec, m: int) -> float:
    num = [round(a) if abs(a - round(a)) < _INT_TOL else a
           for a in spec.numerators]
    den = spec.denominators
    z = spec.argument
    t = 1.0
    total = [1.0]
    for k in range(m):
        r = z / ((k + 1.0) * math.prod(b + k for b in den))
        for a in num:
            r *= a + k
        t *= r
        total.append(t)
    return math.fsum(total)


_PFQ_TOL = 1e-14            # relative tail bound of a direct summation
_PFQ_MAX_TERMS = 10_000_000


def _direct_sum(spec: HypergeometricSpec) -> float:
    num, den, z = spec.numerators, spec.denominators, spec.argument
    t = 1.0
    s = 1.0
    comp = 0.0  # Kahan compensation
    for k in range(1, _PFQ_MAX_TERMS):
        r = z / (k * math.prod(b + k - 1.0 for b in den))
        for a in num:
            r *= a + k - 1.0
        t *= r
        y = t - comp
        snew = s + y
        comp = (snew - s) - y
        s = snew
        q = max(abs(r), abs(z))
        if q < 1.0 and k > 20:
            tail = abs(t) * q / (1.0 - q)
            if tail <= _PFQ_TOL * max(abs(s), 1.0):
                return s
    raise ConvergenceError(
        "pFq did not converge within %d terms (achieved ~%.1e)"
        % (_PFQ_MAX_TERMS, abs(t)))


# ---------------------------------------------------------------------------
# Unit-argument evaluation with Euler-Maclaurin tail completion.
#
# For p = q+1 at z = 1 the terms decay like k^-(1+s) with s the parametric
# excess; direct summation alone cannot reach 1e-10 for small s.  We sum K
# terms exactly, then complete the tail
#     sum_{k>=K} t(k) = int_K^inf t(k) dk + t(K)/2 - t'(K)/12 + ...
# using the continuous term function anchored at the recursion value t(K).
# The log-ratio ln t(k) - ln t(K) is evaluated through a Stirling-cancelled
# remainder, so no Gamma function is ever taken at a huge argument.
# ---------------------------------------------------------------------------

_STIR = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188)
_EM_ANCHOR = 4000


def _g_rem(c: float, k):
    """lnGamma(k+c) minus [k ln k - k + 0.5 ln 2pi + (c-0.5) ln k],
    accurate for k >= ~100 (vectorized in k)."""
    z = k + c
    out = (k + c - 0.5) * np.log1p(c / k) - c
    zi = 1.0 / z
    z2 = zi * zi
    p = zi
    for b in _STIR:
        out = out + b * p
        p = p * z2
    return out


def _log_term_ratio(lnk, kcap, kref: float, num, den, s: float):
    """ln t(k) - ln t(kref) for the continuous term function at z = 1.

    lnk may exceed the overflow range; kcap = exp(min(lnk, 700)) is used
    inside the Stirling remainders, whose k-dependence is O(1/k) there.
    """
    out = -(1.0 + s) * (lnk - math.log(kref))
    for a in num:
        out = out + _g_rem(a, kcap) - _g_rem(a, kref)
    for b in den:
        out = out - _g_rem(b, kcap) + _g_rem(b, kref)
    out = out - _g_rem(1.0, kcap) + _g_rem(1.0, kref)
    return out


# The 20-point Gauss-Legendre rule on [-1, 1], bit for bit
# numpy.polynomial.legendre.leggauss(20), which is exactly symmetric:
# the positive nodes and their weights.
_GL20_X = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
           0.5108670019508271, 0.636053680726515, 0.7463319064601508,
           0.8391169718222188, 0.912234428251326, 0.9639719272779138,
           0.993128599185095)
_GL20_W = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
           0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
           0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
           0.017614007139150893)
_GL20_NODES = np.r_[-np.array(_GL20_X[::-1]), _GL20_X]
_GL20_WEIGHTS = np.r_[_GL20_W[::-1], _GL20_W]


def _unit_sum_em(spec: HypergeometricSpec) -> float:
    num = np.asarray(spec.numerators)
    den = np.asarray(spec.denominators)
    s = spec.excess
    K = _EM_ANCHOR
    k = np.arange(K, dtype=float)
    r = 1.0 / (k + 1.0)
    for a in spec.numerators:
        r *= a + k
    for b in spec.denominators:
        r /= b + k
    terms = np.empty(K + 1)
    terms[0] = 1.0
    terms[1:] = np.cumprod(r)
    if not np.all(np.isfinite(terms)):
        raise ConvergenceError("pFq partial sums overflowed at unit argument")
    tK = terms[K]
    direct = math.fsum(terms[:K])
    # tail integral, substitution k = K exp(w).  From w_frozen on, kcap is
    # frozen at e^700 and the integrand is exactly C exp(-s w), so a capped
    # range is completed in closed form by the end value over s.
    w_frozen = math.ceil(700.0 - math.log(K))
    npan = int(math.ceil(min(max(30.0, 40.0 / s), w_frozen)))
    xg, wg = _GL20_NODES, _GL20_WEIGHTS
    centers = np.arange(npan) + 0.5
    w = np.r_[(centers[:, None] + 0.5 * xg[None, :]).ravel(), npan]
    lnk = math.log(K) + w
    kcap = np.exp(np.minimum(lnk, 700.0))
    vals = np.exp(_log_term_ratio(lnk, kcap, float(K), num, den, s) + w)
    integral = tK * K * 0.5 * float(np.sum(vals[:-1].reshape(npan, -1) @ wg))
    if npan == w_frozen:
        integral += tK * K * vals[-1] / s
    dlog = math.fsum(digamma(a + K) for a in spec.numerators) \
        - math.fsum(digamma(b + K) for b in spec.denominators) \
        - digamma(K + 1.0)
    tail = integral + 0.5 * tK - tK * dlog / 12.0
    return direct + tail


def pfq(spec: HypergeometricSpec) -> float:
    """Evaluate the generalized hypergeometric series pFq.

    Terminating series are summed exactly.  For |z| < 1 the series is
    summed with a ratio-bounded tail criterion.  At z = 1 with p = q+1
    the parametric excess must be positive; the evaluation then combines
    direct summation with an Euler-Maclaurin tail completion and is
    accurate to close to machine precision even for small excess.
    """
    spec.validate()
    z = spec.argument
    m = spec.termination_order()
    if m is not None:
        return _terminating_sum(spec, m)
    if z == 0.0:
        return 1.0
    p, q = len(spec.numerators), len(spec.denominators)
    if abs(z) < 1.0 and p <= q + 1:
        return _direct_sum(spec)
    if z == 1.0:
        if p <= q:
            return _direct_sum(spec)
        if p == q + 1:
            if spec.excess <= 0.0:
                raise DomainError(
                    "pFq diverges at z=1: parametric excess %g <= 0"
                    % spec.excess)
            return _unit_sum_em(spec)
    raise DomainError(
        "pFq supports |z| < 1 or z = 1 with p <= q+1; got p=%d q=%d z=%g"
        % (p, q, z))


def gauss_2f1_unit(a: float, b: float, c: float) -> float:
    """Gauss summation: 2F1(a, b; c; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b)).

    Requires c - a - b > 0 and positive gamma arguments throughout.
    """
    if c - a - b <= 0.0:
        raise DomainError(
            "2F1 at unit argument requires c - a - b > 0, got %g" % (c - a - b))
    for arg in (c, c - a, c - b, c - a - b):
        if arg <= 0.0:
            raise DomainError(
                "gauss_2f1_unit needs positive gamma arguments, got %g" % arg)
    return math.exp(ln_gamma(c) + ln_gamma(c - a - b)
                    - ln_gamma(c - a) - ln_gamma(c - b))


def shifted_4f3(a: float, b: float, c: float, d: float, e: float,
                z: float) -> float:
    """4F3(a, b, c+1, d+1; e, c, d; z): two numerator parameters exceed two
    denominator parameters by exactly one.

    Reduces to three 2F1 terms; at z = 1 (requires e - a - b > 2) each
    2F1 collapses to a gamma-function ratio.
    """
    for p in (c, d):
        if p <= 0.0 and abs(p - round(p)) < _INT_TOL:
            raise DomainError("shifted parameter %g is a nonpositive integer" % p)
    if z == 1.0:
        if e - a - b <= 2.0:
            raise DomainError(
                "shifted_4f3 at z=1 requires e - a - b > 2, got %g" % (e - a - b))
        pre = math.exp(ln_gamma(e) - ln_gamma(e - a) - ln_gamma(e - b))
        return pre * (gamma_value(e - a - b)
                      + (a * b / c) * (1.0 + (c + 1.0) / d) * gamma_value(e - a - b - 1.0)
                      + (pochhammer(a, 2) * pochhammer(b, 2) / (d * c))
                      * gamma_value(e - a - b - 2.0))
    if abs(z) >= 1.0:
        raise DomainError("shifted_4f3 requires |z| < 1 or z = 1")
    f0 = pfq(HypergeometricSpec((a, b), (e,), z))
    f1 = pfq(HypergeometricSpec((a + 1.0, b + 1.0), (e + 1.0,), z))
    f2 = pfq(HypergeometricSpec((a + 2.0, b + 2.0), (e + 2.0,), z))
    return (f0
            + (a * b / (e * c)) * (1.0 + (c + 1.0) / d) * z * f1
            + (pochhammer(a, 2) * pochhammer(b, 2)
               / (d * c * pochhammer(e, 2))) * z * z * f2)
