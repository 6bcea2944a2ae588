"""Gamma/beta special functions backing the quantile estimators.

Thin validating wrappers over the selected numeric backend.  Everything here
is a pure function; all evaluation happens in log space so that shape
parameters in the thousands neither overflow nor underflow.
"""

import math
from dataclasses import dataclass

from . import _checks
from .backend import kernels as _k

__all__ = [
    "BetaParams",
    "log_gamma",
    "log_beta",
    "beta_pdf",
    "regularized_incomplete_beta",
]


@dataclass(frozen=True)
class BetaParams:
    """Shape pair (alpha, beta) of a beta distribution.

    Both shapes must be finite and strictly positive.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        a = float(self.alpha)
        b = float(self.beta)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("beta shapes must be finite, got alpha=%r beta=%r"
                             % (self.alpha, self.beta))
        if a <= 0.0 or b <= 0.0:
            raise ValueError("beta shapes must be positive, got alpha=%r beta=%r"
                             % (self.alpha, self.beta))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError("log_gamma requires finite x > 0, got %r" % (x,))
    return _k.log_gamma(x)


def log_beta(params):
    """ln B(alpha, beta) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b)."""
    return _k.log_beta(params.alpha, params.beta)


def beta_pdf(x, params):
    """Beta density at x.

    Endpoint conventions: 0 at x=0 when alpha > 1 and at x=1 when beta > 1;
    the finite uniform-edge value when the shape is exactly 1; +inf when the
    density genuinely diverges (shape < 1).
    """
    x = _checks.fraction(x, "x")
    return _k.beta_pdf(x, params.alpha, params.beta)


def regularized_incomplete_beta(x, params):
    """Regularized incomplete beta I_x(alpha, beta), i.e. the beta CDF.

    Continued-fraction evaluation with the symmetry transform
    I_x(a,b) = 1 - I_{1-x}(b,a) applied on the slow-converging side.
    A hit on the internal iteration cap raises ArithmeticError rather than
    returning a silently wrong value.
    """
    x = _checks.fraction(x, "x")
    return _k.reg_inc_beta(x, params.alpha, params.beta)
