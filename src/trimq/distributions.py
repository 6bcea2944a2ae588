"""Distribution specs: deterministic samplers and true quantile functions.

A DistributionSpec names a family and its parameters, e.g.
``Pareto(loc=1, shape=0.5)``.  Each family is declared once, as the factory
of its inverse CDF: the factory's signature lists the family's parameters
and its body checks the rules between them.  Every inverse CDF has one call
shape, q(ps) -> the quantiles of a sequence of p, and gives both the exact
quantile theta(p), q on (p,), and the variates, through ``transform``, the
one mapping from uniforms to variates that ``sample`` and both simulation
studies run, so identical (seed, stream_id) give identical variates on every
platform with the same libm, and at every thread count.  Every family
computes its quantiles in the one inverse-CDF kernel of the backend,
quantiles, which holds each family's quantile function: one kernel call
per sequence of p into an array('d'), the one form of a sequence of
doubles between the layers.  The contaminated normal samples
compositionally (one uniform picks the mixture component, one feeds the
standard normal quantile) and therefore consumes exactly two uniforms per
variate.
"""

import functools
import inspect
import math
import re
from array import array

from . import _checks
from .backend import kernels as _k

__all__ = ["DistributionSpec", "true_quantile", "sample"]


# Each family's inverse CDF as a factory.  Its keyword-only signature
# declares the family's parameters, in label order, a default making one
# optional.  Called with the parameters checked one by one, it raises
# ValueError when a rule between them fails, and otherwise returns q(ps),
# the quantiles of the p of ps.

def _span(kind, a, b):
    """b - a of a family supported on [a, b]: positive, and finite so that
    no quantile overflows."""
    span = b - a
    if not 0.0 < span < math.inf:
        raise ValueError("%s requires a < b with b - a finite, got a=%g b=%g"
                         % (kind, a, b))
    return span


def _kernel(kind, *params):
    """q(ps) of the family `kind`: one call of the backend kernel
    quantiles, which holds the family's quantile function."""
    return lambda ps: _k.quantiles(kind, params, ps)


def _q_uniform(*, a=0.0, b=1.0):
    _span("Uniform", a, b)
    return _kernel("Uniform", a, b)


def _q_triangular(*, a, b, c):
    ba = _span("Triangular", a, b)
    if not a <= c <= b:
        raise ValueError("Triangular requires a <= c <= b, got c=%g" % c)
    if not math.isfinite(ba * max(c - a, b - c)):
        raise ValueError("Triangular requires (b - a)(c - a) and (b - a)(b - c) "
                         "finite, got a=%g b=%g c=%g" % (a, b, c))
    return _kernel("Triangular", a, b, c)


def _q_beta(*, a, b):
    return _kernel("Beta", a, b)


def _q_normal(*, m=0.0, sd=1.0):
    return _kernel("Normal", m, sd)


def _q_weibull(*, scale=1.0, shape):
    return _kernel("Weibull", scale, shape)


def _q_student(*, df):
    return _kernel("Student", df)


def _q_gumbel(*, loc=0.0, scale=1.0):
    return _kernel("Gumbel", loc, scale)


def _q_exp(*, rate=1.0):
    return _kernel("Exp", rate)


def _q_cauchy(*, x0=0.0, gamma=1.0):
    return _kernel("Cauchy", x0, gamma)


def _q_pareto(*, loc, shape):
    return _kernel("Pareto", loc, shape)


def _q_lognormal(*, mlog=0.0, sdlog=1.0):
    return _kernel("LogNormal", mlog, sdlog)


def _q_frechet(*, shape):
    return _kernel("Frechet", shape)


def _q_contaminated_normal(*, epsilon, sigma, c):
    """q(ps), with q.mixture (epsilon, sigma, wide), the contamination
    weight and the two components' scales, for the variates."""
    epsilon = _checks.fraction(epsilon, "epsilon of ContaminatedNormal")
    wide = sigma * math.sqrt(c)
    if not math.isfinite(wide):
        raise ValueError("ContaminatedNormal requires a finite wide scale "
                         "sigma * sqrt(c), got sigma=%g c=%g" % (sigma, c))
    q = _kernel("ContaminatedNormal", epsilon, sigma, wide)
    q.mixture = (epsilon, sigma, wide)
    return q


# kind -> (its factory, the parameters that must be positive)
_FAMILIES = {
    "Uniform": (_q_uniform, ()),
    "Triangular": (_q_triangular, ()),
    "Beta": (_q_beta, ("a", "b")),
    "Normal": (_q_normal, ("sd",)),
    "Weibull": (_q_weibull, ("scale", "shape")),
    "Student": (_q_student, ("df",)),
    "Gumbel": (_q_gumbel, ("scale",)),
    "Exp": (_q_exp, ("rate",)),
    "Cauchy": (_q_cauchy, ("gamma",)),
    "Pareto": (_q_pareto, ("loc", "shape")),
    "LogNormal": (_q_lognormal, ("sdlog",)),
    "Frechet": (_q_frechet, ("shape",)),
    "ContaminatedNormal": (_q_contaminated_normal, ("sigma", "c")),
}

_ALIASES = {
    "studentt": "Student",
    "exponential": "Exp",
}
_CANON = {k.lower(): k for k in _FAMILIES}
_CANON.update(_ALIASES)

_SPEC_RE = re.compile(
    r"^\s*([A-Za-z][A-Za-z0-9]*)\s*(?:\(\s*(.*?)\s*\))?\s*$", re.S)


class DistributionSpec:
    """A named distribution with validated parameters.

    Construct directly (``DistributionSpec("Pareto", loc=1, shape=0.5)``) or
    parse the standard spelling (``DistributionSpec.parse("Pareto(loc=1,
    shape=0.5)")``).  The label round-trips: parse(spec.label) == spec.
    """

    __slots__ = ("kind", "params", "_q")

    def __init__(self, kind, **params):
        canon = _CANON.get(str(kind).lower())
        if canon is None:
            raise ValueError("unknown distribution kind %r (expected one of %s)"
                             % (kind, ", ".join(sorted(_FAMILIES))))
        factory, positive = _FAMILIES[canon]
        fields = inspect.signature(factory).parameters.values()
        known = [f.name for f in fields]
        for name in params:
            if name not in known:
                raise ValueError("unknown parameter %r for %s (expected %s)"
                                 % (name, canon, ", ".join(known)))
        resolved = {}
        for f in fields:
            if f.name in params:
                resolved[f.name] = _checks.real(params[f.name],
                                                "%s of %s" % (f.name, canon),
                                                positive=f.name in positive)
            elif f.default is not f.empty:
                resolved[f.name] = f.default
            else:
                raise ValueError("missing required parameter %r for %s"
                                 % (f.name, canon))
        self.kind = canon
        self.params = resolved
        # the inverse CDF, built once; not part of the spec's identity
        self._q = factory(**resolved)

    @classmethod
    def parse(cls, text):
        m = _SPEC_RE.match(text)
        if m is None:
            raise ValueError("cannot parse distribution spec %r" % (text,))
        kind, arglist = m.group(1), m.group(2)
        params = {}
        if arglist:
            for item in arglist.split(","):
                if "=" not in item:
                    raise ValueError(
                        "expected name=value in distribution spec %r, got %r"
                        % (text, item.strip()))
                name, _, raw = item.partition("=")
                name = name.strip()
                if name in params:
                    raise ValueError(
                        "parameter %r given twice in distribution spec %r"
                        % (name, text))
                try:
                    params[name] = float(raw)
                except ValueError:
                    raise ValueError(
                        "non-numeric value %r for parameter %r in %r"
                        % (raw.strip(), name, text)) from None
        return cls(kind, **params)

    @property
    def label(self):
        parts = ["%s=%s" % (name, _checks.number_text(v))
                 for name, v in self.params.items()]
        return "%s(%s)" % (self.kind, ", ".join(parts))

    def __repr__(self):
        return "DistributionSpec.parse(%r)" % self.label

    def __reduce__(self):
        # the inverse CDF is a closure, which pickle cannot carry
        return DistributionSpec.parse, (self.label,)

    def __eq__(self, other):
        return (isinstance(other, DistributionSpec)
                and self.kind == other.kind and self.params == other.params)

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self.params.items()))))


def _quantiles(spec, ps):
    """The quantiles of `spec` at the p of `ps`, one call of its inverse
    CDF.  A quantile past the largest double, where the closed-form
    quantiles stop short, raises an ArithmeticError naming the spec and
    the first such p."""
    values = spec._q(ps)
    if len(values) < len(ps):
        raise ArithmeticError("%s: the quantile at p=%r overflows"
                              % (spec.label, ps[len(values)]))
    return values


def true_quantile(spec, p):
    """Exact quantile theta(p) of the given distribution, 0 < p < 1.

    One call of the family's inverse CDF on (p,): a closed form where one
    exists, else a bisection of the CDF.  A quantile past the largest
    double raises ArithmeticError.
    """
    return _quantiles(spec, (_checks.fraction(p, "p", "(0, 1)"),))[0]


def transform(spec):
    """(per, variates): variates(us) maps a sequence of uniforms to the
    variates of `spec`, in an array('d'), taking `per` uniforms for each.

    Built once per spec or cell, and the one mapping that every draw runs.
    The contaminated normal takes two uniforms per variate, the first
    picking the component and the second feeding the standard normal
    quantile; each family maps its p through one kernel call.  A variate
    past the largest double raises an ArithmeticError naming the spec and
    the p it came from, as true_quantile does.
    """
    if spec.kind == "ContaminatedNormal":
        eps, sigma, wide = spec._q.mixture

        def variates(us):
            ps = us[1::2]
            zs = _k.quantiles("Normal", (0.0, 1.0), ps)
            values = array("d", [(wide if pick < eps else sigma) * z
                                 for pick, z in zip(us[::2], zs)])
            # a sum that is not finite is cheap to find, and holds every
            # value that overflowed; the quantiles stop short of a NaN p,
            # whose variate the NaN after them stands for
            if len(zs) < len(ps) or not math.isfinite(sum(values)):
                for p, x in zip(ps, [*values, math.nan]):
                    if not math.isfinite(x):
                        raise ArithmeticError(
                            "%s: the variate at p=%r overflows"
                            % (spec.label, p))
            return values
        return 2, variates
    return 1, functools.partial(_quantiles, spec)


def sample(spec, rng, count):
    """Draw `count` variates from the given distribution on `rng`, in a
    list."""
    per, variates = transform(spec)
    us = rng.uniforms(per * _checks.integer(count, "count", 0))
    return list(variates(us))
