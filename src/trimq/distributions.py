"""Distribution specs: deterministic samplers and true quantile functions.

A DistributionSpec names a family and its parameters, e.g.
``Pareto(loc=1, shape=0.5)``.  Each family is declared once, as the factory
of its inverse CDF: the factory's signature lists the family's parameters
and its body checks the rules between them.  Every inverse CDF has one call
shape, q(ps) -> the list of the quantiles of a sequence of p, and gives both
the exact quantile theta(p), q on (p,), and the variates, through
``transform``, the one mapping from uniforms to variates that ``sample`` and
both simulation studies run, so identical (seed, stream_id) give identical
variates on every platform with the same libm, and at every thread count.
Beta and Student invert their CDFs in the backend kernels beta_quantiles and
student_quantiles, one call per list of p.  The contaminated normal samples
compositionally (one uniform picks the mixture component, one feeds the
normal quantile) and therefore consumes exactly two uniforms per variate.
"""

import functools
import inspect
import math
import re

from . import _checks
from ._kernels_py import _invert_unbounded
from .backend import kernels as _k

__all__ = ["DistributionSpec", "true_quantile", "sample"]

_SQRT2 = math.sqrt(2.0)


def _phi(z):
    return 0.5 * math.erfc(-z / _SQRT2)


# Each family's inverse CDF as a factory.  Its keyword-only signature
# declares the family's parameters, in label order, a default making one
# optional.  Called with the parameters checked one by one, it raises
# ValueError when a rule between them fails, and otherwise returns q(ps),
# the list of the quantiles of the p of ps, with what does not depend on p
# worked out once.

def _span(kind, a, b):
    """b - a of a family supported on [a, b]: positive, and finite so that
    no quantile overflows."""
    span = b - a
    if not 0.0 < span < math.inf:
        raise ValueError("%s requires a < b with b - a finite, got a=%g b=%g"
                         % (kind, a, b))
    return span


def _q_uniform(*, a=0.0, b=1.0):
    span = _span("Uniform", a, b)
    return lambda ps: [a + span * p for p in ps]


def _q_triangular(*, a, b, c):
    ba = _span("Triangular", a, b)
    if not a <= c <= b:
        raise ValueError("Triangular requires a <= c <= b, got c=%g" % c)
    ca, bc = c - a, b - c
    if not math.isfinite(ba * max(ca, bc)):
        raise ValueError("Triangular requires (b - a)(c - a) and (b - a)(b - c) "
                         "finite, got a=%g b=%g c=%g" % (a, b, c))
    split = ca / ba
    return lambda ps: [a + math.sqrt(p * ba * ca) if p < split
                       else b - math.sqrt((1.0 - p) * ba * bc) for p in ps]


def _q_beta(*, a, b):
    return lambda ps: _k.beta_quantiles(ps, a, b)


def _q_normal(*, m=0.0, sd=1.0):
    # imported here so that `import trimq` does not load statistics
    from statistics import NormalDist
    inv_cdf = NormalDist(m, sd).inv_cdf
    return lambda ps: list(map(inv_cdf, ps))


def _q_weibull(*, scale=1.0, shape):
    power = 1.0 / shape
    return lambda ps: [scale * (-math.log1p(-p)) ** power for p in ps]


def _q_student(*, df):
    return lambda ps: _k.student_quantiles(ps, df)


def _q_gumbel(*, loc=0.0, scale=1.0):
    return lambda ps: [loc - scale * math.log(-math.log(p)) for p in ps]


def _q_exp(*, rate=1.0):
    return lambda ps: [-math.log1p(-p) / rate for p in ps]


def _q_cauchy(*, x0=0.0, gamma=1.0):
    return lambda ps: [x0 + gamma * math.tan(math.pi * (p - 0.5))
                       for p in ps]


def _q_pareto(*, loc, shape):
    power = -1.0 / shape
    return lambda ps: [loc * (1.0 - p) ** power for p in ps]


def _q_lognormal(*, mlog=0.0, sdlog=1.0):
    from statistics import NormalDist
    inv_cdf = NormalDist(mlog, sdlog).inv_cdf
    return lambda ps: [math.exp(inv_cdf(p)) for p in ps]


def _q_frechet(*, shape):
    power = -1.0 / shape
    return lambda ps: [(-math.log(p)) ** power for p in ps]


def _q_contaminated_normal(*, epsilon, sigma, c):
    """q(ps) by CDF inversion; q.mixture is (epsilon, sigma, wide), the
    contamination weight and the two components' scales, for the
    variates."""
    epsilon = _checks.fraction(epsilon, "epsilon of ContaminatedNormal")
    wide = sigma * math.sqrt(c)
    if not math.isfinite(wide):
        raise ValueError("ContaminatedNormal requires a finite wide scale "
                         "sigma * sqrt(c), got sigma=%g c=%g" % (sigma, c))

    def cdf(x):
        return (1.0 - epsilon) * _phi(x / sigma) + epsilon * _phi(x / wide)

    def q(ps):
        return [_invert_unbounded(cdf, p) for p in ps]
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


def _finite(spec, values, ps, what):
    """`values`, the quantiles or variates of `spec` from the p of `ps`, if
    every one is finite; otherwise an ArithmeticError naming the spec and
    the first p whose `what` is not."""
    # a sum that is not finite is cheap to find, and holds every value that
    # overflowed
    if not math.isfinite(sum(values)):
        for p, x in zip(ps, values):
            if not math.isfinite(x):
                raise ArithmeticError("%s: the %s at p=%r overflows"
                                      % (spec.label, what, p))
    return values


def _quantiles(spec, ps):
    """The quantiles of `spec` at the p of `ps`, one call of its inverse
    CDF.  A quantile past the largest double, whether math.exp or ** raises
    OverflowError or plain arithmetic gives an infinity, raises an
    ArithmeticError naming the spec and the first such p."""
    q = spec._q
    try:
        values = q(ps)
    except OverflowError:
        # up to the p that raised, one at a time, that p standing as inf
        values = []
        for p in ps:
            try:
                values += q((p,))
            except OverflowError:
                values.append(math.inf)
                break
    return _finite(spec, values, ps, "quantile")


def true_quantile(spec, p):
    """Exact quantile theta(p) of the given distribution, 0 < p < 1.

    Closed-form inverse CDF where one exists; Beta and Student invert
    their CDFs by one kernel call on (p,), and the contaminated normal
    bisects its CDF.  A quantile past the largest double raises
    ArithmeticError.
    """
    return _quantiles(spec, (_checks.fraction(p, "p", "(0, 1)"),))[0]


def transform(spec):
    """(per, variates): variates(us) maps a list of uniforms to the variates
    of `spec`, taking `per` uniforms for each.

    Built once per spec or cell, and the one mapping that every draw runs.
    The contaminated normal takes two uniforms per variate, the first
    picking the component and the second feeding the normal quantile; every
    other family maps the list through its inverse CDF in one call.  A
    variate past the largest double raises an ArithmeticError naming the
    spec and the p it came from, as true_quantile does.
    """
    if spec.kind == "ContaminatedNormal":
        eps, sigma, wide = spec._q.mixture
        from statistics import NormalDist
        inv_cdf = NormalDist().inv_cdf

        def variates(us):
            ps = us[1::2]
            return _finite(spec, [(wide if pick < eps else sigma) * inv_cdf(u)
                                  for pick, u in zip(us[::2], ps)],
                           ps, "variate")
        return 2, variates
    return 1, functools.partial(_quantiles, spec)


def sample(spec, rng, count):
    """Draw `count` variates from the given distribution on `rng`."""
    per, variates = transform(spec)
    return variates(rng.uniforms(per * _checks.integer(count, "count", 0)))
