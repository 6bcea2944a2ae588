"""Distribution specs: deterministic samplers and true quantile functions.

A DistributionSpec names a family and its parameters, e.g.
``Pareto(loc=1, shape=0.5)``.  Each family is declared once, as the factory
of its inverse CDF: the factory's signature lists the family's parameters
and its body checks the rules between them.  That inverse CDF gives both the
exact quantile theta(p) and the sampler, whose one mapping from uniforms to
variates, ``transform``, serves both a single stream (``sampler``) and the
simulation's batches of streams, so identical (seed, stream_id) give
identical variates on every platform with the same libm, and at every
thread count.  Beta and Student invert their CDFs in the backend kernels
beta_quantiles and student_quantiles, one call per list of p, so the exact
quantile and the sampler run the same inversion.  The contaminated normal
samples compositionally (one uniform picks the mixture component, one feeds
the normal quantile) and therefore consumes exactly two uniforms per
variate.
"""

import inspect
import math
import re

from . import _checks
from ._kernels_py import _invert_unbounded
from .backend import kernels as _k
from .rng import seed_uniforms

__all__ = ["DistributionSpec", "true_quantile", "sample"]

_SQRT2 = math.sqrt(2.0)


def _phi(z):
    return 0.5 * math.erfc(-z / _SQRT2)


# Each family's inverse CDF as a factory.  Its keyword-only signature
# declares the family's parameters, in label order, a default making one
# optional.  Called with the parameters checked one by one, it raises
# ValueError when a rule between them fails, and otherwise returns q(p),
# with what does not depend on p worked out once.

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
    return lambda p: a + span * p


def _q_triangular(*, a, b, c):
    ba = _span("Triangular", a, b)
    if not a <= c <= b:
        raise ValueError("Triangular requires a <= c <= b, got c=%g" % c)
    ca, bc = c - a, b - c
    if not math.isfinite(ba * max(ca, bc)):
        raise ValueError("Triangular requires (b - a)(c - a) and (b - a)(b - c) "
                         "finite, got a=%g b=%g c=%g" % (a, b, c))
    split = ca / ba

    def q(p):
        if p < split:
            return a + math.sqrt(p * ba * ca)
        return b - math.sqrt((1.0 - p) * ba * bc)
    return q


def _batched(batch):
    """q(p) as one call of `batch`, which inverts a list of p at once: the
    quantile and the sampler run the same kernel.  q.batch is `batch`."""
    def q(p):
        return batch((p,))[0]
    q.batch = batch
    return q


def _q_beta(*, a, b):
    return _batched(lambda ps: _k.beta_quantiles(ps, a, b))


def _q_normal(*, m=0.0, sd=1.0):
    # imported here so that `import trimq` does not load statistics
    from statistics import NormalDist
    return NormalDist(m, sd).inv_cdf


def _q_weibull(*, scale=1.0, shape):
    power = 1.0 / shape
    return lambda p: scale * (-math.log1p(-p)) ** power


def _q_student(*, df):
    return _batched(lambda ps: _k.student_quantiles(ps, df))


def _q_gumbel(*, loc=0.0, scale=1.0):
    return lambda p: loc - scale * math.log(-math.log(p))


def _q_exp(*, rate=1.0):
    return lambda p: -math.log1p(-p) / rate


def _q_cauchy(*, x0=0.0, gamma=1.0):
    return lambda p: x0 + gamma * math.tan(math.pi * (p - 0.5))


def _q_pareto(*, loc, shape):
    power = -1.0 / shape
    return lambda p: loc * (1.0 - p) ** power


def _q_lognormal(*, mlog=0.0, sdlog=1.0):
    from statistics import NormalDist
    inv_cdf = NormalDist(mlog, sdlog).inv_cdf
    return lambda p: math.exp(inv_cdf(p))


def _q_frechet(*, shape):
    power = -1.0 / shape
    return lambda p: (-math.log(p)) ** power


def _q_contaminated_normal(*, epsilon, sigma, c):
    """q(p) by CDF inversion; q.mixture is (epsilon, sigma, wide), the
    contamination weight and the two components' scales, for the sampler."""
    epsilon = _checks.fraction(epsilon, "epsilon of ContaminatedNormal")
    wide = sigma * math.sqrt(c)
    if not math.isfinite(wide):
        raise ValueError("ContaminatedNormal requires a finite wide scale "
                         "sigma * sqrt(c), got sigma=%g c=%g" % (sigma, c))

    def cdf(x):
        return (1.0 - epsilon) * _phi(x / sigma) + epsilon * _phi(x / wide)

    def q(p):
        return _invert_unbounded(cdf, p)
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
                try:
                    params[name.strip()] = float(raw)
                except ValueError:
                    raise ValueError(
                        "non-numeric value %r for parameter %r in %r"
                        % (raw.strip(), name.strip(), text)) from None
        return cls(kind, **params)

    @property
    def label(self):
        # integral values bare below 1e16, as the CLI prints them; the rest,
        # 1e+308 among them, as repr writes them
        parts = ["%s=%s" % (name, int(v) if v == int(v) and abs(v) < 1e16
                            else repr(v))
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


def _overflow(spec, ps):
    """The error for a quantile of `spec` past the largest double, which
    math.exp or ** reports as OverflowError: an ArithmeticError naming the
    spec and the first p of `ps` whose quantile overflows, for every
    family."""
    for p in ps:
        try:
            spec._q(p)
        except OverflowError:
            break
    return ArithmeticError("%s: the quantile at p=%r overflows"
                           % (spec.label, p))


def true_quantile(spec, p):
    """Exact quantile theta(p) of the given distribution, 0 < p < 1.

    Closed-form inverse CDF where one exists; Beta and Student invert
    their CDFs by one kernel call on (p,), and the contaminated normal
    bisects its CDF.  A quantile that overflows raises ArithmeticError.
    """
    p = _checks.fraction(p, "p", "(0, 1)")
    try:
        return spec._q(p)
    except OverflowError:
        raise _overflow(spec, (p,)) from None


def transform(spec):
    """(per, variates): variates(us) maps a list of uniforms to the variates
    of `spec`, taking `per` uniforms for each.

    Built once per spec or cell, and the one mapping that every draw runs.
    The contaminated normal takes two uniforms per variate, the first
    picking the component and the second feeding the normal quantile; every
    other family maps each uniform through its inverse CDF, Beta and
    Student in one kernel call per list.  A variate that overflows raises
    an ArithmeticError naming the spec and the p it came from, as
    true_quantile does.
    """
    q = spec._q
    if hasattr(q, "batch"):
        return 1, q.batch
    if spec.kind == "ContaminatedNormal":
        eps, sigma, wide = q.mixture
        from statistics import NormalDist
        inv_cdf = NormalDist().inv_cdf

        def variates(us):
            out = [(wide if pick < eps else sigma) * inv_cdf(u)
                   for pick, u in zip(us[::2], us[1::2])]
            # a sum that is not finite is cheap to find, and holds every
            # variate that overflowed
            if not math.isfinite(sum(out)):
                for i, x in enumerate(out):
                    if not math.isfinite(x):
                        raise ArithmeticError(
                            "%s: the variate at p=%r overflows"
                            % (spec.label, us[2 * i + 1]))
            return out
        return 2, variates

    def variates(us):
        try:
            return list(map(q, us))
        except OverflowError:
            raise _overflow(spec, us) from None
    return 1, variates


def sampler(spec, n, seed):
    """draw(stream_id) -> the `n` variates of `spec` on the (seed, stream_id)
    stream, for stream ids in [0, 2**64).

    Built once per cell: the seed is checked and mixed here, so per sample
    only the stream's own work is left: one kernel call for its uniforms
    and the spec's transform.
    """
    uniforms = seed_uniforms(seed)
    per, variates = transform(spec)
    count = per * n

    def draw(stream_id):
        return variates(uniforms(stream_id, count))
    return draw


def sample(spec, rng, count):
    """Draw `count` variates from the given distribution on `rng`."""
    count = _checks.integer(count, "count", 0)
    return sampler(spec, count, rng.seed)(rng.stream_id)
