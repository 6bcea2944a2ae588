"""Distribution specs: deterministic samplers and true quantile functions.

A DistributionSpec names a family and its parameters, e.g.
``Pareto(loc=1, shape=0.5)``.  Every family provides both an exact quantile
function theta(p) and a sampler; samplers draw by inverse-CDF transform of
RngStream uniforms, so identical (seed, stream_id) give identical variates
on every platform and thread count.  The contaminated normal samples
compositionally (one uniform picks the mixture component, one feeds the
normal quantile) and therefore consumes exactly two uniforms per variate.
"""

import math
import re

from . import _checks
from .backend import kernels as _k

__all__ = ["DistributionSpec", "true_quantile", "sample"]

_SQRT2 = math.sqrt(2.0)


def _phi(z):
    return 0.5 * math.erfc(-z / _SQRT2)


# canonical kind -> ordered (field, default); None means required
_FIELDS = {
    "Uniform": (("a", 0.0), ("b", 1.0)),
    "Triangular": (("a", None), ("b", None), ("c", None)),
    "Beta": (("a", None), ("b", None)),
    "Normal": (("m", 0.0), ("sd", 1.0)),
    "Weibull": (("scale", 1.0), ("shape", None)),
    "Student": (("df", None),),
    "Gumbel": (("loc", 0.0), ("scale", 1.0)),
    "Exp": (("rate", 1.0),),
    "Cauchy": (("x0", 0.0), ("gamma", 1.0)),
    "Pareto": (("loc", None), ("shape", None)),
    "LogNormal": (("mlog", 0.0), ("sdlog", 1.0)),
    "Frechet": (("shape", None),),
    "ContaminatedNormal": (("epsilon", None), ("sigma", None), ("c", None)),
}

_ALIASES = {
    "studentt": "Student",
    "exponential": "Exp",
}
_CANON = {k.lower(): k for k in _FIELDS}
_CANON.update(_ALIASES)

# parameters that must be strictly positive, per family
_POSITIVE = {
    "Beta": ("a", "b"),
    "Normal": ("sd",),
    "Weibull": ("scale", "shape"),
    "Student": ("df",),
    "Gumbel": ("scale",),
    "Exp": ("rate",),
    "Cauchy": ("gamma",),
    "Pareto": ("loc", "shape"),
    "LogNormal": ("sdlog",),
    "Frechet": ("shape",),
    "ContaminatedNormal": ("sigma", "c"),
}

_SPEC_RE = re.compile(
    r"^\s*([A-Za-z][A-Za-z0-9]*)\s*(?:\(\s*(.*?)\s*\))?\s*$", re.S)


class DistributionSpec:
    """A named distribution with validated parameters.

    Construct directly (``DistributionSpec("Pareto", loc=1, shape=0.5)``) or
    parse the standard spelling (``DistributionSpec.parse("Pareto(loc=1,
    shape=0.5)")``).  The label round-trips: parse(spec.label) == spec.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind, **params):
        canon = _CANON.get(str(kind).lower())
        if canon is None:
            raise ValueError("unknown distribution kind %r (expected one of %s)"
                             % (kind, ", ".join(sorted(_FIELDS))))
        fields = _FIELDS[canon]
        known = {name for name, _ in fields}
        for name in params:
            if name not in known:
                raise ValueError("unknown parameter %r for %s (expected %s)"
                                 % (name, canon, ", ".join(known)))
        positive = _POSITIVE.get(canon, ())
        resolved = {}
        for name, default in fields:
            if name in params:
                resolved[name] = _checks.real(params[name],
                                              "%s of %s" % (name, canon),
                                              positive=name in positive)
            elif default is not None:
                resolved[name] = default
            else:
                raise ValueError("missing required parameter %r for %s"
                                 % (name, canon))
        self.kind = canon
        self.params = resolved
        self._validate()

    def _validate(self):
        prm = self.params
        if self.kind in ("Uniform", "Triangular") and not prm["a"] < prm["b"]:
            raise ValueError("%s requires a < b, got a=%g b=%g"
                             % (self.kind, prm["a"], prm["b"]))
        if self.kind == "Triangular" and not prm["a"] <= prm["c"] <= prm["b"]:
            raise ValueError("Triangular requires a <= c <= b, got c=%g"
                             % prm["c"])
        if self.kind == "ContaminatedNormal":
            _checks.fraction(prm["epsilon"], "epsilon")

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
        parts = []
        for name, _ in _FIELDS[self.kind]:
            v = self.params[name]
            parts.append("%s=%s" % (name, int(v) if v == int(v) else repr(v)))
        return "%s(%s)" % (self.kind, ", ".join(parts))

    def __repr__(self):
        return "DistributionSpec.parse(%r)" % self.label

    def __eq__(self, other):
        return (isinstance(other, DistributionSpec)
                and self.kind == other.kind and self.params == other.params)

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self.params.items()))))


def _student_cdf(t, df):
    x = df / (df + t * t)
    tail = 0.5 * _k.reg_inc_beta(x, 0.5 * df, 0.5)
    return 1.0 - tail if t >= 0.0 else tail


def _bisect_cdf(cdf, p, lo, hi):
    # expects cdf(lo) < p <= cdf(hi)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 + 1e-12 * abs(mid) or mid <= lo or mid >= hi:
            return mid
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _invert_unbounded(cdf, p):
    lo, hi = -1.0, 1.0
    for _ in range(700):
        if cdf(lo) < p:
            break
        lo *= 2.0
    else:
        raise ArithmeticError("quantile bracket expansion failed (low side)")
    for _ in range(700):
        if cdf(hi) >= p:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("quantile bracket expansion failed (high side)")
    return _bisect_cdf(cdf, p, lo, hi)


# Each family's inverse CDF as a factory: called with the family's
# parameters, it returns q(p), with what does not depend on p worked out
# once.

def _q_uniform(a, b):
    span = b - a
    return lambda p: a + span * p


def _q_triangular(a, b, c):
    split = (c - a) / (b - a)
    ba, ca, bc = b - a, c - a, b - c

    def q(p):
        if p < split:
            return a + math.sqrt(p * ba * ca)
        return b - math.sqrt((1.0 - p) * ba * bc)
    return q


def _q_beta(a, b):
    def cdf(x):
        return _k.reg_inc_beta(x, a, b)
    return lambda p: _bisect_cdf(cdf, p, 0.0, 1.0)


def _q_normal(m, sd):
    norm_quantile = _k.norm_quantile
    return lambda p: m + sd * norm_quantile(p)


def _q_weibull(scale, shape):
    power = 1.0 / shape
    return lambda p: scale * (-math.log1p(-p)) ** power


def _q_student(df):
    def cdf(t):
        return _student_cdf(t, df)
    return lambda p: _invert_unbounded(cdf, p)


def _q_gumbel(loc, scale):
    return lambda p: loc - scale * math.log(-math.log(p))


def _q_exp(rate):
    return lambda p: -math.log1p(-p) / rate


def _q_cauchy(x0, gamma):
    return lambda p: x0 + gamma * math.tan(math.pi * (p - 0.5))


def _q_pareto(loc, shape):
    power = -1.0 / shape
    return lambda p: loc * (1.0 - p) ** power


def _q_lognormal(mlog, sdlog):
    norm_quantile = _k.norm_quantile
    return lambda p: math.exp(mlog + sdlog * norm_quantile(p))


def _q_frechet(shape):
    power = -1.0 / shape
    return lambda p: (-math.log(p)) ** power


def _q_contaminated_normal(epsilon, sigma, c):
    wide = sigma * math.sqrt(c)

    def cdf(x):
        return (1.0 - epsilon) * _phi(x / sigma) + epsilon * _phi(x / wide)
    return lambda p: _invert_unbounded(cdf, p)


_QUANTILES = {
    "Uniform": _q_uniform,
    "Triangular": _q_triangular,
    "Beta": _q_beta,
    "Normal": _q_normal,
    "Weibull": _q_weibull,
    "Student": _q_student,
    "Gumbel": _q_gumbel,
    "Exp": _q_exp,
    "Cauchy": _q_cauchy,
    "Pareto": _q_pareto,
    "LogNormal": _q_lognormal,
    "Frechet": _q_frechet,
    "ContaminatedNormal": _q_contaminated_normal,
}


def true_quantile(spec, p):
    """Exact quantile theta(p) of the given distribution, 0 < p < 1.

    Closed-form inverse CDF where one exists; Beta, Student, and the
    contaminated normal invert their CDFs by bisection (the Student CDF
    comes from the incomplete-beta relation).
    """
    q = _QUANTILES[spec.kind](**spec.params)
    return q(_checks.fraction(p, "p", "(0, 1)"))


def sampler(spec):
    """(k, transform): each variate of `spec` takes k uniforms, and
    transform(us) turns a list of k * count uniforms into `count` variates.

    Built once per spec, so a caller that samples a spec many times looks
    up its family and parameters once.  The contaminated normal takes two
    uniforms per variate, the first picking the component and the second
    feeding the normal quantile; every other family maps each uniform
    through its inverse CDF.
    """
    if spec.kind == "ContaminatedNormal":
        prm = spec.params
        eps, sigma = prm["epsilon"], prm["sigma"]
        wide = sigma * math.sqrt(prm["c"])
        norm_quantile = _k.norm_quantile

        def transform(us):
            return [(wide if pick < eps else sigma) * norm_quantile(u)
                    for pick, u in zip(us[::2], us[1::2])]
        return 2, transform
    q = _QUANTILES[spec.kind](**spec.params)
    return 1, lambda us: list(map(q, us))


def sample(spec, rng, count):
    """Draw `count` variates from the given distribution on `rng`."""
    count = _checks.integer(count, "count", 0)
    k, transform = sampler(spec)
    return transform(rng.uniforms(k * count))
