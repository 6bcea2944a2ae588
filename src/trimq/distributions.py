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
        resolved = {}
        for name, default in fields:
            if name in params:
                value = float(params[name])
            elif default is not None:
                value = default
            else:
                raise ValueError("missing required parameter %r for %s"
                                 % (name, canon))
            if not math.isfinite(value):
                raise ValueError("parameter %s of %s must be finite, got %r"
                                 % (name, canon, params[name]))
            resolved[name] = value
        self.kind = canon
        self.params = resolved
        self._validate()

    def _validate(self):
        prm = self.params
        for name in _POSITIVE.get(self.kind, ()):
            if prm[name] <= 0.0:
                raise ValueError("parameter %s of %s must be positive, got %g"
                                 % (name, self.kind, prm[name]))
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


def _q_uniform(prm, p):
    return prm["a"] + (prm["b"] - prm["a"]) * p


def _q_triangular(prm, p):
    a, b, c = prm["a"], prm["b"], prm["c"]
    split = (c - a) / (b - a)
    if p < split:
        return a + math.sqrt(p * (b - a) * (c - a))
    return b - math.sqrt((1.0 - p) * (b - a) * (b - c))


def _q_beta(prm, p):
    a, b = prm["a"], prm["b"]
    return _bisect_cdf(lambda x: _k.reg_inc_beta(x, a, b), p, 0.0, 1.0)


def _q_normal(prm, p):
    return prm["m"] + prm["sd"] * _k.norm_quantile(p)


def _q_weibull(prm, p):
    return prm["scale"] * (-math.log1p(-p)) ** (1.0 / prm["shape"])


def _q_student(prm, p):
    df = prm["df"]
    return _invert_unbounded(lambda t: _student_cdf(t, df), p)


def _q_gumbel(prm, p):
    return prm["loc"] - prm["scale"] * math.log(-math.log(p))


def _q_exp(prm, p):
    return -math.log1p(-p) / prm["rate"]


def _q_cauchy(prm, p):
    return prm["x0"] + prm["gamma"] * math.tan(math.pi * (p - 0.5))


def _q_pareto(prm, p):
    return prm["loc"] * (1.0 - p) ** (-1.0 / prm["shape"])


def _q_lognormal(prm, p):
    return math.exp(prm["mlog"] + prm["sdlog"] * _k.norm_quantile(p))


def _q_frechet(prm, p):
    return (-math.log(p)) ** (-1.0 / prm["shape"])


def _q_contaminated_normal(prm, p):
    eps, sigma = prm["epsilon"], prm["sigma"]
    wide = sigma * math.sqrt(prm["c"])

    def cdf(x):
        return (1.0 - eps) * _phi(x / sigma) + eps * _phi(x / wide)

    return _invert_unbounded(cdf, p)


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
    return _QUANTILES[spec.kind](spec.params,
                                 _checks.fraction(p, "p", "(0, 1)"))


def sample(spec, rng, count):
    """Draw `count` variates from the given distribution on `rng`."""
    count = _checks.integer(count, "count", 0)
    prm = spec.params
    if spec.kind == "ContaminatedNormal":
        eps, sigma = prm["epsilon"], prm["sigma"]
        wide = sigma * math.sqrt(prm["c"])
        us = rng.uniforms(2 * count)
        out = [0.0] * count
        for i in range(count):
            sd = wide if us[2 * i] < eps else sigma
            out[i] = sd * _k.norm_quantile(us[2 * i + 1])
        return out
    q = _QUANTILES[spec.kind]
    return [q(prm, u) for u in rng.uniforms(count)]
