"""The input rules of every public entry point, each written once, and the
one number format that spec labels and the CLI write.

A rule returns its argument converted to the type the caller computes with,
or raises ValueError with a message that starts with `what`: the argument,
config field or command-line flag being checked.
"""

import math

__all__ = ["fraction", "integer", "number_text", "real"]

# interval -> its test on a float; NaN fails every one
_INTERVALS = {
    "[0, 1]": lambda x: 0.0 <= x <= 1.0,
    "(0, 1)": lambda x: 0.0 < x < 1.0,
    "(0, 1]": lambda x: 0.0 < x <= 1.0,
}

# lower bound -> what the integer rule asks for
_INTEGERS = {
    None: "an integer",
    0: "a non-negative integer",
    1: "a positive integer",
}


def _float(value):
    """`value` as float() reads it, or None: a string float() reads counts,
    True and False do not."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def fraction(value, what, interval="[0, 1]"):
    """`value` as a float in `interval`, a key of _INTERVALS: p, x and
    epsilon in [0, 1], a width in (0, 1], a config's p in (0, 1)."""
    x = _float(value)
    if x is not None and _INTERVALS[interval](x):
        return x
    raise ValueError("%s must lie in %s, got %r"
                     % (what, interval, value if x is None else x))


def real(value, what, positive=False):
    """`value` as a finite float, above 0 if `positive`: beta shapes, the
    argument of log_gamma and distribution parameters."""
    x = _float(value)
    if x is not None and math.isfinite(x) and (x > 0.0 or not positive):
        return x
    raise ValueError("%s must be a finite %snumber, got %r"
                     % (what, "positive " if positive else "",
                        value if x is None else x))


def integer(value, what, low=None):
    """`value` as an int of at least `low`, a key of _INTEGERS.  Integral
    numbers such as 10.0 count; 2.5, True, NaN and "10" do not, where int()
    would floor the first, read True as 1 and parse the last."""
    k = value
    if type(value) is not int:  # a plain int, the per-sample case, passes
        try:
            k = int(value)
        except (TypeError, ValueError, OverflowError):
            k = None
        if k != value or isinstance(value, bool):
            k = None
    if k is None or (low is not None and k < low):
        raise ValueError("%s must be %s, got %r"
                         % (what, _INTEGERS[low], value))
    return k


def number_text(x):
    """The float `x` as trimq writes it: integral values below 1e16 bare,
    the rest, 1e+308, inf and nan among them, as repr writes them, so that
    float() reads each back to `x`."""
    return str(int(x)) if abs(x) < 1e16 and x == int(x) else repr(x)
