"""The input rules of every public entry point, each written once.

A rule returns its argument converted to the type the caller computes with,
or raises ValueError with a message that starts with `what`: the argument,
config field or command-line flag being checked.
"""

__all__ = ["fraction", "integer"]

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


def fraction(value, what, interval="[0, 1]"):
    """`value` as a float in `interval`, a key of _INTERVALS: p, x and
    epsilon in [0, 1], a width in (0, 1], a config's p in (0, 1).  A string
    that float() reads counts; True does not."""
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if _INTERVALS[interval](x):
                return x
            value = x
    raise ValueError("%s must lie in %s, got %r" % (what, interval, value))


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
