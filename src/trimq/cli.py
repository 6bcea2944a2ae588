"""Command-line interface.

Three subcommands: ``estimate`` (quantiles of numbers read from a file or
stdin), ``hdi`` (beta highest-density interval), and ``simulate`` (the
Monte-Carlo studies, from a JSON config).  Standard output carries only
machine-parseable CSV rows; all diagnostics go to standard error.  Exit
codes: 0 success, 2 usage, input or configuration error, 3 I/O error.
"""

import argparse
import dataclasses
import json
import sys
import time

from . import __version__, _checks
from ._checks import number_text
from .backend import kernels as _k
from .estimators import Sample, hd_quantile, hf7_quantile, thd_quantile
from .hdi import beta_hdi
from .simulation import (ConfigError, Sim1Config, Sim2Config, run_sim1,
                         run_sim2)
from .special import BetaParams

__all__ = ["main"]


def _fail(code, message):
    print("error: %s" % message, file=sys.stderr)
    return code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="trimq",
        description="Robust quantile estimation (HF7, Harrell-Davis, and "
                    "trimmed Harrell-Davis) and its Monte-Carlo harness.")
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser(
        "estimate", help="estimate quantiles of numbers from a file or stdin")
    est.add_argument("path", nargs="?", default="-",
                     help="input file of whitespace-separated numbers "
                          "(default: stdin)")
    est.add_argument("--method", choices=("hf7", "hd", "thd"), default="thd")
    est.add_argument("--p", default="0.5", metavar="LIST",
                     help="comma-separated probabilities (default 0.5)")
    est.add_argument("--width", default="auto",
                     help="trim interval width for thd: a real in (0, 1] "
                          "or 'auto' for 1/sqrt(n)")

    hdi = sub.add_parser(
        "hdi", help="highest-density interval of a beta distribution")
    hdi.add_argument("--alpha", type=float, required=True)
    hdi.add_argument("--beta", type=float, required=True)
    hdi.add_argument("--width", type=float, required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo study")
    sim.add_argument("--kind", choices=("sim1", "sim2"), required=True)
    sim.add_argument("--config", required=True, metavar="PATH",
                     help="JSON config file")
    sim.add_argument("--out", required=True, metavar="PATH",
                     help="output CSV file")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker processes (output is identical for any "
                          "count)")
    return parser


def _read_numbers(path):
    """The numbers of `path`, or of stdin for "-" (its binary buffer, or its
    text encoded as UTF-8 where it has none), in an array('d')."""
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        data = (sys.stdin.read().encode("utf-8") if buffer is None
                else buffer.read())
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return _k.parse_floats(data)


def _cmd_estimate(args):
    try:
        probs = [_checks.fraction(tok, "--p")
                 for tok in args.p.split(",") if tok.strip()]
        width = (None if args.width == "auto"
                 else _checks.fraction(args.width, "--width", "(0, 1]"))
    except ValueError as exc:
        return _fail(2, str(exc))
    if not probs:
        return _fail(2, "--p expects at least one probability")
    if width is not None and args.method != "thd":
        return _fail(2, "--width applies only to the thd method")

    try:
        values = _read_numbers(args.path)
    except OSError as exc:
        return _fail(3, "cannot read %s: %s" % (args.path, exc))
    except ValueError as exc:
        return _fail(2, str(exc))
    if not values:
        return _fail(2, "empty input: expected at least one number")

    sample = Sample(values)
    rows = []
    try:  # the incomplete beta gives out above n of about 3.3e5
        for p in probs:
            if args.method == "hf7":
                est = hf7_quantile(sample, p)
            elif args.method == "hd":
                est = hd_quantile(sample, p)
            else:
                est = thd_quantile(sample, p, width)
            rows.append("%s,%s\n" % (number_text(p), number_text(est)))
    except ArithmeticError as exc:
        return _fail(2, "cannot estimate at n=%d: %s" % (sample.n, exc))
    sys.stdout.write("".join(rows))
    return 0


def _cmd_hdi(args):
    try:
        params = BetaParams(_checks.real(args.alpha, "--alpha", positive=True),
                            _checks.real(args.beta, "--beta", positive=True))
        interval = beta_hdi(params,
                            _checks.fraction(args.width, "--width", "(0, 1]"))
    except ValueError as exc:
        return _fail(2, str(exc))
    except ArithmeticError as exc:  # e.g. a density past the largest double
        return _fail(2, "cannot find the HDI of Beta(%s, %s): %s"
                     % (number_text(params.alpha), number_text(params.beta),
                        exc))
    print("%s,%s,%s" % (number_text(interval.lower),
                        number_text(interval.upper), interval.case.value))
    return 0


def _unique_keys(pairs):
    """A JSON object as a dict, for json's object_pairs_hook: a key given
    twice raises ConfigError instead of keeping the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError("key %r is given twice" % key)
        obj[key] = value
    return obj


def _cmd_simulate(args):
    try:
        _checks.integer(args.threads, "--threads", 1)
    except ValueError as exc:
        return _fail(2, str(exc))
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        return _fail(3, "cannot read config %s: %s" % (args.config, exc))
    except json.JSONDecodeError as exc:
        return _fail(2, "config %s is not valid JSON: %s" % (args.config, exc))
    except ConfigError as exc:
        return _fail(2, "config %s: %s" % (args.config, exc))

    try:
        if args.kind == "sim1":
            config = Sim1Config.from_dict(raw)
        else:
            config = Sim2Config.from_dict(raw)
    except ConfigError as exc:
        return _fail(2, "config %s: %s" % (args.config, exc))

    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    started = time.perf_counter()
    try:  # e.g. a Beta cell whose shapes are past the incomplete beta's range
        if args.kind == "sim1":
            result = run_sim1(config, threads=args.threads)
        else:
            result = run_sim2(config, threads=args.threads)
    except ArithmeticError as exc:
        return _fail(2, "cannot simulate %s: %s" % (args.config, exc))
    except OSError as exc:  # e.g. a worker process that could not fork
        return _fail(3, "cannot simulate %s: %s" % (args.config, exc))
    elapsed = time.perf_counter() - started

    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(result.to_csv())
    except OSError as exc:
        return _fail(3, "cannot write %s: %s" % (args.out, exc))

    print("wrote %d rows to %s in %.2fs" % (len(result.rows), args.out,
                                            elapsed), file=sys.stderr)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "hdi": _cmd_hdi,
    "simulate": _cmd_simulate,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return _COMMANDS[args.command](args)
