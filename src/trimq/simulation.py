"""Deterministic Monte-Carlo harness for estimator robustness/efficiency.

Two studies, both reproducible to the byte given a seed:

* ``run_sim1``: robustness of a single targeted quantile.  Draw many
  samples, estimate the target quantile with each estimator, then report
  the spread of those estimates at a set of report quantiles.  Replication
  r always uses stream_id = r, so extending the replication count extends
  the estimate list without changing its prefix.

* ``run_sim2``: relative efficiency against the HF7 baseline.  For each
  (distribution, n, p) cell, average squared error against the true
  quantile over batches of samples, take the median batch as the MSE, and
  report eff = mse_hf7 / mse_estimator.  Stream ids are the FNV-1a hash
  of "label|n|p|batch|sample", independent of estimator and scheduling,
  so every estimator sees identical samples and the HF7 self-ratio is
  exactly 1.  The hash is a left fold, so a cell hashes "label|n|p|" once,
  each batch continues it over "batch|", and each sample over "sample".

Both studies mix the seed once per run or cell and map uniforms to
variates through the spec's one transform (``distributions.transform``),
which calls the family's inverse CDF once per list of uniforms.
``run_sim1`` draws each replication's stream in one kernel call
(``stream_uniforms``) and maps it in one transform.  ``run_sim2`` draws a
batch's samples in pieces of about ``_PIECE`` uniforms: one kernel call
(``batch_uniforms``) derives the stream ids of the piece's samples from the
batch's hash and draws their uniforms, one transform maps them all, and one
more kernel call (``piece_errors``) sorts each sample's n values and scores
it by every estimator.  The estimators reach that kernel as data, not as
callables: each id of ``ESTIMATORS`` has a scorer, the HF7 index and
fraction or a window of weights, built once per (n, p); a callable
estimator, such as a factory passed to ``estimate_mse``, runs per sample in
Python.

The ``threads`` argument counts worker processes.  Where the ``fork``
start method exists and the calling process runs no other Python thread,
up to that many forked workers split the replication/cell loops;
otherwise, and at one worker, the loops run in-process.  Results are
reassembled in a fixed order, so the worker count never changes the output.
"""

import csv
import dataclasses
import functools
import io
import math
import threading
from dataclasses import MISSING, dataclass, field
from typing import NamedTuple

from . import _checks
from ._kernels_py import _estimator
from .backend import kernels as _k
from .distributions import DistributionSpec, transform, true_quantile
from .estimators import _hf7, _sqrt_width, _trimmed_weights
from .rng import _seed_mix, fnv1a64

__all__ = [
    "ConfigError",
    "Sim1Config",
    "Sim2Config",
    "Sim1Result",
    "Sim2Row",
    "EfficiencyReport",
    "ESTIMATORS",
    "run_sim1",
    "run_sim2",
    "estimate_mse",
]

_CHUNK = 512
# uniforms the sim2 cell loop draws per kernel call: large enough that the
# call's cost is spread over many samples, small enough that a cell's
# memory does not grow with samples_per_batch * n
_PIECE = 4096
_ROLES = ("hf7", "hd", "thd")


class ConfigError(ValueError):
    """Invalid simulation config; the message names the offending field."""


# estimator id -> scorer(n, p): the data of its estimate over n sorted
# values (see _kernels_py.piece_errors), the HF7 index or the weights'
# support window, built once per (n, p), not per sample
_SCORERS = {
    "hf7": _hf7,
    "hd": lambda n, p: _trimmed_weights(n, p, 1.0),
    "thd-sqrt": lambda n, p: _trimmed_weights(n, p, _sqrt_width(n)),
}


def _factory(scorer):
    return lambda n, p: _estimator(scorer(n, p))


# estimator id -> factory(n, p) -> callable(sorted values) -> estimate
ESTIMATORS = {eid: _factory(scorer) for eid, scorer in _SCORERS.items()}


# ---------------------------------------------------------------------------
# configs
#
# Each config field declares its rule once, as a converter(value, path) in
# its metadata; a converter returns the value the run uses or raises
# ValueError with a message that starts with the field's path.

def _as_spec(value, path):
    if isinstance(value, DistributionSpec):
        return value
    if not isinstance(value, str):
        raise ValueError("%s must be a distribution spec string, got %r"
                         % (path, value))
    try:
        return DistributionSpec.parse(value)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _as_estimator_id(value, path):
    if not isinstance(value, str) or value not in ESTIMATORS:
        raise ValueError("%s must be an estimator id (known: %s), got %r"
                         % (path, ", ".join(sorted(ESTIMATORS)), value))
    return value


def _as_roles(value, path):
    if not isinstance(value, dict) or set(value) != set(_ROLES):
        raise ValueError("%s must be an object with exactly the keys %s, "
                         "got %r" % (path, ", ".join(_ROLES), value))
    return {role: _as_estimator_id(value[role], "%s.%s" % (path, role))
            for role in _ROLES}


def _as_odd_count(value, path):
    count = _checks.integer(value, path, 1)
    if count % 2 == 0:
        raise ValueError("%s must be odd so that the median batch is unique, "
                         "got %d" % (path, count))
    return count


_as_count = functools.partial(_checks.integer, low=1)
_as_open_prob = functools.partial(_checks.fraction, interval="(0, 1)")


def _each(convert):
    """The converter of a non-empty list whose items `convert` takes."""
    def convert_all(value, path):
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError("%s must be a non-empty list, got %r"
                             % (path, value))
        return tuple(convert(v, "%s[%d]" % (path, i))
                     for i, v in enumerate(value))
    return convert_all


def _field(convert, **default):
    return field(metadata={"convert": convert}, **default)


def _convert_fields(self):
    """Each field through the converter it declares, however the config was
    built: directly, by from_dict or by dataclasses.replace."""
    for f in dataclasses.fields(self):
        try:
            value = f.metadata["convert"](getattr(self, f.name), f.name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, f.name, value)


def _from_dict(cls, data):
    """`cls` from a JSON object; the fields without a default are
    required."""
    fields = dataclasses.fields(cls)
    if not isinstance(data, dict):
        raise ConfigError("%s must be a JSON object, got %r"
                          % (cls.__name__, type(data).__name__))
    known = {f.name for f in fields}
    for key in data:
        if key not in known:
            raise ConfigError("%s: unknown field (known: %s)"
                              % (key, ", ".join(sorted(known))))
    for f in fields:
        if (f.name not in data and f.default is MISSING
                and f.default_factory is MISSING):
            raise ConfigError("%s: required field is missing" % f.name)
    return cls(**data)


@dataclass(frozen=True)
class Sim1Config:
    spec: DistributionSpec = _field(_as_spec)
    sample_size: int = _field(_as_count)
    replications: int = _field(_as_count)
    p_estimated: float = _field(_as_open_prob)
    report_quantiles: tuple = _field(
        _each(_checks.fraction),
        default=(0.0, 0.01, 0.02, 0.03, 0.04, 0.96, 0.97, 0.98, 0.99, 1.0))
    estimators: tuple = _field(_each(_as_estimator_id),
                               default=("hf7", "hd", "thd-sqrt"))
    seed: int = _field(_checks.integer, default=0)

    __post_init__ = _convert_fields
    from_dict = classmethod(_from_dict)


@dataclass(frozen=True)
class Sim2Config:
    specs: tuple = _field(_each(_as_spec))
    sample_sizes: tuple = _field(_each(_as_count))
    p_grid: tuple = _field(_each(_as_open_prob))
    samples_per_batch: int = _field(_as_count)
    batches: int = _field(_as_odd_count)
    seed: int = _field(_checks.integer, default=0)
    # role -> estimator id; swapping ids in (or repeating one) lets the same
    # harness compute self-efficiency and ablations
    estimators: dict = _field(_as_roles, default_factory=lambda: {
        "hf7": "hf7", "hd": "hd", "thd": "thd-sqrt"})

    __post_init__ = _convert_fields
    from_dict = classmethod(_from_dict)


# ---------------------------------------------------------------------------
# results

def _fmt(x):
    return "%.17g" % x


def _csv(header, string_rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(string_rows)
    return buf.getvalue()


@dataclass(frozen=True)
class Sim1Result:
    """Rows of (report_quantile, estimator id, value) plus the raw
    per-replication estimates keyed by estimator id."""

    rows: tuple
    estimates: dict

    def to_csv(self):
        return _csv(("report_quantile", "estimator", "value"),
                    [(_fmt(q), eid, _fmt(v)) for q, eid, v in self.rows])


class Sim2Row(NamedTuple):
    distribution: str
    n: int
    p: float
    mse_hf7: float
    mse_hd: float
    mse_thd: float
    eff_hd: float
    eff_thd: float


@dataclass(frozen=True)
class EfficiencyReport:
    rows: tuple

    def to_csv(self):
        return _csv(
            ("distribution", "n", "p", "mse_hf7", "mse_hd", "mse_thd",
             "eff_hd", "eff_thd"),
            [(r.distribution, str(r.n), _fmt(r.p), _fmt(r.mse_hf7),
              _fmt(r.mse_hd), _fmt(r.mse_thd), _fmt(r.eff_hd),
              _fmt(r.eff_thd)) for r in self.rows])


# ---------------------------------------------------------------------------
# harness

# in a forked worker process: the (worker, chunks) of the run that forked it
_TASK = None


def _install_task(worker, chunks):
    global _TASK
    _TASK = (worker, chunks)


def _run_task(index):
    worker, chunks = _TASK
    return worker(chunks[index])


def _run_chunks(worker, chunks, threads, cost):
    """[worker(c) for c in chunks], on up to `threads` worker processes.

    `cost(chunk)` ranks chunks by their expected run time.  The pool takes
    the costliest first, so the tasks left when a worker runs dry are the
    short ones and the other worker does not idle through a long one.
    """
    workers = min(_checks.integer(threads, "threads", 1), len(chunks))
    # a fork copies no thread but the caller's, nor releases the locks the
    # others hold, so a process with other threads runs the loops itself
    if workers > 1 and threading.active_count() == 1:
        # imported here so that single-worker runs do not pay for them
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            order = sorted(range(len(chunks)),
                           key=lambda i: cost(chunks[i]), reverse=True)
            # fork hands the closures to the workers without pickling them;
            # only chunk indices go out and results come back
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_install_task,
                    initargs=(worker, chunks)) as pool:
                results = [None] * len(chunks)
                for i, result in zip(order, pool.map(_run_task, order)):
                    results[i] = result
                return results
    return [worker(c) for c in chunks]


def run_sim1(config, threads=1):
    """Run the robustness study; see the module docstring for the scheme."""
    spec = config.spec
    n = config.sample_size
    factories = [(eid, ESTIMATORS[eid](n, config.p_estimated))
                 for eid in config.estimators]
    per, variates = transform(spec)
    seed_mix = _seed_mix(config.seed)

    def block(bounds):
        lo, hi = bounds
        out = []
        for r in range(lo, hi):
            xs = sorted(variates(_k.stream_uniforms(seed_mix, r, 0, per * n)))
            out.append(tuple(est(xs) for _, est in factories))
        return out

    reps = config.replications
    chunks = [(lo, min(lo + _CHUNK, reps)) for lo in range(0, reps, _CHUNK)]
    per_rep = [row for part in _run_chunks(block, chunks, threads,
                                           cost=lambda b: b[1] - b[0])
               for row in part]

    estimates = {}
    sorted_estimates = {}
    for idx, (eid, _) in enumerate(factories):
        vals = tuple(row[idx] for row in per_rep)
        estimates[eid] = vals
        sorted_estimates[eid] = sorted(vals)
    rows = tuple(
        (q, eid, _estimator(_hf7(reps, q))(sorted_estimates[eid]))
        for q in config.report_quantiles
        for eid, _ in factories)
    return Sim1Result(rows, estimates)


def _mse_cell(spec, n, p, estimators, samples_per_batch, batches, seed):
    """Median-over-batches MSE for each named estimator on shared samples.

    `estimators` is an ordered list of (key, scorer), a scorer being the
    data of one estimate or a callable over sorted values (see
    _kernels_py.piece_errors).  One stream per (cell, batch, sample),
    derived by hashing, so results do not depend on which estimators or
    cells run together.  A batch's samples are drawn in pieces: one kernel
    call for the uniforms of a piece's streams, one transform, then one
    kernel call that sorts each sample and scores it by every estimator.
    """
    theta = true_quantile(spec, p)
    per, variates = transform(spec)
    seed_mix = _seed_mix(seed)
    # samples per piece: about _PIECE uniforms, and at least one sample
    step = max(1, _PIECE // (per * n))
    cell = fnv1a64("%s|%d|%r|" % (spec.label, n, p))
    scorers = [scorer for _, scorer in estimators]
    means = [[] for _ in estimators]
    for b in range(batches):
        batch = fnv1a64("%d|" % b, cell)
        sq = [[] for _ in estimators]
        for first in range(0, samples_per_batch, step):
            count = min(step, samples_per_batch - first)
            values = variates(_k.batch_uniforms(seed_mix, batch, first,
                                                count, per * n))
            for errs, new in zip(sq, _k.piece_errors(values, n, theta,
                                                     scorers)):
                errs += new
        for m, errs in zip(means, sq):
            m.append(math.fsum(errs) / samples_per_batch)
    for m in means:
        m.sort()
    return {key: m[batches // 2] for (key, _), m in zip(estimators, means)}


def _ratio(num, den):
    return num / den if den > 0.0 else math.inf


def run_sim2(config, threads=1):
    """Run the efficiency study; see the module docstring for the scheme."""
    roles = config.estimators

    def cell_row(cell):
        spec, n, p = cell
        # each role's scorer from its id: the callables of ESTIMATORS can
        # only be called, so their estimates could not run in one kernel
        ests = [(role, _SCORERS[roles[role]](n, p)) for role in _ROLES]
        mse = _mse_cell(spec, n, p, ests, config.samples_per_batch,
                        config.batches, config.seed)
        return Sim2Row(spec.label, n, p, mse["hf7"], mse["hd"], mse["thd"],
                       _ratio(mse["hf7"], mse["hd"]),
                       _ratio(mse["hf7"], mse["thd"]))

    cells = [(spec, n, p) for spec in config.specs
             for n in config.sample_sizes for p in config.p_grid]
    # a cell's time grows with its sample size: n draws, sorts and sums
    # for each of its samples_per_batch * batches samples
    return EfficiencyReport(tuple(_run_chunks(cell_row, cells, threads,
                                              cost=lambda cell: cell[1])))


def estimate_mse(estimator, spec, n, p, samples_per_batch, batches, seed):
    """MSE of one estimator under the run_sim2 protocol (same streams).

    `estimator` is an id from ESTIMATORS or a factory callable(n, p) that
    returns an estimate callable over sorted values, which runs per sample
    in Python; `spec` is a
    DistributionSpec or, as in a config, a spec string, and `p` reads as a
    config's p_grid entry does, so equal values draw the same streams.
    """
    factory = (estimator if callable(estimator)
               else _SCORERS[_as_estimator_id(estimator, "estimator")])
    spec = _as_spec(spec, "spec")
    n = _as_count(n, "n")
    p = _as_open_prob(p, "p")
    samples_per_batch = _as_count(samples_per_batch, "samples_per_batch")
    batches = _as_odd_count(batches, "batches")
    mse = _mse_cell(spec, n, p, [("est", factory(n, p))], samples_per_batch,
                    batches, seed)
    return mse["est"]
