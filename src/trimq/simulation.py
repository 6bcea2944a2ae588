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
  report eff = mse_hf7 / mse_estimator.  Stream ids are hashed from
  (label, n, p, batch, sample), independent of estimator and scheduling,
  so every estimator sees identical samples and the HF7 self-ratio is
  exactly 1.

The ``threads`` argument counts worker processes.  Where the ``fork``
start method exists and the calling process runs no other Python thread,
up to that many forked workers split the replication/cell loops;
otherwise, and at one worker, the loops run in-process.  Results are
reassembled in a fixed order, so the worker count never changes the output.
"""

import csv
import io
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from .distributions import DistributionSpec, sample, true_quantile
from .estimators import (_check_n, _hf7, _sqrt_width, _weighted_sum,
                         hd_weights, thd_weights)
from .rng import RngStream, fnv1a64

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
_ROLES = ("hf7", "hd", "thd")


class ConfigError(ValueError):
    """Invalid simulation config; the message names the offending field."""


# estimator id -> factory(n, p) -> callable(sorted values) -> estimate; the
# weights and the HF7 index are built once per (n, p), not per sample
ESTIMATORS = {
    "hf7": _hf7,
    "hd": lambda n, p: _weighted_sum(hd_weights(n, p)),
    "thd-sqrt": lambda n, p: _weighted_sum(
        thd_weights(n, p, _sqrt_width(n))),
}


# ---------------------------------------------------------------------------
# configs

def _fail(path, message, value):
    raise ConfigError("%s: %s, got %r" % (path, message, value))


def _as_spec(value, path):
    if isinstance(value, DistributionSpec):
        return value
    if not isinstance(value, str):
        _fail(path, "expected a distribution spec string", value)
    try:
        return DistributionSpec.parse(value)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (path, exc)) from None


def _as_pos_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        _fail(path, "expected a positive integer", value)
    return value


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer", value)
    return value


def _as_prob(value, path, closed=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number", value)
    value = float(value)
    if closed:
        if not 0.0 <= value <= 1.0:
            _fail(path, "expected a probability in [0, 1]", value)
    elif not 0.0 < value < 1.0:
        _fail(path, "expected a probability in (0, 1)", value)
    return value


def _as_list(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a non-empty list", value)
    return value


def _as_estimator_id(value, path):
    if value not in ESTIMATORS:
        _fail(path, "unknown estimator id (known: %s)"
              % ", ".join(sorted(ESTIMATORS)), value)
    return value


def _check_fields(data, known, what):
    if not isinstance(data, dict):
        raise ConfigError("%s config must be a JSON object, got %r"
                          % (what, type(data).__name__))
    for key in data:
        if key not in known:
            raise ConfigError("%s: unknown field (known: %s)"
                              % (key, ", ".join(sorted(known))))


@dataclass(frozen=True)
class Sim1Config:
    spec: DistributionSpec
    sample_size: int
    replications: int
    p_estimated: float
    report_quantiles: tuple = (0.0, 0.01, 0.02, 0.03, 0.04,
                               0.96, 0.97, 0.98, 0.99, 1.0)
    estimators: tuple = ("hf7", "hd", "thd-sqrt")
    seed: int = 0

    @classmethod
    def from_dict(cls, data):
        _check_fields(data, {"spec", "sample_size", "replications",
                             "p_estimated", "report_quantiles", "estimators",
                             "seed"}, "sim1")
        missing = [k for k in ("spec", "sample_size", "replications",
                               "p_estimated") if k not in data]
        if missing:
            raise ConfigError("%s: required field is missing" % missing[0])
        kwargs = {
            "spec": _as_spec(data["spec"], "spec"),
            "sample_size": _as_pos_int(data["sample_size"], "sample_size"),
            "replications": _as_pos_int(data["replications"], "replications"),
            "p_estimated": _as_prob(data["p_estimated"], "p_estimated"),
        }
        if "report_quantiles" in data:
            raw = _as_list(data["report_quantiles"], "report_quantiles")
            kwargs["report_quantiles"] = tuple(
                _as_prob(v, "report_quantiles[%d]" % i, closed=True)
                for i, v in enumerate(raw))
        if "estimators" in data:
            raw = _as_list(data["estimators"], "estimators")
            kwargs["estimators"] = tuple(
                _as_estimator_id(v, "estimators[%d]" % i)
                for i, v in enumerate(raw))
        if "seed" in data:
            kwargs["seed"] = _as_int(data["seed"], "seed")
        return cls(**kwargs)


@dataclass(frozen=True)
class Sim2Config:
    specs: tuple
    sample_sizes: tuple
    p_grid: tuple
    samples_per_batch: int
    batches: int
    seed: int = 0
    # role -> estimator id; swapping ids in (or repeating one) lets the same
    # harness compute self-efficiency and ablations
    estimators: dict = field(default_factory=lambda: {
        "hf7": "hf7", "hd": "hd", "thd": "thd-sqrt"})

    @classmethod
    def from_dict(cls, data):
        _check_fields(data, {"specs", "sample_sizes", "p_grid",
                             "samples_per_batch", "batches", "estimators",
                             "seed"}, "sim2")
        missing = [k for k in ("specs", "sample_sizes", "p_grid",
                               "samples_per_batch", "batches")
                   if k not in data]
        if missing:
            raise ConfigError("%s: required field is missing" % missing[0])
        batches = _as_pos_int(data["batches"], "batches")
        if batches % 2 == 0:
            raise ConfigError(
                "batches: expected an odd count so the median batch is "
                "unique, got %d" % batches)
        kwargs = {
            "specs": tuple(_as_spec(v, "specs[%d]" % i) for i, v in
                           enumerate(_as_list(data["specs"], "specs"))),
            "sample_sizes": tuple(
                _as_pos_int(v, "sample_sizes[%d]" % i) for i, v in
                enumerate(_as_list(data["sample_sizes"], "sample_sizes"))),
            "p_grid": tuple(
                _as_prob(v, "p_grid[%d]" % i) for i, v in
                enumerate(_as_list(data["p_grid"], "p_grid"))),
            "samples_per_batch": _as_pos_int(data["samples_per_batch"],
                                             "samples_per_batch"),
            "batches": batches,
        }
        if "seed" in data:
            kwargs["seed"] = _as_int(data["seed"], "seed")
        if "estimators" in data:
            raw = data["estimators"]
            if not isinstance(raw, dict) or set(raw) != set(_ROLES):
                raise ConfigError(
                    "estimators: expected an object with exactly the keys "
                    "hf7, hd, thd, got %r" % (raw,))
            kwargs["estimators"] = {
                role: _as_estimator_id(raw[role], "estimators.%s" % role)
                for role in _ROLES}
        return cls(**kwargs)


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
    if threads < 1:
        raise ValueError("threads must be a positive integer, got %r"
                         % (threads,))
    workers = min(threads, len(chunks))
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

    def block(bounds):
        lo, hi = bounds
        out = []
        for r in range(lo, hi):
            xs = sorted(sample(spec, RngStream(config.seed, r), n))
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
        (q, eid, _hf7(reps, q)(sorted_estimates[eid]))
        for q in config.report_quantiles
        for eid, _ in factories)
    return Sim1Result(rows, estimates)


def _mse_cell(spec, n, p, estimators, samples_per_batch, batches, seed):
    """Median-over-batches MSE for each named estimator on shared samples.

    `estimators` is an ordered list of (key, estimate callable).  One stream
    per (cell, batch, sample), derived by hashing, so results do not depend
    on which estimators or cells run together.
    """
    label = spec.label
    theta = true_quantile(spec, p)
    means = {key: [] for key, _ in estimators}
    for b in range(batches):
        sq = {key: [] for key, _ in estimators}
        for s in range(samples_per_batch):
            sid = fnv1a64("%s|%d|%r|%d|%d" % (label, n, p, b, s))
            xs = sorted(sample(spec, RngStream(seed, sid), n))
            for key, est in estimators:
                err = est(xs) - theta
                sq[key].append(err * err)
        for key, _ in estimators:
            means[key].append(math.fsum(sq[key]) / samples_per_batch)
    return {key: sorted(means[key])[batches // 2] for key, _ in estimators}


def _ratio(num, den):
    return num / den if den > 0.0 else math.inf


def run_sim2(config, threads=1):
    """Run the efficiency study; see the module docstring for the scheme."""
    roles = config.estimators

    def cell_row(cell):
        spec, n, p = cell
        ests = [(role, ESTIMATORS[roles[role]](n, p)) for role in _ROLES]
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
    returns an estimate callable over sorted values.
    """
    if callable(estimator):
        factory = estimator
    else:
        if estimator not in ESTIMATORS:
            raise ValueError("unknown estimator id %r (known: %s)"
                             % (estimator, ", ".join(sorted(ESTIMATORS))))
        factory = ESTIMATORS[estimator]
    n = _check_n(n)
    samples_per_batch = int(samples_per_batch)
    batches = int(batches)
    if samples_per_batch < 1 or batches < 1:
        raise ValueError("samples_per_batch and batches must be positive")
    if batches % 2 == 0:
        raise ValueError("batches must be odd so the median batch is unique")
    mse = _mse_cell(spec, n, p, [("est", factory(n, p))], samples_per_batch,
                    batches, seed)
    return mse["est"]
