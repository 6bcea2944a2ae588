"""Per-layer tracing of trimq, applied from outside the package.

`Tracer.installed()` replaces, for its duration, the references one trimq
module holds to another module's callables with timing wrappers, and gives
every module that holds the numeric backend a proxy in which each public
callable of the backend is wrapped.  Calls inside one module stay
unwrapped, so each span marks a layer boundary and the per-call cost lands
only where the layers meet.  Nothing in the package is edited, every patch
is undone on exit, and a call site that no longer exists is skipped and
named in the snapshot rather than failing the run.

Each thread keeps a tree of spans: a node per distinct call path, holding
the call count, busy (inclusive) time, self time (busy minus traced
children), a work count (variates, uniform draws) and, for simulation
cells, thread CPU time.  Memory is bounded by the number of distinct call
paths, not by the number of calls.

Span names are `<layer>.<callable>`, the layers being the package modules:
cli, simulation, rng, distributions, estimators, hdi, and `kernels` for the
backend that `trimq.BACKEND` names.
"""

import builtins
import contextlib
import importlib
import statistics
import sys
import threading
import time

# (module holding the reference, name, span).  Most names were imported from
# another layer, so wrapping the binding times calls across the boundary.
# The last two are same-module calls timed as stages of their own: the
# per-cell sample loop, and the builtin sorted, shadowed by a module global.
CALL_SITES = (
    ("cli", "Sample", "estimators.Sample"),
    ("cli", "hf7_quantile", "estimators.quantile"),
    ("cli", "hd_quantile", "estimators.quantile"),
    ("cli", "thd_quantile", "estimators.quantile"),
    ("cli", "run_sim1", "simulation.run"),
    ("cli", "run_sim2", "simulation.run"),
    ("cli", "beta_hdi", "hdi.beta_hdi"),
    ("simulation", "fnv1a64", "rng.fnv1a64"),
    ("simulation", "sample", "distributions.sample"),
    ("simulation", "true_quantile", "distributions.true_quantile"),
    ("simulation", "hd_weights", "estimators.weights"),
    ("simulation", "thd_weights", "estimators.weights"),
    ("estimators", "beta_hdi", "hdi.beta_hdi"),
    ("estimators", "hd_weights", "estimators.weights"),
    ("estimators", "thd_weights", "estimators.weights"),
    ("simulation", "_mse_cell", "simulation.cell"),
    ("simulation", "sorted", "simulation.sort"),
)


def _count_arg(position):
    """Work count of a call: its `count` argument, passed by keyword or at
    `position`; 0 if the call has none."""
    def count(args, kwargs):
        value = kwargs.get("count",
                           args[position] if len(args) > position else 0)
        return value if isinstance(value, int) else 0
    return count


# work counted per call: sample(spec, rng, count), RngStream.uniforms(self, count)
UNITS = {
    "distributions.sample": _count_arg(2),
    "rng.uniforms": _count_arg(1),
}

_MISSING = object()

# fields of a span's totals
CALLS, BUSY, SELF, WORK, CPU = range(5)

# Per-layer metrics read from one span's totals, per repetition (one
# simulate run, or one cycle of estimate calls) of the traced run:
# metric -> (span, field, unit).  A BUSY metric covers its span and
# everything under it, a SELF metric its span alone; trace.accounted_frac
# is the share of traced time these cover.
SPAN_METRICS = {
    "rng.fnv1a64.calls": ("rng.fnv1a64", CALLS, "count/rep"),
    "rng.fnv1a64.busy_s": ("rng.fnv1a64", BUSY, "s/rep"),
    "rng.uniforms.draws": ("rng.uniforms", WORK, "count/rep"),
    "rng.uniforms.busy_s": ("rng.uniforms", BUSY, "s/rep"),
    "distributions.sample.variates": ("distributions.sample", WORK,
                                      "count/rep"),
    "distributions.sample.self_s": ("distributions.sample", SELF, "s/rep"),
    "kernels.reg_inc_beta.calls": ("kernels.reg_inc_beta", CALLS,
                                   "count/rep"),
    "kernels.reg_inc_beta.busy_s": ("kernels.reg_inc_beta", BUSY, "s/rep"),
    "kernels.norm_quantile.busy_s": ("kernels.norm_quantile", BUSY, "s/rep"),
    "kernels.fill_uniforms.busy_s": ("kernels.fill_uniforms", BUSY, "s/rep"),
    "estimators.weights.calls": ("estimators.weights", CALLS, "count/rep"),
    "estimators.weights.busy_s": ("estimators.weights", BUSY, "s/rep"),
    "hdi.beta_hdi.calls": ("hdi.beta_hdi", CALLS, "count/rep"),
    "hdi.beta_hdi.busy_s": ("hdi.beta_hdi", BUSY, "s/rep"),
    "estimators.weighted_sum.calls": ("estimators.weighted_sum", CALLS,
                                      "count/rep"),
    "estimators.weighted_sum.busy_s": ("estimators.weighted_sum", BUSY,
                                       "s/rep"),
    "estimators.quantile.self_s": ("estimators.quantile", SELF, "s/rep"),
    "estimators.Sample.busy_s": ("estimators.Sample", BUSY, "s/rep"),
    "cli.self_s": ("cli.main", SELF, "s/rep"),
    "simulation.cells": ("simulation.cell", CALLS, "count/rep"),
    "simulation.sort.busy_s": ("simulation.sort", BUSY, "s/rep"),
    # the per-cell sample loop's own work; simulation.run's self time is
    # left out because with threads it is the wait for the pool
    "simulation.self_s": ("simulation.cell", SELF, "s/rep"),
}
COVER_BUSY = {span for span, field, _ in SPAN_METRICS.values()
              if field == BUSY}
COVER_SELF = {span for span, field, _ in SPAN_METRICS.values()
              if field == SELF}

# Per-layer metrics: name -> unit.
METRICS = dict({k: unit for k, (_, _, unit) in SPAN_METRICS.items()}, **{
    "distributions.reg_inc_beta_per_variate": "calls/variate",
    "simulation.thread_busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
})


class _Proxy:
    """Stands in for the backend module: its public callables wrapped, any
    other attribute read from the module itself."""

    def __init__(self, real, wrap):
        self._real = real
        for name, value in vars(real).items():
            if (not name.startswith("_") and callable(value)
                    and not isinstance(value, type)):
                setattr(self, name, wrap("kernels." + name, value))

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Span trees per thread, grown by the wrappers `wrap` makes."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self.missing = []

    def _new_state(self):
        stack = [[0, 0.0]]  # [node id, traced children's time]; 0 the root
        nodes = {}
        with self._lock:
            self._threads.append(nodes)
        self._local.state = (stack, nodes)
        return stack, nodes

    def wrap(self, name, fn, units=None, cpu=False):
        """`fn` wrapped to record a `name` span around each call."""
        local = self._local
        new_state = self._new_state
        perf = time.perf_counter
        clock = time.thread_time

        def traced(*args, **kwargs):
            try:
                stack, nodes = local.state
            except AttributeError:
                stack, nodes = new_state()
            parent = stack[-1]
            key = (parent[0], name)
            rec = nodes.get(key)
            if rec is None:
                # [calls, busy, self, work, cpu, node id]
                rec = nodes[key] = [0, 0.0, 0.0, 0, 0.0, len(nodes) + 1]
            frame = [rec[5], 0.0]
            stack.append(frame)
            c0 = clock() if cpu else 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                parent[1] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if units is not None:
                    rec[3] += units(args, kwargs)
                if cpu:
                    rec[4] += clock() - c0

        return traced

    def _traced_factory(self, factory):
        # ESTIMATORS maps an id to factory(n, p) -> estimate(sorted values);
        # the estimate callables are the per-sample weighted sums
        def make(n, p):
            return self.wrap("estimators.weighted_sum", factory(n, p))
        return make

    @contextlib.contextmanager
    def installed(self):
        """Route trimq's cross-layer calls through span wrappers."""
        mods = {name[len("trimq."):]: mod
                for name, mod in list(sys.modules.items())
                if name.startswith("trimq.") and mod is not None}
        real = importlib.import_module("trimq.backend").kernels
        undo = []
        missing = set()

        def patch(obj, attr, value):
            undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
            setattr(obj, attr, value)

        def binding(modname, attr):
            mod = mods.get(modname)
            fn = None if mod is None else vars(mod).get(
                attr, getattr(builtins, attr, None))
            if not callable(fn):
                missing.add("trimq.%s.%s" % (modname, attr))
                return None, None
            return mod, fn

        try:
            proxy = _Proxy(real, self.wrap)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is real and mod is not real:
                        patch(mod, attr, proxy)
            for modname, attr, span in CALL_SITES:
                mod, fn = binding(modname, attr)
                if mod is not None:
                    patch(mod, attr, self.wrap(span, fn, UNITS.get(span),
                                               cpu=span == "simulation.cell"))
            _, stream = binding("rng", "RngStream")
            uniforms = getattr(stream, "uniforms", None)
            if callable(uniforms):
                patch(stream, "uniforms",
                      self.wrap("rng.uniforms", uniforms,
                                UNITS["rng.uniforms"]))
            else:
                missing.add("trimq.rng.RngStream.uniforms")
            sim = mods.get("simulation")
            factories = None if sim is None else vars(sim).get("ESTIMATORS")
            if isinstance(factories, dict):
                patch(sim, "ESTIMATORS",
                      {eid: self._traced_factory(f)
                       for eid, f in factories.items()})
            else:
                missing.add("trimq.simulation.ESTIMATORS")
            yield
        finally:
            for obj, attr, old in reversed(undo):
                if old is _MISSING:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, old)
            self.missing = sorted(set(self.missing) | missing)

    def snapshot(self):
        """Per-thread span nodes [id, parent id, span, calls, busy_s,
        self_s, work, cpu_s] as plain lists for JSON, and the call sites
        that could not be traced."""
        with self._lock:
            threads = [dict(nodes) for nodes in self._threads]
        return {"threads": [[[rec[5], parent, name] + rec[:5]
                             for (parent, name), rec in nodes.items()]
                            for nodes in threads if nodes],
                "missing": self.missing}


def layer_metrics(snapshot, reps, pairs, workers):
    """Per-layer metrics from a traced run.

    `snapshot` is `Tracer.snapshot()`, `reps` the traced repetitions,
    `pairs` the (untraced, traced) wall seconds of each repetition,
    `workers` the simulate thread count.  Returns the metrics, the table
    rows of the report, and a dict of the sums the report's accounting
    lines show.
    """
    totals = {}
    edges = {}
    sums = {"main_self": 0.0, "covered": 0.0, "span": 0.0,
            "traced_wall": sum(t for _, t in pairs), "uncovered": {}}
    for nodes in snapshot["threads"]:
        names = {node[0]: node[2] for node in nodes}
        parents = {node[0]: node[1] for node in nodes}
        is_main = "cli.main" in names.values()

        def under_busy_metric(node_id):
            while node_id:
                if names[node_id] in COVER_BUSY:
                    return True
                node_id = parents[node_id]
            return False

        for node_id, parent, name, *rec in nodes:
            t = totals.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
            for i, v in enumerate(rec):
                t[i] += v
            edge = (name, names.get(parent))
            edges[edge] = edges.get(edge, 0) + rec[CALLS]
            self_s = rec[SELF]
            if is_main:
                sums["main_self"] += self_s
            if workers > 1 and name == "simulation.run":
                continue  # the wait for the pool, not work
            sums["span"] += self_s
            if name in COVER_SELF or under_busy_metric(node_id):
                sums["covered"] += self_s
            else:
                sums["uncovered"][name] = (sums["uncovered"].get(name, 0.0)
                                           + self_s)

    def get(name, field):
        return totals.get(name, (0, 0.0, 0.0, 0, 0.0))[field]

    values = {k: get(span, field) / reps
              for k, (span, field, _) in SPAN_METRICS.items()}
    variates = get("distributions.sample", WORK)
    sampler_calls = edges.get(("kernels.reg_inc_beta", "distributions.sample"),
                              0)
    values["distributions.reg_inc_beta_per_variate"] = (
        sampler_calls / variates if variates else 0.0)
    # thread CPU inside cells over the CPU the simulate threads could use
    run_busy = get("simulation.run", BUSY)
    values["simulation.thread_busy_frac"] = (
        get("simulation.cell", CPU) / (workers * run_busy)
        if run_busy else 0.0)
    values["trace.overhead_frac"] = statistics.median(
        t / u for u, t in pairs) - 1.0
    values["trace.accounted_frac"] = (sums["covered"] / sums["span"]
                                      if sums["span"] else 0.0)
    metrics = {k: {"value": values[k], "unit": u} for k, u in METRICS.items()}

    thread_time = sum(t[SELF] for t in totals.values())
    rows = [(name, t[CALLS] / reps, t[BUSY] / reps, t[SELF] / reps,
             t[SELF] / thread_time)
            for name, t in sorted(totals.items(), key=lambda kv: -kv[1][SELF])]
    return metrics, rows, sums
