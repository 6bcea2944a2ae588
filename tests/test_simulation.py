import csv
import dataclasses
import fractions
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from trimq import simulation
from trimq.backend import kernels
from trimq.distributions import transform
from trimq.rng import _seed_mix
from trimq import (
    ESTIMATORS,
    ConfigError,
    DistributionSpec,
    RngStream,
    Sim1Config,
    Sim2Config,
    estimate_mse,
    fnv1a64,
    hd_quantile,
    hf7_quantile,
    run_sim1,
    run_sim2,
    sample,
    thd_quantile,
    true_quantile,
)

from _oracles import naive_mse

NORMAL = "Normal(m=0, sd=1)"
EXP = "Exp(rate=1)"
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _sim1_cfg(**over):
    data = {"spec": NORMAL, "sample_size": 5, "replications": 40,
            "p_estimated": 0.5, "seed": 3}
    data.update(over)
    return Sim1Config.from_dict(data)


def _sim2_cfg(**over):
    data = {"specs": [NORMAL, EXP], "sample_sizes": [5], "p_grid": [0.25, 0.5],
            "samples_per_batch": 12, "batches": 3, "seed": 1}
    data.update(over)
    return Sim2Config.from_dict(data)


# ---------------------------------------------------------------------------
# configuration validation

def test_sim1_config_defaults():
    cfg = _sim1_cfg()
    assert cfg.estimators == ("hf7", "hd", "thd-sqrt")
    assert cfg.report_quantiles[0] == 0.0 and cfg.report_quantiles[-1] == 1.0


@pytest.mark.parametrize("patch,needle", [
    ({"sample_size": None}, "sample_size"),
    ({"sample_size": 0}, "sample_size"),
    ({"sample_size": True}, "sample_size"),
    ({"replications": -2}, "replications"),
    ({"p_estimated": 1.0}, "p_estimated"),
    ({"p_estimated": "x"}, "p_estimated"),
    ({"spec": "Nope(a=1)"}, "spec"),
    ({"report_quantiles": [0.5, 1.5]}, "report_quantiles[1]"),
    ({"report_quantiles": 0.5}, "report_quantiles"),
    ({"estimators": ["hf7", "median"]}, "estimators[1]"),
    ({"seed": "abc"}, "seed"),
    ({"bogus": 1}, "bogus"),
])
def test_sim1_config_errors_name_the_field(patch, needle):
    with pytest.raises(ConfigError) as err:
        _sim1_cfg(**patch)
    assert needle in str(err.value)


def test_sim1_config_missing_required():
    with pytest.raises(ConfigError) as err:
        Sim1Config.from_dict({"spec": NORMAL})
    assert "missing" in str(err.value)


@pytest.mark.parametrize("patch,needle", [
    ({"batches": 4}, "odd"),
    ({"specs": NORMAL}, "specs"),
    ({"specs": ["Nope()"]}, "specs[0]"),
    ({"p_grid": [0.0]}, "p_grid[0]"),
    ({"sample_sizes": [5, -1]}, "sample_sizes[1]"),
    ({"estimators": {"hf7": "hf7"}}, "estimators"),
    ({"estimators": {"hf7": "hf7", "hd": "hd", "thd": "nope"}},
     "estimators.thd"),
])
def test_sim2_config_errors_name_the_field(patch, needle):
    with pytest.raises(ConfigError) as err:
        _sim2_cfg(**patch)
    assert needle in str(err.value)


@pytest.mark.parametrize("build", ["direct", "replace"])
@pytest.mark.parametrize("cls,patch,needle", [
    (Sim2Config, {"batches": 4}, "batches"),
    (Sim2Config, {"specs": ("Nope()",)}, "specs[0]"),
    (Sim2Config, {"specs": (3,)}, "specs[0]"),
    (Sim2Config, {"p_grid": (1.0,)}, "p_grid[0]"),
    (Sim2Config, {"estimators": {"hf7": "hf7"}}, "estimators"),
    (Sim1Config, {"sample_size": 0}, "sample_size"),
    (Sim1Config, {"spec": "Nope(a=1)"}, "spec"),
    (Sim1Config, {"report_quantiles": (0.5, 1.5)}, "report_quantiles[1]"),
])
def test_configs_built_without_from_dict_follow_the_field_rules(
        build, cls, patch, needle):
    # the constructor and dataclasses.replace apply the converters that
    # from_dict applies
    direct = {
        Sim1Config: {"spec": DistributionSpec.parse("Normal"),
                     "sample_size": 10, "replications": 4,
                     "p_estimated": 0.5},
        Sim2Config: {"specs": (DistributionSpec.parse("Normal"),),
                     "sample_sizes": (10,), "p_grid": (0.5,),
                     "samples_per_batch": 20, "batches": 3},
    }[cls]
    with pytest.raises(ConfigError) as err:
        if build == "direct":
            cls(**dict(direct, **patch))
        else:
            dataclasses.replace(cls(**direct), **patch)
    assert needle in str(err.value)


def test_configs_built_directly_from_spec_strings_match_from_dict():
    sim2 = Sim2Config(specs=(NORMAL, EXP), sample_sizes=(5,),
                      p_grid=(0.25, 0.5), samples_per_batch=12, batches=3,
                      seed=1)
    assert sim2 == _sim2_cfg()
    assert run_sim2(sim2).to_csv() == run_sim2(_sim2_cfg()).to_csv()
    sim1 = Sim1Config(spec=NORMAL, sample_size=5, replications=40,
                      p_estimated=0.5, seed=3)
    assert sim1 == _sim1_cfg()
    assert run_sim1(sim1).to_csv() == run_sim1(_sim1_cfg()).to_csv()


# ---------------------------------------------------------------------------
# robustness harness

def test_sim1_single_replication_reports_that_estimate():
    cfg = _sim1_cfg(replications=1)
    res = run_sim1(cfg)
    for eid in cfg.estimators:
        only = res.estimates[eid][0]
        vals = {v for q, e, v in res.rows if e == eid}
        assert vals == {only}


def test_sim1_rows_cover_grid_in_order():
    cfg = _sim1_cfg()
    res = run_sim1(cfg)
    assert [(q, e) for q, e, _ in res.rows] == [
        (q, e) for q in cfg.report_quantiles for e in cfg.estimators]
    assert all(len(res.estimates[e]) == cfg.replications
               for e in cfg.estimators)


def test_sim1_report_is_monotone_per_estimator():
    res = run_sim1(_sim1_cfg(replications=300))
    for eid in ("hf7", "hd", "thd-sqrt"):
        col = [v for q, e, v in res.rows if e == eid]
        assert col == sorted(col)


def test_sim1_deterministic_and_thread_invariant():
    cfg = _sim1_cfg(replications=700)  # crosses the internal chunk size
    a = run_sim1(cfg, threads=1)
    b = run_sim1(cfg, threads=4)
    assert a == b
    assert a.to_csv() == run_sim1(cfg).to_csv()


def test_sim1_replications_extend_prefix():
    # adding replications must not disturb the ones already drawn
    short = run_sim1(_sim1_cfg(replications=50))
    long = run_sim1(_sim1_cfg(replications=100))
    for eid in ("hf7", "hd", "thd-sqrt"):
        assert long.estimates[eid][:50] == short.estimates[eid]


def test_sim1_seed_changes_output():
    assert run_sim1(_sim1_cfg(seed=1)) != run_sim1(_sim1_cfg(seed=2))


def test_sim1_csv_round_trips():
    res = run_sim1(_sim1_cfg())
    rows = list(csv.reader(io.StringIO(res.to_csv())))
    assert rows[0] == ["report_quantile", "estimator", "value"]
    assert len(rows) == 1 + len(res.rows)
    for (q, e, v), row in zip(res.rows, rows[1:]):
        assert float(row[0]) == q and row[1] == e and float(row[2]) == v


# ---------------------------------------------------------------------------
# efficiency harness

def test_estimate_mse_zero_for_exact_estimator():
    spec = DistributionSpec.parse(EXP)
    theta = true_quantile(spec, 0.5)
    mse = estimate_mse(lambda n, p: (lambda xs: theta), spec, 5, 0.5,
                       samples_per_batch=8, batches=3, seed=0)
    assert mse == 0.0


def test_estimate_mse_constant_estimator_bias_squared():
    spec = DistributionSpec.parse(EXP)
    theta = true_quantile(spec, 0.5)
    mse = estimate_mse(lambda n, p: (lambda xs: 0.0), spec, 5, 0.5,
                       samples_per_batch=8, batches=5, seed=0)
    assert abs(mse - theta * theta) <= 1e-15


def test_estimate_mse_matches_naive_recomputation():
    # the contaminated normal draws two uniforms per variate, Student
    # bisects through the incomplete beta
    for text, eid, n, p, spb in [
            (NORMAL, "hf7", 6, 0.25, 20),
            ("ContaminatedNormal(epsilon=0.1, sigma=1, c=400)", "thd-sqrt",
             7, 0.5, 12),
            ("Student(df=3)", "hd", 5, 0.9, 6)]:
        spec = DistributionSpec.parse(text)
        got = estimate_mse(eid, spec, n, p, samples_per_batch=spb,
                           batches=5, seed=11)
        want = naive_mse(lambda xs: _PUBLIC[eid](list(xs), p), spec, n, p,
                         spb, 5, 11)
        assert abs(got - want) <= 1e-12 * max(1.0, want), text


def test_estimate_mse_agrees_with_sim2_cell():
    cfg = _sim2_cfg()
    report = run_sim2(cfg)
    row = report.rows[0]
    spec = cfg.specs[0]
    assert row.p == 0.25
    for eid, got in [("hf7", row.mse_hf7), ("hd", row.mse_hd),
                     ("thd-sqrt", row.mse_thd)]:
        # p reads as a config's p_grid entry does, whatever its type
        for p in (row.p, fractions.Fraction(1, 4), "0.25"):
            alone = estimate_mse(eid, spec, row.n, p,
                                 cfg.samples_per_batch, cfg.batches, cfg.seed)
            assert alone == got, (eid, p)


def test_estimate_mse_validation():
    spec = DistributionSpec.parse(NORMAL)
    with pytest.raises(ValueError):
        estimate_mse("median", spec, 5, 0.5, 8, 3, 0)
    with pytest.raises(ValueError):
        estimate_mse("hf7", spec, 5, 0.5, 8, 4, 0)  # even batch count
    with pytest.raises(ValueError):
        estimate_mse("hf7", spec, 5, 0.5, 0, 3, 0)
    # int() would run 2.5 as 2 samples, True as 1 and 3.7 as 3 batches
    for spb, batches in [(2.5, 3), (True, 3), (8, 3.7)]:
        with pytest.raises(ValueError):
            estimate_mse("hf7", spec, 5, 0.5, spb, batches, 0)
    # a spec string reads as in a config; anything else names `spec`
    assert (estimate_mse("hd", NORMAL, 5, 0.5, 3, 3, 0)
            == estimate_mse("hd", spec, 5, 0.5, 3, 3, 0))
    for bad in (None, 3, "Zeta(s=2)", "Normal(sd=-1)"):
        with pytest.raises(ValueError, match="^spec"):
            estimate_mse("hd", bad, 5, 0.5, 3, 3, 0)
    for eid in ESTIMATORS:
        for n in (0, 2.5, True, math.nan, "10"):
            with pytest.raises(ValueError, match="n must be"):
                estimate_mse(eid, spec, n, 0.5, 8, 3, 0)
        assert (estimate_mse(eid, spec, 10.0, 0.5, 8, 3, 0)
                == estimate_mse(eid, spec, 10, 0.5, 8, 3, 0))
    # the seed is checked, then taken modulo 2**64
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="seed"):
            estimate_mse("hd", spec, 5, 0.5, 3, 3, bad)
    assert (estimate_mse("hd", spec, 5, 0.5, 3, 3, -1)
            == estimate_mse("hd", spec, 5, 0.5, 3, 3, 2 ** 64 - 1))


def test_sim2_row_grid_order_and_labels():
    cfg = _sim2_cfg()
    report = run_sim2(cfg)
    assert [(r.distribution, r.n, r.p) for r in report.rows] == [
        (s.label, n, p) for s in cfg.specs for n in cfg.sample_sizes
        for p in cfg.p_grid]


def test_sim2_identical_roles_give_unit_efficiency():
    cfg = _sim2_cfg(estimators={"hf7": "hf7", "hd": "hf7", "thd": "hf7"})
    for row in run_sim2(cfg).rows:
        assert row.eff_hd == 1.0 and row.eff_thd == 1.0
        assert row.mse_hf7 == row.mse_hd == row.mse_thd


def test_sim2_deterministic_and_thread_invariant():
    cfg = _sim2_cfg()
    a = run_sim2(cfg, threads=1)
    b = run_sim2(cfg, threads=4)
    assert a == b and a.to_csv() == b.to_csv()


def test_sim2_inverted_families_thread_invariant():
    # Beta and Student variates bisect through the incomplete beta, whose
    # shape caches each worker process fills on its own; 1 and 2 workers
    # must still give the same bytes
    cfg = _sim2_cfg(specs=["Beta(a=2, b=4)", "Student(df=3)",
                           "Beta(a=2, b=10)"],
                    sample_sizes=[5, 12], p_grid=[0.1, 0.5, 0.9],
                    samples_per_batch=6, seed=4)
    one = run_sim2(cfg, threads=1).to_csv()
    assert run_sim2(cfg, threads=2).to_csv() == one
    assert hashlib.sha256(one.encode("utf-8")).hexdigest() == (
        "11a1d4ee1775638142f509ef792db0a4cda67582399b163d55cb7293c028edc5")


# one spec per family, none at its default parameters; Triangular's mode
# sits off centre so both of its branches are drawn
ALL_FAMILIES = [
    "Uniform(a=-1, b=3)", "Triangular(a=0, b=2, c=0.2)", "Beta(a=0.5, b=3)",
    "Normal(m=1, sd=2)", "Weibull(scale=2, shape=0.5)", "Student(df=2.5)",
    "Gumbel(loc=1, scale=2)", "Exp(rate=3)", "Cauchy(x0=1, gamma=0.5)",
    "Pareto(loc=2, shape=1.5)", "LogNormal(mlog=0.5, sdlog=1.5)",
    "Frechet(shape=2)", "ContaminatedNormal(epsilon=0.1, sigma=2, c=100)",
]


def test_sim2_every_family_bytes_are_pinned():
    # every family's sampler and true quantile through the cell loop, at
    # an odd and an even n, and at 1 and 2 workers
    cfg = _sim2_cfg(specs=ALL_FAMILIES, sample_sizes=[3, 8],
                    p_grid=[0.1, 0.5, 0.9], samples_per_batch=5, seed=7)
    one = run_sim2(cfg, threads=1).to_csv()
    assert run_sim2(cfg, threads=2).to_csv() == one
    assert hashlib.sha256(one.encode("utf-8")).hexdigest() == (
        "6bea1823d9d7b28f18b23e77789e7883182c1e657dff17c0566701ad867c8c5f")


def test_cell_draws_what_sample_draws():
    # the cell loop's prefix-folded stream ids and batch draws against the
    # public one-shot path, list for list, for every family
    seed, n, p = 13, 6, 0.3
    seed_mix = _seed_mix(seed)
    for text in ALL_FAMILIES:
        spec = DistributionSpec.parse(text)
        per, variates = transform(spec)
        cell = fnv1a64("%s|%d|%r|" % (spec.label, n, p))
        for b in (0, 1, 10):
            batch = fnv1a64("%d|" % b, cell)
            want = []
            for s in (0, 1, 2, 7, 123):
                sid = fnv1a64("%s|%d|%r|%d|%d" % (spec.label, n, p, b, s))
                assert fnv1a64("%d" % s, batch) == sid
                one = sample(spec, RngStream(seed, sid), n)
                assert list(variates(kernels.batch_uniforms(
                    seed_mix, batch, s, 1, per * n))) == one
                want += one
            # a piece of samples 0 to 2 is theirs end to end
            assert list(variates(kernels.batch_uniforms(
                seed_mix, batch, 0, 3, per * n))) == want[:3 * n]


@pytest.mark.parametrize("piece", [1, 7, 13, 37])
def test_cell_mse_does_not_depend_on_the_piece_size(monkeypatch, piece):
    # pieces of one sample, of fewer uniforms than one sample (n = 8, and
    # 16 for the contaminated normal), and of a few samples, including a
    # last piece shorter than the others, against the default pieces
    n, p = 8, 0.3
    ests = [(eid, ESTIMATORS[eid](n, p)) for eid in sorted(ESTIMATORS)]
    want = {text: simulation._mse_cell(DistributionSpec.parse(text), n, p,
                                       ests, 11, 3, 5)
            for text in ALL_FAMILIES}
    monkeypatch.setattr(simulation, "_PIECE", piece)
    for text in ALL_FAMILIES:
        got = simulation._mse_cell(DistributionSpec.parse(text), n, p, ests,
                                   11, 3, 5)
        assert repr(got) == repr(want[text]), text


def test_more_workers_than_chunks_give_the_same_bytes():
    cfg2 = _sim2_cfg(specs=[NORMAL], p_grid=[0.25, 0.5])  # two cells
    assert (run_sim2(cfg2, threads=8).to_csv()
            == run_sim2(cfg2, threads=1).to_csv())
    cfg1 = _sim1_cfg(replications=600)  # two chunks of replications
    assert (run_sim1(cfg1, threads=8).to_csv()
            == run_sim1(cfg1, threads=1).to_csv())


def _count_forks(monkeypatch):
    """The list that each os.fork call of the calling process adds one to."""
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="worker processes need os.fork")


@needs_fork
def test_worker_count_is_capped_by_chunks(monkeypatch):
    forks = _count_forks(monkeypatch)
    cfg2 = _sim2_cfg(specs=[NORMAL], p_grid=[0.25, 0.5])
    want = run_sim2(cfg2).to_csv()
    assert forks == []  # one worker runs in-process
    counts = []
    for run, cfg, threads in [
            (run_sim2, cfg2, 8),
            (run_sim2, _sim2_cfg(), 3),  # four cells
            (run_sim1, _sim1_cfg(replications=600), 8),  # two chunks
            (run_sim1, _sim1_cfg(), 8)]:  # one chunk: in-process
        out = run(cfg, threads=threads).to_csv()
        if cfg is cfg2:
            assert out == want
        counts.append(len(forks))
        forks.clear()
    # the caller is one of the workers: N workers fork N - 1 children
    assert counts == [1, 2, 1, 0]
    _assert_no_child_left()


@needs_fork
def test_pool_takes_the_largest_cells_first(monkeypatch):
    dealt = []
    deal = simulation._deal
    monkeypatch.setattr(simulation, "_deal",
                        lambda costs, workers: dealt.append(
                            deal(costs, workers)) or dealt[-1])
    # cells run spec by spec, n = 5 before n = 20 within each spec
    cfg = _sim2_cfg(sample_sizes=[5, 20], p_grid=[0.5])
    want = run_sim2(cfg).to_csv()
    assert dealt == []
    assert run_sim2(cfg, threads=2).to_csv() == want
    # dealt 1, 3, 0, 2: the n = 20 cells first, each chunk to the share of
    # least summed cost so far, share 0 on a tie
    assert dealt == [[[1, 0], [3, 2]]]
    # equal replication chunks keep their order
    run_sim1(_sim1_cfg(replications=600), threads=2)
    assert dealt[1] == [[0], [1]]


def test_deal_gives_each_chunk_to_the_least_loaded_share():
    assert simulation._deal([3, 3, 2, 2, 2], 2) == [[0, 2, 4], [1, 3]]
    assert simulation._deal([1, 5, 1, 1, 1], 2) == [[1], [0, 2, 3, 4]]
    assert simulation._deal([4, 9], 3) == [[1], [0], []]


def test_process_with_other_threads_does_not_fork(monkeypatch):
    forks = _count_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10.0,))
    other.start()
    try:
        cfg2 = _sim2_cfg(specs=[NORMAL], p_grid=[0.25, 0.5])
        assert (run_sim2(cfg2, threads=2).to_csv()
                == run_sim2(cfg2).to_csv())
    finally:
        release.set()
        other.join(10.0)
    assert not other.is_alive()
    assert forks == []


def _touching(tmp_path, failing):
    """A worker that marks chunk c as run in tmp_path, then raises
    ArithmeticError("chunk c") if c is in `failing`."""
    def worker(c):
        (tmp_path / str(c)).touch()
        if c in failing:
            raise ArithmeticError("chunk %d" % c)
        return c
    return worker


@needs_fork
@pytest.mark.parametrize("workers, ran", [
    (1, {0, 1, 2, 3}),
    # shares [0, 2, 4, 6] and [1, 3, 5, 7]: the caller fails at 4 and
    # skips 6, the child fails at 3 and skips 5 and 7
    (2, {0, 1, 2, 3, 4}),
    # shares [0, 3, 6], [1, 4, 7] and [2, 5]: the caller fails at 3, the
    # first child at 4
    (3, {0, 1, 2, 3, 4, 5})])
def test_the_lowest_failing_chunk_raises_at_every_worker_count(
        tmp_path, workers, ran):
    chunks = list(range(8))
    with pytest.raises(ArithmeticError, match="^chunk 3$"):
        simulation._run_chunks(_touching(tmp_path, {3, 4}), chunks, workers,
                               cost=lambda c: 1)
    assert {int(path.name) for path in tmp_path.iterdir()} == ran
    _assert_no_child_left()


@needs_fork
def test_run_chunks_runs_in_the_caller_and_children():
    pids = simulation._run_chunks(lambda c: os.getpid(), [0, 1, 2], 3,
                                  cost=lambda c: 1)
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    _assert_no_child_left()


@needs_fork
def test_child_killed_before_its_result_names_its_exit_status():
    parent = os.getpid()

    def worker(c):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return c

    with pytest.raises(RuntimeError, match=r"exit status -%d and no result"
                       % signal.SIGKILL):
        simulation._run_chunks(worker, [0, 1], 2, cost=lambda c: 1)
    _assert_no_child_left()


class _TwoArgError(Exception):
    """Pickles, but does not unpickle: its args hold one value, not two."""

    def __init__(self, a, b):
        super().__init__("%s and %s" % (a, b))


@needs_fork
def test_exception_that_cannot_be_pickled_comes_back_as_its_repr():
    class Local(Exception):
        pass

    def worker(c):
        if c == 1:
            raise Local("cannot pickle")
        if c == 3:
            raise _TwoArgError("cannot", "unpickle")
        return c

    with pytest.raises(RuntimeError,
                       match=r"raised Local\('cannot pickle'\)$"):
        simulation._run_chunks(worker, [0, 1], 2, cost=lambda c: 1)
    _assert_no_child_left()
    with pytest.raises(RuntimeError,
                       match=r"raised _TwoArgError\('cannot and unpickle'\)$"):
        simulation._run_chunks(worker, [0, 3], 2, cost=lambda c: 1)
    _assert_no_child_left()


@needs_fork
def test_child_exception_keeps_its_type_and_message():
    def worker(c):
        if c == 1:
            raise ConfigError("cell 1: bad")
        return c

    with pytest.raises(ConfigError, match="^cell 1: bad$"):
        simulation._run_chunks(worker, [0, 1], 2, cost=lambda c: 1)
    _assert_no_child_left()


def test_importing_the_cli_loads_no_pickle_or_pool():
    # pickle is imported where children are forked, so setting up the CLI
    # pays for none of these; -S keeps site hooks from importing them
    src = os.path.dirname(os.path.dirname(simulation.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\nimport trimq.cli\n"
         "print([m for m in ('pickle', 'multiprocessing', "
         "'concurrent.futures') if m in sys.modules])\n"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


@pytest.mark.parametrize("threads", [0, -3])
def test_runs_reject_non_positive_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        run_sim1(_sim1_cfg(), threads=threads)
    with pytest.raises(ValueError, match="threads"):
        run_sim2(_sim2_cfg(), threads=threads)


def test_sim2_cells_independent_of_grid_shape():
    # a cell's numbers must not depend on which other cells run with it
    full = run_sim2(_sim2_cfg())
    solo = run_sim2(_sim2_cfg(specs=[EXP], p_grid=[0.5]))
    matching = [r for r in full.rows
                if r.distribution == "Exp(rate=1)" and r.p == 0.5]
    assert matching == list(solo.rows)


def test_sim2_csv_round_trips():
    report = run_sim2(_sim2_cfg())
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["distribution", "n", "p", "mse_hf7", "mse_hd",
                       "mse_thd", "eff_hd", "eff_thd"]
    for r, row in zip(report.rows, rows[1:]):
        assert row[0] == r.distribution
        assert int(row[1]) == r.n
        for got, want in zip(row[2:], r[2:]):
            assert float(got) == want


@pytest.mark.parametrize("piece", [1, 7, 13, 37])
def test_cell_mse_from_scorers_is_the_mse_from_callables(monkeypatch, piece):
    # each estimator's scorer, which the kernel sorts and scores a piece
    # with, against its callable, which runs per sample in Python, at
    # every piece size
    n, p = 8, 0.3
    calls = [(eid, ESTIMATORS[eid](n, p)) for eid in sorted(ESTIMATORS)]
    scorers = [(eid, simulation._SCORERS[eid](n, p))
               for eid in sorted(ESTIMATORS)]
    want = {text: simulation._mse_cell(DistributionSpec.parse(text), n, p,
                                       calls, 11, 3, 5)
            for text in ALL_FAMILIES}
    monkeypatch.setattr(simulation, "_PIECE", piece)
    for text in ALL_FAMILIES:
        got = simulation._mse_cell(DistributionSpec.parse(text), n, p,
                                   scorers, 11, 3, 5)
        assert repr(got) == repr(want[text]), text


def test_sim2_mse_positive_for_real_estimators():
    for row in run_sim2(_sim2_cfg()).rows:
        for v in (row.mse_hf7, row.mse_hd, row.mse_thd):
            assert v > 0.0 and math.isfinite(v)


# ---------------------------------------------------------------------------
# the harness's estimators are the public ones

_PUBLIC = {
    "hf7": hf7_quantile,
    "hd": hd_quantile,
    "thd-sqrt": lambda xs, p: thd_quantile(xs, p, width=None),
}


@pytest.mark.parametrize("eid", sorted(ESTIMATORS))
def test_simulation_estimators_equal_public_ones(eid):
    assert set(_PUBLIC) == set(ESTIMATORS)
    rng = random.Random(11)
    for n in (1, 2, 3, 10, 37):
        for p in (0.05, 0.25, 0.5, 0.95):
            est = ESTIMATORS[eid](n, p)
            for _ in range(5):
                xs = sorted([rng.gauss(0.0, 1.0) for _ in range(n - 1)]
                            + [1e6])
                assert est(xs) == _PUBLIC[eid](xs, p), (n, p, xs)


# sha256 of to_csv() for each shipped preset at its own seed, one thread.
# A change here changes every published number of that preset and must be
# deliberate.
PRESET_DIGESTS = {
    ("sim1", "sim1_contaminated.json"):
        "4e9cb4b033eb72c8b4f9b0b644d89ff46be1ef9f8c6f40ad34b0041048f8ba96",
    ("sim1", "sim1_frechet.json"):
        "48c1f5ddf1d6f63e556882cdaca32f95f74dfaf868e7913dda1de734447a1e68",
    ("sim2", "sim2_hf7_self.json"):
        "d8261d15b721972166e39eb0a1288cb6162d8bf6d8fd7d41ec24abf900305e88",
    ("sim2", "sim2_desk.json"):
        "16cccc3184013ea705192f33de5d4e5acc67a6052cf6ddf9cdc7bf965da29b1a",
}


@pytest.mark.parametrize("kind,name", sorted(PRESET_DIGESTS))
def test_shipped_preset_bytes_are_pinned(kind, name):
    with open(CONFIG_DIR / name, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if kind == "sim1":
        text = run_sim1(Sim1Config.from_dict(raw)).to_csv()
    else:
        text = run_sim2(Sim2Config.from_dict(raw)).to_csv()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PRESET_DIGESTS[kind, name]
