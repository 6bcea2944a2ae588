import io
import json
import math
import os

import pytest

from trimq import (__version__, beta_hdi, BetaParams, run_sim1, run_sim2,
                   simulation, Sim1Config, Sim2Config)
from trimq.cli import main

SAMPLE = "\n".join(["-0.565", "-0.106", "-0.095", "0.363", "0.404", "0.633",
                    "1.371", "1.512", "2.018", "100000.0"]) + "\n"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text(SAMPLE)
    return str(path)


def _sim1_config_file(tmp_path, **over):
    data = {"spec": "Normal(m=0, sd=1)", "sample_size": 5,
            "replications": 60, "p_estimated": 0.5, "seed": 4}
    data.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# estimate

def test_estimate_default_is_trimmed_median(sample_file, capsys):
    assert main(["estimate", sample_file]) == 0
    p, v = capsys.readouterr().out.strip().split(",")
    assert p == "0.5"
    assert abs(float(v) - 0.6268) <= 1e-3


def test_estimate_untrimmed_follows_outlier(sample_file, capsys):
    assert main(["estimate", sample_file, "--method", "hd"]) == 0
    _, v = capsys.readouterr().out.strip().split(",")
    assert abs(float(v) - 51.9169) <= 1e-3


def test_estimate_multiple_probabilities_in_order(sample_file, capsys):
    assert main(["estimate", sample_file, "--method", "hf7",
                 "--p", "0,0.5,1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["0", "0.5", "1"]
    assert float(lines[0].split(",")[1]) == -0.565
    assert float(lines[2].split(",")[1]) == 100000.0


def test_estimate_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n4\n"))
    assert main(["estimate", "--method", "hf7", "--p", "0.5"]) == 0
    assert capsys.readouterr().out == "0.5,2.5\n"


def test_estimate_hf7_across_the_double_range(monkeypatch, capsys):
    # the gap between the two values overflows; the estimate does not
    monkeypatch.setattr("sys.stdin", io.StringIO("-1.7e308 1.7e308\n"))
    assert main(["estimate", "--method", "hf7", "--p", "0.5,1"]) == 0
    assert capsys.readouterr().out == "0.5,0\n1,1.7e+308\n"


def test_estimate_integers_print_bare(sample_file, capsys):
    assert main(["estimate", sample_file, "--method", "hf7", "--p", "1"]) == 0
    assert capsys.readouterr().out == "1,100000\n"


def test_estimate_explicit_width(sample_file, capsys):
    assert main(["estimate", sample_file, "--width", "1.0"]) == 0
    _, v = capsys.readouterr().out.strip().split(",")
    assert abs(float(v) - 51.9169) <= 1e-3


def test_estimate_width_requires_thd(sample_file, capsys):
    assert main(["estimate", sample_file, "--method", "hf7",
                 "--width", "0.5"]) == 2
    assert "thd" in capsys.readouterr().err


def test_estimate_rejects_bad_width(sample_file, capsys):
    assert main(["estimate", sample_file, "--width", "1.5"]) == 2
    assert main(["estimate", sample_file, "--width", "x"]) == 2


def test_estimate_rejects_bad_p(sample_file, capsys):
    assert main(["estimate", sample_file, "--p", "0.5,1.5"]) == 2
    assert main(["estimate", sample_file, "--p", "abc"]) == 2
    assert main(["estimate", sample_file, "--p", ","]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--p", "1.5"), ("--width", "1.5"), ("--width", "x"), ("--threads", "0"),
])
def test_bad_flag_gives_one_error_line_naming_it(sample_file, tmp_path,
                                                 capsys, flag, value):
    if flag == "--threads":
        argv = ["simulate", "--kind", "sim1", "--config",
                _sim1_config_file(tmp_path), "--out", str(tmp_path / "x.csv")]
    else:
        argv = ["estimate", sample_file]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: %s " % flag)


def test_estimate_names_offending_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\ntwo\n3.0\n")
    assert main(["estimate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "two" in err


def test_estimate_rejects_nonfinite_input(tmp_path, capsys):
    path = tmp_path / "inf.txt"
    path.write_text("1.0\ninf\n")
    assert main(["estimate", str(path)]) == 2


def test_estimate_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    assert main(["estimate", str(path)]) == 2
    assert "empty" in capsys.readouterr().err


def test_estimate_beyond_incomplete_beta_range_is_input_error(tmp_path,
                                                              capsys):
    # above n of about 3.3e5 the incomplete beta's continued fraction hits
    # its iteration cap; the CLI reports that as one error line, exit 2
    path = tmp_path / "big.txt"
    path.write_text("".join("%d\n" % (i % 1000) for i in range(400000)))
    assert main(["estimate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: cannot estimate at n=400000: ")
    assert "continued fraction did not converge" in lines[0]


def test_estimate_beyond_incomplete_beta_range_is_the_same_error_under_both(
        tmp_path, capsys, monkeypatch):
    # the C weight loop stops where the fraction gives out, and the
    # reference raises its own error there
    from trimq import _kernels_c, _kernels_py, estimators

    path = tmp_path / "big.txt"
    path.write_text("".join("%d\n" % (i % 1000) for i in range(340000)))
    lines = {}
    for kernels in (_kernels_c, _kernels_py):
        monkeypatch.setattr(estimators, "_k", kernels)
        assert main(["estimate", str(path), "--method", "hd",
                     "--p", "0.37"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines[kernels.__name__] = captured.err
    assert set(lines.values()) == {
        "error: cannot estimate at n=340000: incomplete beta continued "
        "fraction did not converge (a=214201, b=125800, "
        "x=0.629985294117647)\n"}


def test_estimate_missing_file_is_io_error(capsys):
    assert main(["estimate", "/no/such/file.txt"]) == 3


# ---------------------------------------------------------------------------
# hdi

def test_hdi_middle_output(capsys):
    assert main(["hdi", "--alpha", "5.5", "--beta", "5.5",
                 "--width", "0.3162278"]) == 0
    lo, hi, case = capsys.readouterr().out.strip().split(",")
    want = beta_hdi(BetaParams(5.5, 5.5), 0.3162278)
    assert float(lo) == want.lower and float(hi) == want.upper
    assert case == "middle"


def test_hdi_border_and_degenerate_output(capsys):
    assert main(["hdi", "--alpha", "0.55", "--beta", "10.45",
                 "--width", "0.3"]) == 0
    assert capsys.readouterr().out == "0,0.3,left_border\n"

    assert main(["hdi", "--alpha", "0.5", "--beta", "0.5",
                 "--width", "0.3"]) == 0
    assert capsys.readouterr().out == "nan,nan,degenerate\n"

    assert main(["hdi", "--alpha", "2", "--beta", "2", "--width", "1"]) == 0
    assert capsys.readouterr().out == "0,1,full_range\n"


def test_hdi_validates_inputs(capsys):
    assert main(["hdi", "--alpha", "-1", "--beta", "2", "--width", "0.5"]) == 2
    assert capsys.readouterr().err == (
        "error: --alpha must be a finite positive number, got -1.0\n")
    assert main(["hdi", "--alpha", "2", "--beta", "inf", "--width", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: --beta must be")
    assert main(["hdi", "--alpha", "2", "--beta", "2", "--width", "0"]) == 2
    assert main(["hdi", "--alpha", "2", "--beta", "2"]) == 2  # missing flag


def test_hdi_past_the_double_range_is_input_error(capsys):
    # the density at the mode of these shapes is past the largest double
    assert main(["hdi", "--alpha", "1e100", "--beta", "1e100",
                 "--width", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot find the HDI of Beta(1e+100, 1e+100): beta density "
        "overflows (a=1e+100, b=1e+100, x=0.5)\n")


def test_hdi_with_a_nan_log_density_is_input_error(capsys):
    # a + b overflows, so ln B(a, b) and the log density are NaN
    assert main(["hdi", "--alpha", "1.5e308", "--beta", "1e308",
                 "--width", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot find the HDI of Beta(1.5e+308, 1e+308): beta density "
        "is not a number (a=1.5e+308, b=1e+308, x=0.09999999999999998)\n")


# ---------------------------------------------------------------------------
# simulate

def test_simulate_sim1_writes_csv_and_summary(tmp_path, capsys):
    cfg = _sim1_config_file(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--kind", "sim1", "--config", cfg,
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote 30 rows" in captured.err
    text = out.read_text()
    assert text.splitlines()[0] == "report_quantile,estimator,value"
    with open(cfg) as fh:
        want = run_sim1(Sim1Config.from_dict(json.load(fh)))
    assert text == want.to_csv()


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _sim1_config_file(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--kind", "sim1", "--config", cfg,
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--kind", "sim1", "--config", cfg,
                 "--out", str(out2), "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path, capsys):
    cfg = _sim1_config_file(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--kind", "sim1", "--config", cfg,
                 "--out", str(out1), "--seed", "99"]) == 0
    assert main(["simulate", "--kind", "sim1", "--config", cfg,
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_sim2_runs(tmp_path, capsys):
    data = {"specs": ["Exp(rate=1)"], "sample_sizes": [5], "p_grid": [0.5],
            "samples_per_batch": 10, "batches": 3}
    cfg = tmp_path / "cfg2.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out2.csv"
    assert main(["simulate", "--kind", "sim2", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("distribution,n,p,")
    assert len(lines) == 2


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_beyond_incomplete_beta_range_is_input_error(
        tmp_path, capsys, threads):
    # two cells, so that at --threads 2 the error comes back from a worker
    data = {"specs": ["Normal(m=0, sd=1)", "Beta(a=1000000, b=1000000)"],
            "sample_sizes": [5], "p_grid": [0.5], "samples_per_batch": 2,
            "batches": 1}
    cfg = tmp_path / "cfg2.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out2.csv"
    assert main(["simulate", "--kind", "sim2", "--config", str(cfg),
                 "--out", str(out), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot simulate ")
    assert "did not converge" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_overflowing_quantile_is_input_error(tmp_path, capsys,
                                                      threads):
    # about 8e-4 of the uniforms overflow this Pareto's quantile
    data = {"specs": ["Normal(m=0, sd=1)", "Pareto(loc=1, shape=0.01)"],
            "sample_sizes": [5], "p_grid": [0.5], "samples_per_batch": 200,
            "batches": 3}
    cfg = tmp_path / "cfg2.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out2.csv"
    assert main(["simulate", "--kind", "sim2", "--config", str(cfg),
                 "--out", str(out), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot simulate ")
    assert "Pareto(loc=1, shape=0.01): the quantile at p=" in err
    assert err.rstrip().endswith(" overflows") and len(err.splitlines()) == 1
    assert not out.exists()


def test_simulate_error_tests_fail_in_a_child(monkeypatch):
    # the two tests above give the failing cell index 1 of two cells of
    # n = 5; at --threads 2 a forked child runs it, not the caller
    def pid_cell(spec, n, p, estimators, samples_per_batch, batches, seed):
        return {"hf7": float(os.getpid()), "hd": 1.0, "thd": 1.0}

    monkeypatch.setattr(simulation, "_mse_cell", pid_cell)
    for second in ["Beta(a=1000000, b=1000000)", "Pareto(loc=1, shape=0.01)"]:
        rows = run_sim2(Sim2Config.from_dict(
            {"specs": ["Normal(m=0, sd=1)", second], "sample_sizes": [5],
             "p_grid": [0.5], "samples_per_batch": 2, "batches": 1}),
            threads=2).rows
        assert rows[0].mse_hf7 == os.getpid()
        assert rows[1].mse_hf7 != os.getpid()


def test_simulate_config_errors(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--kind", "sim1", "--config", str(bad_json),
                 "--out", out]) == 2

    bad_field = _sim1_config_file(tmp_path, sample_size=0)
    assert main(["simulate", "--kind", "sim1", "--config", bad_field,
                 "--out", out]) == 2
    assert "sample_size" in capsys.readouterr().err

    assert main(["simulate", "--kind", "sim1", "--config",
                 str(tmp_path / "missing.json"), "--out", out]) == 3


@pytest.mark.parametrize("text, key", [
    ('{"specs": ["Exp(rate=1)"], "sample_sizes": [5], "p_grid": [0.5], '
     '"samples_per_batch": 10, "batches": 1, "batches": 3}', "batches"),
    ('{"specs": ["Exp(rate=1)"], "sample_sizes": [5], "p_grid": [0.5], '
     '"samples_per_batch": 10, "batches": 3, '
     '"estimators": {"hd": "hd", "hd": "hf7"}}', "hd"),
])
def test_simulate_rejects_a_repeated_config_key(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg2.json"
    cfg.write_text(text)
    out = tmp_path / "out2.csv"
    assert main(["simulate", "--kind", "sim2", "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config %s: " % cfg)
    assert "%r is given twice" % key in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_simulate_rejects_non_positive_threads(tmp_path, capsys, threads):
    cfg = _sim1_config_file(tmp_path)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--kind", "sim1", "--config", cfg,
                 "--out", str(out), "--threads", threads]) == 2
    assert ("error: --threads must be a positive integer"
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_unwritable_output(tmp_path, capsys):
    cfg = _sim1_config_file(tmp_path)
    assert main(["simulate", "--kind", "sim1", "--config", cfg,
                 "--out", str(tmp_path / "nodir" / "x.csv")]) == 3


# ---------------------------------------------------------------------------
# top level

def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_usage_errors_return_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["estimate", "--no-such-flag"]) == 2
