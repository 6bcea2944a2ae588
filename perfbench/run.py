"""trimq benchmark: one workload, timed end to end or traced per layer.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload sim2_closed --seed 0 --seconds 20 --trace 0

Each workload drives the real entry point, `trimq.cli.main`, in a worker
process (worker.py) on inputs made from --seed; workloads.py says what each
one exercises and why it was chosen.  The worker repeats the workload until
--seconds have passed, at least once.

--trace 0 prints the end-to-end metrics:
  setup_s          median over SETUP_RUNS fresh interpreters of the time to
                   import trimq and its CLI, backend selection included
  samples_per_s    median over blocks of repetitions (worker.BLOCK_S) of
                   samples finished per second: Monte-Carlo samples (an
                   n-vector drawn, sorted and estimated by all three roles)
                   for simulate, input samples (one data file per call) for
                   estimate
  estimates_per_s  the same blocks counted in quantile estimates: three per
                   Monte-Carlo sample, one per printed value
  peak_rss_mb      peak resident memory of the worker process
The three timings are scaled to nominal machine speed by the calibration in
speed.py, measured around each block and, inside each set-up probe, around
the import: on a shared host the raw rates drift by 30% within minutes, the
scaled ones by a few percent.  The run record carries the raw values too.
--trace 1 prints the per-layer metrics of tracer.METRICS from a separate,
traced run in which every repetition runs untraced and then traced on the
same inputs.

Every output is checked.  An operation (one `trimq` call) fails when it
raises or exits non-zero, when its output disagrees with the independent
NumPy/SciPy recomputation in check.py, when a traced output differs from its
untraced twin, when another importable backend gives different bytes, or,
at the seed recorded in expected.json, when its digest differs from the one
recorded there.  To re-record after an intended change of output, copy
`output_sha256` from the run record of each workload at that seed.

The last line of standard output is the JSON result; the line before it is
the run record (backend, platform, seed, digests).  Exit codes: 0 every
operation correct, 1 some operation failed (result still printed), 2 the
benchmark could not run (no result printed).
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 9
WORKER_TIMEOUT_S = 150
# a fresh interpreter times the import between two calibrations of its own
SETUP_PROBE = ("import sys, time\n"
               "sys.path.insert(0, %r)\n"
               "import speed\n"
               "before = speed.calibrate()\n"
               "t0 = time.perf_counter()\n"
               "import trimq, trimq.cli\n"
               "trimq.BACKEND\n"
               "took = time.perf_counter() - t0\n"
               "print(took, speed.factor(before, speed.calibrate()))\n" % HERE)
END_TO_END_UNITS = {"setup_s": "s", "samples_per_s": "1/s",
                    "estimates_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env(backend=None):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    if backend is not None:
        env["TRIMQ_BACKEND"] = backend
    return env


def measure_setup():
    """Median import time over SETUP_RUNS fresh interpreters, after one
    unmeasured start that leaves the bytecode cache warm; returns the raw
    median and the median at nominal machine speed."""
    raw = []
    scaled = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise BenchError("cannot import trimq: %s"
                             % proc.stderr.strip()[-500:])
        if i:
            took, factor = map(float, proc.stdout.split())
            raw.append(took)
            scaled.append(took / factor)
    return statistics.median(raw), statistics.median(scaled)


def run_worker(args, workdir, seconds, trace, backend=None):
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", workdir, "--result", result]
    try:
        proc = subprocess.run(cmd, env=_child_env(backend), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within %d s"
                         % WORKER_TIMEOUT_S) from None
    if proc.returncode != 0:
        raise BenchError("worker exited with %d: %s"
                         % (proc.returncode, proc.stderr.strip()[-2000:]))
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    os.remove(result)
    return data


def output_sha256(workload, calls):
    """The digest expected.json records: the first simulate CSV, or the
    concatenated stdout of the first estimate cycle."""
    first = [c for c in calls if c["rep"] == 0 and not c["traced"]]
    if workload in workloads.SIM:
        return first[0]["sha256"]
    return hashlib.sha256("".join(c["stdout"] for c in first)
                          .encode("utf-8")).hexdigest()


def judge(args, result, expected):
    """Mark each call failed or not; return the list of problems found."""
    # Imported only once the workers have run: Linux starts a child's peak
    # RSS at its parent's, which NumPy and SciPy would dominate.
    import check

    calls = result["calls"]
    outputs = result["outputs"]
    problems = []
    verdicts = {}
    if args.workload in workloads.SIM:
        _, config = workloads.load_sim_config(
            workloads.SIM[args.workload]["config"])
    for c in calls:
        c["stdout"] = outputs[c["sha256"]]
        if c["error"] is not None or c["code"] != 0:
            c["failed"] = True
            problems.append("%s exited %r: %s" % (" ".join(c["argv"]),
                                                  c["code"], c["error"]))
            continue
        key = (c["sha256"], c["index"])
        if key not in verdicts:
            if args.workload in workloads.SIM:
                found = check.check_sim(c["stdout"], config, args.seed)
            else:
                found = check.check_estimate(args.seed, c["index"],
                                             c["stdout"])
            verdicts[key] = not found
            problems.extend(found)
        c["failed"] = not verdicts[key]

    untraced = {(c["rep"], c["index"]): c for c in calls if not c["traced"]}
    for c in calls:
        if c["traced"] and c["sha256"] != untraced[(c["rep"],
                                                    c["index"])]["sha256"]:
            c["failed"] = True
            problems.append("traced output differs from untraced: %s"
                            % " ".join(c["argv"]))

    if args.seed == expected["seed"]:
        want = expected[args.workload]
        if args.workload in workloads.SIM:
            # every repetition must reproduce the recorded CSV
            bad = [c for c in calls if c["sha256"] != want]
        elif output_sha256(args.workload, calls) != want:
            bad = [c for c in calls if c["rep"] == 0]
        else:
            bad = []
        for c in bad:
            c["failed"] = True
        if bad:
            problems.append("output digest differs from the recorded %s"
                            % want)
    return problems


def backend_parity(args, workdir, result):
    """Run one repetition under every other importable backend and compare
    its output digests with the measured run's.  Returns (record, calls)."""
    record = {result["backend"]: "measured"}
    others = [b for b in ("c", "python") if b != result["backend"]]
    parity_calls = []
    for backend in others:
        probe = subprocess.run(
            [sys.executable, "-c", "import trimq"],
            env=_child_env(backend), capture_output=True, text=True,
            timeout=60, check=False)
        if probe.returncode != 0:
            lines = probe.stderr.strip().splitlines() or ["import failed"]
            record[backend] = "unavailable: " + lines[-1]
            continue
        other = run_worker(args, workdir, 0.0, 0, backend)
        mine = {c["index"]: c["sha256"] for c in result["calls"]
                if c["rep"] == 0 and not c["traced"]}
        same = True
        for c in other["calls"]:
            c["failed"] = c["sha256"] != mine[c["index"]]
            same = same and not c["failed"]
            parity_calls.append(c)
        record[backend] = "identical" if same else "DIFFERS"
    return record, parity_calls


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "trimq", "*"))):
        if os.path.isfile(path):
            digest.update(os.path.basename(path).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(args, result, setup):
    """Metrics at nominal machine speed, and the raw values behind them."""
    if args.workload in workloads.SIM:
        _, config = workloads.load_sim_config(
            workloads.SIM[args.workload]["config"])
        samples = workloads.sim_samples(config)
        estimates = samples * workloads.SIM_ROLES
    else:
        samples = len(workloads.ESTIMATE_CYCLE)
        estimates = samples * workloads.P_PER_CALL
    blocks = result["blocks"]
    raw = {
        "setup_s": setup[0],
        "samples_per_s": statistics.median(
            samples * reps / wall for reps, wall, _ in blocks),
    }
    values = {
        "setup_s": setup[1],
        "samples_per_s": statistics.median(
            samples * reps / wall * f for reps, wall, f in blocks),
        "estimates_per_s": statistics.median(
            estimates * reps / wall * f for reps, wall, f in blocks),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}, raw


def per_layer(args, result):
    workers = workloads.SIM.get(args.workload, {}).get("threads", 1)
    pairs = [tuple(w) for w in result["rep_walls"]]
    metrics, rows, sums = tracer.layer_metrics(
        result["trace"], result["reps"], pairs, workers)
    print("per-layer trace of %s, %d repetitions, per repetition; self %% "
          "is the share of span time summed over threads%s:"
          % (args.workload, result["reps"],
             "; simulation.run's self time is the wait for its %d worker "
             "threads" % workers if workers > 1 else ""))
    print("%-34s %12s %11s %11s %7s" % ("span", "calls", "busy [s]",
                                        "self [s]", "self %"))
    for name, calls, busy, self_s, share in rows:
        print("%-34s %12.1f %11.5f %11.5f %6.1f%%"
              % (name, calls, busy, self_s, 100.0 * share))
    print("self times on the calling thread sum to %.3f s of %.3f s traced "
          "wall; tracing overhead %.3f"
          % (sums["main_self"], sums["traced_wall"],
             metrics["trace.overhead_frac"]["value"]))
    print("the reported per-layer time metrics cover %.4f of %.3f s span "
          "time summed over threads%s; not covered: %s"
          % (metrics["trace.accounted_frac"]["value"], sums["span"],
             ", the pool wait left out" if workers > 1 else "",
             ", ".join("%s %.5f s/rep" % (name, t / result["reps"])
                       for name, t in sorted(sums["uncovered"].items(),
                                             key=lambda kv: -kv[1]))
             or "nothing"))
    if result["trace"]["missing"]:
        print("call sites not found, so not traced: %s"
              % ", ".join(result["trace"]["missing"]))
    return metrics
def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "trimq", "cli.py")):
        print("error: no trimq sources under %s" % ROOT, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    workdir = os.path.join(ROOT, ".perfbench_work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = None if args.trace else measure_setup()
        result = run_worker(args, workdir, args.seconds, args.trace)
        parity, parity_calls = backend_parity(args, workdir, result)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    problems = judge(args, result, expected)
    calls = result["calls"] + parity_calls
    problems.extend("backend parity: %s output differs: %s"
                    % (b, s) for b, s in parity.items() if s == "DIFFERS")
    failed = sum(1 for c in calls if c["failed"])
    for problem in problems[:20]:
        print("FAIL: %s" % problem, file=sys.stderr)

    raw = None
    if args.trace:
        metrics = per_layer(args, result)
    else:
        metrics, raw = end_to_end(args, result, setup)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions": result["reps"],
        "backend": result["backend"],
        "backend_parity": parity,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "config_sha256": workloads.config_sha256(args.workload),
        "output_sha256": output_sha256(args.workload, result["calls"]),
        "failed_frac": failed / len(calls),
        "peak_rss_before_first_call_mb":
            result["peak_rss_before_first_call_mb"],
        "untraced_call_sites":
            result["trace"]["missing"] if args.trace else None,
        "raw": raw,
        "speed_factors": [b[2] for b in result["blocks"]],
    }
    print("run record: %s" % json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
