"""The measured process: runs one workload through `trimq.cli.main`.

run.py starts it with the checkout's src/ on PYTHONPATH, so its peak memory
is the workload's alone.  It repeats the workload until --seconds have
passed (at least once), timing only the `cli.main` calls, and writes a JSON
file with each call's wall time, exit code and output digest, the distinct
outputs the checker needs, and its peak resident memory, at the end and
just before the first `cli.main` call.

Untraced repetitions are grouped into blocks of at least BLOCK_S seconds of
timed work, with a machine-speed calibration (speed.py) between blocks, so
that run.py can report every block's rate at nominal machine speed.

With --trace 1 each repetition runs twice on the same inputs, untraced then
traced, so the two outputs can be compared byte for byte and the tracing
overhead measured pair by pair.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import speed
import workloads

BLOCK_S = 2.0


def _sim_calls(name, seed, workdir):
    spec = workloads.SIM[name]
    out = os.path.join(workdir, "out.csv")
    argv = ["simulate", "--kind", "sim2", "--config", spec["config"],
            "--out", out, "--seed", str(seed),
            "--threads", str(spec["threads"])]

    def collect(_stdout):
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        return data

    def calls(_rep):
        yield None, argv, collect

    return calls


def _estimate_calls(seed, workdir):
    path = os.path.join(workdir, "data.txt")
    cycle = len(workloads.ESTIMATE_CYCLE)

    def calls(rep):
        for index in range(rep * cycle, (rep + 1) * cycle):
            method, n, probs = workloads.estimate_call(seed, index)
            with open(path, "w", encoding="utf-8") as fh:
                # value by value, so that the file's text never sits in
                # memory: the worker's peak RSS is meant to be trimq's
                for i, x in enumerate(workloads.estimate_data(seed, index,
                                                              n)):
                    fh.write("\n" + repr(x) if i else repr(x))
            argv = ["estimate", path, "--method", method,
                    "--p", ",".join(map(repr, probs))]
            yield index, argv, lambda stdout: stdout.encode("utf-8")
            os.remove(path)

    return calls


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_call(main, argv, collect):
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # recorded as a failed operation
            code = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    output = b""
    if error is None:
        try:
            output = collect(buf.getvalue())
        except OSError as exc:
            error = "output missing: %s" % exc
    return wall, code, error, output


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import trimq
    import trimq.cli

    if args.workload in workloads.SIM:
        calls = _sim_calls(args.workload, args.seed, args.workdir)
    else:
        calls = _estimate_calls(args.seed, args.workdir)

    tracer = None
    modes = [(False, trimq.cli.main)]
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        modes.append((True, tracer.wrap("cli.main", trimq.cli.main)))

    records = []
    outputs = {}
    rep_walls = []
    blocks = []  # [repetitions, timed seconds, speed factor]
    block = [0, 0.0]
    threads = workloads.SIM.get(args.workload, {}).get("threads", 1)
    cal = None if args.trace else speed.calibrate(threads)
    rss_before = None
    started = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - started < args.seconds:
        walls = [0.0] * len(modes)
        for index, argv, collect in calls(rep):
            for m, (traced, run) in enumerate(modes):
                if rss_before is None:
                    rss_before = _peak_rss_mb()
                if traced:
                    with tracer.installed():
                        wall, code, error, output = _run_call(run, argv,
                                                              collect)
                else:
                    wall, code, error, output = _run_call(run, argv, collect)
                digest = hashlib.sha256(output).hexdigest()
                outputs.setdefault(digest, output.decode("utf-8"))
                walls[m] += wall
                records.append({"rep": rep, "index": index, "traced": traced,
                                "argv": argv, "wall_s": wall, "code": code,
                                "error": error, "sha256": digest})
        rep_walls.append(walls)
        rep += 1
        block = [block[0] + 1, block[1] + walls[0]]
        if cal is not None and block[1] >= BLOCK_S:
            after = speed.calibrate(threads)
            blocks.append(block + [speed.factor(cal, after)])
            cal, block = after, [0, 0.0]
    if cal is not None and block[0]:
        blocks.append(block + [speed.factor(cal, speed.calibrate(threads))])

    result = {
        "backend": trimq.BACKEND,
        "reps": rep,
        "rep_walls": rep_walls,
        "blocks": blocks,
        "calls": records,
        "outputs": outputs,
        "peak_rss_mb": _peak_rss_mb(),
        "peak_rss_before_first_call_mb": rss_before,
        "trace": tracer.snapshot() if tracer else None,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
