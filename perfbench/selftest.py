"""Self-tests of the benchmark.  From the root of a checkout:

    python3 perfbench/selftest.py

Each test runs run.py as BENCHMARK.json's command does, with --seconds 0 so
that every workload runs exactly one repetition; the whole file takes about
a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run_bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def work_dir():
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=parent)


class SmokeRuns(unittest.TestCase):

    def _check_units(self, result, declared):
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], float, name)

    def test_every_workload_end_to_end(self):
        for workload in workloads.NAMES:
            with self.subTest(workload=workload):
                proc, result = run_bench("--workload", workload, "--seed",
                                         "1", "--seconds", "0", "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self._check_units(result, BENCH["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_every_workload_traced(self):
        for workload in workloads.NAMES:
            with self.subTest(workload=workload):
                proc, result = run_bench("--workload", workload, "--seed",
                                         "2", "--seconds", "0", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self._check_units(result, BENCH["per_layer"])
                self.assertIn("per-layer trace of %s" % workload, proc.stdout)


class FailureModes(unittest.TestCase):

    def setUp(self):
        self.dir = work_dir()

    def tearDown(self):
        shutil.rmtree(self.dir)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass

    def _copy_benchmark(self):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), self.dir)
        shutil.copytree(HERE, os.path.join(self.dir, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))

    def test_corrupted_digest_fails_every_operation(self):
        self._copy_benchmark()
        shutil.copytree(os.path.join(ROOT, "src"),
                        os.path.join(self.dir, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(self.dir, "perfbench", "expected.json")
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
        expected["estimate_large_n"] = "0" * 64
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(expected, fh)
        proc, result = run_bench("--workload", "estimate_large_n", "--seed",
                                 str(expected["seed"]), "--seconds", "0",
                                 "--trace", "0", root=self.dir)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_without_sources_exits_nonzero_without_result(self):
        self._copy_benchmark()
        proc, result = run_bench("--workload", "sim2_closed", "--seed", "0",
                                 "--seconds", "1", "--trace", "0",
                                 root=self.dir)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


class Checker(unittest.TestCase):

    def test_estimate_check_rejects_a_perturbed_value(self):
        seed, index = 5, 3
        method, n, probs = workloads.estimate_call(seed, index)
        xs = sorted(workloads.estimate_data(seed, index, n))
        refs = [float(sum(w * x for w, x in zip(check.weights(method, n, p),
                                                 xs)))
                for p in probs]
        lines = ["%r,%r" % (p, ref) for p, ref in zip(probs, refs)]
        self.assertEqual(check.check_estimate(seed, index, "\n".join(lines)),
                         [])
        lines[2] = "%r,%r" % (probs[2], refs[2] * (1.0 + 1e-6))
        self.assertEqual(
            len(check.check_estimate(seed, index, "\n".join(lines))), 1)


if __name__ == "__main__":
    unittest.main()
