"""Workload definitions shared by the runner, the measured worker and the checker.

Nothing here imports trimq: the checker must stay independent of the program
it checks, and the estimate inputs must not come from trimq's samplers, so
that a sampler change cannot alter them.
"""

import hashlib
import json
import math
import random

NAMES = ("sim2_closed", "sim2_inverted", "estimate_large_n")

# `trimq simulate --kind sim2` workloads: config path relative to the
# checkout root, and worker threads.
#
# sim2_closed: the shipped desk grid.  Normal, Exp, Cauchy and Pareto all
#   have closed-form inverse CDFs and weights are built once per cell, so the
#   per-sample loop (stream-id hashing, uniforms, sampler, sort, weighted
#   sums) does nearly all the work; incomplete beta and threads are bypassed.
# sim2_inverted: Beta and Student variates bisect through the incomplete
#   beta (about 41 calls each), so the sampler and the special functions
#   dominate; the only workload with two worker threads.
SIM = {
    "sim2_closed": {"config": "configs/sim2_desk.json", "threads": 1},
    "sim2_inverted": {"config": "perfbench/sim2_inverted.json", "threads": 2},
}

# estimate_large_n: one repetition is this cycle of in-process
# `trimq estimate` calls, (method, n).  hd at n = 1e5 is left out (about 5 s
# a call) and so is n >= 3.3e5, where the incomplete beta raises today.
ESTIMATE_CYCLE = (("thd", 1000), ("thd", 10000), ("thd", 100000),
                  ("hd", 1000), ("hd", 10000))
# Every call gets fresh probabilities, so no weight vector repeats and an
# in-process cache cannot show a gain a command-line user would never see.
P_PER_CALL = 5
P_RANGE = (0.02, 0.98)
# contaminated normal: N(0, 1) with probability 1 - epsilon, else N(0, wide_sd)
CONTAMINATION = {"epsilon": 0.05, "wide_sd": 1000.0}

# estimates each repetition yields: one per role per Monte-Carlo sample in
# simulate, one printed value per probability in estimate
SIM_ROLES = 3


def _rng(seed, index, what):
    # string seeds hash through SHA-512, identical on every platform
    return random.Random("perfbench:%d:%d:%s" % (seed, index, what))


def estimate_call(seed, index):
    """(method, n, probabilities) of the index-th estimate call for a seed."""
    method, n = ESTIMATE_CYCLE[index % len(ESTIMATE_CYCLE)]
    rng = _rng(seed, index, "p")
    lo, hi = P_RANGE
    return method, n, [rng.uniform(lo, hi) for _ in range(P_PER_CALL)]


def estimate_data(seed, index, n):
    """The n contaminated-normal observations of the index-th estimate call,
    one at a time, so that writing them holds no list in memory."""
    rng = _rng(seed, index, "data")
    eps = CONTAMINATION["epsilon"]
    wide = CONTAMINATION["wide_sd"]
    two_pi = 2.0 * math.pi
    for _ in range(n):
        sd = wide if rng.random() < eps else 1.0
        # Box-Muller; 1 - random() lies in (0, 1], so the log is finite
        radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        yield sd * radius * math.cos(two_pi * rng.random())


def load_sim_config(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, json.loads(raw)


def sim_samples(config):
    """Monte-Carlo samples (n-vectors) one simulate run draws."""
    return (len(config["specs"]) * len(config["sample_sizes"])
            * len(config["p_grid"]) * config["samples_per_batch"]
            * config["batches"])


def config_sha256(name):
    """Digest of what defines a workload's inputs, for the run record."""
    if name in SIM:
        raw, _ = load_sim_config(SIM[name]["config"])
    else:
        raw = json.dumps({"cycle": ESTIMATE_CYCLE, "p_per_call": P_PER_CALL,
                          "p_range": P_RANGE,
                          "contamination": CONTAMINATION},
                         sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()
