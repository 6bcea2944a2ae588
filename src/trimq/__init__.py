"""Robust quantile estimation.

Classic sample quantiles (Hyndman-Fan type 7), Harrell-Davis, and the
trimmed Harrell-Davis estimator whose beta weights are truncated to their
highest-density interval; plus the deterministic Monte-Carlo harness used
to study their robustness and efficiency.

``trimq.BACKEND`` names the numeric backend: "c" when the incomplete beta's
C kernels build and load, "python" for the pure-Python reference; both give
the same bits (see trimq.backend).
"""

__version__ = "0.1.0"

from .backend import BACKEND
from .special import (BetaParams, log_gamma, log_beta, beta_pdf,
                      regularized_incomplete_beta)
from .hdi import HdiCase, HdiInterval, beta_mode, beta_hdi
from .estimators import (Sample, WeightVector, hf7_quantile, hd_weights,
                         hd_quantile, thd_weights, thd_quantile)
from .rng import RngStream, fnv1a64
from .distributions import DistributionSpec, true_quantile, sample
from .simulation import (ConfigError, Sim1Config, Sim2Config, Sim1Result,
                         Sim2Row, EfficiencyReport, ESTIMATORS, run_sim1,
                         run_sim2, estimate_mse)

__all__ = [
    "__version__",
    "BACKEND",
    "BetaParams",
    "log_gamma",
    "log_beta",
    "beta_pdf",
    "regularized_incomplete_beta",
    "HdiCase",
    "HdiInterval",
    "beta_mode",
    "beta_hdi",
    "Sample",
    "WeightVector",
    "hf7_quantile",
    "hd_weights",
    "hd_quantile",
    "thd_weights",
    "thd_quantile",
    "RngStream",
    "fnv1a64",
    "DistributionSpec",
    "true_quantile",
    "sample",
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
