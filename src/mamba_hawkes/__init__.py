"""Toolkit for modeling marked, irregularly spaced event sequences with
gap-driven selective state-space encoders, trained by maximum likelihood,
with a synthetic Hawkes generator and an evaluation harness."""

from . import autograd
from .autograd import Parameter, Tensor, no_grad
from .checkpoint import build_model, load_checkpoint, save_checkpoint
from .data import (Batch, DataError, Dataset, EventSequence, ExplosionError,
                   HawkesGenConfig, RetryExhaustedError, batch,
                   benchmark_generator_config, load_jsonl,
                   make_synthetic_benchmark, save_jsonl, simulate_hawkes)
from .hybrid import AttentionBlock, MambaHawkesHybrid, MhpEConfig
from .model import (LossBreakdown, MambaHawkes, MhpConfig, PredictionResult,
                    raw_event_deltas, transform_deltas)
from .ssm import MambaBlock, SsmCore, selective_scan
from .training import (Adam, Metrics, NumericsError, TrainConfig, TrainResult,
                    clip_gradients, evaluate, fit_poisson_baseline,
                    poisson_ll_per_event, poisson_log_likelihood, train)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AttentionBlock", "Batch", "DataError", "Dataset", "EventSequence",
    "ExplosionError", "HawkesGenConfig", "LossBreakdown", "MambaBlock",
    "MambaHawkes", "MambaHawkesHybrid", "Metrics", "MhpConfig", "MhpEConfig",
    "NumericsError", "Parameter", "PredictionResult", "RetryExhaustedError",
    "SsmCore", "Tensor", "TrainConfig", "TrainResult", "autograd", "batch",
    "benchmark_generator_config", "build_model", "clip_gradients",
    "evaluate", "fit_poisson_baseline", "load_checkpoint",
    "load_jsonl", "make_synthetic_benchmark", "no_grad", "poisson_ll_per_event",
    "poisson_log_likelihood", "raw_event_deltas", "save_checkpoint", "save_jsonl",
    "selective_scan", "simulate_hawkes", "train",
    "transform_deltas",
]
