"""Training loop, evaluation metrics, and experiment configuration.

Runs are deterministic given (seed, config, single worker): initial values
and batch order derive from the seed, and the likelihood, in the loss and
in reports alike, is integrated by the deterministic trapezoid rule of
model.py. Wall-clock timings therefore live in the JSON summary only; the
metrics CSV keeps a `seconds` column that is always 0.0, so that a seeded
run writes the same bytes every time.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

try:
    import resource
except ImportError:  # not on every platform; metrics.json then has no peak_rss_mb
    resource = None

from . import autograd as ag
from .checkpoint import build_model, config_class, load_checkpoint, save_checkpoint
from .data import MAX_QUAD_POINTS, Batch, DataError, Dataset, EventSequence, batch, load_jsonl
from .hybrid import MhpEConfig
from .model import EVAL_QUAD_POINTS, in_range

logger = logging.getLogger(__name__)

CSV_HEADER = "epoch,split,ll_per_event,accuracy,rmse,seconds"


class NumericsError(RuntimeError):
    """Training hit a non-finite loss or gradient; carries the offending
    epoch/batch when known."""

    def __init__(self, message, epoch=None, batch_index=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass
class TrainConfig(MhpEConfig):
    """Flat run configuration; mirrors the JSON config file field for field.

    The model and hybrid fields and their defaults are MhpEConfig's; the
    values are checked against the config class of `arch`. K is not a
    setting: it always comes from the data.
    """

    K: int = field(default=None, init=False, repr=False)
    arch: str = "mhp"
    # optimization
    lr: float = 1e-4
    batch_size: int = 4
    epochs: int = 50
    patience: int = 10
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    seed: int = 0
    # evaluation
    eval_quad_points: int = EVAL_QUAD_POINTS
    normalize_times: bool = False
    # paths
    data: str = ""
    out: str = ""

    def rules(self):  # the run's own, once the model fields pass those of arch's config class
        model_fields = self.model_config_dict(K=1)  # K=1 stands in for the data's
        config_class(self.arch)(**model_fields)
        for f in dataclasses.fields(MhpEConfig):  # a hybrid field that arch mhp would ignore
            if f.name not in model_fields and getattr(self, f.name) != f.default:
                raise ValueError(f"config field {f.name} is not used by arch {self.arch} "
                                 f"(got {getattr(self, f.name)!r})")
        return (("lr", lambda v: v >= 0.0, ">= 0"),
                ("batch_size", lambda v: v >= 1, ">= 1"),
                ("epochs", lambda v: v >= 1, ">= 1"),
                ("patience", lambda v: v >= 0, ">= 0"),
                ("adam_beta1", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                ("adam_beta2", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                ("adam_eps", lambda v: v > 0.0, "> 0"),
                ("clip_norm", lambda v: v > 0.0, "> 0"),
                ("seed", lambda v: v >= 0, ">= 0"),
                ("eval_quad_points", *in_range(2, MAX_QUAD_POINTS)))

    def model_config_dict(self, K):
        """The fields of `arch`'s model config, with K from the data."""
        return {f.name: K if f.name == "K" else getattr(self, f.name)
                for f in dataclasses.fields(config_class(self.arch))}


@dataclass
class Metrics:
    ll_per_event: float
    accuracy: float | None = None  # percent
    rmse: float | None = None
    n_events: int = 0
    n_sequences: int = 0

    def __post_init__(self):
        if not np.isfinite(self.ll_per_event):
            raise ValueError(f"log-likelihood per event is not finite: {self.ll_per_event}")
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 100.0:
            raise ValueError(f"accuracy must be a percentage, got {self.accuracy}")
        if self.rmse is not None and self.rmse < 0.0:
            raise ValueError(f"rmse must be non-negative, got {self.rmse}")


class Adam:
    """Adam with bias correction; state order follows the parameter list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(params, max_norm):
    """Scale all gradients by a common factor so the global norm is <= max_norm.

    A uniform positive scale cannot change the gradient direction. A
    non-finite norm has no such scale and raises NumericsError.
    """
    if not max_norm > 0.0:
        raise ValueError(f"clip norm must be positive, got {max_norm}")
    sq = 0.0
    for p in params:
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(sq))
    if not np.isfinite(norm):
        raise NumericsError(f"non-finite gradient norm {norm}")
    factor = 1.0 if norm <= max_norm else max_norm / norm
    if factor < 1.0:
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm, factor


def loss_on_batch(model, bat):
    """Sum of per-sequence total losses over a batch, one sequence at a time,
    so the total equals the sum of the unbatched losses exactly. Returns the
    total, the summed LL value and the scored events. `accumulate_gradients`
    calls it on one sequence at a time, so a graph never holds more than one
    sequence."""
    total = None
    ll_value = 0.0
    n_events = 0
    for seq in bat.unpadded():
        parts = model.losses(seq)
        total = parts.total if total is None else ag.add(total, parts.total)
        ll_value += float(parts.log_likelihood.data)
        n_events += len(seq) - 1
    return total, ll_value, n_events


def accumulate_gradients(model, bat):
    """Add the gradient of the batch's mean total loss into every parameter's
    .grad, holding one sequence's graph at a time.

    The mean is a sum of per-sequence terms, so each sequence is scored and
    backpropagated (its total over the batch size) before the next one is
    scored. In batch order each parameter adds the same terms in the same
    order as one walk over the whole batch's graph, so the gradients are
    bit-identical to that walk's, and peak memory does not grow with the
    batch size. A non-finite loss raises NumericsError before its backward.
    Returns the batch's LL value, scored events, graph nodes walked, and
    forward and backward seconds.
    """
    n = float(len(bat.unpadded()))
    ll_value = 0.0
    n_events = nodes = 0
    forward_seconds = backward_seconds = 0.0
    for seq in bat.unpadded():
        t_forward = time.perf_counter()
        total, ll, events = loss_on_batch(model, Batch([seq]))
        if not np.isfinite(total.data):
            raise NumericsError("non-finite loss")
        t_backward = time.perf_counter()
        nodes += ag.backward(ag.div(total, n))
        forward_seconds += t_backward - t_forward
        backward_seconds += time.perf_counter() - t_backward
        ll_value += ll
        n_events += events
    return ll_value, n_events, nodes, forward_seconds, backward_seconds


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model, dataset, n_quad=EVAL_QUAD_POINTS):
    """Test-style metrics from one `score` per sequence: LL/event via
    trapezoid quadrature, next-type accuracy (percent), RMSE of predicted vs
    true inter-event gaps."""
    if model.cfg.K != dataset.K:
        raise ValueError(f"K-mismatch: model has K={model.cfg.K}, dataset has K={dataset.K}")
    ll_sum = 0.0
    n_events = 0
    correct = 0
    sq_err = 0.0
    with ag.no_grad():
        for seq in dataset:
            ll, logits, pred_gaps = model.score(seq, n_quad)
            ll_sum += float(ll.data)
            correct += int(np.sum(np.argmax(logits.data, axis=1) + 1 == seq.types[1:]))
            sq_err += float(np.sum((pred_gaps.data - np.diff(seq.timestamps)) ** 2))
            n_events += len(seq) - 1
    return Metrics(
        ll_per_event=ll_sum / n_events,
        accuracy=100.0 * correct / n_events,
        rmse=float(np.sqrt(sq_err / n_events)),
        n_events=n_events,
        n_sequences=len(dataset),
    )


def dev_ll_per_event(model, dataset, n_quad=EVAL_QUAD_POINTS):
    """Quadrature LL/event only (the per-epoch dev metric)."""
    return evaluate(model, dataset, n_quad=n_quad).ll_per_event


def fit_poisson_baseline(dataset):
    """Closed-form marked homogeneous-Poisson rates from a training split.

    Total rate is the pooled MLE (sum of (n-1)) / (sum of observed spans);
    per-type rates split it by the empirical frequency of scored (second
    through last) events, with half-count smoothing so unseen types keep a
    positive rate.
    """
    events = sum(len(s) - 1 for s in dataset)
    span = sum(s.duration for s in dataset)
    rate = events / span
    counts = np.full(dataset.K, 0.5)
    for s in dataset:
        counts += np.bincount(s.type_indices[1:], minlength=dataset.K)
    return rate * counts / counts.sum()


def poisson_log_likelihood(rates, seq):
    rates = np.asarray(rates, dtype=np.float64)
    return float(np.sum(np.log(rates[seq.type_indices[1:]])) - rates.sum() * seq.duration)


def poisson_ll_per_event(rates, dataset):
    ll = sum(poisson_log_likelihood(rates, s) for s in dataset)
    return ll / sum(len(s) - 1 for s in dataset)


# ---------------------------------------------------------------------------
# metrics output


def _fmt(x):
    if x is None or x == "":
        return ""
    return repr(float(x))


def metrics_rows_to_csv(rows):
    lines = [CSV_HEADER]
    for epoch, split, ll, acc, rmse, seconds in rows:
        lines.append(",".join([str(epoch), split, _fmt(ll), _fmt(acc), _fmt(rmse), _fmt(seconds)]))
    return "\n".join(lines) + "\n"


def write_metrics(out_dir, stem, rows, summary):
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(metrics_rows_to_csv(rows))
    json_path = os.path.join(out_dir, f"{stem}.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# training


def load_split(data_dir, split):
    return load_jsonl(os.path.join(data_dir, f"{split}.jsonl"), split)


def check_two_events(dataset, path, use):
    """Raise DataError naming `path` and the first sequence with one event:
    its log-likelihood, which `use` needs, is not defined."""
    short = next((i for i, seq in enumerate(dataset, start=1) if len(seq) < 2), None)
    if short is not None:
        raise DataError(f"{path}: sequence {short} has one event; {use} needs at least two")


def scale_times(dataset, scale):
    seqs = [EventSequence(s.timestamps * scale, s.types, s.K) for s in dataset]
    return Dataset(seqs, dataset.K, dataset.split)


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_csv: str
    metrics_json: str
    best_epoch: int
    best_dev_ll: float
    epochs_run: int
    test_metrics: Metrics | None = None


def train(cfg):
    """Minimize the mean total loss with Adam; early-stop on dev LL.

    Writes metrics.csv (one row per epoch and split), metrics.json (summary
    with real wall-clock timings), and checkpoint.json (best dev epoch) into
    cfg.out. Returns a TrainResult.
    """
    t_start = time.perf_counter()
    train_ds = load_split(cfg.data, "train")
    dev_ds = load_split(cfg.data, "dev")
    test_path = os.path.join(cfg.data, "test.jsonl")
    test_ds = load_jsonl(test_path, "test") if os.path.exists(test_path) else None
    for ds in (train_ds, dev_ds, test_ds):
        if ds is None:
            continue
        if ds.K != train_ds.K:
            raise DataError(f"{ds.split}.jsonl has K={ds.K}, train.jsonl has K={train_ds.K}")
        check_two_events(ds, os.path.join(cfg.data, ds.split + ".jsonl"), "training")

    tie_nudges = sum(ds.tie_nudges for ds in (train_ds, dev_ds, test_ds) if ds is not None)
    meta = {}
    if cfg.normalize_times:
        gaps = np.concatenate([np.diff(s.timestamps) for s in train_ds])
        scale = 1.0 / float(gaps.mean())
        meta["time_scale"] = scale
        train_ds, dev_ds = scale_times(train_ds, scale), scale_times(dev_ds, scale)
        test_ds = scale_times(test_ds, scale) if test_ds else None

    model = build_model(cfg.arch, cfg.model_config_dict(train_ds.K), seed=cfg.seed)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
               eps=cfg.adam_eps)
    shuffle_rng = np.random.default_rng(cfg.seed)

    os.makedirs(cfg.out, exist_ok=True)
    ckpt_path = os.path.join(cfg.out, "checkpoint.json")
    rows = []
    epoch_seconds = []
    checkpoint_seconds = []
    # per epoch: the gradient norm before clipping and the clip factor of
    # each step, the seconds spent in forward, backward and dev eval, train
    # events per forward and backward second, graph nodes per sequence and
    # the process's peak resident memory so far
    epoch_log = {name: [] for name in ("grad_norm", "clip_factor", "forward_seconds",
                                       "backward_seconds", "dev_eval_seconds",
                                       "train_events_per_second", "graph_nodes_per_sequence")}
    if resource is not None:
        epoch_log["peak_rss_mb"] = []
    best_dev = -np.inf
    best_epoch = 0
    epochs_run = 0
    sequences = list(train_ds)

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(sequences))
        batches = batch([sequences[i] for i in order], cfg.batch_size)
        epoch_ll = 0.0
        epoch_events = 0
        norms, factors = [], []
        forward_seconds = backward_seconds = 0.0
        graph_nodes = 0
        for bi, bat in enumerate(batches):
            model.zero_grad()
            try:
                ll_value, n_events, nodes, t_fw, t_bw = accumulate_gradients(model, bat)
                norm, factor = clip_gradients(params, cfg.clip_norm)
            except (ag.DomainError, NumericsError) as e:
                raise NumericsError(f"{e} at epoch {epoch}, batch {bi}",
                                    epoch=epoch, batch_index=bi) from None
            norms.append(norm)
            factors.append(factor)
            opt.step()
            epoch_ll += ll_value
            epoch_events += n_events
            graph_nodes += nodes
            forward_seconds += t_fw
            backward_seconds += t_bw
        t_dev = time.perf_counter()
        try:
            dev_ll = dev_ll_per_event(model, dev_ds, n_quad=cfg.eval_quad_points)
        except ValueError as e:  # a non-positive intensity or a non-finite LL
            raise NumericsError(f"dev evaluation failed at epoch {epoch}: {e}",
                                epoch=epoch) from None
        epoch_log["dev_eval_seconds"].append(time.perf_counter() - t_dev)
        epoch_log["forward_seconds"].append(forward_seconds)
        epoch_log["backward_seconds"].append(backward_seconds)
        epoch_log["grad_norm"].append(norms)
        epoch_log["clip_factor"].append(factors)
        epoch_log["train_events_per_second"].append(
            epoch_events / (forward_seconds + backward_seconds))
        epoch_log["graph_nodes_per_sequence"].append(graph_nodes / len(sequences))
        if resource is not None:  # ru_maxrss is in KiB on Linux
            epoch_log["peak_rss_mb"].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        seconds = time.perf_counter() - t0
        epoch_seconds.append(seconds)
        checkpoint_seconds.append(0.0)  # replaced below if this epoch saves
        rows.append((epoch, "train", epoch_ll / epoch_events, "", "", 0.0))
        rows.append((epoch, "dev", dev_ll, "", "", 0.0))
        logger.info("epoch %d: train ll/event %.4f, dev ll/event %.4f (%.1fs)",
                    epoch, epoch_ll / epoch_events, dev_ll, seconds)
        epochs_run = epoch
        if dev_ll > best_dev:
            best_dev = dev_ll
            best_epoch = epoch
            meta.update({"best_epoch": epoch, "dev_ll_per_event": dev_ll,
                         "arch": cfg.arch, "seed": cfg.seed})
            t_save = time.perf_counter()
            save_checkpoint(model, ckpt_path, meta)
            checkpoint_seconds[-1] = time.perf_counter() - t_save
        elif epoch - best_epoch >= cfg.patience:
            logger.info("early stop at epoch %d (no dev improvement since %d)",
                        epoch, best_epoch)
            break

    model, meta = load_checkpoint(ckpt_path)
    test_metrics = None
    if test_ds is not None:
        test_metrics = evaluate(model, test_ds, n_quad=cfg.eval_quad_points)
        rows.append((best_epoch, "test", test_metrics.ll_per_event,
                     test_metrics.accuracy, test_metrics.rmse, 0.0))

    summary = {
        "config": cfg.to_dict(),
        "best_epoch": best_epoch,
        "best_dev_ll_per_event": best_dev,
        "epochs_run": epochs_run,
        "tie_nudges": tie_nudges,
        "wall_clock_seconds": epoch_seconds,
        "checkpoint_seconds": checkpoint_seconds,
        **epoch_log,
        "total_seconds": time.perf_counter() - t_start,
    }
    if test_metrics is not None:
        summary["test"] = dataclasses.asdict(test_metrics)
    csv_path, json_path = write_metrics(cfg.out, "metrics", rows, summary)
    return TrainResult(ckpt_path, csv_path, json_path, best_epoch, best_dev,
                       epochs_run, test_metrics)
