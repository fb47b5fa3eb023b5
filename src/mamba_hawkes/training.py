"""Training loop, evaluation metrics, and experiment configuration.

Runs are deterministic given (seed, config, single worker): initial values
and batch order derive from the seed, and the likelihood, in the loss and
in reports alike, integrates the intensity in closed form (model.py), with
no sampling. Wall-clock timings therefore live in the JSON summary only; the
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
from .model import in_range

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
    # evaluation: the node count of the quadrature that the closed-form
    # compensator replaced, still accepted and range-checked; it changes nothing
    eval_quad_points: int = 1024
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
        if self.rmse is not None and not 0.0 <= self.rmse < np.inf:
            raise ValueError(f"rmse must be finite and non-negative, got {self.rmse}")


class Adam:
    """Adam with bias correction; state order follows the parameter list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """Update m, v and each parameter's data in place, by the operations
        of m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
        p -= lr m_hat / (sqrt(v_hat) + eps) in their order, so the bits are
        those of those expressions."""
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * g
            gg = (1 - self.beta2) * g
            gg *= g
            v *= self.beta2
            v += gg
            update = m / (1 - self.beta1 ** self.t)
            update *= self.lr
            den = np.divide(v, 1 - self.beta2 ** self.t, out=gg)
            np.sqrt(den, out=den)
            den += self.eps
            update /= den
            p.data -= update


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
    total, ll_value, n_events = None, 0.0, 0
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
    ll_value, n_events, nodes = 0.0, 0, 0
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


def evaluate(model, dataset, n_quad=None):
    """Test-style metrics: LL/event (the compensator in closed form),
    next-type accuracy (percent), RMSE of predicted vs true inter-event gaps.

    The sequences are sorted by length and cut into groups (`model.groups`),
    and each group is scored in one pass under no_grad that steps all of its
    sequences at once (`model.score_group`). The correct types and squared
    errors come from the group's whole arrays; each sequence's LL and sum of
    squared errors are bit for bit those of `model.score` on it, and the
    totals add them in dataset order, so the metrics are those of scoring
    one sequence at a time.

    n_quad, the node count of the quadrature that the closed form replaced,
    is accepted and must be at least 2, but it changes nothing.
    """
    if n_quad is not None and n_quad < 2:
        raise ValueError(f"n_quad must be at least 2, got {n_quad}")
    if model.cfg.K != dataset.K:
        raise ValueError(f"K-mismatch: model has K={model.cfg.K}, dataset has K={dataset.K}")
    seqs = dataset.sequences
    if not seqs:
        raise ValueError(f"nothing to evaluate: split {dataset.split!r} has no sequences")
    lls, sq_errs = [0.0] * len(seqs), [0.0] * len(seqs)
    correct = 0
    with ag.no_grad():
        for group in model.groups(seqs):
            scored = model.score_group([seqs[i] for i in group])
            g = scored.group
            correct += int(np.sum(np.argmax(scored.logits.data, axis=1) == g.next_types))
            sq = (scored.gaps.data - g.gaps) ** 2
            for i, ll, part in zip(group, scored.log_likelihood.data, (sq[s] for s in g.spans)):
                lls[i], sq_errs[i] = float(ll), float(part.sum())
    ll_sum = sq_err = 0.0
    for ll, sq in zip(lls, sq_errs):   # in dataset order
        ll_sum += ll
        sq_err += sq
    n_events = sum(len(seq) - 1 for seq in seqs)
    return Metrics(ll_per_event=ll_sum / n_events, accuracy=100.0 * correct / n_events,
                   rmse=float(np.sqrt(sq_err / n_events)), n_events=n_events,
                   n_sequences=len(dataset))


def dev_ll_per_event(model, dataset):
    """LL/event only (the per-epoch dev metric)."""
    return evaluate(model, dataset).ll_per_event


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


def scale_times(dataset, scale, path, first=1):
    """The dataset with every timestamp times `scale`; DataError naming
    `path` and the sequence, counted from `first`, when a scaled timestamp
    overflows or two of them merge."""
    scaled = []
    for i, s in enumerate(dataset, start=first):
        try:
            scaled.append(EventSequence(s.timestamps * scale, s.types, s.K))
        except ValueError:
            raise DataError(f"{path}: sequence {i}: time scale {scale!r} takes its timestamps "
                            "out of range or merges two of them") from None
    return Dataset(scaled, dataset.K, dataset.split)


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
    with real wall-clock timings), and checkpoint.ckpt (best dev epoch) into
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
        if train_ds.tie_nudges == len(gaps):
            raise DataError(f"{os.path.join(cfg.data, 'train.jsonl')}: every gap is a tied "
                            "timestamp nudged apart, so normalize_times has no time scale")
        scale = 1.0 / float(gaps.mean())
        meta["time_scale"] = scale
        def scaled(ds):
            return scale_times(ds, scale, os.path.join(cfg.data, ds.split + ".jsonl"))
        train_ds, dev_ds = scaled(train_ds), scaled(dev_ds)
        test_ds = scaled(test_ds) if test_ds else None

    model = build_model(cfg.arch, cfg.model_config_dict(train_ds.K), seed=cfg.seed)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps)
    shuffle_rng = np.random.default_rng(cfg.seed)

    os.makedirs(cfg.out, exist_ok=True)
    ckpt_path = os.path.join(cfg.out, "checkpoint.ckpt")
    rows, epoch_seconds, checkpoint_seconds = [], [], []
    # per epoch: the gradient norm before clipping and the clip factor of
    # each step, the seconds spent in forward, backward and dev eval, train
    # events per forward and backward second, graph nodes per sequence and
    # the process's peak resident memory so far
    epoch_log = {name: [] for name in ("grad_norm", "clip_factor", "forward_seconds",
                                       "backward_seconds", "dev_eval_seconds",
                                       "train_events_per_second", "graph_nodes_per_sequence")}
    if resource is not None:
        epoch_log["peak_rss_mb"] = []
    best_dev, best_epoch, epochs_run = -np.inf, 0, 0
    sequences = list(train_ds)

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(sequences))
        batches = batch([sequences[i] for i in order], cfg.batch_size)
        epoch_ll, epoch_events = 0.0, 0
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
            dev_ll = dev_ll_per_event(model, dev_ds)
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

    test_metrics = None
    if test_ds is not None:   # on the best checkpoint, which only this needs
        best = load_checkpoint(ckpt_path)[0]
        try:
            test_metrics = evaluate(best, test_ds)
        except ValueError as e:  # as on the dev split
            raise NumericsError(f"test evaluation failed: {e}") from None
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
