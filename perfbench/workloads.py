"""The benchmark's workloads and the layer map its traced run installs.

Every workload makes its inputs from the workload seed alone, writes them as
JSONL and loads them back during set-up, and then repeats a fixed, seeded
*round* of work until the run's time is up. A round is deterministic: every
round of a run, traced or not, must give bit-identical outputs.

Sequence lengths are fixed per position (sequences are drawn from the pinned
Hawkes generator with a lower length bound and cut to the target length), so
the amount of work in a round does not depend on the seed and per-round times
are comparable across seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from mamba_hawkes import autograd, checkpoint, data, hybrid, model, ssm, training

# Cut lengths of the train, dev and test sequences: the midpoints of the
# octiles of the length of sequences drawn by `make_synthetic_benchmark` (4000
# draws, seed 0: mean 61.8, range 20-100; these have mean 61.75). Random
# batches of 4 of those draws are 22% padding. The total is the same for every
# seed; `test_lengths_follow_the_generator` checks them against fresh draws.
LENGTHS = (37, 46, 52, 58, 63, 70, 78, 90)
SHORT_HORIZON = 80.0     # ~130 events on average, so few draws are rejected

TRAIN_EPOCHS = 2
N_QUAD = 1024            # the trapezoid default of `evaluate` and `train`
DESK = dict(d_model=16, n_layers=2)

# predict-stream: one client queries prefixes of length 32, 64, ..., 512 of
# each long sequence and scores the event that follows each prefix.
STREAMS = 2
STRIDE = 32
MAX_PREFIX = 512
LONG_HORIZON = 400.0     # ~650 events on average


@dataclass
class Round:
    """What one round did and produced."""

    attempted: int
    failed: int
    events: int                 # events scored (or, for queries, encoded)
    op_seconds: list            # reference seconds of each timed operation
    wall_seconds: list          # wall seconds of the same operations
    ll_per_event: float | None
    output: object              # compared bit for bit across rounds
    problems: list = field(default_factory=list)


def draw_sequences(seed, lengths, horizon):
    """One sequence per target length, each from its own child of `seed`."""
    base = data.benchmark_generator_config()
    out = []
    for n, child in zip(lengths, np.random.SeedSequence(seed).spawn(len(lengths))):
        cfg = dataclasses.replace(base, horizon=horizon, length_bounds=(n, None))
        seq = data.simulate_hawkes(cfg, rng=np.random.default_rng(child))
        out.append(data.EventSequence(seq.timestamps[:n], seq.types[:n], seq.K))
    return out


def write_and_load(seqs, path, split):
    """JSONL round trip; the loaded split must equal what was written."""
    data.save_jsonl(data.Dataset(seqs, seqs[0].K, split), path)
    loaded = data.load_jsonl(path, split)
    for a, b in zip(seqs, loaded):
        if not (np.array_equal(a.timestamps, b.timestamps) and np.array_equal(a.types, b.types)):
            raise RuntimeError(f"{path}: JSONL round trip changed a sequence")
    return loaded


def file_digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def round_trip_model(arch, config, seed, path):
    """Build a seeded model and return the copy loaded back from its checkpoint."""
    built = checkpoint.build_model(arch, config, seed=seed)
    checkpoint.save_checkpoint(built, path, {"seed": seed})
    loaded, _ = checkpoint.load_checkpoint(path)
    for (name, p), (_, q) in zip(built.named_parameters(), loaded.named_parameters()):
        if not np.array_equal(p.data, q.data):
            raise RuntimeError(f"{path}: checkpoint round trip changed {name}")
    return loaded


# ---------------------------------------------------------------------------
# train


class Train:
    """`training.train` on arch mhp at the default model config."""

    name = "train"

    def setup(self, seed, workdir):
        # 8 train and 16 dev sequences: the best dev LL of 8 dev sequences
        # spread by 17% over ten seeds, of 16 by 10%
        seqs = draw_sequences(seed, LENGTHS * 3, SHORT_HORIZON)
        paths = [os.path.join(workdir, f"{s}.jsonl") for s in ("train", "dev")]
        train_ds = write_and_load(seqs[:len(LENGTHS)], paths[0], "train")
        write_and_load(seqs[len(LENGTHS):], paths[1], "dev")
        # The config seed (init, shuffle, Monte Carlo draws) stays at its
        # default, so batches pair the same lengths and the graph is the same
        # size for every workload seed.
        cfg = training.TrainConfig(arch="mhp", epochs=TRAIN_EPOCHS,
                                   eval_quad_points=N_QUAD, data=workdir,
                                   out=os.path.join(workdir, "run"))
        steps = math.ceil(len(train_ds) / cfg.batch_size) * cfg.epochs
        scored = sum(len(s) - 1 for s in train_ds) * cfg.epochs
        return dict(cfg=cfg, steps=steps, scored=scored, digest=file_digest(*paths))

    def run(self, state, clock):
        try:
            result, wall, seconds = clock.time(training.train, state["cfg"])
        except Exception as e:  # a failed call counts all its steps as failed
            return Round(state["steps"], state["steps"], 0, [], [], None, None, [repr(e)])
        with open(result.metrics_csv, "rb") as fh:
            csv = fh.read()
        problems = []
        # `train` raises NumericsError on a non-finite step loss, so a call
        # that returns had a finite loss at every step.
        if result.epochs_run != state["cfg"].epochs:
            problems.append(f"train stopped after {result.epochs_run} epochs")
        if not np.isfinite(result.best_dev_ll):
            problems.append(f"non-finite best dev LL {result.best_dev_ll}")
        output = (csv, file_digest(result.checkpoint_path), result.best_dev_ll)
        return Round(state["steps"], 0, state["scored"], [seconds], [wall],
                     result.best_dev_ll, output, problems)


# ---------------------------------------------------------------------------
# eval


class Eval:
    """`training.evaluate` on arch mhp at the desk config, 1024-point trapezoid."""

    name = "eval"

    def setup(self, seed, workdir):
        path = os.path.join(workdir, "test.jsonl")
        test_ds = write_and_load(draw_sequences(seed, LENGTHS * 4, SHORT_HORIZON), path, "test")
        ckpt = os.path.join(workdir, "checkpoint.json")
        net = round_trip_model("mhp", dict(DESK, K=test_ds.K), seed, ckpt)
        scored = sum(len(s) - 1 for s in test_ds)
        return dict(model=net, test=test_ds, scored=scored, digest=file_digest(path, ckpt))

    def run(self, state, clock):
        n = len(state["test"])
        try:
            m, wall, seconds = clock.time(training.evaluate, state["model"], state["test"],
                                          n_quad=N_QUAD)
            dataclasses.replace(m)  # re-runs Metrics validation
        except Exception as e:
            return Round(n, n, 0, [], [], None, None, [repr(e)])
        problems = []
        if (m.n_events, m.n_sequences) != (state["scored"], n):
            problems.append(f"evaluate counted {m.n_events} events in {m.n_sequences} sequences")
        return Round(n, 0, m.n_events, [seconds], [wall], m.ll_per_event,
                     (m.ll_per_event, m.accuracy, m.rmse), problems)


# ---------------------------------------------------------------------------
# predict-stream


def check_prediction(pred, K):
    """Why a `predict_next` result is invalid, or None."""
    probs = np.asarray(pred.probs)
    if probs.shape != (K,) or not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
        return f"probs not a finite non-negative K-vector: {probs!r}"
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        return f"probs sum to {float(probs.sum())!r}"
    if not (1 <= pred.next_type <= K and pred.next_type == int(np.argmax(probs)) + 1):
        return f"next_type {pred.next_type} is not the argmax type in 1..{K}"
    if not np.isfinite(pred.next_time):
        return f"non-finite next_time {pred.next_time!r}"
    return None


class PredictStream:
    """`predict_next` on arch mhp-e at the default hybrid config, one client
    querying growing prefixes of long sequences."""

    name = "predict-stream"

    def setup(self, seed, workdir):
        path = os.path.join(workdir, "stream.jsonl")
        seqs = write_and_load(draw_sequences(seed, [MAX_PREFIX + 1] * STREAMS, LONG_HORIZON),
                              path, "stream")
        ckpt = os.path.join(workdir, "checkpoint.json")
        net = round_trip_model("mhp-e", dict(K=seqs.K), seed, ckpt)
        queries = [(data.EventSequence(s.timestamps[:n], s.types[:n], s.K), int(s.types[n]))
                   for s in seqs for n in range(STRIDE, MAX_PREFIX + 1, STRIDE)]
        return dict(model=net, queries=queries, K=seqs.K, digest=file_digest(path, ckpt))

    def run(self, state, clock):
        K = state["K"]
        failed, events, seconds, walls, outputs, log_p, problems = 0, 0, [], [], [], [], []
        for prefix, true_next in state["queries"]:
            try:
                pred, wall, dt = clock.time(state["model"].predict_next, prefix)
            except Exception as e:
                failed += 1
                problems.append(repr(e))
                continue
            why = check_prediction(pred, K)
            if why is not None:
                failed += 1
                problems.append(f"prefix of {len(prefix)}: {why}")
                continue
            seconds.append(dt)
            walls.append(wall)
            events += len(prefix)
            outputs.append((pred.probs.tobytes(), pred.next_type, pred.next_time))
            log_p.append(float(np.log(pred.probs[true_next - 1])))
        ll = float(np.mean(log_p)) if log_p else None
        return Round(len(state["queries"]), failed, events, seconds, walls, ll, outputs,
                     problems)


WORKLOADS = {w.name: w for w in (Train(), Eval(), PredictStream())}


# ---------------------------------------------------------------------------
# layer map of the traced run


def _count_batch(tracer, batches, *args, **kwargs):
    for b in batches:
        tracer.count("data.batch_cells", b.mask.size)
        tracer.count("data.batch_pad_cells", int(b.mask.size - b.mask.sum()))


def _count_forward(tracer, result, model_, bat, *args, **kwargs):
    tracer.count("training.sequences", len(bat.unpadded()))
    if not np.isfinite(result[0].data):
        tracer.count("training.nonfinite_losses", 1)


def _count_intensities(tracer, result, head, offsets, scores):
    tracer.count("model.intensity_evals", int(np.size(offsets)) * scores.shape[1])


def _intensity_span(head, offsets, scores):
    return "model.event_term" if np.ndim(offsets) == 1 else "model.compensator"


def install(tracer):
    """Wrap every layer boundary the per-layer metrics name."""
    fn, meth = tracer.patch_function, tracer.patch
    fn(data.simulate_hawkes, "data.generate")
    fn(data.load_jsonl, "data.load")
    fn(data.batch, "data.batch", _count_batch)
    fn(autograd.backward, "autograd.backward")
    fn(autograd.topo_order, None,
       lambda t, order, *a, **k: t.count("autograd.graph_nodes", len(order)))
    fn(autograd.causal_conv1d, "ssm.conv")
    fn(ssm.selective_scan, "ssm.scan", lambda t, y, x, *a, **k: t.count("ssm.scan_steps", len(x)))
    meth(ssm, "rms_norm", "ssm.norm")
    meth(ssm.MambaBlock, "__call__", "ssm.block")
    meth(hybrid, "rms_norm", "hybrid.norm")
    meth(hybrid.AttentionBlock, "__call__", "hybrid.attn",
         lambda t, y, blk, x: t.count("hybrid.attn_positions", len(x)))
    meth(model.MambaHawkes, "embed", "model.embed")
    meth(model.MambaHawkes, "encode", "model.encode")
    meth(model.MlpHead, "__call__", "model.mlp")
    meth(model.IntensityHead, "intensities", _intensity_span, _count_intensities)
    fn(training.loss_on_batch, "training.forward", _count_forward)
    fn(training.clip_gradients, "training.clip")
    meth(training.Adam, "step", "training.adam")
    fn(training.dev_ll_per_event, "training.dev_eval")
    fn(training.evaluate, "training.evaluate")
    fn(checkpoint.save_checkpoint, "checkpoint.save",
       lambda t, r, net, path, *a, **k: t.count("checkpoint.bytes", os.path.getsize(path)))
    fn(checkpoint.load_checkpoint, "checkpoint.load")
