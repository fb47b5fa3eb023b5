"""Marked event-sequence model: type embedding, gap-driven selective-SSM
stack, conditional intensities, log-likelihood, and next-event heads.

`MambaHawkes.score` writes the log-likelihood of a sequence as the log
intensity of each event's own type minus the compensator, the total
intensity integrated over the observed window by one fused node,
`IntensityHead.integral`: the trapezoid rule on nodes that every interval
shares, `TRAIN_QUAD_POINTS` of them in the training loss and
`EVAL_QUAD_POINTS` (or as many as asked for) in reporting. Within an
interval each intensity is a softplus of a linear function of time, so at
100 nodes the rule is within about 1e-6 relative of the exact integral.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Module, Parameter, Tensor
from .data import MAX_D_CONV, MAX_D_MODEL, MAX_D_STATE, MAX_EXPAND, MAX_HIDDEN, MAX_LAYERS
from .ssm import MambaBlock, linear_init

# Elements in one [rows, K, S] block of the compensator, so that its four
# buffers stay in L2 cache (of 4k to 128k, 16k ran fastest at S 1024 and 100).
_BLOCK_ELEMS = 16384

# Trapezoid nodes per interval: in the training loss, and in reported
# likelihoods unless a caller asks for another count.
TRAIN_QUAD_POINTS = 100
EVAL_QUAD_POINTS = 1024

DELTA_MIN, DELTA_MAX = 1e-6, 1e4    # bounds of the scan's step, the softplus'd gap


def check_at_most(cfg, bounds):
    """Refuse, naming the field, each (field, most) of cfg above its bound."""
    for name, most in bounds:
        if getattr(cfg, name) > most:
            raise ValueError(f"config field {name} must be at most {most}, "
                             f"got {getattr(cfg, name)!r}")


@dataclass
class MhpConfig:
    """Architecture and loss-weight settings; defaults follow the reference setup."""

    d_model: int = 64
    d_state: int = 16
    d_conv: int = 4
    expand: int = 2
    n_layers: int = 4
    K: int = 5
    mlp_hidden: int = 0          # 0 -> use d_model
    event_loss_weight: float = 1.0
    time_loss_weight: float = 1e-4

    def __post_init__(self):
        for name in ("d_model", "d_state", "d_conv", "expand", "n_layers", "K"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.mlp_hidden < 0:
            raise ValueError("config field mlp_hidden must be >= 0")
        check_at_most(self, (("d_model", MAX_D_MODEL), ("d_state", MAX_D_STATE),
                             ("d_conv", MAX_D_CONV), ("expand", MAX_EXPAND),
                             ("n_layers", MAX_LAYERS), ("mlp_hidden", MAX_HIDDEN)))
        for name in ("event_loss_weight", "time_loss_weight"):
            w = getattr(self, name)
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"config field {name} must be finite and >= 0, got {w!r}")

    @property
    def mlp_width(self):
        return self.mlp_hidden if self.mlp_hidden else self.d_model

    def to_dict(self):
        return asdict(self)


class MlpHead(Module):
    """Two-layer MLP applied position-wise after the encoder stack."""

    def __init__(self, d_model, hidden, rng):
        self.W1 = Parameter(linear_init(rng, d_model, hidden))
        self.b1 = Parameter(np.zeros(hidden))
        self.W2 = Parameter(linear_init(rng, hidden, d_model))
        self.b2 = Parameter(np.zeros(d_model))

    def __call__(self, x):
        h = ag.silu(ag.add(ag.matmul(x, self.W1), self.b1))
        return ag.add(ag.matmul(h, self.W2), self.b2)


class IntensityHead(Module):
    """Per-type conditional intensity parameters.

    lambda_k(t) = softplus_{beta_k}(alpha_k * (t - t_j) + w_k . h(t_j) + b_k),
    with the softplus scale kept positive by storing its log.
    """

    def __init__(self, K, d_model, rng):
        self.alpha = Parameter(np.zeros(K))
        self.W = Parameter(linear_init(rng, d_model, K).T)  # [K, d_model]
        self.b = Parameter(np.zeros(K))
        self.log_beta = Parameter(np.zeros(K))

    def base_scores(self, hidden):
        """w_k . h + b_k for every (position, type) pair -> [L, K]."""
        return ag.add(ag.matmul(hidden, ag.transpose(self.W)), self.b)

    def intensities(self, offsets, scores):
        """Intensity at offsets past each interval start.

        offsets: [L] constant array; scores: [L, K] tensor of base scores.
        Returns an [L, K] tensor.
        """
        off_t = Tensor(np.asarray(offsets, dtype=np.float64)[:, None])
        arg = ag.add(ag.mul(off_t, self.alpha), scores)
        return ag.softplus(arg, ag.exp(self.log_beta))

    def integral(self, gaps, n_quad, scores):
        """The compensator: sum_i of the total intensity sum_k lambda_k
        integrated over [0, gaps_i] by the n_quad-point trapezoid rule, whose
        nodes every interval shares. scores [n, K] are the base scores at the
        interval starts. One graph node on scores, alpha and log_beta: it
        runs over blocks of intervals whose buffers stay in cache and keeps
        [n, K] sums over the nodes for backward.
        """
        if n_quad < 2:
            raise ValueError(f"trapezoid quadrature needs at least 2 points, got {n_quad}")
        nodes = np.linspace(0.0, 1.0, n_quad)
        w = np.full(n_quad, 1.0 / (n_quad - 1))
        w[0] = w[-1] = 0.5 / (n_quad - 1)
        beta = np.exp(self.log_beta.data)
        if np.any(beta <= 0.0):
            raise ag.DomainError(f"softplus scale must be positive (min={beta.min()!r})")
        track = ag._track(scores, self.alpha, self.log_beta)
        n, S, K = len(gaps), nodes.size, beta.size
        rows = max(1, _BLOCK_ELEMS // (K * S))
        u, e, sp, t = (np.empty((min(rows, n), K, S)) for _ in range(4))
        # sum_s w_s of: softplus(u) [, sigma(u), off sigma(u), softplus(u) - u sigma(u)]
        sums = np.empty((4 if track else 1, n, K))
        for lo in range(0, n, rows):
            blk = slice(lo, lo + rows)
            off = gaps[blk, None] * nodes
            ub, eb, sb, tb = (x[:len(off)] for x in (u, e, sp, t))
            np.multiply(off[:, None, :], self.alpha.data[:, None], out=ub)
            ub += scores.data[blk, :, None]
            ub /= beta[:, None]                       # u = (alpha * off + c) / beta
            np.exp(np.negative(np.abs(ub, out=eb), out=eb), out=eb)   # e = exp(-|u|)
            np.log1p(eb, out=sb)
            sb += np.maximum(ub, 0.0, out=tb)         # softplus(u), stable
            np.matmul(sb, w, out=sums[0, blk])
            if track:
                np.add(eb, 1.0, out=tb)
                np.exp(np.minimum(ub, 0.0, out=eb), out=eb)
                eb /= tb                              # sigma(u), as ag._sigmoid
                np.matmul(eb, w, out=sums[1, blk])
                np.matmul(eb, (w * off)[:, :, None], out=sums[2, blk, :, None])
                np.subtract(sb, np.multiply(ub, eb, out=ub), out=ub)   # d(beta softplus(u))/d beta
                np.matmul(ub, w, out=sums[3, blk])
        return ag._node(gaps @ sums[0] @ beta, (scores, self.alpha, self.log_beta),
                        lambda g: g * gaps[:, None] * sums[1],
                        lambda g: g * (gaps @ sums[2]),
                        lambda g: g * beta * (gaps @ sums[3]))


class PredictionHeads(Module):
    """Linear next-type and next-time readouts from the hidden state."""

    def __init__(self, K, d_model, rng):
        self.P_e = Parameter(linear_init(rng, d_model, K).T)  # [K, d_model]
        self.P_t = Parameter(linear_init(rng, d_model, 1).T)  # [1, d_model]

    def logits(self, hidden):
        return ag.matmul(hidden, ag.transpose(self.P_e))

    def times(self, hidden):
        return ag.reshape(ag.matmul(hidden, ag.transpose(self.P_t)), (-1,))


class LossBreakdown(NamedTuple):
    event: Tensor
    time: Tensor
    total: Tensor
    log_likelihood: Tensor


class Score(NamedTuple):
    log_likelihood: Tensor
    logits: Tensor       # [n-1, K], next-type logits after events 1..n-1
    gaps: Tensor         # [n-1], predicted gaps to events 2..n


class PredictionResult(NamedTuple):
    probs: np.ndarray
    next_type: int       # 1-based
    next_time: float


class EncoderState:
    """What the encoder carries from the last sequence it ran: one state per
    block (a MambaBlock's conv inputs and scan state, an AttentionBlock's
    keys and values), the events they hold, the stack's output row at the
    last of them, and copies of the encoder parameters (embedding and
    blocks) they were computed with.

    It holds no reference to a model, so dropping a model frees it at once.
    """

    def __init__(self):
        self.held = None        # (timestamps, types) copied, or None
        self.params = []
        self.blocks = []
        self.last = None

    def resume(self, model, seq):
        """How many leading events of seq the state holds for `model`.

        That is all of its events when they are a prefix of seq (in
        timestamps and types) and every encoder parameter equals its copy.
        Otherwise it is 0, and the state is emptied and copies them anew.
        """
        params = [model.embedding] + [p for blk in model._stack() for p in blk.parameters()]
        if self.held is not None:
            t, k = self.held
            n = len(t)
            if (n <= len(seq) and np.array_equal(t, seq.timestamps[:n])
                    and np.array_equal(k, seq.types[:n])
                    and all(np.array_equal(p.data, q) for p, q in zip(params, self.params))):
                return n
        self.held = None
        self.params = [p.data.copy() for p in params]
        self.blocks = [blk.empty_state() for blk in model._stack()]
        return 0


class MambaHawkes(Module):
    """Full model: embedding -> gap-driven block stack -> MLP -> heads."""

    arch = "mhp"

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.embedding = Parameter(
            rng.normal(0.0, 1.0 / np.sqrt(cfg.d_model), size=(cfg.d_model, cfg.K)))
        self._build_encoder(rng)
        self.mlp = MlpHead(cfg.d_model, cfg.mlp_width, rng)
        self.head = IntensityHead(cfg.K, cfg.d_model, rng)
        self.pred = PredictionHeads(cfg.K, cfg.d_model, rng)
        self._stream = EncoderState()   # what predict_next last encoded

    def _build_encoder(self, rng, n_layers=None):
        """Assign the encoder blocks (`layers`, then any the subclass adds),
        drawing their initial values from rng in that order."""
        cfg = self.cfg
        self.layers = [MambaBlock(cfg.d_model, cfg.d_state, cfg.d_conv, cfg.expand, rng)
                       for _ in range(cfg.n_layers if n_layers is None else n_layers)]

    # -- encoding ----------------------------------------------------------

    def embed(self, seq):
        idx = seq.type_indices
        if idx.max() >= self.cfg.K:
            raise ValueError(
                f"event type out of range: sequence contains type {int(idx.max()) + 1} "
                f"but the model has K={self.cfg.K}")
        return ag.transpose(ag.gather(self.embedding, idx, axis=1))

    def deltas(self, seq):
        """The scan's steps: softplus of each gap (the first gap is the first
        timestamp), clamped so that no step is zero or overflows."""
        return np.clip(np.logaddexp(0.0, np.diff(seq.timestamps, prepend=0.0)),
                       DELTA_MIN, DELTA_MAX)

    def _stack(self):
        """The encoder blocks, in the order `_run_stack` runs them."""
        return list(self.layers)

    def _run_stack(self, x, delta, states):
        """Run the blocks; `states` (one per block of `_stack`) are carried on
        from and updated, and a None runs its block from empty."""
        for blk, state in zip(self.layers, states):
            x = blk(x, delta, state)
        return x

    def encode(self, seq, state=None):
        """Hidden state per event, [L, d_model]; row j sees only events <= j.

        With an `EncoderState` it returns the last event's row alone,
        [1, d_model], and runs only the events after those the state holds
        (`EncoderState.resume`), without recording a graph; the state then
        holds seq. Without one, the state starts empty.
        """
        if state is None:
            x = self.embed(seq)
            delta = Tensor(self.deltas(seq))
            return self.mlp(self._run_stack(x, delta, [None] * len(self._stack())))
        with ag.no_grad():
            start = state.resume(self, seq)
            if start < len(seq):
                state.held = None   # until the blocks hold all of seq
                x = self.embed(seq)[start:]
                delta = Tensor(self.deltas(seq)[start:])
                state.last = self._run_stack(x, delta, state.blocks)[len(seq) - start - 1:]
                state.held = (seq.timestamps.copy(), seq.types.copy())
            return self.mlp(state.last)

    # -- intensities and likelihood -----------------------------------------

    def score(self, seq, n_quad=EVAL_QUAD_POINTS):
        """One encoder pass scored three ways: the log-likelihood (the n_quad-point
        trapezoid rule integrates the intensity over [t_1, t_n]), the next-type
        logits [n-1, K] and the predicted gaps [n-1], successive differences of
        predicted times anchored at t_1. Differentiable end to end."""
        if len(seq) < 2:
            raise ValueError("scoring needs at least two events")
        hidden = self.encode(seq)
        scores = self.head.base_scores(hidden)
        gaps = np.diff(seq.timestamps)
        lam = self.head.intensities(gaps, scores[:-1])      # [n-1, K] at event times
        own = np.arange(len(gaps)) * self.cfg.K + seq.type_indices[1:]
        events = ag.reduce_sum(ag.log(ag.gather(ag.reshape(lam, (-1,)), own)))
        ll = ag.sub(events, self.head.integral(gaps, n_quad, scores[:-1]))
        logits = self.pred.logits(hidden[:-1])
        t_hat = ag.concat([Tensor(seq.timestamps[:1]), self.pred.times(hidden[:-1])], axis=0)
        return Score(ll, logits, ag.sub(t_hat[1:], t_hat[:-1]))

    # -- prediction and losses ----------------------------------------------

    def predict_next(self, seq):
        """Next-event type distribution and time prediction from the latest state.

        The model keeps the encoder state of the sequence it last predicted
        for, so a query on a longer prefix of it encodes only the new events.
        Not safe to call from several threads at once.
        """
        with ag.no_grad():
            h_last = self.encode(seq, self._stream)
            probs = ag.softmax(self.pred.logits(h_last), axis=1).data[0]
            t_hat = float(self.pred.times(h_last).data[0])
        return PredictionResult(probs, int(np.argmax(probs)) + 1, t_hat)

    def losses(self, seq):
        """(event cross-entropy, time MSE, weighted total) plus the
        log-likelihood, integrated on `TRAIN_QUAD_POINTS` nodes."""
        ll, logits, pred_gaps = self.score(seq, TRAIN_QUAD_POINTS)
        hot = np.zeros((len(seq) - 1, self.cfg.K))
        hot[np.arange(len(seq) - 1), seq.type_indices[1:]] = 1.0
        event_loss = ag.neg(ag.reduce_sum(ag.mul(ag.log_softmax(logits, axis=1), hot)))
        diff = ag.sub(pred_gaps, Tensor(np.diff(seq.timestamps)))
        time_loss = ag.reduce_sum(ag.mul(diff, diff))

        total = ag.add(ag.neg(ll),
                       ag.add(ag.mul(ag.as_tensor(self.cfg.event_loss_weight), event_loss),
                              ag.mul(ag.as_tensor(self.cfg.time_loss_weight), time_loss)))
        return LossBreakdown(event_loss, time_loss, total, ll)
