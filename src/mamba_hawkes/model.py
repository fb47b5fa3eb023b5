"""Marked event-sequence model: type embedding, gap-driven selective-SSM
stack, conditional intensities, log-likelihood, and next-event heads.

`MambaHawkes.score` writes the log-likelihood of a sequence as the log
intensity of each event's own type minus the compensator, the total
intensity integrated over the observed window by one node,
`IntensityHead.integral`. Within an interval each intensity is a softplus of
a linear function of time, so the integral has a closed form, through the
dilogarithm; the training loss and reported likelihoods both use it, with
no quadrature rule and no node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from sys import float_info
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Module, Parameter, Tensor
from .data import (MAX_D_CONV, MAX_D_MODEL, MAX_D_STATE, MAX_EXPAND, MAX_HIDDEN, MAX_LAYERS,
                   MAX_TYPES)
from .ssm import MambaBlock, batch_groups, linear_init

# F(u) = -Li2(-e^u), the antiderivative of softplus that vanishes at -inf, is
# w + w^2 / 4 + sum_n B_2n w^(2n+1) / (2n+1)! in w = softplus(u), the series of
# Li2(1 - e^-x) in Bernoulli numbers (Zagier, "The Dilogarithm Function",
# 2007). For u <= 0, w <= ln 2 and the terms through B_16 reach double precision.
_DILOG_SERIES = np.array([b / math.factorial(2 * n + 1) for n, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), start=1)])
_PI2_6 = math.pi ** 2 / 6.0     # F(u) + F(-u) - u^2 / 2
# Below this |du| the compensator takes the midpoint series of the mean of
# softplus over [u0, u0 + du] (terms through du^4, error about du^6 / 3e5)
# instead of the difference of F, which would cancel.
_SMALL_DU = 0.05

DELTA_MIN, DELTA_MAX = 1e-6, 1e4    # bounds of the scan's step, the softplus'd gap


# the values each config annotation takes: a bool is no int, and a float
# field takes an int only within float range
_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _dilog_series(w):
    """F(u) = -Li2(-e^u) for u <= 0, from w = softplus(u) (`_DILOG_SERIES`)."""
    w2 = w * w
    acc = np.full_like(w, _DILOG_SERIES[-1])
    for c in _DILOG_SERIES[-2::-1]:
        acc = acc * w2 + c
    return w + w2 * (0.25 + w * acc)


def in_range(lo, hi):
    """The test and text of the config rule lo <= value <= hi."""
    return (lambda v: lo <= v <= hi), f"in {lo}..{hi}"


@dataclass
class MhpConfig:
    """Architecture and loss-weight settings; defaults follow the reference setup.

    The base of every config class: building one checks each init field's type,
    then the class's `rules()`, naming the first field that fails. `from_dict`
    reads a config file and a checkpoint's `config` alike. Values stay as given.
    """

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
        for f in fields(self):
            v = getattr(self, f.name)
            if f.init and (isinstance(v, bool) != (f.type == "bool")
                           or not isinstance(v, _TYPES[f.type])
                           or f.type == "float" and isinstance(v, int) and abs(v) > float_info.max):
                raise ValueError(f"config field {f.name} must be of type {f.type}, got {v!r}")
        for name, test, rule in self.rules():
            if not test(getattr(self, name)):
                raise ValueError(f"config field {name} must be {rule}, got {getattr(self, name)!r}")

    def rules(self):
        """(field, test of the value, rule text) of each bound, in checking order."""
        return (("d_model", *in_range(1, MAX_D_MODEL)),
                ("d_state", *in_range(1, MAX_D_STATE)),
                ("d_conv", *in_range(1, MAX_D_CONV)),
                ("expand", *in_range(1, MAX_EXPAND)),
                ("n_layers", *in_range(1, MAX_LAYERS)),
                ("K", *in_range(1, MAX_TYPES)),
                ("mlp_hidden", *in_range(0, MAX_HIDDEN)),
                *((w, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
                  for w in ("event_loss_weight", "time_loss_weight")))

    @classmethod
    def from_dict(cls, d):
        unknown = sorted(set(d) - {f.name for f in fields(cls) if f.init})
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
        return cls(**d)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    @property
    def mlp_width(self):
        return self.mlp_hidden if self.mlp_hidden else self.d_model


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

    def integral(self, gaps, scores, ends=None):
        """The compensator: sum_i of the total intensity sum_k lambda_k
        integrated over [0, gaps_i] in closed form. scores [n, K] are the base
        scores at the interval starts. One graph node on scores, alpha and
        log_beta over [n, K] arrays, which keeps three of them for backward.

        Given `ends`, the intervals are those of several sequences in turn,
        sequence j's ending before ends[j], and it returns each sequence's
        compensator, [len(ends)], without a graph: each is summed alone, as
        a call on its intervals would sum it.

        On interval i, lambda_k = beta_k softplus(u) with u running linearly
        from u0 = c_ik / beta_k to u0 + du, du = alpha_k gaps_i / beta_k, so
        the integral is beta_k gaps_i h, h the mean of softplus over that
        range: (F(u0 + du) - F(u0)) / du with F' = softplus, or, where |du| <
        `_SMALL_DU` and that difference would cancel, its midpoint series. The
        gradients are analytic, take the same branches and are written
        through du, never as a division by alpha.
        """
        beta = np.exp(self.log_beta.data)
        if np.any(beta <= 0.0):
            raise ag.DomainError(f"softplus scale must be positive (min={float(beta.min())})")
        g = gaps[:, None]
        du = self.alpha.data * g / beta
        u = scores.data / beta
        u = np.stack([u, u + du, u + 0.5 * du])         # start, end and midpoint m
        w = np.log1p(np.exp(-np.abs(u)))                 # softplus(-|u|)
        sp = np.maximum(u, 0.0) + w                      # softplus(u), stable
        pos = (u[:2] > 0.0).astype(np.float64)
        # F(u) = P(u) + tail(u): P = pos (u^2 / 2 + pi^2 / 6), and tail is
        # F(-|u|) by the series, negated where u > 0
        tail = _dilog_series(w[:2]) * (1.0 - 2.0 * pos)
        up = u[:2] * pos
        small = np.abs(du) < _SMALL_DU
        safe = np.where(small, 1.0, du)
        dF = (0.5 * (up[1] - up[0]) * (up[1] + up[0]) + _PI2_6 * (pos[1] - pos[0])
              + tail[1] - tail[0])
        # sigma(m), 1 - sigma(m) and sigma'(m) = softplus''(m), stable in both tails
        sig, rest, d2 = np.exp(u[2] - sp[2]), np.exp(-sp[2]), np.exp(u[2] - 2.0 * sp[2])
        d4 = d2 * (1.0 - 6.0 * d2)                       # softplus''''(m)
        du2 = du * du
        h = np.where(small, sp[2] + du2 / 24.0 * d2 + du2 * du2 / 1920.0 * d4, dF / safe)
        track = ag._track(scores, self.alpha, self.log_beta)
        if ends is not None:
            if track:
                raise ag.GraphError("integral: per-sequence sums are for evaluation under "
                                    "no_grad only")
            return Tensor([g @ part @ beta for g, part in
                           zip(np.split(gaps, ends[:-1]), np.split(h, ends[:-1]))])
        value = gaps @ h @ beta
        if not track:
            return Tensor(value)
        # parts: dh/du0, dh/d(du), and h - u0 dh/du0 - du dh/d(du), which is
        # d(beta h)/d(beta); the midpoint series' h_m and h_du hold m fixed
        d3 = d2 * (rest - sig)                           # softplus'''(m)
        h_m = sig + du2 / 24.0 * d3 + du2 * du2 / 1920.0 * d3 * (1.0 - 12.0 * d2)
        h_du = du / 12.0 * d2 + du * du2 / 480.0 * d4
        uw = u[:2] * w[:2]            # u softplus(u) = 2 P - pos pi^2 / 3 + u w
        parts = np.where(small, [h_m, 0.5 * h_m + h_du, h - u[2] * h_m - du * h_du],
                         [(sp[1] - sp[0]) / safe, (sp[1] - h) / safe,
                          (2.0 * (tail[1] - tail[0]) + 2.0 * _PI2_6 * (pos[1] - pos[0])
                           - (uw[1] - uw[0])) / safe])
        return ag._node(value, (scores, self.alpha, self.log_beta),
                        lambda grad: grad * g * parts[0],
                        lambda grad: grad * (gaps * gaps @ parts[1]),
                        lambda grad: grad * beta * (gaps @ parts[2]))


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


class Group:
    """Sequences laid out for one encoder pass that steps them all at once.

    The pass is time-major: its row i * B + j holds event i of sequence j,
    out of B sequences whose longest has L events. A shorter sequence is
    padded past its last event with type 1 at gaps of 1, in rows that its
    own rows never read, since every op of the encoder is causal or
    row-wise. `timestamps` [L, B] and `type_indices` [L * B] stand in for
    those of a sequence.
    """

    def __init__(self, seqs):
        lengths = [len(s) for s in seqs]
        L, B = max(lengths), len(lengths)
        self.timestamps = np.empty((L, B))
        types = np.zeros((L, B), dtype=np.int64)
        for j, s in enumerate(seqs):
            n = len(s)
            self.timestamps[:n, j] = s.timestamps
            self.timestamps[n:, j] = s.timestamps[-1] + np.arange(1.0, L - n + 1)
            types[:n, j] = s.type_indices
        self.type_indices = types.reshape(-1)
        self.ends = np.cumsum(lengths)
        # the pass's rows of each sequence in turn
        self.rows = np.concatenate([np.arange(n) * B + j for j, n in enumerate(lengths)])

    def unpad(self, x):
        """The pass's rows x [L * B, .] of each sequence in turn, [sum of lengths, .]."""
        return ag.gather(x, self.rows, axis=0)

    def split(self, x):
        """Rows of each sequence in turn, [sum of lengths, .], as one slice per sequence."""
        return [x[a:b] for a, b in zip(np.r_[0, self.ends[:-1]], self.ends)]


def _check_scorable(seq):
    if len(seq) < 2:
        raise ValueError("scoring needs at least two events")


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
        return np.clip(np.logaddexp(0.0, np.diff(seq.timestamps, axis=0, prepend=0.0)),
                       DELTA_MIN, DELTA_MAX)

    def _stack(self):
        """The encoder blocks, in the order `_run_stack` runs them."""
        return list(self.layers)

    def _run_stack(self, x, delta, states, group=None):
        """Run the blocks; `states` (one per block of `_stack`) are carried on
        from and updated, and a None runs its block from empty. The rows of
        a `group`'s pass come back as those of each sequence in turn."""
        for blk, state in zip(self.layers, states):
            x = blk(x, delta, state)
        return x if group is None else group.unpad(x)

    def encode(self, seq, state=None):
        """Hidden state per event, [L, d_model]; row j sees only events <= j.

        With an `EncoderState` it returns the last event's row alone,
        [1, d_model], and runs only the events after those the state holds
        (`EncoderState.resume`), without recording a graph; the state then
        holds seq. Without one, the state starts empty.

        Given a `Group` of sequences in place of seq, under no_grad, it
        encodes them in one pass that steps them all at once, and returns
        the rows of each sequence in turn, [sum of lengths, d_model], each
        bit for bit those of `encode` on that sequence alone.
        """
        if state is None:
            x = self.embed(seq)
            delta = Tensor(self.deltas(seq))
            group = seq if isinstance(seq, Group) else None
            return self.mlp(self._run_stack(x, delta, [None] * len(self._stack()), group))
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

    def score(self, seq):
        """One encoder pass scored three ways: the log-likelihood (the intensity
        integrated over [t_1, t_n] in closed form), the next-type logits
        [n-1, K] and the predicted gaps [n-1], successive differences of
        predicted times anchored at t_1. Differentiable end to end."""
        _check_scorable(seq)
        hidden = self.encode(seq)
        scores = self.head.base_scores(hidden)
        gaps = np.diff(seq.timestamps)
        lam = self.head.intensities(gaps, scores[:-1])      # [n-1, K] at event times
        own = np.arange(len(gaps)) * self.cfg.K + seq.type_indices[1:]
        events = ag.reduce_sum(ag.log(ag.gather(ag.reshape(lam, (-1,)), own)))
        ll = ag.sub(events, self.head.integral(gaps, scores[:-1]))
        logits = self.pred.logits(hidden[:-1])
        t_hat = ag.concat([Tensor(seq.timestamps[:1]), self.pred.times(hidden[:-1])], axis=0)
        return Score(ll, logits, ag.sub(t_hat[1:], t_hat[:-1]))

    def groups(self, seqs):
        """Positions of seqs, sorted by length and cut into the groups that
        `score_group` steps at once (`ssm.batch_groups`)."""
        blk = self.layers[0]
        return batch_groups([len(s) for s in seqs], blk.d_inner, blk.ssm.d_state)

    def score_group(self, seqs):
        """`score` of each of seqs from one encoder pass over them all that
        steps them at once (`encode` of a `Group`), without a graph: their
        Scores in the order given, bit for bit those of `score`.

        The embedding, the blocks' row-wise ops, the MLP, the intensities
        and the compensator's terms run once over the group's rows; the
        heads, whose weights enter transposed, and each sequence's sums of
        its event terms and of its compensator's terms run per sequence, on
        arrays of the shapes that `score` gives them, so that every value
        keeps its bits.
        """
        for seq in seqs:
            _check_scorable(seq)
        group = Group(seqs)
        with ag.no_grad():
            hidden = group.split(self.encode(group))
            scores = [self.head.base_scores(h) for h in hidden]
            gaps = np.concatenate([np.diff(s.timestamps) for s in seqs])
            starts = ag.concat([sc[:-1] for sc in scores])
            lam = self.head.intensities(gaps, starts)
            own = np.arange(len(gaps)) * self.cfg.K + np.concatenate(
                [s.type_indices[1:] for s in seqs])
            ends = group.ends - np.arange(1, len(seqs) + 1)    # of each one's intervals
            events = np.split(ag.log(ag.gather(ag.reshape(lam, (-1,)), own)).data, ends[:-1])
            compensators = self.head.integral(gaps, starts, ends).data
            out = []
            for seq, h, ev, comp in zip(seqs, hidden, events, compensators):
                t_hat = np.concatenate([seq.timestamps[:1], self.pred.times(h[:-1]).data])
                out.append(Score(Tensor(ev.sum() - comp), self.pred.logits(h[:-1]),
                                 Tensor(t_hat[1:] - t_hat[:-1])))
        return out

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
        log-likelihood."""
        ll, logits, pred_gaps = self.score(seq)
        hot = np.zeros((len(seq) - 1, self.cfg.K))
        hot[np.arange(len(seq) - 1), seq.type_indices[1:]] = 1.0
        event_loss = ag.neg(ag.reduce_sum(ag.mul(ag.log_softmax(logits, axis=1), hot)))
        diff = ag.sub(pred_gaps, Tensor(np.diff(seq.timestamps)))
        time_loss = ag.reduce_sum(ag.mul(diff, diff))

        total = ag.add(ag.neg(ll),
                       ag.add(ag.mul(ag.as_tensor(self.cfg.event_loss_weight), event_loss),
                              ag.mul(ag.as_tensor(self.cfg.time_loss_weight), time_loss)))
        return LossBreakdown(event_loss, time_loss, total, ll)
