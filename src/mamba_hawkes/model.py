"""Marked event-sequence model: type embedding, gap-driven selective-SSM
stack, conditional intensities, log-likelihood, and next-event heads.

`MambaHawkes.score` writes the log-likelihood of a sequence as the sum over
its intervals of the log intensity of the next event's own type minus the
interval's compensator, the total intensity integrated over it by one node,
`IntensityHead.integral`. Within an interval each intensity is a softplus of
a linear function of time, so the integral has a closed form, through the
dilogarithm; the training loss and reported likelihoods both use it, with
no quadrature rule and no node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Module, Parameter, Tensor
from .data import (MAX_D_CONV, MAX_D_MODEL, MAX_D_STATE, MAX_EXPAND, MAX_HIDDEN, MAX_LAYERS,
                   MAX_TYPES, finite_float)
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

_TILE = 64      # rows per tile of the head product, `MambaHawkes.heads`


# the values each config annotation but float takes (a bool is no int); a
# float field takes what `finite_float` takes
_TYPES = {"int": int, "str": str, "bool": bool}


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
            if f.init and (finite_float(v) is None if f.type == "float"
                           else isinstance(v, bool) != (f.type == "bool")
                           or not isinstance(v, _TYPES[f.type])):
                raise ValueError(f"config field {f.name} must be of type {f.type}"
                                 f"{' and finite' if f.type == 'float' else ''}, got {v!r}")
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
                *((w, lambda v: v >= 0, ">= 0")
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

    def intensities(self, offsets, scores):
        """Intensity at offsets past each interval start.

        offsets: [L] constant array; scores: [L, K] tensor of base scores.
        Returns an [L, K] tensor.
        """
        off_t = Tensor(np.asarray(offsets, dtype=np.float64)[:, None])
        arg = ag.add(ag.mul(off_t, self.alpha), scores)
        return ag.softplus(arg, ag.exp(self.log_beta))

    def integral(self, gaps, scores):
        """Each interval's compensator, [n]: the total intensity sum_k
        lambda_k integrated over [0, gaps_i] in closed form. scores [n, K] are
        the base scores at the interval starts. One graph node on scores,
        alpha and log_beta over [n, K] arrays, which keeps three of them for
        backward. Interval i's value is gaps_i times the row sum of h_i *
        beta, so its bits depend on that row alone.

        On interval i, lambda_k = beta_k softplus(u) with u running linearly
        from u0 = c_ik / beta_k to u0 + du, du = alpha_k gaps_i / beta_k, so
        the integral is beta_k gaps_i h, h the mean of softplus over that
        range: (F(u0 + du) - F(u0)) / du with F' = softplus, or, where |du| <
        `_SMALL_DU` and that difference would cancel, its midpoint series.
        Each branch runs only when some interval takes it (alpha = 0 takes
        only the series). The gradients are analytic, take the same branches
        and are written through du, never as a division by alpha.
        """
        beta = np.exp(self.log_beta.data)
        if np.any(beta <= 0.0):
            raise ag.DomainError(f"softplus scale must be positive (min={float(beta.min())})")
        g = gaps[:, None]
        du = self.alpha.data * g / beta
        u0 = scores.data / beta
        small = np.abs(du) < _SMALL_DU
        track = ag._track(scores, self.alpha, self.log_beta)
        # h and, when tracked, its parts dh/du0, dh/d(du) and h - u0 dh/du0 -
        # du dh/d(du), which is d(beta h)/d(beta), of each branch taken
        mid = end = None
        if not small.all():
            u = np.stack([u0, u0 + du])                  # start and end
            w = np.log1p(np.exp(-np.abs(u)))             # softplus(-|u|)
            sp = np.maximum(u, 0.0) + w                  # softplus(u), stable
            pos = (u > 0.0).astype(np.float64)
            # F(u) = P(u) + tail(u): P = pos (u^2 / 2 + pi^2 / 6), and tail is
            # F(-|u|) by the series, negated where u > 0
            tail = _dilog_series(w) * (1.0 - 2.0 * pos)
            up = u * pos
            safe = np.where(small, 1.0, du)
            end = [(0.5 * (up[1] - up[0]) * (up[1] + up[0]) + _PI2_6 * (pos[1] - pos[0])
                    + tail[1] - tail[0]) / safe]
            if track:
                uw = u * w            # u softplus(u) = 2 P - pos pi^2 / 3 + u w
                end += [(sp[1] - sp[0]) / safe, (sp[1] - end[0]) / safe,
                        (2.0 * (tail[1] - tail[0]) + 2.0 * _PI2_6 * (pos[1] - pos[0])
                         - (uw[1] - uw[0])) / safe]
        if small.any():
            m = u0 + 0.5 * du                            # the midpoint
            spm = np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))
            # sigma(m), 1 - sigma(m) and sigma'(m) = softplus''(m), stable in both tails
            sig, rest, d2 = np.exp(m - spm), np.exp(-spm), np.exp(m - 2.0 * spm)
            d4 = d2 * (1.0 - 6.0 * d2)                   # softplus''''(m)
            du2 = du * du
            mid = [spm + du2 / 24.0 * d2 + du2 * du2 / 1920.0 * d4]
            if track:   # the series' h_m and h_du hold m fixed
                d3 = d2 * (rest - sig)                   # softplus'''(m)
                h_m = sig + du2 / 24.0 * d3 + du2 * du2 / 1920.0 * d3 * (1.0 - 12.0 * d2)
                h_du = du / 12.0 * d2 + du * du2 / 480.0 * d4
                mid += [h_m, 0.5 * h_m + h_du, mid[0] - m * h_m - du * h_du]
        h, *parts = end if mid is None else mid if end is None else np.where(small, mid, end)
        return ag._node(gaps * (h * beta).sum(axis=1), (scores, self.alpha, self.log_beta),
                        lambda grad: grad[:, None] * g * parts[0],
                        lambda grad: grad * gaps * gaps @ parts[1],
                        lambda grad: beta * (grad * gaps @ parts[2]))


class PredictionHeads(Module):
    """Linear next-type and next-time readouts from the hidden state."""

    def __init__(self, K, d_model, rng):
        self.P_e = Parameter(linear_init(rng, d_model, K).T)  # [K, d_model]
        self.P_t = Parameter(linear_init(rng, d_model, 1).T)  # [1, d_model]


class LossBreakdown(NamedTuple):
    event: Tensor
    time: Tensor
    total: Tensor
    log_likelihood: Tensor


class Score(NamedTuple):
    log_likelihood: Tensor
    logits: Tensor       # [n-1, K], next-type logits after events 1..n-1
    gaps: Tensor         # [n-1], predicted gaps to events 2..n


class HeadRows(NamedTuple):     # the column blocks of `MambaHawkes.heads` on m rows
    scores: Tensor       # [m, K], base scores w_k . h + b_k
    logits: Tensor       # [m, K], next-type logits
    times: Tensor        # [m], predicted next-event times


def _spans(ends):
    """The slices of consecutive runs, run j ending before ends[j]."""
    return [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]


class GroupScores:
    """`score_group`'s whole-group tensors: `log_likelihood` [S], one per
    sequence, and `logits` [m, K] and `gaps` [m] of the `group`'s
    intervals. Item j is sequence j's `Score`."""

    def __init__(self, ll, logits, gaps, group):
        self.log_likelihood, self.logits, self.gaps, self.group = ll, logits, gaps, group

    def __getitem__(self, j):
        s = self.group.spans[j]
        return Score(self.log_likelihood[j], self.logits[s], self.gaps[s])


class PredictionResult(NamedTuple):
    probs: np.ndarray
    next_type: int       # 1-based
    next_time: float


class EncoderState:
    """What the encoder carries from the last sequence it ran: one state per
    block (a MambaBlock's conv inputs and scan state, an AttentionBlock's
    keys and values), the events they hold, the stack's output row at the
    last of them, a copy of each encoder parameter (embedding and blocks)
    they were computed with, and `scratch`, views shaped like them of one
    bool array as long as the largest, into which `resume` compares them.

    It holds no reference to a model, so dropping a model frees it at once.
    """

    def __init__(self):
        # (timestamps, types) copied, or None; then params, scratch, blocks and last
        self.held, self.params, self.scratch, self.blocks, self.last = None, [], [], [], None

    def resume(self, model, seq):
        """How many leading events of seq the state holds for `model`.

        That is all of its events when they are a prefix of seq (in
        timestamps and types) and every encoder parameter equals its copy in
        shape and by value, compared without temporaries to the first mismatch.
        Otherwise it is 0, and the state is emptied and copies them anew.
        """
        params = [model.embedding] + [p for blk in model._stack() for p in blk.parameters()]
        if self.held is not None:
            t, k = self.held
            n = len(t)
            if (n <= len(seq) and np.array_equal(t, seq.timestamps[:n])
                    and np.array_equal(k, seq.types[:n])
                    and all(p.data.shape == q.shape and not np.not_equal(p.data, q, out=s).any()
                            for p, q, s in zip(params, self.params, self.scratch))):
                return n
        self.held = None
        self.params = [p.data.copy() for p in params]
        scratch = np.empty(max(q.size for q in self.params), dtype=bool)
        self.scratch = [scratch[:q.size].reshape(q.shape) for q in self.params]
        self.blocks = [blk.empty_state() for blk in model._stack()]
        return 0


class Group:
    """Sequences laid out for one encoder pass that steps them all at once.

    The pass is time-major, [L, B, .]: step i of sequence j is its event i,
    out of B sequences whose longest has L events; one sequence is a group
    of one, [L, 1, .]. A shorter sequence is padded past its last event with
    type 1 at gaps of 1, in steps that its own steps never read, since every
    op of the encoder is causal or row-wise. `timestamps` [L, B] and
    `type_indices` [L * B] (row i * B + j) are the pass's inputs, and
    `rows` are the pass's rows of each sequence in turn. For scoring it
    holds each sequence's first time (`firsts`) and intervals, `gaps` and
    `next_types` (0-based) [m], in turn: sequence j's in `spans[j]`, ending
    before cuts[j], first events at rows `starts`.
    """

    def __init__(self, seqs):
        n = np.array([len(s) for s in seqs])
        L, B = n.max(), len(n)
        self.ends = np.cumsum(n)
        t = np.concatenate([s.timestamps for s in seqs])
        k = np.concatenate([s.types for s in seqs]) - 1
        self.cuts = self.ends - np.arange(1, B + 1)
        self.spans = _spans(self.cuts)
        self.starts = np.delete(np.arange(len(t)), self.ends - 1)
        self.gaps = np.diff(t)[self.starts]
        self.next_types = k[self.starts + 1]
        self.firsts = t[self.ends - n]
        i = np.arange(L)[:, None]
        inside = i < n
        at = np.minimum(i, n - 1) + self.ends - n       # each slot's event, or its last one
        self.timestamps = np.where(inside, t[at], t[at] + (i - n + 1))
        self.type_indices = np.where(inside, k[at], 0).reshape(-1)
        self.rows = (i * B + np.arange(B)).T[inside.T]

    def split(self, x):
        """Rows of each sequence in turn, [sum of lengths, .], as one slice per sequence."""
        return [x[rows] for rows in _spans(self.ends)]


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

    def embed(self, idx):
        """The embedding rows of 0-based type indices idx, [len(idx), d_model]."""
        if idx.max() >= self.cfg.K:
            raise ValueError(
                f"event type out of range: sequence contains type {int(idx.max()) + 1} "
                f"but the model has K={self.cfg.K}")
        return ag.transpose(ag.gather(self.embedding, idx, axis=1))

    def deltas(self, timestamps, before=0.0):
        """The scan's steps: softplus of each gap along axis 0 (the first gap
        is the first timestamp less `before`, the time of any event before
        them), clamped so that no step is zero or overflows."""
        return np.clip(np.logaddexp(0.0, np.diff(timestamps, axis=0, prepend=before)),
                       DELTA_MIN, DELTA_MAX)

    def _stack(self):
        """The encoder blocks, in the order `_run_stack` runs them."""
        return list(self.layers)

    def _run_stack(self, x, delta, states, group):
        """Run the blocks over a pass of B sequences with steps delta, an
        array [L, B]: x, its rows [L * B, d_model], is a Tensor, and each
        block one graph node, when `states` is None, and an array when
        `states` (one per block of `_stack`) are carried on from and updated
        (streaming, which builds no Tensor). The rows come back as those of
        each sequence in turn, which only a `group` of B > 1 reorders; one
        sequence needs none."""
        if states is not None:
            x = x.reshape(delta.shape + (-1,))
            for blk, state in zip(self.layers, states):
                x = blk(x, delta, state)
            return x.reshape(-1, x.shape[-1])
        x = ag.reshape(x, delta.shape + (-1,))
        for blk in self.layers:
            x = blk(x, delta)
        x = ag.reshape(x, (-1, x.shape[-1]))
        return x if delta.shape[1] == 1 else ag.gather(x, group.rows)

    def encode(self, seq, state=None):
        """Hidden state per event, [L, d_model]; row j sees only events <= j.

        A pass without a state is a `Group`'s, seq a group of one. Given
        a `Group` in place of seq, it encodes its sequences in one pass that
        steps them all at once, and returns the rows of each sequence in
        turn, [sum of lengths, d_model], each bit for bit those of `encode`
        on that sequence alone.

        With an `EncoderState` it returns the last event's row alone,
        [1, d_model], and embeds and runs only the events after those the
        state holds (`EncoderState.resume`), handing the stack seq's slices
        as they are, without a group, a graph or a Tensor inside the
        blocks; a hybrid's last block runs only that row past its keys and
        values. The state then holds seq; without one, it starts empty.
        """
        if state is None:
            group = seq if isinstance(seq, Group) else Group([seq])
            return self.mlp(self._run_stack(self.embed(group.type_indices),
                                            self.deltas(group.timestamps), None, group))
        with ag.no_grad():
            start = state.resume(self, seq)
            if start < len(seq):
                state.held = None   # until the blocks hold all of seq
                delta = self.deltas(seq.timestamps[start:, None],
                                    seq.timestamps[start - 1] if start else 0.0)
                state.last = self._run_stack(self.embed(seq.types[start:] - 1).data, delta,
                                             state.blocks, None)[-1:]
                state.held = (seq.timestamps.copy(), seq.types.copy())
            return self.mlp(state.last)

    def heads(self, hidden, rows=slice(None)):
        """The intensity, next-type and next-time heads on hidden[rows], as
        one graph node: the rows times the stacked [d_model, 2K + 1] weight
        [W^T P_e^T P_t^T], plus b on the first K columns, in column blocks.

        The product runs in zero-padded `_TILE`-row tiles, one batched matmul
        over [tiles, _TILE, d_model]. A BLAS product of another row count
        can round a row differently (OpenBLAS 0.3.31 did, against one
        2500-row call); one of a fixed shape cannot, so a row's bits depend
        on that row alone, in a group or scored alone.
        """
        K, params = self.cfg.K, (self.head.W, self.head.b, self.pred.P_e, self.pred.P_t)
        x = hidden.data[rows]
        stacked = np.concatenate([self.head.W.data, self.pred.P_e.data, self.pred.P_t.data])
        tiles = np.zeros((-(-len(x) // _TILE) * _TILE, x.shape[1]))
        tiles[:len(x)] = x
        out = np.matmul(tiles.reshape(-1, _TILE, x.shape[1]), np.ascontiguousarray(stacked.T))
        out = out.reshape(-1, 2 * K + 1)[:len(x)]
        out[:, :K] += self.head.b.data

        def grad_hidden(g):
            gh = np.zeros_like(hidden.data)
            gh[rows] = g @ stacked
            return gh
        node = ag._node(out, (hidden,) + params, grad_hidden, lambda g: g[:, :K].T @ x,
                        lambda g: g[:, :K], lambda g: g[:, K:-1].T @ x, lambda g: g[:, -1:].T @ x)
        return HeadRows(node[:, :K], node[:, K:-1], node[:, -1])

    # -- intensities and likelihood -----------------------------------------

    def score(self, seq):
        """The `Score` of seq alone (`score_group`), differentiable end to end."""
        return self.score_group([seq])[0]

    def groups(self, seqs):
        """Positions of seqs, sorted by length and cut into the groups that
        `score_group` steps at once (`ssm.batch_groups`)."""
        blk = self.layers[0]
        return batch_groups([len(s) for s in seqs], blk.d_inner, blk.ssm.d_state)

    def score_group(self, seqs):
        """One encoder pass (`encode` of a `Group`) scored three ways for
        each of seqs: the log-likelihood (the intensity integrated over
        [t_1, t_n] in closed form), the next-type logits [n-1, K] and the
        predicted gaps [n-1], successive differences of predicted times
        anchored at t_1; item j of the `GroupScores` is seqs[j]'s `Score`.
        Any group records a graph; `score` is the group of one.

        The heads, intensities and each interval's log intensity less its
        compensator run once over the group's rows, and a row's values
        depend on that row alone; only each sequence's sum of those terms
        runs per sequence, over its slice. So each value has the bits of
        scoring its sequence alone.
        """
        if any(len(seq) < 2 for seq in seqs):
            raise ValueError("scoring needs at least two events")
        group = Group(seqs)
        heads = self.heads(self.encode(group), group.starts)
        lam = self.head.intensities(group.gaps, heads.scores)      # [m, K] at event times
        own = np.arange(len(group.gaps)) * self.cfg.K + group.next_types
        terms = ag.sub(ag.log(ag.gather(ag.reshape(lam, (-1,)), own)),
                       self.head.integral(group.gaps, heads.scores))
        ll = ag._node(np.array([terms.data[s].sum() for s in group.spans]), (terms,),
                      lambda g: np.repeat(g, np.diff(group.cuts, prepend=0)))
        prev = np.arange(len(group.gaps)) + len(seqs) - 1   # each interval's previous time,
        prev[[s.start for s in group.spans]] = np.arange(len(seqs))     # t_1 for a first one
        t_hat = ag.concat([Tensor(group.firsts), heads.times])
        return GroupScores(ll, heads.logits, ag.sub(heads.times, ag.gather(t_hat, prev)), group)

    # -- prediction and losses ----------------------------------------------

    def predict_next(self, seq):
        """Next-event type distribution and time prediction from the latest state.

        The model keeps the encoder state of the sequence it last predicted
        for, so a query on a longer prefix of it encodes only the new events.
        Not safe to call from several threads at once.
        """
        with ag.no_grad():
            heads = self.heads(self.encode(seq, self._stream))
            probs = np.exp(heads.logits.data[0] - heads.logits.data[0].max())
            probs /= probs.sum()
            t_hat = float(heads.times.data[0])
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
