"""Hybrid encoder: gap-driven SSM layers followed by causal self-attention.

The SSM stage carries all temporal information into the token stream, so the
attention stage uses no positional or temporal encoding of any kind; its only
structural constraint is the causal mask (position j attends to <= j), which
keeps the downstream likelihood valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Module, Parameter, Tensor
from .data import MAX_HEADS, MAX_HIDDEN, MAX_LAYERS
from .model import MambaHawkes, MhpConfig, in_range
from .ssm import linear_init, rms_norm


@dataclass
class MhpEConfig(MhpConfig):
    """Hybrid settings; the SSM stage, mamba_layers deep in place of n_layers,
    only feeds the attention stack. ff_width of 0 means 4 * d_model."""

    mamba_layers: int = 2
    attn_blocks: int = 4
    n_heads: int = 4
    ff_width: int = 0

    def rules(self):
        return super().rules() + (
            ("n_layers", lambda n: n == MhpConfig.n_layers,
             f"{MhpConfig.n_layers} (arch mhp-e takes its depth from mamba_layers)"),
            ("mamba_layers", *in_range(1, MAX_LAYERS)),
            ("attn_blocks", *in_range(0, MAX_LAYERS)),
            ("n_heads", *in_range(1, MAX_HEADS)),
            ("ff_width", *in_range(0, MAX_HIDDEN)),
            ("d_model", lambda d: d % self.n_heads == 0, f"divisible by n_heads={self.n_heads}"))

    @property
    def ff_dim(self):
        return self.ff_width if self.ff_width else 4 * self.d_model


def causal_mask(L):
    """Additive [L, L] mask: row i may see columns <= i (0), not later ones
    (-1e30)."""
    return np.where(np.tri(L, dtype=bool), 0.0, -1e30)


def multi_head_attention(q, k, v, n_heads, past=0):
    """Causal softmax attention of all n_heads heads at once, as one graph node.

    q is [L, D], the queries of L new positions; k and v are [past + L, D],
    the keys and values of `past` earlier positions and then the new ones.
    Every query sees all earlier positions and the new ones up to its own.
    Head h uses columns h*D/H..(h+1)*D/H, and the [L, D] result holds each
    head's softmax(q_h k_h^T / sqrt(D/H)) v_h in its columns. The heads run
    as batched matmuls on [H, ., D/H] views. The scale goes on q, and the
    row sums divide the [H, L, D/H] product with v, not the weights.
    Backward is the softmax-attention adjoint, for q, k and v, on the same
    arrays. For it the node keeps only each row's softmax max and sum,
    [H, L, 1] each, and recomputes the [H, L, past + L] weights from q, k
    and them by the forward's ops in the same order; under no_grad it keeps
    nothing.
    """
    q, k, v = ag.as_tensor(q), ag.as_tensor(k), ag.as_tensor(v)
    L, D = q.shape
    P = past + L
    if k.shape != (P, D) or v.shape != (P, D):
        raise ag.ShapeError(f"multi_head_attention: k and v must be [past + L, D]={P, D}, "
                            f"got {k.shape} and {v.shape}")
    if D % n_heads:
        raise ag.ShapeError(f"multi_head_attention: D={D} is not divisible by {n_heads} heads")
    dh = D // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(a):      # [n, D] -> [H, n, dh], a view
        return a.reshape(len(a), n_heads, dh).transpose(1, 0, 2)

    def merge(a):      # [H, n, dh] -> [n, D]
        return a.transpose(1, 0, 2).reshape(a.shape[1], D)

    qh, kh, vh = heads(q.data * scale), heads(k.data), heads(v.data)

    def weights(top=None, tot=None):
        """exp of the [H, L, P] scores less each row's max, and each row's
        max and sum of them (computed here unless given)."""
        p = np.matmul(qh, kh.transpose(0, 2, 1))
        p[:, :, past:] += causal_mask(L)
        if top is None:
            top = p.max(axis=-1, keepdims=True)
        p -= top
        np.exp(p, out=p)
        if tot is None:
            tot = p.sum(axis=-1, keepdims=True)
        return p, top, tot

    p, top, tot = weights()
    parents = (q, k, v)
    ctx = np.matmul(p, vh)
    ctx /= tot
    out = Tensor(merge(ctx), ag._track(*parents), parents)
    if not out.requires_grad:
        return out

    def _bw():
        p = weights(top, tot)[0]
        p /= tot
        g = heads(out.grad)
        if v.requires_grad:
            v.grad += merge(np.matmul(p.transpose(0, 2, 1), g))
        gs = np.matmul(g, vh.transpose(0, 2, 1))       # d(loss)/d(p)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p                                         # d(loss)/d(scores)
        if q.requires_grad:
            q.grad += merge(np.matmul(gs, kh)) * scale
        if k.requires_grad:
            k.grad += merge(np.matmul(qh.transpose(0, 2, 1), gs).transpose(0, 2, 1))
    out._backward = _bw
    return out


class KVCache:
    """Keys and values of the positions an AttentionBlock has seen: `k` and
    `v`, [P, d_model] each, are views of the filled part of one buffer that
    doubles when full, so an append copies only the new rows (and the held
    ones on a doubling)."""

    def __init__(self, d_model):
        self._buf = np.zeros((2, 0, d_model))       # keys, values
        self.k, self.v = self._buf

    def append(self, k, v):
        """Add [L, d_model] rows of keys and values after the held ones."""
        n, m = len(self.k), len(self.k) + len(k)
        if m > self._buf.shape[1]:
            buf = np.empty((2, max(m, 2 * self._buf.shape[1]), self._buf.shape[2]))
            buf[:, :n] = self._buf[:, :n]
            self._buf = buf
        self._buf[0, n:m] = k
        self._buf[1, n:m] = v
        self.k, self.v = self._buf[:, :m]


class AttentionBlock(Module):
    """Pre-norm multi-head causal self-attention plus a position-wise MLP."""

    def __init__(self, d_model, n_heads, ff_dim, rng):
        self.d_model = d_model
        self.n_heads = n_heads
        self.norm1 = Parameter(np.ones(d_model))
        self.W_q = Parameter(linear_init(rng, d_model, d_model))
        self.W_k = Parameter(linear_init(rng, d_model, d_model))
        self.W_v = Parameter(linear_init(rng, d_model, d_model))
        self.W_o = Parameter(linear_init(rng, d_model, d_model))
        self.norm2 = Parameter(np.ones(d_model))
        self.W_ff1 = Parameter(linear_init(rng, d_model, ff_dim))
        self.b_ff1 = Parameter(np.zeros(ff_dim))
        self.W_ff2 = Parameter(linear_init(rng, ff_dim, d_model))
        self.b_ff2 = Parameter(np.zeros(d_model))

    def empty_state(self):
        return KVCache(self.d_model)

    def __call__(self, x):
        return self.attend(x)

    def attend(self, x, cache=None, last=False):
        """The block on positions x that follow those in `cache`, whose keys
        and values they attend to as well; x's keys and values are appended
        to it. A cache is for streaming: with one, recording a graph raises
        GraphError. Without a cache, x are the only positions. With `last`,
        only x's last row runs past its key and value, and comes back alone."""
        a = rms_norm(x, self.norm1)
        k = ag.matmul(a, self.W_k)
        v = ag.matmul(a, self.W_v)
        if last:
            x, a = x[-1:], a[-1:]
        q = ag.matmul(a, self.W_q)
        if cache is not None:
            if ag._track(q, k, v):
                raise ag.GraphError("attend: a cache is for streaming under no_grad only")
            cache.append(k.data, v.data)
            k, v = Tensor(cache.k), Tensor(cache.v)
        ctx = multi_head_attention(q, k, v, self.n_heads, len(k) - len(q))
        x = ag.add(x, ag.matmul(ctx, self.W_o))
        f = rms_norm(x, self.norm2)
        ff = ag.add(ag.matmul(ag.silu(ag.add(ag.matmul(f, self.W_ff1), self.b_ff1)),
                              self.W_ff2), self.b_ff2)
        return ag.add(x, ff)


class MambaHawkesHybrid(MambaHawkes):
    """Same heads and objectives as the base model; only the encoder differs."""

    arch = "mhp-e"

    def _build_encoder(self, rng):
        super()._build_encoder(rng, self.cfg.mamba_layers)
        self.attn_layers = [AttentionBlock(self.cfg.d_model, self.cfg.n_heads,
                                           self.cfg.ff_dim, rng)
                            for _ in range(self.cfg.attn_blocks)]

    def _stack(self):
        return self.layers + self.attn_layers

    def _run_stack(self, x, delta, states, group):
        # attention runs on each sequence alone; a cache streams one sequence
        x = super()._run_stack(x, delta, states, group)
        parts = [x] if delta.shape[1] == 1 else group.split(x)
        for blk, cache in zip(self.attn_layers, states[len(self.layers):]):
            parts = [blk(part) if cache is None
                     else blk.attend(part, cache, blk is self.attn_layers[-1]) for part in parts]
        return parts[0] if len(parts) == 1 else ag.concat(parts)
