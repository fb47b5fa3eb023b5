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
from .autograd import Module, Parameter
from .model import MambaHawkes, MhpConfig
from .ssm import linear_init, rms_norm


@dataclass
class MhpEConfig(MhpConfig):
    """Hybrid settings; the SSM stage, mamba_layers deep in place of n_layers,
    only feeds the attention stack. ff_width of 0 means 4 * d_model."""

    mamba_layers: int = 2
    attn_blocks: int = 4
    n_heads: int = 4
    ff_width: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.n_layers != MhpConfig.n_layers:
            raise ValueError(f"config field n_layers is not used by arch mhp-e "
                             f"(got {self.n_layers}); set mamba_layers instead")
        if self.mamba_layers < 1:
            raise ValueError("mamba_layers must be >= 1")
        if self.attn_blocks < 0 or self.n_heads < 1 or self.ff_width < 0:
            raise ValueError("attn_blocks and ff_width must be >= 0 and n_heads >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}")

    @property
    def ff_dim(self):
        return self.ff_width if self.ff_width else 4 * self.d_model


def causal_mask(L, past=0):
    """Additive [L, past + L] mask for L new positions after `past` earlier
    ones: row i may see columns <= past + i (0), not later ones (-1e30)."""
    m = np.zeros((L, past + L))
    m[np.triu_indices(L, k=past + 1, m=past + L)] = -1e30
    return m


class KVCache:
    """Keys and values of the positions an AttentionBlock has seen, [P, d_model] each."""

    def __init__(self, d_model):
        self.k = np.zeros((0, d_model))
        self.v = np.zeros((0, d_model))


class AttentionBlock(Module):
    """Pre-norm multi-head causal self-attention plus a position-wise MLP."""

    def __init__(self, d_model, n_heads, ff_dim, rng):
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
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
        return self.attend(x, self.empty_state())

    def attend(self, x, cache):
        """The block on positions x that follow those in `cache`, whose keys
        and values they attend to as well; x's keys and values are appended."""
        L, past = x.shape[0], len(cache.k)
        a = rms_norm(x, self.norm1)
        q = ag.matmul(a, self.W_q)
        k = ag.matmul(a, self.W_k)
        v = ag.matmul(a, self.W_v)
        if past:
            k = ag.concat([cache.k, k], axis=0)
            v = ag.concat([cache.v, v], axis=0)
        cache.k, cache.v = k.data, v.data
        mask = causal_mask(L, past)
        scale = 1.0 / np.sqrt(self.d_head)
        ctx = []
        for h in range(self.n_heads):
            cols = slice(h * self.d_head, (h + 1) * self.d_head)
            scores = ag.mul(ag.matmul(q[:, cols], ag.transpose(k[:, cols])), scale)
            attn = ag.softmax(ag.add(scores, mask), axis=1)
            ctx.append(ag.matmul(attn, v[:, cols]))
        merged = ctx[0] if self.n_heads == 1 else ag.concat(ctx, axis=1)
        x = ag.add(x, ag.matmul(merged, self.W_o))
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

    def _run_stack(self, x, delta, states=None):
        states = [None] * len(self._stack()) if states is None else states
        x = super()._run_stack(x, delta, states)
        for blk, cache in zip(self.attn_layers, states[len(self.layers):]):
            x = blk(x) if cache is None else blk.attend(x, cache)
        return x
