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
from .autograd import Parameter
from .model import MambaHawkes, MhpConfig
from .ssm import MambaBlock, linear_init, rms_norm


@dataclass
class MhpEConfig(MhpConfig):
    """Hybrid settings; the SSM stage is shallower since it only feeds the
    attention stack. ff_width of 0 means 4 * d_model."""

    mamba_layers: int = 2
    attn_blocks: int = 4
    n_heads: int = 4
    ff_width: int = 0

    def __post_init__(self):
        super().__post_init__()
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


def causal_mask(L):
    """Additive mask: 0 on and below the diagonal, -1e30 strictly above."""
    m = np.zeros((L, L))
    m[np.triu_indices(L, k=1)] = -1e30
    return m


class AttentionBlock:
    """Pre-norm multi-head causal self-attention plus a position-wise MLP."""

    def __init__(self, d_model, n_heads, ff_dim, rng):
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.norm1 = Parameter(np.ones(d_model), "norm1")
        self.W_q = Parameter(linear_init(rng, d_model, d_model), "W_q")
        self.W_k = Parameter(linear_init(rng, d_model, d_model), "W_k")
        self.W_v = Parameter(linear_init(rng, d_model, d_model), "W_v")
        self.W_o = Parameter(linear_init(rng, d_model, d_model), "W_o")
        self.norm2 = Parameter(np.ones(d_model), "norm2")
        self.W_ff1 = Parameter(linear_init(rng, d_model, ff_dim), "W_ff1")
        self.b_ff1 = Parameter(np.zeros(ff_dim), "b_ff1")
        self.W_ff2 = Parameter(linear_init(rng, ff_dim, d_model), "W_ff2")
        self.b_ff2 = Parameter(np.zeros(d_model), "b_ff2")

    def named_parameters(self, prefix=""):
        names = ("norm1", "W_q", "W_k", "W_v", "W_o",
                 "norm2", "W_ff1", "b_ff1", "W_ff2", "b_ff2")
        return [(prefix + n, getattr(self, n)) for n in names]

    def __call__(self, x):
        L = x.shape[0]
        a = rms_norm(x, self.norm1)
        q = ag.matmul(a, self.W_q)
        k = ag.matmul(a, self.W_k)
        v = ag.matmul(a, self.W_v)
        mask = causal_mask(L)
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
        blocks = [MambaBlock(self.cfg.d_model, self.cfg.d_state, self.cfg.d_conv,
                             self.cfg.expand, rng)
                  for _ in range(self.cfg.mamba_layers)]
        self.attn_layers = [AttentionBlock(self.cfg.d_model, self.cfg.n_heads,
                                           self.cfg.ff_dim, rng)
                            for _ in range(self.cfg.attn_blocks)]
        return blocks

    def _encoder_parameters(self):
        out = super()._encoder_parameters()
        for i, blk in enumerate(self.attn_layers):
            out += blk.named_parameters(f"attn_layers.{i}.")
        return out

    def _run_stack(self, x, delta):
        for blk in self.layers:
            x = blk(x, delta)
        for blk in self.attn_layers:
            x = blk(x)
        return x
