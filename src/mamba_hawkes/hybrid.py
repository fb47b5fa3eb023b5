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


def multi_head_attention(q, k, v, n_heads, past=0, mask=None, pullback=False):
    """Causal softmax attention of all n_heads heads at once.

    q is [L, D], the queries of L new positions; k and v are [past + L, D],
    the keys and values of `past` earlier positions and then the new ones.
    Every query sees all earlier positions and the new ones up to its own.
    `mask` is a `causal_mask` of at least L rows, whose first [L, L] block
    is read (one is built when None). Head h uses columns h*D/H..(h+1)*D/H,
    and the [L, D] result holds each head's softmax(q_h k_h^T / sqrt(D/H))
    v_h in its columns. The heads run as batched matmuls on [H, ., D/H]
    views. The scale goes on q, and the row sums divide the [H, L, D/H]
    product with v, not the weights.

    Returns (out, back), back None unless `pullback`: back(g) returns the
    gradients of q, k and v by the softmax-attention adjoint on the same
    arrays. For backward it keeps only each row's softmax max and sum,
    [H, L, 1] each, and recomputes the [H, L, past + L] weights from q, k
    and them by the forward's ops in the same order, with a mask of its own,
    so it keeps no [L, L] array.
    """
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

    qh, kh, vh = heads(q * scale), heads(k), heads(v)

    def weights(m, top=None, tot=None):
        """exp of the [H, L, P] scores, masked by the [L, L] m, less each
        row's max, and each row's max and sum of them (computed here unless
        given)."""
        p = np.matmul(qh, kh.transpose(0, 2, 1))
        p[:, :, past:] += m
        if top is None:
            top = p.max(axis=-1, keepdims=True)
        p -= top
        np.exp(p, out=p)
        if tot is None:
            tot = p.sum(axis=-1, keepdims=True)
        return p, top, tot

    p, top, tot = weights(causal_mask(L) if mask is None else mask[:L, :L])
    ctx = np.matmul(p, vh)
    ctx /= tot
    if not pullback:
        return merge(ctx), None

    def back(g):
        p = weights(causal_mask(L), top, tot)[0]
        p /= tot
        g = heads(g)
        gv = merge(np.matmul(p.transpose(0, 2, 1), g))
        gs = np.matmul(g, vh.transpose(0, 2, 1))       # d(loss)/d(p)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p                                         # d(loss)/d(scores)
        return (merge(np.matmul(gs, kh)) * scale,
                merge(np.matmul(qh.transpose(0, 2, 1), gs).transpose(0, 2, 1)), gv)
    return merge(ctx), back


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


def attention_block(x, norm1, w_q, w_k, w_v, w_o, norm2, w_ff1, b_ff1, w_ff2, b_ff2, n_heads,
                    cache=None, last=False, mask=None, pullback=False):
    """AttentionBlock's forward on arrays: positions x [L, d_model] and the
    block's parameters, in the order of its `parameters()`.

    norm -> q, k, v -> attention -> W_o, plus x; then norm -> MLP, plus
    that, by the ops and in the order of the composition of generic nodes
    that this replaced, so every value has its bits. `cache`, `last` and
    `mask` are those of `AttentionBlock.attend`.

    Returns (out, back), back None unless `pullback` (which takes neither a
    cache nor `last`): back(g) returns the gradients of x and of each
    parameter, in order, through the adjoints of rms_norm and
    multi_head_attention.
    """
    a, norm1_back = rms_norm(x, norm1, pullback=pullback)
    k, v = a @ w_k, a @ w_v
    if last:
        x, a = x[-1:], a[-1:]
    q = a @ w_q
    if cache is not None:
        cache.append(k, v)
        k, v = cache.k, cache.v
    ctx, attn_back = multi_head_attention(q, k, v, n_heads, len(k) - len(q), mask, pullback)
    x1 = x + ctx @ w_o
    f, norm2_back = rms_norm(x1, norm2, pullback=pullback)
    pre = f @ w_ff1 + b_ff1
    s = ag._sigmoid(pre)
    h = pre * s
    out = x1 + (h @ w_ff2 + b_ff2)
    if not pullback:
        return out, None

    def back(g):
        gh, g_ff2 = ag._linear_back(g, h, w_ff2)
        gpre = ag._silu_grad(gh, pre, s)
        gf, g_ff1 = ag._linear_back(gpre, f, w_ff1)
        gx1, g_norm2 = norm2_back(gf)
        gx1 += g
        gctx, g_o = ag._linear_back(gx1, ctx, w_o)
        gq, gk, gv = attn_back(gctx)
        ga, g_q = ag._linear_back(gq, a, w_q)
        gak, g_k = ag._linear_back(gk, a, w_k)
        gav, g_v = ag._linear_back(gv, a, w_v)
        ga += gak
        ga += gav
        gx, g_norm1 = norm1_back(ga)
        gx += gx1
        return (gx, g_norm1, g_q, g_k, g_v, g_o, g_norm2, g_ff1, gpre.sum(axis=0), g_ff2,
                g.sum(axis=0))
    return out, back


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
        """The block on positions x, a Tensor, as one graph node
        (`attention_block`)."""
        return ag.lift(attention_block, (x, *self.parameters()), self.n_heads)

    def attend(self, x, cache, last=False, mask=None):
        """The block on positions x, an array, that follow those in `cache`,
        whose keys and values they attend to as well; x's keys and values
        are appended to it (streaming). It returns an array and builds no
        Tensor; a Tensor x is refused, before it appends. With `last`, only
        x's last row runs past its key and value, and comes back alone.
        `mask` is a `causal_mask` of at least len(x) rows, which one pass
        builds once for all its blocks."""
        if isinstance(x, Tensor):
            raise ag.GraphError("attend: a cache is for streaming, on arrays, not on a Tensor")
        return attention_block(x, *(p.data for p in self.parameters()), self.n_heads,
                               cache, last, mask)[0]


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
        if states is not None:
            mask = causal_mask(len(x))
            for blk, cache in zip(self.attn_layers, states[len(self.layers):]):
                x = blk.attend(x, cache, blk is self.attn_layers[-1], mask)
            return x
        parts = [x] if delta.shape[1] == 1 else group.split(x)
        for blk in self.attn_layers:
            parts = [blk(part) for part in parts]
        return parts[0] if len(parts) == 1 else ag.concat(parts)
