"""Selective state-space layer driven by inter-event time gaps.

The continuous system h' = a*h + b*x is discretized per step with a zero-order
hold whose step size is the (transformed) gap between consecutive events, so
the recurrence decays hidden state by exactly exp(gap * a) between events.
The state matrix is diagonal: one independent N-vector of decay rates per
channel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Module, Parameter, Tensor


def rms_norm(x, scale, eps=1e-5, pullback=False):
    """Root-mean-square normalization over the last axis, learned scale only:
    xn * scale with xn = x / r, r = sqrt(mean(x^2) + eps), the mean taken as
    the sum over the axis divided by its length (np.mean's add-reduce and
    true divide, without its wrapper).

    Returns (out, back), back None unless `pullback`: back(g) returns the
    gradients of x and scale.
    """
    D = x.shape[-1]
    r = np.sqrt((x * x).sum(axis=-1, keepdims=True) / D + eps)
    xn = x / r
    out = xn * scale
    if not pullback:
        return out, None

    def back(g):        # (gs - xn * mean(gs * xn)) / r with gs = g * scale
        gs = g * scale
        gs -= xn * ((gs * xn).sum(axis=-1, keepdims=True) / D)
        return np.divide(gs, r, out=gs), ag._sum_to(g * xn, scale.shape)
    return out, back


def linear_init(rng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


# Elements of each array of a scan's chunk, [C, (B,) D, N]: the default
# config's chunk of one sequence, 16 steps of 128 x 16, so a chunk of B
# sequences is _CHUNK_ELEMS // (B D N) steps. Backward keeps one state per
# chunk and recomputes the chunk's steps from it. For one default mhp
# sequence of L 90 through forward and backward, the traced peak was 8.4 MiB
# at 4 steps, 8.3 at 8, 9.0 at 16, 11.1 at 32 and 12.6 at 64, and the step
# took 53, 49, 47, 57 and 65 ms (medians): 8 and 16 run about as fast, and
# 16 keeps half the states. Scoring sorted groups of B sequences in chunks
# of C steps ran 2.3x as fast as one sequence at a time at the desk config
# for B x C = 8 x 8 and 16 x 4, but 1.75x for 32 x 16; at the default
# config, 2 x 8 ran 1.17x, 4 x 16 0.94x.
_CHUNK_ELEMS = 16 * 128 * 16


def batch_groups(lengths, d_inner, d_state):
    """Positions 0..n-1 of `lengths`, sorted by length (ties in order) and
    cut into groups for scans that step a group's sequences at once.

    A group takes the next sequence while it holds fewer than
    _CHUNK_ELEMS // (8 d_inner d_state) sequences, so that its scan chunks
    have 8 steps or more (8 sequences at the desk config, 2 at the default),
    and while its padded rows, times d_inner, stay within _CHUNK_ELEMS, so
    that a long sequence runs alone.
    """
    most = _CHUNK_ELEMS // (8 * d_inner * d_state)
    groups = []
    for i in sorted(range(len(lengths)), key=lambda i: lengths[i]):
        if groups and len(groups[-1]) < most and \
                (len(groups[-1]) + 1) * lengths[i] * d_inner <= _CHUNK_ELEMS:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


# |delta * a| below which the rate gradient takes (delta - q) / a from its
# series -delta^2 (1/2 + u/6 + u^2/24), where the closed form cancels
_SERIES_CUTOFF = 1e-4

# Each element u = delta * a <= -_EXP_CUTOFF takes e^u - 1 as exp(u) - 1
# (numpy's exp is SIMD, expm1 is not). exp's error e gives e^u - 1 an error of
# e * e^u / (1 - e^u), at most 1.55 e at u = -0.5 and less below, and the
# subtraction adds nothing for e^u >= 1/2 (Sterbenz) and half an ulp below.
# Nearer 0 that factor grows as 1 / |u|, so each element above keeps expm1.
_EXP_CUTOFF = 0.5


def _scan_chunk(dv, av, inv_a, zero, near, bv, xv, z0, bufs):
    """Discretize steps [n, ...] of the scan and run them from the state z0
    before them (zeros when None), in the first n rows of the [C, ..., D, N]
    buffers bufs[:4] (bx may share the states' buffer; bufs[4] is a
    [..., D, N] scratch). Returns abar = e^u, q = (e^u - 1) / a = delta *
    (e^u - 1) / u (so bbar = q * b; delta where the mask `zero` marks rates
    with no finite 1 / a), bx = x (outer) b and the states z, with u = delta
    * a; if `near`, e^u - 1 is expm1(u) at each u > -_EXP_CUTOFF.
    """
    abar, q, bx, zs = (buf[:len(dv)] for buf in bufs[:4])
    # einsum writes these outer products in about 0.6 of a broadcast's time
    u = np.einsum("...,dn->...dn", dv, av, out=q)
    if near:
        close = u > -_EXP_CUTOFF
        em = np.expm1(u[close])     # before q, which holds u, is overwritten
    np.subtract(np.exp(u, out=abar), 1.0, out=q)
    if near:
        q[close], abar[close] = em, em + 1.0
    q *= inv_a
    if zero is not None:
        np.copyto(q, dv[..., None, None], where=zero)
    np.einsum("...d,...n->...dn", xv, bv, out=bx)
    np.multiply(bx, q, out=zs)
    if z0 is not None:
        zs[0] += np.multiply(abar[0], z0, out=bufs[4])
    for i in range(1, len(zs)):
        zs[i] += np.multiply(abar[i], zs[i - 1], out=bufs[4])
    return abar, q, bx, zs


def selective_scan(x, a, b, c, skip, delta, state=None, pullback=False):
    """Run the time-variant recurrence z_i = abar_i * z_{i-1} + bbar_i * x_i.

    Args:
        x: [L, D] input stream, or [L, B, D] for B sequences at once,
            time-major (the batch axis; see below).
        a: [D, N] diagonal decay rates (negative for stability).
        b: [L, N] per-step input projections ([L, B, N]).
        c: [L, N] per-step output projections ([L, B, N]).
        skip: [D] direct feedthrough added as skip * x, or None.
        delta: [L] strictly positive step sizes, shared across channels
            ([L, B] with a batch axis). They are data: no gradient reaches
            them.
        state: optional [D, N] array ([B, D, N]), the state z_0 before the
            first step (zeros when None). It is overwritten with the state
            after the last step, so that a call on the next stretch of the
            sequence carries on from it. It is for streaming only: passing
            one with a pullback raises GraphError, since no gradient
            reaches it.
        pullback: whether to return the pullback (below).

    Returns:
        (y, back): the [L, D] outputs y_i = c_i . z_i (+ skip * x_i)
        ([L, B, D]), and back None unless `pullback`: back(gy) returns the
        gradients of x, a, b, c and skip (None without skip).

    The batch axis runs each sequence from its own state, elementwise in B:
    a shorter one is padded at its end, and padded steps never reach
    earlier ones. The gradients of a and skip sum over it.

    The steps run in chunks of C = _CHUNK_ELEMS // (B D N) steps (B = 1
    without a batch axis), each carrying its last state into the next, in
    buffers allocated once per call; the chunk length changes no output.
    For backward it keeps only the state after each chunk but the last,
    [ceil(L / C) - 1, B, D, N]. The adjoint walks the chunks from last to
    first: it recomputes the chunk's abar, q and states from the state
    before it, by the forward's ops in the same order, and runs the adjoint
    recurrence G_i = c_i * gy_i + abar_{i+1} * G_{i+1} over the chunk, where
    G_i is the gradient reaching state z_i and the chunk after hands back
    abar_{i+1} * G_{i+1} for its last step. So delta and a must not change
    between forward and backward. Without a pullback it keeps nothing.
    """
    if x.ndim not in (2, 3):
        raise ag.ShapeError(f"selective_scan: x must be [L, D] or [L, B, D], got {x.shape}")
    steps, D = x.shape[:-1], x.shape[-1]
    L = steps[0]
    if a.ndim != 2 or a.shape[0] != D:
        raise ag.ShapeError(f"selective_scan: a must be [D, N] with D={D}, got {a.shape}")
    N = a.shape[1]
    if L < 1:
        raise ag.ShapeError(f"selective_scan: empty input {x.shape}")
    if delta.shape != steps:
        raise ag.ShapeError(
            f"selective_scan: length mismatch between x {x.shape} and delta {delta.shape}"
        )
    if b.shape != steps + (N,) or c.shape != steps + (N,):
        raise ag.ShapeError(
            f"selective_scan: b/c must be {steps + (N,)}, got {b.shape} and {c.shape}"
        )
    if not np.all(delta > 0.0):
        raise ag.DomainError(
            f"selective_scan: non-positive step size (min={float(delta.min())})"
        )
    state_shape = steps[1:] + (D, N)
    if state is not None and state.shape != state_shape:
        raise ag.ShapeError(f"selective_scan: state must be {state_shape}, got {state.shape}")
    if state is not None and pullback:
        raise ag.GraphError("selective_scan: a carried state is for streaming under no_grad only")

    # 1 / a where it is finite; zero rates (and subnormal ones) take q = delta
    amin, tiny = float(np.abs(a).min()), np.finfo(np.float64).tiny
    zero = np.abs(a) < tiny if amin < tiny else None
    inv_a = 1.0 / a if zero is None else np.divide(1.0, a, out=np.zeros_like(a), where=~zero)
    C = min(L, max(1, _CHUNK_ELEMS // math.prod(state_shape)))
    chunks = [slice(lo, lo + C) for lo in range(0, L, C)]
    # whether any element may keep expm1; -max(a) is min|a| if all a < 0
    dmin, decay = float(delta.min()), -float(a.max())
    near = dmin * decay < _EXP_CUTOFF
    ends = np.empty((len(chunks) - 1,) + state_shape) if pullback else None
    abar_b, q_b, zs_b = (np.empty((C,) + state_shape) for _ in range(3))
    tmp, last = np.empty(state_shape), np.empty(state_shape)
    y = np.empty(x.shape)
    z = state
    for j, s in enumerate(chunks):
        zs = _scan_chunk(delta[s], a, inv_a, zero, near, b[s], x[s], z,
                         (abar_b, q_b, zs_b, zs_b, tmp))[3]
        np.matmul(zs, c[s][..., None], out=y[s][..., None])
        z = ends[j] if pullback and j < len(ends) else last   # a copy: zs_b is reused
        z[...] = zs[-1]
    if state is not None:
        state[...] = z
    if skip is not None:
        y += skip * x
    if not pullback:
        return y, None
    series = dmin * amin < _SERIES_CUTOFF

    def back(gy):
        gx, ga, gb, gc = np.zeros(x.shape), np.zeros(a.shape), np.zeros(b.shape), np.zeros(c.shape)
        abar_b, q_b, bx_b, zs_b, g_b = (np.empty((C,) + state_shape) for _ in range(5))
        # abar_i * G_i of the first step of the chunk after, and a scratch
        carry, tmp = np.empty(state_shape), np.empty(state_shape)
        for j in range(len(chunks) - 1, -1, -1):
            s = chunks[j]
            abar, q, bx, zs = _scan_chunk(delta[s], a, inv_a, zero, near, b[s], x[s],
                                          ends[j - 1] if j else None,
                                          (abar_b, q_b, bx_b, zs_b, tmp))
            # adjoint recurrence: G[i] is d(loss)/d(z_i)
            G = np.einsum("...d,...n->...dn", gy[s], c[s], out=g_b[:len(q)])
            if j < len(chunks) - 1:
                G[-1] += carry
            for i in range(len(G) - 2, -1, -1):
                G[i] += np.multiply(abar[i + 1], G[i + 1], out=tmp)
            np.multiply(abar[0], G[0], out=carry)
            gc[s] += np.matmul(gy[s][..., None, :], zs)[..., 0, :]
            h = np.multiply(G, q, out=abar)     # d(loss)/d(bx), in spent abar
            gx[s] += np.matmul(h, b[s][..., None])[..., 0]
            gb[s] += np.matmul(x[s][..., None, :], h)[..., 0, :]
            # sum over steps (and sequences) of G_i * bx_i * (delta_i - q_i)
            # / a, then the decay's part G_i * delta_i * z_i
            d = delta[s][..., None, None]
            w = np.subtract(d, q, out=q)
            if series:
                u = d * a
                small = np.abs(u) < _SERIES_CUTOFF
                ds, us = np.broadcast_to(d, u.shape)[small], u[small]
                w *= inv_a
                w[small] = -ds * ds * (0.5 + us / 6.0 + us * us / 24.0)
            w *= bx
            w *= G
            gs = w.reshape(-1, D, N).sum(axis=0)
            if not series:
                gs *= inv_a
            gs += np.tensordot(delta[s], np.multiply(zs, G, out=zs), axes=delta.ndim)
            ga += gs
        if skip is None:
            return gx, ga, gb, gc, None
        gx += skip * gy
        return gx, ga, gb, gc, ag._sum_to(gy * x, skip.shape)
    return y, back


class SsmCore(Module):
    """Learnable pieces of the scan: decay rates, B/C projections, feedthrough,
    which `mamba_block` reads.

    The decay matrix is stored as A_log with a = -exp(A_log), so every rate is
    strictly negative and abar = exp(delta * a) stays inside (0, 1) for any
    positive step.
    """

    def __init__(self, d_inner, d_state, rng):
        self.d_inner = d_inner
        self.d_state = d_state
        # one decaying mode per (channel, state) pair, rates 1..N per channel
        a_init = np.tile(np.arange(1, d_state + 1, dtype=np.float64), (d_inner, 1))
        self.A_log = Parameter(np.log(a_init))
        self.W_B = Parameter(linear_init(rng, d_inner, d_state))
        self.W_C = Parameter(linear_init(rng, d_inner, d_state))
        self.D = Parameter(np.ones(d_inner))


class MambaState(NamedTuple):
    """What a MambaBlock carries between calls on consecutive stretches of a
    sequence; both arrays are updated in place."""

    conv: np.ndarray    # [d_conv - 1, 1, d_inner] last inputs of the causal conv
    z: np.ndarray       # [1, d_inner, d_state] scan state after the last event


def mamba_block(u, scale, in_proj, kernel, bias, a_log, w_b, w_c, skip, out_proj, delta,
                state=None, pullback=False):
    """MambaBlock's forward on arrays: u, the block's parameters in the
    order of its `parameters()`, and the steps delta.

    norm -> in-proj -> causal conv -> SiLU -> scan -> gate -> out-proj, plus
    the residual u, by the ops and in the order of the composition of
    generic nodes that this replaced, so every value has its bits. With a
    `MambaState` the conv and the scan carry on from it (streaming).

    Returns (out, back), back None unless `pullback`: back(g) returns the
    gradients of u and of each parameter, in order, through the adjoints of
    rms_norm, causal_conv1d and selective_scan.
    """
    conv_left, z0 = (None, None) if state is None else state
    d_inner = kernel.shape[1]
    xn, norm_back = rms_norm(u, scale, pullback=pullback)
    xz = ag._linear(xn, in_proj)
    x, z = xz[..., :d_inner], xz[..., d_inner:]
    xc, conv_back = ag.causal_conv1d(x, kernel, bias, conv_left, pullback=pullback)
    sc = ag._sigmoid(xc)
    xs = xc * sc
    ea = np.exp(a_log)                  # a = -exp(A_log)
    b, c = ag._linear(xs, w_b), ag._linear(xs, w_c)
    y, scan_back = selective_scan(xs, -ea, b, c, skip, delta, z0, pullback=pullback)
    sz = ag._sigmoid(z)
    gate = z * sz
    yg = y * gate
    out = ag._linear(yg, out_proj) + u
    if not pullback:
        return out, None

    def back(g):        # each [L, B, .] gradient is dropped once it is spent
        gyg, g_out = ag._linear_back(g, yg, out_proj)
        gz = ag._silu_grad(gyg * y, z, sz)
        gxs, ga, gb, gc, g_skip = scan_back(np.multiply(gyg, gate, out=gyg))
        del gyg
        gx, g_wb = ag._linear_back(gb, xs, w_b)
        gxs += gx
        gx, g_wc = ag._linear_back(gc, xs, w_c)
        gxs += gx
        del gx
        gx, g_kernel, g_bias = conv_back(ag._silu_grad(gxs, xc, sc))
        del gxs
        gxn, g_in = ag._linear_back(np.concatenate([gx, gz], axis=-1), xn, in_proj)
        del gx, gz
        gu, g_scale = norm_back(gxn)
        gu += g
        return gu, g_scale, g_in, g_kernel, g_bias, -ga * ea, g_wb, g_wc, g_skip, g_out
    return out, back


class MambaBlock(Module):
    """Pre-norm gated block: in-proj -> causal conv -> SiLU -> scan -> gate -> out-proj.

    The step sizes come from event time gaps and are shared by every channel;
    they are computed before the convolution, so the conv mixes channel
    streams over positions but never the gaps themselves.

    u is time-major, [L, B, d_model] for B sequences with steps delta
    [L, B] (B = 1 for one sequence): u[i, j] is event i of sequence j. The
    conv and the scan step the sequences at once (their batch axis); every
    other op is row-wise.
    """

    def __init__(self, d_model, d_state, d_conv, expand, rng):
        self.d_model = d_model
        self.d_inner = expand * d_model
        self.d_conv = d_conv
        self.norm_scale = Parameter(np.ones(d_model))
        self.in_proj = Parameter(linear_init(rng, d_model, 2 * self.d_inner))
        bound = 1.0 / np.sqrt(d_conv)
        self.conv_kernel = Parameter(rng.uniform(-bound, bound, size=(d_conv, self.d_inner)))
        self.conv_bias = Parameter(np.zeros(self.d_inner))
        self.ssm = SsmCore(self.d_inner, d_state, rng)
        self.out_proj = Parameter(linear_init(rng, self.d_inner, d_model))

    def empty_state(self):
        return MambaState(np.zeros((self.d_conv - 1, 1, self.d_inner)),
                          np.zeros((1, self.d_inner, self.ssm.d_state)))

    def __call__(self, u, delta, state=None):
        """The block on u, a Tensor, as one graph node (`mamba_block`); delta
        is an array. Given a `MambaState` it streams instead: it carries on
        from the events that state holds (the conv reads their last inputs,
        the scan starts from their final state) and updates it to include
        u; u is then an array, and so is the result, and no Tensor is built.
        """
        if state is None:
            return ag.lift(mamba_block, (u, *self.parameters()), delta)
        if isinstance(u, Tensor):
            raise ag.GraphError("MambaBlock: a state is for streaming, on arrays, not on a Tensor")
        return mamba_block(u, *(p.data for p in self.parameters()), delta, state)[0]
