"""Selective state-space layer driven by inter-event time gaps.

The continuous system h' = a*h + b*x is discretized per step with a zero-order
hold whose step size is the (transformed) gap between consecutive events, so
the recurrence decays hidden state by exactly exp(gap * a) between events.
The state matrix is diagonal: one independent N-vector of decay rates per
channel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Module, Parameter, Tensor


def rms_norm(x, scale, eps=1e-5):
    """Root-mean-square normalization over the last axis, learned scale only."""
    ms = ag.reduce_mean(ag.mul(x, x), axis=-1, keepdims=True)
    return ag.mul(ag.div(x, ag.sqrt(ag.add(ms, eps))), scale)


def linear_init(rng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def selective_scan(x, delta, a, b, c, skip=None, state=None):
    """Run the time-variant recurrence z_i = abar_i * z_{i-1} + bbar_i * x_i.

    Args:
        x: [L, D] input stream.
        delta: [L] strictly positive step sizes, shared across channels.
        a: [D, N] diagonal decay rates (negative for stability).
        b: [L, N] per-step input projections.
        c: [L, N] per-step output projections.
        skip: optional [D] direct feedthrough added as skip * x.
        state: optional [D, N] array, the state z_0 before the first step
            (zeros when None). It is overwritten with the state after the
            last step, so that a call on the next stretch of the sequence
            carries on from it. It is for streaming only: passing one while
            the node records a graph raises GraphError.

    Returns:
        [L, D] outputs y_i = c_i . z_i (+ skip * x_i), differentiable in
        x, a, b, c and skip. The step sizes are data: a delta that requires
        grad raises GraphError.

    The whole scan is one graph node. Its backward is the adjoint
    recurrence G_i = c_i * gy_i + abar_{i+1} * G_{i+1}, where G_i is the
    gradient reaching state z_i. For it the node keeps four [L, D, N]
    arrays: abar, the zero-order-hold factor phi and its derivative, and
    the states zs. Under no_grad it keeps none of them.
    """
    x, delta = ag.as_tensor(x), ag.as_tensor(delta)
    a, b, c = ag.as_tensor(a), ag.as_tensor(b), ag.as_tensor(c)
    if x.ndim != 2:
        raise ag.ShapeError(f"selective_scan: x must be [L, D], got {x.shape}")
    L, D = x.shape
    if a.ndim != 2 or a.shape[0] != D:
        raise ag.ShapeError(f"selective_scan: a must be [D, N] with D={D}, got {a.shape}")
    N = a.shape[1]
    if L < 1:
        raise ag.ShapeError(f"selective_scan: empty input {x.shape}")
    if delta.shape != (L,):
        raise ag.ShapeError(
            f"selective_scan: length mismatch between x {x.shape} and delta {delta.shape}"
        )
    if b.shape != (L, N) or c.shape != (L, N):
        raise ag.ShapeError(
            f"selective_scan: b/c must be [L, N]={L, N}, got {b.shape} and {c.shape}"
        )
    if np.any(delta.data <= 0.0):
        raise ag.DomainError(
            f"selective_scan: non-positive step size (min={delta.data.min()!r})"
        )
    if state is not None and state.shape != (D, N):
        raise ag.ShapeError(f"selective_scan: state must be [D, N]={D, N}, got {state.shape}")
    if skip is not None:
        skip = ag.as_tensor(skip)
    if ag._track(delta):
        raise ag.GraphError("selective_scan: step sizes are data; delta must not require grad")
    parents = (x, a, b, c) + (() if skip is None else (skip,))
    track = ag._track(*parents)
    if track and state is not None:
        raise ag.GraphError("selective_scan: a carried state is for streaming under no_grad only")

    # Discretize every step at once: abar = exp(u), bbar = delta * phi(u) * b
    # with u = delta * a and phi(u) = (e^u - 1) / u.
    xv, dv, av, bv, cv = x.data, delta.data, a.data, b.data, c.data
    d3 = dv[:, None, None]
    u = d3 * av                                         # [L, D, N]
    abar = np.exp(u)
    phi, slope = ag.expm1_over_x_parts(u, abar if track else None)
    # bbar_i * x_i, written over u (over phi when no backward needs phi), then
    # the recurrence in place: zs[i] becomes z_i
    zs = np.multiply(phi, d3, out=u if track else phi)
    del u
    zs *= bv[:, None, :]
    zs *= xv[:, :, None]
    if state is not None:
        zs[0] += abar[0] * state
    for i in range(1, L):
        zs[i] += abar[i] * zs[i - 1]
    if state is not None:
        state[...] = zs[-1]
    y = np.matmul(zs, cv[:, :, None])[:, :, 0]
    if skip is not None:
        y = y + skip.data * xv
    out = Tensor(y, track, parents)
    if not track:
        return out

    def _bw():
        gy = out.grad
        # adjoint recurrence, run in place: G[i] is d(loss)/d(z_i)
        G = gy[:, :, None] * cv[:, None, :]
        for i in range(L - 2, -1, -1):
            G[i] += abar[i + 1] * G[i + 1]
        if c.requires_grad:
            c.grad += np.matmul(gy[:, None, :], zs)[:, 0, :]
        work = G * phi
        if x.requires_grad:
            x.grad += dv[:, None] * np.matmul(work, bv[:, :, None])[:, :, 0]
        if b.requires_grad:
            b.grad += dv[:, None] * np.matmul(xv[:, None, :], work)[:, 0, :]
        if a.requires_grad:
            # d(loss)/du through bbar = delta * phi(u) * b and through abar = exp(u),
            # built in the spent buffers work and G
            du = np.multiply(slope, d3, out=work)
            du *= bv[:, None, :]
            du *= xv[:, :, None]
            du *= G
            G[1:] *= abar[1:]
            G[1:] *= zs[:-1]
            du[1:] += G[1:]
            a.grad += np.tensordot(dv, du, axes=1)
        if skip is not None:
            if x.requires_grad:
                x.grad += skip.data * gy
            if skip.requires_grad:
                skip.grad += ag._sum_to(gy * xv, skip.shape)
    out._backward = _bw
    return out


class SsmCore(Module):
    """Learnable pieces of the scan: decay rates, B/C projections, feedthrough.

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

    def __call__(self, x, delta, state=None):
        a = ag.neg(ag.exp(self.A_log))
        b = ag.matmul(x, self.W_B)
        c = ag.matmul(x, self.W_C)
        return selective_scan(x, delta, a, b, c, skip=self.D, state=state)


class MambaState(NamedTuple):
    """What a MambaBlock carries between calls on consecutive stretches of a
    sequence; both arrays are updated in place."""

    conv: np.ndarray    # [d_conv - 1, d_inner] last inputs of the causal conv
    z: np.ndarray       # [d_inner, d_state] scan state after the last event


class MambaBlock(Module):
    """Pre-norm gated block: in-proj -> causal conv -> SiLU -> scan -> gate -> out-proj.

    The step sizes come from event time gaps and are shared by every channel;
    they are computed before the convolution, so the conv mixes channel
    streams over positions but never the gaps themselves.

    Called with a `MambaState`, the block carries on from the events that
    state holds: the conv reads their last inputs and the scan starts from
    their final state, and both are updated to include u.
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
        return MambaState(np.zeros((self.d_conv - 1, self.d_inner)),
                          np.zeros((self.d_inner, self.ssm.d_state)))

    def __call__(self, u, delta, state=None):
        conv_left, z0 = (None, None) if state is None else state
        xn = rms_norm(u, self.norm_scale)
        xz = ag.matmul(xn, self.in_proj)
        x = xz[:, :self.d_inner]
        z = xz[:, self.d_inner:]
        x = ag.causal_conv1d(x, self.conv_kernel, self.conv_bias, left=conv_left)
        x = ag.silu(x)
        y = self.ssm(x, delta, state=z0)
        y = ag.mul(y, ag.silu(z))
        return ag.add(ag.matmul(y, self.out_proj), u)
