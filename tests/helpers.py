"""Shared test utilities: finite-difference oracles, error metrics,
composed-op references for the fused selective scan, the fused multi-head
attention, the fused Mamba and attention blocks and the compensator, Adam's
step as it was before it updated in place, the compensator node with both of its
branches on every interval and on a general quadrature rule, the earlier
form of the log-likelihood (a one-hot event term), the closed-form gated
recurrence the scan reduces to, (e^x - 1) / x with its derivative (the
composed scan's discretization), a point intensity query, writers of the
version-1 and version-2 JSON checkpoints, a reader and a framer of the
checkpoint container, and `evaluate` one sequence at a time."""

import base64
import json
import pathlib
import struct

import numpy as np

from mamba_hawkes import autograd as ag
from mamba_hawkes.checkpoint import FORMAT, MAGIC
from mamba_hawkes.hybrid import causal_mask, multi_head_attention
from mamba_hawkes.model import _PI2_6, _SMALL_DU, _dilog_series
from mamba_hawkes.ssm import rms_norm, selective_scan
from mamba_hawkes.training import Metrics


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x (perturbs in place)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-12):
    """Norm-based relative error between two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return float(np.linalg.norm(a - b) / denom)


def fd_param_grads(make_loss, params, h=1e-5):
    """Backprop through make_loss() once, then finite-difference every param.

    Returns (analytic, fd, loss_value): two {"<position>:<shape>": gradient
    array} maps and the loss at the unperturbed point.
    """
    for p in params:
        p.zero_grad()
    loss = make_loss()
    loss_value = float(loss.data)
    ag.backward(loss)
    analytic, fd = {}, {}
    for i, p in enumerate(params):
        def f(arr, p=p):
            old = p.data
            p.data = arr
            try:
                with ag.no_grad():
                    return float(make_loss().data)
            finally:
                p.data = old
        name = f"{i}:{p.shape}"
        analytic[name] = p.grad.copy()
        fd[name] = numeric_grad(f, p.data.copy(), h=h)
    return analytic, fd, loss_value


def fd_noise_floor(loss_value, n_components, h):
    """Resolution limit of a central difference at step h: each loss
    evaluation carries ~eps*|loss| rounding, so the quotient is noisy at
    ~eps*|loss|/h per component (with safety factor)."""
    eps = np.finfo(np.float64).eps
    return 50.0 * eps * max(abs(loss_value), 1.0) / h * np.sqrt(n_components)


def check_param_grads(make_loss, params, h=1e-5):
    """Per-parameter noise-floored relative gradient error.

    For each tensor: max(0, ||a - fd|| - floor) / max(||a||, ||fd||, floor),
    where floor is the finite-difference resolution for this loss scale.
    Differences below what central differences can measure count as zero;
    genuine gradient bugs sit far above the floor and are reported at their
    ordinary relative size.
    """
    analytic, fd, loss_value = fd_param_grads(make_loss, params, h=h)
    errs = {}
    for name in analytic:
        a, f = analytic[name], fd[name]
        floor = fd_noise_floor(loss_value, a.size, h)
        diff = np.linalg.norm(a - f)
        errs[name] = max(0.0, diff - floor) / max(np.linalg.norm(a),
                                                  np.linalg.norm(f), floor)
    return errs


def global_grad_rel_err(analytic, fd):
    """Relative error of the full concatenated gradient vector."""
    a = np.concatenate([v.reshape(-1) for v in analytic.values()])
    f = np.concatenate([v.reshape(-1) for v in fd.values()])
    return rel_err(a, f)


def two_branch_sigmoid(x):
    """Logistic function with each tail computed on its own side of 0, so
    exp never sees a positive argument: the oracle for ag._sigmoid."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def expm1_over_x_parts(x, exp_x=None):
    """phi(x) = (exp(x) - 1) / x and, given exp_x = exp(x), its derivative.

    Plain numpy on arrays. Both switch to a Taylor series for |x| < 1e-4,
    where the closed forms cancel. phi'(x) = (exp(x) - phi(x)) / x; it is
    returned as None when exp_x is None.
    """
    phi = np.abs(x, out=np.empty_like(x))   # an array even when 0-d
    small = phi < 1e-4
    xs = x[small]
    safe = np.where(small, 1.0, x) if xs.size else x
    np.expm1(safe, out=phi)
    phi /= safe
    phi[small] = 1.0 + xs / 2.0 + xs * xs / 6.0
    if exp_x is None:
        return phi, None
    slope = np.subtract(exp_x, phi, out=np.empty_like(phi))
    slope /= safe
    slope[small] = 0.5 + xs / 3.0 + xs * xs / 8.0
    return phi, slope


def expm1_over_x(a):
    """(exp(x) - 1) / x as an autograd op over expm1_over_x_parts."""
    a = ag.as_tensor(a)
    track = ag._track(a)
    val, slope = expm1_over_x_parts(a.data, np.exp(a.data) if track else None)
    out = ag.Tensor(val, track, (a,))
    if out.requires_grad:
        def _bw():
            a.grad += out.grad * slope
        out._backward = _bw
    return out


def rms_norm_reference(x, scale, eps=1e-5):
    """RMSNorm in plain numpy, in the order of the composed ops that
    ssm.rms_norm replaced: x / sqrt(mean(x * x) + eps), then times scale."""
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps) * scale


def composed_scan(x, a, b, c, skip, delta):
    """selective_scan built from elementwise autograd ops, one step at a time,
    its arguments in selective_scan's order.

    Records about three graph nodes per step; its gradients come from the
    generic ops' backward rules, so it is an oracle for the fused scan's
    hand-written adjoint.
    """
    x, delta = ag.as_tensor(x), ag.as_tensor(delta)
    a, b, c = ag.as_tensor(a), ag.as_tensor(b), ag.as_tensor(c)
    L, D = x.shape
    N = a.shape[-1]
    d3 = ag.reshape(delta, (L, 1, 1))
    u = ag.mul(d3, a)                                   # [L, D, N]
    abar = ag.exp(u)
    bbar_x = ag.mul(ag.mul(ag.mul(d3, expm1_over_x(u)), ag.reshape(b, (L, 1, N))),
                    ag.reshape(x, (L, D, 1)))           # [L, D, N]
    z = ag.Tensor(np.zeros((D, N)))
    states = []
    for i in range(L):
        z = ag.add(ag.mul(abar[i], z), bbar_x[i])
        states.append(ag.reshape(z, (1, D, N)))
    zs = ag.concat(states, axis=0)
    y = ag.reduce_sum(ag.mul(zs, ag.reshape(c, (L, 1, N))), axis=2)
    if skip is not None:
        y = ag.add(y, ag.mul(ag.as_tensor(skip), x))
    return y


def composed_mamba_block(blk, u, delta, state=None):
    """MambaBlock as the 15 generic nodes it was built from before it was
    one node: rms_norm, in_proj, two column slices, causal_conv1d, SiLU, the
    rates -exp(A_log), the B and C projections, selective_scan, SiLU of the
    gate, the gate product, out_proj and the residual, the array ops made
    nodes by `ag.lift`. u is a Tensor and delta an array; with a
    `MambaState` (under no_grad) the conv and the scan carry on from it. The
    oracle for the fused node's forward and adjoint and for
    the streaming step."""
    conv_left, z0 = (None, None) if state is None else state
    xn = ag.lift(rms_norm, (u, blk.norm_scale))
    xz = ag.matmul(xn, blk.in_proj)
    x, z = xz[..., :blk.d_inner], xz[..., blk.d_inner:]
    x = ag.silu(ag.lift(ag.causal_conv1d, (x, blk.conv_kernel, blk.conv_bias), conv_left))
    core = blk.ssm
    a = ag.neg(ag.exp(core.A_log))
    y = ag.lift(selective_scan, (x, a, ag.matmul(x, core.W_B), ag.matmul(x, core.W_C), core.D),
                delta, z0)
    y = ag.mul(y, ag.silu(z))
    return ag.add(ag.matmul(y, blk.out_proj), u)


def composed_attention_block(blk, x, cache=None, last=False):
    """AttentionBlock as the generic nodes it was built from before it was
    one node: rms_norm, the q, k and v projections, multi_head_attention,
    W_o and the residual, then rms_norm, the MLP and its residual, the
    array ops made nodes by `ag.lift`. With a
    `KVCache` (under no_grad) x's keys and values are appended and attended
    to with the held ones, and with `last` only x's last row runs past them.
    The oracle for the fused node and for the streaming step."""
    a = ag.lift(rms_norm, (x, blk.norm1))
    k = ag.matmul(a, blk.W_k)
    v = ag.matmul(a, blk.W_v)
    if last:
        x, a = x[-1:], a[-1:]
    q = ag.matmul(a, blk.W_q)
    if cache is not None:
        cache.append(k.data, v.data)
        k, v = ag.Tensor(cache.k), ag.Tensor(cache.v)
    ctx = ag.lift(multi_head_attention, (q, k, v), blk.n_heads, len(k) - len(q))
    x = ag.add(x, ag.matmul(ctx, blk.W_o))
    f = ag.lift(rms_norm, (x, blk.norm2))
    ff = ag.add(ag.matmul(ag.silu(ag.add(ag.matmul(f, blk.W_ff1), blk.b_ff1)), blk.W_ff2),
                blk.b_ff2)
    return ag.add(x, ff)


def adam_step_reference(opt):
    """One step of `opt` as `Adam.step` wrote it before it updated in place,
    each expression making new arrays for m, v and the parameter: the oracle
    for its bits."""
    opt.t += 1
    for i, p in enumerate(opt.params):
        if p.grad is None:
            continue
        g = p.grad
        opt.m[i] = opt.beta1 * opt.m[i] + (1 - opt.beta1) * g
        opt.v[i] = opt.beta2 * opt.v[i] + (1 - opt.beta2) * g * g
        m_hat = opt.m[i] / (1 - opt.beta1 ** opt.t)
        v_hat = opt.v[i] / (1 - opt.beta2 ** opt.t)
        p.data = p.data - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def time_major(parts, L, pad):
    """Per-sequence arrays [n_j, ...] as one [L, B, ...], padded with `pad`'s
    values past each sequence's end."""
    out = pad.copy()
    for j, p in enumerate(parts):
        out[:len(p), j] = p
    return out


def composed_attention(q, k, v, n_heads, past=0):
    """multi_head_attention built from generic autograd ops, one head at a
    time: slice the head's columns, score (q_h / sqrt(D/H)) k_h^T, add a
    full-width [L, past + L] causal mask, take the exponentials less each
    row's max (a constant: the weights do not depend on it), multiply them
    by v_h, divide by the rows' sums, and concatenate the heads' contexts.
    The oracle for the fused node's batched forward and hand-written adjoint."""
    q, k, v = ag.as_tensor(q), ag.as_tensor(k), ag.as_tensor(v)
    L, D = q.shape
    dh = D // n_heads
    mask = np.concatenate([np.zeros((L, past)), causal_mask(L)], axis=1)
    scale = 1.0 / np.sqrt(dh)
    ctx = []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = ag.add(ag.matmul(ag.mul(q[:, cols], scale), ag.transpose(k[:, cols])), mask)
        e = ag.exp(ag.sub(scores, scores.data.max(axis=1, keepdims=True)))
        ctx.append(ag.div(ag.matmul(e, v[:, cols]), ag.reduce_sum(e, axis=1, keepdims=True)))
    return ctx[0] if n_heads == 1 else ag.concat(ctx, axis=1)


def composed_compensator(head, offsets, weights, scores):
    """The compensator by a quadrature rule, built from generic autograd ops
    on whole [n, S, K] arrays: sum of weights * sum_k lambda_k(offsets) over
    intervals and nodes."""
    n = offsets.shape[0]
    off_t = ag.Tensor(offsets[..., None])
    sc = ag.reshape(scores, (n, 1, scores.shape[1]))
    lam = ag.softplus(ag.add(ag.mul(off_t, head.alpha), sc), ag.exp(head.log_beta))
    total = ag.reduce_sum(lam, axis=2)
    return ag.reduce_sum(ag.mul(total, weights))


def both_branch_integral(head, gaps, scores):
    """IntensityHead.integral computing both of its branches on every
    interval, the difference of F and the midpoint series, and picking each
    interval's with np.where: the oracle for the node, which computes only
    the branches its intervals take, in its value and its three gradients."""
    beta = np.exp(head.log_beta.data)
    g = gaps[:, None]
    du = head.alpha.data * g / beta
    u = scores.data / beta
    u = np.stack([u, u + du, u + 0.5 * du])         # start, end and midpoint m
    w = np.log1p(np.exp(-np.abs(u)))
    sp = np.maximum(u, 0.0) + w
    pos = (u[:2] > 0.0).astype(np.float64)
    tail = _dilog_series(w[:2]) * (1.0 - 2.0 * pos)
    up = u[:2] * pos
    small = np.abs(du) < _SMALL_DU
    safe = np.where(small, 1.0, du)
    dF = (0.5 * (up[1] - up[0]) * (up[1] + up[0]) + _PI2_6 * (pos[1] - pos[0])
          + tail[1] - tail[0])
    sig, rest, d2 = np.exp(u[2] - sp[2]), np.exp(-sp[2]), np.exp(u[2] - 2.0 * sp[2])
    d4 = d2 * (1.0 - 6.0 * d2)
    du2 = du * du
    h = np.where(small, sp[2] + du2 / 24.0 * d2 + du2 * du2 / 1920.0 * d4, dF / safe)
    d3 = d2 * (rest - sig)
    h_m = sig + du2 / 24.0 * d3 + du2 * du2 / 1920.0 * d3 * (1.0 - 12.0 * d2)
    h_du = du / 12.0 * d2 + du * du2 / 480.0 * d4
    uw = u[:2] * w[:2]
    parts = np.where(small, [h_m, 0.5 * h_m + h_du, h - u[2] * h_m - du * h_du],
                     [(sp[1] - sp[0]) / safe, (sp[1] - h) / safe,
                      (2.0 * (tail[1] - tail[0]) + 2.0 * _PI2_6 * (pos[1] - pos[0])
                       - (uw[1] - uw[0])) / safe])
    return ag._node(gaps * (h * beta).sum(axis=1), (scores, head.alpha, head.log_beta),
                    lambda grad: grad[:, None] * g * parts[0],
                    lambda grad: grad * gaps * gaps @ parts[1],
                    lambda grad: beta * (grad * gaps @ parts[2]))


# intervals x types x nodes in one block of rule_integral, so that its four
# buffers stay in cache
RULE_BLOCK_ELEMS = 16384


def rule_integral(head, gaps, nodes, w, scores):
    """The compensator as one node for any rule on [0, 1] with nodes [S] and
    weights w [S], over blocks of intervals, keeping [n, K] sums for
    backward: the trapezoid node that IntensityHead.integral was before its
    closed form, and a reference for it at large S."""
    beta = np.exp(head.log_beta.data)
    track = ag._track(scores, head.alpha, head.log_beta)
    n, S, K = len(gaps), nodes.size, beta.size
    rows = max(1, RULE_BLOCK_ELEMS // (K * S))
    u, e, sp, t = (np.empty((min(rows, n), K, S)) for _ in range(4))
    sums = np.empty((4 if track else 1, n, K))
    for lo in range(0, n, rows):
        blk = slice(lo, lo + rows)
        off = gaps[blk, None] * nodes
        ub, eb, sb, tb = (x[:len(off)] for x in (u, e, sp, t))
        np.multiply(off[:, None, :], head.alpha.data[:, None], out=ub)
        ub += scores.data[blk, :, None]
        ub /= beta[:, None]
        np.exp(np.negative(np.abs(ub, out=eb), out=eb), out=eb)
        np.log1p(eb, out=sb)
        sb += np.maximum(ub, 0.0, out=tb)
        np.matmul(sb, w, out=sums[0, blk])
        if track:
            np.add(eb, 1.0, out=tb)
            np.exp(np.minimum(ub, 0.0, out=eb), out=eb)
            eb /= tb
            np.matmul(eb, w, out=sums[1, blk])
            np.matmul(eb, (w * off)[:, :, None], out=sums[2, blk, :, None])
            np.subtract(sb, np.multiply(ub, eb, out=ub), out=ub)
            np.matmul(ub, w, out=sums[3, blk])
    return ag._node(gaps @ sums[0] @ beta, (scores, head.alpha, head.log_beta),
                    lambda g: g * gaps[:, None] * sums[1],
                    lambda g: g * (gaps @ sums[2]),
                    lambda g: g * beta * (gaps @ sums[3]))


def one_hot_log_likelihood(head, seq, scores):
    """The log-likelihood as MambaHawkes.score wrote it before it gathered
    the event term: the observed type's intensity picked by a one-hot
    multiply-and-sum, less each interval's compensator, summed. scores [n, K]
    are the base scores at every event."""
    gaps = np.diff(seq.timestamps)
    lam = head.intensities(gaps, scores[:-1])
    hot = np.zeros(lam.shape)
    hot[np.arange(len(gaps)), seq.type_indices[1:]] = 1.0
    events = ag.log(ag.reduce_sum(ag.mul(lam, hot), axis=1))
    return ag.reduce_sum(ag.sub(events, head.integral(gaps, scores[:-1])))


def thin_once_reference(cfg, rng):
    """The thinning pass drawing each type with rng.choice: the oracle for
    data._thin_once, which makes the same draws."""
    t = 0.0
    excite = np.zeros((cfg.K, cfg.K))
    times, types = [], []
    while True:
        lam_bar = cfg.mu.sum() + excite.sum()
        if lam_bar <= 0.0:
            break
        t_prop = t + rng.exponential(1.0 / lam_bar)
        if t_prop > cfg.horizon:
            break
        excite *= np.exp(-cfg.beta_decay * (t_prop - t))
        t = t_prop
        lam_vec = cfg.mu + excite.sum(axis=1)
        lam_tot = lam_vec.sum()
        if rng.uniform() * lam_bar <= lam_tot:
            k = rng.choice(cfg.K, p=lam_vec / lam_tot)
            times.append(t)
            types.append(k + 1)
            excite[:, k] += cfg.alpha[:, k]
    return times, types


def gated_decay_reference(timestamps, x):
    """Closed-form N=1 recurrence: z_i = g_i z_{i-1} + (1 - g_i) x_i.

    g_i = exp(t_{i-1} - t_i) with t_0 = 0, z_0 = 0. Plain float oracle for the
    degenerate scan configuration (a = -1, b = c = 1, no feedthrough).
    """
    t = np.asarray(timestamps, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if t.ndim != 1 or t.shape != xv.shape:
        raise ValueError(f"timestamps and x must be equal-length vectors, got {t.shape}, {xv.shape}")
    gaps = np.diff(np.concatenate([[0.0], t]))
    if np.any(gaps <= 0.0):
        raise ValueError("timestamps must be strictly increasing (and start above 0)")
    z = 0.0
    out = np.empty_like(xv)
    for i in range(len(xv)):
        g = np.exp(-gaps[i])
        z = g * z + (1.0 - g) * xv[i]
        out[i] = z
    return out


def intensity(model, t, j, hidden, seq):
    """Vector of per-type intensities at time t, given latest event index j
    (0-based) and the encoder output `hidden` of `seq`."""
    t_j = float(seq.timestamps[j])
    if t < t_j:
        raise ValueError(f"t={t} precedes the anchoring event at t_j={t_j}")
    scores = model.heads(ag.reshape(hidden[j], (1, -1))).scores
    lam = model.head.intensities(np.array([t - t_j]), scores)
    return ag.reshape(lam, (model.cfg.K,))


def json_checkpoint(model, version, meta=None):
    """`model` as a document of the JSON checkpoints that came before the
    container: each parameter's data is a list of JSON numbers (shortest
    round-trip repr) in version 1, and the base64 text of its little-endian
    float64 bytes (C order) in version 2."""
    def data(p):
        if version == 1:
            return p.data.reshape(-1).tolist()
        return base64.b64encode(p.data.astype("<f8").tobytes()).decode("ascii")
    return {
        "format": FORMAT,
        "version": version,
        "arch": model.arch,
        "config": model.cfg.to_dict(),
        "meta": dict(meta or {}),
        "params": {name: {"shape": list(p.shape), "data": data(p)}
                   for name, p in model.named_parameters()},
    }


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def write_v1_checkpoint(model, path, meta=None):
    """Write `model` as a version-1 checkpoint, byte for byte as saving did then."""
    _write_json(path, json_checkpoint(model, 1, meta))


def write_v2_checkpoint(model, path, meta=None):
    """Write `model` as a version-2 checkpoint, byte for byte as saving did then."""
    _write_json(path, json_checkpoint(model, 2, meta))


def container(header, data=b""):
    """Checkpoint container bytes: the magic, the header's length as 8
    little-endian bytes, the header (a document, or its raw bytes), `data`."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    return MAGIC + struct.pack("<Q", len(header)) + header + data


def read_container(path):
    """(header document, data section bytes) of a checkpoint container."""
    raw = pathlib.Path(path).read_bytes()
    assert raw.startswith(MAGIC), raw[:len(MAGIC)]
    start = len(MAGIC) + 8
    end = start + struct.unpack_from("<Q", raw, len(MAGIC))[0]
    return json.loads(raw[start:end]), raw[end:]


def edit_container(path, edit, out=None):
    """Apply `edit` to the header document of the container at path, and
    write the container re-framed to `out` (default: path)."""
    header, data = read_container(path)
    edit(header)
    pathlib.Path(out or path).write_bytes(container(header, data))


def evaluate_one_by_one(model, dataset, n_quad=None):
    """`training.evaluate` by one `score` per sequence, in dataset order: the
    oracle for the grouped one's Metrics and errors."""
    if n_quad is not None and n_quad < 2:
        raise ValueError(f"n_quad must be at least 2, got {n_quad}")
    if model.cfg.K != dataset.K:
        raise ValueError(f"K-mismatch: model has K={model.cfg.K}, dataset has K={dataset.K}")
    ll_sum = 0.0
    n_events = 0
    correct = 0
    sq_err = 0.0
    with ag.no_grad():
        for seq in dataset:
            ll, logits, pred_gaps = model.score(seq)
            ll_sum += float(ll.data)
            correct += int(np.sum(np.argmax(logits.data, axis=1) + 1 == seq.types[1:]))
            sq_err += float(np.sum((pred_gaps.data - np.diff(seq.timestamps)) ** 2))
            n_events += len(seq) - 1
    return Metrics(
        ll_per_event=ll_sum / n_events,
        accuracy=100.0 * correct / n_events,
        rmse=float(np.sqrt(sq_err / n_events)),
        n_events=n_events,
        n_sequences=len(dataset),
    )
