"""Shared test utilities: finite-difference oracles, error metrics,
composed-op references for the fused selective scan and the fused
compensator, the closed-form gated recurrence the scan reduces to, a
point intensity query, and a writer of version-1 checkpoints."""

import json

import numpy as np

from mamba_hawkes import autograd as ag
from mamba_hawkes.checkpoint import FORMAT


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


def expm1_over_x(a):
    """(exp(x) - 1) / x as an autograd op over ag.expm1_over_x_parts."""
    a = ag.as_tensor(a)
    track = ag._track(a)
    val, slope = ag.expm1_over_x_parts(a.data, np.exp(a.data) if track else None)
    out = ag.Tensor(val, track, (a,))
    if out.requires_grad:
        def _bw():
            a.grad += out.grad * slope
        out._backward = _bw
    return out


def composed_scan(x, delta, a, b, c, skip=None):
    """selective_scan built from elementwise autograd ops, one step at a time.

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


def composed_compensator(head, offsets, weights, scores):
    """The compensator built from generic autograd ops on whole [n, S, K]
    arrays: sum of weights * sum_k lambda_k(offsets) over intervals and
    nodes. The oracle for the fused IntensityHead.integral."""
    n = offsets.shape[0]
    off_t = ag.Tensor(offsets[..., None])
    sc = ag.reshape(scores, (n, 1, scores.shape[1]))
    lam = ag.softplus(ag.add(ag.mul(off_t, head.alpha), sc), ag.exp(head.log_beta))
    total = ag.reduce_sum(lam, axis=2)
    return ag.reduce_sum(ag.mul(total, weights))


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
    scores = model.head.base_scores(ag.reshape(hidden[j], (1, -1)))
    lam = model.head.intensities(np.array([t - t_j]), scores)
    return ag.reshape(lam, (model.cfg.K,))


def write_v1_checkpoint(model, path, meta=None):
    """Write `model` as a version-1 checkpoint: each parameter's data is a
    list of JSON numbers (shortest round-trip repr) instead of base64 bytes."""
    payload = {
        "format": FORMAT,
        "version": 1,
        "arch": model.arch,
        "config": model.cfg.to_dict(),
        "meta": dict(meta or {}),
        "params": {
            name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
            for name, p in model.named_parameters()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
