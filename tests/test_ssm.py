import contextlib
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (check_param_grads, composed_mamba_block, composed_scan,
                     evaluate_one_by_one, gated_decay_reference, rel_err, rms_norm_reference,
                     time_major)
from mamba_hawkes import autograd as ag
from mamba_hawkes.autograd import DomainError, GraphError, Parameter, ShapeError, Tensor
from mamba_hawkes.data import Batch, Dataset, EventSequence
from mamba_hawkes.hybrid import AttentionBlock
from mamba_hawkes.model import MambaHawkes, MhpConfig
from mamba_hawkes import ssm
from mamba_hawkes.ssm import MambaBlock, SsmCore, selective_scan
from mamba_hawkes.training import accumulate_gradients, evaluate


def naive_scan(x, delta, a, b, c, skip):
    """Independent step-by-step interpretation of the recurrence (plain numpy)."""
    L, D = x.shape
    N = a.shape[1]
    z = np.zeros((D, N))
    ys = []
    for i in range(L):
        u = delta[i] * a
        abar = np.exp(u)
        phi = np.where(np.abs(u) < 1e-4, 1 + u / 2 + u * u / 6, np.expm1(u) / u)
        z = abar * z + delta[i] * phi * b[i][None, :] * x[i][:, None]
        ys.append(z @ c[i] + (skip * x[i] if skip is not None else 0.0))
    return np.stack(ys)


def scan_node(x, a, b, c, skip, delta, state=None):
    """selective_scan as one graph node on the Tensors among x, a, b, c, skip."""
    return ag.lift(selective_scan, (x, a, b, c, skip), delta, state)


# -- discretization, read off the scan ---------------------------------------


def zoh_step(delta, a, b=1.0):
    """(abar, bbar) of one zero-order-hold step of selective_scan.

    With D = N = 1 and x_1 = c = 1, y_1 is bbar exactly; a second step with
    zero input gives y_2 = abar * bbar.
    """
    y = selective_scan(np.array([[1.0], [0.0]]), np.array([[a]]), np.array([[b], [b]]),
                       np.ones((2, 1)), None, np.array([delta, delta]))[0][:, 0]
    return y[1] / y[0], y[0]


def test_discretize_closed_form():
    abar, bbar = zoh_step(np.log(2.0), -1.0)
    np.testing.assert_allclose(abar, 0.5, rtol=1e-15)
    np.testing.assert_allclose(bbar, 0.5, rtol=1e-14)


def test_discretize_small_rate_limit():
    # a -> 0: abar -> 1, bbar -> delta * b via the series branch
    delta, b = 0.7, 2.0
    abar, bbar = zoh_step(delta, -1e-9, b)
    np.testing.assert_allclose(abar, 1.0, rtol=1e-8)
    np.testing.assert_allclose(bbar, delta * b, rtol=1e-8)


def test_discretize_branch_continuity():
    # series and exact branch agree to 1e-10 relative at the |delta*a| = 1e-4 boundary
    for sign in (1.0, -1.0):
        for eps in (1 - 1e-9, 1 + 1e-9):
            u = sign * 1e-4 * eps
            delta = 0.5
            a = u / delta
            _, bbar = zoh_step(delta, a)
            exact = (np.exp(u) - 1.0) / a
            assert abs(bbar / exact - 1.0) < 1e-10


def test_discretize_matches_quadrature_oracle():
    # bbar must equal b * integral_0^delta exp(a*s) ds across |delta*a| in [1e-8, 10]
    rng = np.random.default_rng(0)
    for mag in np.logspace(-8, 1, 19):
        for sign in (1.0, -1.0):
            delta = float(rng.uniform(0.1, 2.0))
            a = sign * mag / delta
            b = float(rng.normal())
            _, bbar = zoh_step(delta, a, b)
            integral, err = quad(lambda s: np.exp(a * s), 0.0, delta,
                                 epsabs=1e-14, epsrel=1e-12)
            assert abs(bbar - integral * b) <= 1e-8 * max(abs(integral * b), 1e-300)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rate_gradient_agrees_across_the_series_cutoff(sign):
    # one step, y = c * q * b * x, so dy/da = c * b * x * dq/da with dq/da =
    # delta^2 (1/2 + u/3 + u^2/8 + u^3/30 + ...); |u| just below the cutoff
    # takes the series, just above it the closed form, each rate alone and
    # both in one call
    delta, x, b, c = 0.5, 1.3, -0.7, 0.9
    us = sign * 1e-4 * np.array([1 - 1e-9, 1 + 1e-9])
    want = c * b * x * delta ** 2 * (0.5 + us / 3.0 + us * us / 8.0 + us ** 3 / 30.0)
    for cols in ([0], [1], [0, 1]):
        a = Parameter(us[None, cols] / delta)
        y = scan_node([[x]], a, [[b] * len(cols)], [[c] * len(cols)], None, np.array([delta]))
        ag.backward(ag.reduce_sum(y))
        np.testing.assert_allclose(a.grad[0], want[cols], rtol=1e-10, atol=0)


def test_zero_and_infinite_rates_give_finite_values_without_warnings(monkeypatch):
    # a = -exp(A_log) at A_log = -800 and +800 gives rates of exactly 0 and
    # -inf. A zero rate's step is the limit abar = 1, bbar = delta * b, and
    # an infinite one forgets the state at once; outputs and gradients match
    # the composed oracle's
    with np.errstate(over="ignore"):
        a = -np.exp(np.array([[-800.0, 800.0, 0.2], [0.3, -800.0, 800.0]]))
    assert 0.0 in a and -np.inf in a
    L = C + 3
    monkeypatch.setattr(ssm, "_CHUNK_ELEMS", C * 2 * 3)
    v = scan_inputs(np.random.default_rng(33), L, 2, 3)
    v["delta"][L // 2] = 0.5    # only the zero rate takes the series branch
    v["a"] = a
    w = np.random.default_rng(34).normal(size=(L, 2))
    out = []
    for scan in (scan_node, composed_scan):
        params = {k: Parameter(v[k].copy()) for k in ("x", "a", "b", "c", "skip")}
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            y = scan(delta=v["delta"], **params)
            ag.backward(ag.reduce_sum(ag.mul(y, w)))
        out.append((y.data, {k: p.grad for k, p in params.items()}))
    (y, grads), (y_ref, grads_ref) = out
    assert np.all(np.isfinite(y)) and rel_err(y, y_ref) < 1e-12
    for k in grads:
        assert np.all(np.isfinite(grads[k])) and rel_err(grads[k], grads_ref[k]) < 1e-10, k
    abar, bbar = zoh_step(0.7, -0.0, 2.0)
    assert abar == 1.0 and bbar == 0.7 * 2.0
    bbar = selective_scan(np.array([[1.0]]), np.array([[-np.inf]]), np.array([[2.0]]),
                          np.array([[1.0]]), None, np.array([0.7]))[0]
    assert bbar[0, 0] == 0.0


def test_discretize_rejects_nonpositive_step():
    with pytest.raises(DomainError, match="non-positive step"):
        zoh_step(0.0, -1.0)


# -- selective scan ----------------------------------------------------------


def test_scan_single_step_base_case():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 3))
    delta = np.array([0.8])
    a = -np.exp(rng.normal(size=(3, 2)))
    b = rng.normal(size=(1, 2))
    c = rng.normal(size=(1, 2))
    skip = rng.normal(size=3)
    y = selective_scan(x, a, b, c, skip, delta)[0]
    u = delta[0] * a
    bbar = delta[0] * (np.expm1(u) / u) * b[0][None, :]
    expect = (bbar * x[0][:, None]) @ c[0] + skip * x[0]
    np.testing.assert_allclose(y[0], expect, atol=1e-12)


def test_scan_matches_naive_loop():
    rng = np.random.default_rng(2)
    for L, D, N in [(6, 3, 2), (1, 2, 4), (25, 5, 3), (512, 4, 8)]:
        x = rng.normal(size=(L, D))
        delta = rng.uniform(0.05, 2.0, size=L)
        delta[0] = 1e-6  # exercise the series branch
        a = -np.exp(rng.normal(size=(D, N)))
        b = rng.normal(size=(L, N))
        c = rng.normal(size=(L, N))
        skip = rng.normal(size=D)
        y = selective_scan(x, a, b, c, skip, delta)[0]
        np.testing.assert_allclose(y, naive_scan(x, delta, a, b, c, skip), rtol=0, atol=1e-12)


def test_scan_length_mismatch_error():
    with pytest.raises(ShapeError, match="length mismatch"):
        selective_scan(np.ones((3, 2)), -np.ones((2, 2)), np.ones((3, 2)), np.ones((3, 2)),
                       None, np.ones(4))


def test_scan_rejects_nonpositive_delta():
    with pytest.raises(DomainError, match="non-positive"):
        selective_scan(np.ones((2, 1)), -np.ones((1, 1)), np.ones((2, 1)), np.ones((2, 1)),
                       None, np.array([0.5, -0.1]))


def test_scan_rejects_nan_step_sizes():
    # NaN compares False with 0 both ways, so the check asks that every step
    # be positive rather than that none be non-positive
    with pytest.raises(DomainError, match="non-positive"):
        selective_scan(np.ones((2, 1)), -np.ones((1, 1)), np.ones((2, 1)), np.ones((2, 1)),
                       None, np.array([0.5, np.nan]))


def test_scan_gradients_match_fd():
    rng = np.random.default_rng(3)
    L, D, N = 4, 2, 3
    x = Parameter(rng.normal(size=(L, D)))
    delta = rng.uniform(0.5, 1.5, size=L)
    a = Parameter(-np.exp(rng.normal(size=(D, N))))
    b = Parameter(rng.normal(size=(L, N)))
    c = Parameter(rng.normal(size=(L, N)))
    skip = Parameter(rng.normal(size=D))
    w = rng.normal(size=(L, D))
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(ag.lift(selective_scan, (x, a, b, c, skip), delta), w)),
        [x, a, b, c, skip])
    assert max(errs.values()) < 1e-4, errs


# steps per chunk of one default-config sequence (d_inner 128, d_state 16);
# the tests below set _CHUNK_ELEMS so that their smaller scans run in chunks
# of C steps too
C = ssm._CHUNK_ELEMS // (128 * 16)


@pytest.mark.parametrize("L,D,N", [(1, 2, 3), (7, 3, 2), (64, 8, 16),
                                   (C - 1, 3, 2), (C, 3, 2), (C + 1, 3, 2), (2 * C + 3, 3, 2)])
def test_scan_gradients_match_composed_oracle(L, D, N, monkeypatch):
    # the hand-written adjoint against the generic ops' backward rules, also
    # on either side of one and two chunk boundaries
    monkeypatch.setattr(ssm, "_CHUNK_ELEMS", C * D * N)
    rng = np.random.default_rng(L)
    delta = rng.uniform(0.05, 2.0, size=L)
    delta[L // 2] = 1e-6
    a = -np.exp(rng.normal(size=(D, N)))
    assert np.all(np.abs(delta[L // 2] * a) < 1e-4)  # one step in the series branch
    values = dict(x=rng.normal(size=(L, D)), a=a,
                  b=rng.normal(size=(L, N)), c=rng.normal(size=(L, N)),
                  skip=rng.normal(size=D))
    w = rng.normal(size=(L, D))
    grads = []
    for scan in (scan_node, composed_scan):
        params = {k: Parameter(v.copy()) for k, v in values.items()}
        ag.backward(ag.reduce_sum(ag.mul(scan(delta=delta, **params), w)))
        grads.append({k: p.grad for k, p in params.items()})
    fused, composed = grads
    for k in values:
        assert rel_err(fused[k], composed[k]) < 1e-10, k


@pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9])
def test_scan_agrees_with_composed_oracle_across_the_exp_cutoff(side, monkeypatch):
    # min delta * |a| = _EXP_CUTOFF * side: at 1 + 1e-9 every element takes
    # exp(u) - 1, at 1 - 1e-9 the smallest step's element of the smallest
    # |a| keeps expm1 and the others (in the same chunks) take exp; y and
    # all five gradients agree with the composed oracle either way
    L, D, N = 2 * C + 3, 3, 4
    monkeypatch.setattr(ssm, "_CHUNK_ELEMS", C * D * N)
    rng = np.random.default_rng(35)
    a = -np.exp(rng.normal(size=(D, N)))
    delta = ssm._EXP_CUTOFF / np.abs(a).min() * rng.uniform(1.0, 3.0, size=L)
    delta[C + 2] = ssm._EXP_CUTOFF * side / np.abs(a).min()
    assert (delta.min() * np.abs(a).min() >= ssm._EXP_CUTOFF) == (side > 1.0)
    values = dict(x=rng.normal(size=(L, D)), a=a, b=rng.normal(size=(L, N)),
                  c=rng.normal(size=(L, N)), skip=rng.normal(size=D))
    w = rng.normal(size=(L, D))
    out = []
    for scan in (scan_node, composed_scan):
        params = {k: Parameter(v.copy()) for k, v in values.items()}
        y = scan(delta=delta, **params)
        ag.backward(ag.reduce_sum(ag.mul(y, w)))
        out.append((y.data, {k: p.grad for k, p in params.items()}))
    (y, grads), (y_ref, grads_ref) = out
    assert rel_err(y, y_ref) < 1e-13
    for k in values:
        assert rel_err(grads[k], grads_ref[k]) < 1e-13, k


def test_steps_take_exp_from_the_cutoff_and_expm1_below_it():
    # with a = -1, bbar is -(e^-delta - 1) exactly; steps at or beyond the
    # cutoff compute it as exp(u) - 1 and steps below it as expm1(u), which
    # differ in the last bit at some of these points
    beyond = ssm._EXP_CUTOFF * (1.0 + np.array([0.0, 1e-9, 0.2, 0.7, 3.0]))
    below = ssm._EXP_CUTOFF * (1.0 - np.array([1e-9, 0.02, 0.1, 0.3, 0.6]))
    for deltas, e_minus_1 in ((beyond, lambda u: np.exp(u) - 1.0), (below, np.expm1)):
        u = -deltas
        assert np.any(e_minus_1(u) != np.where(deltas >= ssm._EXP_CUTOFF, np.expm1(u),
                                                np.exp(u) - 1.0))
        bbar = np.array([zoh_step(d, -1.0)[1] for d in deltas])
        np.testing.assert_array_equal(bbar, -e_minus_1(u))


def test_steps_whose_rates_straddle_the_cutoff_choose_per_element():
    # one step whose u = delta * a lie on both sides of -_EXP_CUTOFF: each
    # element with u <= -_EXP_CUTOFF gives exp(u) - 1's bits, each above it
    # expm1's, in bbar (the state after one step from zeros with x = b = 1)
    # and in abar (the next step, with x = 0, multiplies the state by it)
    rng = np.random.default_rng(40)
    D, N = 4, 8
    a = -rng.uniform(1.0, 3.0, size=(D, N))
    a[1, 5] = -0.3
    for delta in (0.5, 0.9, 1.1, 1.59):
        u = delta * a
        near = u > -ssm._EXP_CUTOFF
        assert near.any() and not near.all()
        e_minus_1 = np.where(near, np.expm1(u), np.exp(u) - 1.0)
        assert np.any(e_minus_1 != np.expm1(u))
        state = np.zeros((D, N))
        selective_scan(np.ones((1, D)), a, np.ones((1, N)), np.ones((1, N)), None,
                       np.array([delta]), state)
        bbar = e_minus_1 * (1.0 / a)
        assert np.array_equal(state, bbar)
        selective_scan(np.zeros((1, D)), a, np.ones((1, N)), np.ones((1, N)), None,
                       np.array([delta]), state)
        assert np.array_equal(state, np.where(near, np.expm1(u) + 1.0, np.exp(u)) * bbar)


def test_exp_choice_is_made_per_element_so_calls_and_groups_agree():
    # an element takes exp or expm1 by its own u = delta * a, whatever else
    # its step, call or group holds: a sequence whose elements all clear the
    # cutoff gives the same bits alone, beside one with a step of both kinds
    # of element, and after such a step in an earlier call that carried the
    # state; and that step gives the same bits among the others as in a
    # call of its own
    rng = np.random.default_rng(38)
    D, N, L = 8, 16, 2 * C + 5
    a = -np.exp(rng.uniform(0.0, 1.0, size=(D, N)))     # every |a| >= 1
    fast, mixed = (scan_inputs(rng, L, D, N) for _ in range(2))
    fast["delta"] = rng.uniform(0.7, 2.0, size=L)
    mixed["delta"][C + 1] = 0.3
    near = mixed["delta"][C + 1] * a > -ssm._EXP_CUTOFF
    assert near.any() and not near.all()
    for v in (fast, mixed):
        v["a"] = a
    alone = selective_scan(**fast)[0]
    batch = {k: np.stack([fast[k], mixed[k]], axis=1) for k in ("x", "delta", "b", "c")}
    y = selective_scan(**batch, a=a, skip=fast["skip"])[0]
    assert np.array_equal(y[:, 0], alone)
    state = np.zeros((D, N))
    head = dict(mixed, **{k: mixed[k][:C + 2] for k in ("x", "delta", "b", "c")})
    selective_scan(**head, state=state)
    whole = {k: np.concatenate([head[k], fast[k]]) for k in ("x", "delta", "b", "c")}
    y = selective_scan(**dict(fast, **whole))[0][C + 2:]
    assert np.array_equal(y, selective_scan(**fast, state=state)[0])
    state, parts = np.zeros((D, N)), []
    for s in (slice(0, C + 1), slice(C + 1, C + 2), slice(C + 2, L)):
        part = dict(mixed, **{k: mixed[k][s] for k in ("x", "delta", "b", "c")})
        parts.append(selective_scan(**part, state=state)[0])
    assert np.array_equal(np.concatenate(parts), selective_scan(**mixed)[0])


def test_rms_norm_forward_is_bit_equal_to_plain_numpy():
    rng = np.random.default_rng(36)
    for shape in ((7, 16), (1, 64), (90, 64)):
        x, scale = rng.normal(size=shape) * 3.0, rng.normal(size=shape[-1])
        x[0] *= 1e-4      # eps matters in this row
        out = ssm.rms_norm(x, scale)[0]
        assert np.array_equal(out, rms_norm_reference(x, scale))


def test_rms_norm_is_one_node_with_gradients_matching_fd():
    rng = np.random.default_rng(37)
    x = Parameter(rng.normal(size=(5, 6)))
    x.data[1] *= 0.05     # a row whose norm eps moves
    scale = Parameter(rng.normal(size=6))
    w = rng.normal(size=(5, 6))
    out = ag.lift(ssm.rms_norm, (x, scale))
    assert out._parents == (x, scale)
    errs = check_param_grads(lambda: ag.reduce_sum(ag.mul(ag.lift(ssm.rms_norm, (x, scale)), w)),
                             [x, scale])
    assert max(errs.values()) < 1e-7, errs


def test_scan_is_one_graph_node_per_layer():
    # guard on graph size: the default model's whole loss graph on one sequence
    # (98 nodes, 53 of them leaves, with each Mamba block and the compensator
    # one node each; 154 when the blocks were 15 nodes each)
    rng = np.random.default_rng(12)
    model = MambaHawkes(MhpConfig(K=5), seed=0)
    seq = EventSequence(np.cumsum(rng.exponential(1.0, size=30)),
                        rng.integers(1, 6, size=30), 5)
    nodes = ag.topo_order(model.losses(seq).total)
    assert len(nodes) <= 98, len(nodes)


def step_memory_in_state_arrays(L, n_layers=4):
    """(held after the forward, peak through backward) of one default-config
    sequence of L events, traced by tracemalloc in units of one
    [L, d_inner, d_state] float64 array."""
    rng = np.random.default_rng(0)
    model = MambaHawkes(MhpConfig(n_layers=n_layers, K=5), seed=0)
    seq = EventSequence(np.cumsum(rng.exponential(1.0, size=L)),
                        rng.integers(1, 6, size=L), 5)
    blk = model.layers[0]
    unit = L * blk.d_inner * blk.ssm.d_state * 8
    model.losses(seq)  # first-call allocations (caches, imports) stay out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = model.losses(seq).total
        held = (tracemalloc.get_traced_memory()[0] - base) / unit
        tracemalloc.reset_peak()
        ag.backward(loss)
        peak = (tracemalloc.get_traced_memory()[1] - base) / unit
    finally:
        tracemalloc.stop()
    return held, peak


@pytest.mark.parametrize("n_layers", [1, 4, 16])
def test_train_step_memory_in_state_arrays(n_layers):
    # each scan node keeps one state per chunk for backward, and backward
    # holds gradient buffers only while they are needed, so no [L, D, N]
    # array outlives a scan call; what grows with depth is each Mamba
    # block's [L, d_inner] activations, about 0.9 units per layer (at L 90
    # when this was written: 1.18 held and a 3.24 peak at 1 layer, 3.86 and
    # 6.44 at 4, 14.55 and 19.19 at 16; at 4 layers, keeping every state gave
    # 7.6 and 12.7, keeping abar, phi and phi' too and preallocating every
    # gradient 19.6 and 25.9)
    held, peak = step_memory_in_state_arrays(90, n_layers)
    assert held <= n_layers + 1, held
    assert peak <= n_layers + 4, peak


def test_train_step_memory_in_state_arrays_at_length_500():
    # the 4-layer bounds on a longer sequence (3.7 held and a 4.4 peak when
    # this was written; keeping every state gave 7.5 and 11.9)
    held, peak = step_memory_in_state_arrays(500)
    assert held <= 5, held
    assert peak <= 8, peak


def test_train_batch_step_memory_in_state_arrays():
    # a train step of 4 sequences holds one sequence's graph at a time, so
    # it peaks within the one-sequence bound above (about 6.4 units when this
    # was written; scoring all four before one backward peaked at about 36)
    rng = np.random.default_rng(0)
    model = MambaHawkes(MhpConfig(K=5), seed=0)
    L = 90
    bat = Batch([EventSequence(np.cumsum(rng.exponential(1.0, size=L)),
                               rng.integers(1, 6, size=L), 5) for _ in range(4)])
    blk = model.layers[0]
    unit = L * blk.d_inner * blk.ssm.d_state * 8
    model.losses(bat.sequences[0])  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        accumulate_gradients(model, bat)
        peak = (tracemalloc.get_traced_memory()[1] - base) / unit
    finally:
        tracemalloc.stop()
    assert peak <= 8, peak


def test_stability_abar_in_unit_interval_and_contraction():
    rng = np.random.default_rng(4)
    a_log = rng.normal(size=(3, 4))
    a = -np.exp(a_log)
    for delta in (1e-8, 0.3, 5.0, 1e4):
        abar = np.array([zoh_step(delta, v)[0] for v in a.ravel()]).reshape(a.shape)
        assert np.all(abar < 1.0)
        if delta <= 5.0:
            assert np.all(abar > 0.0)
        else:
            assert np.all(abar >= 0.0)  # huge steps may underflow to exact 0
        z0 = rng.normal(size=(3, 4))
        z1 = abar * z0  # zero-input step
        assert np.linalg.norm(z1) < np.linalg.norm(z0)


# -- degenerate gated recurrence ---------------------------------------------


def test_gated_decay_reference_closed_form():
    z = gated_decay_reference([np.log(2.0), 2.0 * np.log(2.0)], [1.0, 1.0])
    np.testing.assert_allclose(z, [0.5, 0.75], rtol=1e-15)


def test_gated_decay_reference_large_gap_limit():
    c = 3.7
    z = gated_decay_reference([100.0, 300.0], [c, c])
    np.testing.assert_allclose(z, [c, c], rtol=1e-12)


def test_gated_decay_reference_rejects_nonincreasing():
    with pytest.raises(ValueError, match="strictly increasing"):
        gated_decay_reference([1.0, 1.0], [0.0, 0.0])


def test_scan_reproduces_gated_decay_reference():
    # pinning: N=1, a=-1, b=c=1, no feedthrough, raw gaps as steps
    rng = np.random.default_rng(5)
    for trial in range(20):
        L = int(rng.integers(2, 50))
        gaps = rng.uniform(0.01, 3.0, size=L)
        t = np.cumsum(gaps)
        x = rng.normal(size=L)
        y = selective_scan(x.reshape(L, 1), np.array([[-1.0]]), np.ones((L, 1)),
                           np.ones((L, 1)), None, gaps)[0].reshape(-1)
        z = gated_decay_reference(t, x)
        assert np.max(np.abs(y - z)) < 1e-12


# -- full block ---------------------------------------------------------------


def test_block_zero_input_zero_output():
    rng = np.random.default_rng(6)
    blk = MambaBlock(d_model=8, d_state=4, d_conv=4, expand=2, rng=rng)
    u = Tensor(np.zeros((5, 8)))
    delta = np.full(5, 0.7)
    out = blk(u, delta)
    np.testing.assert_array_equal(out.data, np.zeros((5, 8)))


@pytest.mark.parametrize("L", [1, 2, 7])
@pytest.mark.parametrize("d_model", [8, 64])
def test_block_shape_contract(L, d_model):
    rng = np.random.default_rng(7)
    blk = MambaBlock(d_model=d_model, d_state=4, d_conv=4, expand=2, rng=rng)
    out = blk(Tensor(rng.normal(size=(L, d_model))), rng.uniform(0.1, 1.0, L))
    assert out.shape == (L, d_model)


def test_block_causality_bit_identical():
    rng = np.random.default_rng(8)
    blk = MambaBlock(d_model=6, d_state=3, d_conv=4, expand=2, rng=rng)
    u = rng.normal(size=(9, 6))
    delta = rng.uniform(0.1, 1.0, 9)
    base = blk(Tensor(u), delta).data
    for t in (0, 3, 8):
        bumped = u.copy()
        bumped[t] += 0.5
        out = blk(Tensor(bumped), delta).data
        assert np.array_equal(out[:t], base[:t])
        assert not np.array_equal(out[t:], base[t:])


def test_block_gradients_match_fd():
    rng = np.random.default_rng(9)
    blk = MambaBlock(d_model=4, d_state=2, d_conv=3, expand=2, rng=rng)
    u = rng.normal(size=(3, 4))
    delta = rng.uniform(0.5, 1.5, 3)
    w = rng.normal(size=(3, 4))
    params = [p for _, p in blk.named_parameters()]
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(blk(Tensor(u), delta), w)), params)
    assert max(errs.values()) < 1e-4, errs


def block_grads(make_out, inputs, w):
    """The output of make_out() and the gradients of inputs through sum(out * w)."""
    for t in inputs:
        t.zero_grad()
    out = make_out()
    ag.backward(ag.reduce_sum(ag.mul(out, w)))
    return out.data, [t.grad.copy() for t in inputs]


@pytest.mark.parametrize("B", [1, 3])
def test_fused_block_matches_the_composed_nodes(B):
    # one node with the 15 nodes' forward bits, and their gradients to
    # 1e-12, in chunks of 4 steps so that the scan carries state between them
    rng = np.random.default_rng(40)
    blk = MambaBlock(d_model=6, d_state=3, d_conv=4, expand=2, rng=rng)
    for p in blk.parameters():      # away from the initial ones and zeros
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    L = 11
    u = Parameter(rng.normal(size=(L, B, 6)))
    delta = rng.uniform(0.05, 1.5, size=(L, B))
    w = rng.normal(size=(L, B, 6))
    inputs = [u] + blk.parameters()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ssm, "_CHUNK_ELEMS", 4 * B * blk.d_inner * blk.ssm.d_state)
        nodes = ag.topo_order(blk(u, delta))
        fused, fused_grads = block_grads(lambda: blk(u, delta), inputs, w)
        composed, composed_grads = block_grads(
            lambda: composed_mamba_block(blk, u, delta), inputs, w)
    assert [n for n in nodes if n._parents] == nodes[-1:]
    assert np.array_equal(fused, composed)
    for (name, _), g, want in zip([("u", u)] + blk.named_parameters(), fused_grads,
                                  composed_grads):
        assert rel_err(g, want) <= 1e-12, name


def test_streaming_block_matches_the_composed_nodes_bit_for_bit():
    # a carried state: the fused step on arrays gives the composed nodes'
    # outputs and states bit for bit, stretch after stretch
    rng = np.random.default_rng(41)
    blk = MambaBlock(d_model=6, d_state=3, d_conv=3, expand=2, rng=rng)
    u = rng.normal(size=(19, 1, 6))
    delta = rng.uniform(0.05, 1.5, size=(19, 1))
    ours, theirs = blk.empty_state(), blk.empty_state()
    for lo, hi in ((0, 1), (1, 3), (3, 12), (12, 19)):
        y = blk(u[lo:hi], delta[lo:hi], ours)
        with ag.no_grad():
            want = composed_mamba_block(blk, Tensor(u[lo:hi]), delta[lo:hi], theirs)
        assert isinstance(y, np.ndarray) and np.array_equal(y, want.data)
        assert np.array_equal(ours.conv, theirs.conv) and np.array_equal(ours.z, theirs.z)


def test_ssm_core_parameter_stability_invariant():
    rng = np.random.default_rng(10)
    core = SsmCore(d_inner=6, d_state=16, rng=rng)
    a = -np.exp(core.A_log.data)
    assert np.all(a < 0.0)
    assert core.A_log.shape == (6, 16)
    # default rate ladder spans 1..N per channel
    np.testing.assert_allclose(np.exp(core.A_log.data[0]), np.arange(1, 17))


# -- carrying state across calls ---------------------------------------------


def scan_inputs(rng, L, D, N):
    delta = rng.uniform(0.05, 2.0, size=L)
    delta[L // 2] = 1e-6  # one step in the series branch
    return dict(x=rng.normal(size=(L, D)), delta=delta, a=-np.exp(rng.normal(size=(D, N))),
                b=rng.normal(size=(L, N)), c=rng.normal(size=(L, N)), skip=rng.normal(size=D))


def test_scan_carries_state_across_calls(monkeypatch):
    # the scan split at m, the state handed from the first call to the second,
    # gives the outputs and the final state of one call over the whole input,
    # bit for bit, wherever m falls among the chunks
    rng = np.random.default_rng(21)
    L, D, N = 3 * C + 5, 3, 4
    monkeypatch.setattr(ssm, "_CHUNK_ELEMS", C * D * N)
    v = scan_inputs(rng, L, D, N)
    z0 = rng.normal(size=(D, N))
    whole = z0.copy()
    y = selective_scan(**v, state=whole)[0]
    for m in (1, 9, C + 5, 2 * C + 1, L - 1):
        state = z0.copy()
        first = {k: v[k] if k in ("a", "skip") else v[k][:m] for k in v}
        rest = {k: v[k] if k in ("a", "skip") else v[k][m:] for k in v}
        y1 = selective_scan(**first, state=state)[0]
        y2 = selective_scan(**rest, state=state)[0]
        np.testing.assert_array_equal(np.concatenate([y1, y2]), y)
        np.testing.assert_array_equal(state, whole)
    # a zero initial state is no initial state
    plain = selective_scan(**v)[0]
    np.testing.assert_allclose(selective_scan(**v, state=np.zeros((D, N)))[0], plain,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(naive_scan(v["x"], v["delta"], v["a"], v["b"], v["c"], v["skip"]),
                               plain, rtol=0, atol=1e-12)


@pytest.mark.parametrize("chunk", [1, 3, "L"])
def test_scan_chunk_length_moves_only_the_rate_gradient(monkeypatch, chunk):
    # every step's arithmetic is the same at any chunk length, so y and the
    # x, b, c and skip gradients are bit-identical; the rate gradient sums
    # each chunk's steps apart, so it moves in the last bits only
    L, D, N = 2 * C + 3, 3, 4
    v = scan_inputs(np.random.default_rng(26), L, D, N)
    w = np.random.default_rng(27).normal(size=(L, D))

    def run():
        params = {k: Parameter(v[k].copy()) for k in ("x", "a", "b", "c", "skip")}
        y = scan_node(delta=v["delta"], **params)
        ag.backward(ag.reduce_sum(ag.mul(y, w)))
        return y.data, {k: p.grad for k, p in params.items()}

    monkeypatch.setattr(ssm, "_CHUNK_ELEMS", C * D * N)
    y, grads = run()
    monkeypatch.setattr(ssm, "_CHUNK_ELEMS", (L if chunk == "L" else chunk) * D * N)
    y_c, grads_c = run()
    assert np.array_equal(y_c, y)
    for k in ("x", "b", "c", "skip"):
        assert np.array_equal(grads_c[k], grads[k]), k
    np.testing.assert_allclose(grads_c["a"], grads["a"], rtol=1e-14, atol=0)


def test_scan_refuses_a_state_while_recording():
    # no gradient reaches z_0, so a recorded call from a carried state would
    # give wrong gradients for a; it is refused instead
    v = scan_inputs(np.random.default_rng(25), 5, 2, 3)
    v["a"] = Parameter(v["a"])
    with pytest.raises(GraphError, match="no_grad"):
        scan_node(**v, state=np.zeros((2, 3)))
    with ag.no_grad():
        scan_node(**v, state=np.zeros((2, 3)))


def test_attend_refuses_a_cache_while_recording():
    # no gradient reaches the keys and values a cache holds, so a call
    # through one runs on arrays, and a Tensor, which may record a graph, is
    # refused before it appends, as the scan refuses a state while recording
    # and a Mamba block a Tensor with a state
    rng = np.random.default_rng(13)
    blk = AttentionBlock(d_model=8, n_heads=2, ff_dim=16, rng=rng)
    x = rng.normal(size=(7, 8))
    cache = blk.empty_state()
    blk.attend(x[:4], cache)
    for mode in (ag.no_grad, contextlib.nullcontext):
        with mode(), pytest.raises(GraphError, match="on arrays"):
            blk.attend(Tensor(x[4:]), cache)
    assert cache.k.shape == cache.v.shape == (4, 8)
    blk.attend(x[4:], cache)
    assert cache.k.shape == (7, 8)
    mamba = MambaBlock(d_model=8, d_state=2, d_conv=3, expand=2, rng=rng)
    state = mamba.empty_state()
    with pytest.raises(GraphError, match="on arrays"):
        mamba(Tensor(x[:, None]), np.ones((7, 1)), state)
    assert not state.conv.any() and not state.z.any()


def test_scan_rejects_state_of_wrong_shape():
    v = scan_inputs(np.random.default_rng(23), 4, 2, 3)
    with pytest.raises(ShapeError, match="state must be"):
        selective_scan(**v, state=np.zeros((3, 2)))


def test_block_with_state_matches_one_call():
    # a state is one sequence's, [L, 1, d_model] time-major
    rng = np.random.default_rng(24)
    blk = MambaBlock(d_model=6, d_state=3, d_conv=4, expand=2, rng=rng)
    u = rng.normal(size=(17, 1, 6))
    delta = rng.uniform(0.1, 1.5, size=(17, 1))
    whole = blk(Tensor(u), delta).data
    state = blk.empty_state()
    parts = [blk(u[lo:hi], delta[lo:hi], state) for lo, hi in ((0, 2), (2, 3), (3, 11), (11, 17))]
    np.testing.assert_allclose(np.concatenate(parts), whole, rtol=0, atol=1e-13)


# -- the batch axis ------------------------------------------------------------


@pytest.mark.parametrize("chunk_elems", ["default", "3 steps"])
def test_scan_batch_axis_equals_per_sequence_calls(monkeypatch, chunk_elems):
    # ragged sequences stepped at once give each sequence's outputs bit for
    # bit, whatever fills the padding, at any chunk length
    rng = np.random.default_rng(28)
    D, N, lengths = 3, 4, (C + 3, 1, 2 * C + 5, 7)
    L, B = max(lengths), len(lengths)
    if chunk_elems != "default":
        monkeypatch.setattr(ssm, "_CHUNK_ELEMS", 3 * B * D * N)
    seqs = [scan_inputs(rng, n, D, N) for n in lengths]
    a, skip = seqs[0]["a"], seqs[0]["skip"]
    want = [selective_scan(**dict(v, a=a, skip=skip))[0] for v in seqs]
    for scale in (1.0, 1e3):   # two paddings, one far from the data
        pads = dict(x=rng.normal(size=(L, B, D)), delta=rng.uniform(0.05, 2.0, size=(L, B)),
                    b=rng.normal(size=(L, B, N)), c=rng.normal(size=(L, B, N)))
        batch = {k: time_major([v[k] for v in seqs], L, scale * pads[k]) for k in pads}
        y = selective_scan(**batch, a=a, skip=skip)[0]
        assert y.shape == (L, B, D)
        for j, n in enumerate(lengths):
            assert np.array_equal(y[:n, j], want[j]), (scale, j)


def test_scan_batch_axis_gradients_match_fd_and_per_sequence_calls(monkeypatch):
    # ragged B = 3 in chunks of 4 steps, one step in the rate gradient's
    # series branch: the adjoint runs each sequence alone, so padded steps
    # get no gradient, x, b and c get each sequence's own, and a and skip
    # the sum of the sequences'
    rng = np.random.default_rng(29)
    D, N, lengths = 2, 3, (9, 3, 6)
    L, B = max(lengths), len(lengths)
    monkeypatch.setattr(ssm, "_CHUNK_ELEMS", 4 * B * D * N)
    seqs = [scan_inputs(rng, n, D, N) for n in lengths]
    a = seqs[0]["a"]
    pads = dict(x=rng.normal(size=(L, B, D)), delta=rng.uniform(0.05, 2.0, size=(L, B)),
                b=rng.normal(size=(L, B, N)), c=rng.normal(size=(L, B, N)))
    batch = {k: time_major([v[k] for v in seqs], L, pads[k]) for k in pads}
    ws = [rng.normal(size=(n, D)) for n in lengths]
    w = time_major(ws, L, np.zeros((L, B, D)))
    params = dict(x=Parameter(batch["x"]), a=Parameter(a.copy()), b=Parameter(batch["b"]),
                  c=Parameter(batch["c"]), skip=Parameter(seqs[0]["skip"].copy()))
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(scan_node(delta=batch["delta"], **params), w)),
        list(params.values()))
    assert max(errs.values()) < 1e-4, errs
    alone = []
    for v, wj in zip(seqs, ws):
        one = {k: Parameter(v[k].copy()) for k in ("x", "b", "c")}
        one.update(a=Parameter(a.copy()), skip=Parameter(seqs[0]["skip"].copy()))
        ag.backward(ag.reduce_sum(ag.mul(scan_node(delta=v["delta"], **one), wj)))
        alone.append({k: p.grad for k, p in one.items()})
    for k in ("x", "b", "c"):
        want = time_major([g[k] for g in alone], L, np.zeros(params[k].shape))
        assert rel_err(params[k].grad, want) < 1e-12, k
    for k in ("a", "skip"):
        assert rel_err(params[k].grad, sum(g[k] for g in alone)) < 1e-12, k


def test_batch_groups_sort_by_length_and_cap_chunks_and_rows():
    lengths = [90, 37, 2000, 46, 37, 52, 90, 63, 58, 70, 78, 46]
    desk = ssm.batch_groups(lengths, 32, 16)      # at most 8, and 1024 rows of 32
    assert sum(desk, []) == sorted(range(len(lengths)), key=lambda i: lengths[i])
    assert [len(g) for g in desk] == [8, 3, 1]
    assert ssm.batch_groups(lengths[:4], 128, 16) == [[1, 3], [0], [2]]
    for d_inner, d_state in ((32, 16), (128, 16), (8, 4), (1024, 256)):
        groups = ssm.batch_groups(lengths, d_inner, d_state)
        for g in groups:
            rows = len(g) * max(lengths[i] for i in g)
            assert len(g) == 1 or rows * d_inner <= ssm._CHUNK_ELEMS
            assert len(g) == 1 or len(g) * 8 * d_inner * d_state <= ssm._CHUNK_ELEMS


def evaluate_peak_bytes(evaluate_fn, model, dataset):
    """tracemalloc peak of one evaluate call, after a first call."""
    evaluate_fn(model, dataset)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate_fn(model, dataset)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_grouped_evaluate_memory_below_a_train_step():
    # the train benchmark's 16 dev lengths at the default config, in groups
    # of 2 (2.1 MiB when this was written), against one L 90 train step
    # through backward (9.1 MiB)
    rng = np.random.default_rng(30)
    dev = Dataset([EventSequence(np.cumsum(rng.exponential(1.0, size=n)),
                                 rng.integers(1, 6, size=n), 5)
                   for n in (37, 46, 52, 58, 63, 70, 78, 90) * 2], 5, "dev")
    model = MambaHawkes(MhpConfig(K=5), seed=0)
    blk = model.layers[0]
    unit = 90 * blk.d_inner * blk.ssm.d_state * 8
    step_peak = step_memory_in_state_arrays(90)[1] * unit
    assert evaluate_peak_bytes(evaluate, model, dev) < step_peak


def test_grouped_evaluate_memory_on_long_sequences():
    # 8 desk sequences of 2000 events: the row cap runs each alone, so the
    # peak stays near one sequence's (1.03x when this was written; groups of
    # 8 would hold 8 sequences' activations)
    rng = np.random.default_rng(31)
    ds = Dataset([EventSequence(np.cumsum(rng.exponential(1.0, size=2000)),
                                rng.integers(1, 6, size=2000), 5) for _ in range(8)], 5)
    model = MambaHawkes(MhpConfig(d_model=16, n_layers=2, K=5), seed=0)
    grouped = evaluate_peak_bytes(evaluate, model, ds)
    assert grouped <= 2 * evaluate_peak_bytes(evaluate_one_by_one, model, ds)
