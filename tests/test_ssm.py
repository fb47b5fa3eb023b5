import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import check_param_grads, composed_scan, gated_decay_reference, rel_err
from mamba_hawkes import autograd as ag
from mamba_hawkes.autograd import DomainError, GraphError, Parameter, ShapeError, Tensor
from mamba_hawkes.data import Batch, EventSequence
from mamba_hawkes.hybrid import AttentionBlock
from mamba_hawkes.model import MambaHawkes, MhpConfig
from mamba_hawkes import ssm
from mamba_hawkes.ssm import MambaBlock, SsmCore, selective_scan
from mamba_hawkes.training import accumulate_gradients


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


# -- discretization, read off the scan ---------------------------------------


def zoh_step(delta, a, b=1.0):
    """(abar, bbar) of one zero-order-hold step of selective_scan.

    With D = N = 1 and x_1 = c = 1, y_1 is bbar exactly; a second step with
    zero input gives y_2 = abar * bbar.
    """
    y = selective_scan(Tensor([[1.0], [0.0]]), Tensor([delta, delta]), Tensor([[a]]),
                       Tensor([[b], [b]]), Tensor(np.ones((2, 1)))).data[:, 0]
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
    y = selective_scan(Tensor(x), Tensor(delta), Tensor(a), Tensor(b), Tensor(c),
                       Tensor(skip)).data
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
        y = selective_scan(Tensor(x), Tensor(delta), Tensor(a), Tensor(b),
                           Tensor(c), Tensor(skip)).data
        np.testing.assert_allclose(y, naive_scan(x, delta, a, b, c, skip), rtol=0, atol=1e-12)


def test_scan_length_mismatch_error():
    with pytest.raises(ShapeError, match="length mismatch"):
        selective_scan(Tensor(np.ones((3, 2))), Tensor(np.ones(4)),
                       Tensor(-np.ones((2, 2))), Tensor(np.ones((3, 2))),
                       Tensor(np.ones((3, 2))))


def test_scan_rejects_nonpositive_delta():
    with pytest.raises(DomainError, match="non-positive"):
        selective_scan(Tensor(np.ones((2, 1))), Tensor(np.array([0.5, -0.1])),
                       Tensor(-np.ones((1, 1))), Tensor(np.ones((2, 1))),
                       Tensor(np.ones((2, 1))))


def test_scan_gradients_match_fd():
    rng = np.random.default_rng(3)
    L, D, N = 4, 2, 3
    x = Parameter(rng.normal(size=(L, D)))
    delta = Tensor(rng.uniform(0.5, 1.5, size=L))
    a = Parameter(-np.exp(rng.normal(size=(D, N))))
    b = Parameter(rng.normal(size=(L, N)))
    c = Parameter(rng.normal(size=(L, N)))
    skip = Parameter(rng.normal(size=D))
    w = rng.normal(size=(L, D))
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(selective_scan(x, delta, a, b, c, skip), w)),
        [x, a, b, c, skip])
    assert max(errs.values()) < 1e-4, errs


C = ssm._SCAN_CHUNK


@pytest.mark.parametrize("L,D,N", [(1, 2, 3), (7, 3, 2), (64, 8, 16),
                                   (C - 1, 3, 2), (C, 3, 2), (C + 1, 3, 2), (2 * C + 3, 3, 2)])
def test_scan_gradients_match_composed_oracle(L, D, N):
    # the hand-written adjoint against the generic ops' backward rules, also
    # on either side of one and two chunk boundaries
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
    for scan in (selective_scan, composed_scan):
        params = {k: Parameter(v.copy()) for k, v in values.items()}
        ag.backward(ag.reduce_sum(ag.mul(scan(delta=Tensor(delta), **params), w)))
        grads.append({k: p.grad for k, p in params.items()})
    fused, composed = grads
    for k in values:
        assert rel_err(fused[k], composed[k]) < 1e-10, k


def test_scan_is_one_graph_node_per_layer():
    # guard on graph size: the default model's whole loss graph on one sequence
    # (184 nodes, with the scan and the compensator one node each)
    rng = np.random.default_rng(12)
    model = MambaHawkes(MhpConfig(K=5), seed=0)
    seq = EventSequence(np.cumsum(rng.exponential(1.0, size=30)),
                        rng.integers(1, 6, size=30), 5)
    nodes = ag.topo_order(model.losses(seq).total)
    assert len(nodes) < 190, len(nodes)


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
        y = selective_scan(Tensor(x.reshape(L, 1)), Tensor(gaps),
                           Tensor(np.array([[-1.0]])), Tensor(np.ones((L, 1))),
                           Tensor(np.ones((L, 1)))).data.reshape(-1)
        z = gated_decay_reference(t, x)
        assert np.max(np.abs(y - z)) < 1e-12


# -- full block ---------------------------------------------------------------


def test_block_zero_input_zero_output():
    rng = np.random.default_rng(6)
    blk = MambaBlock(d_model=8, d_state=4, d_conv=4, expand=2, rng=rng)
    u = Tensor(np.zeros((5, 8)))
    delta = Tensor(np.full(5, 0.7))
    out = blk(u, delta)
    np.testing.assert_array_equal(out.data, np.zeros((5, 8)))


@pytest.mark.parametrize("L", [1, 2, 7])
@pytest.mark.parametrize("d_model", [8, 64])
def test_block_shape_contract(L, d_model):
    rng = np.random.default_rng(7)
    blk = MambaBlock(d_model=d_model, d_state=4, d_conv=4, expand=2, rng=rng)
    out = blk(Tensor(rng.normal(size=(L, d_model))), Tensor(rng.uniform(0.1, 1.0, L)))
    assert out.shape == (L, d_model)


def test_block_causality_bit_identical():
    rng = np.random.default_rng(8)
    blk = MambaBlock(d_model=6, d_state=3, d_conv=4, expand=2, rng=rng)
    u = rng.normal(size=(9, 6))
    delta = Tensor(rng.uniform(0.1, 1.0, 9))
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
        lambda: ag.reduce_sum(ag.mul(blk(Tensor(u), Tensor(delta)), w)), params)
    assert max(errs.values()) < 1e-4, errs


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


def test_scan_carries_state_across_calls():
    # the scan split at m, the state handed from the first call to the second,
    # gives the outputs and the final state of one call over the whole input,
    # bit for bit, wherever m falls among the chunks
    rng = np.random.default_rng(21)
    L, D, N = 3 * C + 5, 3, 4
    v = scan_inputs(rng, L, D, N)
    z0 = rng.normal(size=(D, N))
    whole = z0.copy()
    y = selective_scan(**v, state=whole).data
    for m in (1, 9, C + 5, 2 * C + 1, L - 1):
        state = z0.copy()
        first = {k: v[k] if k in ("a", "skip") else v[k][:m] for k in v}
        rest = {k: v[k] if k in ("a", "skip") else v[k][m:] for k in v}
        y1 = selective_scan(**first, state=state).data
        y2 = selective_scan(**rest, state=state).data
        np.testing.assert_array_equal(np.concatenate([y1, y2]), y)
        np.testing.assert_array_equal(state, whole)
    # a zero initial state is no initial state
    plain = selective_scan(**v).data
    np.testing.assert_allclose(selective_scan(**v, state=np.zeros((D, N))).data, plain,
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
        y = selective_scan(delta=Tensor(v["delta"]), **params)
        ag.backward(ag.reduce_sum(ag.mul(y, w)))
        return y.data, {k: p.grad for k, p in params.items()}

    y, grads = run()
    monkeypatch.setattr(ssm, "_SCAN_CHUNK", L if chunk == "L" else chunk)
    y_c, grads_c = run()
    assert np.array_equal(y_c, y)
    for k in ("x", "b", "c", "skip"):
        assert np.array_equal(grads_c[k], grads[k]), k
    np.testing.assert_allclose(grads_c["a"], grads["a"], rtol=1e-14, atol=0)


def test_scan_refuses_a_tracked_delta():
    # step sizes are data: no gradient is computed for them
    v = scan_inputs(np.random.default_rng(22), 5, 2, 3)
    v["delta"] = Parameter(v["delta"])
    with pytest.raises(GraphError, match="delta must not require grad"):
        selective_scan(**v)


def test_scan_refuses_a_state_while_recording():
    # no gradient reaches z_0, so a recorded call from a carried state would
    # give wrong gradients for a; it is refused instead
    v = scan_inputs(np.random.default_rng(25), 5, 2, 3)
    v["a"] = Parameter(v["a"])
    with pytest.raises(GraphError, match="no_grad"):
        selective_scan(**v, state=np.zeros((2, 3)))
    with ag.no_grad():
        selective_scan(**v, state=np.zeros((2, 3)))


def test_attend_refuses_a_cache_while_recording():
    # no gradient reaches the keys and values a cache holds, so a recorded
    # call through one is refused before it appends, as the scan refuses a state
    rng = np.random.default_rng(13)
    blk = AttentionBlock(d_model=8, n_heads=2, ff_dim=16, rng=rng)
    x = rng.normal(size=(7, 8))
    cache = blk.empty_state()
    with ag.no_grad():
        blk.attend(Tensor(x[:4]), cache)
    with pytest.raises(GraphError, match="no_grad"):
        blk.attend(Tensor(x[4:]), cache)
    assert cache.k.shape == cache.v.shape == (4, 8)
    with ag.no_grad():
        blk.attend(Tensor(x[4:]), cache)
    assert cache.k.shape == (7, 8)


def test_scan_rejects_state_of_wrong_shape():
    v = scan_inputs(np.random.default_rng(23), 4, 2, 3)
    with pytest.raises(ShapeError, match="state must be"):
        selective_scan(**v, state=np.zeros((3, 2)))


def test_block_with_state_matches_one_call():
    rng = np.random.default_rng(24)
    blk = MambaBlock(d_model=6, d_state=3, d_conv=4, expand=2, rng=rng)
    u = rng.normal(size=(17, 6))
    delta = rng.uniform(0.1, 1.5, size=17)
    whole = blk(Tensor(u), Tensor(delta)).data
    state = blk.empty_state()
    with ag.no_grad():
        parts = [blk(Tensor(u[lo:hi]), Tensor(delta[lo:hi]), state).data
                 for lo, hi in ((0, 2), (2, 3), (3, 11), (11, 17))]
    np.testing.assert_allclose(np.concatenate(parts), whole, rtol=0, atol=1e-13)
