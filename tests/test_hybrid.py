import re

import numpy as np
import pytest

from helpers import check_param_grads, composed_attention, composed_attention_block, rel_err
from mamba_hawkes import autograd as ag
from mamba_hawkes import hybrid
from mamba_hawkes.autograd import Tensor
from mamba_hawkes.data import EventSequence
from mamba_hawkes.hybrid import (AttentionBlock, MambaHawkesHybrid, MhpEConfig,
                                 causal_mask, multi_head_attention)
from mamba_hawkes.model import MambaHawkes, MhpConfig
from mamba_hawkes.ssm import rms_norm


def hybrid_model(K=2, d_model=8, mamba_layers=1, attn_blocks=1, n_heads=1,
                 seed=0, **kw):
    cfg = MhpEConfig(d_model=d_model, d_state=kw.pop("d_state", 4), K=K,
                     mamba_layers=mamba_layers, attn_blocks=attn_blocks,
                     n_heads=n_heads, **kw)
    return MambaHawkesHybrid(cfg, seed=seed)


def test_single_token_attention_is_value_projection():
    rng = np.random.default_rng(0)
    blk = AttentionBlock(d_model=6, n_heads=2, ff_dim=12, rng=rng)
    x = rng.normal(size=(1, 6))
    out = blk(Tensor(x)).data

    # softmax over one position is 1, so attention passes the value through
    a = rms_norm(x, blk.norm1.data)[0]
    after_attn = x + (a @ blk.W_v.data) @ blk.W_o.data
    f = rms_norm(after_attn, blk.norm2.data)[0]
    pre = f @ blk.W_ff1.data + blk.b_ff1.data
    expect = after_attn + (pre / (1 + np.exp(-pre))) @ blk.W_ff2.data + blk.b_ff2.data
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_causal_mask_structure():
    m = causal_mask(4)
    assert np.all(m[np.tril_indices(4)] == 0.0)
    assert np.all(m[np.triu_indices(4, k=1)] == -1e30)


def test_attention_causality_bit_identical():
    rng = np.random.default_rng(1)
    blk = AttentionBlock(d_model=8, n_heads=2, ff_dim=16, rng=rng)
    x = rng.normal(size=(7, 8))
    base = blk(Tensor(x)).data
    for j in (1, 4, 6):
        bumped = x.copy()
        bumped[j] += 0.3
        out = blk(Tensor(bumped)).data
        assert np.array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j:], base[j:])


def test_permuting_future_tokens_leaves_prefix_unchanged():
    rng = np.random.default_rng(2)
    blk = AttentionBlock(d_model=4, n_heads=1, ff_dim=8, rng=rng)
    x = rng.normal(size=(6, 4))
    base = blk(Tensor(x)).data
    j = 2
    permuted = x.copy()
    permuted[j + 1:] = permuted[j + 1:][::-1]
    out = blk(Tensor(permuted)).data
    assert np.array_equal(out[:j + 1], base[:j + 1])


def test_no_positional_parameters_anywhere():
    m = hybrid_model(attn_blocks=2, n_heads=2)
    banned = re.compile(r"pos|absolute|rotary|temporal_enc", re.IGNORECASE)
    fixed_dims = set()
    for name, p in m.named_parameters():
        assert not banned.search(name), name
        fixed_dims.update(p.shape)
    # no parameter dimension tracks sequence length: encode different lengths
    seq_a = EventSequence(np.cumsum(np.full(3, 0.5)), np.array([1, 2, 1]), 2)
    seq_b = EventSequence(np.cumsum(np.full(9, 0.5)), np.tile([1, 2, 1], 3), 2)
    assert m.encode(seq_a).shape == (3, 8)
    assert m.encode(seq_b).shape == (9, 8)


def test_zero_attention_blocks_degenerates_to_base_model():
    base_cfg = MhpConfig(d_model=8, d_state=4, n_layers=2, K=3)
    base = MambaHawkes(base_cfg, seed=1)
    hyb = hybrid_model(K=3, d_model=8, mamba_layers=2, attn_blocks=0, seed=2)
    base_params = dict(base.named_parameters())
    for name, p in hyb.named_parameters():
        p.data = base_params[name].data.copy()
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.2, 1.0, 8))
    seq = EventSequence(t, rng.integers(1, 4, size=8), 3)
    np.testing.assert_array_equal(hyb.encode(seq).data, base.encode(seq).data)


@pytest.mark.parametrize("L", [1, 5, 64])
def test_hybrid_encode_shape_contract(L):
    m = hybrid_model(K=2, d_model=8, attn_blocks=1, n_heads=2)
    rng = np.random.default_rng(4)
    t = np.cumsum(rng.uniform(0.1, 0.9, L))
    seq = EventSequence(t, rng.integers(1, 3, size=L), 2)
    assert m.encode(seq).shape == (L, 8)


def test_hybrid_stack_causality_bit_identical():
    m = hybrid_model(K=3, d_model=8, mamba_layers=2, attn_blocks=2, n_heads=2, seed=5)
    rng = np.random.default_rng(6)
    t = np.cumsum(rng.uniform(0.2, 1.0, 10))
    k = rng.integers(1, 4, size=10)
    base = m.encode(EventSequence(t, k, 3)).data
    for j in (3, 7):
        k2 = k.copy()
        k2[j] = (k[j] % 3) + 1
        out = m.encode(EventSequence(t, k2, 3)).data
        assert np.array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j:], base[j:])


def test_hybrid_gradients_match_fd():
    # 4 events, d_model=8, single head
    m = hybrid_model(K=2, d_model=8, d_state=2, mamba_layers=1, attn_blocks=1,
                     n_heads=1, seed=7)
    seq = EventSequence(np.array([0.3, 1.0, 1.8, 2.9]), np.array([1, 2, 2, 1]), 2)
    errs = check_param_grads(lambda: m.losses(seq).total, m.parameters())
    assert max(errs.values()) < 1e-4, {k: v for k, v in errs.items() if v >= 1e-4}


def test_hybrid_config_defaults():
    cfg = MhpEConfig(K=4)
    assert cfg.mamba_layers == 2
    assert cfg.attn_blocks == 4 and cfg.n_heads == 4
    assert cfg.ff_dim == 4 * cfg.d_model
    with pytest.raises(ValueError, match="divisible"):
        MhpEConfig(K=2, d_model=10, n_heads=4)


def test_attend_with_cache_matches_one_call():
    rng = np.random.default_rng(3)
    blk = AttentionBlock(d_model=8, n_heads=2, ff_dim=16, rng=rng)
    x = rng.normal(size=(13, 8))
    whole = blk(Tensor(x)).data
    cache = blk.empty_state()
    parts = [blk.attend(x[lo:hi], cache) for lo, hi in ((0, 1), (1, 5), (5, 13))]
    np.testing.assert_allclose(np.concatenate(parts), whole, rtol=0, atol=1e-13)
    assert cache.k.shape == cache.v.shape == (13, 8)


@pytest.mark.parametrize("L", [1, 9])
def test_fused_attention_block_matches_the_composed_nodes(L):
    # one node with the composed nodes' forward bits, and their gradients to 1e-12
    rng = np.random.default_rng(15)
    blk = AttentionBlock(d_model=8, n_heads=2, ff_dim=12, rng=rng)
    for p in blk.parameters():      # away from the initial ones and zeros
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    x = ag.Parameter(rng.normal(size=(L, 8)))
    w = rng.normal(size=(L, 8))
    inputs = [x] + blk.parameters()
    results = []
    for make in (lambda: blk(x), lambda: composed_attention_block(blk, x)):
        for t in inputs:
            t.zero_grad()
        out = make()
        ag.backward(ag.reduce_sum(ag.mul(out, w)))
        results.append((out.data, [t.grad.copy() for t in inputs]))
    (fused, fused_grads), (composed, composed_grads) = results
    assert np.array_equal(fused, composed)
    for (name, _), g, want in zip([("x", x)] + blk.named_parameters(), fused_grads,
                                  composed_grads):
        assert rel_err(g, want) <= 1e-12, name


def test_streaming_attention_matches_the_composed_nodes_bit_for_bit():
    # a carried cache, a pass mask larger than the stretch, and a last row
    # run alone: the fused step on arrays gives the composed nodes' bits
    rng = np.random.default_rng(16)
    blk = AttentionBlock(d_model=8, n_heads=4, ff_dim=16, rng=rng)
    x = rng.normal(size=(15, 8))
    ours, theirs = blk.empty_state(), blk.empty_state()
    for (lo, hi), last in zip(((0, 3), (3, 4), (4, 10), (10, 15)), (False, True, True, False)):
        y = blk.attend(x[lo:hi], ours, last, causal_mask(hi - lo + 2))
        with ag.no_grad():
            want = composed_attention_block(blk, Tensor(x[lo:hi]), theirs, last)
        assert isinstance(y, np.ndarray) and np.array_equal(y, want.data)
        assert np.array_equal(ours.k, theirs.k) and np.array_equal(ours.v, theirs.v)


def attention_inputs(L, past, D, seed):
    rng = np.random.default_rng(seed)
    return [ag.Parameter(rng.normal(size=(n, D))) for n in (L, past + L, past + L)]


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("past", [0, 3])
def test_multi_head_attention_matches_composed_heads(n_heads, past):
    q, k, v = attention_inputs(5, past, 8, seed=n_heads + past)
    w = np.random.default_rng(9).normal(size=(5, 8))
    fused = ag.lift(multi_head_attention, (q, k, v), n_heads, past)
    ag.backward(ag.reduce_sum(ag.mul(fused, w)))
    grads = [t.grad.copy() for t in (q, k, v)]
    for t in (q, k, v):
        t.zero_grad()
    composed = composed_attention(q, k, v, n_heads, past)
    ag.backward(ag.reduce_sum(ag.mul(composed, w)))
    assert np.array_equal(fused.data, composed.data)
    for g, t in zip(grads, (q, k, v)):
        assert rel_err(g, t.grad) <= 1e-12


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_multi_head_attention_gradients_match_fd(n_heads):
    q, k, v = attention_inputs(4, 2, 8, seed=10 + n_heads)
    w = np.random.default_rng(11).normal(size=(4, 8))
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(ag.lift(multi_head_attention, (q, k, v), n_heads, 2), w)),
        [q, k, v])
    assert max(errs.values()) < 1e-6, errs


def test_multi_head_attention_rejects_bad_shapes():
    q, k, v = (t.data for t in attention_inputs(3, 2, 8, seed=0))
    with pytest.raises(ag.ShapeError, match="past"):
        multi_head_attention(q, k, v, 2, past=1)
    with pytest.raises(ag.ShapeError, match="divisible"):
        multi_head_attention(q, k, v, 3, past=2)


def stream_through(blk, x, sizes):
    """blk.attend on consecutive stretches of x of the given sizes; the
    outputs and, after each append, the cache's key view."""
    cache, parts, views, lo = blk.empty_state(), [], [], 0
    for n in sizes:
        parts.append(blk.attend(x[lo:lo + n], cache))
        lo += n
        assert cache.k.shape == cache.v.shape == (lo, blk.d_model)
        views.append(cache.k)
    return np.concatenate(parts), views


def test_streamed_cache_appends_in_place_and_matches_one_call(monkeypatch):
    rng = np.random.default_rng(12)
    blk = AttentionBlock(d_model=8, n_heads=4, ff_dim=16, rng=rng)
    x = rng.normal(size=(18, 8))
    sizes = (1, 1, 2, 5, 9)
    streamed, views = stream_through(blk, x, sizes)
    # a full buffer moves to one twice its size; otherwise rows are added in place
    moves = sum(not np.shares_memory(a, b) for a, b in zip(views, views[1:]))
    assert moves >= 3
    with ag.no_grad():
        whole = blk(Tensor(x)).data
    # BLAS rounds a one-row product differently from a row of a larger one,
    # so a stretch of x agrees with one call to rounding ...
    np.testing.assert_allclose(streamed, whole, rtol=0, atol=1e-13)
    # ... and bit for bit with the per-head composition over the same stretches
    monkeypatch.setattr(hybrid, "multi_head_attention", lambda q, k, v, n_heads, past, *_: (
        composed_attention(q, k, v, n_heads, past).data, None))
    assert np.array_equal(stream_through(blk, x, sizes)[0], streamed)


def closure_arrays(fn, seen=None):
    """The arrays a backward closure holds, also through the functions it
    holds."""
    seen = set() if seen is None else seen
    out = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            out.append(value)
        elif callable(value) and id(value) not in seen:
            seen.add(id(value))
            out += closure_arrays(value, seen)
    return out


def test_attention_keeps_no_weights_for_backward():
    # after the forward, no node of the default hybrid's loss graph keeps an
    # [., L, L] array: attention keeps each row's softmax max and sum, and
    # its backward recomputes the [H, L, L] weights from them
    L = 300
    rng = np.random.default_rng(14)
    model = MambaHawkesHybrid(MhpEConfig(K=5), seed=0)
    seq = EventSequence(np.cumsum(rng.exponential(1.0, size=L)),
                        rng.integers(1, 6, size=L), 5)
    loss = model.losses(seq).total
    held = [a.shape for node in ag.topo_order(loss) if node._backward is not None
            for a in closure_arrays(node._backward) if a.shape[-2:] == (L, L)]
    assert held == []
    ag.backward(loss)
    assert all(np.isfinite(p.grad).all() for p in model.parameters())
