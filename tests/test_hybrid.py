import re

import numpy as np
import pytest

from helpers import check_param_grads
from mamba_hawkes import autograd as ag
from mamba_hawkes.autograd import Tensor
from mamba_hawkes.data import EventSequence
from mamba_hawkes.hybrid import (AttentionBlock, MambaHawkesHybrid, MhpEConfig,
                                 causal_mask)
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
    a = rms_norm(Tensor(x), blk.norm1).data
    after_attn = x + (a @ blk.W_v.data) @ blk.W_o.data
    f = rms_norm(Tensor(after_attn), blk.norm2).data
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


def test_causal_mask_after_past_positions():
    m = causal_mask(3, past=2)
    assert m.shape == (3, 5)
    for i in range(3):
        assert np.all(m[i, :2 + i + 1] == 0.0) and np.all(m[i, 2 + i + 1:] == -1e30)
    assert np.array_equal(causal_mask(4, past=0), causal_mask(4))


def test_attend_with_cache_matches_one_call():
    rng = np.random.default_rng(3)
    blk = AttentionBlock(d_model=8, n_heads=2, ff_dim=16, rng=rng)
    x = rng.normal(size=(13, 8))
    whole = blk(Tensor(x)).data
    cache = blk.empty_state()
    parts = [blk.attend(Tensor(x[lo:hi]), cache).data for lo, hi in ((0, 1), (1, 5), (5, 13))]
    np.testing.assert_allclose(np.concatenate(parts), whole, rtol=0, atol=1e-13)
    assert cache.k.shape == cache.v.shape == (13, 8)
