import numpy as np
import pytest
from scipy.integrate import quad

from helpers import check_param_grads, composed_compensator, intensity, rel_err
from mamba_hawkes import autograd as ag
from mamba_hawkes import model as model_module
from mamba_hawkes.autograd import Parameter, Tensor
from mamba_hawkes.checkpoint import build_model
from mamba_hawkes.data import Dataset, EventSequence
from mamba_hawkes.model import TRAIN_QUAD_POINTS, MambaHawkes, MhpConfig
from mamba_hawkes.training import Adam, clip_gradients, evaluate


def tiny_model(K=2, d_model=8, d_state=4, n_layers=1, seed=0, **kw):
    cfg = MhpConfig(d_model=d_model, d_state=d_state, n_layers=n_layers, K=K, **kw)
    return MambaHawkes(cfg, seed=seed)


def make_seq(n, K, seed=0, spacing=None):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.2, 1.5, size=n) if spacing is None else np.full(n, spacing)
    return EventSequence(np.cumsum(gaps), rng.integers(1, K + 1, size=n), K)


def constant_intensity_model(K, rates, d_model=8):
    """Pin the head so every lambda_k is the constant rates[k]."""
    m = tiny_model(K=K, d_model=d_model)
    m.head.alpha.data = np.zeros(K)
    m.head.W.data = np.zeros((K, d_model))
    m.head.log_beta.data = np.zeros(K)
    # softplus(b) = rate  =>  b = log(exp(rate) - 1)
    m.head.b.data = np.log(np.expm1(np.asarray(rates, dtype=np.float64)))
    return m


# -- deltas -------------------------------------------------------------------


def deltas_of_gaps(gaps):
    """MambaHawkes.deltas of a sequence whose events are `gaps` apart, the
    first one at time gaps[0]."""
    t = np.cumsum(gaps)
    return tiny_model().deltas(EventSequence(t, np.ones(len(t), dtype=int), 2))


def test_raw_deltas_first_gap_is_first_timestamp():
    np.testing.assert_allclose(deltas_of_gaps([0.5, 1.5, 1.5]),
                               np.logaddexp(0.0, [0.5, 1.5, 1.5]))


def test_delta_transform_softplus_clamp():
    out = deltas_of_gaps([1e-9, 1.0, 1e6])
    np.testing.assert_allclose(out[0], np.log(2.0), rtol=1e-6)
    np.testing.assert_allclose(out[1], np.logaddexp(0, 1.0))
    assert out[2] == 1e4  # clamp ceiling


# -- embedding ----------------------------------------------------------------


def test_embed_identity_matrix_gives_one_hot_rows():
    m = tiny_model(K=4, d_model=4)
    m.embedding.data = np.eye(4)
    seq = EventSequence(np.array([1.0, 2.0]), np.array([2, 1]), 4)
    out = m.embed(seq).data
    np.testing.assert_array_equal(out[0], np.eye(4)[1])
    np.testing.assert_array_equal(out[1], np.eye(4)[0])


def test_embed_single_event_shape():
    m = tiny_model(K=3)
    seq = EventSequence(np.array([0.7]), np.array([2]), 3)
    assert m.embed(seq).shape == (1, 8)


def test_embed_gradient_counts_occurrences():
    m = tiny_model(K=3, d_model=4)
    seq = EventSequence(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 2, 1, 2]), 3)
    m.zero_grad()
    ag.backward(ag.reduce_sum(m.embed(seq)))
    np.testing.assert_array_equal(m.embedding.grad,
                                  np.outer(np.ones(4), [1.0, 3.0, 0.0]))
    errs = check_param_grads(lambda: ag.reduce_sum(m.embed(seq)), [m.embedding])
    assert max(errs.values()) < 1e-4


def test_embed_type_out_of_range():
    m = tiny_model(K=2)
    seq = EventSequence(np.array([1.0]), np.array([3]), 3)
    with pytest.raises(ValueError, match="out of range"):
        m.embed(seq)


# -- encoding -----------------------------------------------------------------


def test_encode_single_event():
    m = tiny_model(K=2)
    seq = EventSequence(np.array([0.9]), np.array([1]), 2)
    H = m.encode(seq)
    assert H.shape == (1, 8)
    assert np.all(np.isfinite(H.data))


def test_encode_causality_bit_identical():
    m = tiny_model(K=3, n_layers=2)
    rng = np.random.default_rng(0)
    t = np.cumsum(rng.uniform(0.2, 1.0, 10))
    k = rng.integers(1, 4, size=10)
    base = m.encode(EventSequence(t, k, 3)).data
    for j in (2, 5, 9):
        k2 = k.copy()
        k2[j] = (k[j] % 3) + 1
        t2 = t.copy()
        t2[j] += 0.05  # stays inside (t[j-1], t[j+1]) for these draws
        out = m.encode(EventSequence(t2, k2, 3)).data
        assert np.array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j:], base[j:])


def test_default_config_wiring():
    cfg = MhpConfig()
    assert (cfg.d_model, cfg.d_state, cfg.d_conv, cfg.expand, cfg.n_layers) == \
        (64, 16, 4, 2, 4)
    assert cfg.event_loss_weight == 1.0 and cfg.time_loss_weight == 1e-4
    assert TRAIN_QUAD_POINTS == 100
    m = MambaHawkes(cfg, seed=0)
    assert len(m.layers) == 4
    assert m.embedding.shape == (64, cfg.K)
    assert m.layers[0].d_inner == 128
    assert m.layers[0].conv_kernel.shape == (4, 128)


# -- intensity ----------------------------------------------------------------


def test_intensity_constant_head_is_log_two():
    m = constant_intensity_model(K=3, rates=[np.log(2.0)] * 3)
    seq = make_seq(5, 3, seed=1)
    H = m.encode(seq)
    for t in (seq.timestamps[2] + 0.0, seq.timestamps[2] + 0.3):
        lam = intensity(m, t, 2, H, seq)
        np.testing.assert_allclose(lam.data, np.log(2.0), rtol=1e-12)


def test_intensity_softplus_sharpens_as_scale_shrinks():
    # f(x) -> max(x, 0) as the scale -> 0+; at scale 1e-3, f(5) == 5 within 1e-3
    out = ag.softplus(Tensor(np.array([5.0])), 1e-3)
    assert abs(out.data[0] - 5.0) < 1e-3


def test_intensity_monotone_in_time_for_positive_slope():
    m = tiny_model(K=2, seed=3)
    m.head.alpha.data = np.array([0.8, 1.3])
    seq = make_seq(4, 2, seed=4)
    H = m.encode(seq)
    t0 = seq.timestamps[1]
    lam1 = intensity(m, t0 + 0.05, 1, H, seq).data
    lam2 = intensity(m, t0 + 0.4, 1, H, seq).data
    assert np.all(lam2 > lam1)


def test_intensity_rejects_time_before_anchor():
    m = tiny_model(K=2)
    seq = make_seq(3, 2, seed=5)
    H = m.encode(seq)
    with pytest.raises(ValueError, match="precedes"):
        intensity(m, seq.timestamps[1] - 0.01, 1, H, seq)


def test_intensity_strictly_positive_everywhere():
    m = tiny_model(K=3, seed=6)
    m.head.b.data = np.array([-40.0, 0.0, 40.0])  # extreme scores stay positive
    seq = make_seq(6, 3, seed=7)
    H = m.encode(seq)
    lam = intensity(m, seq.timestamps[3] + 0.1, 3, H, seq).data
    assert np.all(lam > 0.0)


# -- log-likelihood -----------------------------------------------------------


def test_loglik_two_event_closed_form():
    # constant lambda = log 2, t = [0, 1]: LL = log(log 2) - log 2
    m = constant_intensity_model(K=1, rates=[np.log(2.0)])
    seq = EventSequence(np.array([0.0, 1.0]), np.array([1, 1]), 1)
    expect = np.log(np.log(2.0)) - np.log(2.0)
    ll_train = m.losses(seq).log_likelihood.item()
    ll_quad = m.score(seq).log_likelihood.item()
    assert abs(ll_train - expect) / abs(expect) < 0.01
    assert abs(ll_quad - expect) < 1e-6


def test_loglik_homogeneous_poisson_closed_form():
    c = 1.7
    m = constant_intensity_model(K=1, rates=[c])
    seq = make_seq(12, 1, seed=8)
    n, span = len(seq), seq.duration
    expect = (n - 1) * np.log(c) - c * span
    ll_train = m.losses(seq).log_likelihood.item()
    ll_quad = m.score(seq).log_likelihood.item()
    assert abs(ll_train - expect) / abs(expect) < 0.01
    assert abs(ll_quad - expect) < 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_training_rule_matches_adaptive_quadrature(seed):
    # perturbed heads: the training rule within 1e-5 relative of scipy's
    # adaptive quadrature of the total intensity, interval by interval
    K = 3
    m = tiny_model(K=K, seed=40 + seed)
    rng = np.random.default_rng(50 + seed)
    m.head.alpha.data = rng.normal(size=K)
    m.head.log_beta.data = rng.normal(0.0, 0.5, size=K)
    m.head.b.data = rng.normal(size=K)
    seq = make_seq(15, K, seed=60 + seed)
    with ag.no_grad():
        H = m.encode(seq)
        scores = m.head.base_scores(H)
        comp = m._compensator(seq, scores, TRAIN_QUAD_POINTS).item()
    beta = np.exp(m.head.log_beta.data)

    def total_intensity(s, c):
        return float(np.sum(beta * np.logaddexp(0.0, (m.head.alpha.data * s + c) / beta)))

    ref = sum(quad(total_intensity, 0.0, g, args=(c,), epsabs=0.0, epsrel=1e-12)[0]
              for g, c in zip(np.diff(seq.timestamps), scores.data[:-1]))
    assert abs(comp - ref) <= 1e-5 * ref, (comp, ref)


def trapezoid_rule(seq, S):
    """Offsets and weights of the S-point trapezoid rule on every interval,
    built as the composed compensator built them."""
    gaps = np.diff(seq.timestamps)
    frac = np.tile(np.linspace(0.0, 1.0, S), (len(gaps), 1))
    w = np.full(S, 1.0 / (S - 1))
    w[0] = w[-1] = 0.5 / (S - 1)
    return frac * gaps[:, None], gaps[:, None] * w


def assert_compensators_agree(m, seq, scores, S):
    """The model's compensator and the composed oracle on the same rule agree
    in value (1e-12) and in the gradients of scores, alpha and log_beta
    (1e-10, relative)."""
    offsets, weights = trapezoid_rule(seq, S)
    out = []
    for comp in (lambda sc: m._compensator(seq, sc, S),
                 lambda sc: composed_compensator(m.head, offsets, weights, sc[:-1])):
        m.zero_grad()
        sc = Parameter(scores.copy())
        value = comp(sc)
        ag.backward(value)
        out.append((value.item(), sc.grad, m.head.alpha.grad.copy(), m.head.log_beta.grad.copy()))
    (fused, *fused_grads), (oracle, *oracle_grads) = out
    assert abs(fused - oracle) <= 1e-12 * abs(oracle), (fused, oracle)
    for name, a, b in zip(("scores", "alpha", "log_beta"), fused_grads, oracle_grads):
        assert rel_err(a, b, floor=0.0) < 1e-10, name


# the evaluation default and the training rule
RULES = [pytest.param(1024, id="trapezoid-1024"),
         pytest.param(TRAIN_QUAD_POINTS, id=f"train-{TRAIN_QUAD_POINTS}")]


@pytest.mark.parametrize("S", RULES)
@pytest.mark.parametrize("blocks", ["one interval", "one block", "one block + 1",
                                    "several blocks"])
def test_fused_compensator_matches_composed_oracle(S, blocks):
    K = 3
    rows = model_module._BLOCK_ELEMS // (K * S)
    assert rows > 1
    n = {"one interval": 1, "one block": rows, "one block + 1": rows + 1,
         "several blocks": 3 * rows + 2}[blocks]
    m = tiny_model(K=K, seed=21)
    rng = np.random.default_rng(22)
    m.head.alpha.data = rng.normal(size=K)
    m.head.log_beta.data = rng.normal(0.0, 0.5, size=K)
    seq = make_seq(n + 1, K, seed=23)
    assert_compensators_agree(m, seq, rng.normal(size=(n + 1, K)), S)


@pytest.mark.parametrize("S", RULES)
@pytest.mark.parametrize("edge", ["alpha 0", "scores +40", "scores -40", "large |log beta|"])
def test_fused_compensator_matches_composed_oracle_at_the_edges(S, edge):
    K, n = 3, 7
    m = tiny_model(K=K, seed=24)
    rng = np.random.default_rng(25)
    m.head.alpha.data = np.zeros(K) if edge == "alpha 0" else rng.normal(size=K)
    m.head.log_beta.data = (np.array([-6.0, 0.5, 6.0]) if edge == "large |log beta|"
                            else rng.normal(0.0, 0.5, size=K))
    scores = rng.normal(size=(n + 1, K))
    if edge.startswith("scores"):
        scores += 40.0 if edge.endswith("+40") else -40.0
    assert_compensators_agree(m, make_seq(n + 1, K, seed=26), scores, S)


def _arrays_reachable(fn):
    """Every numpy array a closure can reach through its cells, the
    functions and tuples in them, and array bases."""
    seen, stack, arrays = set(), [fn], []
    while stack:
        x = stack.pop()
        if id(x) in seen or x is None:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            arrays.append(x)
            stack.append(x.base)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
        elif callable(x) and getattr(x, "__closure__", None):
            stack.extend(c.cell_contents for c in x.__closure__)
    return arrays


def test_fused_compensator_keeps_only_reduced_arrays_for_backward():
    K, n, S = 3, 17, 1024
    m = tiny_model(K=K, seed=27)
    seq = make_seq(n + 1, K, seed=28)
    comp = m._compensator(seq, Parameter(np.ones((n + 1, K))), S)
    held = _arrays_reachable(comp._backward)
    assert held and max(a.size for a in held) <= 4 * n * K


def test_fused_compensator_is_untracked_under_no_grad():
    m = tiny_model(K=2)
    seq = make_seq(5, 2, seed=29)
    with ag.no_grad():
        comp = m._compensator(seq, Parameter(np.ones((5, 2))), 10)
    assert not comp.requires_grad and comp._parents == () and comp._backward is None


@pytest.mark.parametrize("n_quad", [1, 0, -3])
def test_trapezoid_needs_two_points(n_quad):
    m = tiny_model(K=2)
    seq = make_seq(4, 2, seed=30)
    with pytest.raises(ValueError, match="at least 2 points"):
        m.score(seq, n_quad=n_quad)
    with pytest.raises(ValueError, match="at least 2 points"):
        evaluate(m, Dataset([seq], 2), n_quad=n_quad)


def test_loglik_requires_two_events():
    m = tiny_model(K=2)
    seq = EventSequence(np.array([1.0]), np.array([1]), 2)
    with pytest.raises(ValueError, match="at least two events"):
        m.score(seq)


def test_loglik_event_term_gradient_sign():
    # raising the intensity of an observed event's type raises the likelihood
    m = tiny_model(K=2, seed=13)
    seq = EventSequence(np.array([0.5, 1.0, 2.0]), np.array([1, 2, 2]), 2)
    m.zero_grad()
    H = m.encode(seq)
    ag.backward(m._event_term(seq, m.head.base_scores(H)))
    # both scored events have type 2; the type-2 bias must push log-lik up
    assert m.head.b.grad[1] > 0.0
    assert m.head.b.grad[0] == 0.0


# -- prediction ---------------------------------------------------------------


def test_predict_uniform_when_type_head_is_zero():
    m = tiny_model(K=4)
    m.pred.P_e.data = np.zeros((4, 8))
    seq = make_seq(5, 4, seed=16)
    result = m.predict_next(seq)
    np.testing.assert_allclose(result.probs, np.full(4, 0.25), atol=1e-12)


def test_predict_argmax_invariant_to_row_constant_shift():
    m = tiny_model(K=3, seed=17)
    seq = make_seq(6, 3, seed=18)
    before = m.predict_next(seq)
    v = np.random.default_rng(19).normal(size=8)
    m.pred.P_e.data = m.pred.P_e.data + np.outer(np.ones(3), v)
    after = m.predict_next(seq)
    assert before.next_type == after.next_type
    np.testing.assert_allclose(before.probs, after.probs, atol=1e-9)


def test_trained_model_learns_alternation():
    # deterministic two-type alternating stream; next-type accuracy > 95%
    K = 2
    seqs = []
    for s in range(12):
        n = 24
        start = 1.0 + 0.1 * s
        t = start + 0.5 * np.arange(n)
        k = np.tile([1, 2], n // 2) if s % 2 == 0 else np.tile([2, 1], n // 2)
        seqs.append(EventSequence(t, k, K))
    m = tiny_model(K=K, d_model=8, d_state=4, n_layers=1, seed=20)
    opt = Adam(m.parameters(), lr=1e-2)
    for _ in range(25):
        for seq in seqs:
            m.zero_grad()
            ag.backward(m.losses(seq).total)
            clip_gradients(m.parameters(), 5.0)
            opt.step()
    test_seq = EventSequence(2.0 + 0.5 * np.arange(40),
                             np.tile([1, 2], 20), K)
    H = m.encode(test_seq)
    with ag.no_grad():
        logits = m.pred.logits(H[:len(test_seq) - 1]).data
    acc = np.mean(np.argmax(logits, axis=1) + 1 == test_seq.types[1:])
    assert acc > 0.95


# -- losses ---------------------------------------------------------------


def test_losses_zero_at_their_minima():
    # constant hidden state h0 = e1 via zeroed encoder and MLP bias; a one-hot
    # type head and an exact time head then drive both auxiliary losses to 0
    m = tiny_model(K=2, d_model=4)
    for _, p in m.named_parameters():
        p.data = np.zeros_like(p.data)
    m.mlp.b2.data = np.array([1.0, 0.0, 0.0, 0.0])
    m.pred.P_e.data = np.array([[30.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    m.pred.P_t.data = np.array([[5.0, 0.0, 0.0, 0.0]])
    # predicted next time is always 5.0; with t = [1, 5] the true gap is 4 and
    # the anchored predicted gap is 5 - 1 = 4
    seq = EventSequence(np.array([1.0, 5.0]), np.array([1, 1]), 2)
    parts = m.losses(seq)
    assert parts.event.item() < 1e-12
    assert parts.time.item() == 0.0


def test_losses_weighted_composition():
    m = tiny_model(K=2, seed=21)
    seq = make_seq(7, 2, seed=22)
    parts = m.losses(seq)
    recombined = -parts.log_likelihood.item() + 1.0 * parts.event.item() \
        + 1e-4 * parts.time.item()
    np.testing.assert_allclose(parts.total.item(), recombined, rtol=1e-12)


def test_losses_requires_two_events():
    m = tiny_model(K=2)
    with pytest.raises(ValueError, match="at least two events"):
        m.losses(EventSequence(np.array([1.0]), np.array([1]), 2))


def test_full_model_gradients_match_fd():
    # 5 events, K=2, d_model=8, one layer
    m = tiny_model(K=2, d_model=8, d_state=2, n_layers=1, seed=23)
    seq = EventSequence(np.array([0.4, 1.1, 1.9, 2.5, 3.3]),
                        np.array([1, 2, 1, 2, 2]), 2)
    params = m.parameters()
    errs = check_param_grads(lambda: m.losses(seq).total, params)
    assert max(errs.values()) < 1e-4, {k: v for k, v in errs.items() if v >= 1e-4}


def test_parameter_names_are_unique_paths():
    m = tiny_model(K=3, n_layers=2)
    names = [n for n, _ in m.named_parameters()]
    assert len(names) == len(set(names))
    assert "layers.0.ssm.A_log" in names


# Default mhp / mhp-e (d_model 64, d_state 16, d_conv 4, expand 2, K 5, ff 256):
# per-block parameter names and shapes, in the order a model lists them.
_MAMBA_BLOCK = [("norm_scale", (64,)), ("in_proj", (64, 256)), ("conv_kernel", (4, 128)),
                ("conv_bias", (128,)), ("ssm.A_log", (128, 16)), ("ssm.W_B", (128, 16)),
                ("ssm.W_C", (128, 16)), ("ssm.D", (128,)), ("out_proj", (128, 64))]
_ATTN_BLOCK = [("norm1", (64,)), ("W_q", (64, 64)), ("W_k", (64, 64)), ("W_v", (64, 64)),
               ("W_o", (64, 64)), ("norm2", (64,)), ("W_ff1", (64, 256)), ("b_ff1", (256,)),
               ("W_ff2", (256, 64)), ("b_ff2", (64,))]
_HEADS = [("mlp.W1", (64, 64)), ("mlp.b1", (64,)), ("mlp.W2", (64, 64)), ("mlp.b2", (64,)),
          ("head.alpha", (5,)), ("head.W", (5, 64)), ("head.b", (5,)),
          ("head.log_beta", (5,)), ("pred.P_e", (5, 64)), ("pred.P_t", (1, 64))]


def _blocks(prefix, n, block):
    return [(f"{prefix}.{i}.{name}", shape) for i in range(n) for name, shape in block]


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_default_parameter_names_and_shapes_are_pinned(arch):
    # checkpoint key order, Adam state and the clip-norm sum all follow this order
    if arch == "mhp":
        encoder = _blocks("layers", 4, _MAMBA_BLOCK)
    else:
        encoder = _blocks("layers", 2, _MAMBA_BLOCK) + _blocks("attn_layers", 4, _ATTN_BLOCK)
    m = build_model(arch, {"K": 5})
    got = [(name, p.shape) for name, p in m.named_parameters()]
    assert got == [("embedding", (64, 5))] + encoder + _HEADS
