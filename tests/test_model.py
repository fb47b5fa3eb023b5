import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spence

from helpers import (RULE_BLOCK_ELEMS, both_branch_integral, check_param_grads,
                     composed_compensator, intensity,
                     one_hot_log_likelihood, rel_err, rule_integral)
from mamba_hawkes import autograd as ag
from mamba_hawkes import model as model_module
from mamba_hawkes.autograd import Parameter, Tensor
from mamba_hawkes.checkpoint import build_model
from mamba_hawkes.data import Dataset, EventSequence
from mamba_hawkes.hybrid import MambaHawkesHybrid, MhpEConfig
from mamba_hawkes.model import MambaHawkes, MhpConfig
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
    """MambaHawkes.deltas of timestamps `gaps` apart, the first one at time
    gaps[0]."""
    return tiny_model().deltas(np.cumsum(gaps))


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
    out = m.embed(seq.type_indices).data
    np.testing.assert_array_equal(out[0], np.eye(4)[1])
    np.testing.assert_array_equal(out[1], np.eye(4)[0])


def test_embed_single_event_shape():
    m = tiny_model(K=3)
    seq = EventSequence(np.array([0.7]), np.array([2]), 3)
    assert m.embed(seq.type_indices).shape == (1, 8)


def test_embed_gradient_counts_occurrences():
    m = tiny_model(K=3, d_model=4)
    seq = EventSequence(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 2, 1, 2]), 3)
    m.zero_grad()
    ag.backward(ag.reduce_sum(m.embed(seq.type_indices)))
    np.testing.assert_array_equal(m.embedding.grad,
                                  np.outer(np.ones(4), [1.0, 3.0, 0.0]))
    errs = check_param_grads(lambda: ag.reduce_sum(m.embed(seq.type_indices)), [m.embedding])
    assert max(errs.values()) < 1e-4


def test_embed_type_out_of_range():
    m = tiny_model(K=2)
    seq = EventSequence(np.array([1.0]), np.array([3]), 3)
    with pytest.raises(ValueError, match="out of range"):
        m.embed(seq.type_indices)


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
    # perturbed heads: the compensator, in the loss and in reports alike,
    # within 1e-12 relative of scipy's adaptive quadrature of the total
    # intensity, interval by interval
    K = 3
    m = tiny_model(K=K, seed=40 + seed)
    rng = np.random.default_rng(50 + seed)
    m.head.alpha.data = rng.normal(size=K)
    m.head.log_beta.data = rng.normal(0.0, 0.5, size=K)
    m.head.b.data = rng.normal(size=K)
    seq = make_seq(15, K, seed=60 + seed)
    with ag.no_grad():
        H = m.encode(seq)
        scores = m.heads(H).scores
        comp = ag.reduce_sum(m.head.integral(np.diff(seq.timestamps), scores[:-1])).item()
    ref = adaptive_compensator(m.head, np.diff(seq.timestamps), scores.data[:-1])
    assert abs(comp - ref) <= 1e-12 * ref, (comp, ref)


def adaptive_compensator(head, gaps, scores):
    """scipy's adaptive quadrature of the total intensity, interval by interval."""
    alpha, beta = head.alpha.data, np.exp(head.log_beta.data)

    def total_intensity(s, c):
        return float(np.sum(beta * np.logaddexp(0.0, (alpha * s + c) / beta)))

    return sum(quad(total_intensity, 0.0, g, args=(c,), epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for g, c in zip(gaps, scores))


def trapezoid(S):
    """Nodes and weights of the S-point trapezoid rule on [0, 1]."""
    w = np.full(S, 1.0 / (S - 1))
    w[0] = w[-1] = 0.5 / (S - 1)
    return np.linspace(0.0, 1.0, S), w


def trapezoid_error_bounds(head, gaps, S):
    """Bounds on the S-point trapezoid rule's error in the compensator and in
    its gradients in scores [n, K], alpha and log_beta: per interval,
    gap h^2 / 12 max |f''| for each integrand f, h = gap / (S - 1). In u,
    |sigma'| <= 1/4, |sigma''| <= 1 / (6 sqrt 3) and |sigma' + u sigma''| <= 1/4."""
    a, beta = head.alpha.data, np.exp(head.log_beta.data)
    r = np.abs(a) / beta                                 # |du / d offset|
    c = gaps[:, None] ** 3 / (12.0 * (S - 1) ** 2)
    curv = 0.25 * c * np.abs(a) * r
    s2 = 1.0 / (6.0 * np.sqrt(3.0))
    return (curv.sum(), s2 * c * r * r,
            (c * (0.5 * r + s2 * gaps[:, None] * r * r)).sum(axis=0), curv.sum(axis=0))


def value_and_grads(head, comp, scores):
    """comp(scores), a compensator, and its gradients in scores, alpha and log_beta."""
    head.zero_grad()
    sc = Parameter(np.array(scores, dtype=np.float64))
    value = comp(sc)
    ag.backward(value)
    return [value.item(), sc.grad, head.alpha.grad.copy(), head.log_beta.grad.copy()]


def assert_compensators_agree(m, seq, scores, S):
    """The S-point trapezoid rule, composed of generic ops and as the blocked
    rule_integral node, agree in value (1e-12) and in the gradients of
    scores, alpha and log_beta (1e-10, relative); the closed form is within
    the rule's error bound of them, in each."""
    gaps = np.diff(seq.timestamps)
    nodes, w = trapezoid(S)
    (exact, *exact_grads), (oracle, *oracle_grads), (blocked, *blocked_grads) = (
        value_and_grads(m.head, comp, scores[:-1])
        for comp in (lambda sc: ag.reduce_sum(m.head.integral(gaps, sc)),
                     lambda sc: composed_compensator(m.head, gaps[:, None] * nodes,
                                                     gaps[:, None] * w, sc),
                     lambda sc: rule_integral(m.head, gaps, nodes, w, sc)))
    assert abs(blocked - oracle) <= 1e-12 * abs(oracle), (blocked, oracle)
    for name, a, b in zip(("scores", "alpha", "log_beta"), blocked_grads, oracle_grads):
        assert rel_err(a, b, floor=0.0) < 1e-10, name
    bound, *grad_bounds = trapezoid_error_bounds(m.head, gaps, S)
    assert abs(exact - oracle) <= bound + 1e-12 * abs(oracle), (exact, oracle, bound)
    for name, a, b, bd in zip(("scores", "alpha", "log_beta"), exact_grads, oracle_grads,
                              grad_bounds):
        assert np.all(np.abs(a - b) <= bd + 1e-10 * np.abs(b).max()), name


# the node counts of the trapezoid rules that the model integrated by before
# the closed form: in reported likelihoods and in the training loss
RULES = [pytest.param(1024, id="trapezoid-1024"),
         pytest.param(100, id="train-100")]


@pytest.mark.parametrize("S", RULES)
@pytest.mark.parametrize("blocks", ["one interval", "one block", "one block + 1",
                                    "several blocks"])
def test_fused_compensator_matches_composed_oracle(S, blocks):
    # interval counts at the edges of rule_integral's blocks
    K = 3
    rows = RULE_BLOCK_ELEMS // (K * S)
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


@pytest.mark.parametrize("S", RULES)
@pytest.mark.parametrize("intervals", [1, 7, 8, 9, 130])
def test_score_equals_one_hot_log_likelihood_bit_for_bit(S, intervals, monkeypatch):
    # the gathered event term gives the same bits as the one-hot term it
    # replaced, in the value and in the gradients; and evaluate, given the
    # node count of a former rule, reports the same bits per event
    K = 2
    m = tiny_model(K=K, seed=31)
    rng = np.random.default_rng(32)
    m.head.alpha.data = rng.normal(size=K)
    m.head.log_beta.data = rng.normal(0.0, 0.5, size=K)
    seq = make_seq(intervals + 1, K, seed=33)
    scores = rng.normal(size=(intervals + 1, K))
    out = []
    heads = m.heads
    for ll in (lambda sc: m.score(seq).log_likelihood,
               lambda sc: one_hot_log_likelihood(m.head, seq, sc)):
        m.zero_grad()
        sc = Parameter(scores.copy())
        monkeypatch.setattr(m, "heads",
                            lambda hidden, rows: heads(hidden, rows)._replace(scores=sc[:-1]))
        value = ll(sc)
        ag.backward(value)
        out.append([value.data, sc.grad, m.head.alpha.grad.copy(), m.head.log_beta.grad.copy()])
    for name, a, b in zip(("ll", "scores", "alpha", "log_beta"), *out):
        assert np.array_equal(a, b), name
    reported = evaluate(m, Dataset([seq], K), n_quad=S).ll_per_event
    assert reported == float(out[0][0]) / intervals


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
    K, n = 3, 17
    m = tiny_model(K=K, seed=27)
    seq = make_seq(n + 1, K, seed=28)
    comp = m.head.integral(np.diff(seq.timestamps), Parameter(np.ones((n, K))))
    held = _arrays_reachable(comp._backward)
    assert held and max(a.size for a in held) <= 4 * n * K


def test_fused_compensator_is_untracked_under_no_grad():
    m = tiny_model(K=2)
    seq = make_seq(5, 2, seed=29)
    with ag.no_grad():
        comp = m.head.integral(np.diff(seq.timestamps), Parameter(np.ones((4, 2))))
    assert not comp.requires_grad and comp._parents == () and comp._backward is None


# -- the closed form ----------------------------------------------------------


def test_dilog_series_matches_spence():
    # F(u) = -Li2(-e^u) = -spence(1 + e^u), and F(u) = u^2 / 2 + pi^2 / 6 - F(-u);
    # spence's argument rounds for u << 0, hence the absolute floor
    u = np.linspace(-20.0, 20.0, 4001)
    tail = model_module._dilog_series(np.log1p(np.exp(-np.abs(u))))
    F = np.where(u > 0.0, u * u / 2.0 + model_module._PI2_6 - tail, tail)
    np.testing.assert_allclose(F, -spence(1.0 + np.exp(u)), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("alpha_scale", [0.0, 0.01, 1.0, 5.0])
def test_compensator_matches_extrapolated_trapezoid_at_large_S(alpha_scale):
    # rule_integral at S and 2S - 1 nodes, extrapolated (Richardson, error
    # O(h^4)), in value and gradients; alpha 0.01 takes the midpoint series
    K, n, S = 3, 6, 4001
    m = tiny_model(K=K, seed=34)
    rng = np.random.default_rng(35)
    m.head.alpha.data = alpha_scale * rng.normal(size=K)
    m.head.log_beta.data = rng.normal(0.0, 0.5, size=K)
    gaps = rng.uniform(0.2, 1.5, size=n)
    scores = rng.normal(size=(n, K))
    exact = value_and_grads(m.head, lambda sc: ag.reduce_sum(m.head.integral(gaps, sc)), scores)
    coarse, fine = [value_and_grads(m.head, lambda sc, rule=trapezoid(s):
                                    rule_integral(m.head, gaps, *rule, sc), scores)
                    for s in (S, 2 * S - 1)]
    for name, a, c, f in zip(("value", "scores", "alpha", "log_beta"), exact, coarse, fine):
        ref = (4.0 * f - c) / 3.0
        assert rel_err(a, ref, floor=1e-300) < 1e-12, name


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.9, 1.1, 3.0, 40.0])
def test_compensator_gradients_match_fd_on_both_sides_of_the_branch(ratio):
    # every |du| = |alpha| gap / beta is ratio * _SMALL_DU: the midpoint
    # series below 1, the difference of the antiderivative above
    K, n = 3, 5
    m = tiny_model(K=K, seed=36)
    m.head.alpha.data = ratio * model_module._SMALL_DU * np.array([1.0, -1.0, 1.0])
    gaps = np.ones(n)
    scores = Parameter(np.random.default_rng(37).normal(0.0, 3.0, size=(n, K)))
    errs = check_param_grads(lambda: ag.reduce_sum(m.head.integral(gaps, scores)),
                             [scores, m.head.alpha, m.head.log_beta])
    assert max(errs.values()) < 1e-7, errs


def test_compensator_branches_agree_where_they_meet():
    # |du| just below and just above _SMALL_DU, over u0 from -40 to 40: the
    # alpha gradient of the difference of F loses about 4e-13 |u0| there
    K, n = 2, 41
    m = tiny_model(K=K)
    gaps = np.ones(n)
    scores = np.linspace(-40.0, 40.0, n)[:, None] * np.ones(K)
    sides = []
    for f in (1.0 - 1e-12, 1.0 + 1e-12):
        m.head.alpha.data = f * model_module._SMALL_DU * np.array([1.0, -1.0])
        sides.append(value_and_grads(m.head, lambda sc: ag.reduce_sum(m.head.integral(gaps, sc)),
                                     scores))
    for name, a, b in zip(("value", "scores", "alpha", "log_beta"), *sides):
        assert rel_err(a, b, floor=1e-300) < 1e-10, name


@pytest.mark.parametrize("edge", ["alpha 0", "u0 +40", "u0 -40", "alpha -50",
                                  "log_beta -3", "log_beta +3"])
def test_compensator_edge_cases(edge):
    # value against adaptive quadrature (1e-12 relative), gradients against
    # finite differences
    K, n = 3, 6
    m = tiny_model(K=K, seed=38)
    rng = np.random.default_rng(39)
    m.head.alpha.data = {"alpha 0": np.zeros(K),
                         "alpha -50": np.array([-50.0, -5.0, -50.0])}.get(edge, rng.normal(size=K))
    m.head.log_beta.data = np.full(K, {"log_beta -3": -3.0, "log_beta +3": 3.0}.get(edge, 0.2))
    beta = np.exp(m.head.log_beta.data)
    u0 = {"u0 +40": 40.0, "u0 -40": -40.0}.get(edge)
    scores = Parameter(rng.normal(size=(n, K)) if u0 is None else np.full((n, K), u0) * beta)
    gaps = rng.uniform(0.2, 1.5, size=n)
    with ag.no_grad():
        comp = ag.reduce_sum(m.head.integral(gaps, scores)).item()
    ref = adaptive_compensator(m.head, gaps, scores.data)
    assert abs(comp - ref) <= 1e-12 * ref, (comp, ref)
    errs = check_param_grads(lambda: ag.reduce_sum(m.head.integral(gaps, scores)),
                             [scores, m.head.alpha, m.head.log_beta])
    assert max(errs.values()) < 1e-6, errs


@pytest.mark.parametrize("case", ["all small", "none small", "mixed"])
def test_integral_computes_only_the_branches_its_intervals_take(case, monkeypatch):
    # value and the three gradients bit for bit those of both branches on
    # every interval; with every |du| below _SMALL_DU (alpha 0, as in a
    # freshly built model) the dilogarithm never runs
    K, n = 3, 40
    m = tiny_model(K=K, seed=70)
    rng = np.random.default_rng(71)
    m.head.alpha.data = {"all small": np.zeros(K), "none small": np.array([0.5, -0.7, 1.2]),
                         "mixed": rng.normal(0.0, 0.1, size=K)}[case]
    m.head.log_beta.data = rng.normal(0.0, 0.3, size=K)
    gaps = rng.uniform(0.2, 1.5, size=n)
    small = np.abs(m.head.alpha.data * gaps[:, None] / np.exp(m.head.log_beta.data)) < 0.05
    assert {"all small": small.all(), "none small": not small.any(),
            "mixed": small.any() and not small.all()}[case]
    scores = rng.normal(size=(n, K))
    out = []
    for integral in (m.head.integral, lambda g, sc: both_branch_integral(m.head, g, sc)):
        if case == "all small" and integral == m.head.integral:
            monkeypatch.setattr(model_module, "_dilog_series", None)
        m.zero_grad()
        sc = Parameter(scores.copy())
        value = integral(gaps, sc)
        ag.backward(ag.reduce_sum(value))
        out.append([value.data, sc.grad, m.head.alpha.grad.copy(), m.head.log_beta.grad.copy()])
        monkeypatch.undo()
    for name, a, b in zip(("value", "scores", "alpha", "log_beta"), *out):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("K", [5, 11])
def test_integral_of_concatenated_sequences_equals_each_call_bit_for_bit(K):
    # each interval's value is a row sum of its own [K] row, so sequences of
    # 1, 7, 64 and 300 intervals called at once give the bits of each
    # sequence's own call and of each interval's (a BLAS product h @ beta
    # rounds a row differently with the row count)
    m = tiny_model(K=K, seed=74)
    rng = np.random.default_rng(75)
    m.head.alpha.data = rng.normal(0.0, 0.1, size=K)     # both branches taken
    m.head.log_beta.data = rng.normal(0.0, 0.3, size=K)
    counts = [1, 7, 64, 300]
    gaps, scores = rng.uniform(0.2, 1.5, size=sum(counts)), rng.normal(size=(sum(counts), K))
    with ag.no_grad():
        whole = m.head.integral(gaps, Tensor(scores)).data
        alone = [m.head.integral(gaps[s], Tensor(scores[s])).data
                 for s in (slice(a - n, a) for a, n in zip(np.cumsum(counts), counts))]
        one = [m.head.integral(gaps[i:i + 1], Tensor(scores[i:i + 1])).data
               for i in range(len(gaps))]
    assert np.array_equal(whole, np.concatenate(alone))
    assert np.array_equal(whole, np.concatenate(one))


def test_a_tracked_integral_of_several_sequences_has_the_gradients_of_separate_calls():
    # each sequence's compensator weighted by its own gradient, which
    # reaches each of the sequence's intervals
    K, n = 3, 40
    m = tiny_model(K=K, seed=72)
    rng = np.random.default_rng(73)
    m.head.alpha.data = rng.normal(0.0, 0.1, size=K)     # both branches taken
    m.head.log_beta.data = rng.normal(0.0, 0.3, size=K)
    gaps, scores = rng.uniform(0.2, 1.5, size=n), rng.normal(size=(n, K))
    ends, weights = np.array([13, 14, n]), rng.normal(size=3)
    params = [m.head.alpha, m.head.log_beta]
    m.zero_grad()
    sc = Parameter(scores.copy())
    per_interval = np.repeat(weights, np.diff(ends, prepend=0))
    ag.backward(ag.reduce_sum(ag.mul(m.head.integral(gaps, sc), per_interval)))
    got = [sc.grad] + [p.grad.copy() for p in params]
    m.zero_grad()
    sc = Parameter(scores.copy())
    for s, wj in zip((slice(0, 13), slice(13, 14), slice(14, n)), weights):
        ag.backward(ag.mul(ag.reduce_sum(m.head.integral(gaps[s], sc[s])), wj))
    for name, a, b in zip(("scores", "alpha", "log_beta"), got,
                          [sc.grad] + [p.grad for p in params]):
        assert rel_err(a, b) < 1e-12, name


def test_evaluate_quad_points_change_nothing():
    # the node count evaluate still takes is checked and ignored
    m = tiny_model(K=2)
    ds = Dataset([make_seq(6, 2, seed=30), make_seq(9, 2, seed=31)], 2)
    assert evaluate(m, ds, n_quad=2) == evaluate(m, ds, n_quad=1024) == evaluate(m, ds)
    with pytest.raises(ValueError, match="at least 2"):
        evaluate(m, ds, n_quad=1)


def test_loglik_requires_two_events():
    m = tiny_model(K=2)
    seq = EventSequence(np.array([1.0]), np.array([1]), 2)
    with pytest.raises(ValueError, match="at least two events"):
        m.score(seq)


def test_loglik_event_term_gradient_sign():
    # raising the intensity of an observed event's type raises the likelihood;
    # adding back the compensator leaves the event term's gradient
    m = tiny_model(K=2, seed=13)
    seq = EventSequence(np.array([0.5, 1.0, 2.0]), np.array([1, 2, 2]), 2)
    m.zero_grad()
    scores = m.heads(m.encode(seq)).scores
    comp = ag.reduce_sum(m.head.integral(np.diff(seq.timestamps), scores[:-1]))
    ag.backward(ag.add(m.score(seq).log_likelihood, comp))
    # both scored events have type 2; the type-2 bias must push log-lik up
    assert m.head.b.grad[1] > 0.0
    assert m.head.b.grad[0] == 0.0


# -- the heads ----------------------------------------------------------------


@pytest.mark.parametrize("K", [1, 2, 5, 11])
@pytest.mark.parametrize("d_model", [16, 64])
def test_heads_rows_keep_their_bits_at_every_row_count_and_offset(K, d_model):
    # each row's base scores, logits and time depend on that row alone:
    # 2- to 300-row calls equal the same rows of one 2000-row call
    m = tiny_model(K=K, d_model=d_model, seed=80)
    m.head.b.data = np.random.default_rng(81).normal(size=K)
    hidden = Tensor(np.random.default_rng(82).normal(size=(2000, d_model)))
    with ag.no_grad():
        whole = [part.data for part in m.heads(hidden)]
        for n in (2, 3, 5, 11, 17, 33, 63, 64, 65, 201, 300):
            for off in (0, 1, 7, 63, 64, 100, 1700):
                rows = np.arange(off, off + n)
                for got in (m.heads(Tensor(hidden.data[off:off + n])), m.heads(hidden, rows)):
                    for part, ref in zip(got, whole):
                        assert np.array_equal(part.data, ref[off:off + n]), (n, off)


def test_heads_are_one_node_with_gradients_matching_fd():
    K, d = 3, 8
    m = tiny_model(K=K, d_model=d, seed=83)
    rng = np.random.default_rng(84)
    m.head.b.data = rng.normal(size=K)
    hidden = Parameter(rng.normal(size=(70, d)))
    rows = np.array([0, 3, 4, 5, 9, 30, 64, 65, 69])
    w = [rng.normal(size=(len(rows), K)), rng.normal(size=(len(rows), K)),
         rng.normal(size=len(rows))]

    heads = m.heads(hidden, rows)
    node = heads.scores._parents[0]
    assert heads.logits._parents[0] is node and heads.times._parents[0] is node
    assert node._parents == (hidden, m.head.W, m.head.b, m.pred.P_e, m.pred.P_t)

    def loss():
        heads = m.heads(hidden, rows)
        return ag.add(ag.add(ag.reduce_sum(ag.mul(heads.scores, w[0])),
                             ag.reduce_sum(ag.mul(heads.logits, w[1]))),
                      ag.reduce_sum(ag.mul(heads.times, w[2])))
    params = [hidden, m.head.W, m.head.b, m.pred.P_e, m.pred.P_t]
    errs = check_param_grads(loss, params)
    assert max(errs.values()) < 1e-7, errs
    assert not np.any(hidden.grad[np.setdiff1d(np.arange(70), rows)])


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_score_gradients_match_fd(arch):
    # score is the group of one: a graph through the encoder, the heads node,
    # the per-sequence sums and the compensator, checked on all three outputs
    K = 3
    if arch == "mhp":
        m = tiny_model(K=K, d_model=8, d_state=2, seed=85)
    else:
        m = MambaHawkesHybrid(MhpEConfig(d_model=8, d_state=2, mamba_layers=1, attn_blocks=1,
                                         n_heads=2, K=K), seed=85)
    rng = np.random.default_rng(86)
    m.head.alpha.data = rng.normal(0.0, 0.5, size=K)
    seq = make_seq(7, K, seed=87)
    w = [rng.normal(size=(6, K)), rng.normal(size=6)]

    def loss():
        ll, logits, gaps = m.score(seq)
        return ag.add(ll, ag.add(ag.reduce_sum(ag.mul(logits, w[0])),
                                 ag.reduce_sum(ag.mul(gaps, w[1]))))
    errs = check_param_grads(loss, m.parameters())
    assert max(errs.values()) < 1e-4, {k: v for k, v in errs.items() if v >= 1e-4}


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_a_tracked_group_scores_and_differentiates_as_its_sequences_alone(arch):
    # ragged sequences scored as one group while a graph records: the
    # log-likelihoods, logits and gaps, and every parameter's gradient of a
    # loss on all three, are those of scoring each sequence alone and adding
    # up; under no_grad each value has the bits of its sequence's alone
    K = 3
    m = (tiny_model(K=K, d_model=8, d_state=2, seed=88) if arch == "mhp" else
         MambaHawkesHybrid(MhpEConfig(d_model=8, d_state=2, mamba_layers=1, attn_blocks=1,
                                      n_heads=2, K=K), seed=88))
    rng = np.random.default_rng(89)
    m.head.alpha.data = rng.normal(0.0, 0.5, size=K)
    seqs = [make_seq(n, K, seed=90 + n) for n in (5, 23, 2, 11)]
    w = [(rng.normal(size=(len(s) - 1, K)), rng.normal(size=len(s) - 1)) for s in seqs]

    def loss(score, wl, wg):
        ll, logits, gaps = score
        return ag.add(ll, ag.add(ag.reduce_sum(ag.mul(logits, wl)),
                                 ag.reduce_sum(ag.mul(gaps, wg))))
    m.zero_grad()
    scored = m.score_group(seqs)
    total = loss(scored[0], *w[0])
    for j in range(1, len(seqs)):
        total = ag.add(total, loss(scored[j], *w[j]))
    ag.backward(total)
    grouped = [p.grad.copy() for p in m.parameters()]
    m.zero_grad()
    for j, seq in enumerate(seqs):
        alone = m.score(seq)
        for a, b in zip(scored[j], alone):
            assert rel_err(a.data, b.data) < 1e-12
        ag.backward(loss(alone, *w[j]))
    for (name, p), g in zip(m.named_parameters(), grouped):
        assert rel_err(g, p.grad) < 1e-12, name
    with ag.no_grad():
        scored = m.score_group(seqs)
        for j, seq in enumerate(seqs):
            for a, b in zip(scored[j], m.score(seq)):
                assert np.array_equal(a.data, b.data)


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
        logits = m.heads(H[:len(test_seq) - 1]).logits.data
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
