import dataclasses
import json
import os

import numpy as np
import pytest

from helpers import (adam_step_reference, container, evaluate_one_by_one, json_checkpoint,
                     read_container, write_v1_checkpoint, write_v2_checkpoint)
import mamba_hawkes.checkpoint as ckpt_mod
import mamba_hawkes.training as train_mod
from mamba_hawkes import autograd as ag
from mamba_hawkes.autograd import Parameter
from mamba_hawkes.checkpoint import build_model, load_checkpoint, save_checkpoint
from mamba_hawkes.data import (Batch, DataError, Dataset, EventSequence,
                               make_synthetic_benchmark, save_jsonl)
from mamba_hawkes.hybrid import MambaHawkesHybrid, MhpEConfig
from mamba_hawkes.model import DELTA_MIN, MambaHawkes, MhpConfig
from mamba_hawkes.training import (Adam, Metrics, NumericsError, TrainConfig,
                                accumulate_gradients, clip_gradients, evaluate,
                                fit_poisson_baseline, loss_on_batch,
                                metrics_rows_to_csv, poisson_ll_per_event,
                                poisson_log_likelihood, train)


def write_benchmark(dirpath, seed=0, n_train=10, n_dev=3, n_test=3):
    splits = make_synthetic_benchmark(seed, n_train=n_train, n_dev=n_dev,
                                      n_test=n_test)
    os.makedirs(dirpath, exist_ok=True)
    for name, ds in splits.items():
        if len(ds):
            save_jsonl(ds, os.path.join(dirpath, f"{name}.jsonl"))
    return splits


def desk_config(data, out, **kw):
    base = dict(arch="mhp", d_model=8, d_state=4, n_layers=1,
                lr=1e-3, batch_size=4, epochs=1, patience=10, seed=0,
                eval_quad_points=256, data=str(data), out=str(out))
    base.update(kw)
    return TrainConfig.from_dict(base)


def test_train_config_defaults_match_reference_setup():
    cfg = TrainConfig()
    assert (cfg.d_model, cfg.lr, cfg.batch_size) == (64, 1e-4, 4)
    assert (cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps) == (0.9, 0.999, 1e-8)
    assert cfg.epochs == 50 and cfg.patience == 10


def test_train_config_takes_model_fields_from_model_configs():
    cfg = TrainConfig()
    assert len([f for f in dataclasses.fields(cfg) if f.init]) == 26
    for f in dataclasses.fields(MhpEConfig):
        if f.name != "K":
            assert getattr(cfg, f.name) == f.default, f.name
    # K comes from the data; mhp takes no hybrid field, so n_heads need not divide d_model
    assert TrainConfig(d_model=10).model_config_dict(K=3) == MhpConfig(d_model=10, K=3).to_dict()
    hybrid = TrainConfig(arch="mhp-e", d_model=8, n_heads=2).model_config_dict(K=2)
    assert hybrid == MhpEConfig(d_model=8, n_heads=2, K=2).to_dict()


def wrong_values(type_name):
    """Values of the wrong type for a field annotated `type_name`."""
    return ([True] * (type_name != "bool") + [1.5] * (type_name == "int")
            + ["1"] * (type_name in ("int", "float")) + [1] * (type_name in ("str", "bool")))


SCHEMA_CASES = [(cls, f.name, value) for cls in (MhpConfig, MhpEConfig, TrainConfig)
                for f in dataclasses.fields(cls) if f.init for value in wrong_values(f.type)]


@pytest.mark.parametrize("cls,name,value", SCHEMA_CASES,
                         ids=[f"{c.__name__}-{n}-{v!r}" for c, n, v in SCHEMA_CASES])
def test_config_refuses_a_wrong_typed_field(cls, name, value):
    with pytest.raises(ValueError, match=f"config field {name} must be of type "):
        cls.from_dict({name: value})


@pytest.mark.parametrize("cls", [MhpConfig, MhpEConfig, TrainConfig])
def test_config_round_trips_through_its_dict(cls):
    cfg = cls()
    assert cls.from_dict(cfg.to_dict()) == cfg
    changed = cls.from_dict({"d_model": 32, "event_loss_weight": 2, "mlp_hidden": 7})
    assert cls.from_dict(changed.to_dict()) == changed
    assert changed.event_loss_weight == 2 and type(changed.event_loss_weight) is int


# -- optimizer and clipping ------------------------------------------------


def test_adam_single_step_matches_formula():
    p = Parameter(np.array([1.0, -2.0]))
    p.grad = np.array([0.5, -1.0])
    opt = Adam([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    opt.step()
    g = np.array([0.5, -1.0])
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    expect = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p.data, expect, rtol=1e-12)


def test_adam_step_in_place_has_the_bits_of_its_expressions():
    # m, v and each parameter's data are updated in place, with the bits of
    # the expressions the step wrote before (kept as adam_step_reference)
    rng = np.random.default_rng(31)
    shapes = [(3, 4), (5,), (2, 1)]
    ours = [Parameter(rng.normal(size=s)) for s in shapes]
    ref = [Parameter(p.data.copy()) for p in ours]
    opts = [Adam(ps, lr=0.05, beta1=0.8, beta2=0.99, eps=1e-7) for ps in (ours, ref)]
    arrays = [p.data for p in ours] + opts[0].m + opts[0].v
    for _ in range(3):
        for p, q in zip(ours, ref):
            p.grad = rng.normal(size=p.shape) * rng.choice([1e-9, 1.0, 1e6])
            q.grad = p.grad.copy()
        ours[1].grad = ref[1].grad = None       # a parameter no gradient reached
        opts[0].step()
        adam_step_reference(opts[1])
        for p, q in zip(ours, ref):
            assert p.data.tobytes() == q.data.tobytes()
        for a, b in zip(opts[0].m + opts[0].v, opts[1].m + opts[1].v):
            assert a.tobytes() == b.tobytes()
    assert all(a is b for a, b in zip([p.data for p in ours] + opts[0].m + opts[0].v, arrays))


def test_clip_scales_norm_only():
    a = Parameter(np.array([3.0, 4.0]))
    b = Parameter(np.array([12.0]))
    a.grad = a.data.copy()
    b.grad = b.data.copy()
    pre = np.concatenate([a.grad, b.grad])
    norm, factor = clip_gradients([a, b], max_norm=6.5)
    assert norm == 13.0 and factor == 0.5
    post = np.concatenate([a.grad, b.grad])
    np.testing.assert_array_equal(post, factor * pre)  # direction preserved
    np.testing.assert_allclose(np.linalg.norm(post), 6.5)
    # under the threshold: untouched
    norm2, factor2 = clip_gradients([a, b], max_norm=100.0)
    assert factor2 == 1.0
    np.testing.assert_array_equal(np.concatenate([a.grad, b.grad]), post)


def test_clip_rejects_nonfinite_gradient():
    a = Parameter(np.array([3.0, 4.0]))
    b = Parameter(np.array([12.0]))
    a.grad = a.data.copy()
    b.grad = np.array([np.nan])
    with pytest.raises(NumericsError, match="non-finite gradient norm"):
        clip_gradients([a, b], max_norm=6.5)
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])  # nothing scaled


def test_train_nonfinite_gradient_names_batch(tmp_path, monkeypatch):
    write_benchmark(tmp_path / "data", seed=5, n_train=6, n_dev=2, n_test=0)
    backward = ag.backward

    def poisoned_backward(loss):
        leaf = next(n for n in ag.topo_order(loss) if isinstance(n, Parameter))
        walked = backward(loss)
        leaf.grad.flat[0] = np.nan
        return walked

    monkeypatch.setattr(ag, "backward", poisoned_backward)
    with pytest.raises(NumericsError, match="gradient norm nan at epoch 1, batch 0") as exc:
        train(desk_config(tmp_path / "data", tmp_path / "out"))
    assert exc.value.epoch == 1 and exc.value.batch_index == 0


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_step_gradients_equal_one_batch_graph(arch):
    # a step backpropagates each sequence before scoring the next; in batch
    # order every parameter adds the same terms in the same order as one
    # walk over the graph of the whole batch
    rng = np.random.default_rng(12)
    seqs = [EventSequence(np.cumsum(rng.exponential(1.0, size=L)),
                          rng.integers(1, 6, size=L), 5) for L in (37, 90, 52, 63)]
    bat = Batch(seqs)
    model = build_model(arch, {"K": 5}, seed=3)
    total, ll_one, events_one = loss_on_batch(model, bat)
    nodes_one = ag.backward(ag.div(total, 4.0))
    expected = [p.grad.copy() for p in model.parameters()]
    model.zero_grad()
    ll, events, nodes, _, _ = accumulate_gradients(model, bat)
    for (name, p), g in zip(model.named_parameters(), expected):
        assert np.array_equal(p.grad, g), name
    assert (ll, events) == (ll_one, events_one)
    # each of the 4 walks visits every parameter leaf, a division node and
    # its constant; the one walk visits the leaves once, plus the 3 adds that
    # join the totals, one division node and one constant
    assert nodes == nodes_one + 3 * (len(expected) + 1)


def test_train_nonfinite_loss_in_third_sequence_leaves_parameters(tmp_path, monkeypatch):
    write_benchmark(tmp_path / "data", seed=5, n_train=6, n_dev=2, n_test=0)
    models, initial, scored, walked, steps = [], [], [], [], []

    def poisoned_build(arch, cfg_dict, seed=0):
        model = build_model(arch, cfg_dict, seed=seed)
        losses = model.losses

        def poisoned_losses(seq):
            scored.append(seq)
            parts = losses(seq)
            if len(scored) == 3:  # the third sequence of the first batch
                return parts._replace(total=ag.mul(parts.total, np.nan))
            return parts

        model.losses = poisoned_losses
        models.append(model)
        initial.extend(p.data.copy() for p in model.parameters())
        return model

    backward = ag.backward

    def counted_backward(loss):
        walked.append(loss)
        return backward(loss)

    monkeypatch.setattr(train_mod, "build_model", poisoned_build)
    monkeypatch.setattr(ag, "backward", counted_backward)
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(self))
    with pytest.raises(NumericsError, match="non-finite loss at epoch 1, batch 0") as exc:
        train(desk_config(tmp_path / "data", tmp_path / "out"))
    assert exc.value.epoch == 1 and exc.value.batch_index == 0
    # the first two sequences were backpropagated, the third was not, and
    # Adam never stepped
    assert len(scored) == 3 and len(walked) == 2 and not steps
    for (name, p), data in zip(models[0].named_parameters(), initial):
        assert np.array_equal(p.data, data), name


def test_metrics_json_counts_tie_nudges(tmp_path):
    write_benchmark(tmp_path / "data", seed=1, n_train=4, n_dev=2, n_test=0)
    train_path = tmp_path / "data" / "train.jsonl"
    lines = train_path.read_text().splitlines()
    for i in (0, 2):  # one tie in each of two sequences
        rec = json.loads(lines[i])
        rec["events"][2]["t"] = rec["events"][1]["t"]
        lines[i] = json.dumps(rec)
    train_path.write_text("\n".join(lines) + "\n")
    result = train(desk_config(tmp_path / "data", tmp_path / "out"))
    assert json.load(open(result.metrics_json))["tie_nudges"] == 2


# -- evaluation --------------------------------------------------------------


def test_untrained_uniform_head_accuracy_near_chance():
    splits = make_synthetic_benchmark(3, n_train=2, n_dev=2, n_test=60)
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=5), seed=0)
    m.pred.P_e.data = np.zeros_like(m.pred.P_e.data)
    metrics = evaluate(m, splits["test"], n_quad=64)
    # argmax of a uniform distribution always picks type 1
    assert abs(metrics.accuracy - 100.0 / 5) < 2.0


def test_evaluate_poisson_reduced_closed_form():
    rates = np.array([0.7, 1.4])
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=2), seed=1)
    m.head.alpha.data = np.zeros(2)
    m.head.W.data = np.zeros((2, 8))
    m.head.log_beta.data = np.zeros(2)
    m.head.b.data = np.log(np.expm1(rates))
    rng = np.random.default_rng(2)
    seqs = [EventSequence(np.cumsum(rng.uniform(0.2, 1.0, 9)),
                          rng.integers(1, 3, size=9), 2) for _ in range(4)]
    ds = Dataset(seqs, 2, "test")
    metrics = evaluate(m, ds, n_quad=1024)
    expect = poisson_ll_per_event(rates, ds)
    assert abs(metrics.ll_per_event - expect) < 1e-6


def test_evaluate_k_mismatch():
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=3), seed=0)
    ds = Dataset([EventSequence(np.array([0.5, 1.0]), np.array([1, 2]), 2)], 2)
    with pytest.raises(ValueError, match="K-mismatch"):
        evaluate(m, ds)


def test_evaluate_single_sequence_matches_per_sequence_formulas():
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=2), seed=3)
    rng = np.random.default_rng(4)
    seq = EventSequence(np.cumsum(rng.uniform(0.3, 1.2, 8)),
                        rng.integers(1, 3, size=8), 2)
    metrics = evaluate(m, Dataset([seq], 2, "test"), n_quad=512)
    ll = m.score(seq).log_likelihood.item()
    assert abs(metrics.ll_per_event - ll / (len(seq) - 1)) < 1e-12
    H = m.encode(seq)
    logits = m.heads(H[:len(seq) - 1]).logits.data
    acc = 100.0 * np.mean(np.argmax(logits, axis=1) + 1 == seq.types[1:])
    np.testing.assert_allclose(metrics.accuracy, acc, rtol=1e-14)
    t_hat = np.concatenate([seq.timestamps[:1], m.heads(H[:len(seq) - 1]).times.data])
    pred_gaps = np.diff(t_hat)
    rmse = np.sqrt(np.mean((pred_gaps - np.diff(seq.timestamps)) ** 2))
    np.testing.assert_allclose(metrics.rmse, rmse, rtol=1e-12)


# the desk and default configs of each arch, with the intensity slopes
# alpha drawn from N(0, 0.5^2) so that the compensator takes both branches
GROUPED_MODELS = {
    "mhp-desk": lambda K: MambaHawkes(MhpConfig(d_model=16, n_layers=2, K=K), seed=1),
    "mhp-default": lambda K: MambaHawkes(MhpConfig(K=K), seed=2),
    "mhp-e-desk": lambda K: MambaHawkesHybrid(MhpEConfig(d_model=16, K=K), seed=3),
    "mhp-e-default": lambda K: MambaHawkesHybrid(MhpEConfig(K=K), seed=4),
}


def grouped_model(name, K):
    m = GROUPED_MODELS[name](K)
    m.head.alpha.data = np.random.default_rng(5).normal(0.0, 0.5, size=K)
    return m


def random_sequence(rng, n, K):
    return EventSequence(np.cumsum(rng.exponential(1.0, size=n)),
                         rng.integers(1, K + 1, size=n), K)


@pytest.mark.parametrize("name", list(GROUPED_MODELS))
@pytest.mark.parametrize("split", ["shuffled", "one", "negative-start"])
def test_grouped_evaluate_equals_one_by_one(name, split):
    # every sequence's values are bit for bit those of its own score call,
    # and the totals add them in dataset order, so the whole Metrics is ==
    K = 4
    m = grouped_model(name, K)
    rng = np.random.default_rng(6)
    if split == "shuffled":     # ragged groups, lengths 2..300 in no order
        lengths = [2, 300] + list(rng.permutation(np.arange(3, 300, 23)))
        seqs = [random_sequence(rng, n, K) for n in rng.permutation(lengths)]
    elif split == "one":
        seqs = [random_sequence(rng, 41, K)]
    else:   # a first timestamp of -20: the step is clamped to DELTA_MIN, and the
            # scan takes the series branch of (e^u - 1) / u
        seqs = [random_sequence(rng, n, K) for n in (30, 9, 17)]
        first = random_sequence(rng, 25, K)
        seqs.insert(1, EventSequence(first.timestamps - first.timestamps[0] - 20.0,
                                     first.types, K))
        assert m.deltas(seqs[1].timestamps)[0] == DELTA_MIN
    ds = Dataset(seqs, K, "test")
    assert len(m.groups(seqs)) < len(seqs) or len(seqs) == 1
    assert evaluate(m, ds) == evaluate_one_by_one(m, ds)


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
@pytest.mark.parametrize("K", [1, 11])
def test_grouped_evaluate_equals_one_by_one_at_other_widths(arch, K):
    # K 1 and 11 give the heads node 3 and 23 columns, and d_state 12 other
    # group sizes; each sequence's Score from its group is bit for bit that
    # of its own score call, and the whole Metrics is ==
    if arch == "mhp":
        m = MambaHawkes(MhpConfig(d_model=16, n_layers=2, d_state=12, K=K), seed=9)
    else:
        m = MambaHawkesHybrid(MhpEConfig(d_model=16, d_state=12, K=K), seed=9)
    rng = np.random.default_rng(10)
    m.head.alpha.data = rng.normal(0.0, 0.5, size=K)
    seqs = [random_sequence(rng, n, K) for n in rng.permutation([2, 3, 9, 30, 64, 65, 77, 130])]
    groups = m.groups(seqs)
    assert len(groups) < len(seqs)
    with ag.no_grad():
        for group in groups:
            scored = m.score_group([seqs[i] for i in group])
            for j, i in enumerate(group):
                for a, b in zip(scored[j], m.score(seqs[i])):
                    assert np.array_equal(a.data, b.data)
    ds = Dataset(seqs, K, "test")
    assert evaluate(m, ds) == evaluate_one_by_one(m, ds)


def one_by_one_error(m, ds):
    with pytest.raises(Exception) as oracle:
        evaluate_one_by_one(m, ds)
    return oracle.type, str(oracle.value)


@pytest.mark.parametrize("name", ["mhp-desk", "mhp-e-desk"])
@pytest.mark.parametrize("fault", ["K-mismatch", "type-out-of-range", "zero-intensity"])
def test_grouped_evaluate_raises_the_one_by_one_errors(name, fault):
    K = 3
    m = grouped_model(name, K)
    rng = np.random.default_rng(7)
    k = K - 1 if fault == "K-mismatch" else K
    ds = Dataset([random_sequence(rng, n, k) for n in (12, 5, 30, 7)], k, "test")
    if fault == "type-out-of-range":    # a sequence edited after it was checked
        ds.sequences[2].types[4] = K + 2
    if fault == "zero-intensity":
        m.head.b.data = np.full(K, -1e4)
    with pytest.raises(Exception) as oracle:
        evaluate_one_by_one(m, ds)
    with pytest.raises(oracle.type) as grouped:
        evaluate(m, ds)
    assert grouped.type is oracle.type
    assert str(grouped.value) == str(oracle.value)


def test_evaluate_refuses_an_empty_split():
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=2), seed=0)
    with pytest.raises(ValueError, match="nothing to evaluate: split 'test' has no sequences"):
        evaluate(m, Dataset([], 2, "test"))


def test_metrics_validation():
    with pytest.raises(ValueError, match="not finite"):
        Metrics(ll_per_event=float("nan"))
    with pytest.raises(ValueError, match="percentage"):
        Metrics(ll_per_event=0.0, accuracy=150.0)
    for rmse in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match="rmse must be finite and non-negative"):
            Metrics(ll_per_event=0.0, rmse=rmse)


def test_poisson_baseline_fitter():
    seqs = [EventSequence(np.array([0.0, 1.0, 3.0]), np.array([1, 2, 2]), 2),
            EventSequence(np.array([1.0, 2.0]), np.array([2, 1]), 2)]
    ds = Dataset(seqs, 2, "train")
    rates = fit_poisson_baseline(ds)
    # pooled rate: 3 scored events over 4 time units
    np.testing.assert_allclose(rates.sum(), 3.0 / 4.0, rtol=1e-12)
    # scored types are [2, 2, 1] -> counts (1, 2) plus half-count smoothing
    np.testing.assert_allclose(rates, 0.75 * np.array([1.5, 2.5]) / 4.0)
    ll = poisson_log_likelihood(rates, seqs[0])
    expect = np.log(rates[1]) * 2 - rates.sum() * 3.0
    np.testing.assert_allclose(ll, expect, rtol=1e-12)


# -- training loop -------------------------------------------------------------


def test_train_smoke_one_epoch(tmp_path):
    write_benchmark(tmp_path / "data", seed=1, n_train=10, n_dev=3, n_test=3)
    cfg = desk_config(tmp_path / "data", tmp_path / "out", epochs=1)
    result = train(cfg)
    assert os.path.exists(result.checkpoint_path)
    lines = open(result.metrics_csv).read().splitlines()
    assert lines[0] == "epoch,split,ll_per_event,accuracy,rmse,seconds"
    assert lines[1].startswith("1,train,")
    assert lines[2].startswith("1,dev,")
    assert lines[3].startswith("1,test,")
    summary = json.load(open(result.metrics_json))
    assert summary["epochs_run"] == 1
    assert len(summary["wall_clock_seconds"]) == 1
    assert summary["wall_clock_seconds"][0] > 0.0
    assert TrainConfig.from_dict(summary["config"]) == cfg  # K is no config field


def test_total_seconds_is_the_whole_run(tmp_path):
    write_benchmark(tmp_path / "data", seed=1, n_train=4, n_dev=2, n_test=2)
    result = train(desk_config(tmp_path / "data", tmp_path / "out", epochs=2))
    summary = json.load(open(result.metrics_json))
    assert summary["total_seconds"] >= (sum(summary["wall_clock_seconds"])
                                        + sum(summary["checkpoint_seconds"]))


def test_metrics_json_times_each_checkpoint_save(tmp_path, monkeypatch):
    write_benchmark(tmp_path / "data", seed=1, n_train=4, n_dev=2, n_test=0)
    dev_lls = iter([-2.0, -3.0, -1.0])  # epochs 1 and 3 improve and save; 2 does not
    monkeypatch.setattr(train_mod, "dev_ll_per_event", lambda *a, **k: next(dev_lls))
    result = train(desk_config(tmp_path / "data", tmp_path / "out", epochs=3))
    summary = json.load(open(result.metrics_json))
    saves = summary["checkpoint_seconds"]
    assert len(saves) == len(summary["wall_clock_seconds"]) == 3
    assert saves[0] > 0.0 and saves[1] == 0.0 and saves[2] > 0.0
    assert result.best_epoch == 3


def test_metrics_json_logs_each_step_and_phase(tmp_path):
    write_benchmark(tmp_path / "data", seed=1, n_train=6, n_dev=2, n_test=0)
    result = train(desk_config(tmp_path / "data", tmp_path / "out", epochs=2,
                               clip_norm=0.05))
    summary = json.load(open(result.metrics_json))
    # 6 sequences in batches of 4: two steps per epoch
    assert [len(x) for x in summary["grad_norm"]] == [2, 2]
    assert [len(x) for x in summary["clip_factor"]] == [2, 2]
    for norms, factors in zip(summary["grad_norm"], summary["clip_factor"]):
        for norm, factor in zip(norms, factors):
            assert np.isfinite(norm) and norm > 0.0
            assert factor == (1.0 if norm <= 0.05 else 0.05 / norm)
    assert min(min(f) for f in summary["clip_factor"]) < 1.0
    for e, wall in enumerate(summary["wall_clock_seconds"]):
        phases = [summary[name][e] for name in
                  ("forward_seconds", "backward_seconds", "dev_eval_seconds")]
        assert all(s > 0.0 for s in phases) and sum(phases) <= wall


def test_metrics_json_reports_throughput_graph_size_and_memory(tmp_path):
    splits = write_benchmark(tmp_path / "data", seed=1, n_train=6, n_dev=2, n_test=0)
    result = train(desk_config(tmp_path / "data", tmp_path / "out", epochs=2))
    summary = json.load(open(result.metrics_json))
    events = sum(len(s) - 1 for s in splits["train"])
    rates = summary["train_events_per_second"]
    nodes = summary["graph_nodes_per_sequence"]
    peaks = summary["peak_rss_mb"]
    assert len(rates) == len(nodes) == len(peaks) == 2
    for e, rate in enumerate(rates):
        busy = summary["forward_seconds"][e] + summary["backward_seconds"][e]
        assert rate == pytest.approx(events / busy, rel=1e-12)
    # the same graphs every epoch: every sequence is walked once per epoch
    assert nodes[0] == nodes[1] > 10
    assert 0.0 < peaks[0] <= peaks[1] < 4096.0


def test_train_same_seed_identical_outputs(tmp_path):
    write_benchmark(tmp_path / "data", seed=2, n_train=8, n_dev=3, n_test=3)
    outs = []
    for run in ("a", "b"):
        cfg = desk_config(tmp_path / "data", tmp_path / run, epochs=2, seed=5)
        train(cfg)
        outs.append({name: open(os.path.join(tmp_path, run, name), "rb").read()
                     for name in ("metrics.csv", "checkpoint.ckpt")})
    assert outs[0]["metrics.csv"] == outs[1]["metrics.csv"]
    assert outs[0]["checkpoint.ckpt"] == outs[1]["checkpoint.ckpt"]


def test_train_ll_non_decreasing_first_epochs(tmp_path):
    write_benchmark(tmp_path / "data", seed=3, n_train=40, n_dev=8, n_test=0)
    cfg = desk_config(tmp_path / "data", tmp_path / "out", epochs=5,
                      d_model=16, n_layers=2, d_state=16, lr=2e-3)
    train(cfg)
    rows = [ln.split(",") for ln in open(os.path.join(tmp_path, "out", "metrics.csv"))
            .read().splitlines()[1:]]
    train_ll = [float(r[2]) for r in rows if r[1] == "train"]
    assert len(train_ll) == 5
    for prev, cur in zip(train_ll, train_ll[1:]):
        assert cur >= prev - 0.02


def test_train_early_stopping(tmp_path):
    write_benchmark(tmp_path / "data", seed=4, n_train=6, n_dev=2, n_test=0)
    cfg = desk_config(tmp_path / "data", tmp_path / "out", epochs=30, patience=2,
                      lr=0.0)  # lr 0: dev never improves after the first epoch
    result = train(cfg)
    assert result.best_epoch == 1
    assert result.epochs_run == 3  # stopped after patience ran out


@pytest.mark.parametrize("n_test", [0, 3])
def test_train_loads_the_best_checkpoint_only_for_a_test_split(tmp_path, monkeypatch, n_test):
    # dev improves only at epoch 1, so the model after epoch 3 is not the
    # best one; the test metrics are the best checkpoint's, loaded once when
    # there is a test split and not at all without one
    write_benchmark(tmp_path / "data", seed=4, n_train=6, n_dev=2, n_test=n_test)
    devs = iter([-1.0, -2.0, -3.0])
    monkeypatch.setattr(train_mod, "dev_ll_per_event", lambda model, ds: next(devs))
    loads = []
    monkeypatch.setattr(train_mod, "load_checkpoint",
                        lambda path: loads.append(path) or load_checkpoint(path))
    result = train(desk_config(tmp_path / "data", tmp_path / "out", epochs=3, lr=1e-2))
    assert (result.best_epoch, result.epochs_run) == (1, 3)
    assert len(loads) == (1 if n_test else 0)
    if n_test:
        test = train_mod.load_split(tmp_path / "data", "test")
        assert result.test_metrics == evaluate(load_checkpoint(result.checkpoint_path)[0], test)


def test_train_nan_abort_names_batch(tmp_path, monkeypatch):
    write_benchmark(tmp_path / "data", seed=5, n_train=6, n_dev=2, n_test=0)

    def poisoned_build(arch, cfg_dict, seed=0):
        model = build_model(arch, cfg_dict, seed=seed)
        model.embedding.data[0, 0] = np.nan
        return model

    monkeypatch.setattr(train_mod, "build_model", poisoned_build)
    cfg = desk_config(tmp_path / "data", tmp_path / "out")
    with pytest.raises(NumericsError, match="epoch 1, batch 0") as exc:
        train(cfg)
    assert exc.value.epoch == 1 and exc.value.batch_index == 0


def test_train_zero_intensity_abort_names_batch(tmp_path, monkeypatch):
    write_benchmark(tmp_path / "data", seed=5, n_train=6, n_dev=2, n_test=0)

    def zero_intensity_build(arch, cfg_dict, seed=0):
        model = build_model(arch, cfg_dict, seed=seed)
        model.head.b.data[:] = -1e4  # softplus underflows to 0, so log(0) at every event
        return model

    monkeypatch.setattr(train_mod, "build_model", zero_intensity_build)
    cfg = desk_config(tmp_path / "data", tmp_path / "out")
    with pytest.raises(NumericsError, match="non-positive.*epoch 1, batch 0"):
        train(cfg)


def test_train_config_rejects_unknown_fields():
    for field_name in ("learning_rate", "K"):
        with pytest.raises(ValueError, match="unknown config field"):
            TrainConfig.from_dict({field_name: 0.1})


def test_train_rejects_split_with_other_K(tmp_path):
    write_benchmark(tmp_path / "data", seed=6, n_train=4, n_dev=2, n_test=0)
    (tmp_path / "data" / "dev.jsonl").write_text(
        '{"K": 7, "events": [{"t": 1.0, "k": 1}, {"t": 2.0, "k": 6}]}\n')
    with pytest.raises(DataError, match="K=7"):
        train(desk_config(tmp_path / "data", tmp_path / "out"))


def test_metrics_csv_formatting():
    rows = [(1, "train", -2.5, "", "", 0.0), (1, "test", -2.0, 41.5, 1.25, 0.0)]
    text = metrics_rows_to_csv(rows)
    assert text.splitlines()[1] == "1,train,-2.5,,,0.0"
    assert text.splitlines()[2] == "1,test,-2.0,41.5,1.25,0.0"


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    # a small mhp, then the default mhp and mhp-e
    for m in (MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=2, K=3), seed=7),
              build_model("mhp", {}, seed=2), build_model("mhp-e", {}, seed=2)):
        path = tmp_path / "ckpt.ckpt"
        save_checkpoint(m, path, meta={"best_epoch": 4})
        loaded, meta = load_checkpoint(path)
        assert meta == {"best_epoch": 4}
        assert loaded.arch == m.arch
        for (na, pa), (nb, pb) in zip(m.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)  # bit-exact
            assert pb.data.flags.writeable   # a copy: the file's bytes are read-only
        path2 = tmp_path / "ckpt2.ckpt"
        save_checkpoint(loaded, path2, meta=meta)
        assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_records_hybrid_arch(tmp_path):
    m = build_model("mhp-e", {"d_model": 8, "d_state": 4, "K": 2, "n_heads": 2,
                              "mamba_layers": 1, "attn_blocks": 1})
    path = tmp_path / "ckpt.ckpt"
    save_checkpoint(m, path)
    header, _ = read_container(path)
    assert header["arch"] == "mhp-e"
    loaded, _ = load_checkpoint(path)
    assert loaded.arch == "mhp-e"
    assert len(loaded.attn_layers) == 1


def test_checkpoint_stores_raw_little_endian_float64_bytes(tmp_path):
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=2), seed=1)
    save_checkpoint(m, tmp_path / "ckpt.ckpt")
    header, data = read_container(tmp_path / "ckpt.ckpt")
    assert header["version"] == 3
    assert list(header["params"]) == [name for name, _ in m.named_parameters()]
    assert header["params"]["embedding"] == [8, 2]
    assert data[:8 * m.embedding.size] == m.embedding.data.astype("<f8").tobytes()


def check_json_checkpoint_loads_and_resaves(tmp_path, version):
    """A version-1 or -2 file loads to the model's bits and meta, and saving
    what it loaded writes the bytes that saving the model writes."""
    m = build_model("mhp-e", {"d_model": 8, "d_state": 4, "K": 3, "n_heads": 2,
                              "mamba_layers": 1, "attn_blocks": 1}, seed=5)
    meta = {"best_epoch": 3, "time_scale": 0.5}
    old = tmp_path / f"v{version}.json"
    (write_v1_checkpoint if version == 1 else write_v2_checkpoint)(m, old, meta=meta)
    assert json.load(open(old))["version"] == version
    loaded, got = load_checkpoint(old)
    assert got == meta
    for (na, pa), (nb, pb) in zip(m.named_parameters(), loaded.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)  # bit-exact
    save_checkpoint(loaded, tmp_path / "resaved.ckpt", meta=got)
    save_checkpoint(m, tmp_path / "direct.ckpt", meta=meta)
    assert read_container(tmp_path / "resaved.ckpt")[0]["version"] == 3
    assert (tmp_path / "resaved.ckpt").read_bytes() == (tmp_path / "direct.ckpt").read_bytes()


def test_checkpoint_loads_version_1_bit_exactly(tmp_path):
    check_json_checkpoint_loads_and_resaves(tmp_path, 1)


def test_checkpoint_loads_version_2_bit_exactly(tmp_path):
    check_json_checkpoint_loads_and_resaves(tmp_path, 2)


def test_default_checkpoint_under_12_bytes_per_parameter(tmp_path):
    # exactly the container: magic and length (16 bytes), header, 8 bytes a value
    m = MambaHawkes(MhpConfig(), seed=0)
    path = tmp_path / "ckpt.ckpt"
    save_checkpoint(m, path)
    header, _ = read_container(path)
    n_params = sum(p.size for p in m.parameters())
    assert os.path.getsize(path) == 16 + len(json.dumps(header).encode()) + 8 * n_params
    assert os.path.getsize(path) < 8.02 * n_params    # about 21 as decimal number lists


def test_checkpoint_rejects_mismatched_params(tmp_path):
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=2), seed=0)
    payload = json_checkpoint(m, 2)
    del payload["params"]["embedding"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    from mamba_hawkes.data import DataError
    with pytest.raises(DataError, match="missing"):
        load_checkpoint(path)


def test_checkpoint_bytes_match_json_dump(tmp_path):
    # the container built independently: json.dumps of the header, then the bytes
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=2, K=3), seed=3)
    meta = {"best_epoch": 2, "dev_ll_per_event": -1.25}
    path = tmp_path / "ckpt.ckpt"
    save_checkpoint(m, path, meta=meta)
    header = {"format": "mamba-hawkes-checkpoint", "version": 3, "arch": "mhp",
              "config": m.cfg.to_dict(), "meta": meta,
              "params": {name: list(p.shape) for name, p in m.named_parameters()}}
    data = b"".join(p.data.astype("<f8").tobytes() for p in m.parameters())
    assert path.read_bytes() == container(header, data)
    assert path.read_bytes()[:8] == b"\x89MHP\r\n\x1a\n"


def test_checkpoint_failed_write_keeps_previous(tmp_path, monkeypatch):
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=3), seed=4)
    path = tmp_path / "ckpt.ckpt"
    save_checkpoint(m, path, meta={"best_epoch": 1})
    before = path.read_bytes()

    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(ckpt_mod, "open", lambda *a, **k: DiskFull(open(*a, **k)),
                        raising=False)
    m.embedding.data = m.embedding.data + 1.0
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(m, path, meta={"best_epoch": 2})
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["ckpt.ckpt"]
