"""predict_next on growing prefixes: the model carries the encoder state of
the last sequence it ran and must answer exactly as a fresh model would."""

import copy
import gc
import json
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from mamba_hawkes import autograd as ag
from mamba_hawkes import hybrid
from mamba_hawkes.autograd import Tensor
from mamba_hawkes.data import EventSequence
from mamba_hawkes.hybrid import MambaHawkesHybrid, MhpEConfig
from mamba_hawkes.model import MambaHawkes, MhpConfig
from mamba_hawkes.ssm import MambaBlock

K = 3


def build(arch, seed=0):
    if arch == "mhp":
        return MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=2, K=K), seed=seed)
    return MambaHawkesHybrid(MhpEConfig(d_model=8, d_state=4, mamba_layers=2, attn_blocks=2,
                                        n_heads=2, K=K), seed=seed)


def stream(n, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.uniform(0.05, 1.5, size=n)), rng.integers(1, K + 1, size=n)


def prefix(events, n):
    t, k = events
    return EventSequence(t[:n], k[:n], K)


def fresh_prediction(model, seq):
    """predict_next of a model that has encoded nothing, with model's
    config and parameters."""
    other = build(model.arch)
    other.cfg = copy.copy(model.cfg)
    for p, q in zip(other.parameters(), model.parameters()):
        p.data = q.data.copy()
    return other.predict_next(seq)


def plain_prediction(model, seq):
    """The heads on the last row of the training path's `encode(seq)`."""
    with ag.no_grad():
        h = model.encode(seq).data[-1:]
        logits = h @ model.pred.P_e.data.T
        probs = np.exp(logits - logits.max())
        return probs[0] / probs.sum(), float((h @ model.pred.P_t.data.T)[0, 0])


def assert_same(pred, ref):
    np.testing.assert_allclose(pred.probs, ref.probs, rtol=0, atol=1e-12)
    assert abs(pred.next_time - ref.next_time) <= 1e-12 * abs(ref.next_time)
    assert pred.next_type == ref.next_type


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_growing_prefixes_match_a_fresh_model(arch):
    model = build(arch)
    events = stream(80, seed=1)
    n = 0
    for step in (1, 1, 2, 3, 5, 8, 13, 21, 26):
        n += step
        seq = prefix(events, n)
        pred = model.predict_next(seq)
        assert_same(pred, fresh_prediction(model, seq))
        probs, t_hat = plain_prediction(model, seq)
        np.testing.assert_allclose(pred.probs, probs, rtol=0, atol=1e-12)
        assert abs(pred.next_time - t_hat) <= 1e-12 * abs(t_hat)


def whole_prefix_encode(model, seq, state):
    """Streaming `encode` that embeds and steps every event of seq, runs
    the stack on the rows after those the state holds, and keeps the last
    row of what it returns."""
    with ag.no_grad():
        start = state.resume(model, seq)
        if start < len(seq):
            state.held = None
            x = model.embed(seq.type_indices).data[start:]
            delta = model.deltas(seq.timestamps)[start:, None]
            state.last = model._run_stack(x, delta, state.blocks, None)[-1:]
            state.held = (seq.timestamps.copy(), seq.types.copy())
        return model.mlp(state.last)


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_streaming_embeds_only_the_new_events_and_predicts_the_same(arch, monkeypatch):
    model, whole = build(arch), build(arch)
    monkeypatch.setattr(whole, "encode",
                        lambda seq, state=None: whole_prefix_encode(whole, seq, state))
    seen, embed = [], model.embed
    # encode embeds the 0-based type indices of the new events
    monkeypatch.setattr(model, "embed", lambda idx: seen.append(idx + 1) or embed(idx))
    events, n = stream(80, seed=8), 0
    for step in (1, 1, 2, 5, 13, 21, 37):
        seq = prefix(events, n + step)
        pred, ref = model.predict_next(seq), whole.predict_next(seq)
        assert len(seen) == 1 and np.array_equal(seen.pop(), seq.types[n:])
        assert pred.probs.tobytes() == ref.probs.tobytes() and pred.next_time == ref.next_time
        n += step


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_the_streaming_step_checks_no_event_again(arch, monkeypatch):
    # the query's events were checked when its sequence was built
    model, queries = build(arch), [prefix(stream(30, seed=4), n) for n in (1, 2, 9, 30)]
    built, post_init = [], EventSequence.__post_init__
    monkeypatch.setattr(EventSequence, "__post_init__",
                        lambda seq: built.append(len(seq.types)) or post_init(seq))
    for seq in queries:
        model.predict_next(seq)
    assert built == []


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_the_streaming_step_hands_the_stack_plain_arrays(arch, monkeypatch):
    # the new events' rows and steps [new, 1], and no group: one sequence
    # needs no row gather or split
    model, events = build(arch), stream(30, seed=11)
    handed, run_stack = [], model._run_stack
    monkeypatch.setattr(model, "_run_stack", lambda x, delta, states, group: handed.append(
        (x.shape, delta.shape, group)) or run_stack(x, delta, states, group))
    for n, new in ((9, 9), (20, 11), (21, 1)):
        model.predict_next(prefix(events, n))
        assert handed.pop() == ((new, 8), (new, 1), None)
    assert handed == []


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_the_streaming_step_builds_no_tensor_inside_the_blocks(arch, monkeypatch):
    # each block runs its forward on arrays with its state or cache: the
    # Tensors a query builds (embedding, MLP, heads) are all outside them
    model, events = build(arch), stream(30, seed=12)
    inside, built, ran = [], [], set()
    init = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__",
                        lambda t, *args, **kw: built.append(bool(inside)) or init(t, *args, **kw))
    for cls, name in ((MambaBlock, "__call__"), (hybrid.AttentionBlock, "attend")):
        def entered(blk, *args, run=getattr(cls, name)):
            inside.append(blk)
            ran.add(type(blk))
            try:
                return run(blk, *args)
            finally:
                inside.pop()
        monkeypatch.setattr(cls, name, entered)
    for n in (9, 20, 21):
        model.predict_next(prefix(events, n))
        assert built and not any(built), built
        built.clear()
    assert ran == {type(blk) for blk in model._stack()}


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_switching_repeating_and_shortening(arch):
    model = build(arch)
    a, b = stream(40, seed=2), stream(40, seed=3)
    model.predict_next(prefix(a, 20))
    for seq in (prefix(b, 15),      # an unrelated sequence
                prefix(a, 25),      # back to the first one
                prefix(a, 25),      # the same query again
                prefix(a, 10),      # a shorter one
                prefix(a, 11)):
        assert_same(model.predict_next(seq), fresh_prediction(model, seq))
    # a prefix that differs from the held one only in its last type
    t, k = a
    k2 = k.copy()
    k2[10] = k2[10] % K + 1
    seq = EventSequence(t[:30], k2[:30], K)
    assert_same(model.predict_next(seq), fresh_prediction(model, seq))
    # a caller's buffers rewritten in place between two queries
    buf_t, buf_k = t[:20].copy(), k[:20].copy()
    seq = EventSequence(buf_t, buf_k, K)
    model.predict_next(seq)
    buf_t[...], buf_k[...] = b[0][:20], b[1][:20]
    assert_same(model.predict_next(seq), fresh_prediction(model, seq))


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_a_failed_query_leaves_no_stale_state(arch, monkeypatch):
    model = build(arch)
    events = stream(30, seed=4)
    model.predict_next(prefix(events, 10))
    # the last block fails after the ones before it took in the new events
    last = model._stack()[-1]
    call = type(last).attend if arch == "mhp-e" else type(last).__call__

    def failing(blk, *args):
        if blk is last:
            raise RuntimeError("block failed")
        return call(blk, *args)

    monkeypatch.setattr(type(last), call.__name__, failing)
    with pytest.raises(RuntimeError, match="block failed"):
        model.predict_next(prefix(events, 20))
    monkeypatch.undo()
    for n in (20, 25):
        seq = prefix(events, n)
        assert_same(model.predict_next(seq), fresh_prediction(model, seq))


def test_a_failure_after_the_caches_appended_leaves_no_stale_state(monkeypatch):
    model = build("mhp-e")
    events = stream(30, seed=4)
    model.predict_next(prefix(events, 10))
    # the last attention block fails inside, after every cache took in the new events
    attention, calls = hybrid.multi_head_attention, []

    def failing(*args):
        calls.append(args)
        if len(calls) == len(model.attn_layers):
            raise RuntimeError("attention failed")
        return attention(*args)

    monkeypatch.setattr(hybrid, "multi_head_attention", failing)
    with pytest.raises(RuntimeError, match="attention failed"):
        model.predict_next(prefix(events, 20))
    monkeypatch.undo()
    assert [len(c.k) for c in model._stream.blocks[len(model.layers):]] == [20, 20]
    for n in (20, 25):
        seq = prefix(events, n)
        assert_same(model.predict_next(seq), fresh_prediction(model, seq))


def test_the_last_attention_block_runs_the_last_row_alone(monkeypatch):
    model = build("mhp-e")
    events = stream(30, seed=9)
    attention, calls = hybrid.multi_head_attention, []

    def recording(q, k, *args):
        calls.append((len(q), len(k)))
        return attention(q, k, *args)

    monkeypatch.setattr(hybrid, "multi_head_attention", recording)
    for n, new in ((10, 10), (17, 7)):   # from empty, then 7 events after 10 held ones
        seq = prefix(events, n)
        calls.clear()
        pred = model.predict_next(seq)
        # every block keys all the new rows; the last one queries the last row alone
        assert calls == [(new, n), (1, n)], calls
        assert [len(c.k) for c in model._stream.blocks[len(model.layers):]] == [n, n]
        assert_same(pred, fresh_prediction(model, seq))


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_a_parameter_rebound_to_another_shape_reaches_the_next_query(arch):
    events = stream(40, seed=10)
    model = build(arch)
    model.predict_next(prefix(events, 20))
    scale = dict(model.named_parameters())["layers.1.norm_scale"]
    # a shape that broadcasts, then the full shape with the same values; each
    # first query is the held sequence, so it compares the parameters
    for data, lengths in ((np.full(1, 1.5), (20, 30)), (np.full(scale.shape, 1.5), (30, 40))):
        scale.data = data
        for n in lengths:
            seq = prefix(events, n)
            assert_same(model.predict_next(seq), fresh_prediction(model, seq))


def encoder_params(model):
    names = ["embedding", "layers.0.conv_kernel", "layers.1.ssm.A_log"]
    if model.arch == "mhp-e":
        names.append("attn_layers.1.W_k")
    return [p for name, p in model.named_parameters() if name in names]


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
@pytest.mark.parametrize("how", ["in place", "assigned"])
def test_a_parameter_edit_changes_the_next_result(arch, how):
    events = stream(40, seed=5)
    for index in range(len(encoder_params(build(arch)))):
        model = build(arch)
        model.predict_next(prefix(events, 20))
        p = encoder_params(model)[index]
        if how == "in place":
            p.data[...] = p.data * 1.5
        else:
            p.data = p.data * 1.5
        for n in (20, 30):  # the held sequence, then a longer one
            seq = prefix(events, n)
            pred = model.predict_next(seq)
            assert_same(pred, fresh_prediction(model, seq))
            assert np.abs(pred.probs - build(arch).predict_next(seq).probs).max() > 1e-9


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_head_and_config_edits_reach_a_repeated_query(arch):
    model = build(arch)
    seq = prefix(stream(20, seed=6), 20)
    before = model.predict_next(seq)
    model.mlp.W2.data[...] = model.mlp.W2.data * 2.0
    after = model.predict_next(seq)
    assert_same(after, fresh_prediction(model, seq))
    assert np.abs(after.probs - before.probs).max() > 1e-9


@pytest.mark.parametrize("arch", ["mhp", "mhp-e"])
def test_a_dropped_model_is_freed_without_the_cycle_collector(arch):
    gc.disable()
    try:
        model = build(arch)
        events = stream(30, seed=7)
        for n in (10, 20, 30):
            model.predict_next(prefix(events, n))
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


def test_traced_predict_stream_benchmark_runs_clean():
    # The benchmark's traced run wraps the encoder's call boundaries from
    # outside; a signature change there shows here. 2 streams of 512 events
    # through 2 SSM layers: each event is scanned once per layer.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "predict-stream",
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["metrics"]["ssm.scan_steps"]["value"] == 2 * 512 * 2
