import json

import numpy as np
import pytest
from scipy import stats

from mamba_hawkes import autograd as ag
from mamba_hawkes.data import (Batch, DataError, Dataset, EventSequence,
                               ExplosionError, HawkesGenConfig,
                               RetryExhaustedError, batch,
                               benchmark_generator_config, load_jsonl,
                               make_synthetic_benchmark, save_jsonl,
                               simulate_hawkes)
from mamba_hawkes.model import MambaHawkes, MhpConfig
from mamba_hawkes.training import loss_on_batch


def poisson_cfg(mu=2.0, T=1000.0):
    return HawkesGenConfig(K=1, mu=[mu], alpha=[[0.0]], beta_decay=[[1.0]],
                           horizon=T)


# -- event sequences and datasets ---------------------------------------------


def test_event_sequence_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        EventSequence(np.array([1.0, 1.0]), np.array([1, 1]), 1)
    with pytest.raises(ValueError, match="empty"):
        EventSequence(np.array([]), np.array([]), 1)
    with pytest.raises(ValueError, match="1..2"):
        EventSequence(np.array([1.0]), np.array([3]), 2)


@pytest.mark.parametrize("t", [[np.nan], [0.5, np.inf], [np.inf, np.inf], [-np.inf, 1.0]])
def test_event_sequence_rejects_nonfinite_timestamps(t):
    with pytest.raises(ValueError, match="finite"):
        EventSequence(np.array(t), np.ones(len(t), dtype=np.int64), 1)


def test_dataset_uniform_k():
    with pytest.raises(ValueError, match="same K"):
        Dataset([EventSequence(np.array([1.0]), np.array([1]), 2)], K=3)


# -- generator ----------------------------------------------------------------


def test_poisson_reduction_event_count():
    # alpha = 0 makes the sampler a homogeneous Poisson process
    counts = [len(simulate_hawkes(poisson_cfg(), seed=s)) for s in range(200)]
    mean = np.mean(counts)
    sigma_of_mean = np.sqrt(2000.0 / 200.0)
    assert abs(mean - 2000.0) < 3.0 * sigma_of_mean


def test_poisson_reduction_gaps_pass_ks_test():
    mu = 2.0
    gaps = []
    for s in range(200):
        seq = simulate_hawkes(poisson_cfg(T=50.0), seed=s)
        gaps.append(np.diff(seq.timestamps))
    gaps = np.concatenate(gaps)
    p = stats.kstest(gaps, "expon", args=(0.0, 1.0 / mu)).pvalue
    assert p > 0.01


@pytest.mark.parametrize("mu,a,b", [(0.2, 0.8, 1.0), (0.5, 0.5, 1.0), (0.6, 1.6, 4.0)])
def test_stationary_rate_recovery(mu, a, b):
    cfg = HawkesGenConfig(K=1, mu=[mu], alpha=[[a]], beta_decay=[[b]], horizon=400.0)
    target = mu / (1.0 - a / b)
    total = sum(len(simulate_hawkes(cfg, seed=s)) for s in range(200))
    rate = total / (200 * cfg.horizon)
    assert abs(rate - target) / target < 0.05


def test_zero_base_rate_exhausts_retries():
    cfg = HawkesGenConfig(K=1, mu=[0.0], alpha=[[0.5]], beta_decay=[[1.0]],
                          horizon=10.0, length_bounds=(5, 50), max_retries=10)
    with pytest.raises(RetryExhaustedError, match="10 attempts"):
        simulate_hawkes(cfg, seed=0)


def test_explosive_config_rejected():
    with pytest.raises(ExplosionError, match="spectral radius"):
        HawkesGenConfig(K=1, mu=[0.1], alpha=[[1.5]], beta_decay=[[1.0]],
                        horizon=10.0)


def test_multitype_assigns_types_by_intensity():
    cfg = benchmark_generator_config()
    seq = simulate_hawkes(cfg, seed=3)
    # the cyclic excitation makes successor types much likelier than chance
    succ = np.mean(seq.types[1:] == (seq.types[:-1] % 5) + 1)
    assert succ > 0.3


def test_benchmark_shape_audit():
    splits = make_synthetic_benchmark(11, n_train=600, n_dev=100, n_test=100)
    lens = np.array([len(s) for ds in splits.values() for s in ds])
    assert lens.min() >= 20 and lens.max() <= 100
    assert 55.0 <= lens.mean() <= 65.0
    assert all(ds.K == 5 for ds in splits.values())
    assert [len(splits[k]) for k in ("train", "dev", "test")] == [600, 100, 100]


def test_benchmark_deterministic_bytes(tmp_path):
    a = make_synthetic_benchmark(7, n_train=20, n_dev=5, n_test=5)
    b = make_synthetic_benchmark(7, n_train=20, n_dev=5, n_test=5)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_jsonl(a["train"], pa)
    save_jsonl(b["train"], pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = make_synthetic_benchmark(8, n_train=20, n_dev=5, n_test=5)
    assert [len(s) for s in a["train"]] != [len(s) for s in c["train"]]


# -- JSONL I/O -----------------------------------------------------------------


def test_jsonl_round_trip_exact(tmp_path):
    splits = make_synthetic_benchmark(5, n_train=8, n_dev=2, n_test=2)
    path = tmp_path / "train.jsonl"
    save_jsonl(splits["train"], path)
    loaded = load_jsonl(path, "train")
    assert loaded.K == splits["train"].K
    assert len(loaded) == len(splits["train"])
    for a, b in zip(loaded, splits["train"]):
        assert np.array_equal(a.timestamps, b.timestamps)  # bit-exact
        assert np.array_equal(a.types, b.types)


def test_jsonl_decreasing_timestamps_cites_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = {"K": 2, "events": [{"t": 0.5, "k": 1}, {"t": 1.0, "k": 2}]}
    bad = {"K": 2, "events": [{"t": 2.0, "k": 1}, {"t": 1.0, "k": 2}]}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DataError, match=r":2: decreasing timestamps"):
        load_jsonl(path)


def test_jsonl_schema_violations(tmp_path):
    cases = [
        ('{"events": [{"t": 1.0, "k": 1}]}', "missing field 'K'"),
        ('{"K": 2, "events": []}', "non-empty"),
        ('{"K": 2, "events": [{"t": 1.0, "k": 5}]}', "out of range"),
        ('{"K": 2, "events": [{"t": 1.0}]}', "fields 't' and 'k'"),
        ("not json", "invalid JSON"),
    ]
    for content, msg in cases:
        path = tmp_path / "case.jsonl"
        path.write_text(content + "\n")
        with pytest.raises(DataError, match=msg):
            load_jsonl(path)


def bad_event_file(tmp_path, event):
    path = tmp_path / "bad.jsonl"
    good = '{"K": 2, "events": [{"t": 0.5, "k": 1}, {"t": 1.0, "k": 2}]}'
    path.write_text(good + "\n" + '{"K": 2, "events": [{"t": 0.5, "k": 1}, %s]}\n' % event)
    return path


def test_jsonl_nan_timestamp(tmp_path):
    path = bad_event_file(tmp_path, '{"t": NaN, "k": 1}')
    with pytest.raises(DataError, match=r"bad.jsonl:2: field 't' must be a finite number at event 1"):
        load_jsonl(path)


def test_jsonl_infinite_timestamp(tmp_path):
    path = bad_event_file(tmp_path, '{"t": Infinity, "k": 1}')
    with pytest.raises(DataError, match=r"bad.jsonl:2: field 't' must be a finite number at event 1"):
        load_jsonl(path)


def test_jsonl_boolean_type(tmp_path):
    path = bad_event_file(tmp_path, '{"t": 1.0, "k": true}')
    with pytest.raises(DataError, match=r"bad.jsonl:2: field 'k' out of range 1..2 at event 1"):
        load_jsonl(path)


@pytest.mark.parametrize("value", ['"abc"', '"1.5"', "true", "null", "[1.0]", "1" + "0" * 400],
                         ids=["string", "numeric-string", "bool", "null", "list", "huge-int"])
def test_jsonl_non_numeric_timestamp(tmp_path, value):
    path = bad_event_file(tmp_path, '{"t": %s, "k": 1}' % value)
    with pytest.raises(DataError, match=r"bad.jsonl:2: field 't' must be a finite number at event 1"):
        load_jsonl(path)


def test_jsonl_inconsistent_k(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text('{"K": 2, "events": [{"t": 1.0, "k": 1}]}\n'
                    '{"K": 3, "events": [{"t": 1.0, "k": 1}]}\n')
    with pytest.raises(DataError, match="inconsistent 'K'"):
        load_jsonl(path)


def test_jsonl_duplicate_timestamps_nudged(tmp_path, caplog):
    path = tmp_path / "dup.jsonl"
    path.write_text('{"K": 1, "events": [{"t": 1.0, "k": 1}, {"t": 1.0, "k": 1}, '
                    '{"t": 1.0, "k": 1}]}\n')
    with caplog.at_level("WARNING"):
        ds = load_jsonl(path)
    assert "nudged 2 duplicate timestamps" in caplog.text
    t = ds.sequences[0].timestamps
    assert np.all(np.diff(t) > 0.0)
    np.testing.assert_allclose(t, [1.0, 1.0 + 1e-9, 1.0 + 2e-9])


def test_jsonl_missing_file():
    with pytest.raises(FileNotFoundError):
        load_jsonl("/nonexistent/nope.jsonl")


# -- batching -------------------------------------------------------------------


def _small_dataset(n=7, seed=0):
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n):
        L = int(rng.integers(3, 9))
        t = np.cumsum(rng.uniform(0.2, 1.0, L))
        seqs.append(EventSequence(t, rng.integers(1, 3, size=L), 2))
    return Dataset(seqs, 2, "train")


def test_batch_masks_sum_to_lengths():
    ds = _small_dataset()
    batches = batch(ds, 3)
    assert [len(b.sequences) for b in batches] == [3, 3, 1]
    flat = [s for b in batches for s in b.sequences]
    assert len(flat) == len(ds) and all(a is b for a, b in zip(flat, ds))
    assert [b.sequences for b in batch(list(ds), 3)] == [b.sequences for b in batches]
    for b in batches:
        lengths = [len(s) for s in b.sequences]
        padded = np.zeros((len(lengths), max(lengths)), dtype=bool)
        for i, n in enumerate(lengths):
            padded[i, :n] = True
        np.testing.assert_array_equal(b.mask, padded)
        np.testing.assert_array_equal(b.mask.sum(axis=1), lengths)


def test_batch_size_one_is_unpadded():
    ds = _small_dataset()
    batches = batch(ds, 1)
    assert len(batches) == len(ds)
    for b, seq in zip(batches, ds):
        assert len(b.unpadded()) == 1 and b.unpadded()[0] is seq
        assert b.mask.shape == (1, len(seq))
        assert b.mask.all()


def test_batch_invalid_size():
    with pytest.raises(ValueError, match=">= 1"):
        batch(_small_dataset(), 0)


def test_padded_batch_loss_equals_unbatched_sum():
    ds = _small_dataset(n=6, seed=1)
    model = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=2), seed=2)
    unbatched = sum(float(model.losses(s).total.data) for s in ds)
    for bs in (2, 3, 6):
        total = 0.0
        for b in batch(ds, bs):
            t, _, _ = loss_on_batch(model, b)
            total += float(t.data)
        assert abs(total - unbatched) / abs(unbatched) < 1e-10
