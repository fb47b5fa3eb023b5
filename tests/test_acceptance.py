"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
train at desk scale (d_model=16, 2 layers, 200 training sequences) and stay
well inside their stated runtime budgets on one CPU core.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from helpers import (fd_noise_floor, fd_param_grads, gated_decay_reference,
                     global_grad_rel_err)
from mamba_hawkes import autograd as ag
from mamba_hawkes.cli import main as cli_main
from mamba_hawkes.data import (Dataset, EventSequence, HawkesGenConfig, batch,
                               load_jsonl, simulate_hawkes)
from mamba_hawkes.hybrid import MambaHawkesHybrid, MhpEConfig
from mamba_hawkes.model import MambaHawkes, MhpConfig
from mamba_hawkes.ssm import selective_scan
from mamba_hawkes.training import (TrainConfig, fit_poisson_baseline,
                                   loss_on_batch, poisson_ll_per_event, train)


def report(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    code = cli_main(["generate", "--seed", "42", "--out", str(out),
                     "--n-train", "200", "--n-dev", "50", "--n-test", "50"])
    assert code == 0
    return out


def desk_train_config(data_dir, out_dir, arch="mhp"):
    cfg = dict(arch=arch, d_model=16, d_state=16,
               lr=2e-3, batch_size=4, epochs=14, patience=10, seed=42,
               eval_quad_points=1024, data=str(data_dir), out=str(out_dir))
    if arch == "mhp":
        cfg.update(n_layers=2)
    else:
        cfg.update(mamba_layers=2, attn_blocks=2, n_heads=2)
    return TrainConfig.from_dict(cfg)


@pytest.fixture(scope="module")
def mhp_run(bench_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("mhp_run")
    t0 = time.perf_counter()
    result = train(desk_train_config(bench_dir, out))
    return result, time.perf_counter() - t0


def test_criterion_1_gated_decay_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(2, 51))
        t = np.cumsum(rng.uniform(0.05, 2.0, size=L))
        x = rng.normal(size=L)
        delta = np.diff(t, prepend=0.0)  # raw gaps, gap_1 = t_1
        y = selective_scan(x.reshape(L, 1), np.array([[-1.0]]), np.ones((L, 1)),
                           np.ones((L, 1)), None, delta)[0].reshape(-1)
        z = gated_decay_reference(t, x)
        worst = max(worst, float(np.max(np.abs(y - z))))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"max |scan - closed form| = {worst:.2e} over 20 sequences "
           f"(bound 1e-12), {elapsed:.2f}s (bound 1s)")


def test_criterion_2_zoh_quadrature_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    mags = np.concatenate([np.logspace(-8, 1, 28),
                           [1e-4 * (1 - 1e-9), 1e-4, 1e-4 * (1 + 1e-9)]])
    worst = 0.0
    for mag in mags:
        for sign in (1.0, -1.0):
            delta = float(rng.uniform(0.1, 2.0))
            a = sign * mag / delta
            b = float(rng.normal())
            # with L = D = N = 1 and x = c = 1 the scan's output is bbar exactly
            bbar = selective_scan(np.array([[1.0]]), np.array([[a]]), np.array([[b]]),
                                  np.array([[1.0]]), None, np.array([delta]))[0][0, 0]
            integral, _ = quad(lambda s: np.exp(a * s), 0.0, delta,
                               epsabs=1e-14, epsrel=1e-12)
            rel = abs(bbar - integral * b) / max(abs(integral * b), 1e-300)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-8 and elapsed < 1.0,
           f"max rel err vs quadrature = {worst:.2e} across |delta*a| in "
           f"[1e-8, 10] incl. branch boundary (bound 1e-8), {elapsed:.2f}s (bound 1s)")


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    seq = EventSequence(np.array([0.4, 1.1, 1.9, 2.5, 3.3]),
                        np.array([1, 2, 1, 2, 2]), 2)
    results = {}
    mhp = MambaHawkes(MhpConfig(d_model=8, d_state=2, n_layers=1, K=2), seed=23)
    mhpe = MambaHawkesHybrid(MhpEConfig(d_model=8, d_state=2, K=2,
                                        mamba_layers=1, attn_blocks=1, n_heads=1),
                             seed=24)
    for tag, model in (("mhp", mhp), ("mhp-e", mhpe)):
        analytic, fd, loss_value = fd_param_grads(
            lambda m=model: m.losses(seq).total, model.parameters(), h=1e-5)
        # full-gradient relative error, plus a per-tensor check floored at the
        # finite-difference resolution for this loss scale
        per_tensor = {}
        for name in analytic:
            a, f = analytic[name], fd[name]
            floor = fd_noise_floor(loss_value, a.size, 1e-5)
            diff = np.linalg.norm(a - f)
            per_tensor[name] = max(0.0, diff - floor) / max(
                np.linalg.norm(a), np.linalg.norm(f), floor)
        results[tag] = (global_grad_rel_err(analytic, fd), max(per_tensor.values()))
    elapsed = time.perf_counter() - t0
    ok = all(g < 1e-4 and t < 1e-4 for g, t in results.values()) and elapsed < 30.0
    report(3, ok,
           f"full-gradient rel err vs finite differences: "
           f"mhp {results['mhp'][0]:.2e}, mhp-e {results['mhp-e'][0]:.2e} "
           f"(bound 1e-4); worst per-tensor above FD noise floor: "
           f"mhp {results['mhp'][1]:.2e}, mhp-e {results['mhp-e'][1]:.2e}; "
           f"{elapsed:.1f}s (bound 30s)")


def test_criterion_4_likelihood_oracle():
    t0 = time.perf_counter()
    c = 1.3
    m = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=1), seed=4)
    m.head.alpha.data = np.zeros(1)
    m.head.W.data = np.zeros((1, 8))
    m.head.log_beta.data = np.zeros(1)
    m.head.b.data = np.array([np.log(np.expm1(c))])
    rng = np.random.default_rng(5)
    seq = EventSequence(np.cumsum(rng.uniform(0.2, 1.5, size=30)),
                        np.ones(30, dtype=np.int64), 1)
    expect = (len(seq) - 1) * np.log(c) - c * seq.duration
    ll_train = m.losses(seq).log_likelihood.item()
    ll_quad = m.score(seq).log_likelihood.item()
    err_train = abs(ll_train - expect) / abs(expect)
    err_quad = abs(ll_quad - expect)
    elapsed = time.perf_counter() - t0
    report(4, err_train < 0.01 and err_quad < 1e-6 and elapsed < 10.0,
           f"closed form {expect:.4f}: training rule rel err {err_train:.2e} (bound 1e-2), "
           f"quadrature abs err {err_quad:.2e} (bound 1e-6), {elapsed:.1f}s (bound 10s)")


def test_criterion_5_generator_statistics():
    t0 = time.perf_counter()
    cfg = HawkesGenConfig(K=1, mu=[0.2], alpha=[[0.8]], beta_decay=[[1.0]],
                          horizon=400.0)
    total = sum(len(simulate_hawkes(cfg, seed=s)) for s in range(200))
    rate = total / (200 * cfg.horizon)  # target mu / (1 - alpha/beta) = 1.0
    poisson = HawkesGenConfig(K=1, mu=[2.0], alpha=[[0.0]], beta_decay=[[1.0]],
                              horizon=50.0)
    gaps = np.concatenate([np.diff(simulate_hawkes(poisson, seed=s).timestamps)
                           for s in range(200)])
    pval = stats.kstest(gaps, "expon", args=(0.0, 1.0 / 2.0)).pvalue
    elapsed = time.perf_counter() - t0
    report(5, abs(rate - 1.0) < 0.05 and pval > 0.01 and elapsed < 120.0,
           f"stationary rate {rate:.4f} (target 1.0 within 5%), "
           f"KS p-value {pval:.3f} (bound 0.01), {elapsed:.1f}s (bound 120s)")


def test_criterion_6_end_to_end_benchmark(bench_dir, mhp_run):
    result, elapsed = mhp_run
    train_ds = load_jsonl(os.path.join(bench_dir, "train.jsonl"), "train")
    test_ds = load_jsonl(os.path.join(bench_dir, "test.jsonl"), "test")
    rates = fit_poisson_baseline(train_ds)
    poisson = poisson_ll_per_event(rates, test_ds)
    scored = np.concatenate([s.types[1:] for s in test_ds])
    majority = 100.0 * np.bincount(scored, minlength=6)[1:].max() / scored.size
    m = result.test_metrics
    ll_margin = m.ll_per_event - poisson
    acc_margin = m.accuracy - majority
    report(6, ll_margin >= 0.2 and acc_margin >= 3.0 and elapsed < 600.0,
           f"test ll/event {m.ll_per_event:.4f} vs poisson {poisson:.4f} "
           f"(margin {ll_margin:.3f}, bound 0.2); accuracy {m.accuracy:.2f}% vs "
           f"majority {majority:.2f}% (margin {acc_margin:.1f}pp, bound 3pp); "
           f"{elapsed:.0f}s (bound 600s)")


def test_criterion_7_hybrid_parity(bench_dir, mhp_run, tmp_path_factory):
    mhp_result, _ = mhp_run
    out = tmp_path_factory.mktemp("mhpe_run")
    t0 = time.perf_counter()
    result = train(desk_train_config(bench_dir, out, arch="mhp-e"))
    elapsed = time.perf_counter() - t0
    ll_mhp = mhp_result.test_metrics.ll_per_event
    ll_e = result.test_metrics.ll_per_event
    finite = np.isfinite(ll_e) and np.isfinite(result.best_dev_ll)
    report(7, finite and ll_e >= ll_mhp - 0.1 and elapsed < 900.0,
           f"mhp-e test ll/event {ll_e:.4f} vs mhp {ll_mhp:.4f} "
           f"(within 0.1 nats), no divergence, {elapsed:.0f}s (bound 900s)")


def test_criterion_8_batching_transparency():
    t0 = time.perf_counter()
    model = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=3), seed=8)
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 6))
        seqs = []
        for _ in range(n):
            L = int(rng.integers(2, 14))
            t = np.cumsum(rng.uniform(0.1, 1.2, size=L))
            seqs.append(EventSequence(t, rng.integers(1, 4, size=L), 3))
        ds = Dataset(seqs, 3, "x")
        unbatched = sum(float(model.losses(s).total.data) for s in ds)
        (bat,) = batch(ds, n)
        batched, _, _ = loss_on_batch(model, bat)
        worst = max(worst, abs(float(batched.data) - unbatched) / abs(unbatched))
    elapsed = time.perf_counter() - t0
    report(8, worst < 1e-10 and elapsed < 10.0,
           f"max rel diff padded-batch vs unbatched sum = {worst:.2e} over 20 "
           f"mixed-length batches (bound 1e-10), {elapsed:.1f}s (bound 10s)")


def test_criterion_9_pipeline_determinism(tmp_path_factory):
    t0 = time.perf_counter()
    outputs = []
    for run in ("one", "two"):
        root = tmp_path_factory.mktemp(f"det_{run}")
        data, out, ev = root / "data", root / "out", root / "eval"
        assert cli_main(["generate", "--seed", "11", "--out", str(data),
                         "--n-train", "40", "--n-dev", "10", "--n-test", "10"]) == 0
        cfg = root / "config.json"
        cfg.write_text(json.dumps(dict(
            arch="mhp", d_model=8, d_state=4, n_layers=1,
            lr=1e-3, batch_size=4, epochs=3, seed=11, eval_quad_points=256)))
        assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)]) == 0
        assert cli_main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--data", str(data), "--split", "test", "--out", str(ev)]) == 0
        outputs.append({
            "train_csv": (out / "metrics.csv").read_bytes(),
            "eval_csv": (ev / "eval_metrics.csv").read_bytes(),
            "checkpoint": (out / "checkpoint.ckpt").read_bytes(),
        })
    elapsed = time.perf_counter() - t0
    same = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    report(9, same and elapsed < 1200.0,
           f"metrics CSVs and checkpoint byte-identical across two seeded "
           f"pipeline runs: {same}, {elapsed:.0f}s (bound 2x criterion 6)")
