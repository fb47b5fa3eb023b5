"""Benchmark of the mamba-hawkes toolkit: train, eval and streaming predict.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
same rounds untraced and traced, alternately, and prints the per-layer
metrics. Either way the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import Tracer, union_length

# Modules that import numpy (clock, workloads, mamba_hawkes) are imported in
# functions called after `main` has pinned the BLAS threads: OpenBLAS reads
# the thread variables once, when numpy loads it.

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 9                # set-ups per run; setup_s is their median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {            # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_s": "events/s",
    "op_ms_p50": "ms",
    "ll_per_event": "nats",
}

PER_LAYER = {
    "data.generate_s": "s", "data.load_s": "s", "data.batch_s": "s",
    "data.batch_pad_frac": "fraction",
    "autograd.backward_s": "s", "autograd.backward_us_per_node": "us",
    "autograd.graph_nodes_per_seq": "count",
    "ssm.block_s": "s", "ssm.block_self_s": "s", "ssm.scan_s": "s",
    "ssm.scan_steps": "count", "ssm.conv_s": "s", "ssm.norm_s": "s",
    "hybrid.attn_s": "s", "hybrid.attn_positions": "count", "hybrid.norm_s": "s",
    "model.embed_s": "s", "model.encode_s": "s", "model.mlp_s": "s",
    "model.event_term_s": "s", "model.compensator_s": "s",
    "model.intensity_evals": "count",
    "training.forward_s": "s", "training.clip_s": "s", "training.adam_s": "s",
    "training.step_ms_p50": "ms", "training.dev_eval_s": "s",
    "training.evaluate_s": "s",
    "checkpoint.save_s": "s", "checkpoint.load_s": "s", "checkpoint.bytes": "bytes",
    "trace.overhead_frac": "fraction", "trace.coverage_frac": "fraction",
}

# counts that must repeat exactly in every traced round
EXACT_COUNTS = ("autograd.graph_nodes", "training.sequences", "ssm.scan_steps",
                "model.intensity_evals", "hybrid.attn_positions")
MIN_COVERAGE = 0.95


def percentile(values, q):
    """Nearest-rank percentile. Above the median it needs at least ten
    samples beyond the reported one, else it raises ValueError."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if q > 50 and len(ordered) - rank < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has "
                         f"{len(ordered) - rank} beyond it; 10 are needed")
    return ordered[rank - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit():
    """HEAD's commit, read from the loose ref or, after `git gc`, packed-refs."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref} not found)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def process_threads():
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return "unknown"


def machine(threads):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads if threads else "unpinned",
        "process_threads": process_threads(),
        "commit": git_commit(),
    }


def set_up(workload, seed, workdir, clock, digest=None):
    """One timed set-up; return the state, reference seconds and wall seconds.
    Raises if its inputs differ from those with `digest`."""
    os.makedirs(workdir, exist_ok=True)
    state, wall, ref = clock.time(workload.setup, seed, workdir)
    if digest is not None and state["digest"] != digest:
        raise RuntimeError("set-up made different inputs from the same seed")
    return state, ref, wall


class Tally:
    """Operations attempted and failed, and the output checks that failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, rnd, label):
        self.attempted += rnd.attempted
        self.failed += rnd.failed
        self.problems += [f"{label}: {p}" for p in rnd.problems]

    def same(self, a, b, what):
        if a != b:
            self.problems.append(what)


def measure(workload, seed, seconds, workdir, tally):
    from clock import Clock

    clock = Clock()
    setup_times, setup_walls = [], []

    def timed_set_up():
        digest = state["digest"] if setup_times else None
        new, ref, wall = set_up(workload, seed, workdir, clock, digest)
        setup_times.append(ref)
        setup_walls.append(wall)
        return new

    # The set-ups are spread over the run, between rounds: the machine's
    # speed drifts in phases longer than a few set-ups, so back-to-back
    # set-ups would all land in one phase.
    state = timed_set_up()
    rounds = []
    start = time.perf_counter()
    deadline = start + seconds
    while not rounds or time.perf_counter() < deadline:
        rnd = workload.run(state, clock)
        tally.add(rnd, f"round {len(rounds)}")
        if rounds:
            tally.same(rnd.output, rounds[0].output, f"round {len(rounds)} output differs")
        rounds.append(rnd)
        if time.perf_counter() >= start + seconds * len(setup_times) / SETUPS:
            state = timed_set_up()
    while len(setup_times) < SETUPS:
        state = timed_set_up()
    good = [r for r in rounds if r.op_seconds]
    op_ms = [s * 1e3 for r in good for s in r.op_seconds]
    wall_ms = [s * 1e3 for r in good for s in r.wall_seconds]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "events_per_s": statistics.median(r.events / sum(r.op_seconds) for r in good)
        if good else None,
        "op_ms_p50": percentile(op_ms, 50) if op_ms else None,
        "ll_per_event": good[0].ll_per_event if good else None,
    }
    try:
        tail = f"{percentile(op_ms, 90)} ms over {len(op_ms)} operations"
    except ValueError as e:
        tail = f"not reported ({e})"
    notes = {
        "op_ms_p90": tail,
        "rounds": len(rounds),
        "error_rate": tally.failed / max(tally.attempted, 1),
        "wall setup_s": statistics.median(setup_walls),
        "wall events_per_s": statistics.median(r.events / sum(r.wall_seconds) for r in good)
        if good else None,
        "wall op_ms_p50": percentile(wall_ms, 50) if wall_ms else None,
    }
    return metrics, notes


def measure_traced(workload, seed, seconds, workdir, tally):
    """Alternate untraced and traced rounds; per-layer metrics are per set-up
    plus the median traced round."""
    from clock import Clock, WallClock
    from workloads import install

    clock = WallClock()
    plain_state, _, _ = set_up(workload, seed, os.path.join(workdir, "plain"), clock)
    tracer = Tracer()
    tracer.op = "setup"
    install(tracer)
    try:
        traced_state, _, _ = set_up(workload, seed, os.path.join(workdir, "traced"), clock)
    finally:
        tracer.restore()
    tally.same(traced_state["digest"], plain_state["digest"],
               "traced set-up made different inputs")

    def traced_round():
        t0 = tracer.clock()
        try:
            return workload.run(traced_state, clock)
        finally:
            windows.append((t0, tracer.clock()))

    # An untimed first round warms allocator and caches and gives the
    # reference output. Then untraced and traced rounds alternate, each pair
    # in the opposite order to the one before; whole rounds are timed in
    # reference seconds for the overhead, with the kernel outside the spans.
    warm = workload.run(plain_state, clock)
    tally.add(warm, "reference round")
    round_clock = Clock()
    plain, traced, windows, ops = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        i = len(traced)
        for kind in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if kind == "plain":
                rnd, _, ref = round_clock.time(workload.run, plain_state, clock)
                plain.append(ref)
            else:
                tracer.op = f"round-{i}"
                ops.append(tracer.op)
                install(tracer)
                try:
                    rnd, _, ref = round_clock.time(traced_round)
                finally:
                    tracer.restore()
                traced.append(ref)
            tally.add(rnd, f"{kind} round {i}")
            tally.same(rnd.output, warm.output, f"{kind} round {i} output differs from reference")

    metrics, notes = layer_metrics(tracer, ops, windows, tally)
    # adjacent rounds share the machine's state, so compare them pair by pair
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced, plain)) - 1.0
    notes["rounds"] = len(traced)
    return metrics, notes, tracer


def layer_metrics(tracer, ops, windows, tally):
    per_op = {op: tracer.totals(op) for op in ["setup"] + ops}
    counts = {op: tracer.counts.get(op, Counter()) for op in ["setup"] + ops}
    calls = {op: Counter(s.name for s in tracer.spans if s.op == op) for op in ops}
    for op in ops[1:]:
        tally.same(calls[op], calls[ops[0]], f"{op} made other calls than {ops[0]}")
        for name in EXACT_COUNTS:
            tally.same(counts[op][name], counts[ops[0]][name],
                       f"{name} differs between {ops[0]} and {op}")
    if any(counts[op]["training.nonfinite_losses"] for op in ops):
        tally.problems.append("a train step had a non-finite loss")

    def total(get):
        """Set-up value plus the median over traced rounds."""
        return get("setup") + statistics.median(get(op) for op in ops)

    def incl(name):
        return total(lambda op: per_op[op][0][name])

    def own(name):
        return total(lambda op: per_op[op][1][name])

    def count(name):  # exact, so any round will do
        return counts["setup"][name] + counts[ops[0]][name]

    def ratio(a, b):
        return a / b if b else 0.0

    steps = []
    for op in ops:  # a step runs from the forward pass to the end of Adam
        start = None
        for s in tracer.spans:
            if s.op == op and s.name == "training.forward":
                start = s.start
            elif s.op == op and s.name == "training.adam" and start is not None:
                steps.append((s.end - start) * 1e3)
                start = None

    top = [(s.start, s.end) for s in tracer.spans if s.parent is None and s.op in ops]
    covered = sum(  # top-level spans clipped to each traced round
        union_length([(max(a, w0), min(b, w1)) for a, b in top if a < w1 and b > w0])
        for w0, w1 in windows)
    coverage = covered / sum(w1 - w0 for w0, w1 in windows)
    if coverage < MIN_COVERAGE:
        tally.problems.append(f"top-level spans cover {coverage:.3f} of traced time "
                              f"(< {MIN_COVERAGE})")

    backward_s = own("autograd.backward")
    nodes = count("autograd.graph_nodes")
    metrics = {
        "data.generate_s": incl("data.generate"),
        "data.load_s": incl("data.load"),
        "data.batch_s": incl("data.batch"),
        "data.batch_pad_frac": ratio(count("data.batch_pad_cells"), count("data.batch_cells")),
        "autograd.backward_s": backward_s,
        "autograd.backward_us_per_node": ratio(backward_s * 1e6, nodes),
        "autograd.graph_nodes_per_seq": ratio(nodes, count("training.sequences")),
        "ssm.block_s": incl("ssm.block"),
        "ssm.block_self_s": own("ssm.block"),
        "ssm.scan_s": incl("ssm.scan"),
        "ssm.scan_steps": count("ssm.scan_steps"),
        "ssm.conv_s": incl("ssm.conv"),
        "ssm.norm_s": incl("ssm.norm"),
        "hybrid.attn_s": incl("hybrid.attn"),
        "hybrid.attn_positions": count("hybrid.attn_positions"),
        "hybrid.norm_s": incl("hybrid.norm"),
        "model.embed_s": incl("model.embed"),
        "model.encode_s": incl("model.encode"),
        "model.mlp_s": incl("model.mlp"),
        "model.event_term_s": incl("model.event_term"),
        "model.compensator_s": incl("model.compensator"),
        "model.intensity_evals": count("model.intensity_evals"),
        "training.forward_s": incl("training.forward"),
        "training.clip_s": incl("training.clip"),
        "training.adam_s": incl("training.adam"),
        "training.step_ms_p50": percentile(steps, 50) if steps else 0.0,
        "training.dev_eval_s": incl("training.dev_eval"),
        "training.evaluate_s": incl("training.evaluate"),
        "checkpoint.save_s": incl("checkpoint.save"),
        "checkpoint.load_s": incl("checkpoint.load"),
        "checkpoint.bytes": count("checkpoint.bytes"),
        "trace.coverage_frac": coverage,
    }
    return metrics, {"train steps timed": len(steps)}


def write_spans(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op}) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "eval", "predict-stream"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="threads for BLAS/OpenMP; 0 leaves them unpinned (default 1)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "mamba_hawkes" / "__init__.py").is_file():
        print(f"error: no mamba_hawkes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        if args.blas_threads:
            os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            metrics, notes, tracer = measure_traced(workload, args.seed, args.seconds,
                                                    str(workdir), tally)
            write_spans(tracer, out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            units = PER_LAYER
        else:
            metrics, notes = measure(workload, args.seed, args.seconds, str(workdir), tally)
            units = END_TO_END
    except Exception:
        traceback.print_exc()
        tally.problems.append("the benchmark raised")
        metrics, notes, units = {}, {}, END_TO_END if not args.trace else PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in machine(args.blas_threads).items():
        print(f"machine.{key}: {value}")
    for key, value in notes.items():
        print(f"note.{key}: {value}")
    for name, unit in units.items():
        print(f"{name}: {metrics.get(name)} {unit}")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    correct = (not tally.problems and tally.failed == 0
               and all(metrics.get(n) is not None for n in units))
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
