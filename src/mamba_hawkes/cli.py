"""Command-line interface: generate / train / eval / predict.

Exit codes: 0 success, 1 usage or config error, 2 data error (including a
file that cannot be read or created), 3 numeric abort during training.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .data import DataError, Dataset, load_jsonl, make_synthetic_benchmark, read_json, save_jsonl
from .training import (NumericsError, TrainConfig, check_two_events, evaluate,
                       scale_times, train, write_metrics)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse prints the usage too and exits 2; a usage error here is
        # one stderr line and status 1
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="mamba-hawkes",
                     description="Event-sequence modeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                               parser_class=_Parser)

    gen = sub.add_parser("generate",
                         help="write the synthetic benchmark as JSONL splits")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--n-train", type=int, default=1600)
    gen.add_argument("--n-dev", type=int, default=200)
    gen.add_argument("--n-test", type=int, default=200)

    tr = sub.add_parser("train", help="train a model")
    tr.add_argument("--config", help="JSON config file mirroring TrainConfig fields")
    tr.add_argument("--data", help="directory with train.jsonl/dev.jsonl[/test.jsonl]")
    tr.add_argument("--out", help="output directory for checkpoint and metrics")
    tr.add_argument("--arch", choices=["mhp", "mhp-e"])
    tr.add_argument("--seed", type=int)
    tr.add_argument("--epochs", type=int)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True,
                    help="directory with <split>.jsonl, or a single JSONL file")
    ev.add_argument("--split", default="test")
    ev.add_argument("--out", help="optional directory for eval_metrics.{csv,json}")

    pr = sub.add_parser("predict",
                        help="next-event distribution and time for a sequence prefix")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--events", required=True, help="JSONL file with the prefix sequence")
    pr.add_argument("--line", type=int, default=1,
                    help="use the N-th sequence (1-based); blank lines do not count")
    return parser


def _cmd_generate(args):
    for flag in ("seed", "n_train", "n_dev", "n_test"):
        if getattr(args, flag) < 0:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 0, got {getattr(args, flag)}")
    os.makedirs(args.out, exist_ok=True)
    splits = make_synthetic_benchmark(args.seed, n_train=args.n_train,
                                      n_dev=args.n_dev, n_test=args.n_test)
    for name, ds in splits.items():
        path = os.path.join(args.out, f"{name}.jsonl")
        if not len(ds):
            # a split left from an earlier run would pass for this one's
            if os.path.exists(path):
                os.remove(path)
                print(f"removed {path}: no {name} sequences requested")
            continue
        save_jsonl(ds, path)
        print(f"wrote {len(ds)} sequences to {path}")
    return 0


def _cmd_train(args):
    overrides = {}
    if args.config:
        try:
            with open(args.config, "rb") as fh:
                overrides = read_json(fh.read(), f"config file {args.config}")
        except OSError as e:
            raise UsageError(f"cannot read config file {args.config}: {e.strerror}") from None
        except DataError as e:
            raise UsageError(str(e)) from None
        if not isinstance(overrides, dict):
            raise UsageError(f"config file {args.config} must contain a JSON object")
    for flag in ("data", "out", "arch", "seed", "epochs"):
        value = getattr(args, flag)
        if value is not None:
            overrides[flag] = value
    try:
        cfg = TrainConfig.from_dict(overrides)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from None
    if not cfg.data:
        raise UsageError("no data directory given (use --data or the config file)")
    if not cfg.out:
        raise UsageError("no output directory given (use --out or the config file)")
    result = train(cfg)
    print(f"best dev ll/event {result.best_dev_ll:.4f} at epoch {result.best_epoch}; "
          f"checkpoint {result.checkpoint_path}")
    if result.test_metrics is not None:
        m = result.test_metrics
        print(f"test ll/event {m.ll_per_event:.4f}, accuracy {m.accuracy:.2f}%, "
              f"rmse {m.rmse:.4f}")
    return 0


def _cmd_eval(args):
    model, meta = load_checkpoint(args.checkpoint)
    path = (os.path.join(args.data, f"{args.split}.jsonl") if os.path.isdir(args.data)
            else args.data)
    dataset = load_jsonl(path, args.split)
    check_two_events(dataset, path, "evaluation")
    if "time_scale" in meta:
        dataset = scale_times(dataset, meta["time_scale"], path)
    try:
        metrics = evaluate(model, dataset)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None
    print(f"{args.split}: ll/event {metrics.ll_per_event:.6f}, "
          f"accuracy {metrics.accuracy:.2f}%, rmse {metrics.rmse:.6f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        epoch = meta.get("best_epoch", 0)
        rows = [(epoch, args.split, metrics.ll_per_event, metrics.accuracy,
                 metrics.rmse, 0.0)]
        summary = {"split": args.split, "checkpoint": args.checkpoint,
                   "meta": meta, "metrics": metrics.__dict__}
        csv_path, json_path = write_metrics(args.out, "eval_metrics", rows, summary)
        print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_predict(args):
    model, meta = load_checkpoint(args.checkpoint)
    dataset = load_jsonl(args.events)
    if dataset.K != model.cfg.K:
        raise DataError(f"{args.events}: K-mismatch: model has K={model.cfg.K}, "
                        f"file has K={dataset.K}")
    if not 1 <= args.line <= len(dataset):
        raise UsageError(f"--line {args.line} out of range (file has {len(dataset)} sequences)")
    seq = dataset.sequences[args.line - 1]
    scale = meta.get("time_scale")
    if scale:
        seq, = scale_times(Dataset([seq], dataset.K), scale, args.events, first=args.line)
    result = model.predict_next(seq)
    next_time = result.next_time / scale if scale else result.next_time
    if not (np.isfinite(next_time) and np.isfinite(result.probs).all()):
        raise DataError(f"{args.checkpoint}: prediction is not finite (next time {next_time}, "
                        f"meta.time_scale {scale!r})")
    print(json.dumps({"probs": [float(p) for p in result.probs],
                      "next_type": result.next_type, "next_time": next_time}))
    return 0


_COMMANDS = {"generate": _cmd_generate, "train": _cmd_train, "eval": _cmd_eval,
             "predict": _cmd_predict}


def main(argv=None):
    # log lines go to stdout with the progress prints; stderr holds only an error line
    logging.basicConfig(stream=sys.stdout, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with np.errstate(all="ignore"):  # explicit checks report non-finite values
            return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
