"""Command line interface.

Subcommands cover the whole workflow: ``train`` fits a model and writes
model JSON, a training-log CSV and a run manifest; ``eval`` scores a model
on a dataset; ``extract`` prints the traced logic expression per output
with its faithfulness; ``benchmark`` reproduces the four-task comparison
table; ``plot-squash`` emits ramp-curve CSV data for plotting.

Exit codes: 0 success, 2 usage errors or missing/malformed inputs,
3 numeric failure during training, 4 model/data shape mismatch.

Flags may come from a JSON config file (``--config``); explicit flags win
over config values, config values win over built-in defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import benchmark as bench
from .data import load_csv, load_schema, relabel
from .expressions import gate_depth, leaf_count, render, to_dict as expr_to_dict
from .extraction import (
    ExtractionConfig,
    describe_expression,
    faithfulness,
    leaf_labels,
    should_omit,
    trace_expression,
)
from .network import (
    ConfigurationError,
    LogicNetwork,
    NetworkConfig,
    ShapeMismatchError,
    build_network,
    serialize_model,
)
from .operators import SquashParams, cut, squash
from .training import TrainConfig, TrainingDivergedError, evaluate, train, write_training_log

__all__ = ["main"]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return data


def _setting(name: str, value, kind: type):
    """A config-file value as ``kind`` (int or float); JSON null, booleans,
    strings, non-finite numbers and, for integers, fractions are rejected."""
    if type(value) is int or (type(value) is float and math.isfinite(value)
                              and (kind is float or value.is_integer())):
        try:
            return kind(value)
        except OverflowError:       # an integer too large for a float
            pass
    noun = "an integer" if kind is int else "a finite number"
    raise ConfigurationError(f"config key {name!r} must be {noun}, got {json.dumps(value)}")


class _Options:
    """Flag resolution: explicit flag, else config-file value, else default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config_file(getattr(args, "config", None))
        self.unread = set(self.config)

    def get(self, name: str, default):
        self.unread.discard(name)
        if name in self.config:
            # Checked even when a flag overrides it: the file is malformed.
            default = _setting(name, self.config[name], type(default))
        explicit = getattr(self.args, name, None)
        return default if explicit is None else explicit

    def build(self, cls):
        """``cls`` with every field that has a flag of the same name
        resolved; the rest keep their defaults."""
        return cls(**{f.name: self.get(f.name, f.default)
                      for f in fields(cls) if hasattr(self.args, f.name)})

    def check_all_read(self) -> None:
        """Reject config-file keys the subcommand never read."""
        if self.unread:
            raise ConfigurationError(
                f"unknown config key(s) {', '.join(sorted(self.unread))}"
                f" for {self.args.command}"
            )


def _load_dataset(data_path: str, schema_path: str):
    schema = load_schema(schema_path)
    return load_csv(data_path, schema)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_train(args: argparse.Namespace) -> int:
    opt = _Options(args)
    net_config = opt.build(NetworkConfig)
    train_config = opt.build(TrainConfig)
    opt.check_all_read()
    dataset = _load_dataset(args.data, args.schema)
    net = build_network(
        dataset.feature_count, dataset.class_count, net_config,
        feature_names=dataset.feature_names,
        label_names=dataset.label_names,
    )
    result = train(net, dataset, train_config)

    out_path = Path(args.out)
    out_path.write_text(serialize_model(result.network))
    log_path = Path(args.log) if args.log else out_path.with_suffix(".log.csv")
    write_training_log(result.log, log_path)
    manifest_path = (Path(args.manifest) if args.manifest
                     else out_path.with_suffix(".manifest.json"))
    network = asdict(net_config)
    _write_json(manifest_path, {
        "command": "train",
        "version": __version__,
        "dataset": {
            "path": str(args.data),
            "sha256": _sha256(Path(args.data)),
            "rows": dataset.row_count,
            "features": dataset.feature_count,
            "classes": dataset.class_count,
        },
        "schema": {
            "path": str(args.schema),
            "sha256": _sha256(Path(args.schema)),
        },
        "network": {key: network[key] for key in
                    ("hidden_width", "logic_parts", "alpha_init", "seed")},
        "training": asdict(train_config),
    })
    print(f"model written to {out_path}")
    print(f"log written to {log_path}")
    print(f"manifest written to {manifest_path}")
    print(f"best epoch {result.best_epoch} of {result.epochs_run},"
          f" validation misclassification {result.best_val_rate:.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    net = LogicNetwork.load(args.model)
    dataset = _load_dataset(args.data, args.schema)
    # Class indices are per-file (first occurrence), so align the eval
    # file's numbering with the order the model was trained on.
    if net.label_names:
        dataset = relabel(dataset, net.label_names)
    metrics = evaluate(net, dataset)
    if args.json:
        print(json.dumps(metrics.to_dict(), indent=2))
    else:
        print(f"misclassification rate: {metrics.misclassification_rate:.4f}"
              f" over {metrics.count} rows")
        print("confusion (rows = true class):")
        for row in metrics.confusion:
            print("  " + " ".join(f"{v:6d}" for v in row))
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    opt = _Options(args)
    default = ExtractionConfig()
    config = ExtractionConfig(
        alpha_tolerance=opt.get("alpha_tolerance", default.alpha_tolerance),
        weight_keep_ratio=opt.get("keep_ratio", default.weight_keep_ratio),
        max_rendered_length=opt.get("max_rendered_length", default.max_rendered_length),
        max_terms_per_node=opt.get("max_terms", default.max_terms_per_node),
    )
    seed, samples = opt.get("seed", 0), opt.get("samples", 2000)
    opt.check_all_read()
    net = LogicNetwork.load(args.model)
    if args.data:
        if not args.schema:
            print("--data requires --schema", file=sys.stderr)
            return 2
        features = _load_dataset(args.data, args.schema).features
    else:
        # No data given: sample the raw feature box the model was fitted on.
        rng = np.random.default_rng(seed)
        features = rng.uniform(
            net.norm_low, net.norm_high, size=(samples, net.feature_count)
        )
    labels = leaf_labels(net, config)
    report, lines = [], []
    for index in range(net.output_width):
        expr = trace_expression(net, config, index)
        omit, reason = should_omit(expr, config)
        tree = expr_to_dict(expr)
        faith = faithfulness(net, expr, features, config, index)
        report.append({
            "output": index,
            # Renderings spell out every path of the DAG; the tree does not.
            "expression": None if omit else render(expr),
            "named": None if omit else describe_expression(expr, labels),
            "omitted": omit,
            "reason": reason,
            "faithfulness": faith,
            "tree": tree,
        })
        if omit:
            lines.append(f"output {index}: omitted: {reason} ({leaf_count(expr)} leaves,"
                         f" {len(tree['nodes'])} distinct nodes, gate depth {gate_depth(expr)})")
        else:
            text = report[-1]["named" if args.leaf_names else "expression"]
            lines.append(f"output {index}: {text}  [faithfulness {faith:.4f}]")
    if args.json:
        print(json.dumps({"format_version": 2, "outputs": report, "leaf_labels": labels},
                         indent=2))
    else:
        print("\n".join(lines))
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    opt = _Options(args)
    settings = dict(seeds=opt.get("seeds", 5),
                    test_fraction=opt.get("test_fraction", 0.30),
                    hidden_width=opt.get("hidden_width", 8))
    opt.check_all_read()
    rows = bench.run_benchmark(data_dir=args.data_dir, keys=args.only or None, **settings)
    bench.write_benchmark_csv(rows, args.out)
    print(bench.format_benchmark_table(rows))
    print(f"\ncsv written to {args.out}")
    return 0


def cmd_plot_squash(args: argparse.Namespace) -> int:
    betas = (10.0, 50.0, 80.0)
    xs = np.arange(2001) * 0.001 - 0.5
    columns = [xs, cut(xs)]
    for beta in betas:
        columns.append(squash(xs, SquashParams(smoothness=beta)))
    out = Path(args.out)
    with open(out, "w") as handle:
        handle.write("x,cut," + ",".join(f"beta{int(b)}" for b in betas) + "\n")
        for row in zip(*columns):
            handle.write(",".join(f"{v:.10g}" for v in row) + "\n")
    print(f"curves written to {out} ({len(xs)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softlogic",
        description="Train, inspect and benchmark interpretable logic networks.",
    )
    parser.add_argument("--version", action="version", version=f"softlogic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on a CSV dataset")
    p_train.add_argument("--data", required=True, help="CSV data file")
    p_train.add_argument("--schema", required=True, help="JSON schema file")
    p_train.add_argument("--out", required=True, help="model JSON output path")
    p_train.add_argument("--log", help="training log CSV path")
    p_train.add_argument("--manifest", help="run manifest JSON path")
    p_train.add_argument("--config", help="JSON file of flag defaults")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--hidden-width", dest="hidden_width", type=int)
    p_train.add_argument("--logic-parts", dest="logic_parts", type=int)
    p_train.add_argument("--learning-rate", dest="learning_rate", type=float)
    p_train.add_argument("--l1", dest="l1_regularization", type=float)
    p_train.add_argument("--max-epochs", dest="max_epochs", type=int)
    p_train.add_argument("--patience", type=int)
    p_train.add_argument("--batch-size", dest="batch_size", type=int)
    p_train.add_argument("--validation-fraction", dest="validation_fraction", type=float)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--schema", required=True)
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.set_defaults(func=cmd_eval)

    p_extract = sub.add_parser("extract", help="trace a model into logic expressions")
    p_extract.add_argument("--model", required=True)
    p_extract.add_argument("--data", help="dataset for the faithfulness estimate")
    p_extract.add_argument("--schema")
    p_extract.add_argument("--config", help="JSON file of flag defaults")
    p_extract.add_argument("--samples", type=int, help="sample count when no data given")
    p_extract.add_argument("--seed", type=int)
    p_extract.add_argument("--alpha-tolerance", dest="alpha_tolerance", type=float)
    p_extract.add_argument("--keep-ratio", dest="keep_ratio", type=float)
    p_extract.add_argument("--max-terms", dest="max_terms", type=int)
    p_extract.add_argument("--leaf-names", action="store_true",
                           help="print feature names instead of slot indices")
    p_extract.add_argument("--json", action="store_true")
    p_extract.set_defaults(func=cmd_extract)

    p_bench = sub.add_parser("benchmark", help="run the four-task comparison")
    p_bench.add_argument("--data-dir", dest="data_dir",
                         help=f"dataset directory (or ${bench.DATA_DIR_ENV})")
    p_bench.add_argument("--out", default="benchmark.csv", help="report CSV path")
    p_bench.add_argument("--config", help="JSON file of flag defaults")
    p_bench.add_argument("--seeds", type=int)
    p_bench.add_argument("--test-fraction", dest="test_fraction", type=float)
    p_bench.add_argument("--hidden-width", dest="hidden_width", type=int)
    p_bench.add_argument("--only", action="append",
                         help="restrict to a benchmark key (repeatable)")
    p_bench.set_defaults(func=cmd_benchmark)

    p_plot = sub.add_parser("plot-squash", help="emit squashing-curve CSV data")
    p_plot.add_argument("--out", default="squash_curves.csv")
    p_plot.set_defaults(func=cmd_plot_squash)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShapeMismatchError as exc:
        print(f"shape mismatch: {exc}", file=sys.stderr)
        return 4
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    # DataError and ConfigurationError are ValueErrors; anything else in the
    # family means a flag or file carried an unusable value.
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
