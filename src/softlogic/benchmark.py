"""Benchmark harness for the four UCI classification tasks.

Data files are not shipped; ``scripts/fetch_datasets.py`` downloads them
into the dataset directory (``--data-dir`` flag or ``SOFTLOGIC_DATA_DIR``,
default ``datasets/`` under the working directory) where the schema files
already live.  A missing file marks its row SKIPPED instead of failing,
so the harness degrades cleanly in offline environments.

Protocol: per seed, one stratified 70/30 train/test split shared by the
logic network and the dense tanh baseline; reported rates are means over
seeds; the expression comes from the best-seed logic model.  Reference
rates from earlier published runs of the same tasks are carried per
benchmark for side-by-side comparison; the original split protocol behind
them is unknown, so matching them exactly is not a goal.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import extraction, training
from .data import Dataset, DataError, load_csv, load_schema, split_dataset
from .expressions import render
from .network import NetworkConfig, build_network

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "BenchmarkRow",
    "resolve_data_dir",
    "run_benchmark",
    "write_benchmark_csv",
    "format_benchmark_table",
    "CSV_COLUMNS",
]

DATA_DIR_ENV = "SOFTLOGIC_DATA_DIR"


@dataclass(frozen=True)
class BenchmarkSpec:
    key: str
    data_file: str
    schema_file: str
    url: str
    paper_fuzzy: float
    paper_dnn: float
    expected_rows: int
    expected_columns: int


_UCI = "https://archive.ics.uci.edu/ml/machine-learning-databases"

BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec(
        key="breast-cancer",
        data_file="breast-cancer-wisconsin.data",
        schema_file="breast-cancer-wisconsin.schema.json",
        url=f"{_UCI}/breast-cancer-wisconsin/breast-cancer-wisconsin.data",
        paper_fuzzy=0.25,
        paper_dnn=0.23,
        expected_rows=699,
        expected_columns=11,
    ),
    BenchmarkSpec(
        key="diabetes",
        data_file="pima-indians-diabetes.data",
        schema_file="pima-indians-diabetes.schema.json",
        url=f"{_UCI}/pima-indians-diabetes/pima-indians-diabetes.data",
        paper_fuzzy=0.28,
        paper_dnn=0.26,
        expected_rows=768,
        expected_columns=9,
    ),
    BenchmarkSpec(
        key="kr-vs-kp",
        data_file="kr-vs-kp.data",
        schema_file="kr-vs-kp.schema.json",
        url=f"{_UCI}/chess/king-rook-vs-king-pawn/kr-vs-kp.data",
        paper_fuzzy=0.07,
        paper_dnn=0.06,
        expected_rows=3196,
        expected_columns=37,
    ),
    BenchmarkSpec(
        key="vote",
        data_file="house-votes-84.data",
        schema_file="house-votes-84.schema.json",
        url=f"{_UCI}/voting-records/house-votes-84.data",
        paper_fuzzy=0.29,
        paper_dnn=0.05,
        expected_rows=435,
        expected_columns=17,
    ),
)


@dataclass
class BenchmarkRow:
    key: str
    status: str                       # "ok" or "SKIPPED"
    fuzzy_rate: float | None = None
    dnn_rate: float | None = None
    paper_fuzzy: float | None = None
    paper_dnn: float | None = None
    expression: str = ""
    faithfulness: float | None = None
    detail: str = ""                  # skip reason


CSV_COLUMNS = [
    "dataset",
    "status",
    "fuzzy_rate",
    "dnn_rate",
    "paper_fuzzy",
    "paper_dnn",
    "expression",
    "faithfulness",
]


def resolve_data_dir(explicit: str | None = None) -> Path:
    """Dataset directory: explicit flag, else environment, else ./datasets."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path("datasets")


def _load_benchmark(spec: BenchmarkSpec, data_dir: Path) -> Dataset:
    data_path = data_dir / spec.data_file
    schema_path = data_dir / spec.schema_file
    if not data_path.exists():
        raise FileNotFoundError(
            f"{data_path} missing; run scripts/fetch_datasets.py"
        )
    if not schema_path.exists():
        raise FileNotFoundError(f"{schema_path} missing")
    dataset = load_csv(data_path, load_schema(schema_path))
    if dataset.row_count != spec.expected_rows:
        raise DataError(
            f"{spec.key}: expected {spec.expected_rows} rows,"
            f" loaded {dataset.row_count}"
        )
    return dataset


def _run_one(spec: BenchmarkSpec, dataset: Dataset, seeds: range,
             test_fraction: float, hidden_width: int,
             train_config_base: training.TrainConfig) -> BenchmarkRow:
    fuzzy_rates = []
    dnn_rates = []
    best = None    # (rate, trained network, test part)
    for seed in seeds:
        train_part, test_part = split_dataset(dataset, test_fraction, seed=seed)
        cfg = replace(train_config_base, seed=seed)
        net = build_network(
            dataset.feature_count, dataset.class_count,
            NetworkConfig(hidden_width=hidden_width, seed=seed),
            feature_names=dataset.feature_names,
            label_names=dataset.label_names,
        )
        result = training.train(net, train_part, cfg)
        rate = training.evaluate(result.network, test_part).misclassification_rate
        fuzzy_rates.append(rate)
        if best is None or rate < best[0]:
            best = (rate, result.network, test_part)

        baseline = training.build_baseline(
            dataset.feature_count, dataset.class_count,
            replace(training.BaselineConfig.mirroring(dataset.feature_count, hidden_width),
                    seed=seed),
        )
        base_result = training.train(baseline, train_part, cfg)
        dnn_rates.append(
            training.evaluate(base_result.network, test_part).misclassification_rate
        )

    xcfg = extraction.ExtractionConfig()
    expr = extraction.trace_expression(best[1], xcfg)
    omit, reason = extraction.should_omit(expr, xcfg)
    expression = f"omitted: {reason}" if omit else render(expr)
    faith = extraction.faithfulness(best[1], expr, best[2].features, xcfg)
    return BenchmarkRow(
        key=spec.key,
        status="ok",
        fuzzy_rate=float(np.mean(fuzzy_rates)),
        dnn_rate=float(np.mean(dnn_rates)),
        paper_fuzzy=spec.paper_fuzzy,
        paper_dnn=spec.paper_dnn,
        expression=expression,
        faithfulness=faith,
    )


def run_benchmark(data_dir: str | Path | None = None, seeds: int = 5,
                  test_fraction: float = 0.30, hidden_width: int = 8,
                  keys: list[str] | None = None) -> list[BenchmarkRow]:
    """Run every benchmark found in the data directory; missing ones are
    marked SKIPPED rather than raising."""
    if type(seeds) is not int or seeds < 1:     # a bool is not a count
        raise ValueError(f"seeds must be an integer of at least 1, got {seeds!r}")
    if not (isinstance(test_fraction, float) and 0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie strictly between 0 and 1, got {test_fraction!r}")
    NetworkConfig(hidden_width=hidden_width)    # checks hidden_width
    unknown = sorted(set(keys or ()) - {spec.key for spec in BENCHMARKS})
    if unknown:
        raise ValueError(f"unknown benchmark key(s) {', '.join(map(repr, unknown))};"
                         f" known: {', '.join(spec.key for spec in BENCHMARKS)}")
    directory = resolve_data_dir(str(data_dir) if data_dir else None)
    rows = []
    for spec in BENCHMARKS:
        if keys is not None and spec.key not in keys:
            continue
        try:
            dataset = _load_benchmark(spec, directory)
        except (FileNotFoundError, DataError) as exc:
            rows.append(BenchmarkRow(
                key=spec.key,
                status="SKIPPED",
                paper_fuzzy=spec.paper_fuzzy,
                paper_dnn=spec.paper_dnn,
                detail=str(exc),
            ))
            continue
        rows.append(_run_one(
            spec, dataset, range(seeds), test_fraction, hidden_width,
            training.TrainConfig()
        ))
    return rows


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def write_benchmark_csv(rows: list[BenchmarkRow], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row.key,
                row.status,
                _cell(row.fuzzy_rate),
                _cell(row.dnn_rate),
                _cell(row.paper_fuzzy),
                _cell(row.paper_dnn),
                row.expression,
                _cell(row.faithfulness),
            ])


def format_benchmark_table(rows: list[BenchmarkRow]) -> str:
    """Plain-text side-by-side table with the reference-rate footer."""
    header = f"{'dataset':<16}{'status':<9}{'fuzzy':>8}{'dnn':>8}{'ref-fuzzy':>11}{'ref-dnn':>9}  expression"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.key:<16}{row.status:<9}"
            f"{_cell(row.fuzzy_rate):>8}{_cell(row.dnn_rate):>8}"
            f"{_cell(row.paper_fuzzy):>11}{_cell(row.paper_dnn):>9}"
            f"  {row.expression}"
            + (f"  [faithfulness {row.faithfulness:.3f}]"
               if row.faithfulness is not None else "")
        )
        if row.status == "SKIPPED":
            lines.append(f"{'':<16}  reason: {row.detail}")
    lines.append("")
    lines.append(
        "ref columns are previously published rates for these tasks; their"
        " split protocol is unknown, ours is a stratified 70/30 mean over"
        " seeds."
    )
    return "\n".join(lines)
