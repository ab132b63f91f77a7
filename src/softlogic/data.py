"""Dataset loading, ±1 encoding, splitting and synthetic generation.

CSV files are described by a small JSON schema listing one column kind per
position.  Categorical values are encoded onto the signed interval so they
can feed the network directly: binary categories become -1/+1, multi-way
categories one-hot into ±1 columns, missing values sit at the neutral 0
(or all -1 in a one-hot block).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expressions import LogicExpr, evaluate_crisp

__all__ = [
    "DataError",
    "ColumnSchema",
    "Dataset",
    "load_schema",
    "load_csv",
    "save_csv",
    "numeric_schema",
    "split_dataset",
    "generate_synthetic",
]

COLUMN_KINDS = (
    "numeric",
    "binary_categorical",
    "multi_categorical",
    "categorical",
    "label",
    "ignore",
)


class DataError(ValueError):
    """Raised for malformed data files or schemas."""


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    missing_token: str = "?"

    def __post_init__(self) -> None:
        for key in ("name", "kind", "missing_token"):
            if not isinstance(getattr(self, key), str):
                raise DataError(f"column {key} must be a string, got {getattr(self, key)!r}")
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"unknown column kind {self.kind!r}")


@dataclass(eq=False)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    class_count: int
    label_names: list[str] = field(default_factory=list)
    encoding_report: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2:
            raise DataError("features must be 2-d")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels must align with feature rows")

    @property
    def row_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=self.feature_names,
            class_count=self.class_count,
            label_names=self.label_names,
            encoding_report=self.encoding_report,
        )


def load_schema(path: str | Path) -> list[ColumnSchema]:
    """Read a dataset schema: ``{"missing_token": "?", "columns":
    [{"name": ..., "kind": ...}, ...]}`` with exactly one label column."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: schema must be a JSON object")
    default_missing = raw.get("missing_token", "?")
    items = raw.get("columns", [])
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise DataError(f"{path}: columns must be a list of objects")
    columns = []
    for i, item in enumerate(items):
        columns.append(ColumnSchema(
            name=item.get("name", f"col{i}"),
            kind=item.get("kind"),
            missing_token=item.get("missing_token", default_missing),
        ))
    if sum(1 for c in columns if c.kind == "label") != 1:
        raise DataError(f"{path}: schema must have exactly one label column")
    return columns


def _read_rows(path: Path, width: int) -> list[list[str]]:
    rows = []
    with open(path, newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # skip blank lines
            if len(row) != width:
                raise DataError(
                    f"{path} line {lineno}: expected {width} columns,"
                    f" got {len(row)}"
                )
            rows.append([field.strip() for field in row])
    return rows


def _encode_numeric(values: list[str], col: ColumnSchema,
                    report: list[str]) -> tuple[np.ndarray, list[str]]:
    out = np.zeros(len(values))
    missing = 0
    for r, v in enumerate(values):
        if v == col.missing_token:
            missing += 1
            continue
        try:
            out[r] = float(v)
        except ValueError as exc:
            raise DataError(
                f"column {col.name!r}: cannot parse {v!r} as a number"
            ) from exc
    note = f"{col.name}: numeric"
    if missing:
        note += f" ({missing} missing mapped to 0)"
    report.append(note)
    return out[:, None], [col.name]


def _encode_binary(values: list[str], col: ColumnSchema,
                   report: list[str]) -> tuple[np.ndarray, list[str]]:
    present = [v for v in values if v != col.missing_token]
    categories = sorted(set(present))
    extra: set[str] = set()
    if len(categories) > 2:
        # Keep the two most frequent categories; anything else is treated
        # as unknown and mapped to the neutral 0.
        counts = {c: present.count(c) for c in categories}
        keep = sorted(sorted(categories), key=lambda c: -counts[c])[:2]
        extra = set(categories) - set(keep)
        categories = sorted(keep)
        warnings.warn(
            f"column {col.name!r}: values {sorted(extra)} not in the binary"
            " pair, mapped to 0"
        )
    mapping = {}
    if len(categories) == 2:
        mapping = {categories[0]: -1.0, categories[1]: 1.0}
    elif len(categories) == 1:
        mapping = {categories[0]: 1.0}
    out = np.zeros(len(values))
    for r, v in enumerate(values):
        out[r] = mapping.get(v, 0.0)
    desc = ", ".join(f"{c}={mapping[c]:+.0f}" for c in categories)
    note = f"{col.name}: binary ({desc}, {col.missing_token}=0)"
    if extra:
        note += f"; unknown {sorted(extra)} mapped to 0"
    report.append(note)
    return out[:, None], [col.name]


def _encode_multi(values: list[str], col: ColumnSchema,
                  report: list[str]) -> tuple[np.ndarray, list[str]]:
    categories = sorted(set(v for v in values if v != col.missing_token))
    if not categories:
        raise DataError(f"column {col.name!r}: no categories present")
    index = {c: k for k, c in enumerate(categories)}
    out = -np.ones((len(values), len(categories)))
    for r, v in enumerate(values):
        if v in index:
            out[r, index[v]] = 1.0
    report.append(
        f"{col.name}: one-hot over {categories} (missing=all -1)"
    )
    return out, [f"{col.name}={c}" for c in categories]


def _encode_label(values: list[str], col: ColumnSchema,
                  report: list[str]) -> tuple[np.ndarray, list[str]]:
    order: list[str] = []
    seen = {}
    for v in values:
        if v == col.missing_token:
            raise DataError(f"column {col.name!r}: missing label value")
        if v not in seen:
            seen[v] = len(order)
            order.append(v)
    labels = np.array([seen[v] for v in values], dtype=np.intp)
    report.append(
        f"{col.name}: label classes {order} numbered by first occurrence"
    )
    return labels, order


def load_csv(path: str | Path, schema: list[ColumnSchema]) -> Dataset:
    """Load and encode a CSV file according to its schema.

    Encoding is stable: the same file and schema always produce identical
    matrices.  The ``categorical`` kind resolves to binary or one-hot from
    the observed number of categories.
    """
    path = Path(path)
    rows = _read_rows(path, len(schema))
    if not rows:
        raise DataError(f"{path}: no data rows")
    report: list[str] = []
    blocks: list[np.ndarray] = []
    names: list[str] = []
    labels = None
    label_names: list[str] = []
    for c, col in enumerate(schema):
        values = [row[c] for row in rows]
        if col.kind == "ignore":
            report.append(f"{col.name}: ignored")
            continue
        if col.kind == "label":
            labels, label_names = _encode_label(values, col, report)
            continue
        kind = col.kind
        if kind == "categorical":
            distinct = len(set(v for v in values if v != col.missing_token))
            kind = "binary_categorical" if distinct <= 2 else "multi_categorical"
        if kind == "numeric":
            block, cols = _encode_numeric(values, col, report)
        elif kind == "binary_categorical":
            block, cols = _encode_binary(values, col, report)
        else:
            block, cols = _encode_multi(values, col, report)
        blocks.append(block)
        names.extend(cols)
    if labels is None:
        raise DataError(f"{path}: schema has no label column")
    features = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    return Dataset(
        features=features,
        labels=labels,
        feature_names=names,
        class_count=len(label_names),
        label_names=label_names,
        encoding_report=report,
    )


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Dump encoded features plus integer label, one row per instance."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def numeric_schema(feature_names: list[str], label_name: str = "label") -> dict:
    """Schema dict for files written by :func:`save_csv`."""
    return {
        "missing_token": "?",
        "columns": [{"name": n, "kind": "numeric"} for n in feature_names]
        + [{"name": label_name, "kind": "label"}],
    }


def split_dataset(dataset: Dataset, fraction: float, seed: int = 0,
                  stratified: bool = True) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) split; ``fraction`` is the test share.

    Stratified splitting rounds the share per class, so proportions hold
    within one instance per class.  A class with a single member stays in
    the training part with a warning.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    n = dataset.row_count
    test_idx: list[np.ndarray] = []
    if stratified:
        for cls in range(dataset.class_count):
            members = np.nonzero(dataset.labels == cls)[0]
            if members.shape[0] == 0:
                continue
            if members.shape[0] == 1:
                warnings.warn(
                    f"class {cls} has a single instance; kept for training"
                )
                continue
            members = members[rng.permutation(members.shape[0])]
            take = int(round(fraction * members.shape[0]))
            test_idx.append(members[:take])
    else:
        order = rng.permutation(n)
        test_idx.append(order[:int(round(fraction * n))])
    test_mask = np.zeros(n, dtype=bool)
    if test_idx:
        test_mask[np.concatenate(test_idx)] = True
    train = dataset.take(np.nonzero(~test_mask)[0])
    test = dataset.take(np.nonzero(test_mask)[0])
    return train, test


def relabel(dataset: Dataset, label_names: list[str]) -> Dataset:
    """Renumber labels to match the class order of ``label_names``.

    Class indices follow first occurrence within each file, so two loads
    of the same problem can disagree on numbering; this aligns a dataset
    to a reference ordering such as the one a model was trained with.
    Every name present in the dataset must appear in ``label_names``.
    """
    if not dataset.label_names:
        raise DataError("dataset carries no label names to align")
    index_of = {name: i for i, name in enumerate(label_names)}
    try:
        mapping = np.asarray(
            [index_of[name] for name in dataset.label_names], dtype=np.intp
        )
    except KeyError as exc:
        raise DataError(
            f"label {exc.args[0]!r} not among the reference labels"
            f" {label_names}"
        ) from None
    return Dataset(
        features=dataset.features,
        labels=mapping[dataset.labels],
        feature_names=dataset.feature_names,
        class_count=len(label_names),
        label_names=list(label_names),
        encoding_report=dataset.encoding_report,
    )


def generate_synthetic(expr: LogicExpr, feature_count: int, rows: int,
                       noise: float = 0.0, seed: int = 0) -> Dataset:
    """Labeled sample of a crisp logic expression over random features.

    Features are drawn uniform on [0, 1] (stored on the signed interval),
    the expression's leaf indices address features directly, and the crisp
    evaluation thresholded at 1/2 gives the label.  ``noise`` is the
    probability of flipping each label.
    """
    if not (0.0 <= noise < 0.5):
        raise ValueError("noise must lie in [0, 0.5)")
    if rows < 1 or feature_count < 1:
        raise ValueError("rows and feature_count must be positive")
    rng = np.random.default_rng(seed)
    unit = rng.uniform(0.0, 1.0, size=(rows, feature_count))
    values = evaluate_crisp(expr, unit)
    labels = (values >= 0.5).astype(np.intp)
    if noise > 0.0:
        flips = rng.uniform(size=rows) < noise
        labels = np.where(flips, 1 - labels, labels)
    return Dataset(
        features=2.0 * unit - 1.0,
        labels=labels,
        feature_names=[f"x{i}" for i in range(feature_count)],
        class_count=2,
        label_names=["0", "1"],
        encoding_report=[f"synthetic: rows={rows}, noise={noise}, seed={seed}"],
    )
