"""Dataset loading, ±1 encoding, splitting and synthetic generation.

CSV files are described by a small JSON schema listing one column kind per
position.  Categorical values are encoded onto the signed interval so they
can feed the network directly: binary categories become -1/+1, multi-way
categories one-hot into ±1 columns, missing values sit at the neutral 0
(or all -1 in a one-hot block).
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field, replace
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

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2:
            raise DataError("features must be 2-d")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels must align with feature rows")
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() < self.class_count:
            raise DataError(f"labels must lie in [0, {self.class_count})")

    @property
    def row_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return replace(self, features=self.features[idx], labels=self.labels[idx])


def _read_json(path: str | Path):
    """The JSON value in the file at ``path``; a file that is not JSON, or
    not UTF-8 text, is a :class:`DataError` naming the path."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise DataError(f"{str(path)!r}: invalid JSON ({exc})") from exc


def load_schema(path: str | Path) -> list[ColumnSchema]:
    """Read a dataset schema: ``{"missing_token": "?", "columns":
    [{"name": ..., "kind": ...}, ...]}`` with exactly one label column."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise DataError(f"{str(path)!r}: schema must be a JSON object")
    default_missing = raw.get("missing_token", "?")
    items = raw.get("columns", [])
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise DataError(f"{str(path)!r}: columns must be a list of objects")
    # A misspelt optional key would otherwise fall back to its default.
    blocks = [("schema", raw, {"missing_token", "columns"})]
    blocks += [(f"column {i}", item, {"name", "kind", "missing_token"})
               for i, item in enumerate(items)]
    for where, block, known in blocks:
        if set(block) - known:
            raise DataError(f"{str(path)!r}: {where} has unknown key(s)"
                            f" {', '.join(map(repr, sorted(set(block) - known)))}")
    columns = []
    for i, item in enumerate(items):
        columns.append(ColumnSchema(
            name=item.get("name", f"col{i}"),
            kind=item.get("kind"),
            missing_token=item.get("missing_token", default_missing),
        ))
    if sum(1 for c in columns if c.kind == "label") != 1:
        raise DataError(f"{str(path)!r}: schema must have exactly one label column")
    names = [c.name for c in columns]
    if len(set(names)) < len(names):
        duplicate = next(n for n in names if names.count(n) > 1)
        raise DataError(f"{str(path)!r}: column name {duplicate!r} appears more than once")
    return columns


def _read_rows(path: Path, width: int) -> list[list[str]]:
    with open(path, newline="") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:   # one decode call, so start is a file offset
            lineno = exc.object[:exc.start].count(b"\n") + 1
            raise DataError(f"{str(path)!r} line {lineno}: {exc}") from exc
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # skip blank lines
            if len(row) != width:
                raise DataError(
                    f"{str(path)!r} line {reader.line_num}: expected {width} columns,"
                    f" got {len(row)}"
                )
            rows.append([field.strip() for field in row])
    except csv.Error as exc:                # such as a field over csv's size limit
        raise DataError(f"{str(path)!r} line {reader.line_num}: {exc}") from exc
    return rows


def _encode(values: list[str], col: ColumnSchema) -> tuple[np.ndarray, list[str]]:
    """One feature column as a block of encoded columns and their names."""
    if col.kind == "numeric":
        out = np.zeros(len(values))
        for r, v in enumerate(values):
            if v == col.missing_token:
                continue
            try:
                out[r] = float(v)
            except ValueError as exc:
                raise DataError(
                    f"column {col.name!r}: cannot parse {v!r} as a number"
                ) from exc
        return out[:, None], [col.name]
    present = [v for v in values if v != col.missing_token]
    categories = sorted(set(present))
    if col.kind == "multi_categorical" or (col.kind == "categorical" and len(categories) > 2):
        if not categories:
            raise DataError(f"column {col.name!r}: no categories present")
        # Keyed by the strings themselves: numpy's str dtype drops trailing NULs.
        index = {c: k for k, c in enumerate(categories)}
        out = -np.ones((len(values), len(categories)))
        for r, v in enumerate(values):
            if v in index:
                out[r, index[v]] = 1.0
        return out, [f"{col.name}={c}" for c in categories]
    if len(categories) > 2:
        # Keep the two most frequent categories; anything else is treated
        # as unknown and mapped to the neutral 0.
        counts = {c: present.count(c) for c in categories}
        keep = sorted(categories, key=lambda c: -counts[c])[:2]
        warnings.warn(
            f"column {col.name!r}: values {sorted(set(categories) - set(keep))} not in"
            " the binary pair, mapped to 0"
        )
        categories = sorted(keep)
    mapping = dict(zip(categories, (-1.0, 1.0) if len(categories) == 2 else (1.0,)))
    return np.array([mapping.get(v, 0.0) for v in values])[:, None], [col.name]


def load_csv(path: str | Path, schema: list[ColumnSchema]) -> Dataset:
    """Load and encode a CSV file according to its schema.

    Encoding is stable: the same file and schema always produce identical
    matrices.  The ``categorical`` kind resolves to binary or one-hot from
    the observed number of categories.  Classes are numbered by first
    occurrence.
    """
    path = Path(path)
    rows = _read_rows(path, len(schema))
    if not rows:
        raise DataError(f"{str(path)!r}: no data rows")
    blocks: list[np.ndarray] = []
    names: list[str] = []
    labels = None
    for col, values in zip(schema, zip(*rows)):
        if col.kind == "label":
            if col.missing_token in values:
                raise DataError(f"column {col.name!r}: missing label value")
            order = {v: k for k, v in enumerate(dict.fromkeys(values))}
            labels, label_names = [order[v] for v in values], list(order)
        elif col.kind != "ignore":
            block, cols = _encode(values, col)
            blocks.append(block)
            names.extend(cols)
    if labels is None:
        raise DataError(f"{str(path)!r}: schema has no label column")
    features = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    return Dataset(
        features=features,
        labels=labels,
        feature_names=names,
        class_count=len(label_names),
        label_names=label_names,
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


def split_dataset(dataset: Dataset, fraction: float,
                  seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) split; ``fraction`` is the test share.

    Stratified splitting rounds the share per class, so proportions hold
    within one instance per class.  A class with a single member stays in
    the training part with a warning.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    test_idx: list[np.ndarray] = []
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
    test_mask = np.zeros(dataset.row_count, dtype=bool)
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
    return replace(dataset, labels=mapping[dataset.labels], class_count=len(label_names),
                   label_names=list(label_names))


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
    )
