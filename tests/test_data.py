"""Schema-driven CSV loading, signed encodings, splits, synthetic data."""

import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from softlogic.data import (
    COLUMN_KINDS,
    ColumnSchema,
    DataError,
    Dataset,
    generate_synthetic,
    load_csv,
    load_schema,
    numeric_schema,
    relabel,
    save_csv,
    split_dataset,
)
from softlogic.expressions import Gate, Leaf
from softlogic.operators import OperatorKind


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def schema_file(tmp_path, columns, missing="?"):
    return write(tmp_path, "schema.json",
                 json.dumps({"missing_token": missing, "columns": columns}))


# -------------------------------------------------------------- schema


def test_load_schema_reads_columns(tmp_path):
    path = schema_file(tmp_path, [
        {"name": "age", "kind": "numeric"},
        {"name": "vote", "kind": "binary_categorical"},
        {"name": "party", "kind": "label"},
    ])
    cols = load_schema(path)
    assert [(c.name, c.kind) for c in cols] == [
        ("age", "numeric"), ("vote", "binary_categorical"), ("party", "label")]
    assert all(c.missing_token == "?" for c in cols)


def test_load_schema_per_column_missing_token(tmp_path):
    path = schema_file(tmp_path, [
        {"name": "a", "kind": "numeric", "missing_token": "NA"},
        {"name": "y", "kind": "label"},
    ], missing="-")
    cols = load_schema(path)
    assert cols[0].missing_token == "NA"
    assert cols[1].missing_token == "-"


def test_load_schema_requires_exactly_one_label(tmp_path):
    path = schema_file(tmp_path, [{"name": "a", "kind": "numeric"}])
    with pytest.raises(DataError):
        load_schema(path)
    path = schema_file(tmp_path, [
        {"name": "a", "kind": "label"}, {"name": "b", "kind": "label"}])
    with pytest.raises(DataError):
        load_schema(path)


def test_load_schema_rejects_bad_json_and_kinds(tmp_path):
    with pytest.raises(DataError):
        load_schema(write(tmp_path, "broken.json", "{not json"))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"columns": [{"name": "caf\xe9", "kind": "label"}]}')
    with pytest.raises(DataError, match="latin1.json': invalid JSON"):
        load_schema(latin1)
    path = schema_file(tmp_path, [
        {"name": "a", "kind": "floatingpoint"},
        {"name": "y", "kind": "label"}])
    with pytest.raises(DataError):
        load_schema(path)


# ------------------------------------------------------------ encoding


def vote_schema():
    return [
        ColumnSchema("vote", "binary_categorical"),
        ColumnSchema("party", "label"),
    ]


def test_binary_encoding_sorted_pair(tmp_path):
    # Lexicographically smaller category takes -1, larger +1, missing 0.
    path = write(tmp_path, "v.csv", "y,dem\nn,rep\n?,dem\nn,dem\n")
    ds = load_csv(path, vote_schema())
    assert ds.features[:, 0].tolist() == [1.0, -1.0, 0.0, -1.0]
    assert ds.labels.tolist() == [0, 1, 0, 0]
    assert ds.label_names == ["dem", "rep"]
    assert ds.class_count == 2


def test_binary_encoding_extra_category_warns_and_zeroes(tmp_path):
    # Two most frequent categories survive; stragglers map to neutral 0.
    path = write(tmp_path, "v.csv", "y,a\nn,a\ny,a\nn,b\nmaybe,b\n")
    with pytest.warns(UserWarning, match="maybe"):
        ds = load_csv(path, vote_schema())
    assert ds.features[:, 0].tolist() == [1.0, -1.0, 1.0, -1.0, 0.0]


def test_one_hot_encoding_signed(tmp_path):
    path = write(tmp_path, "m.csv", "red,0\ngreen,1\nblue,0\n?,1\n")
    schema = [ColumnSchema("color", "multi_categorical"),
              ColumnSchema("y", "label")]
    ds = load_csv(path, schema)
    # Categories sorted: blue, green, red; one +1 each row, missing all -1.
    assert ds.feature_names == ["color=blue", "color=green", "color=red"]
    assert ds.features.tolist() == [
        [-1.0, -1.0, 1.0],
        [-1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0],
        [-1.0, -1.0, -1.0],
    ]
    assert np.all(ds.features.sum(axis=1) == np.array([-1, -1, -1, -3]))


def test_categorical_kind_resolves_by_cardinality(tmp_path):
    path = write(tmp_path, "c.csv", "a,x,0\nb,y,1\na,z,0\n")
    schema = [ColumnSchema("two", "categorical"),
              ColumnSchema("three", "categorical"),
              ColumnSchema("y", "label")]
    ds = load_csv(path, schema)
    assert ds.feature_names == ["two", "three=x", "three=y", "three=z"]
    assert ds.features[:, 0].tolist() == [-1.0, 1.0, -1.0]


def test_numeric_encoding_and_missing(tmp_path):
    path = write(tmp_path, "n.csv", "1.5,0\n?,1\n-2,0\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    ds = load_csv(path, schema)
    assert ds.features[:, 0].tolist() == [1.5, 0.0, -2.0]


def test_numeric_encoding_rejects_garbage(tmp_path):
    path = write(tmp_path, "n.csv", "1.5,0\npotato,1\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    with pytest.raises(DataError, match="potato"):
        load_csv(path, schema)


def test_ignore_column_dropped(tmp_path):
    path = write(tmp_path, "i.csv", "id1,3.0,0\nid2,4.0,1\n")
    schema = [ColumnSchema("id", "ignore"), ColumnSchema("v", "numeric"),
              ColumnSchema("y", "label")]
    ds = load_csv(path, schema)
    assert ds.feature_names == ["v"]
    assert ds.feature_count == 1


def test_label_classes_numbered_by_first_occurrence(tmp_path):
    path = write(tmp_path, "l.csv", "1,zebra\n2,ant\n3,zebra\n4,mole\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    ds = load_csv(path, schema)
    assert ds.label_names == ["zebra", "ant", "mole"]
    assert ds.labels.tolist() == [0, 1, 0, 2]
    assert ds.class_count == 3


def test_missing_label_rejected(tmp_path):
    path = write(tmp_path, "l.csv", "1,a\n2,?\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    with pytest.raises(DataError, match="label"):
        load_csv(path, schema)


def test_malformed_row_reports_line_number(tmp_path):
    path = write(tmp_path, "bad.csv", "1,0\n2,0,extra\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    with pytest.raises(DataError, match="line 2"):
        load_csv(path, schema)


def test_a_wrong_width_row_is_named_by_its_physical_line(tmp_path):
    path = write(tmp_path, "bad.csv", '1,"a\nb"\n2,c,extra\n')
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    with pytest.raises(DataError, match="line 3: expected 2 columns, got 3"):
        load_csv(path, schema)


def test_blank_lines_skipped(tmp_path):
    path = write(tmp_path, "b.csv", "1,0\n\n2,1\n\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    assert load_csv(path, schema).row_count == 2


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "e.csv", "\n\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path, schema)


def test_a_field_over_the_csv_size_limit_names_the_file_and_line(tmp_path):
    path = write(tmp_path, "huge.csv", "1,a\n2,b\n3," + "x" * 200_000 + "\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    with pytest.raises(DataError, match=r"huge.csv' line 3: field larger than field limit"):
        load_csv(path, schema)


def test_a_file_that_is_not_utf8_names_the_file_and_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,a\n" * 3000 + b"2,caf\xe9\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    with pytest.raises(DataError, match=r"latin1.csv' line 3001: 'utf-8' codec can't decode"):
        load_csv(path, schema)


def test_loading_is_deterministic(tmp_path):
    path = write(tmp_path, "d.csv", "y,1.25,a\nn,-0.5,b\n?,0.125,a\n")
    schema = [ColumnSchema("vote", "binary_categorical"),
              ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    a = load_csv(path, schema)
    b = load_csv(path, schema)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------- the per-kind reference
#
# The loader as it was with one encoder per column kind, kept verbatim so
# that load_csv's single encoder can be checked against it bit for bit.
# Only its row reader changed with load_csv's: a wrong-width row is named
# by its physical line, not by its record number.


def reference_read_rows(path, width):
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # skip blank lines
            if len(row) != width:
                raise DataError(
                    f"{str(path)!r} line {reader.line_num}: expected {width} columns,"
                    f" got {len(row)}"
                )
            rows.append([field.strip() for field in row])
    return rows


def reference_encode_numeric(values, col):
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


def reference_encode_binary(values, col):
    present = [v for v in values if v != col.missing_token]
    categories = sorted(set(present))
    if len(categories) > 2:
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
    return out[:, None], [col.name]


def reference_encode_multi(values, col):
    categories = sorted(set(v for v in values if v != col.missing_token))
    if not categories:
        raise DataError(f"column {col.name!r}: no categories present")
    index = {c: k for k, c in enumerate(categories)}
    out = -np.ones((len(values), len(categories)))
    for r, v in enumerate(values):
        if v in index:
            out[r, index[v]] = 1.0
    return out, [f"{col.name}={c}" for c in categories]


def reference_encode_label(values, col):
    order = []
    seen = {}
    for v in values:
        if v == col.missing_token:
            raise DataError(f"column {col.name!r}: missing label value")
        if v not in seen:
            seen[v] = len(order)
            order.append(v)
    labels = np.array([seen[v] for v in values], dtype=np.intp)
    return labels, order


def reference_load_csv(path, schema):
    path = Path(path)
    rows = reference_read_rows(path, len(schema))
    if not rows:
        raise DataError(f"{str(path)!r}: no data rows")
    blocks = []
    names = []
    labels = None
    label_names = []
    for c, col in enumerate(schema):
        values = [row[c] for row in rows]
        if col.kind == "ignore":
            continue
        if col.kind == "label":
            labels, label_names = reference_encode_label(values, col)
            continue
        kind = col.kind
        if kind == "categorical":
            distinct = len(set(v for v in values if v != col.missing_token))
            kind = "binary_categorical" if distinct <= 2 else "multi_categorical"
        if kind == "numeric":
            block, cols = reference_encode_numeric(values, col)
        elif kind == "binary_categorical":
            block, cols = reference_encode_binary(values, col)
        else:
            block, cols = reference_encode_multi(values, col)
        blocks.append(block)
        names.extend(cols)
    if labels is None:
        raise DataError(f"{str(path)!r}: schema has no label column")
    features = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    return Dataset(features=features, labels=labels, feature_names=names,
                   class_count=len(label_names), label_names=label_names)


def load_outcome(load, path, schema):
    """Everything ``load`` observably does: the encoded arrays and names,
    or the error's type and text, plus every warning's text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load(path, schema)
            result = (ds.features.tobytes(), ds.features.shape, ds.feature_names,
                      ds.labels.tobytes(), ds.label_names, ds.class_count)
        except Exception as exc:    # compared, not swallowed
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def assert_loads_like_the_reference(path, schema):
    assert load_outcome(load_csv, path, schema) == load_outcome(reference_load_csv, path, schema)


def write_cells(path, rows, terminator="\r\n"):
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator=terminator).writerows(rows)


@pytest.mark.parametrize("kinds, rows, file_token", [
    # NUL characters: "a" and "a\0" are different categories.
    (["binary_categorical", "label"], [["a", "p"], ["a\x00", "q"], ["a", "p"]], "?"),
    (["multi_categorical", "label"], [["a", "p"], ["a\x00", "q"], ["b", "p"]], "?"),
    (["categorical", "label"], [["\x00", "p"], ["a\x00\x00", "q"], ["?", "p\x00"]], "?"),
    # An all-missing one-hot column, and an all-missing binary one.
    (["multi_categorical", "label"], [["?", "p"], ["?", "q"]], "?"),
    (["categorical", "binary_categorical", "label"], [["NA", "NA", "p"], ["NA", "NA", "q"]],
     "NA"),
    # More than two categories in a binary column, tied at the cut.
    (["binary_categorical", "label"],
     [["c", "p"], ["b", "q"], ["a", "p"], ["a", "p"], ["d", "q"], ["?", "p"]], "?"),
    # An empty missing token; the file's token applies to the label too.
    (["numeric", "categorical", "label"], [["", "x", "p"], ["2", "", "?"], ["3", "y", "q"]], ""),
    (["numeric", "label"], [["1", "p"], ["2", ""]], ""),
    # No label column, every column ignored, a number that does not parse.
    (["numeric", "ignore"], [["1", "z"], ["2", "z"]], "?"),
    (["ignore", "label", "ignore"], [["u", "p", "v"], ["w", "q", "x"]], "?"),
    (["numeric", "label"], [["1", "p"], ["1,5", "q"]], "?"),
    # A wrong-width row after a record of two lines.
    (["numeric", "label"], [["1", "a\nb"], ["2", "c", "extra"]], "?"),
])
def test_load_csv_matches_the_per_kind_reference_on_edge_cases(tmp_path, kinds, rows,
                                                                file_token):
    path = tmp_path / "edge.csv"
    write_cells(path, rows)
    schema = [ColumnSchema(f"c{i}", kind, file_token) for i, kind in enumerate(kinds)]
    assert_loads_like_the_reference(path, schema)


_TOKENS = ["?", "NA", ""]
_CELLS = {
    "numeric": ["0", "1", "-2.5", "1e3", " 7 ", "nan", "inf", "?", "NA", "", "x", "1,5"],
    "categorical": ["a", "b", "c", "d", "a\x00", "\x00", " b ", "?", "NA", "", "x,y", 'q"t',
                    "two\nlines"],
    "label": ["p", "q", "r", "p\x00", "?", "NA", ""],
}


@st.composite
def csv_files(draw):
    """A schema file's columns (a label among up to five feature or ignored
    columns, each maybe with its own missing token) and rows of cells."""
    file_token = draw(st.sampled_from(_TOKENS))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS[:4] + ("ignore",)), max_size=5))
    kinds.insert(draw(st.integers(0, len(kinds))), "label")
    columns = []
    for i, kind in enumerate(kinds):
        column = {"name": f"c{i}", "kind": kind}
        if draw(st.booleans()):
            column["missing_token"] = draw(st.sampled_from(_TOKENS))
        columns.append(column)
    pools = [_CELLS.get(kind, _CELLS["categorical"]) for kind in kinds]
    rows = draw(st.lists(st.tuples(*[st.sampled_from(pool) for pool in pools]),
                         min_size=1, max_size=8))
    return {"missing_token": file_token, "columns": columns}, rows


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files(), st.sampled_from(["\r\n", "\n"]))
def test_load_csv_matches_the_per_kind_reference(tmp_path, payload, terminator):
    schema_json, rows = payload
    path = tmp_path / "random.csv"
    write_cells(path, rows, terminator)
    schema = load_schema(write(tmp_path, "random.schema.json", json.dumps(schema_json)))
    assert_loads_like_the_reference(path, schema)


# ------------------------------------------------------ dataset object


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(features=np.zeros(3), labels=np.zeros(3, dtype=int),
                feature_names=["a"], class_count=2)
    with pytest.raises(DataError):
        Dataset(features=np.zeros((3, 1)), labels=np.zeros(2, dtype=int),
                feature_names=["a"], class_count=2)


@pytest.mark.parametrize("labels", [[0, 5], [0, -1], [2, 1]])
def test_dataset_rejects_labels_outside_the_class_range(labels):
    # Unchecked, evaluate raised an IndexError for 5, counted -1 in the
    # last confusion row, and train fitted a binary target of 5.0.
    with pytest.raises(DataError, match=r"labels must lie in \[0, 2\)"):
        Dataset(features=np.zeros((2, 1)), labels=labels, feature_names=["a"], class_count=2)


def test_dataset_accepts_empty_labels():
    ds = Dataset(features=np.zeros((0, 1)), labels=[], feature_names=["a"], class_count=2)
    assert ds.row_count == 0


def test_take_subsets_rows():
    ds = Dataset(features=np.arange(8.0).reshape(4, 2),
                 labels=np.array([0, 1, 0, 1]),
                 feature_names=["a", "b"], class_count=2)
    sub = ds.take([2, 0])
    assert sub.features.tolist() == [[4.0, 5.0], [0.0, 1.0]]
    assert sub.labels.tolist() == [0, 0]


# ------------------------------------------------------- save round trip


def test_save_csv_round_trip_is_exact(tmp_path):
    ds = generate_synthetic(Gate(OperatorKind.CONJUNCTION, 1.0,
                                 Leaf(0), Leaf(1)),
                            feature_count=3, rows=20, seed=5)
    path = tmp_path / "out.csv"
    save_csv(ds, path)
    schema_path = tmp_path / "out.schema.json"
    schema_path.write_text(json.dumps(numeric_schema(ds.feature_names)))
    back = load_csv(path, load_schema(schema_path))
    assert np.array_equal(back.features, ds.features)   # repr() floats
    # Classes renumber by first occurrence; the partition survives exactly.
    recovered = [int(back.label_names[k]) for k in back.labels]
    assert recovered == ds.labels.tolist()


# --------------------------------------------------------------- split


def balanced_dataset(rows=100, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.normal(size=(rows, 3)),
                   labels=np.arange(rows) % 2,
                   feature_names=["a", "b", "c"], class_count=2)


def test_split_sizes_and_disjointness():
    ds = balanced_dataset(100)
    train, test = split_dataset(ds, 0.3, seed=1)
    assert test.row_count == 30
    assert train.row_count == 70


def test_split_stratification_holds_per_class():
    rng = np.random.default_rng(3)
    labels = np.array([0] * 80 + [1] * 20)
    ds = Dataset(features=rng.normal(size=(100, 2)), labels=labels,
                 feature_names=["a", "b"], class_count=2)
    train, test = split_dataset(ds, 0.25, seed=2)
    assert int(np.sum(test.labels == 0)) == 20
    assert int(np.sum(test.labels == 1)) == 5


def test_split_deterministic_per_seed():
    ds = balanced_dataset(60)
    a_train, a_test = split_dataset(ds, 0.3, seed=9)
    b_train, b_test = split_dataset(ds, 0.3, seed=9)
    c_train, c_test = split_dataset(ds, 0.3, seed=10)
    assert np.array_equal(a_test.features, b_test.features)
    assert not np.array_equal(a_test.features, c_test.features)


def test_split_single_member_class_stays_in_training():
    ds = Dataset(features=np.zeros((5, 2)),
                 labels=np.array([0, 0, 0, 0, 1]),
                 feature_names=["a", "b"], class_count=2)
    with pytest.warns(UserWarning, match="single instance"):
        train, test = split_dataset(ds, 0.5, seed=0)
    assert 1 in train.labels.tolist()
    assert 1 not in test.labels.tolist()


def test_split_rejects_degenerate_fraction():
    ds = balanced_dataset(10)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            split_dataset(ds, bad)


# ------------------------------------------------------------- relabel


def test_relabel_renumbers_to_reference_order(tmp_path):
    path = write(tmp_path, "l.csv", "1,ant\n2,zebra\n3,ant\n")
    schema = [ColumnSchema("v", "numeric"), ColumnSchema("y", "label")]
    ds = load_csv(path, schema)
    assert ds.labels.tolist() == [0, 1, 0]
    aligned = relabel(ds, ["zebra", "ant"])
    assert aligned.labels.tolist() == [1, 0, 1]
    assert aligned.label_names == ["zebra", "ant"]
    assert np.array_equal(aligned.features, ds.features)


def test_relabel_noop_when_order_already_matches():
    ds = generate_synthetic(Gate(OperatorKind.CONJUNCTION, 1.0,
                                 Leaf(0), Leaf(1)),
                            feature_count=2, rows=50, seed=3)
    aligned = relabel(ds, ds.label_names)
    assert np.array_equal(aligned.labels, ds.labels)


def test_relabel_allows_reference_superset():
    ds = Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1, 0]),
                 feature_names=["a", "b"], class_count=2,
                 label_names=["no", "yes"])
    aligned = relabel(ds, ["yes", "no", "maybe"])
    assert aligned.labels.tolist() == [1, 0, 1]
    assert aligned.class_count == 3


def test_relabel_rejects_unknown_and_absent_names():
    ds = Dataset(features=np.zeros((2, 2)), labels=np.array([0, 1]),
                 feature_names=["a", "b"], class_count=2,
                 label_names=["no", "yes"])
    with pytest.raises(DataError, match="'no'"):
        relabel(ds, ["yes", "maybe"])
    bare = Dataset(features=np.zeros((2, 2)), labels=np.array([0, 1]),
                   feature_names=["a", "b"], class_count=2)
    with pytest.raises(DataError, match="no label names"):
        relabel(bare, ["yes", "no"])


# ----------------------------------------------------------- synthetic


def test_synthetic_labels_match_expression():
    expr = Gate(OperatorKind.CONJUNCTION, 1.0, Leaf(0), Leaf(2))
    ds = generate_synthetic(expr, feature_count=3, rows=200, seed=11)
    unit = (ds.features + 1.0) / 2.0
    want = (unit[:, 0] + unit[:, 2] - 1.0 >= 0.5).astype(int)
    assert ds.labels.tolist() == want.tolist()


def test_synthetic_features_live_on_signed_interval():
    ds = generate_synthetic(Leaf(0), feature_count=2, rows=500, seed=0)
    assert ds.features.min() >= -1.0
    assert ds.features.max() <= 1.0
    assert ds.features.min() < -0.9      # actually fills the range
    assert ds.features.max() > 0.9


def test_synthetic_noise_flips_labels():
    expr = Leaf(0)
    clean = generate_synthetic(expr, feature_count=2, rows=1000, seed=3)
    noisy = generate_synthetic(expr, feature_count=2, rows=1000, seed=3,
                               noise=0.2)
    assert np.array_equal(clean.features, noisy.features)
    flips = np.mean(clean.labels != noisy.labels)
    assert 0.1 < flips < 0.3


def test_synthetic_seeded_determinism():
    a = generate_synthetic(Leaf(0), feature_count=2, rows=50, seed=8)
    b = generate_synthetic(Leaf(0), feature_count=2, rows=50, seed=8)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(Leaf(0), feature_count=2, rows=10, noise=0.5)
    with pytest.raises(ValueError):
        generate_synthetic(Leaf(0), feature_count=0, rows=10)
    with pytest.raises(ValueError):
        generate_synthetic(Leaf(5), feature_count=2, rows=10)   # slot range
