"""Benchmark harness: registry, directory resolution, offline behavior."""

import json
from pathlib import Path

import pytest

from softlogic.benchmark import (
    BENCHMARKS,
    BenchmarkRow,
    BenchmarkSpec,
    CSV_COLUMNS,
    DATA_DIR_ENV,
    _run_one,
    format_benchmark_table,
    resolve_data_dir,
    run_benchmark,
    write_benchmark_csv,
)
from softlogic.data import generate_synthetic
from softlogic.expressions import Gate, Leaf
from softlogic.operators import OperatorKind
from softlogic import training
from softlogic.training import TrainConfig

REPO_DATASETS = Path(__file__).resolve().parent.parent / "datasets"


# ------------------------------------------------------------- registry


def test_registry_lists_four_tasks_with_unique_keys():
    keys = [spec.key for spec in BENCHMARKS]
    assert keys == ["breast-cancer", "diabetes", "kr-vs-kp", "vote"]
    assert len(set(keys)) == 4
    for spec in BENCHMARKS:
        assert spec.url.startswith("https://")
        assert 0.0 < spec.paper_fuzzy < 1.0
        assert 0.0 < spec.paper_dnn < 1.0
        assert spec.expected_rows > 0


def test_schemas_for_every_benchmark_ship_with_the_repo():
    for spec in BENCHMARKS:
        schema_path = REPO_DATASETS / spec.schema_file
        assert schema_path.exists(), spec.schema_file
        raw = json.loads(schema_path.read_text())
        labels = [c for c in raw["columns"] if c["kind"] == "label"]
        assert len(labels) == 1
        assert len(raw["columns"]) == spec.expected_columns


# ------------------------------------------------------------ directory


def test_resolve_data_dir_precedence(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    assert resolve_data_dir() == Path("datasets")
    monkeypatch.setenv(DATA_DIR_ENV, "/somewhere/else")
    assert resolve_data_dir() == Path("/somewhere/else")
    assert resolve_data_dir("/explicit/wins") == Path("/explicit/wins")


# -------------------------------------------------------------- offline


def test_missing_files_mark_rows_skipped(tmp_path):
    rows = run_benchmark(data_dir=tmp_path)
    assert [r.key for r in rows] == [s.key for s in BENCHMARKS]
    for row in rows:
        assert row.status == "SKIPPED"
        assert "missing" in row.detail
        assert row.paper_fuzzy is not None


def test_wrong_row_count_marks_skipped(tmp_path):
    spec = BENCHMARKS[-1]          # vote
    schema = (REPO_DATASETS / spec.schema_file).read_text()
    (tmp_path / spec.schema_file).write_text(schema)
    row = "rep," + ",".join(["y"] * 16)
    (tmp_path / spec.data_file).write_text("\n".join([row] * 3) + "\n")
    rows = run_benchmark(data_dir=tmp_path, keys=["vote"])
    assert len(rows) == 1
    assert rows[0].status == "SKIPPED"
    assert "expected 435" in rows[0].detail


def test_keys_filter_restricts_rows(tmp_path):
    rows = run_benchmark(data_dir=tmp_path, keys=["diabetes"])
    assert [r.key for r in rows] == ["diabetes"]


def _no_file_is_read(spec, directory):
    raise AssertionError(f"{spec.key} was loaded before the arguments were checked")


@pytest.mark.parametrize("seeds", [0, -1, True, 2.0, None])
def test_run_benchmark_rejects_a_seed_count_below_one(tmp_path, monkeypatch, seeds):
    monkeypatch.setattr("softlogic.benchmark._load_benchmark", _no_file_is_read)
    with pytest.raises(ValueError, match="seeds must be an integer of at least 1"):
        run_benchmark(data_dir=tmp_path, seeds=seeds)


@pytest.mark.parametrize("settings, message", [
    ({"test_fraction": 1.5}, "test_fraction must lie strictly between 0 and 1, got 1.5"),
    ({"test_fraction": 0.0}, "test_fraction must lie strictly between 0 and 1"),
    ({"test_fraction": None}, "test_fraction must lie strictly between 0 and 1"),
    ({"hidden_width": 1}, "hidden_width must be at least 2"),
    ({"hidden_width": 8.0}, "hidden_width must be an integer"),
], ids=["test-fraction-1.5", "test-fraction-0", "test-fraction-none", "hidden-width-1",
        "hidden-width-float"])
def test_run_benchmark_checks_its_settings_before_reading_a_file(tmp_path, monkeypatch,
                                                                  settings, message):
    monkeypatch.setattr("softlogic.benchmark._load_benchmark", _no_file_is_read)
    with pytest.raises(ValueError, match=message):
        run_benchmark(data_dir=tmp_path, **settings)


def test_run_benchmark_rejects_an_unknown_key(tmp_path, monkeypatch):
    monkeypatch.setattr("softlogic.benchmark._load_benchmark", _no_file_is_read)
    with pytest.raises(ValueError, match="unknown benchmark key.* 'nosuch'; known: breast-cancer"):
        run_benchmark(data_dir=tmp_path, keys=["vote", "nosuch"])


# ------------------------------------------------------------- ok path


def test_run_one_produces_complete_row():
    dataset = generate_synthetic(
        Gate(OperatorKind.CONJUNCTION, 1.0, Leaf(0), Leaf(1)),
        feature_count=3, rows=150, seed=0)
    spec = BenchmarkSpec(
        key="toy", data_file="toy.data",
        schema_file="toy.schema.json", url="https://example.org/toy",
        paper_fuzzy=0.2, paper_dnn=0.1,
        expected_rows=150, expected_columns=4)
    cfg = TrainConfig(max_epochs=5, patience=5)
    row = _run_one(spec, dataset, range(2), 0.30, 4, cfg)
    assert row.status == "ok"
    assert 0.0 <= row.fuzzy_rate <= 1.0
    assert 0.0 <= row.dnn_rate <= 1.0
    assert row.expression
    assert row.detail == ""


def test_run_one_seeds_the_baseline_like_the_logic_network(monkeypatch):
    dataset = generate_synthetic(
        Gate(OperatorKind.CONJUNCTION, 1.0, Leaf(0), Leaf(1)),
        feature_count=3, rows=60, seed=0)
    spec = BenchmarkSpec(
        key="toy", data_file="toy.data",
        schema_file="toy.schema.json", url="https://example.org/toy",
        paper_fuzzy=0.2, paper_dnn=0.1,
        expected_rows=60, expected_columns=4)
    build, seeds = training.build_baseline, []

    def spy(feature_count, class_count, config):
        seeds.append(config.seed)
        return build(feature_count, class_count, config)

    monkeypatch.setattr(training, "build_baseline", spy)
    _run_one(spec, dataset, range(3), 0.30, 4, TrainConfig(max_epochs=1, patience=1))
    assert seeds == [0, 1, 2]


# ------------------------------------------------------------ reporting


def sample_rows():
    return [
        BenchmarkRow(key="toy", status="ok", fuzzy_rate=0.125, dnn_rate=0.1,
                     paper_fuzzy=0.2, paper_dnn=0.15,
                     expression="(0) and (1)", faithfulness=0.975),
        BenchmarkRow(key="gone", status="SKIPPED", paper_fuzzy=0.3,
                     paper_dnn=0.2, detail="file missing"),
    ]


def test_write_benchmark_csv_round_trip(tmp_path):
    path = tmp_path / "b.csv"
    write_benchmark_csv(sample_rows(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == 'toy,ok,0.1250,0.1000,0.2000,0.1500,(0) and (1),0.9750'
    assert lines[2] == "gone,SKIPPED,,,0.3000,0.2000,,"


def test_format_benchmark_table_mentions_skip_reason():
    text = format_benchmark_table(sample_rows())
    assert "(0) and (1)" in text
    assert "reason: file missing" in text
    assert "70/30" in text                 # protocol footer
