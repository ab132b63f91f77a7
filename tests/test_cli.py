"""Command line workflow: artifacts, exit codes, reproducibility."""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import softlogic
from softlogic.cli import build_parser, main
from softlogic.data import COLUMN_KINDS, generate_synthetic, numeric_schema, save_csv
from softlogic.expressions import Gate, Leaf, from_dict, gate_depth, to_dict
from softlogic.extraction import ExtractionConfig, trace_expression
from softlogic.network import LogicNetwork, NetworkConfig, build_network
from softlogic.operators import OperatorKind
from softlogic.training import TrainConfig


@pytest.fixture()
def corpus(tmp_path):
    """Small on-disk dataset plus matching schema."""
    ds = generate_synthetic(Gate(OperatorKind.CONJUNCTION, 1.0,
                                 Leaf(0), Leaf(1)),
                            feature_count=3, rows=120, seed=0)
    data = tmp_path / "train.csv"
    schema = tmp_path / "train.schema.json"
    save_csv(ds, data)
    schema.write_text(json.dumps(numeric_schema(ds.feature_names)))
    return data, schema


def run_train(tmp_path, data, schema, out_name="model.json", extra=()):
    out = tmp_path / out_name
    code = main(["train", "--data", str(data), "--schema", str(schema),
                 "--out", str(out), "--max-epochs", "5", "--patience", "5",
                 *extra])
    return code, out


# ---------------------------------------------------------------- train


def test_train_writes_model_log_and_manifest(tmp_path, corpus, capsys):
    data, schema = corpus
    code, out = run_train(tmp_path, data, schema)
    assert code == 0
    assert out.exists()
    assert (tmp_path / "model.log.csv").exists()
    assert (tmp_path / "model.manifest.json").exists()
    net = LogicNetwork.load(out)
    assert net.feature_count == 3
    stdout = capsys.readouterr().out
    assert "model written to" in stdout
    assert "best epoch" in stdout


def test_train_manifest_records_inputs_and_settings(tmp_path, corpus):
    data, schema = corpus
    run_train(tmp_path, data, schema)
    manifest = json.loads((tmp_path / "model.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["dataset"]["rows"] == 120
    assert manifest["dataset"]["features"] == 3
    assert len(manifest["dataset"]["sha256"]) == 64
    assert manifest["schema"]["path"] == str(schema)
    assert manifest["training"]["max_epochs"] == 5
    assert manifest["network"]["logic_parts"] == 2


def test_train_rerun_is_byte_identical(tmp_path, corpus):
    data, schema = corpus
    run_train(tmp_path, data, schema, "a.json")
    run_train(tmp_path, data, schema, "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert ((tmp_path / "a.log.csv").read_bytes()
            == (tmp_path / "b.log.csv").read_bytes())
    a_manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    b_manifest = json.loads((tmp_path / "b.manifest.json").read_text())
    assert a_manifest["dataset"] == b_manifest["dataset"]
    assert a_manifest["training"] == b_manifest["training"]


def test_train_seed_changes_model(tmp_path, corpus):
    data, schema = corpus
    run_train(tmp_path, data, schema, "a.json", extra=("--seed", "1"))
    run_train(tmp_path, data, schema, "b.json", extra=("--seed", "2"))
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()


def test_config_file_supplies_defaults_but_flags_win(tmp_path, corpus):
    data, schema = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hidden_width": 4, "logic_parts": 1}))
    out = tmp_path / "m.json"
    code = main(["train", "--data", str(data), "--schema", str(schema),
                 "--out", str(out), "--max-epochs", "2", "--patience", "2",
                 "--config", str(cfg), "--logic-parts", "2"])
    assert code == 0
    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["network"]["hidden_width"] == 4      # from config file
    assert manifest["network"]["logic_parts"] == 2       # flag beats config


def test_config_file_of_a_json_list_exits_2(tmp_path, corpus, capsys):
    data, schema = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, out = run_train(tmp_path, data, schema, extra=("--config", str(cfg)))
    assert code == 2
    assert "config file must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train --config", "extract --config", "eval --model",
                                     "extract --model"])
def test_a_file_that_is_not_json_is_named_in_the_error(tmp_path, corpus, capsys, command):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    argv = {"train --config": ["train", "--data", data, "--schema", schema,
                               "--out", tmp_path / "m.json", "--config", bad],
            "extract --config": ["extract", "--model", model, "--config", bad],
            "eval --model": ["eval", "--model", bad, "--data", data, "--schema", schema],
            "extract --model": ["extract", "--model", bad]}[command]
    assert main([str(arg) for arg in argv]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"bad input: {str(bad)!r}: invalid JSON (Expecting value")


def test_train_missing_data_exits_2(tmp_path, corpus, capsys):
    _, schema = corpus
    code = main(["train", "--data", str(tmp_path / "nope.csv"),
                 "--schema", str(schema), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "missing input" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["schema", "data", "config", "out"])
def test_a_path_holding_a_line_break_prints_one_error_line(tmp_path, corpus, capsys, bad):
    data, schema = corpus
    odd = tmp_path / "bad\nname.json"
    if bad == "out":
        odd.mkdir()
    else:
        odd.write_text({"schema": "not json", "data": "1,2\n", "config": "[1, 2]"}[bad])
    paths = {"schema": schema, "data": data, "config": None, "out": tmp_path / "m.json"}
    paths[bad] = odd
    argv = ["train", "--data", paths["data"], "--schema", paths["schema"], "--out", paths["out"]]
    if paths["config"]:
        argv += ["--config", paths["config"]]
    assert main([str(arg) for arg in argv]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert repr(str(odd)) in line


def test_an_empty_training_split_exits_2(tmp_path, corpus, capsys):
    _, schema = corpus
    data = tmp_path / "small.csv"
    save_csv(generate_synthetic(Gate(OperatorKind.CONJUNCTION, 1.0, Leaf(0), Leaf(1)),
                                feature_count=3, rows=40, seed=0), data)
    # 0.99 of each class of fewer than 50 rows rounds to the whole class.
    code, out = run_train(tmp_path, data, schema, extra=("--validation-fraction", "0.99"))
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("bad input: training split is empty")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    pytest.param(("--hidden-width", "1000000000"), "pairing slots exceed the cap",
                 id="huge-hidden-width"),
    pytest.param(("--logic-parts", "100000000", "--hidden-width", "2"),
                 "parameters exceed the cap", id="hundred-million-parts"),
])
def test_a_network_too_large_to_allocate_exits_2(tmp_path, corpus, capsys, monkeypatch,
                                                 flags, message):
    data, schema = corpus
    # Refused by arithmetic alone: building any pairing table fails the test.
    monkeypatch.setattr("softlogic.network.PairingTable.standard",
                        lambda width: pytest.fail("a pairing table was built"))
    code, out = run_train(tmp_path, data, schema, extra=flags)
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("bad input: ") and message in line
    assert not out.exists()


def test_train_bad_flag_value_exits_2(tmp_path, corpus, capsys):
    data, schema = corpus
    code = main(["train", "--data", str(data), "--schema", str(schema),
                 "--out", str(tmp_path / "m.json"), "--max-epochs", "0"])
    assert code == 2
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("flag, field", [("--learning-rate", "learning_rate"),
                                         ("--l1", "l1_regularization")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_non_finite_rate_exits_2(tmp_path, corpus, capsys, flag, field, value):
    data, schema = corpus
    code, out = run_train(tmp_path, data, schema, extra=(flag, value))
    assert code == 2
    err = capsys.readouterr().err
    assert "bad input" in err and field in err
    assert not out.exists()


def and_corpus(tmp_path):
    """A 300-row planted-``and`` CSV and its schema."""
    ds = generate_synthetic(Gate(OperatorKind.CONJUNCTION, 1.0, Leaf(0), Leaf(1)),
                            feature_count=3, rows=300, seed=0)
    data, schema = tmp_path / "and.csv", tmp_path / "and.schema.json"
    save_csv(ds, data)
    schema.write_text(json.dumps(numeric_schema(ds.feature_names)))
    return data, schema


def test_train_divergence_of_a_2_part_net_exits_3(tmp_path, capsys):
    data, schema = and_corpus(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_train(tmp_path, data, schema, extra=(
            "--learning-rate", "1e300", "--l1", "1e10", "--logic-parts", "2"))
    assert code == 3
    assert "training diverged" in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_in_the_last_update_exits_3(tmp_path, capsys):
    # The one update of the one epoch overflows; no model may keep it.
    data, schema = and_corpus(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_train(tmp_path, data, schema, extra=(
            "--learning-rate", "1e300", "--l1", "1e10", "--max-epochs", "1",
            "--batch-size", "1000", "--logic-parts", "1"))
    assert code == 3
    assert "training diverged" in capsys.readouterr().err
    assert not out.exists()


def run_cli_child(*args):
    """``softlogic *args`` in a fresh interpreter, under Python's default
    warning filters."""
    return run_child("import sys; from softlogic.cli import main; sys.exit(main(sys.argv[1:]))",
                     *args)


def test_divergence_prints_one_line_on_stderr(tmp_path):
    data, schema = and_corpus(tmp_path)
    proc = run_cli_child("train", "--data", str(data), "--schema", str(schema),
                         "--out", str(tmp_path / "m.json"), "--learning-rate", "1e300",
                         "--l1", "1e10", "--logic-parts", "2")
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("training diverged: ")


def test_data_warnings_print_one_line_each_on_stderr(tmp_path):
    # A third category in a binary column, and a class with one row.
    schema = tmp_path / "warn.schema.json"
    schema.write_text(json.dumps({"columns": [
        {"name": "num", "kind": "numeric"},
        {"name": "bin", "kind": "binary_categorical"},
        {"name": "y", "kind": "label"},
    ]}))
    rows = [f"{i / 7:.3f},{'yn'[i % 2]},{'ab'[i % 3 == 0]}" for i in range(40)]
    rows += ["0.5,z,c"]
    data = tmp_path / "warn.csv"
    data.write_text("\n".join(rows) + "\n")
    proc = run_cli_child("train", "--data", str(data), "--schema", str(schema),
                         "--out", str(tmp_path / "m.json"), "--max-epochs", "2")
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 2 and all(line.startswith("warning: ") for line in lines)
    assert "'bin'" in lines[0] and "single instance" in lines[1]


@pytest.mark.parametrize("content", [b"1,2,3,0\n4," + b"5" * 200_000 + b",6,1\n",
                                     b"1,2,3,0\n4,5,6,\xff\n"], ids=["huge-field", "not-utf8"])
def test_an_unreadable_csv_prints_one_bad_input_line(tmp_path, corpus, capsys, content):
    _, schema = corpus
    data = tmp_path / "odd.csv"
    data.write_bytes(content)
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--out", str(tmp_path / "m.json")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"bad input: {str(data)!r} line 2: ")


# ----------------------------------------------------------------- eval


def test_eval_human_and_json_output(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--schema", str(schema)]) == 0
    human = capsys.readouterr().out
    assert "misclassification rate" in human
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--schema", str(schema), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["misclassification_rate"] <= 1.0
    assert len(payload["confusion"]) == 2
    assert payload["count"] == 120


def test_eval_aligns_label_numbering_across_files(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    other = generate_synthetic(Gate(OperatorKind.CONJUNCTION, 1.0,
                                    Leaf(0), Leaf(1)),
                               feature_count=3, rows=80, seed=7)
    other_csv = tmp_path / "other.csv"
    save_csv(other, other_csv)
    # The two files start with opposite labels, so per-file numbering
    # alone would invert this evaluation (rate ~0.82 instead of ~0.18).
    first = lambda p: p.read_text().splitlines()[0].rsplit(",", 1)[1]
    assert first(data) != first(other_csv)
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(other_csv),
                 "--schema", str(schema), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["misclassification_rate"] <= 0.2


def test_eval_rejects_labels_unknown_to_the_model(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    foreign = tmp_path / "foreign.csv"
    foreign.write_text("0.1,0.2,0.3,yes\n0.4,0.5,0.6,no\n")
    code = main(["eval", "--model", str(model), "--data", str(foreign),
                 "--schema", str(schema)])
    assert code == 2
    assert "'yes'" in capsys.readouterr().err


def test_eval_of_more_classes_than_an_unnamed_model_has_exits_2(tmp_path, corpus, capsys):
    _, schema = corpus
    model = saved_model(tmp_path)       # 2 classes, no label names
    three = tmp_path / "three.csv"
    three.write_text("0.1,0.2,0.3,a\n0.4,0.5,0.6,b\n0.7,0.8,0.9,c\n")
    code = main(["eval", "--model", str(model), "--data", str(three),
                 "--schema", str(schema)])
    assert code == 2
    err = capsys.readouterr().err
    assert "dataset has 3 classes, model knows 2" in err and "Traceback" not in err


def test_eval_wrong_width_data_exits_4(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    wide = generate_synthetic(Leaf(0), feature_count=4, rows=10, seed=1)
    wide_csv = tmp_path / "wide.csv"
    wide_schema = tmp_path / "wide.schema.json"
    save_csv(wide, wide_csv)
    wide_schema.write_text(json.dumps(numeric_schema(wide.feature_names)))
    code = main(["eval", "--model", str(model), "--data", str(wide_csv),
                 "--schema", str(wide_schema)])
    assert code == 4
    assert "shape mismatch" in capsys.readouterr().err


def test_eval_corrupt_model_exits_2(tmp_path, corpus, capsys):
    data, schema = corpus
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"other\"}")
    code = main(["eval", "--model", str(bad), "--data", str(data),
                 "--schema", str(schema)])
    assert code == 2


def test_eval_of_a_nan_feature_exits_2(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    holed = tmp_path / "holed.csv"
    lines = data.read_text().splitlines()
    lines[1] = "nan," + lines[1].split(",", 1)[1]
    holed.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["eval", "--model", str(model), "--data", str(holed),
                 "--schema", str(schema)])
    assert code == 2
    assert "bad input: features must be finite" in capsys.readouterr().err


def test_eval_json_of_a_3_class_model_is_the_metrics_record(tmp_path, corpus, capsys):
    _, schema = corpus
    net = build_network(3, 3, NetworkConfig(hidden_width=2), label_names=["a", "b", "c"])
    model = saved_model(tmp_path, net=net)
    three = tmp_path / "three.csv"
    three.write_text("0.1,0.2,0.3,a\n0.4,0.5,0.6,b\n0.7,0.8,0.9,c\n0.2,0.1,0.0,a\n")
    assert main(["eval", "--model", str(model), "--data", str(three),
                 "--schema", str(schema), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["misclassification_rate", "confusion", "count"]
    confusion = payload["confusion"]
    assert isinstance(confusion, list) and all(isinstance(row, list) for row in confusion)
    assert [len(row) for row in confusion] == [3, 3, 3]
    assert [sum(row) for row in confusion] == [2, 1, 1] and payload["count"] == 4


# -------------------------------------------------------------- extract


def test_extract_prints_expression_per_output(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    capsys.readouterr()
    code = main(["extract", "--model", str(model), "--samples", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("output 0:")


def test_extract_json_report_shape(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    capsys.readouterr()
    code = main(["extract", "--model", str(model), "--samples", "200",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"format_version", "outputs", "leaf_labels"}
    assert payload["format_version"] == 2
    assert len(payload["outputs"]) == 1
    entry = payload["outputs"][0]
    assert set(entry) == {"output", "expression", "named", "omitted",
                          "reason", "faithfulness", "tree"}
    assert 0.0 <= entry["faithfulness"] <= 1.0
    assert len(payload["leaf_labels"]) == 9      # C(3,2) + 2*3 first slots
    # The tree is the node table of the traced expression.
    assert set(entry["tree"]) == {"nodes", "root"}
    traced = trace_expression(LogicNetwork.load(model))
    assert entry["tree"] == to_dict(traced)
    assert from_dict(entry["tree"]) == traced
    assert (entry["expression"] is None) == entry["omitted"]
    assert (entry["named"] is None) == entry["omitted"]


def test_extract_with_dataset_for_faithfulness(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    capsys.readouterr()
    code = main(["extract", "--model", str(model), "--data", str(data),
                 "--schema", str(schema)])
    assert code == 0


def test_extract_data_without_schema_exits_2(tmp_path, corpus, capsys):
    data, schema = corpus
    _, model = run_train(tmp_path, data, schema)
    code = main(["extract", "--model", str(model), "--data", str(data)])
    assert code == 2
    assert "requires --schema" in capsys.readouterr().err


def and_gate_model(tmp_path):
    """A saved 1-part model whose output reads slot 0, the pair (x0, x1),
    at alpha 1: a conjunction."""
    net = build_network(3, 2, NetworkConfig(logic_parts=1),
                        feature_names=["x0", "x1", "x2"])
    net.alphas[0][0] = 1.0
    net.selectors[0][:] = 0.0
    net.selectors[0][0, 0] = 1.0
    path = tmp_path / "and-gate.json"
    net.save(path)
    return path


def test_extract_prints_a_short_expression(tmp_path, capsys):
    code = main(["extract", "--model", str(and_gate_model(tmp_path)), "--samples", "100"])
    assert code == 0
    assert capsys.readouterr().out == "output 0: (0)  [faithfulness 1.0000]\n"


def test_extract_leaf_names_substitutes_features(tmp_path, capsys):
    code = main(["extract", "--model", str(and_gate_model(tmp_path)), "--samples", "100",
                 "--leaf-names"])
    assert code == 0
    assert capsys.readouterr().out == "output 0: (x0 and x1)  [faithfulness 1.0000]\n"


# ------------------------------------------------------------ benchmark


def test_benchmark_skips_cleanly_without_datasets(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["benchmark", "--data-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "SKIPPED" in stdout
    rows = out.read_text().splitlines()
    assert rows[0] == ("dataset,status,fuzzy_rate,dnn_rate,paper_fuzzy,"
                       "paper_dnn,expression,faithfulness")
    assert len(rows) == 5                       # header + four benchmarks


def test_benchmark_only_filter(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["benchmark", "--data-dir", str(tmp_path), "--out", str(out),
                 "--only", "vote"])
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("vote,SKIPPED")


@pytest.mark.parametrize("flags, named", [
    (["--seeds", "0"], "seeds"), (["--seeds", "-1"], "seeds"), (["--only", "nosuch"], "key"),
    (["--test-fraction", "1.5"], "test_fraction"), (["--hidden-width", "1"], "hidden_width"),
], ids=["seeds-0", "seeds-minus-1", "only-nosuch", "test-fraction-1.5", "hidden-width-1"])
def test_benchmark_degenerate_flags_exit_2(tmp_path, capsys, monkeypatch, flags, named):
    monkeypatch.setattr("softlogic.benchmark._load_benchmark", _no_file_is_read)
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--data-dir", str(tmp_path), "--out", str(out), *flags]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("bad input: ") and named in line
    assert not out.exists()


def _no_file_is_read(spec, directory):
    raise AssertionError(f"{spec.key} was loaded before the arguments were checked")


def test_benchmark_config_value_of_the_wrong_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": 2.5}))
    assert main(["benchmark", "--data-dir", str(tmp_path), "--out", str(tmp_path / "b.csv"),
                 "--config", str(cfg)]) == 2
    assert "'seeds' must be an integer" in capsys.readouterr().err


# ------------------------------------------------------------ plot data


def test_plot_squash_curves(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main(["plot-squash", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,cut,beta10,beta50,beta80"
    assert len(lines) == 2002                 # header + x from -0.5 to 1.5
    mid = dict(zip(lines[0].split(","),
                   map(float, lines[1001].split(","))))
    assert mid["x"] == pytest.approx(0.5)
    assert mid["beta10"] == pytest.approx(0.5, abs=1e-9)   # ramp midpoint
    # Sharper ramps hug the cut more tightly at the corner.
    corner = dict(zip(lines[0].split(","),
                      map(float, lines[501].split(","))))
    assert corner["x"] == pytest.approx(0.0)
    assert abs(corner["beta80"] - corner["cut"]) < abs(
        corner["beta10"] - corner["cut"])


# ------------------------------------------------------- process level


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train"])                        # missing required flags
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def run_child(code, *args):
    """Run ``code`` in a fresh interpreter that imports the same package as
    this test, installed or not."""
    package_root = str(Path(softlogic.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_console_script_runs(tmp_path):
    proc = run_cli_child("plot-squash", "--out", str(tmp_path / "c.csv"))
    assert proc.returncode == 0
    assert (tmp_path / "c.csv").exists()


def test_training_never_imports_scipy(tmp_path, corpus):
    # numpy is the only runtime dependency; backward's squash slope must
    # not pull scipy in.
    data, schema = corpus
    proc = run_child(
        "import sys; from softlogic.cli import main; code = main(sys.argv[1:]);"
        " print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'));"
        " sys.exit(code)",
        "train", "--data", str(data), "--schema", str(schema),
        "--out", str(tmp_path / "m.json"), "--logic-parts", "2", "--max-epochs", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------- serialized settings


def test_serialized_setting_blocks_are_pinned(tmp_path, corpus):
    # Model and manifest readers rely on these exact field lists and this
    # formatting; a change here changes every written file.
    data, schema = corpus
    code, out = run_train(tmp_path, data, schema, extra=(
        "--seed", "3", "--hidden-width", "4", "--learning-rate", "0.05"))
    assert code == 0
    model = out.read_text()
    assert (
        '  "class_count": 2,\n'
        '  "squash": {\n'
        '    "center": 0.5,\n'
        '    "ramp_width": 1.0,\n'
        '    "smoothness": 80.0\n'
        '  },\n'
        '  "pairings": [\n'
    ) in model
    manifest = (tmp_path / "model.manifest.json").read_text()
    assert (
        '  "network": {\n'
        '    "alpha_init": [\n'
        '      0.25,\n'
        '      0.75\n'
        '    ],\n'
        '    "hidden_width": 4,\n'
        '    "logic_parts": 2,\n'
        '    "seed": 3\n'
        '  },\n'
    ) in manifest
    assert (
        '  "training": {\n'
        '    "batch_size": 16,\n'
        '    "l1_regularization": 0.0001,\n'
        '    "learning_rate": 0.05,\n'
        '    "max_epochs": 5,\n'
        '    "patience": 5,\n'
        '    "seed": 3,\n'
        '    "validation_fraction": 0.15\n'
        '  },\n'
    ) in manifest


# --------------------------------------------- malformed schema files


def _numeric_columns(**extra):
    """The corpus's four columns, with ``extra`` set on the first."""
    columns = numeric_schema(["f0", "f1", "f2"])["columns"]
    columns[0].update(extra)
    return columns


@pytest.mark.parametrize("payload", [
    pytest.param([1, 2], id="top-level-list"),
    pytest.param({"columns": [{"name": "f0"}]}, id="column-without-kind"),
    pytest.param({"columns": {"a": 1}}, id="columns-object"),
    pytest.param({"columns": [1, 2]}, id="columns-of-numbers"),
    pytest.param({"columns": _numeric_columns(name=5)}, id="numeric-column-name"),
    pytest.param({"missing_token": 0, "columns": _numeric_columns()},
                 id="numeric-missing-token"),
    pytest.param({"columns": _numeric_columns(missing_token=None)},
                 id="null-column-missing-token"),
    pytest.param({"columns": [{"nmae": "f0", "kind": "numeric"}, *_numeric_columns()[1:]]},
                 id="misspelt-column-name"),
    pytest.param({"columns": _numeric_columns(missing_tokn="NA")},
                 id="misspelt-column-missing-token"),
    pytest.param({"missing_tokn": "NA", "columns": _numeric_columns()},
                 id="misspelt-missing-token"),
    pytest.param({"columns": _numeric_columns(name="f1")}, id="duplicate-column-name"),
    pytest.param({"columns": [{"name": "col1", "kind": "numeric"}, {"kind": "numeric"},
                              *_numeric_columns()[2:]]},
                 id="name-colliding-with-a-default"),
    pytest.param({"columns": _numeric_columns(**{"a\nb": 1})}, id="key-with-a-line-break"),
])
def test_malformed_schema_file_exits_2(tmp_path, corpus, capsys, payload):
    data, _ = corpus
    schema = tmp_path / "bad.schema.json"
    schema.write_text(json.dumps(payload))
    code, out = run_train(tmp_path, data, schema)
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("bad input")
    assert not out.exists()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_kinds = st.sampled_from(COLUMN_KINDS)
_tokens = st.sampled_from(["?", "b"])
_column = st.fixed_dictionaries({"kind": _kinds},
                                optional={"name": st.text(max_size=4), "missing_token": _tokens})
_any_column = _json_values | st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=4) | _json_values,
    "kind": _kinds | _json_values,
    "missing_token": _tokens | _json_values,
})
# Three feature columns and a label anywhere: well-formed schemas that
# reach training.  The other branches probe the checks.
_labelled = st.tuples(
    st.lists(_column.filter(lambda column: column["kind"] != "label"), min_size=3, max_size=3),
    st.integers(0, 3),
).map(lambda drawn: drawn[0][:drawn[1]] + [{"kind": "label"}] + drawn[0][drawn[1]:])
_schemas = (
    st.fixed_dictionaries({"columns": _labelled})
    | st.fixed_dictionaries({"columns": st.lists(_column | _any_column, max_size=5)},
                            optional={"missing_token": _tokens | _json_values})
    | _json_values
)


_ERROR_KINDS = ("bad input:", "missing input:", "unusable path:", "training diverged:",
                "shape mismatch:")


def documented_main(capsys, argv) -> int:
    """``main(argv)``'s exit code, after checking that stderr holds only
    ``warning:`` lines and, on a failure, ends in one line naming its kind."""
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert lines and lines.pop().startswith(_ERROR_KINDS), lines
    assert all(line.startswith("warning: ") for line in lines), lines
    return code


# Random schemas make the encoder and splitter warn about odd columns and classes.
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_schemas)
def test_any_schema_file_ends_in_a_documented_exit_code(tmp_path, capsys, payload):
    data = tmp_path / "fuzz.csv"
    data.write_text("".join(f"{i / 4},{i % 5},{'ab'[i % 3 == 0]},{i % 2}\n"
                            for i in range(16)))
    schema = tmp_path / "fuzz.schema.json"
    schema.write_text(json.dumps(payload))
    documented_main(capsys, ["train", "--data", str(data), "--schema", str(schema),
                             "--out", str(tmp_path / "fuzz.json"), "--max-epochs", "1"])


# ------------------------------------------- settings from config files

_CONFIGS = {"train": (NetworkConfig, TrainConfig), "extract": (ExtractionConfig,)}
# A value other than the default for every field of those configs.
_SETTINGS = {
    "hidden_width": 3, "logic_parts": 1, "seed": 2, "learning_rate": 0.02,
    "l1_regularization": 0.001, "max_epochs": 3, "patience": 1, "batch_size": 8,
    "validation_fraction": 0.25, "alpha_tolerance": 0.3, "weight_keep_ratio": 0.9,
    "max_rendered_length": 40, "max_terms_per_node": 2,
}
_CONFIG_FIELDS = list(dict.fromkeys(
    (command, f.name) for command, classes in _CONFIGS.items()
    for cls in classes for f in fields(cls)))


def _flag_of(command, name):
    """The option of ``command`` that sets ``name``, or None."""
    [subcommands] = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return next((action.option_strings[0] for action in subcommands.choices[command]._actions
                 if action.dest == name), None)


@pytest.mark.parametrize("cls", [cls for classes in _CONFIGS.values() for cls in classes])
def test_every_config_the_cli_builds_defaults_to_numbers(cls):
    # A config-file value is converted with the type of the field's default.
    assert all(type(f.default) in (int, float) for f in fields(cls))


@pytest.mark.parametrize("command, name", _CONFIG_FIELDS,
                         ids=[f"{command}-{name}" for command, name in _CONFIG_FIELDS])
def test_every_config_field_is_set_alike_by_config_file_and_flag(tmp_path, corpus, capsys,
                                                                 command, name):
    data, schema = corpus
    model = saved_model(tmp_path)
    value = _SETTINGS[name]
    # Train briefly, unless the brevity is the setting under test.
    base = {"max_epochs": 2, "patience": 2} if command == "train" else {}
    base.pop(name, None)

    def run(tag, settings, flags=()):
        cfg = tmp_path / f"{tag}.cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / f"{tag}.json"
        argv = {"train": ["--data", str(data), "--schema", str(schema), "--out", str(out)],
                "extract": ["--model", str(model), "--samples", "40", "--json"]}[command]
        assert main([command, *argv, "--config", str(cfg), *flags]) == 0
        if command == "extract":
            return capsys.readouterr().out
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert {**manifest["network"], **manifest["training"]}[name] == value
        return [path.read_bytes() for path in
                (out, out.with_suffix(".log.csv"), out.with_suffix(".manifest.json"))]

    from_file = run("file", {**base, name: value})
    flag = _flag_of(command, name)
    if flag is not None:        # otherwise the config file is its only source
        assert run("flag", base, [flag, str(value)]) == from_file


# --------------------------------------------- malformed config files


@pytest.mark.parametrize("key, value", [
    ("hidden_width", None),
    ("batch_size", True),
    ("logic_parts", 1.5),
    ("learning_rate", "fast"),
    ("max_epochs", True),          # rejected although --max-epochs overrides it
])
def test_train_config_value_of_wrong_type_exits_2(tmp_path, corpus, capsys,
                                                  key, value):
    data, schema = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, _ = run_train(tmp_path, data, schema, extra=("--config", str(cfg)))
    assert code == 2
    err = capsys.readouterr().err
    assert "bad input" in err and f"'{key}'" in err


@pytest.mark.parametrize("command, key", [
    ("train", "hidden_widht"),
    ("extract", "keep_ration"),
    ("extract", "keep_ratio"),      # the keys of weight_keep_ratio and
    ("extract", "max_terms"),       # max_terms_per_node before they took the field names
    ("benchmark", "seed"),
])
def test_config_key_the_subcommand_never_reads_exits_2(tmp_path, corpus, capsys,
                                                       command, key):
    data, schema = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hidden_width": 4, key: 1}))
    argv = {
        "train": ["--data", str(data), "--schema", str(schema),
                  "--out", str(tmp_path / "m.json"), "--max-epochs", "2"],
        "extract": ["--model", str(saved_model(tmp_path)), "--samples", "20"],
        "benchmark": ["--data-dir", str(tmp_path), "--out", str(tmp_path / "b.csv")],
    }[command]
    assert main([command, *argv, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err and key in err


# ---------------------------------------------- malformed model files


def saved_model(tmp_path, edit=None, net=None):
    """A small untrained model written to disk, after ``edit`` changed
    its JSON payload."""
    net = net or build_network(3, 2, NetworkConfig(hidden_width=2))
    payload = net.to_dict()
    if edit:
        edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return path


_DELETE = object()


def _at(payload, path):
    """The value at ``path`` in a JSON payload."""
    for key in path:
        payload = payload[key]
    return payload


def _edit(path, value=_DELETE):
    """Set the value at ``path`` in a model payload, or delete it."""
    def edit(payload):
        *parents, last = path
        node = _at(payload, parents)
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_edit(["alphas"]), "", id="missing-alphas"),
    pytest.param(_edit(["squash", "center"]), "", id="missing-squash-center"),
    # Build settings live in the manifest; a format 2 file's block is unknown.
    pytest.param(_edit(["config"], {"seed": 0}), "model file has unknown key(s) 'config'",
                 id="unknown-config-key"),
    pytest.param(lambda payload: payload.update(label_name=payload.pop("label_names")),
                 "model file lacks key(s) 'label_names'", id="label-name-typo"),
    pytest.param(_edit(["normalization", "hgih"], [1.0] * 3),
                 "normalization has unknown key(s) 'hgih'", id="normalization-key-typo"),
    pytest.param(_edit(["squash", "smoothness"], "sharp"), "", id="string-squash-value"),
    # A bool is no number: it used to load and be written back as true.
    pytest.param(_edit(["squash", "smoothness"], True), "squash: smoothness must be a number",
                 id="boolean-squash-value"),
    pytest.param(_edit(["pairings", 0, 0], ["pair", 0, 3]), "", id="pairing-index-past-width"),
    pytest.param(_edit(["alphas", 0, 0], 1.5), "", id="alpha-above-one"),
    pytest.param(_edit(["normalization", "low", 0], 2.0), "", id="low-above-high"),
    pytest.param(_edit(["feature_names"], ["a"]), "", id="short-feature-names"),
    pytest.param(_edit(["feature_names"], 5), "", id="feature-names-not-a-list"),
    pytest.param(_edit(["label_names"], ["0", "1", "2"]), "", id="label-names-too-long"),
    pytest.param(_edit(["selectors", -1, 0, 0], float("nan")), "", id="nan-selector"),
    pytest.param(_edit(["selectors", -1, 0, 0], float("inf")), "", id="inf-selector"),
    pytest.param(_edit(["normalization", "high", 0], float("inf")), "", id="inf-normalization-bound"),
    pytest.param(_edit(["pairings", 0, 0], ["pair", 0.7, 1]), "", id="fractional-pairing-index"),
    pytest.param(_edit(["pairings", 0, 0], ["pair", True, 2]), "", id="boolean-pairing-index"),
    pytest.param(_edit(["pairings", 0, 0], ["pair", 0, 1, 5]), "", id="pairing-with-extra-item"),
    pytest.param(_edit(["pairings", 0, 3], ["true", 0, 1]), "", id="constant-pairing-with-extra-item"),
    pytest.param(_edit(["alphas", 0, 0], 10**400), "", id="alpha-too-large-for-a-float"),
    pytest.param(_edit(["squash", "smoothness"], 10**400), "",
                 id="squash-value-too-large-for-a-float"),
    pytest.param(_edit(["feature_count"], 10**30), "", id="feature-count-too-large"),
    pytest.param(_edit(["feature_count"], 10**6), "", id="feature-count-of-a-million"),
    pytest.param(lambda payload: payload["normalization"].update(low=[-1e308] * 3,
                                                                 high=[1e308] * 3),
                 "overflows", id="normalization-range-overflows"),
    pytest.param(_edit(["pairings", 0, 0], ["pair", -10**30, 1]), "",
                 id="pairing-index-too-large"),
    pytest.param(_edit(["pairings", 0, 0], ["false", 3]), "", id="constant-pairing-past-width"),
    pytest.param(_edit(["format_version"], 1), "unsupported model format version 1",
                 id="format-version-1"),
    pytest.param(_edit(["format_version"], 2), "unsupported model format version 2",
                 id="format-version-2"),
    # Format 3 files were trained with the two-logaddexp squash; retrain them.
    pytest.param(_edit(["format_version"], 3), "unsupported model format version 3",
                 id="format-version-3"),
    pytest.param(_edit(["squash"], {"center": 0.5, "ramp_width": 1e200, "smoothness": 1e200}),
                 "squash: ramp_width * smoothness must be a finite normal float",
                 id="squash-ramp-product-overflows"),
    pytest.param(_edit(["squash"], {"center": 0.5, "ramp_width": 1e-300, "smoothness": 1e-300}),
                 "squash: ramp_width * smoothness must be a finite normal float",
                 id="squash-ramp-product-underflows"),
    pytest.param(_edit(["feature_count"], 3.0), "feature_count must be an integer",
                 id="float-feature-count"),
    pytest.param(_edit(["class_count"], 1), "class_count must be an integer of at least 2",
                 id="class-count-of-one"),
    pytest.param(_edit(["class_count"], True), "class_count must be an integer",
                 id="boolean-class-count"),
    pytest.param(lambda payload: payload["selectors"][-1].append(payload["selectors"][-1][0]),
                 "final selector emits 2, expected 1", id="final-selector-of-two-rows"),
])
def test_malformed_model_file_exits_2(tmp_path, corpus, capsys, edit, message):
    data, schema = corpus
    model = saved_model(tmp_path, edit)
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--schema", str(schema)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad input: ") and err.count("\n") == 1 and message in err


def _paths(node, path=()):
    """Every path into a JSON value, the value's own first."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_models(draw):
    """A saved 3-feature, 2-part model payload with one key dropped, one
    value replaced by a random JSON value, or one list shortened or
    extended."""
    payload = json.loads(json.dumps(build_network(3, 2, NetworkConfig(hidden_width=2)).to_dict()))
    paths = list(_paths(payload))[1:]
    action = draw(st.sampled_from(["drop", "replace", "resize"]))
    if action == "resize":
        paths = [path for path in paths if isinstance(_at(payload, path), list)]
    *parents, last = draw(st.sampled_from(paths))
    node = _at(payload, parents)
    if action == "drop":
        del node[last]
    elif action == "replace":
        node[last] = draw(_json_values)
    elif node[last] and draw(st.booleans()):
        node[last].pop()
    else:
        node[last].append(draw(st.sampled_from(node[last]) if node[last] else _json_values))
    return payload


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_models())
def test_any_model_file_ends_in_a_documented_exit_code(tmp_path, corpus, capsys, payload):
    data, schema = corpus
    model = tmp_path / "fuzz.json"
    model.write_text(json.dumps(payload))
    documented_main(capsys, ["eval", "--model", str(model), "--data", str(data),
                             "--schema", str(schema)])
    documented_main(capsys, ["extract", "--model", str(model), "--samples", "8"])


# ------------------------------------------------------ fuzzed CSV files

_CSV_SCHEMA = {"columns": [
    {"name": "num", "kind": "numeric"},
    {"name": "bin", "kind": "binary_categorical"},
    {"name": "multi", "kind": "multi_categorical"},
    {"name": "cat", "kind": "categorical"},
    {"name": "y", "kind": "label"},
]}
_CELLS = ["", "?", "nan", "inf", "1e308", "-1e308", '"', "a,b", "\x00", "é"]


def _csv_rows():
    """60 valid rows, one cell per column of ``_CSV_SCHEMA``."""
    return [[f"{i / 7:.3f}", "yn"[i % 2], "abc"[i % 3], "pqr"[i % 5 % 3],
             "pos" if (i % 2 == 0) != (i % 3 == 0) else "neg"] for i in range(60)]


def _write_rows(path, rows):
    path.write_bytes("".join(",".join(row) + "\n" for row in rows).encode())


@pytest.fixture(scope="module")
def csv_fuzz_base(tmp_path_factory):
    """The schema and a model trained on the unedited rows, for commands
    on a file that training rejects."""
    base = tmp_path_factory.mktemp("csv-fuzz")
    schema, data, model = base / "schema.json", base / "clean.csv", base / "clean.json"
    schema.write_text(json.dumps(_CSV_SCHEMA))
    _write_rows(data, _csv_rows())
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--out", str(model), "--max-epochs", "2"]) == 0
    return schema, model


@st.composite
def _fuzzed_csv_rows(draw):
    """The valid rows with one to three cells replaced by awkward values,
    or with an extra column."""
    rows = _csv_rows()
    if draw(st.integers(0, 3)) == 0:
        for row in rows:
            row.append("x")
        return rows
    for _ in range(draw(st.integers(1, 3))):
        row, column = draw(st.integers(0, 59)), draw(st.integers(0, 4))
        rows[row][column] = draw(st.sampled_from(_CELLS))
    return rows


# Edited columns make the encoder warn about unknown categories.
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzzed_csv_rows())
def test_any_csv_file_ends_in_a_documented_exit_code(tmp_path, csv_fuzz_base, capsys, rows):
    schema, clean_model = csv_fuzz_base
    data, model = tmp_path / "fuzz.csv", tmp_path / "fuzz.json"
    _write_rows(data, rows)
    trained = documented_main(capsys, ["train", "--data", str(data), "--schema", str(schema),
                                       "--out", str(model), "--max-epochs", "2"])
    model = model if trained == 0 else clean_model
    given_data = ["--data", str(data), "--schema", str(schema)]
    documented_main(capsys, ["eval", "--model", str(model), *given_data])
    documented_main(capsys, ["extract", "--model", str(model), *given_data])


def test_train_on_a_feature_range_that_overflows_exits_2(tmp_path, csv_fuzz_base, capsys):
    schema, _ = csv_fuzz_base
    rows = _csv_rows()
    rows[0][0], rows[1][0] = "-1e308", "1e308"
    data = tmp_path / "wide.csv"
    _write_rows(data, rows)
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--out", str(tmp_path / "wide.json")]) == 2
    assert "overflows" in capsys.readouterr().err


def test_a_feature_of_1e308_trains_evaluates_and_extracts(tmp_path, csv_fuzz_base):
    # 2 * (1e308 - low) used to overflow in normalize.
    schema, _ = csv_fuzz_base
    rows = _csv_rows()
    rows[0][0] = "1e308"
    data, model = tmp_path / "far.csv", tmp_path / "far.json"
    _write_rows(data, rows)
    given_data = ["--data", str(data), "--schema", str(schema)]
    assert main(["train", *given_data, "--out", str(model), "--max-epochs", "2"]) == 0
    assert main(["eval", "--model", str(model), *given_data]) == 0
    assert main(["extract", "--model", str(model), *given_data]) == 0


@pytest.mark.parametrize("mode, flags, message", [
    pytest.param([], ["--samples", "0"], "at least one row", id="mode0"),
    pytest.param(["--json"], ["--samples", "0"], "at least one row", id="mode1"),
    pytest.param([], ["--samples", "-5"], "samples must ask for at least one row, got -5",
                 id="samples-minus-5"),
    pytest.param(["--json"], ["--seed", "-3"], "seed must be non-negative, got -3",
                 id="seed-minus-3"),
])
def test_extract_with_zero_samples_exits_2(tmp_path, capsys, mode, flags, message):
    model = saved_model(tmp_path)
    assert main(["extract", "--model", str(model), *flags, *mode]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("bad input: ") and message in line
    assert captured.out == ""


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_extract_renders_a_778_gate_fold(tmp_path, capsys, mode):
    # Every one of the 779 first-layer slots is kept, so the trace folds
    # them into a left-nested chain of 778 gates; it is omitted as too
    # long and reported by its size, not by a rendering.
    net = build_network(38, 2, NetworkConfig(logic_parts=1))
    net.selectors[0][:] = 1.0
    model = saved_model(tmp_path, net=net)
    assert main(["extract", "--model", str(model), "--samples", "50", *mode]) == 0
    out = capsys.readouterr().out
    if mode:
        entry = json.loads(out)["outputs"][0]
        assert entry["expression"] is None and entry["named"] is None
        assert len(entry["tree"]["nodes"]) == 779 + 778
        assert gate_depth(from_dict(entry["tree"])) == 778
    else:
        assert out == ("output 0: omitted: too long"
                       " (779 leaves, 1557 distinct nodes, gate depth 778)\n")


def test_json_extract_of_a_1079_gate_fold_is_a_small_table(tmp_path, capsys):
    # The fold nests deeper than the recursion limit, too deep for a nested
    # tree; its node table lists 2159 nodes and the report is about 190 kB.
    net = build_network(45, 2, NetworkConfig(logic_parts=1))
    net.selectors[0][:] = 1.0
    model = saved_model(tmp_path, net=net)
    assert main(["extract", "--model", str(model), "--samples", "20", "--json"]) == 0
    out = capsys.readouterr().out
    assert len(out) < 250_000
    tree = json.loads(out)["outputs"][0]["tree"]
    assert len(tree["nodes"]) == 1080 + 1079
    assert gate_depth(from_dict(tree)) == 1079


def test_text_extract_of_a_1079_gate_fold_prints_its_size(tmp_path, capsys):
    net = build_network(45, 2, NetworkConfig(logic_parts=1))
    net.selectors[0][:] = 1.0
    model = saved_model(tmp_path, net=net)
    assert main(["extract", "--model", str(model), "--samples", "20"]) == 0
    assert capsys.readouterr().out == (
        "output 0: omitted: too long (1080 leaves, 2159 distinct nodes, gate depth 1079)\n")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_extract_of_a_400_part_model_exits_0(tmp_path, capsys, mode):
    # Each part's trace reaches the previous part's rows, so the walk runs
    # far deeper than the recursion limit.
    net = build_network(2, 2, NetworkConfig(hidden_width=2, logic_parts=400))
    model = saved_model(tmp_path, net=net)
    assert main(["extract", "--model", str(model), "--samples", "20", *mode]) == 0
    out = capsys.readouterr().out
    if mode:
        tree = json.loads(out)["outputs"][0]["tree"]
        assert len(tree["nodes"]) == 4218
        assert gate_depth(from_dict(tree)) == 1365
    else:
        assert out.startswith("output 0: omitted: too long (")
        assert out.endswith(" leaves, 4218 distinct nodes, gate depth 1365)\n")


@pytest.mark.parametrize("flag", ["--model", "--data", "--out", "train --out", "train --log",
                                  "train --manifest", "train --out in no folder"])
def test_a_directory_given_for_a_file_exits_2(tmp_path, corpus, capsys, monkeypatch, flag):
    data, schema = corpus
    folder = tmp_path / "folder"
    folder.mkdir()
    model = saved_model(tmp_path)
    # train's output paths are checked before it trains.
    monkeypatch.setattr("softlogic.cli.train", lambda *args: pytest.fail("train ran"))
    train = ["train", "--data", data, "--schema", schema, "--out", tmp_path / "m.json"]
    argv = {"--model": ["extract", "--model", folder],
            "--data": ["eval", "--model", model, "--data", folder, "--schema", schema],
            "--out": ["plot-squash", "--out", folder],
            "train --out": [*train, "--out", folder],
            "train --log": [*train, "--log", folder],
            "train --manifest": [*train, "--manifest", folder],
            "train --out in no folder": [*train, "--out", folder / "missing" / "m.json"],
            }[flag]
    assert main([str(arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert str(folder) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_extract_with_unallocatable_samples_exits_2(tmp_path, capsys):
    # numpy refuses a 10**13-row array before touching any memory.
    model = saved_model(tmp_path)
    assert main(["extract", "--model", str(model), "--samples", str(10**13)]) == 2
    captured = capsys.readouterr()
    assert "--samples 10000000000000" in captured.err
    assert captured.out == ""
