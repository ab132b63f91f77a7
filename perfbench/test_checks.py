"""Tests of the benchmark's own checks: each passes on a right result,
fails on a wrong one, and a whole run with another seed passes.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from softlogic.network import NetworkConfig, build_network  # noqa: E402
from softlogic.training import TrainConfig, train  # noqa: E402
from softlogic.data import Dataset  # noqa: E402


def _planted(seed=0, rows=400, alpha=1.0):
    unit = np.random.default_rng(seed).uniform(size=(rows, 4))
    return unit, Dataset(2.0 * unit - 1.0, checks.planted_labels(unit, 0, 1, alpha),
                         [f"x{i}" for i in range(4)], 2, ["0", "1"])


@pytest.fixture(scope="module")
def trained():
    _, data = _planted()
    net = build_network(4, 2, NetworkConfig(hidden_width=4, logic_parts=2, seed=0))
    return train(net, data, TrainConfig(max_epochs=5, patience=5)).network


def test_planted_labels_follow_the_clamped_sum():
    unit = np.array([[0.9, 0.8], [0.9, 0.2], [0.3, 0.1]])
    assert checks.planted_labels(unit, 0, 1, 1.0).tolist() == [1, 0, 0]
    assert checks.planted_labels(unit, 0, 1, 0.0).tolist() == [1, 1, 0]
    assert checks.planted_labels(unit, 0, 1, 0.5).tolist() == [1, 1, 0]


def test_forward_check_passes_then_fails_on_a_perturbed_alpha(trained):
    _, data = _planted(seed=1)
    outputs, _ = trained.forward(data.features)
    model = trained.to_dict()
    checks.check_forward(outputs, checks.reference_forward(model, data.features), "net")
    model["alphas"][0][0] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_forward(outputs, checks.reference_forward(model, data.features), "net")


def test_rate_check_fails_on_a_flipped_label(trained):
    _, data = _planted(seed=2)
    reference = checks.reference_forward(trained.to_dict(), data.features)
    errors = int(np.sum((reference[:, 0] >= 0).astype(np.intp) != data.labels))
    rate = errors / data.labels.shape[0]
    checks.check_rate(rate, data.labels.shape[0], reference, data.labels, "eval")
    flipped = data.labels.copy()
    flipped[0] = 1 - flipped[0]
    with pytest.raises(checks.CheckFailed):
        checks.check_rate(rate, data.labels.shape[0], reference, flipped, "eval")
    with pytest.raises(checks.CheckFailed):
        checks.check_rate(rate, data.labels.shape[0] + 1, reference, data.labels, "eval")


def test_identity_check_fails_on_a_changed_byte(trained):
    first = json.dumps(trained.to_dict()).encode()
    checks.check_identical(first, bytes(first), "model.json")
    changed = bytearray(first)
    changed[len(changed) // 2] ^= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_identical(bytes(changed), first, "model.json")


def test_dominant_kind_check_fails_on_a_perturbed_alpha():
    found = [("and", 0.97)] * 4 + [("or", 0.02)]
    checks.check_dominant_kinds(found, "and", 4)
    with pytest.raises(checks.CheckFailed):
        checks.check_dominant_kinds([("and", 0.70)] + found[1:], "and", 4)
    with pytest.raises(checks.CheckFailed):
        checks.check_dominant_kinds(found, "or", 4)


def test_leaf_and_ablation_checks_fail_on_wrong_results():
    from softlogic.expressions import Const, Gate, Leaf, Not
    from softlogic.operators import OperatorKind

    expr = Gate(OperatorKind.AGGREGATIVE, 0.5, Leaf(3), Not(Gate(
        OperatorKind.CONJUNCTION, 1.0, Leaf(7), Const(True))))
    checks.check_leaves(expr, {3, 7})
    with pytest.raises(checks.CheckFailed):
        checks.check_leaves(expr, {3})
    selector = np.array([[0.0, 1.0, 0.0], [0.0, -0.2, 0.5]])
    checks.check_ablation(np.array([0.0, 0.3, 0.1]), selector)
    with pytest.raises(checks.CheckFailed):
        checks.check_ablation(np.array([1e-12, 0.3, 0.1]), selector)
    with pytest.raises(checks.CheckFailed):
        checks.check_ablation(np.array([0.0, -0.3, 0.1]), selector)
    with pytest.raises(checks.CheckFailed):
        checks.check_unit_interval(1.01, "faithfulness")


def test_reachable_slots_follow_strong_weights_only():
    model = {
        "pairings": [[["pair", 0, 1], ["true", 0], ["false", 1]],
                     [["pair", 0, 1], ["true", 0], ["false", 1]]],
        "selectors": [[[0.9, 0.1, 0.0], [0.0, -0.8, 0.7]], [[0.0, 0.0, 1.0]]],
    }
    # Output keeps slot 2 = (row 1 against false); row 1 keeps slots 1 and 2.
    assert checks.reachable_strong_slots(model, 0.5) == {1, 2}


@pytest.mark.parametrize("workload", ["gate4-cv", "krkp-cli"])
def test_a_run_with_a_second_seed_passes_every_check(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
