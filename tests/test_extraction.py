"""Rule extraction: snapping, tracing, omission, faithfulness, ablation."""

import copy
import functools
import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlogic.expressions import (
    Const,
    Gate,
    Leaf,
    Not,
    canonical_form,
    gate_depth,
    leaf_count,
    parse,
    render,
    to_dict,
)
from softlogic import extraction
from softlogic.extraction import (
    ExtractionConfig,
    describe_expression,
    dominant_first_gate,
    faithfulness,
    first_gate_importance,
    leaf_labels,
    should_omit,
    snap_operators,
    snapped_network,
    trace_expression,
)
from softlogic.network import LogicNetwork, NetworkConfig, build_network
from softlogic.operators import OperatorKind, classify_alpha, gate_crisp

AND = OperatorKind.CONJUNCTION
OR = OperatorKind.DISJUNCTION
UNI = OperatorKind.AGGREGATIVE
OTHER = OperatorKind.OTHER


def one_part_net(feature_count=2, seed=0):
    net = build_network(feature_count, 2,
                        NetworkConfig(hidden_width=2, logic_parts=1, seed=seed))
    net.selectors[0][:] = 0.0
    net.bump_version()
    return net


def two_part_net(feature_count=2, class_count=2, seed=0):
    net = build_network(feature_count, class_count,
                        NetworkConfig(hidden_width=2, logic_parts=2, seed=seed))
    for w in net.selectors:
        w[:] = 0.0
    net.bump_version()
    return net


# For 2 features the first-layer slots are:
#   0: (x0, x1)   1: (x0, true)   2: (x1, true)   3: (x0, false)   4: (x1, false)
PAIR, T0, T1, F0, F1 = range(5)


# --------------------------------------------------------------- config


def test_extraction_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(alpha_tolerance=0.6)
    with pytest.raises(ValueError):
        ExtractionConfig(weight_keep_ratio=0.0)
    with pytest.raises(ValueError):
        ExtractionConfig(max_terms_per_node=0)


# ------------------------------------------------------------- snapping


def test_snap_operators_per_slot():
    net = one_part_net()
    net.alphas[0][:] = [0.97, 0.1, 0.5, 0.3, 0.62]
    kinds = snap_operators(net)
    assert kinds == [[AND, OR, UNI, OTHER, UNI]]


def test_snapped_network_moves_named_levels_only():
    net = one_part_net()
    net.alphas[0][:] = [0.97, 0.1, 0.5, 0.3, 0.62]
    snapped = snapped_network(net)
    assert snapped.alphas[0].tolist() == [1.0, 0.0, 0.5, 0.3, 0.5]
    # Original untouched; snapping again changes nothing.
    assert net.alphas[0][0] == 0.97
    twice = snapped_network(snapped)
    assert np.array_equal(twice.alphas[0], snapped.alphas[0])


def test_snapped_network_keeps_names():
    net = build_network(2, 3, NetworkConfig(hidden_width=2, logic_parts=1),
                        feature_names=["age", "weight"],
                        label_names=["low", "mid", "high"])
    snapped = snapped_network(net)
    assert snapped.feature_names == ["age", "weight"]
    assert snapped.label_names == ["low", "mid", "high"]


def test_snapped_network_still_runs():
    net = two_part_net(seed=1)
    net.selectors[0][0, PAIR] = 1.0
    net.selectors[0][1, T1] = 1.0
    net.selectors[1][0, 0] = 1.0
    net.bump_version()
    out, _ = snapped_network(net).forward(np.zeros((3, 2)))
    assert out.shape == (3, 1)


# -------------------------------------------------------------- tracing


def test_trace_single_positive_slot_is_a_leaf():
    net = one_part_net()
    net.selectors[0][0, PAIR] = 0.8
    net.bump_version()
    assert trace_expression(net) == Leaf(PAIR)


def test_trace_negative_weight_wraps_not():
    net = one_part_net()
    net.selectors[0][0, T1] = -0.8
    net.bump_version()
    assert trace_expression(net) == Not(Leaf(T1))


def test_trace_two_slots_fold_under_aggregative():
    net = one_part_net()
    net.selectors[0][0, PAIR] = 1.0
    net.selectors[0][0, F0] = -0.7
    net.bump_version()
    # Strongest weight leads the fold.
    assert trace_expression(net) == Gate(UNI, 0.5, Leaf(PAIR), Not(Leaf(F0)))


def test_trace_keep_ratio_drops_weak_slots():
    net = one_part_net()
    net.selectors[0][0, PAIR] = 1.0
    net.selectors[0][0, T0] = 0.45     # below half the strongest
    net.selectors[0][0, T1] = 0.5      # exactly at the threshold stays
    net.bump_version()
    expr = trace_expression(net)
    assert expr == Gate(UNI, 0.5, Leaf(PAIR), Leaf(T1))
    keep_all = ExtractionConfig(weight_keep_ratio=0.2)
    expr = trace_expression(net, keep_all)
    assert expr == Gate(UNI, 0.5, Gate(UNI, 0.5, Leaf(PAIR), Leaf(T1)),
                        Leaf(T0))


def test_trace_empty_row_collapses_to_constant():
    net = one_part_net()
    expr = trace_expression(net)
    assert expr == Const(True)
    assert should_omit(expr) == (True, "constant")


def test_trace_two_part_gate_with_pair():
    net = two_part_net()
    net.alphas[0][T0] = 1.0
    net.alphas[0][T1] = 1.0
    net.alphas[1][0] = 1.0                 # part-2 pair slot
    net.selectors[0][0, T0] = 1.0          # hidden 0 reads (x0 and 1)
    net.selectors[0][1, T1] = 1.0          # hidden 1 reads (x1 and 1)
    net.selectors[1][0, 0] = 1.0           # output reads (h0 and h1)
    net.bump_version()
    assert trace_expression(net) == Gate(AND, 1.0, Leaf(T0), Leaf(T1))


def test_trace_two_part_constant_slot_becomes_const():
    net = two_part_net()
    # Part-2 slots for width 2: (0,1), T0, T1, F0, F1.
    net.alphas[1][3] = 0.0                 # h0 or false
    net.selectors[0][0, PAIR] = 1.0
    net.selectors[1][0, 3] = 1.0
    net.bump_version()
    assert trace_expression(net) == Gate(OR, 0.0, Leaf(PAIR), Const(False))


def test_trace_keeps_learned_alpha_for_other():
    net = two_part_net()
    net.alphas[1][0] = 0.3
    net.selectors[0][0, PAIR] = 1.0
    net.selectors[0][1, T1] = 1.0
    net.selectors[1][0, 0] = 1.0
    net.bump_version()
    expr = trace_expression(net)
    assert expr.kind is OTHER
    assert expr.alpha == pytest.approx(0.3)


def test_trace_validates_output_index():
    net = one_part_net()
    with pytest.raises(ValueError):
        trace_expression(net, output_index=1)


@pytest.mark.parametrize("output_index", [-1, 1])
def test_faithfulness_validates_output_index(output_index):
    # -1 used to score the last selector row, 1 to raise a bare IndexError.
    net = build_network(3, 2, NetworkConfig(hidden_width=2))
    x = np.random.default_rng(0).uniform(-1, 1, size=(20, 3))
    expr = trace_expression(net)
    with pytest.raises(ValueError, match="output_index .* outside 1 outputs"):
        faithfulness(net, expr, x, output_index=output_index)


def test_trace_multiclass_outputs_differ():
    net = build_network(2, 3, NetworkConfig(hidden_width=2, logic_parts=1,
                                            seed=0))
    net.selectors[0][:] = 0.0
    net.selectors[0][0, PAIR] = 1.0
    net.selectors[0][1, T0] = -1.0
    net.selectors[0][2, F1] = 1.0
    net.bump_version()
    assert trace_expression(net, output_index=0) == Leaf(PAIR)
    assert trace_expression(net, output_index=1) == Not(Leaf(T0))
    assert trace_expression(net, output_index=2) == Leaf(F1)


def test_traced_expression_round_trips_through_text():
    net = two_part_net()
    net.alphas[0][:] = 0.5
    net.alphas[1][0] = 0.97
    net.selectors[0][0, PAIR] = 1.0
    net.selectors[0][1, T1] = -0.9
    net.selectors[1][0, 0] = 1.0
    net.bump_version()
    expr = canonical_form(trace_expression(net))
    assert parse(render(expr)) == expr


def reference_trace(net, config, leaves01, output_index, reached=None):
    """Per-path reference walk: every path re-traces the selector rows it
    reaches, building the expression and its crisp values with the
    network's plumbing (selector folds, tanh remap of non-constant gate
    operands, canonical level of named gates).  ``reached`` collects the
    (part, row) pairs visited."""
    rows = leaves01.shape[0]

    def row_trace(part, r):
        if reached is not None:
            reached.append((part, r))
        row = net.selectors[part][r]
        strength = np.abs(row)
        top = strength.max()
        if top <= 0.0:
            return Const(True), np.full(rows, 1.0)
        kept = sorted(np.flatnonzero(strength >= config.weight_keep_ratio * top),
                      key=lambda s: (-strength[s], s))
        terms = []
        for slot in kept:
            expr, value = slot_trace(part, int(slot))
            terms.append((Not(expr), 1.0 - value) if row[slot] < 0 else (expr, value))
        expr, value = terms[0]
        for term, v in terms[1:]:
            expr, value = Gate(UNI, 0.5, expr, term), gate_crisp(value, v, 0.5)
        return expr, value

    def operand(part, index):
        width = net.pairing_tables[part].width_in
        if index >= width:
            return Const(index == width), np.full(rows, 1.0 if index == width else 0.0)
        expr, value = row_trace(part - 1, index)
        if isinstance(expr, Const):
            return expr, value
        return expr, (np.tanh(2.0 * value - 1.0) + 1.0) / 2.0

    def slot_trace(part, slot):
        if part == 0:
            return Leaf(slot), leaves01[:, slot]
        table = net.pairing_tables[part]
        alpha = float(net.alphas[part][slot])
        kind = classify_alpha(alpha, config.alpha_tolerance)
        left, lv = operand(part, int(table.left_idx[slot]))
        right, rv = operand(part, int(table.right_idx[slot]))
        level = alpha if kind.canonical_alpha is None else kind.canonical_alpha
        return Gate(kind, alpha, left, right), gate_crisp(lv, rv, level)

    return row_trace(len(net.selectors) - 1, output_index)


@st.composite
def traced_nets(draw):
    """A 1-3 part network with random selectors holding zeros, empty rows
    and negative weights, levels snapped to named gates or left unnamed,
    a keep ratio and 30 input rows."""
    parts = draw(st.integers(min_value=1, max_value=3))
    class_count = draw(st.sampled_from([2, 3]))
    features = draw(st.integers(min_value=2, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    net = build_network(features, class_count, NetworkConfig(
        hidden_width=draw(st.integers(min_value=2, max_value=3)),
        logic_parts=parts, seed=parts))
    for w in net.selectors:
        w[:] = rng.normal(size=w.shape)
        w[rng.random(w.shape) < 0.3] = 0.0
        w[rng.random(w.shape[0]) < 0.2] = 0.0
    for a in net.alphas:
        a[:] = rng.choice([0.0, 0.5, 1.0, 0.3, 0.9], size=a.shape)
    net.bump_version()
    config = ExtractionConfig(weight_keep_ratio=draw(st.sampled_from([0.3, 0.5, 1.0])))
    return net, config, rng.uniform(-1.2, 1.2, size=(30, features))


@settings(deadline=None, max_examples=80)
@given(traced_nets())
def test_trace_and_faithfulness_match_the_per_path_reference(case):
    net, config, x = case
    outputs, cache = net.forward(x)
    leaves01 = (cache.gate_out[0] + 1.0) / 2.0
    decisions = net.decide(outputs)
    for k in range(net.output_width):
        expected, values = reference_trace(net, config, leaves01, k)
        expr = trace_expression(net, config, k)
        assert render(expr) == render(expected)
        assert json.dumps(to_dict(expr)) == json.dumps(to_dict(expected))
        positive = decisions == (1 if net.class_count == 2 else k)
        agreement = float(np.mean((values >= 0.5) == positive))
        assert faithfulness(net, expr, x, config, k).hex() == agreement.hex()


def test_trace_visits_each_selector_row_once(monkeypatch):
    net = build_network(3, 2, NetworkConfig(hidden_width=3, logic_parts=3, seed=1))
    rng = np.random.default_rng(5)
    for w in net.selectors:
        w[:] = rng.normal(size=w.shape)
    net.bump_version()
    reached = []
    reference_trace(net, ExtractionConfig(), np.zeros((0, 9)), 0, reached)
    assert len(set(reached)) < len(reached)     # some rows sit on several paths
    calls = []
    kept_indices = extraction._kept_indices

    def counting(row, keep_ratio):
        calls.append(row)
        return kept_indices(row, keep_ratio)

    monkeypatch.setattr(extraction, "_kept_indices", counting)
    trace_expression(net)
    assert len(calls) == len(set(reached))
    calls.clear()
    faithfulness(net, trace_expression(net), rng.uniform(-1, 1, size=(10, 3)))
    assert len(calls) == 2 * len(set(reached))


def test_two_paths_to_one_row_share_its_subtree():
    net = two_part_net()
    net.selectors[0][0, PAIR] = 1.0
    net.selectors[0][1, T0] = -1.0
    # Part-2 slots 0 (h0, h1) and 1 (h0, true) both read hidden row 0.
    net.selectors[1][0, 0] = 1.0
    net.selectors[1][0, 1] = 1.0
    net.bump_version()
    expr = trace_expression(net)
    assert expr.left.left == Leaf(PAIR)
    assert expr.left.left is expr.right.left


def test_trace_and_faithfulness_leave_no_reference_cycles():
    # A cycle would keep the walk's leaf values alive until the cyclic
    # collector runs, which raises peak memory on large inputs.
    net = build_network(4, 3, NetworkConfig(hidden_width=3, logic_parts=3))
    x = np.random.default_rng(7).uniform(-1, 1, size=(50, 4))
    gc.collect()
    gc.disable()
    try:
        expr = trace_expression(net, output_index=1)
        faithfulness(net, expr, x, output_index=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------- omission


def test_should_omit_constants_even_behind_negation():
    assert should_omit(Const(False)) == (True, "constant")
    assert should_omit(Not(Not(Const(True)))) == (True, "constant")


def test_should_omit_counts_total_leaves():
    five = Leaf(0)
    for i in range(1, 5):
        five = Gate(UNI, 0.5, five, Leaf(i))
    assert should_omit(five) == (True, "too long")
    four = Leaf(0)
    for i in range(1, 4):
        four = Gate(UNI, 0.5, four, Leaf(i))
    assert should_omit(four) == (False, None)


def test_should_omit_rendered_length():
    expr = Gate(AND, 1.0, Leaf(123456), Leaf(654321))
    tight = ExtractionConfig(max_rendered_length=10)
    assert should_omit(expr, tight) == (True, "too long")
    assert should_omit(expr) == (False, None)


# --------------------------------------------------------- faithfulness


def test_faithfulness_exact_for_planted_one_part_net():
    net = one_part_net()
    net.alphas[0][PAIR] = 1.0
    net.selectors[0][0, PAIR] = 1.0
    net.bump_version()
    expr = trace_expression(net)
    assert expr == Leaf(PAIR)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(2000, 2))
    assert faithfulness(net, expr, x) == 1.0


def test_faithfulness_exact_for_planted_two_part_net():
    net = two_part_net()
    net.alphas[0][T0] = 1.0
    net.alphas[0][T1] = 1.0
    net.alphas[1][0] = 1.0
    net.selectors[0][0, T0] = 1.0
    net.selectors[0][1, T1] = -1.0
    net.selectors[1][0, 0] = 1.0
    net.bump_version()
    expr = trace_expression(net)
    assert expr == Gate(AND, 1.0, Leaf(T0), Not(Leaf(T1)))
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(2000, 2))
    assert faithfulness(net, expr, x) == 1.0


def test_faithfulness_foreign_expression_uses_plain_crisp_eval():
    net = one_part_net()
    net.selectors[0][0, PAIR] = 1.0
    net.bump_version()
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(500, 2))
    # A constant-true rule agrees exactly on the net's positive decisions.
    outputs, _ = net.forward(x)
    positive_share = float(np.mean(net.decide(outputs) == 1))
    assert faithfulness(net, Const(True), x) == pytest.approx(positive_share)


def test_faithfulness_of_a_trace_deeper_than_the_recursion_limit():
    # Every one of the 779 slots is kept, so the traced fold nests 778
    # gates deep; comparing it with its own derivation used to recurse
    # through dataclass equality and raise RecursionError.
    net = build_network(38, 2, NetworkConfig(logic_parts=1))
    net.selectors[0][:] = 1.0
    net.bump_version()
    expr = trace_expression(net)
    x = np.random.default_rng(3).uniform(-1, 1, size=(20, 38))
    assert 0.0 <= faithfulness(net, expr, x) <= 1.0


def test_a_subtree_shared_along_2_to_the_200_paths_is_visited_once():
    # The expanded tree has 2**200 leaves; every consumer must work on the
    # 401 distinct nodes instead.
    g = Leaf(0)
    for _ in range(200):
        g = Gate(UNI, 0.5, g, Not(g))
    assert leaf_count(g) == 2**200
    assert gate_depth(g) == 200
    assert len(to_dict(g)["nodes"]) == 401
    assert to_dict(g) == to_dict(canonical_form(g))
    assert to_dict(g) != to_dict(Gate(UNI, 0.5, g.left, g.left))
    assert should_omit(g) == (True, "too long")


def test_faithfulness_of_wrong_rule_is_poor():
    net = one_part_net()
    net.alphas[0][PAIR] = 1.0
    net.selectors[0][0, PAIR] = 1.0
    net.bump_version()
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(2000, 2))
    inverted = Not(Leaf(PAIR))
    assert faithfulness(net, inverted, x) == pytest.approx(0.0, abs=0.05)


def test_faithfulness_multiclass_uses_output_index():
    net = build_network(2, 3, NetworkConfig(hidden_width=2, logic_parts=1,
                                            seed=3))
    net.selectors[0][:] = 0.0
    # (x0 and 1) at level 1 passes x0 through; outputs 0/1 split on its
    # sign, output 2 almost never wins the argmax.
    net.alphas[0][:] = 1.0
    net.selectors[0][0, T0] = 1.0
    net.selectors[0][1, T0] = -1.0
    net.selectors[0][2, T1] = 0.1
    net.bump_version()
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(800, 2))
    assert trace_expression(net, output_index=1) == Not(Leaf(T0))
    for k in (0, 1):
        expr = trace_expression(net, output_index=k)
        assert faithfulness(net, expr, x, output_index=k) >= 0.95
    # Class 2's rule fires half the time but the class almost never wins;
    # one-vs-rest agreement honestly reflects that.
    expr2 = trace_expression(net, output_index=2)
    assert faithfulness(net, expr2, x, output_index=2) < 0.7


# ------------------------------------------------------------- ablation


def test_first_gate_importance_finds_routed_slot():
    net = one_part_net()
    net.selectors[0][0, T1] = 1.0
    net.selectors[0][0, F0] = 0.05
    net.bump_version()
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(200, 2))
    importance = first_gate_importance(net, x)
    assert importance.shape == (5,)
    assert np.argmax(importance) == T1
    assert importance[PAIR] == 0.0       # untouched slot costs nothing


def test_first_gate_importance_restores_network():
    net = one_part_net(seed=2)
    rng = np.random.default_rng(6)
    net.selectors[0][:] = rng.normal(size=net.selectors[0].shape)
    net.bump_version()
    x = rng.uniform(-1, 1, size=(50, 2))
    before, _ = net.forward(x)
    first_gate_importance(net, x)
    after, _ = net.forward(x)
    assert np.array_equal(before, after)


def per_slot_importance(net, x):
    """Reference ablation: zero one first-selector column of a copy and
    rerun the whole network."""
    base, _ = net.forward(x)
    out = np.zeros(net.selectors[0].shape[1])
    for slot in range(out.shape[0]):
        ablated = copy.deepcopy(net)
        ablated.selectors[0][:, slot] = 0.0
        ablated.bump_version()
        out[slot] = np.mean(np.abs(ablated.forward(x)[0] - base))
    return out


# Element budgets that split the 9 slots of a 3-feature network over 40 rows
# into uneven chunks: 200 does so for one-part binary networks (chunks of
# 5 and 4), 1440 for every deeper one (chunks of 4, 4 and 1).
@pytest.mark.parametrize("budget", [200, 1440])
@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("class_count", [2, 3])
def test_first_gate_importance_matches_per_slot_reference(parts, class_count, budget,
                                                          monkeypatch):
    net = build_network(3, class_count, NetworkConfig(
        hidden_width=3, logic_parts=parts, seed=parts + class_count))
    rng = np.random.default_rng(parts)
    for w in net.selectors:
        w[:] = rng.normal(size=w.shape)
    silent = [0, 4, 7]
    net.selectors[0][:, silent] = 0.0
    net.bump_version()
    x = rng.uniform(-1, 1, size=(40, 3))
    monkeypatch.setattr(extraction, "_ABLATION_CHUNK_ELEMENTS", budget)
    selectors = [w.copy() for w in net.selectors]
    version = net._version
    importance = first_gate_importance(net, x)
    np.testing.assert_allclose(importance, per_slot_importance(net, x),
                               rtol=0, atol=1e-12)
    assert np.all(importance[silent] == 0.0)
    assert np.all(np.delete(importance, silent) > 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(net.selectors, selectors))
    assert net._version == version


def test_first_gate_importance_spans_chunks_of_the_default_budget():
    net = two_part_net(seed=3)
    rng = np.random.default_rng(9)
    for w in net.selectors:
        w[:] = rng.normal(size=w.shape)
    net.selectors[0][:, PAIR] = 0.0
    net.bump_version()
    x = rng.uniform(-1, 1, size=(20_000, 2))
    # 20 000 rows times the 5-slot second part overflow one chunk.
    assert 20_000 * 5 * 5 > extraction._ABLATION_CHUNK_ELEMENTS
    importance = first_gate_importance(net, x)
    np.testing.assert_allclose(importance, per_slot_importance(net, x),
                               rtol=0, atol=1e-12)
    assert importance[PAIR] == 0.0


def test_ablation_reruns_only_the_live_columns(monkeypatch):
    net = build_network(3, 2, NetworkConfig(hidden_width=3, logic_parts=2, seed=4))
    rng = np.random.default_rng(11)
    for w in net.selectors:
        w[:] = rng.normal(size=w.shape)
    net.selectors[0][:, [1, 2, 5, 8]] = 0.0
    net.selectors[0][0, 3] = 0.0        # a partly zero column stays live
    net.bump_version()
    x = rng.uniform(-1, 1, size=(40, 3))
    rerun = []
    run_parts = LogicNetwork._run_parts

    def counting(self, x, first, cache=None):
        if first == 1:
            rerun.append(x.shape[0])
        return run_parts(self, x, first, cache)

    monkeypatch.setattr(LogicNetwork, "_run_parts", counting)
    # 40 rows times the 9-slot second part, two slots per chunk.
    monkeypatch.setattr(extraction, "_ABLATION_CHUNK_ELEMENTS", 40 * 9 * 2)
    importance = first_gate_importance(net, x)
    assert rerun == [2, 2, 1]
    assert np.all(importance[[1, 2, 5, 8]] == 0.0)
    net.selectors[0][:] = 0.0
    net.bump_version()
    rerun.clear()
    importance = first_gate_importance(net, x)
    assert rerun == []
    assert np.array_equal(importance, np.zeros(9))
    assert not np.any(np.signbit(importance))


@st.composite
def dead_column_nets(draw):
    """A 3-feature network (9 first-layer slots) with random selectors,
    some columns of the first selector zeroed, and 40 input rows."""
    parts = draw(st.integers(min_value=1, max_value=3))
    class_count = draw(st.sampled_from([2, 3]))
    dead = draw(st.one_of(st.just([False] * 9), st.just([True] * 9),
                          st.lists(st.booleans(), min_size=9, max_size=9)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    net = build_network(3, class_count, NetworkConfig(
        hidden_width=3, logic_parts=parts, seed=parts + class_count))
    for w in net.selectors:
        w[:] = rng.normal(size=w.shape)
    net.selectors[0][:, dead] = 0.0
    net.bump_version()
    return net, np.asarray(dead), rng.uniform(-1, 1, size=(40, 3))


@settings(deadline=None, max_examples=60)
@given(dead_column_nets(), st.sampled_from([200, 1440]))
def test_live_column_ablation_matches_per_slot_reference(case, budget):
    net, dead, x = case
    selectors = [w.copy() for w in net.selectors]
    version = net._version
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "_ABLATION_CHUNK_ELEMENTS", budget)
        importance = first_gate_importance(net, x)
    np.testing.assert_allclose(importance, per_slot_importance(net, x),
                               rtol=0, atol=1e-12)
    assert np.all(importance[dead] == 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(net.selectors, selectors))
    assert net._version == version


def test_ablation_of_zero_rows_is_an_error():
    net = two_part_net()
    net.selectors[0][:] = 1.0
    net.bump_version()
    with pytest.raises(ValueError, match="at least one row"):
        first_gate_importance(net, np.zeros((0, 2)))
    with pytest.raises(ValueError, match="at least one row"):
        dominant_first_gate(net, np.zeros((0, 2)))


def test_dominant_first_gate_reports_slot_kind_level():
    net = one_part_net()
    net.alphas[0][F0] = 0.93
    net.selectors[0][0, F0] = -1.0
    net.bump_version()
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(300, 2))
    slot, kind, alpha = dominant_first_gate(net, x)
    assert slot == F0
    assert kind is AND
    assert alpha == pytest.approx(0.93)


# ------------------------------------------------------------ rendering


def test_leaf_labels_cover_every_slot():
    net = build_network(2, 2, NetworkConfig(hidden_width=2, logic_parts=1,
                                            seed=0),
                        feature_names=["age", "weight"])
    net.alphas[0][:] = [1.0, 0.0, 0.5, 0.3, 1.0]
    labels = leaf_labels(net)
    assert labels == [
        "(age and weight)",
        "(age or 1)",
        "(weight uni 1)",
        "(age op[0.30] 0)",
        "(weight and 0)",
    ]


def test_labels_and_trace_follow_a_loaded_nonstandard_pairing_order():
    # Both pairing lists are shuffled with the constant slots interleaved;
    # labels and Const nodes must follow the lists, not the standard order.
    first = [["false", 2], ["pair", 0, 2], ["true", 1], ["pair", 1, 2], ["false", 0],
             ["true", 0], ["pair", 0, 1], ["true", 2], ["false", 1]]
    second = [["true", 1], ["pair", 0, 1], ["false", 0], ["false", 1], ["true", 0]]
    alphas = [[1.0, 0.0, 0.5, 1.0, 0.0, 0.5, 1.0, 0.0, 0.5], [1.0, 0.0, 0.5, 1.0, 0.0]]
    names = ["a", "b", "c"]
    payload = build_network(3, 2, NetworkConfig(hidden_width=2, logic_parts=2),
                            feature_names=names).to_dict()
    payload["pairings"] = [first, second]
    payload["alphas"] = alphas
    payload["selectors"] = [np.zeros((2, 9)), np.ones((1, 5))]
    payload["selectors"][0][0, 1] = 1.0     # hidden 0 reads slot 1
    payload["selectors"][0][1, 7] = 1.0     # hidden 1 reads slot 7
    net = LogicNetwork.from_dict(payload)
    kinds = {1.0: AND, 0.0: OR, 0.5: UNI}

    def right_label(item):
        return names[item[2]] if item[0] == "pair" else {"true": "1", "false": "0"}[item[0]]

    assert leaf_labels(net) == [f"({names[item[1]]} {kinds[a].symbol} {right_label(item)})"
                                for item, a in zip(first, alphas[0])]
    hidden = [Leaf(1), Leaf(7)]
    gates = [Gate(kinds[a], a, hidden[item[1]],
                  hidden[item[2]] if item[0] == "pair" else Const(item[0] == "true"))
             for item, a in zip(second, alphas[1])]
    assert trace_expression(net) == functools.reduce(
        lambda left, right: Gate(UNI, 0.5, left, right), gates)


def test_describe_expression_substitutes_labels():
    labels = ["(a and b)", "(a or 1)"]
    expr = Gate(UNI, 0.5, Leaf(0), Not(Leaf(1)))
    text = describe_expression(expr, labels)
    assert text == "(a and b) uni (1-((a or 1)))"


def test_describe_expression_wraps_nested_gates():
    labels = ["(a and b)", "(c or d)", "(e uni f)"]
    expr = Gate(AND, 1.0, Gate(OR, 0.0, Leaf(0), Leaf(1)), Leaf(2))
    text = describe_expression(expr, labels)
    assert text == "((a and b) or (c or d)) and (e uni f)"
