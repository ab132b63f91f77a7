"""Expression trees: rendering, parsing, evaluation, serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softlogic.expressions import (
    Const,
    Gate,
    Leaf,
    Not,
    canonical_form,
    evaluate_crisp,
    from_dict,
    gate_depth,
    leaf_count,
    parse,
    render,
    to_dict,
)
from softlogic.extraction import describe_expression, should_omit
from softlogic.operators import OperatorKind, gate_crisp

AND = OperatorKind.CONJUNCTION
OR = OperatorKind.DISJUNCTION
UNI = OperatorKind.AGGREGATIVE


def trees(max_depth=3):
    """Hypothesis strategy over canonical-form expression trees."""
    leaves = st.one_of(
        st.integers(min_value=0, max_value=9).map(Leaf),
        st.booleans().map(Const),
    )
    named = st.sampled_from([AND, OR, UNI])

    def extend(children):
        gates = st.builds(
            lambda k, l, r: Gate(k, k.canonical_alpha, l, r),
            named, children, children)
        other = st.builds(
            lambda a, l, r: Gate(OperatorKind.OTHER, round(a, 2), l, r),
            st.floats(min_value=0.16, max_value=0.34), children, children)
        return st.one_of(gates, other, children.map(Not))

    return st.recursive(leaves, extend, max_leaves=8)


# ----------------------------------------------------------- structure


def test_leaf_rejects_negative_slot():
    with pytest.raises(ValueError):
        Leaf(-1)


def test_gate_rejects_alpha_outside_unit():
    with pytest.raises(ValueError):
        Gate(AND, 1.5, Leaf(0), Leaf(1))


def test_nodes_are_hashable_and_comparable():
    a = Gate(AND, 1.0, Leaf(0), Not(Const(True)))
    b = Gate(AND, 1.0, Leaf(0), Not(Const(True)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Gate(OR, 0.0, Leaf(0), Not(Const(True)))


# ----------------------------------------------------------- rendering


def test_render_atoms():
    assert render(Leaf(5)) == "(5)"
    assert render(Const(True)) == "1"
    assert render(Const(False)) == "0"


def test_render_gates_and_negation():
    expr = Gate(AND, 1.0, Leaf(0), Leaf(1))
    assert render(expr) == "(0) and (1)"
    assert render(Not(expr)) == "1-((0) and (1))"
    nested = Gate(OR, 0.0, expr, Const(False))
    assert render(nested) == "((0) and (1)) or 0"


def test_render_unnamed_gate_shows_level():
    expr = Gate(OperatorKind.OTHER, 0.3, Leaf(0), Leaf(1))
    assert render(expr) == "(0) op[0.30] (1)"


def test_render_deep_fold_without_recursion():
    # A left-nested chain deeper than the interpreter's recursion limit.
    expr, text = Leaf(0), "(0)"
    for i in range(1, 3000):
        expr = Gate(UNI, 0.5, expr, Not(Leaf(i)))
        left = text if i == 1 else f"({text})"
        text = f"{left} uni (1-(({i})))"
    assert render(expr) == text


def test_render_uni_symbol():
    assert render(Gate(UNI, 0.5, Leaf(2), Not(Leaf(3)))) == "(2) uni (1-((3)))"


@given(trees())
def test_describe_expression_is_render_with_labelled_leaves(expr):
    labels = [f"({slot})" for slot in range(10)]
    assert describe_expression(expr, labels) == render(expr)


# ------------------------------------------------------------- parsing


def test_parse_round_trips_handwritten_forms():
    for text in [
        "(0)",
        "1",
        "0",
        "(0) and (1)",
        "(2) or (1-((0)))",
        "((0) uni (1)) and ((2) or 1)",
        "1-((0) op[0.30] (1))",
    ]:
        assert render(parse(text)) == text


def test_parse_rejects_malformed():
    for text in ["", "(0", "(0) and", "(0) nand (1)", "(0) and (1) extra",
                 "(0) op[0.3 (1)", "()"]:
        with pytest.raises(ValueError):
            parse(text)


def test_parse_named_ops_get_canonical_alpha():
    expr = parse("(0) and (1)")
    assert isinstance(expr, Gate)
    assert expr.alpha == 1.0
    assert parse("(0) uni (1)").alpha == 0.5
    assert parse("(0) or (1)").alpha == 0.0


def test_parse_op_bracket_keeps_exact_level():
    expr = parse("(0) op[0.30] (1)")
    assert expr.kind is OperatorKind.OTHER
    assert expr.alpha == pytest.approx(0.30)


@given(trees())
def test_parse_inverts_render_on_canonical_trees(expr):
    expr = canonical_form(expr)
    assert parse(render(expr)) == expr


@given(trees())
def test_render_is_injective_on_canonical_trees(expr):
    # Two canonical trees rendering identically must be the same tree;
    # guaranteed because parse() reconstructs the tree from text alone.
    text = render(canonical_form(expr))
    assert render(parse(text)) == text


# ---------------------------------------------------------- evaluation


def test_evaluate_crisp_basic_gates():
    leaves = np.array([[0.9, 0.8], [0.2, 0.7]])
    out = evaluate_crisp(Gate(AND, 1.0, Leaf(0), Leaf(1)), leaves)
    assert out == pytest.approx([0.7, 0.0])
    out = evaluate_crisp(Gate(OR, 0.0, Leaf(0), Leaf(1)), leaves)
    assert out == pytest.approx([1.0, 0.9])


def test_evaluate_crisp_negation_and_consts():
    leaves = np.array([[0.25]])
    assert evaluate_crisp(Not(Leaf(0)), leaves) == pytest.approx([0.75])
    assert evaluate_crisp(Const(True), leaves) == pytest.approx([1.0])
    assert evaluate_crisp(Gate(AND, 1.0, Leaf(0), Const(True)),
                          leaves) == pytest.approx([0.25])


def test_evaluate_crisp_accepts_single_row():
    out = evaluate_crisp(Leaf(1), np.array([0.1, 0.6]))
    assert out.shape == (1,)
    assert out[0] == 0.6


def test_evaluate_crisp_rejects_out_of_range_slot():
    with pytest.raises(ValueError):
        evaluate_crisp(Leaf(3), np.zeros((2, 2)))


@given(trees(), st.integers(min_value=0, max_value=2**32 - 1))
def test_evaluate_matches_direct_recursion(expr, seed):
    rng = np.random.default_rng(seed)
    leaves = rng.uniform(size=(4, 10))

    def direct(node, row):
        if isinstance(node, Leaf):
            return leaves[row, node.slot]
        if isinstance(node, Const):
            return 1.0 if node.truth else 0.0
        if isinstance(node, Not):
            return 1.0 - direct(node.child, row)
        return gate_crisp(direct(node.left, row), direct(node.right, row),
                          node.alpha)

    out = evaluate_crisp(expr, leaves)
    for row in range(4):
        assert out[row] == pytest.approx(direct(expr, row))


# ------------------------------------------------------------- metrics


def test_leaf_count_counts_consts_too():
    expr = Gate(AND, 1.0, Gate(OR, 0.0, Leaf(0), Const(True)), Not(Leaf(1)))
    assert leaf_count(expr) == 3


def test_gate_depth_ignores_negation():
    expr = Not(Gate(AND, 1.0, Not(Leaf(0)), Gate(OR, 0.0, Leaf(1), Leaf(2))))
    assert gate_depth(expr) == 2
    assert gate_depth(Leaf(0)) == 0
    assert gate_depth(Not(Leaf(0))) == 0


def test_leaf_count_and_gate_depth_of_a_fold_deeper_than_the_recursion_limit():
    # Both used to recurse once per nesting level, so should_omit raised
    # RecursionError on wide traces instead of omitting them.
    expr = Leaf(0)
    for i in range(1, 5001):
        expr = Gate(UNI, 0.5, expr, Not(Leaf(i)))
    assert leaf_count(expr) == 5001
    assert gate_depth(expr) == 5000
    assert gate_depth(Not(Gate(AND, 1.0, Leaf(0), expr))) == 5001
    assert should_omit(expr) == (True, "too long")


def test_canonical_form_snaps_named_and_rounds_other():
    messy = Gate(AND, 0.93, Leaf(0),
                 Gate(OperatorKind.OTHER, 0.3333, Leaf(1), Leaf(2)))
    clean = canonical_form(messy)
    assert clean.alpha == 1.0
    assert clean.right.alpha == pytest.approx(0.33)


# --------------------------------------------------------- dict codec


@given(trees())
def test_dict_round_trip(expr):
    assert from_dict(to_dict(expr)) == expr


def test_dict_forms():
    expr = Gate(UNI, 0.5, Leaf(1), Not(Const(False)))
    data = to_dict(expr)
    assert data == {
        "op": "uni", "alpha": 0.5,
        "left": {"leaf": 1},
        "right": {"not": {"const": False}},
    }


def test_from_dict_rejects_unknown_nodes():
    with pytest.raises(ValueError):
        from_dict({"wat": 1})
    with pytest.raises(ValueError):
        from_dict({"op": "xor", "alpha": 0.5,
                   "left": {"leaf": 0}, "right": {"leaf": 1}})
