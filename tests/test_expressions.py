"""Expression trees: rendering, parsing, evaluation, serialization."""

import json

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
    _fold,
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


# ---------------------------------------------------------- node table


@given(trees())
def test_dict_round_trip(expr):
    assert from_dict(to_dict(expr)) == expr


def test_dict_forms():
    expr = Gate(UNI, 0.5, Leaf(1), Not(Const(False)))
    assert to_dict(expr) == {
        "nodes": [["leaf", 1], ["const", False], ["not", 1], ["uni", 0.5, 0, 2]],
        "root": 3,
    }
    # Equal subtrees share one id even when they are distinct objects.
    assert to_dict(Gate(AND, 1.0, Not(Leaf(0)), Not(Leaf(0)))) == {
        "nodes": [["leaf", 0], ["not", 0], ["and", 1.0, 1, 1]],
        "root": 2,
    }


def test_from_dict_rejects_unknown_nodes():
    with pytest.raises(ValueError):
        from_dict({"nodes": [["wat", 1]], "root": 0})
    with pytest.raises(ValueError):
        from_dict({"nodes": [["leaf", 0], ["leaf", 1], ["xor", 0.5, 0, 1]], "root": 2})


@pytest.mark.parametrize("table", [
    None,
    [],
    {"root": 0},
    {"nodes": {}, "root": 0},
    {"nodes": [], "root": 0},
    {"nodes": [["leaf", 0]]},
    {"nodes": [["leaf", 0]], "root": 1},
    {"nodes": [["leaf", 0]], "root": True},
    {"nodes": [["leaf", 0]], "root": 0.0},
    {"nodes": [["not", 0]], "root": 0},                       # refers to itself
    {"nodes": [["not", 1], ["leaf", 0]], "root": 0},          # refers forward
    {"nodes": [["leaf", 0], ["not", -1]], "root": 1},
    {"nodes": [["leaf", 1.0]], "root": 0},
    {"nodes": [["leaf", True]], "root": 0},
    {"nodes": [["leaf", -1]], "root": 0},
    {"nodes": [["const", 1]], "root": 0},
    {"nodes": [["leaf", 0], ["and", 1.5, 0, 0]], "root": 1},
    {"nodes": [["leaf", 0], ["and", True, 0, 0]], "root": 1},
    {"nodes": [["leaf", 0], ["and", "1", 0, 0]], "root": 1},
    {"nodes": [["leaf", 0], ["and", 1.0, 0]], "root": 1},
    {"nodes": [[]], "root": 0},
    {"nodes": [[["leaf"], 0]], "root": 0},
    {"nodes": ["leaf"], "root": 0},
], ids=repr)
def test_from_dict_rejects_malformed_tables(table):
    with pytest.raises(ValueError):
        from_dict(table)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=4,
)


@st.composite
def mutated_tables(draw):
    """A valid table with a node dropped; a node, one of its fields or the
    root replaced by an id forward or out of range or by any JSON value;
    or a key removed."""
    table = to_dict(draw(trees()))
    nodes, size = table["nodes"], len(table["nodes"])
    bad_ids = st.sampled_from([size, -1, 10**9]) | _json_values
    action = draw(st.sampled_from(["drop", "node", "field", "root", "key"]))
    if action == "drop":
        del nodes[draw(st.integers(0, size - 1))]
    elif action == "node":
        nodes[draw(st.integers(0, size - 1))] = draw(_json_values)
    elif action == "field":
        index = draw(st.integers(0, size - 1))
        row = nodes[index]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(index, size) | bad_ids)
    elif action == "root":
        table["root"] = draw(bad_ids)
    else:
        del table[draw(st.sampled_from(["nodes", "root"]))]
    return table


@given(mutated_tables())
def test_a_mutated_table_raises_only_value_error(table):
    try:
        from_dict(json.loads(json.dumps(table)))
    except ValueError:
        pass


# ------------------------------------------------------- shared subtrees
#
# Traces are DAGs: rows reached along several paths share one subtree.
# Every consumer must give what a plain tree walk of the expanded tree
# gives; the walkers below are that reference, written the direct way.


def _ref_render(node, leaf_text=lambda slot: f"({slot})"):
    if isinstance(node, Leaf):
        return leaf_text(node.slot)
    if isinstance(node, Const):
        return "1" if node.truth else "0"
    if isinstance(node, Not):
        return f"1-({_ref_render(node.child, leaf_text)})"
    left, right = (f"({_ref_render(c, leaf_text)})" if isinstance(c, (Gate, Not))
                   else _ref_render(c, leaf_text) for c in (node.left, node.right))
    return f"{left} {node.kind.token(node.alpha)} {right}"


def _ref_canonical_form(node):
    if isinstance(node, (Leaf, Const)):
        return node
    if isinstance(node, Not):
        return Not(_ref_canonical_form(node.child))
    alpha = node.kind.canonical_alpha
    if alpha is None:
        alpha = round(node.alpha, 2)
    return Gate(node.kind, alpha, _ref_canonical_form(node.left),
                _ref_canonical_form(node.right))


def _ref_leaf_count(node):
    if isinstance(node, (Leaf, Const)):
        return 1
    if isinstance(node, Not):
        return _ref_leaf_count(node.child)
    return _ref_leaf_count(node.left) + _ref_leaf_count(node.right)


def _ref_gate_depth(node):
    if isinstance(node, (Leaf, Const)):
        return 0
    if isinstance(node, Not):
        return _ref_gate_depth(node.child)
    return 1 + max(_ref_gate_depth(node.left), _ref_gate_depth(node.right))


def _ref_evaluate_crisp(node, arr):
    if isinstance(node, Leaf):
        return arr[:, node.slot]
    if isinstance(node, Const):
        return np.full(arr.shape[0], 1.0 if node.truth else 0.0)
    if isinstance(node, Not):
        return 1.0 - _ref_evaluate_crisp(node.child, arr)
    return gate_crisp(_ref_evaluate_crisp(node.left, arr),
                      _ref_evaluate_crisp(node.right, arr), node.alpha)


def _ref_to_dict(root):
    nodes = []

    def walk(node):
        if isinstance(node, Leaf):
            row = ["leaf", node.slot]
        elif isinstance(node, Const):
            row = ["const", node.truth]
        elif isinstance(node, Not):
            row = ["not", walk(node.child)]
        else:
            row = [node.kind.symbol, node.alpha, walk(node.left), walk(node.right)]
        if row not in nodes:
            nodes.append(row)
        return nodes.index(row)

    return {"nodes": nodes, "root": walk(root)}


_ALPHAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 0.25, 0.255]),
                    st.floats(min_value=0.0, max_value=1.0))
_STEPS = st.one_of(
    st.tuples(st.just("leaf"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("const"), st.booleans()),
    st.tuples(st.just("not"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("gate"), st.sampled_from(list(OperatorKind)), _ALPHAS,
              st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
)
# A program builds a DAG node by node; each Not or Gate refers back to
# earlier nodes, counted from the newest, so subtrees are shared often.
programs = st.lists(_STEPS, max_size=14).map(lambda steps: [("leaf", 0), *steps])


def build_dag(program):
    nodes = []
    for op, *args in program:
        back = lambda k: nodes[-1 - k % len(nodes)]  # noqa: E731
        if op == "leaf":
            nodes.append(Leaf(*args))
        elif op == "const":
            nodes.append(Const(*args))
        elif op == "not":
            nodes.append(Not(back(args[0])))
        else:
            kind, alpha, left, right = args
            nodes.append(Gate(kind, alpha, back(left), back(right)))
    return nodes[-1]


@given(programs, st.integers(min_value=0, max_value=2**32 - 1))
def test_consumers_of_a_shared_dag_match_the_tree_walk(program, seed):
    expr = build_dag(program)
    leaves = np.random.default_rng(seed).uniform(size=(5, 4))
    assert render(expr) == _ref_render(expr)
    labels = ["a", "(b and c)", "d", "e"]
    assert describe_expression(expr, labels) == _ref_render(expr, labels.__getitem__)
    assert to_dict(expr) == _ref_to_dict(expr)
    assert canonical_form(expr) == _ref_canonical_form(expr)
    assert leaf_count(expr) == _ref_leaf_count(expr)
    assert gate_depth(expr) == _ref_gate_depth(expr)
    assert (evaluate_crisp(expr, leaves).tobytes()
            == _ref_evaluate_crisp(expr, leaves).tobytes())


@given(programs, st.one_of(st.none(), st.tuples(st.integers(min_value=0), _STEPS)))
def test_tables_agree_with_dataclass_equality(program, edit):
    # The second expression is built afresh, so it shares no node with the
    # first; an edit may change a node the root never reaches.
    other = list(program)
    if edit is not None and len(other) > 1:
        index, step = edit
        other[1 + index % (len(other) - 1)] = step
    a, b = build_dag(program), build_dag(other)
    assert (to_dict(a) == to_dict(b)) == (a == b)
    assert to_dict(a) == to_dict(build_dag(program))


@given(programs)
def test_from_dict_shares_what_the_table_shares(program):
    expr = build_dag(program)
    table = to_dict(expr)
    rebuilt = from_dict(json.loads(json.dumps(table)))
    assert rebuilt == expr
    ids = set()
    _fold(rebuilt, lambda node, _: ids.add(id(node)))
    assert len(ids) == len(table["nodes"])


def _chain(depth):
    """``depth`` gates nested down the left side, with a negation on every
    right operand and an unnamed level that canonical_form rounds."""
    expr = Leaf(0)
    for i in range(1, depth + 1):
        expr = Gate(OperatorKind.OTHER, 0.123, expr, Not(Leaf(i % 3)))
    return expr


def test_consumers_of_a_chain_deeper_than_the_recursion_limit():
    expr = _chain(5000)
    assert gate_depth(expr) == 5000
    assert gate_depth(Not(expr)) == 5000

    clean, depth = canonical_form(expr), 0
    while isinstance(clean, Gate):
        assert clean.alpha == 0.12
        clean, depth = clean.left, depth + 1
    assert depth == 5000 and clean == Leaf(0)

    leaves = np.random.default_rng(0).uniform(size=(3, 3))
    expected = leaves[:, 0]
    for i in range(1, 5001):
        expected = gate_crisp(expected, 1.0 - leaves[:, i % 3], 0.123)
    assert evaluate_crisp(expr, leaves).tobytes() == expected.tobytes()


def test_a_chain_deeper_than_the_recursion_limit_round_trips_through_json():
    expr = _chain(5000)
    table = to_dict(expr)
    # Leaves 0, 1 and 2 and their negations, then one gate per level.
    assert len(table["nodes"]) == 5006 and table["root"] == 5005
    text = json.dumps(table, indent=2)
    assert json.loads(text) == table
    rebuilt = from_dict(json.loads(text))
    assert to_dict(rebuilt) == table
    node, depth = rebuilt, 0
    while isinstance(node, Gate):
        assert node.kind is OperatorKind.OTHER and node.alpha == 0.123
        assert node.right == Not(Leaf((5000 - depth) % 3))
        node, depth = node.left, depth + 1
    assert depth == 5000 and node == Leaf(0)
