"""Rule extraction: snap learned gates to named operators and trace the
sparse routing into a readable logic expression.

A traced expression walks backward from one output unit.  Selector rows
keep only inputs whose weight passes ``weight_keep_ratio`` of the row
maximum; kept inputs combine under the aggregative operator, which is
exactly what a clamped ±1-weight sum computes, and negative weights wrap
their operand in negation.  Gate slots in later logic parts become
two-operand gate nodes; the walk bottoms out at the first pairing layer,
whose slot indices are the expression's leaves.  Each selector row is
traced once: rows reached along several paths share one subtree, so the
expression is a DAG of frozen nodes.  The trace runs on
``expressions._fold``, the one graph walk, so no depth of parts
exhausts the stack.

Faithfulness compares the expression's crisp decisions with the full
network's.  The walk that builds the expression also computes its crisp
values.  It mirrors the network's fixed plumbing, applying the
between-part tanh remap to non-constant gate operands; leaving the remap
out would disagree with the network on a wide input band for conjunctive
and disjunctive gates, not just near decision boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expressions import (
    Const, Gate, Leaf, LogicExpr, Not, _fold, _render, evaluate_crisp, leaf_count, render,
    to_dict,
)
from .network import LogicNetwork
from .operators import OperatorKind, _check_types, classify_alpha, gate_crisp

__all__ = [
    "ExtractionConfig",
    "snap_operators",
    "snapped_network",
    "trace_expression",
    "should_omit",
    "faithfulness",
    "first_gate_importance",
    "dominant_first_gate",
    "leaf_labels",
    "describe_expression",
]

# Largest (slots, rows, width) array one ablation chunk builds; bounds the
# memory of first_gate_importance independently of the network's size.
_ABLATION_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class ExtractionConfig:
    alpha_tolerance: float = 0.15
    weight_keep_ratio: float = 0.5
    max_rendered_length: int = 120
    max_terms_per_node: int = 4

    def __post_init__(self) -> None:
        _check_types(self, numbers=("alpha_tolerance", "weight_keep_ratio"),
                     integers=("max_rendered_length", "max_terms_per_node"))
        if not (0.0 <= self.alpha_tolerance <= 0.5):
            raise ValueError("alpha_tolerance must lie in [0, 0.5]")
        if not (0.0 < self.weight_keep_ratio <= 1.0):
            raise ValueError("weight_keep_ratio must lie in (0, 1]")
        if self.max_rendered_length < 1 or self.max_terms_per_node < 1:
            raise ValueError("size limits must be positive")


def snap_operators(net: LogicNetwork,
                   config: ExtractionConfig = ExtractionConfig()) -> list[list[OperatorKind]]:
    """Named operator kind for every gate slot, one list per logic part."""
    return [
        [classify_alpha(float(a), config.alpha_tolerance) for a in part]
        for part in net.alphas
    ]


def snapped_network(net: LogicNetwork,
                    config: ExtractionConfig = ExtractionConfig()) -> LogicNetwork:
    """Copy of the network with named compensation levels moved to their
    canonical values; unnamed slots keep their learned level.  Snapping is
    idempotent."""
    new_alphas = []
    for part in net.alphas:
        snapped = part.copy()
        for s, a in enumerate(part):
            canonical = classify_alpha(float(a), config.alpha_tolerance).canonical_alpha
            if canonical is not None:
                snapped[s] = canonical
        new_alphas.append(snapped)
    return replace(net, alphas=new_alphas, selectors=[w.copy() for w in net.selectors],
                   norm_low=net.norm_low.copy(), norm_high=net.norm_high.copy())


def _kept_indices(row: np.ndarray, keep_ratio: float) -> np.ndarray:
    """Slots passing the keep rule, strongest weight first, ties by index."""
    strength = np.abs(row)
    top = strength.max() if row.size else 0.0
    if top <= 0.0:
        return np.zeros(0, dtype=np.intp)
    idx = np.nonzero(strength >= keep_ratio * top)[0]
    return idx[np.lexsort((idx, -strength[idx]))]


def _trace(net: LogicNetwork, config: ExtractionConfig, leaves01: np.ndarray,
           output_index: int) -> tuple[LogicExpr, np.ndarray]:
    """Expression of one output and its crisp values on ``leaves01`` (rows,
    first-layer slots), computed as the network computes them, by a
    :func:`_fold` over ``("row", part, row)`` and ``("slot", part, slot,
    negated)`` nodes.  Nodes are memoized by value, so every path reaching
    a row shares its subtree and values."""
    if not (0 <= output_index < net.output_width):
        raise ValueError(f"output_index {output_index} outside {net.output_width} outputs")
    rows = leaves01.shape[0]

    def children(node):
        part, index = node[1], node[2]
        if node[0] == "row":
            row = net.selectors[part][index]
            return [("slot", part, int(s), bool(row[s] < 0))
                    for s in _kept_indices(row, config.weight_keep_ratio)]
        if part == 0:
            return ()
        table = net.pairing_tables[part]
        return [("row", part - 1, int(i))
                for i in (table.left_idx[index], table.right_idx[index]) if i < table.width_in]

    def visit(node, values):
        if node[0] == "row":
            if not values:
                return Const(True), np.ones(rows)
            expr, value = values[0]
            for term, v in values[1:]:
                expr = Gate(OperatorKind.AGGREGATIVE, 0.5, expr, term)
                value = gate_crisp(value, v, 0.5)
            return expr, value
        _, part, slot, negated = node
        if part == 0:
            expr, value = Leaf(slot), leaves01[:, slot]
        else:
            # Gate operands: a previous row behind the between-part tanh
            # remap (on [0, 1] values), or a constant of the augmented input.
            table, traced, operands = net.pairing_tables[part], iter(values), []
            for index in (table.left_idx[slot], table.right_idx[slot]):
                if index < table.width_in:
                    term, v = next(traced)
                else:
                    term = Const(bool(index == table.width_in))
                    v = np.full(rows, float(term.truth))
                operands.append((term, v if isinstance(term, Const)
                                 else (np.tanh(2.0 * v - 1.0) + 1.0) / 2.0))
            (left, lv), (right, rv) = operands
            alpha = float(net.alphas[part][slot])
            kind = classify_alpha(alpha, config.alpha_tolerance)
            level = alpha if kind.canonical_alpha is None else kind.canonical_alpha
            expr, value = Gate(kind, alpha, left, right), gate_crisp(lv, rv, level)
        return (Not(expr), 1.0 - value) if negated else (expr, value)

    root = ("row", len(net.selectors) - 1, output_index)
    return _fold(root, visit, children, key=tuple)


def trace_expression(net: LogicNetwork,
                     config: ExtractionConfig = ExtractionConfig(),
                     output_index: int = 0) -> LogicExpr:
    """Readable expression for one output unit.

    Leaves index slots of the first pairing layer; the gate a leaf stands
    for can be looked up with :func:`leaf_labels`.
    """
    leaves01 = np.zeros((0, net.pairing_tables[0].width_out))
    return _trace(net, config, leaves01, output_index)[0]


def should_omit(expr: LogicExpr,
                config: ExtractionConfig = ExtractionConfig()) -> tuple[bool, str | None]:
    """Whether an expression is too degenerate or too large to report.

    Returns (omit, reason); reason is "constant" for expressions that
    collapsed to a logic constant and "too long" for oversized ones.
    """
    node = expr
    while isinstance(node, Not):
        node = node.child
    if isinstance(node, Const):
        return True, "constant"
    if leaf_count(expr) > config.max_terms_per_node:
        return True, "too long"
    if len(render(expr)) > config.max_rendered_length:
        return True, "too long"
    return False, None


def faithfulness(net: LogicNetwork, expr: LogicExpr, features: np.ndarray,
                 config: ExtractionConfig = ExtractionConfig(),
                 output_index: int = 0) -> float:
    """Agreement rate between the expression's crisp decision and the
    network's decision on the given rows.

    Expressions traced from this network are evaluated as the trace walk
    computes them (selector folds and the between-part remap); arbitrary
    expressions fall back to plain crisp evaluation on the first-layer
    gate activations.
    """
    arr = np.asarray(features, dtype=float)
    outputs, cache = net.forward(arr)
    if len(outputs) == 0:
        raise ValueError("faithfulness needs at least one row")
    leaves01 = (cache.gate_out[0] + 1.0) / 2.0
    traced, values = _trace(net, config, leaves01, output_index)
    if to_dict(traced) != to_dict(expr):
        values = evaluate_crisp(expr, leaves01)
    expr_positive = values >= 0.5
    net_positive = net.decide(outputs) == (1 if net.class_count == 2 else output_index)
    return float(np.mean(expr_positive == net_positive))


def first_gate_importance(net: LogicNetwork, features: np.ndarray) -> np.ndarray:
    """Output shift caused by silencing each first-layer gate's routing.

    The importance of slot s is the mean absolute change of the signed
    outputs when column s of the first selector is zeroed.  One forward
    pass gives the base outputs and its cache; zeroing column s only
    subtracts ``gate[:, s] * W0[:, s]`` from the first part's selector
    pre-activation, so that delta is applied for a chunk of slots at once
    and the later parts run on the whole chunk in one batched pass.  A slot
    whose column routes nothing scores exactly 0 without a rerun.  The
    network is never modified.
    """
    base, cache = net.forward(features)
    gate, w0 = cache.gate_out[0], net.selectors[0]
    rows, slots = gate.shape
    if rows == 0:
        raise ValueError("first_gate_importance needs at least one row")
    widest = max([w0.shape[0]] + [t.width_out for t in net.pairing_tables[1:]])
    step = max(1, _ABLATION_CHUNK_ELEMENTS // max(1, rows * widest))
    importance = np.zeros(slots)
    live = np.flatnonzero(np.any(w0 != 0.0, axis=0))
    for start in range(0, live.size, step):
        cols = live[start:start + step]
        pre = cache.sel_pre[0][None] - gate.T[cols][:, :, None] * w0.T[cols][:, None, :]
        x = net._activate(0, pre)
        ablated = net._run_parts(x, 1)
        importance[cols] = np.mean(np.abs(ablated - base), axis=(1, 2))
    return importance


def dominant_first_gate(net: LogicNetwork, features: np.ndarray,
                        config: ExtractionConfig = ExtractionConfig()) -> tuple[int, OperatorKind, float]:
    """(slot, snapped kind, exact level) of the most influential
    first-layer gate under ablation."""
    importance = first_gate_importance(net, features)
    slot = int(np.argmax(importance))
    alpha = float(net.alphas[0][slot])
    return slot, classify_alpha(alpha, config.alpha_tolerance), alpha


def leaf_labels(net: LogicNetwork,
                config: ExtractionConfig = ExtractionConfig()) -> list[str]:
    """Readable name per first-pairing slot, e.g. ``(age and weight)``."""
    names = net.feature_names or [f"f{i}" for i in range(net.feature_count)]
    operands = [*names, "1", "0"]    # indexed like the augmented input
    table = net.pairing_tables[0]
    kinds = snap_operators(net, config)[0]
    return [
        f"({operands[i]} {kinds[s].token(float(net.alphas[0][s]))} {operands[j]})"
        for s, (i, j) in enumerate(zip(table.left_idx, table.right_idx))
    ]


def describe_expression(expr: LogicExpr, labels: list[str]) -> str:
    """Rendering with leaf indices replaced by their gate labels; for
    reading only, not parseable."""
    return _render(expr, labels.__getitem__)
