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
expression is a DAG of frozen nodes.

Faithfulness compares the expression's crisp decisions with the full
network's.  The walk that builds the expression also computes its crisp
values.  It mirrors the network's fixed plumbing, applying the
between-part tanh remap to non-constant gate operands; leaving the remap
out would disagree with the network on a wide input band for conjunctive
and disjunctive gates, not just near decision boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import (
    Const, Gate, Leaf, LogicExpr, Not, _fold, _render, evaluate_crisp, leaf_count, render,
)
from .network import LogicNetwork
from .operators import OperatorKind, classify_alpha, gate_crisp

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
    clone = LogicNetwork(
        feature_count=net.feature_count,
        class_count=net.class_count,
        config=net.config,
        pairing_tables=net.pairing_tables,
        alphas=new_alphas,
        selectors=[w.copy() for w in net.selectors],
        norm_low=net.norm_low.copy(),
        norm_high=net.norm_high.copy(),
        feature_names=net.feature_names,
        label_names=net.label_names,
    )
    return clone


def _kept_indices(row: np.ndarray, keep_ratio: float) -> np.ndarray:
    """Slots passing the keep rule, strongest weight first, ties by index."""
    strength = np.abs(row)
    top = strength.max() if row.size else 0.0
    if top <= 0.0:
        return np.zeros(0, dtype=np.intp)
    idx = np.nonzero(strength >= keep_ratio * top)[0]
    return idx[np.lexsort((idx, -strength[idx]))]


class _Trace:
    """One backward walk over the selectors.  ``selector(part, row)`` is
    the row's expression and its crisp values on ``leaves01`` (rows,
    first-layer slots), computed as the network computes them.  Each row is
    traced once; every path reaching it shares its subtree and values."""

    def __init__(self, net: LogicNetwork, config: ExtractionConfig,
                 leaves01: np.ndarray):
        self.net, self.config, self.leaves01 = net, config, leaves01
        self.memo: dict[tuple[int, int], tuple[LogicExpr, np.ndarray]] = {}

    def output(self, index: int) -> tuple[LogicExpr, np.ndarray]:
        if not (0 <= index < self.net.output_width):
            raise ValueError(f"output_index {index} outside {self.net.output_width} outputs")
        return self.selector(len(self.net.selectors) - 1, index)

    def selector(self, part: int, row_index: int) -> tuple[LogicExpr, np.ndarray]:
        key = (part, row_index)
        if key not in self.memo:
            row = self.net.selectors[part][row_index]
            kept = _kept_indices(row, self.config.weight_keep_ratio)
            expr, value = Const(True), np.ones(self.leaves01.shape[0])
            for n, slot in enumerate(kept):
                node, v = self.slot(part, int(slot))
                if row[slot] < 0:
                    node, v = Not(node), 1.0 - v
                if n == 0:
                    expr, value = node, v
                else:
                    expr = Gate(OperatorKind.AGGREGATIVE, 0.5, expr, node)
                    value = gate_crisp(value, v, 0.5)
            self.memo[key] = expr, value
        return self.memo[key]

    def operand(self, part: int, index: int) -> tuple[LogicExpr, np.ndarray]:
        """A gate operand in ``part``: a row of the previous selector behind
        the between-part tanh remap (on [0, 1] values), or a constant of the
        augmented input."""
        width = self.net.pairing_tables[part].width_in
        if index >= width:
            truth = index == width
            return Const(truth), np.full(self.leaves01.shape[0], float(truth))
        expr, value = self.selector(part - 1, index)
        if isinstance(expr, Const):
            return expr, value
        return expr, (np.tanh(2.0 * value - 1.0) + 1.0) / 2.0

    def slot(self, part: int, slot: int) -> tuple[LogicExpr, np.ndarray]:
        if part == 0:
            return Leaf(slot), self.leaves01[:, slot]
        table = self.net.pairing_tables[part]
        alpha = float(self.net.alphas[part][slot])
        kind = classify_alpha(alpha, self.config.alpha_tolerance)
        left, lv = self.operand(part, int(table.left_idx[slot]))
        right, rv = self.operand(part, int(table.right_idx[slot]))
        level = alpha if kind.canonical_alpha is None else kind.canonical_alpha
        return Gate(kind, alpha, left, right), gate_crisp(lv, rv, level)


def _same_expr(a: LogicExpr, b: LogicExpr) -> bool:
    """Structural equality of two expressions, as dataclass ``==`` decides
    it, by hash-consing: equal subtrees get equal ids from one table, so
    each distinct node of either expression is visited once."""
    ids: dict = {}

    def visit(node, children):
        if isinstance(node, Gate):
            key = (type(node), node.kind, node.alpha, *children)
        elif isinstance(node, Not):
            key = (type(node), *children)
        else:    # leaves and constants are hashable values themselves
            key = node
        return ids.setdefault(key, len(ids))

    return _fold(a, visit) == _fold(b, visit)


def trace_expression(net: LogicNetwork,
                     config: ExtractionConfig = ExtractionConfig(),
                     output_index: int = 0) -> LogicExpr:
    """Readable expression for one output unit.

    Leaves index slots of the first pairing layer; the gate a leaf stands
    for can be looked up with :func:`leaf_labels`.
    """
    leaves01 = np.zeros((0, net.pairing_tables[0].width_out))
    return _Trace(net, config, leaves01).output(output_index)[0]


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
    traced, values = _Trace(net, config, leaves01).output(output_index)
    if not _same_expr(traced, expr):
        values = evaluate_crisp(expr, leaves01)
    expr_positive = values >= 0.5
    decisions = net.decide(outputs)
    if net.class_count == 2:
        net_positive = decisions == 1 if output_index == 0 else decisions == 0
    else:
        net_positive = decisions == output_index
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
