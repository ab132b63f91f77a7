"""Rule extraction: snap learned gates to named operators and trace the
sparse routing into a readable logic expression.

A traced expression walks backward from one output unit.  Selector rows
keep only inputs whose weight passes ``weight_keep_ratio`` of the row
maximum; kept inputs combine under the aggregative operator, which is
exactly what a clamped ±1-weight sum computes, and negative weights wrap
their operand in negation.  Gate slots in later logic parts become
two-operand gate nodes; the recursion bottoms out at the first pairing
layer, whose slot indices are the expression's leaves.

Faithfulness compares the expression's crisp decisions with the full
network's.  The crisp walk mirrors the network's fixed plumbing, applying
the between-part tanh remap to non-constant gate operands; leaving the
remap out would disagree with the network on a wide input band for
conjunctive and disjunctive gates, not just near decision boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import (
    Const, Gate, Leaf, LogicExpr, Not, _render, evaluate_crisp, leaf_count, render,
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


# -- annotated trace --------------------------------------------------------
# The private tree keeps enough structure to evaluate an expression the way
# the network computes it (folds are selector sums, gates sit behind the
# tanh remap); the public LogicExpr is derived from it.


@dataclass(frozen=True)
class _ALeaf:
    slot: int


@dataclass(frozen=True)
class _AConst:
    truth: bool


@dataclass(frozen=True)
class _ANot:
    child: object


@dataclass(frozen=True)
class _AFold:
    children: tuple


@dataclass(frozen=True)
class _AGate:
    kind: OperatorKind
    alpha: float
    left: object
    right: object


def _kept_indices(row: np.ndarray, keep_ratio: float) -> np.ndarray:
    """Slots passing the keep rule, strongest weight first, ties by index."""
    strength = np.abs(row)
    top = strength.max() if row.size else 0.0
    if top <= 0.0:
        return np.zeros(0, dtype=np.intp)
    idx = np.nonzero(strength >= keep_ratio * top)[0]
    return idx[np.lexsort((idx, -strength[idx]))]


def _trace_annotated(net: LogicNetwork, config: ExtractionConfig,
                     output_index: int):
    parts = len(net.pairing_tables)

    def selector_trace(part: int, row_index: int):
        row = net.selectors[part][row_index]
        kept = _kept_indices(row, config.weight_keep_ratio)
        if kept.size == 0:
            return _AConst(True)
        children = []
        for slot in kept:
            node = slot_trace(part, int(slot))
            if row[slot] < 0:
                node = _ANot(node)
            children.append(node)
        if len(children) == 1:
            return children[0]
        return _AFold(tuple(children))

    def slot_trace(part: int, slot: int):
        if part == 0:
            return _ALeaf(slot)
        table = net.pairing_tables[part]
        alpha = float(net.alphas[part][slot])
        kind = classify_alpha(alpha, config.alpha_tolerance)
        left = selector_trace(part - 1, int(table.left_idx[slot]))
        j = int(table.right_idx[slot])
        right = selector_trace(part - 1, j) if j < table.width_in else _AConst(j == table.width_in)
        return _AGate(kind, alpha, left, right)

    return selector_trace(parts - 1, output_index)


def _derive(node) -> LogicExpr:
    if isinstance(node, _ALeaf):
        return Leaf(node.slot)
    if isinstance(node, _AConst):
        return Const(node.truth)
    if isinstance(node, _ANot):
        return Not(_derive(node.child))
    if isinstance(node, _AFold):
        expr = _derive(node.children[0])
        for child in node.children[1:]:
            expr = Gate(OperatorKind.AGGREGATIVE, 0.5, expr, _derive(child))
        return expr
    return Gate(node.kind, node.alpha, _derive(node.left), _derive(node.right))


def _same_expr(a: LogicExpr, b: LogicExpr) -> bool:
    """Structural equality of two expressions, as dataclass ``==`` decides
    it, with an explicit stack: traces of wide models nest too deeply for
    the recursive comparison."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Gate):
            if x.kind != y.kind or x.alpha != y.alpha:
                return False
            stack += [(x.left, y.left), (x.right, y.right)]
        elif isinstance(x, Not):
            stack.append((x.child, y.child))
        elif x != y:
            return False
    return True


def _gate_eval_alpha(kind: OperatorKind, alpha: float) -> float:
    canonical = kind.canonical_alpha
    return canonical if canonical is not None else alpha


def _tanh_unit(values: np.ndarray) -> np.ndarray:
    """The between-part remap expressed on [0, 1] values."""
    return (np.tanh(2.0 * values - 1.0) + 1.0) / 2.0


def _eval_annotated(node, leaves01: np.ndarray) -> np.ndarray:
    rows = leaves01.shape[0]
    if isinstance(node, _ALeaf):
        return leaves01[:, node.slot]
    if isinstance(node, _AConst):
        return np.full(rows, 1.0 if node.truth else 0.0)
    if isinstance(node, _ANot):
        return 1.0 - _eval_annotated(node.child, leaves01)
    if isinstance(node, _AFold):
        value = _eval_annotated(node.children[0], leaves01)
        for child in node.children[1:]:
            value = gate_crisp(value, _eval_annotated(child, leaves01), 0.5)
        return value
    left = _eval_annotated(node.left, leaves01)
    right = _eval_annotated(node.right, leaves01)
    if not isinstance(node.left, _AConst):
        left = _tanh_unit(left)
    if not isinstance(node.right, _AConst):
        right = _tanh_unit(right)
    return gate_crisp(left, right, _gate_eval_alpha(node.kind, node.alpha))


def trace_expression(net: LogicNetwork,
                     config: ExtractionConfig = ExtractionConfig(),
                     output_index: int = 0) -> LogicExpr:
    """Readable expression for one output unit.

    Leaves index slots of the first pairing layer; the gate a leaf stands
    for can be looked up with :func:`leaf_labels`.
    """
    if not (0 <= output_index < net.output_width):
        raise ValueError(
            f"output_index {output_index} outside {net.output_width} outputs"
        )
    return _derive(_trace_annotated(net, config, output_index))


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

    Expressions traced from this network are evaluated through the
    annotated structure (selector folds and the between-part remap);
    arbitrary expressions fall back to plain crisp evaluation on the
    first-layer gate activations.
    """
    arr = np.asarray(features, dtype=float)
    outputs, cache = net.forward(arr)
    if len(outputs) == 0:
        raise ValueError("faithfulness needs at least one row")
    leaves01 = (cache.gate_out[0] + 1.0) / 2.0
    annotated = _trace_annotated(net, config, output_index)
    if _same_expr(_derive(annotated), expr):
        values = _eval_annotated(annotated, leaves01)
    else:
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
