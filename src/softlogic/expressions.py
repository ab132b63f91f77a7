"""Logic expression trees, rendering, parsing and crisp evaluation.

Expressions are what rule extraction produces and what synthetic
benchmark labels are generated from.  Leaves are integer references whose
meaning depends on context: raw feature indices for synthetic data
generation, first pairing-layer slot indices for traced network
expressions.  Traced expressions are DAGs whose subtrees are shared along
many paths; every consumer here walks through :func:`_fold`, which visits
each distinct node once with an explicit stack, so cost grows with the
distinct nodes, not the expanded tree, and no depth exhausts the stack.
``_fold`` is the one graph walk of this module and of extraction, whose
selector trace runs on it too.  :func:`parse` reads the rendered text in
one loop over its tokens with a stack of open brackets.  The serialized
form, :func:`to_dict`, is a flat table of the distinct nodes in
post-order; :func:`from_dict` reads it back in one forward loop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .operators import OperatorKind, classify_alpha, gate_crisp

__all__ = [
    "LogicExpr",
    "Leaf",
    "Const",
    "Gate",
    "Not",
    "render",
    "parse",
    "evaluate_crisp",
    "canonical_form",
    "leaf_count",
    "gate_depth",
    "to_dict",
    "from_dict",
]


@dataclass(frozen=True)
class Leaf:
    """Reference to an input slot by index."""

    slot: int

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError("slot must be nonnegative")


@dataclass(frozen=True)
class Const:
    """Logic constant: true renders as 1, false as 0."""

    truth: bool


@dataclass(frozen=True)
class Gate:
    """Two-operand gate with its kind and exact compensation level."""

    kind: OperatorKind
    alpha: float
    left: "LogicExpr"
    right: "LogicExpr"

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class Not:
    """Standard negation, evaluated as 1 - child."""

    child: "LogicExpr"


LogicExpr = Union[Leaf, Const, Gate, Not]


def _operands(node: LogicExpr) -> tuple:
    if isinstance(node, Gate):
        return node.left, node.right
    if isinstance(node, Not):
        return (node.child,)
    if isinstance(node, (Leaf, Const)):
        return ()
    raise TypeError(f"not a LogicExpr: {node!r}")


def _fold(root, visit, children=_operands, key=id):
    """``visit(node, child_values)`` on every distinct node below ``root``,
    children first in ``children(node)`` order; returns the root's value.

    Nodes are memoized by ``key`` (a :data:`LogicExpr`'s by identity), so a
    node reached along several paths is expanded and visited once, and an
    explicit stack means no depth exhausts the recursion limit.  This is
    the package's one graph walk.
    """
    values: dict = {}
    stack: list = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if key(node) in values:
            continue
        if kids is None:
            kids = children(node)
            stack.append((node, kids))
            stack += [(kid, None) for kid in reversed(kids)]
        else:
            values[key(node)] = visit(node, [values[key(kid)] for kid in kids])
    return values[key(root)]


def render(expr: LogicExpr) -> str:
    """Deterministic infix rendering.

    ``Leaf(5)`` becomes ``(5)``, constants become ``1`` / ``0``, negation
    becomes ``1-(...)`` and a gate joins its operands with ``or``, ``uni``,
    ``and`` or ``op[a]`` where a is the two-decimal compensation level of an
    unnamed gate; composite operands are parenthesized.
    """
    return _render(expr, lambda slot: f"({slot})")


def _render(expr: LogicExpr, leaf_text) -> str:
    """:func:`render` with ``leaf_text(slot)`` as the text of each leaf."""
    def visit(node, texts):
        if isinstance(node, Leaf):
            return leaf_text(node.slot)
        if isinstance(node, Const):
            return "1" if node.truth else "0"
        if isinstance(node, Not):
            return f"1-({texts[0]})"
        # Leaves and constants already read as atoms; composites get parens.
        left, right = (f"({text})" if isinstance(child, (Gate, Not)) else text
                       for child, text in zip((node.left, node.right), texts))
        return f"{left} {node.kind.token(node.alpha)} {right}"
    return _fold(expr, visit)


def canonical_form(expr: LogicExpr) -> LogicExpr:
    """Expression with every named gate's alpha snapped to its canonical
    value and OTHER alphas rounded to two decimals, mirroring what the
    rendered text preserves."""
    def visit(node, children):
        if isinstance(node, Not):
            return Not(*children)
        if isinstance(node, Gate):
            alpha = node.kind.canonical_alpha
            return Gate(node.kind, round(node.alpha, 2) if alpha is None else alpha, *children)
        return node
    return _fold(expr, visit)


def leaf_count(expr: LogicExpr) -> int:
    """Number of Leaf and Const references in the expanded tree."""
    return _fold(expr, lambda node, counts: sum(counts) if counts else 1)


def gate_depth(expr: LogicExpr) -> int:
    """Deepest nesting of Gate nodes; negation adds no depth."""
    return _fold(expr, lambda node, depths: max(depths, default=0) + isinstance(node, Gate))


def evaluate_crisp(expr: LogicExpr, leaves) -> np.ndarray:
    """Evaluate the tree with crisp gates on unit-interval leaf values.

    ``leaves`` is an array of shape (rows, slots); ``Leaf(i)`` reads column
    i, gates apply ``cut(x + y - alpha)`` and ``Not`` applies 1 - x.
    Returns one value per row.
    """
    arr = np.asarray(leaves, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]

    def visit(node, values):
        if isinstance(node, Leaf):
            if node.slot >= arr.shape[1]:
                raise ValueError(f"leaf slot {node.slot} outside {arr.shape[1]} columns")
            return arr[:, node.slot]
        if isinstance(node, Const):
            return np.full(arr.shape[0], 1.0 if node.truth else 0.0)
        if isinstance(node, Not):
            return 1.0 - values[0]
        return gate_crisp(*values, node.alpha)

    return _fold(expr, visit)


_KINDS = {kind.symbol: kind for kind in OperatorKind}
_TOKEN = re.compile(r"1-\(|\((\d+)\)|[()01]| (or|uni|and|op\[([^\]]*)\]) ")


def _closed(frame: list) -> LogicExpr:
    """Expression of a complete :func:`parse` frame."""
    negated, left, *rest = frame
    expr = Gate(*rest[0], left, rest[1]) if rest else left
    return Not(expr) if negated else expr


def parse(text: str) -> LogicExpr:
    """Inverse of :func:`render` on canonical-form trees.

    One pass over the tokens with a stack of open brackets: each frame is
    ``[negated, left, (kind, alpha), right]``, filled as far as read, and a
    closing bracket turns the top frame into an operand of the one below.
    """
    stack: list[list] = [[False]]
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"parse error at {pos}: unexpected input")
        token, slot, symbol, level = match.group(0, 1, 2, 3)
        frame = stack[-1]
        if symbol:
            if len(frame) != 2:
                raise ValueError(f"parse error at {pos}: unexpected operator")
            if level is None:
                kind = _KINDS[symbol]
                frame.append((kind, kind.canonical_alpha))
            else:
                alpha = float(level)
                frame.append((classify_alpha(alpha, tolerance=0.0), alpha))
        elif token == ")":
            if len(stack) == 1 or len(frame) % 2:
                raise ValueError(f"parse error at {pos}: unexpected ')'")
            stack.pop()
            stack[-1].append(_closed(frame))
        elif len(frame) % 2 == 0:
            raise ValueError(f"parse error at {pos}: expected an operator")
        elif token.endswith("("):
            stack.append([token == "1-("])
        else:
            frame.append(Leaf(int(slot)) if slot else Const(token == "1"))
        pos = match.end()
    if len(stack) > 1 or len(stack[0]) % 2:
        raise ValueError(f"parse error at {pos}: unexpected end of input")
    return _closed(stack[0])


def to_dict(expr: LogicExpr) -> dict:
    """Post-order node table ``{"nodes": [...], "root": id}`` of an
    expression, inverse of :func:`from_dict`.  A node is ``["leaf",
    slot]``, ``["const", truth]``, ``["not", id]`` or ``[symbol, alpha,
    left_id, right_id]``, after its children.  Equal subtrees share one
    id, so ``to_dict(a) == to_dict(b)`` exactly when ``a == b``."""
    ids: dict[tuple, int] = {}

    def visit(node, children):
        if isinstance(node, Leaf):
            key = ("leaf", node.slot)
        elif isinstance(node, Const):
            key = ("const", node.truth)
        elif isinstance(node, Not):
            key = ("not", *children)
        else:
            key = (node.kind.symbol, node.alpha, *children)
        return ids.setdefault(key, len(ids))

    root = _fold(expr, visit)
    return {"nodes": [list(key) for key in ids], "root": root}


def from_dict(data: dict) -> LogicExpr:
    """Inverse of :func:`to_dict`, one pass over the table.  A child or
    root id must be an int naming an earlier node, a slot an int and a
    truth value a bool; anything else raises ValueError."""
    nodes = data.get("nodes") if isinstance(data, dict) else None
    if not isinstance(nodes, list):
        raise ValueError("an expression table needs a list of nodes")
    built: list[LogicExpr] = []

    def ref(node_id) -> LogicExpr:
        if type(node_id) is not int or not 0 <= node_id < len(built):
            raise ValueError(f"node id {node_id!r} names no earlier node")
        return built[node_id]

    for row in nodes:
        tag, *args = row if isinstance(row, list) and row else [None]
        if tag == "leaf" and len(args) == 1 and type(args[0]) is int:
            node = Leaf(args[0])
        elif tag == "const" and len(args) == 1 and type(args[0]) is bool:
            node = Const(args[0])
        elif tag == "not" and len(args) == 1:
            node = Not(ref(args[0]))
        elif (isinstance(tag, str) and tag in _KINDS and len(args) == 3
              and type(args[0]) in (int, float)):
            node = Gate(_KINDS[tag], args[0], ref(args[1]), ref(args[2]))
        else:
            raise ValueError(f"not an expression node: {row!r}")
        built.append(node)
    return ref(data.get("root"))
