"""Logic expression trees, rendering, parsing and crisp evaluation.

Expressions are what rule extraction produces and what synthetic
benchmark labels are generated from.  Leaves are integer references whose
meaning depends on context: raw feature indices for synthetic data
generation, first pairing-layer slot indices for traced network
expressions.  Traced expressions are DAGs whose subtrees are shared along
many paths; every consumer here walks through :func:`_fold`, which visits
each distinct node once with an explicit stack, so cost grows with the
distinct nodes, not the expanded tree, and no depth exhausts the stack.
"""

from __future__ import annotations

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


def _fold(expr: LogicExpr, visit):
    """``visit(node, child_values)`` on every distinct node, children first,
    left before right; returns the root's value.

    Nodes are memoized by identity, so a subtree shared along several paths
    is visited once, and the walk keeps an explicit stack, so no nesting
    depth exhausts the recursion limit.  This is the one tree walk every
    consumer of a :data:`LogicExpr` is written over.
    """
    values: dict[int, object] = {}
    stack: list = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in values:
            continue
        if isinstance(node, Gate):
            children = (node.left, node.right)
        elif isinstance(node, Not):
            children = (node.child,)
        elif isinstance(node, (Leaf, Const)):
            children = ()
        else:
            raise TypeError(f"not a LogicExpr: {node!r}")
        if expanded:
            values[id(node)] = visit(node, [values[id(c)] for c in children])
        else:
            stack.append((node, True))
            stack += [(c, False) for c in reversed(children)]
    return values[id(expr)]


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


class _Parser:
    """Recursive-descent reader for the rendered grammar."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ValueError:
        return ValueError(f"parse error at {self.pos}: {message}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def parse_expr(self) -> LogicExpr:
        left = self.parse_atom()
        if self.text.startswith(" ", self.pos):
            self.expect(" ")
            kind, alpha = self.parse_op()
            self.expect(" ")
            right = self.parse_atom()
            return Gate(kind, alpha, left, right)
        return left

    def parse_op(self) -> tuple[OperatorKind, float]:
        for kind in (OperatorKind.DISJUNCTION, OperatorKind.AGGREGATIVE,
                     OperatorKind.CONJUNCTION):
            if self.text.startswith(kind.symbol, self.pos):
                self.pos += len(kind.symbol)
                return kind, kind.canonical_alpha
        if self.text.startswith("op[", self.pos):
            self.pos += 3
            end = self.text.find("]", self.pos)
            if end < 0:
                raise self.error("unterminated op[")
            alpha = float(self.text[self.pos:end])
            self.pos = end + 1
            return classify_alpha(alpha, tolerance=0.0), alpha
        raise self.error("expected an operator token")

    def parse_atom(self) -> LogicExpr:
        ch = self.peek()
        if ch == "1":
            if self.text.startswith("1-(", self.pos):
                self.pos += 3
                inner = self.parse_expr()
                self.expect(")")
                return Not(inner)
            self.pos += 1
            return Const(True)
        if ch == "0":
            self.pos += 1
            return Const(False)
        if ch == "(":
            self.pos += 1
            if self.peek().isdigit():
                start = self.pos
                while self.peek().isdigit():
                    self.pos += 1
                if self.peek() == ")":
                    self.pos += 1
                    return Leaf(int(self.text[start:self.pos - 1]))
                # Not a bare index after all; reparse as a nested expression.
                self.pos = start
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise self.error("expected an atom")


def parse(text: str) -> LogicExpr:
    """Inverse of :func:`render` on canonical-form trees."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return expr


def to_dict(expr: LogicExpr) -> dict:
    """JSON-ready tree; inverse of :func:`from_dict`.  A shared subtree
    becomes one dict referenced from each of its parents."""
    def visit(node, children):
        if isinstance(node, Leaf):
            return {"leaf": node.slot}
        if isinstance(node, Const):
            return {"const": node.truth}
        if isinstance(node, Not):
            return {"not": children[0]}
        return {"op": node.kind.symbol, "alpha": node.alpha,
                "left": children[0], "right": children[1]}
    return _fold(expr, visit)


def from_dict(data: dict) -> LogicExpr:
    if "leaf" in data:
        return Leaf(int(data["leaf"]))
    if "const" in data:
        return Const(bool(data["const"]))
    if "not" in data:
        return Not(from_dict(data["not"]))
    if "op" in data:
        symbols = {k.symbol: k for k in OperatorKind}
        kind = symbols.get(data["op"])
        if kind is None:
            raise ValueError(f"unknown operator symbol {data['op']!r}")
        return Gate(kind, float(data["alpha"]),
                    from_dict(data["left"]), from_dict(data["right"]))
    raise ValueError(f"not an expression node: {data!r}")
