"""Logic expression trees, rendering, parsing and crisp evaluation.

Expressions are what rule extraction produces and what synthetic
benchmark labels are generated from.  Leaves are integer references whose
meaning depends on context: raw feature indices for synthetic data
generation, first pairing-layer slot indices for traced network
expressions.
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


def render(expr: LogicExpr) -> str:
    """Deterministic infix rendering.

    ``Leaf(5)`` becomes ``(5)``, constants become ``1`` / ``0``, negation
    becomes ``1-(...)`` and a gate joins its operands with ``or``, ``uni``,
    ``and`` or ``op[a]`` where a is the two-decimal compensation level of an
    unnamed gate; composite operands are parenthesized.
    """
    return _render(expr, lambda slot: f"({slot})")


def _render(expr: LogicExpr, leaf_text) -> str:
    """:func:`render` with ``leaf_text(slot)`` as the text of each leaf.

    Walks the tree with an explicit stack, so traces of wide models render
    however deeply their gates nest.
    """
    out: list[str] = []
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Leaf):
            out.append(leaf_text(node.slot))
        elif isinstance(node, Const):
            out.append("1" if node.truth else "0")
        elif isinstance(node, Not):
            stack += [")", node.child, "1-("]
        elif isinstance(node, Gate):
            for item in (node.right, f" {node.kind.token(node.alpha)} ", node.left):
                # Leaves and constants already read as atoms; composites get parens.
                stack += [")", item, "("] if isinstance(item, (Gate, Not)) else [item]
        else:
            raise TypeError(f"not a LogicExpr: {node!r}")
    return "".join(out)


def canonical_form(expr: LogicExpr) -> LogicExpr:
    """Expression with every named gate's alpha snapped to its canonical
    value and OTHER alphas rounded to two decimals, mirroring what the
    rendered text preserves."""
    if isinstance(expr, (Leaf, Const)):
        return expr
    if isinstance(expr, Not):
        return Not(canonical_form(expr.child))
    alpha = expr.kind.canonical_alpha
    if alpha is None:
        alpha = round(expr.alpha, 2)
    return Gate(expr.kind, alpha, canonical_form(expr.left), canonical_form(expr.right))


def leaf_count(expr: LogicExpr) -> int:
    """Number of Leaf and Const references in the tree."""
    count, stack = 0, [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Leaf, Const)):
            count += 1
        elif isinstance(node, Not):
            stack.append(node.child)
        else:
            stack += [node.left, node.right]
    return count


def gate_depth(expr: LogicExpr) -> int:
    """Deepest nesting of Gate nodes; negation adds no depth.  Like
    :func:`leaf_count`, walks an explicit stack, so deep folds never
    exhaust the recursion limit."""
    deepest, stack = 0, [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Not):
            stack.append((node.child, depth))
        elif not isinstance(node, (Leaf, Const)):
            deepest = max(deepest, depth + 1)
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


def evaluate_crisp(expr: LogicExpr, leaves) -> np.ndarray:
    """Evaluate the tree with crisp gates on unit-interval leaf values.

    ``leaves`` is an array of shape (rows, slots); ``Leaf(i)`` reads column
    i, gates apply ``cut(x + y - alpha)`` and ``Not`` applies 1 - x.
    Returns one value per row.
    """
    arr = np.asarray(leaves, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]

    def rec(node: LogicExpr) -> np.ndarray:
        if isinstance(node, Leaf):
            if node.slot >= arr.shape[1]:
                raise ValueError(
                    f"leaf slot {node.slot} outside {arr.shape[1]} columns"
                )
            return arr[:, node.slot]
        if isinstance(node, Const):
            return np.full(arr.shape[0], 1.0 if node.truth else 0.0)
        if isinstance(node, Not):
            return 1.0 - rec(node.child)
        return gate_crisp(rec(node.left), rec(node.right), node.alpha)

    return rec(expr)


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
    """JSON-ready tree; inverse of :func:`from_dict`."""
    if isinstance(expr, Leaf):
        return {"leaf": expr.slot}
    if isinstance(expr, Const):
        return {"const": expr.truth}
    if isinstance(expr, Not):
        return {"not": to_dict(expr.child)}
    return {
        "op": expr.kind.symbol,
        "alpha": expr.alpha,
        "left": to_dict(expr.left),
        "right": to_dict(expr.right),
    }


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
