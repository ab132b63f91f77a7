"""Correctness checks computed apart from the program.

Nothing here calls softlogic.  Planted labels come straight from the
clamped sum ``cut(u_i + u_j - alpha) >= 1/2``; the reference forward pass
reads a model in its JSON form and evaluates it with the paper's formulas
in plain numpy, the squash written out as the log-ratio ramp.  Every check
raises :class:`CheckFailed` on a wrong result.
"""

from __future__ import annotations

import numpy as np

FORWARD_TOLERANCE = 1e-9
ANCHORS = {"or": 0.0, "uni": 0.5, "and": 1.0}
SNAP_TOLERANCE = 0.15


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own result."""


def planted_labels(unit: np.ndarray, i: int, j: int, alpha: float) -> np.ndarray:
    """Crisp clamped-sum gate over unit features, thresholded at 1/2."""
    return (np.clip(unit[:, i] + unit[:, j] - alpha, 0.0, 1.0) >= 0.5).astype(np.intp)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def ramp(x: np.ndarray, center: float, width: float, smoothness: float) -> np.ndarray:
    """S(x) = ln((1 + e^{b(x - a + l/2)}) / (1 + e^{b(x - a - l/2)})) / (l b)."""
    b = smoothness
    return (_softplus(b * (x - center + width / 2.0))
            - _softplus(b * (x - center - width / 2.0))) / (width * b)


def reference_forward(model: dict, features: np.ndarray) -> np.ndarray:
    """Signed outputs of a model given as its JSON dictionary."""
    x = np.asarray(features, dtype=float)
    low = np.asarray(model["normalization"]["low"], dtype=float)
    high = np.asarray(model["normalization"]["high"], dtype=float)
    span = high - low
    z = 2.0 * (x - low) / np.where(span > 0, span, 1.0) - 1.0
    x = np.clip(np.where(span > 0, z, 0.0), -1.0, 1.0)
    sq = model["squash"]
    parts = len(model["pairings"])
    for p in range(parts):
        pairs = model["pairings"][p]
        left = x[:, [item[1] for item in pairs]]
        right = np.empty_like(left)
        for s, item in enumerate(pairs):
            if item[0] == "pair":
                right[:, s] = x[:, item[2]]
            else:
                right[:, s] = 1.0 if item[0] == "true" else -1.0
        t = (left + 1.0) / 2.0 + (right + 1.0) / 2.0 - np.asarray(model["alphas"][p])
        gate = 2.0 * ramp(t, sq["center"], sq["ramp_width"], sq["smoothness"]) - 1.0
        sel = np.clip(gate @ np.asarray(model["selectors"][p], dtype=float).T, -1.0, 1.0)
        x = np.tanh(sel) if p + 1 < parts else sel
    return x


def check_forward(program: np.ndarray, reference: np.ndarray, what: str) -> None:
    program = np.asarray(program)
    if program.shape != reference.shape:
        raise CheckFailed(f"{what}: forward shape {program.shape} != {reference.shape}")
    gap = float(np.max(np.abs(program - reference))) if program.size else 0.0
    if not gap <= FORWARD_TOLERANCE:
        raise CheckFailed(f"{what}: forward differs from the reference by {gap:.3g}")


def check_rate(rate: float, count: int, reference: np.ndarray, labels: np.ndarray,
               what: str) -> int:
    """The reported misclassification rate and row count equal the ones
    the reference outputs give; returns the error count.  Binary models
    only: class 1 when the signed output is >= 0.  Rows within the forward
    tolerance of the threshold may go either way."""
    n = labels.shape[0]
    if count != n:
        raise CheckFailed(f"{what}: count {count} != {n} rows")
    out = reference[:, 0]
    sure = np.abs(out) > FORWARD_TOLERANCE
    errors = int(np.sum(sure & ((out >= 0).astype(np.intp) != labels)))
    loose = int(np.sum(~sure))
    reported = rate * n
    if not (abs(reported - round(reported)) < 1e-6
            and errors <= round(reported) <= errors + loose):
        raise CheckFailed(f"{what}: rate {rate!r} over {n} rows, reference counts"
                          f" {errors} errors (+{loose} on the threshold)")
    return errors


def snap(alpha: float) -> str | None:
    """Named kind whose anchor lies within the tolerance, else None."""
    symbol = min(ANCHORS, key=lambda s: (abs(alpha - ANCHORS[s]), s != "uni"))
    return symbol if abs(alpha - ANCHORS[symbol]) <= SNAP_TOLERANCE else None


def check_dominant_kinds(found: list[tuple[str, float]], planted: str,
                         needed: int) -> None:
    """``found`` holds (reported kind symbol, reported level) per model:
    each kind must agree with its level, and at least ``needed`` must be
    the planted kind."""
    for symbol, alpha in found:
        if (snap(alpha) or "other") != symbol:
            raise CheckFailed(f"level {alpha:.4f} reported as {symbol!r}")
    hits = sum(symbol == planted for symbol, _ in found)
    if hits < needed:
        raise CheckFailed(f"dominant gate snaps to {planted!r} in {hits} of"
                          f" {len(found)} models, need {needed}")


def check_at_most(value: float, limit: float, what: str) -> None:
    if not value <= limit:
        raise CheckFailed(f"{what}: {value:.4f} exceeds {limit}")


def check_unit_interval(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise CheckFailed(f"{what}: {value!r} outside [0, 1]")


def leaf_slots(expr) -> set[int]:
    """Slots of every Leaf in an expression tree."""
    found, todo = set(), [expr]
    while todo:
        node = todo.pop()
        if hasattr(node, "slot"):
            found.add(node.slot)
        elif hasattr(node, "child"):
            todo.append(node.child)
        elif hasattr(node, "left"):
            todo += [node.left, node.right]
    return found


def reachable_strong_slots(model: dict, keep_ratio: float) -> set[int]:
    """First-layer slots a trace from output 0 must reach: walk the
    selector rows backward keeping weights at least ``keep_ratio`` of the
    row maximum, following kept later-part slots to their paired rows."""
    def kept(part: int, row: int) -> list[int]:
        w = np.abs(np.asarray(model["selectors"][part][row], dtype=float))
        return [] if w.max() <= 0 else list(np.nonzero(w >= keep_ratio * w.max())[0])

    def walk(part: int, row: int) -> set[int]:
        if part == 0:
            return set(int(s) for s in kept(0, row))
        out = set()
        for slot in kept(part, row):
            item = model["pairings"][part][slot]
            rows = [item[1], item[2]] if item[0] == "pair" else [item[1]]
            for r in rows:
                out |= walk(part - 1, r)
        return out

    return walk(len(model["pairings"]) - 1, 0)


def check_leaves(expr, expected: set[int]) -> None:
    found = leaf_slots(expr)
    if found != expected:
        raise CheckFailed(f"traced leaves {sorted(found)} != planted"
                          f" {sorted(expected)}")


def check_ablation(importance: np.ndarray, first_selector: np.ndarray) -> None:
    importance = np.asarray(importance)
    if importance.shape != (first_selector.shape[1],):
        raise CheckFailed(f"importance shape {importance.shape}")
    if not np.all(importance >= 0.0):
        raise CheckFailed("negative ablation importance")
    silent = ~np.any(first_selector != 0.0, axis=0)
    if np.any(importance[silent] != 0.0):
        raise CheckFailed("nonzero importance on an all-zero selector column")


def check_identical(now: bytes, first: bytes, what: str) -> None:
    if now != first:
        raise CheckFailed(f"{what} differs from the first train op's bytes")
