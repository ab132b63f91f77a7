"""Clamped-sum fuzzy logic operators and their smooth surrogates.

The crisp operators are built from the unit-interval cutting function
``cut(x) = min(1, max(0, x))``.  The smooth family replaces ``cut`` with a
squashing function, a log-sum-exp sigmoid ramp that converges to ``cut`` as
its smoothness parameter grows, which keeps every gate differentiable for
gradient training.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "OperatorKind",
    "SquashParams",
    "GeneralOpSpec",
    "cut",
    "squash",
    "squash_grad",
    "general_operator",
    "gate_crisp",
    "gate_smooth",
    "gate_smooth_grads",
    "preference",
    "classify_alpha",
]

class OperatorKind(enum.Enum):
    """Gate families reachable by the compensation level of a clamped sum."""

    DISJUNCTION = "or"
    AGGREGATIVE = "uni"
    CONJUNCTION = "and"
    OTHER = "other"

    @property
    def symbol(self) -> str:
        """Token used in rendered expressions (``or``, ``uni``, ``and``)."""
        return self.value

    def token(self, alpha: float) -> str:
        """Operator token of a gate with level ``alpha``: the kind's symbol,
        or ``op[a]`` with the two-decimal level for OTHER."""
        return f"op[{alpha:.2f}]" if self is OperatorKind.OTHER else self.symbol

    @property
    def canonical_alpha(self) -> float | None:
        """Exact compensation level the kind snaps to, None for OTHER."""
        return {
            OperatorKind.DISJUNCTION: 0.0,
            OperatorKind.AGGREGATIVE: 0.5,
            OperatorKind.CONJUNCTION: 1.0,
        }.get(self)


@dataclass(frozen=True)
class SquashParams:
    """Shape of the squashing ramp.

    ``center`` is the midpoint of the ramp, ``ramp_width`` its extent and
    ``smoothness`` the sigmoid sharpness.  The defaults give a ramp on
    [0, 1] whose worst-case deviation from ``cut`` is ln(2)/80.
    """

    center: float = 0.5
    ramp_width: float = 1.0
    smoothness: float = 80.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center)):
            raise ValueError("center must be finite")
        if not (self.ramp_width > 0 and math.isfinite(self.ramp_width)):
            raise ValueError("ramp_width must be positive and finite")
        if not (self.smoothness > 0 and math.isfinite(self.smoothness)):
            raise ValueError("smoothness must be positive and finite")


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")


def cut(x):
    """Cutting function: 0 below the unit interval, identity inside, 1 above."""
    arr = np.asarray(x, dtype=float)
    _check_finite(arr, "x")
    out = np.clip(arr, 0.0, 1.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def squash(x, params: SquashParams = SquashParams()):
    """Smooth surrogate of :func:`cut`.

    With center a, ramp_width l and smoothness b:

        S(x) = (1 / (l b)) * ln((1 + exp(b (x - a + l/2)))
                              / (1 + exp(b (x - a - l/2))))

    Evaluated through log-sum-exp so large arguments cannot overflow.
    S is strictly increasing, maps the reals onto (0, 1) and converges to
    ``cut`` pointwise as b grows; the peak error ln(2)/(l b) sits at the
    two ramp corners.
    """
    arr = np.asarray(x, dtype=float)
    _check_finite(arr, "x")
    a, lam, beta = params.center, params.ramp_width, params.smoothness
    lo = beta * (arr - (a - lam / 2.0))
    hi = beta * (arr - (a + lam / 2.0))
    out = (np.logaddexp(0.0, lo) - np.logaddexp(0.0, hi)) / (lam * beta)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def squash_grad(x, params: SquashParams = SquashParams()):
    """Derivative of :func:`squash`: a difference of two logistics over l.

    dS/dx = (sigma(b (x - a + l/2)) - sigma(b (x - a - l/2))) / l

    Nonnegative everywhere, close to 1 inside the ramp and decaying to 0
    outside it.  Each logistic is sigma(z) = (1 + tanh(z / 2)) / 2, which
    cannot overflow for any finite z.
    """
    arr = np.asarray(x, dtype=float)
    _check_finite(arr, "x")
    a, lam, beta = params.center, params.ramp_width, params.smoothness
    lo = (beta / 2.0) * (arr - (a - lam / 2.0))
    hi = (beta / 2.0) * (arr - (a + lam / 2.0))
    out = (np.tanh(lo) - np.tanh(hi)) / (2.0 * lam)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _identity(t):
    return t


@dataclass(frozen=True)
class GeneralOpSpec:
    """Weighted clamped-sum operator specification.

    ``weights`` are the per-operand multipliers (any nonzero reals),
    ``neutral`` is the operator's neutral element and ``generator`` /
    ``generator_inverse`` an increasing bijection of [0, 1] and its inverse
    (identity by default).  The generator pair is spot-checked on a small
    grid at construction.
    """

    weights: tuple[float, ...]
    neutral: float
    generator: Callable = field(default=_identity, repr=False)
    generator_inverse: Callable = field(default=_identity, repr=False)

    def __post_init__(self) -> None:
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) == 0:
            raise ValueError("weights must be non-empty")
        if any(not math.isfinite(w) or w == 0.0 for w in ws):
            raise ValueError("weights must be finite and nonzero")
        if not (0.0 <= self.neutral <= 1.0):
            raise ValueError("neutral must lie in [0, 1]")
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        vals = [self.generator(t) for t in grid]
        for t, v in zip(grid, vals):
            if abs(self.generator_inverse(v) - t) > 1e-9:
                raise ValueError("generator_inverse must invert generator on [0, 1]")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("generator must be strictly increasing on [0, 1]")


def general_operator(xs: Sequence[float], spec: GeneralOpSpec) -> float:
    """Weighted general operator over unit-interval operands.

    a(x) = f_inv( cut( sum_i w_i (f(x_i) - f(nu)) + f(nu) ) )

    The neutral element nu selects the operator family: nu = 1 with unit
    weights is the bounded conjunction, nu = 0 the bounded disjunction and
    nu = 1/2 the self-dual aggregative operator.  A single operand with
    weight -1 and nu = 1/2 gives the standard negation 1 - x.
    """
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != len(spec.weights):
        raise ValueError(
            f"expected {len(spec.weights)} operands, got shape {arr.shape}"
        )
    _check_finite(arr, "xs")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("operands must lie in [0, 1]")
    f = spec.generator
    fn = f(spec.neutral)
    total = fn + sum(w * (f(x) - fn) for w, x in zip(spec.weights, arr))
    return float(spec.generator_inverse(cut(total)))


def gate_crisp(x, y, alpha):
    """Two-operand crisp gate: ``cut(x + y - alpha)``.

    alpha = 1 is the bounded conjunction, alpha = 0 the bounded
    disjunction, alpha = 1/2 the self-dual aggregative operator.  In that
    middle case the gate is conjunctive on [0, 1/2]^2, disjunctive on
    [1/2, 1]^2 and averages mixed operands.
    """
    xa, ya, aa = (np.asarray(v, dtype=float) for v in (x, y, alpha))
    for arr, name in ((xa, "x"), (ya, "y"), (aa, "alpha")):
        _check_finite(arr, name)
    return cut(xa + ya - aa)


def gate_smooth(x, y, alpha, params: SquashParams = SquashParams()):
    """Smooth gate: ``squash(x + y - alpha)``, the trainable form of
    :func:`gate_crisp`."""
    xa, ya, aa = (np.asarray(v, dtype=float) for v in (x, y, alpha))
    for arr, name in ((xa, "x"), (ya, "y"), (aa, "alpha")):
        _check_finite(arr, name)
    return squash(xa + ya - aa, params)


def gate_smooth_grads(x, y, alpha, params: SquashParams = SquashParams()):
    """Partial derivatives of :func:`gate_smooth` as (d/dx, d/dy, d/dalpha).

    All three share the squash slope s' = squash_grad(x + y - alpha); the
    operand gradients equal s' and the compensation gradient is -s'.
    """
    xa, ya, aa = (np.asarray(v, dtype=float) for v in (x, y, alpha))
    slope = squash_grad(xa + ya - aa, params)
    return slope, slope, -slope


def preference(x, y, weight=1.0):
    """Preference degree of y over x: ``cut(w (y - x) + 1/2)``.

    Returns 1/2 for indifferent operands and, with w = 1, reaches the
    extremes only at (0, 1) and (1, 0).  Equals the weighted general
    operator applied to (1 - x, y) with neutral 1/2 and weights (w, w).
    """
    xa, ya, wa = (np.asarray(v, dtype=float) for v in (x, y, weight))
    for arr, name in ((xa, "x"), (ya, "y"), (wa, "weight")):
        _check_finite(arr, name)
    return cut(wa * (ya - xa) + 0.5)


def classify_alpha(alpha: float, tolerance: float = 0.15) -> OperatorKind:
    """Snap a learned compensation level to the nearest named gate kind.

    Levels within ``tolerance`` of 0, 1/2 or 1 map to DISJUNCTION,
    AGGREGATIVE or CONJUNCTION; anything else is OTHER.  When two anchors
    are equally near (possible once tolerance reaches 1/4) the tie breaks
    toward AGGREGATIVE.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError("tolerance must be nonnegative")
    candidates = [
        (abs(alpha - 0.5), 0, OperatorKind.AGGREGATIVE),
        (abs(alpha - 0.0), 1, OperatorKind.DISJUNCTION),
        (abs(alpha - 1.0), 2, OperatorKind.CONJUNCTION),
    ]
    dist, _, kind = min(candidates, key=lambda c: (c[0], c[1]))
    return kind if dist <= tolerance else OperatorKind.OTHER
