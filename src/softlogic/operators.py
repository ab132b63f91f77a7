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
import sys
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

_FLOAT_MAX = sys.float_info.max


def _check_types(config, numbers=(), integers=(), error=ValueError) -> None:
    """Raise ``error`` unless each field of ``config`` named in ``numbers``
    is an int or a float and each named in ``integers`` is an int; a bool
    is neither here."""
    for name in numbers:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error(f"{name} must be a number")
    for name in integers:
        if type(getattr(config, name)) is not int:
            raise error(f"{name} must be an integer")


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
        _check_types(self, numbers=("center", "ramp_width", "smoothness"))
        if not (math.isfinite(self.center)):
            raise ValueError("center must be finite")
        if not (self.ramp_width > 0 and math.isfinite(self.ramp_width)):
            raise ValueError("ramp_width must be positive and finite")
        if not (self.smoothness > 0 and math.isfinite(self.smoothness)):
            raise ValueError("smoothness must be positive and finite")
        # squash divides by the product; below the smallest normal float it
        # keeps too few bits, above the largest it is infinite.
        if not sys.float_info.min <= self.ramp_width * self.smoothness <= _FLOAT_MAX:
            raise ValueError("ramp_width * smoothness must be a finite normal float")


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")


def cut(x):
    """Cutting function: 0 below the unit interval, identity inside, 1 above."""
    arr = np.asarray(x, dtype=float)
    _check_finite(arr, "x")
    out = np.clip(arr, 0.0, 1.0)
    return float(out) if arr.ndim == 0 else out


def squash(x, params: SquashParams = SquashParams()):
    """Smooth surrogate of :func:`cut`.

    With center a, ramp_width l and smoothness b:

        S(x) = (1 / (l b)) * ln((1 + exp(b (x - a + l/2)))
                              / (1 + exp(b (x - a - l/2))))

    S is strictly increasing, maps the reals onto (0, 1) and converges to
    ``cut`` pointwise as b grows; the peak error ln(2)/(l b) sits at the
    two ramp corners.

    S is self-dual, S(a + m) = 1 - S(a - m), so with c = l b and
    e = exp(-b |x - a|) it is evaluated from one ``exp`` per element as
    h = ln(1 + e (e^{c/2} - e^{-c/2}) / (1 + e e^{-c/2})) / c, which is
    S below the center and 1 - S above it.  Far outside the ramp the
    result is exactly 0 or 1, for every finite x.
    """
    arr = np.asarray(x, dtype=float)
    a, lam, beta = params.center, params.ramp_width, params.smoothness
    c = lam * beta
    m = np.abs(np.atleast_1d(arr))              # |x| first, then x - a
    top = float(np.maximum.reduce(m, axis=None, initial=0.0))
    if not top <= _FLOAT_MAX:                   # NaN fails every comparison
        raise ValueError("x must be finite")
    if beta * (top + abs(a)) > _FLOAT_MAX:
        # x - a or b |x - a| could overflow, so take half of x - a and cap
        # it where b |x - a| passes c/2 + 800: beyond that e e^{c/2} is 0
        # and S is 0 or 1 in every bit.
        np.multiply(arr, 0.5, out=m)
        m -= a * 0.5
        e = np.minimum(np.abs(m), (lam / 2 + 800 / beta) * (0.5 + 2**-40))
        e *= -beta
        e += e
    else:
        np.subtract(arr, a, out=m)
        e = np.abs(m)
        e *= -beta
    above = m > 0
    if c > 1400:                                # e^{c/2} would overflow
        e += c / 2
        np.logaddexp(0.0, e, out=e)
    else:
        np.exp(e, out=e)
        if c > 75:      # e^{-c/2} < 2**-54 rounds away in both sums
            e *= math.exp(c / 2)
        else:
            np.multiply(e, math.exp(-c / 2), out=m)
            m += 1.0
            e *= math.expm1(c / 2) - math.expm1(-c / 2)
            e /= m
        np.log1p(e, out=e)
    e /= c
    # The result goes to m, allocated first, so the freed e leaves no hole
    # below it in the heap.
    np.subtract(above, e, out=m)                # 1 - h above, -h below
    np.abs(m, out=m)
    return float(m[0]) if arr.ndim == 0 else m


def squash_grad(x, params: SquashParams = SquashParams()):
    """Derivative of :func:`squash`: a difference of two logistics over l.

    dS/dx = (sigma(b (x - a + l/2)) - sigma(b (x - a - l/2))) / l

    Nonnegative everywhere, close to 1 inside the ramp and exactly 0 far
    outside it.  Each logistic is sigma(z) = (1 + tanh(z / 2)) / 2.
    """
    arr = np.asarray(x, dtype=float)
    a, lam, beta = params.center, params.ramp_width, params.smoothness
    top = float(np.maximum.reduce(np.abs(arr), axis=None, initial=0.0))
    if not top <= _FLOAT_MAX:                   # NaN fails every comparison
        raise ValueError("x must be finite")
    if beta * (top + abs(a) + lam / 2.0) > _FLOAT_MAX:
        # b (x - a -+ l/2) / 2 may overflow to +-inf, whose tanh is the
        # +-1 that the exact argument's is too; only the warning must go.
        with np.errstate(over="ignore"):
            return _logistic_difference(arr, a, lam, beta)
    return _logistic_difference(arr, a, lam, beta)


def _logistic_difference(arr: np.ndarray, a: float, lam: float, beta: float):
    """:func:`squash_grad` for center ``a``, ramp ``lam``, smoothness ``beta``."""
    lo = (beta / 2.0) * (arr - (a - lam / 2.0))
    hi = (beta / 2.0) * (arr - (a + lam / 2.0))
    out = (np.tanh(lo) - np.tanh(hi)) / (2.0 * lam)
    return float(out) if arr.ndim == 0 else out


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
