"""Interpretable logic network built from smooth clamped-sum gates.

The network alternates three kinds of structure: an exhaustive pairing
layer that lines up every pair of its inputs (plus each input against the
constants true and false), a gate layer holding one trainable compensation
level per pairing, and a sparse linear selector that routes gate outputs
forward.  Values live on the signed interval [-1, 1] between layers and
are mapped to [0, 1] around each gate evaluation; a tanh remap sits
between consecutive logic parts and the final layer reads the selector
output as a class decision.

Only the compensation levels and selector weights train; the pairing
structure is fixed, so every learned parameter has a direct logical
reading.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import _read_json
from .operators import SquashParams, _check_types, squash, squash_grad

__all__ = [
    "ConfigurationError",
    "ShapeMismatchError",
    "StaleCacheError",
    "PairingTable",
    "PreparedRows",
    "NetworkConfig",
    "ForwardCache",
    "Gradients",
    "LogicNetwork",
    "build_network",
    "fit_normalization",
]

FORMAT_NAME = "softlogic-model"
FORMAT_VERSION = 4
# 800 MB of float64 weights: a larger network is refused before allocation.
_MAX_PARAMETERS = 10**8
_MAX_PAIRING_SLOTS = 10_000         # per part; slots grow as its input width squared
_ALPHA_INIT = (0.25, 0.75)          # the range initial compensation levels are drawn from
_MODEL_KEYS = {"format", "format_version", "feature_count", "class_count", "squash",
               "pairings", "alphas", "selectors", "normalization", "feature_names",
               "label_names"}


class ConfigurationError(ValueError):
    """Raised for structurally impossible network configurations."""


class ShapeMismatchError(ValueError):
    """Raised when data shape does not match the network's feature count."""


class StaleCacheError(RuntimeError):
    """Raised when a backward pass uses a cache from outdated parameters."""


class PairingTable:
    """A pairing layer as two gather indices into the augmented input
    ``[x, +1, -1]``: slot s combines input ``left_idx[s]`` with column
    ``right_idx[s]``, a later input or, at ``width_in`` and ``width_in +
    1``, the constant true or false."""

    def __init__(self, width_in: int, left_idx, right_idx):
        self.width_in = width_in
        self.left_idx = left = np.array(left_idx, dtype=np.intp)
        self.right_idx = right = np.array(right_idx, dtype=np.intp)
        if not (left.ndim == 1 and left.shape == right.shape
                and np.all((0 <= left) & (left < width_in) & (left < right)
                           & (right < width_in + 2))):
            raise ConfigurationError(f"pairing index outside the layer's {width_in} inputs")
        self.width_out = left.size

    @classmethod
    def standard(cls, width_in: int) -> "PairingTable":
        """Every pair (i, j) with i < j lexicographically, then every input
        against true, then every input against false."""
        if width_in < 1:
            raise ConfigurationError("pairing layer needs at least one input")
        pair_left, pair_right = np.triu_indices(width_in, k=1)
        inputs = np.arange(width_in)
        constants = np.repeat([width_in, width_in + 1], width_in)
        return cls(width_in, np.concatenate([pair_left, inputs, inputs]),
                   np.concatenate([pair_right, constants]))

    def to_json(self) -> list[list]:
        """The model-file form of each slot: ``["pair", i, j]``, ``["true",
        i]`` or ``["false", i]``."""
        constant = {self.width_in: "true", self.width_in + 1: "false"}
        return [[constant[j], i] if j in constant else ["pair", i, j]
                for i, j in zip(self.left_idx.tolist(), self.right_idx.tolist())]

    @classmethod
    def from_json(cls, width_in: int, items: list) -> "PairingTable":
        """Inverse of :meth:`to_json`; an entry of another length, with a
        non-integer index or with a pair partner past the inputs is
        rejected, not coerced."""
        slots = []
        for item in items:
            kind = item[0] if isinstance(item, list) and item else None
            if kind == "pair" and len(item) == 3 and type(item[2]) is int and item[2] < width_in:
                slot = item[1:]
            elif kind in ("true", "false") and len(item) == 2:
                slot = [item[1], width_in + (kind == "false")]
            else:
                slot = None
            if slot is None or type(slot[0]) is not int:
                raise ConfigurationError(f"malformed pairing {json.dumps(item)}")
            slots.append(slot)
        left, right = np.array(slots, dtype=np.intp).reshape(-1, 2).T
        return cls(width_in, left, right)

    def operands(self, unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather left/right operands along the last axis of a batch of
        unit-domain augmented inputs ``([x, +1, -1] + 1) / 2``."""
        # Fancy indexing, not take: the operands come out column-major, and
        # the selector matmul's rounding depends on that layout.
        return unit[..., self.left_idx], unit[..., self.right_idx]

    @functools.cached_property
    def scatter_map(self) -> np.ndarray:
        """(slots, inputs) 0/1 map that turns backward accumulation into
        one matmul, built on first use: part 0 never scatters.  Constant
        operands have no column, so they map to zero."""
        full = np.zeros((self.width_out, self.width_in + 2))
        slots = np.arange(self.width_out)
        full[slots, self.left_idx] = full[slots, self.right_idx] = 1.0
        return np.ascontiguousarray(full[:, :self.width_in])

    def scatter(self, g: np.ndarray) -> np.ndarray:
        """Accumulate the operand gradient, which both operands of a slot
        share, back onto the layer's inputs."""
        return g @ self.scatter_map


class PreparedRows:
    """A logic part's gate arguments before ``alpha``, built once and
    gathered per minibatch: the operand sums of dense rows, (rows, slots),
    or for part 0's few distinct values the distinct operand sums, (sums,
    1), with ``flat`` the (slots, rows) index of each gate value in the
    (sums, slots) table, which is None for dense rows."""

    __slots__ = ("args", "flat")

    def __init__(self, args, flat=None):
        self.args, self.flat = args, flat

    @classmethod
    def dense(cls, x: np.ndarray, table: PairingTable) -> "PreparedRows":
        """The operand sums of signed ``x`` on the unit interval, where
        ``table`` pairs ``[x, +1, -1]``; leading axes pass through."""
        augmented = np.empty(x.shape[:-1] + (x.shape[-1] + 2,))
        augmented[..., :-2] = x
        augmented[..., -2:] = (1.0, -1.0)
        # No names for the operands: they die in the sum.
        return cls(np.add(*table.operands((augmented + 1.0) / 2.0)))

    def __getitem__(self, idx) -> "PreparedRows":
        """The prepared input of rows ``idx``, column-major like the
        operands, since the selector matmul's rounding depends on that."""
        if self.flat is None:
            return PreparedRows(np.take(self.args.T, idx, axis=-1).T)
        return PreparedRows(self.args, self.flat[:, idx])


@dataclass(frozen=True)
class NetworkConfig:
    """Structural choices and the seed for :func:`build_network`."""

    hidden_width: int = 8
    logic_parts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_types(self, integers=("hidden_width", "logic_parts", "seed"),
                     error=ConfigurationError)
        if self.hidden_width < 2:
            raise ConfigurationError("hidden_width must be at least 2")
        if self.logic_parts < 1:
            raise ConfigurationError("logic_parts must be at least 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


@dataclass
class ForwardCache:
    """Activations recorded by forward for use in backward."""

    version: int
    # Unit-domain gate arguments per part, (rows, slots); a table part's
    # are (distinct operand sums, slots), gathered per row by the flat
    # (slots, rows) indices in gate_codes, which holds None for dense parts.
    gate_pre: list[np.ndarray] = field(default_factory=list)
    gate_codes: list[np.ndarray | None] = field(default_factory=list)
    # Signed gate outputs per part, per row; selector outputs before
    # clamping; values remapped between parts.
    gate_out: list[np.ndarray] = field(default_factory=list)
    sel_pre: list[np.ndarray] = field(default_factory=list)
    tanh_out: list[np.ndarray] = field(default_factory=list)


@dataclass
class Gradients:
    """Loss gradients for every trainable parameter group."""

    alphas: list[np.ndarray]
    selectors: list[np.ndarray]


def fit_normalization(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature (low, high) bounds for the affine map onto [-1, 1]."""
    arr = np.asarray(features, dtype=float)
    if arr.ndim != 2:
        raise ValueError("features must be a 2-d array")
    if not np.all(np.isfinite(arr)):
        # A single NaN would poison the bounds and silently zero out the
        # whole column; fail loudly instead.
        raise ValueError("features must be finite")
    low, high = arr.min(axis=0), arr.max(axis=0)
    if not _spans_finite(low, high):
        raise ValueError("a feature's range overflows a float")
    return low, high


def _spans_finite(low: np.ndarray, high: np.ndarray) -> bool:
    """Whether every feature's range ``high - low`` is a finite float."""
    with np.errstate(over="ignore"):
        return bool(np.all(np.isfinite(high - low)))


@dataclass(eq=False)
class LogicNetwork:
    """Stack of pairing, gate and selector layers over normalized inputs;
    every instance is checked by :meth:`validate` when it is constructed."""

    feature_count: int
    class_count: int
    squash: SquashParams
    pairing_tables: list[PairingTable]
    alphas: list[np.ndarray]
    selectors: list[np.ndarray]
    norm_low: np.ndarray
    norm_high: np.ndarray
    feature_names: list[str] | None = None
    label_names: list[str] | None = None
    _version: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.validate()

    # -- structure -------------------------------------------------------

    @property
    def output_width(self) -> int:
        return _output_width(self.class_count)

    def bump_version(self) -> None:
        """Mark parameters as changed, invalidating existing caches."""
        self._version += 1

    # -- forward ---------------------------------------------------------

    def normalize(self, features: np.ndarray) -> np.ndarray:
        span = self.norm_high - self.norm_low
        safe = np.where(span > 0, span, 1.0)
        # Clipping first keeps every intermediate within the finite span,
        # so a feature far outside the bounds cannot overflow.
        inside = np.clip(features, self.norm_low, self.norm_high)
        z = (inside - self.norm_low) / safe * 2.0 - 1.0
        return np.where(span > 0, z, 0.0)

    def forward(self, features: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Run a batch through every layer, returning signed outputs and the
        activation cache needed by :meth:`backward`."""
        arr = np.asarray(features, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.feature_count:
            raise ShapeMismatchError(
                f"expected (*, {self.feature_count}) features, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("features must be finite")
        return self.forward_normalized(self.prepare(self.normalize(arr)))

    def forward_normalized(self, rows: PreparedRows) -> tuple[np.ndarray, ForwardCache]:
        """:meth:`forward` for rows of what :meth:`prepare` returns;
        unchecked, for callers that normalize and prepare a whole dataset
        once."""
        cache = ForwardCache(self._version)
        return self._run_parts(rows, 0, cache), cache

    def prepare(self, rows: np.ndarray, batch: int | None = None) -> PreparedRows:
        """Part 0's gate arguments for normalized ``rows`` that are run
        ``batch`` rows at a time (default: all at once).  Part 0 evaluates
        its gates once per distinct operand sum and gathers them per row
        when the rows take so few distinct values ``n`` that ``n * (n + 2)``
        operand pairs are fewer than a batch's rows."""
        batch = rows.shape[0] if batch is None else min(batch, rows.shape[0])
        probe = math.isqrt(batch)
        table = self.pairing_tables[0]
        # A table needs n < probe; a set over probe entries rejects
        # continuous data before the sort in np.unique.
        if len(set(rows.flat[:probe].tolist())) < probe:
            levels, inverse = np.unique(rows, return_inverse=True)
            n = levels.size
            if n * (n + 2) < batch:
                unit = (np.concatenate([levels, (1.0, -1.0)]) + 1.0) / 2.0
                sums, sum_idx = np.unique(unit[:n, None] + unit, return_inverse=True)
                # return_inverse's shape varies across numpy versions.
                codes = np.empty((rows.shape[1] + 2, rows.shape[0]), dtype=np.intp)
                codes[:-2] = inverse.reshape(rows.shape).T
                codes[-2:] = [[n], [n + 1]]
                flat = codes[table.left_idx] * (n + 2) + codes[table.right_idx]
                flat = (sum_idx.ravel() * table.width_out)[flat]
                flat += np.arange(table.width_out)[:, None]
                # Minibatches gather whole F-order columns; np.take reads C-order uncopied.
                order = "F" if batch < rows.shape[0] else "C"
                return PreparedRows(sums[:, None], np.asarray(flat, order=order))
        return PreparedRows.dense(rows, table)

    def _run_parts(self, x, first: int, cache: ForwardCache | None = None) -> np.ndarray:
        """Part ``first`` and every later one, from the signed inputs
        ``x`` of part ``first`` or, when ``first`` is 0, from :meth:`prepare`'s
        rows; leading axes of ``x`` beyond the row axis pass through.
        Activations are appended to ``cache`` when one is given."""
        parts = len(self.pairing_tables)
        for p in range(first, parts):
            if p > 0:
                # Gates evaluate on [0, 1]; layers exchange signed values.
                x = PreparedRows.dense(x, self.pairing_tables[p])
            t, codes = x.args - self.alphas[p], x.flat
            gate = _per_row(2.0 * squash(t, self.squash) - 1.0, codes)
            pre = gate @ self.selectors[p].T
            x = self._activate(p, pre)
            if cache is not None:
                cache.gate_pre.append(t)
                cache.gate_codes.append(codes)
                cache.gate_out.append(gate)
                cache.sel_pre.append(pre)
                if p + 1 < parts:
                    cache.tanh_out.append(x)
        return x

    def _activate(self, p: int, pre: np.ndarray) -> np.ndarray:
        """The value part ``p`` passes on: its selector output clamped (two
        ufuncs beat np.clip on a minibatch), tanh-remapped between parts."""
        sel = np.maximum(pre, -1.0)
        np.minimum(sel, 1.0, out=sel)
        return np.tanh(sel) if p + 1 < len(self.pairing_tables) else sel

    def decide(self, outputs: np.ndarray) -> np.ndarray:
        """Class decisions from signed outputs: binary thresholds the single
        score at 1/2 (ties go to class 1), multi-class takes the first
        maximal output."""
        if self.class_count == 2:
            return (self.scores(outputs)[:, 0] >= 0.5).astype(np.intp)
        return np.argmax(outputs, axis=1)

    def scores(self, outputs: np.ndarray) -> np.ndarray:
        """Outputs mapped from signed values to unit-interval scores."""
        return (outputs + 1.0) / 2.0

    def classify(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        outputs, _ = self.forward(features)
        return self.decide(outputs), self.scores(outputs)

    # -- backward --------------------------------------------------------

    def backward(self, cache: ForwardCache, grad_outputs: np.ndarray) -> Gradients:
        """Backpropagate loss gradients on the signed outputs down to every
        compensation level and selector weight."""
        if cache.version != self._version:
            raise StaleCacheError("forward cache predates a parameter update")
        grads = Gradients(alphas=[None] * len(self.alphas),
                          selectors=[None] * len(self.selectors))
        g = np.asarray(grad_outputs, dtype=float)
        if g.shape != cache.sel_pre[-1].shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} != outputs {cache.sel_pre[-1].shape}"
            )
        for p in reversed(range(len(self.pairing_tables))):
            # Clamp passes gradient only strictly inside (-1, 1).
            open_region = np.abs(cache.sel_pre[p]) < 1.0
            g_pre = g * open_region
            prev = cache.gate_out[p]
            grads.selectors[p] = g_pre.T @ prev
            g_gate = g_pre @ self.selectors[p]
            slope = _per_row(squash_grad(cache.gate_pre[p], self.squash),
                             cache.gate_codes[p])
            # Signed output is 2 S(t) - 1 and each operand enters t as
            # (v + 1) / 2, so operand gradients carry exactly S'(t).
            g_operand = g_gate * slope
            grads.alphas[p] = -2.0 * np.add.reduce(g_operand, axis=0)
            # Features do not train, so part 0 has nothing to pass on.
            if p > 0:
                g = self.pairing_tables[p].scatter(g_operand)
                g = g * (1.0 - cache.tanh_out[p - 1] ** 2)
        return grads

    # -- training --------------------------------------------------------

    def penalty(self) -> float:
        """L1 mass of the selector weights; compensation levels are exempt."""
        return float(sum(np.add.reduce(np.abs(w), axis=None) for w in self.selectors))

    def step(self, grads: Gradients, learning_rate: float, regularization: float) -> None:
        """A subgradient step on the loss plus ``regularization`` times :meth:`penalty`."""
        for w, a, g_w, g_a in zip(self.selectors, self.alphas, grads.selectors, grads.alphas):
            w -= learning_rate * (g_w + regularization * np.sign(w))
            a -= learning_rate * g_a
            # Compensation levels only mean anything inside [0, 1].
            np.minimum(np.maximum(a, 0.0, out=a), 1.0, out=a)
        self.bump_version()

    # -- persistence -----------------------------------------------------

    def copy_parameters(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return ([a.copy() for a in self.alphas], [w.copy() for w in self.selectors])

    def restore_parameters(
        self, params: tuple[list[np.ndarray], list[np.ndarray]]
    ) -> None:
        alphas, selectors = params
        self.alphas = [a.copy() for a in alphas]
        self.selectors = [w.copy() for w in selectors]
        self.bump_version()

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "feature_count": self.feature_count,
            "class_count": self.class_count,
            "squash": asdict(self.squash),
            "pairings": [table.to_json() for table in self.pairing_tables],
            "alphas": [a.tolist() for a in self.alphas],
            "selectors": [w.tolist() for w in self.selectors],
            "normalization": {
                "low": self.norm_low.tolist(),
                "high": self.norm_high.tolist(),
            },
            "feature_names": self.feature_names,
            "label_names": self.label_names,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogicNetwork":
        """Inverse of :meth:`to_dict`; any malformed part of the file is a
        :class:`ConfigurationError`."""
        if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
            raise ValueError("not a recognized model file")
        if data.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format version {data.get('format_version')}"
            )
        _check_keys(data, _MODEL_KEYS, "model file")
        _check_keys(data["normalization"], {"low", "high"}, "normalization")
        try:
            squash_params = _settings_from(SquashParams, data["squash"], "squash")
            alphas = [np.asarray(a, dtype=float) for a in data["alphas"]]
            selectors = [np.asarray(w, dtype=float) for w in data["selectors"]]
            # Table input widths follow the selector chain.
            tables = []
            width = data["feature_count"]
            for p, items in enumerate(data["pairings"]):
                tables.append(PairingTable.from_json(width, items))
                width = selectors[p].shape[0]
            return cls(
                feature_count=data["feature_count"],
                class_count=data["class_count"],
                squash=squash_params,
                pairing_tables=tables,
                alphas=alphas,
                selectors=selectors,
                norm_low=np.asarray(data["normalization"]["low"], dtype=float),
                norm_high=np.asarray(data["normalization"]["high"], dtype=float),
                feature_names=data["feature_names"],
                label_names=data["label_names"],
            )
        except (IndexError, TypeError, OverflowError) as exc:
            raise ConfigurationError(f"malformed model file: {exc}") from exc

    def validate(self) -> None:
        """Check the counts, then cross-check widths of pairings, gates,
        selectors, bounds and names."""
        _check_counts(self.feature_count, self.class_count)
        width = self.feature_count
        if not (len(self.pairing_tables) == len(self.alphas) == len(self.selectors)):
            raise ConfigurationError("layer lists disagree in length")
        for p, table in enumerate(self.pairing_tables):
            if table.width_in != width:
                raise ConfigurationError(
                    f"part {p}: pairing table expects {table.width_in} inputs,"
                    f" chain provides {width}"
                )
            if self.alphas[p].shape != (table.width_out,):
                raise ConfigurationError(f"part {p}: alpha width mismatch")
            if not np.all((self.alphas[p] >= 0.0) & (self.alphas[p] <= 1.0)):
                raise ConfigurationError(f"part {p}: alphas must lie in [0, 1]")
            if self.selectors[p].shape[1] != table.width_out:
                raise ConfigurationError(f"part {p}: selector width mismatch")
            if not np.all(np.isfinite(self.selectors[p])):
                raise ConfigurationError(f"part {p}: selector weights must be finite")
            width = self.selectors[p].shape[0]
        if width != self.output_width:
            raise ConfigurationError(
                f"final selector emits {width}, expected {self.output_width}"
            )
        if self.norm_low.shape != (self.feature_count,) or (
            self.norm_high.shape != (self.feature_count,)
        ):
            raise ConfigurationError("normalization bounds width mismatch")
        if not (np.all(np.isfinite(self.norm_low)) and np.all(np.isfinite(self.norm_high))):
            raise ConfigurationError("normalization bounds must be finite")
        if not np.all(self.norm_low <= self.norm_high):
            raise ConfigurationError("normalization low bound exceeds high")
        if not _spans_finite(self.norm_low, self.norm_high):
            raise ConfigurationError("a normalization range overflows a float")
        for key, count in (("feature_names", self.feature_count),
                           ("label_names", self.class_count)):
            names = getattr(self, key)
            if names is not None and not (isinstance(names, list) and len(names) == count
                                          and all(isinstance(n, str) for n in names)):
                raise ConfigurationError(f"{key} must be null or a list of {count} strings")

    def save(self, path: str | Path) -> None:
        Path(path).write_text(serialize_model(self))

    @classmethod
    def load(cls, path: str | Path) -> "LogicNetwork":
        return cls.from_dict(_read_json(path))


def _check_counts(feature_count, class_count) -> None:
    """Both counts must be integers of at least 2; a bool is not one."""
    for key, count in (("feature_count", feature_count), ("class_count", class_count)):
        if type(count) is not int or count < 2:
            raise ConfigurationError(f"{key} must be an integer of at least 2")


def _check_parameters(parameters: int) -> None:
    """Refuse a model's weight count, taken before anything is allocated."""
    if parameters > _MAX_PARAMETERS:
        raise ConfigurationError(f"{parameters} parameters exceed the cap of {_MAX_PARAMETERS}")


def _pairing_slots(width: int) -> int:
    """Slots of :meth:`PairingTable.standard` over ``width`` inputs."""
    return width * (width - 1) // 2 + 2 * width


def _output_width(class_count: int) -> int:
    """One score for two classes, else one output per class."""
    return 1 if class_count == 2 else class_count


def _per_row(values: np.ndarray, codes: np.ndarray | None) -> np.ndarray:
    """A part's (rows, slots) gate values: a table part's are gathered as
    (slots, rows) and transposed, so they come out column-major like dense
    operands; the selector matmul's rounding depends on that layout."""
    return values if codes is None else values.take(codes).T


def _check_keys(block, expected: set, name: str) -> None:
    """``block`` must be a JSON object that holds exactly the keys
    ``expected``; a missing key never falls back to a default."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{name} must be a JSON object")
    for problem, keys in (("lacks", expected - set(block)),
                          ("has unknown", set(block) - expected)):
        if keys:
            named = ", ".join(map(repr, sorted(keys)))
            raise ConfigurationError(f"{name} {problem} key(s) {named}")


def _settings_from(cls, block, name: str):
    """``cls`` from a model-file block that holds exactly its fields."""
    _check_keys(block, {f.name for f in fields(cls)}, name)
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


def serialize_model(net: LogicNetwork) -> str:
    """Canonical JSON text for a network; identical parameters always
    produce identical bytes."""
    return json.dumps(net.to_dict(), indent=2) + "\n"


def build_network(
    feature_count: int,
    class_count: int,
    config: NetworkConfig = NetworkConfig(),
    feature_names: list[str] | None = None,
    label_names: list[str] | None = None,
) -> LogicNetwork:
    """Construct a fresh network with seeded parameter initialization.

    Compensation levels start uniform inside ``_ALPHA_INIT`` and
    selector weights uniform on [-1/2, 1/2] scaled by 1/sqrt(width_in).
    Normalization bounds start at (-1, 1), the identity map; training
    refits them from data.
    """
    _check_counts(feature_count, class_count)       # the arrays are sized by them
    out_width = _output_width(class_count)
    last, hidden = config.logic_parts - 1, config.hidden_width
    # Every size is checked before anything is allocated.  Parts 1 to
    # last - 1 share one shape, so a deep network costs no more to check:
    # (part, input width, output width, parts of that shape).
    shapes = [(0, feature_count, hidden if last else out_width, 1)]
    if last:
        shapes += [(1, hidden, hidden, last - 1), (last, hidden, out_width, 1)]
    parameters = 0
    for p, width, w_out, count in shapes:
        slots = _pairing_slots(width)
        if slots > _MAX_PAIRING_SLOTS:
            raise ConfigurationError(
                f"part {p}: {slots} pairing slots exceed the cap of {_MAX_PAIRING_SLOTS}")
        parameters += count * slots * (1 + w_out)   # alphas and selector weights
    _check_parameters(parameters)
    rng = np.random.default_rng(config.seed)
    tables: list[PairingTable] = []
    alphas: list[np.ndarray] = []
    selectors: list[np.ndarray] = []
    width = feature_count
    for p in range(config.logic_parts):
        table = PairingTable.standard(width)
        alphas.append(rng.uniform(*_ALPHA_INIT, size=table.width_out))
        w_out = config.hidden_width if p + 1 < config.logic_parts else out_width
        scale = 1.0 / math.sqrt(table.width_out)
        selectors.append(rng.uniform(-0.5, 0.5, size=(w_out, table.width_out)) * scale)
        tables.append(table)
        width = w_out
    return LogicNetwork(
        feature_count=feature_count,
        class_count=class_count,
        squash=SquashParams(),
        pairing_tables=tables,
        alphas=alphas,
        selectors=selectors,
        norm_low=-np.ones(feature_count),
        norm_high=np.ones(feature_count),
        feature_names=feature_names,
        label_names=label_names,
    )
