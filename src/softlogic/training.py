"""Minibatch SGD training for logic networks and a dense tanh baseline.

The loss is the mean squared error between unit-interval scores and 0/1
targets.  The logic network adds an L1 penalty on selector weights, which
pulls the routing sparse so extracted expressions stay small; the dense
baseline uses an L2 penalty at the same coefficient.  Early stopping
tracks validation misclassification and the best snapshot wins.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, split_dataset
from .network import (LogicNetwork, ShapeMismatchError, _check_counts, _check_parameters,
                      _output_width, _pairing_slots, fit_normalization)
from .operators import _check_types

__all__ = [
    "TrainingDivergedError",
    "TrainConfig",
    "Metrics",
    "TrainResult",
    "train",
    "evaluate",
    "BaselineConfig",
    "DenseTanhNet",
    "build_baseline",
    "CrossValResult",
    "cross_validate",
    "write_training_log",
]


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    l1_regularization: float = 0.0001
    max_epochs: int = 200
    patience: int = 20
    batch_size: int = 16
    validation_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        _check_types(self, numbers=("learning_rate", "l1_regularization", "validation_fraction"),
                     integers=("max_epochs", "patience", "batch_size", "seed"))
        # NaN passes both comparisons, and inf only diverges mid-training.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not (math.isfinite(self.l1_regularization) and self.l1_regularization >= 0):
            raise ValueError("l1_regularization must be nonnegative and finite")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Metrics:
    misclassification_rate: float
    confusion: tuple[tuple[int, ...], ...]
    count: int


@dataclass
class TrainResult:
    network: object
    log: list[tuple[int, float, float]]
    best_epoch: int
    best_val_rate: float
    epochs_run: int


def _targets(labels: np.ndarray, class_count: int) -> np.ndarray:
    if class_count == 2:
        return labels.astype(float)[:, None]
    out = np.zeros((labels.shape[0], class_count))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def evaluate(model, dataset: Dataset) -> Metrics:
    """Misclassification rate and confusion matrix (rows = true class)."""
    if dataset.class_count > model.class_count:
        raise ValueError(f"dataset has {dataset.class_count} classes,"
                         f" model knows {model.class_count}")
    classes, _ = model.classify(dataset.features)
    return _metrics(model.class_count, dataset.labels, classes)


def _metrics(c: int, labels: np.ndarray, classes: np.ndarray) -> Metrics:
    """:class:`Metrics` of the decisions ``classes`` against ``labels``."""
    confusion = np.zeros((c, c), dtype=np.intp)
    np.add.at(confusion, (labels, classes), 1)
    n = labels.shape[0]
    rate = 1.0 - float(np.trace(confusion)) / n if n else 0.0
    return Metrics(
        misclassification_rate=rate,
        confusion=tuple(tuple(int(v) for v in row) for row in confusion),
        count=n,
    )


def train(model, dataset: Dataset, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Fit a :class:`LogicNetwork` or :class:`DenseTanhNet`: normalization bounds
    from the data, SGD on the loss plus the model's ``penalty()``, one ``step``
    per minibatch, early stopping on a held-out validation slice."""
    if dataset.class_count != model.class_count:
        raise ValueError(
            f"dataset has {dataset.class_count} classes,"
            f" model expects {model.class_count}"
        )
    if dataset.feature_count != model.feature_count:
        raise ShapeMismatchError(
            f"dataset has {dataset.feature_count} features,"
            f" model expects {model.feature_count}"
        )
    train_part, val_part = split_dataset(dataset, config.validation_fraction,
                                         seed=config.seed)
    if train_part.features.shape[0] == 0:
        raise ValueError("training split is empty; lower validation_fraction"
                         " or provide more data")
    if val_part.features.shape[0] == 0:
        raise ValueError("validation split is empty; provide more data")
    model.norm_low, model.norm_high = fit_normalization(dataset.features)
    model.bump_version()
    # Part 0's input is built once per split; each minibatch gathers it.
    rows = model.prepare(model.normalize(train_part.features), config.batch_size)
    val_rows = model.prepare(model.normalize(val_part.features))
    targets = _targets(train_part.labels, model.class_count)
    rng = np.random.default_rng(config.seed)
    n = targets.shape[0]
    best_rate = math.inf
    best_epoch = 0
    best_params = model.copy_parameters()
    stall = 0
    log: list[tuple[int, float, float]] = []
    epochs_run = 0
    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(n)
        losses = []
        # Overflow is checked as a non-finite loss, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                # The penalty goes first: overflowed selectors can turn a later
                # part's gate arguments to NaN, which the forward pass rejects.
                loss = config.l1_regularization * model.penalty()
                if math.isfinite(loss):
                    outputs, cache = model.forward_normalized(rows[idx])
                    err = model.scores(outputs) - targets[idx]
                    loss = float(np.add.reduce(err ** 2, axis=None)) / err.size + loss
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch},"
                        f" batch {start // config.batch_size}"
                    )
                losses.append(loss)
                # d(mse)/d(signed output) = 2 err / size * d(score)/d(output).
                grads = model.backward(cache, err / err.size)
                model.step(grads, config.learning_rate, config.l1_regularization)
            # The last update is checked before validation can keep it.
            if not math.isfinite(config.l1_regularization * model.penalty()):
                raise TrainingDivergedError(f"non-finite penalty after epoch {epoch}")
        val_classes = model.decide(model.forward_normalized(val_rows)[0])
        val_rate = _metrics(model.class_count, val_part.labels,
                            val_classes).misclassification_rate
        log.append((epoch, float(np.mean(losses)), val_rate))
        if val_rate < best_rate:
            best_rate = val_rate
            best_epoch = epoch
            best_params = model.copy_parameters()
            stall = 0
        else:
            # Ties keep the later snapshot: same validation rate, more
            # training, but no patience reset.
            if val_rate == best_rate:
                best_epoch = epoch
                best_params = model.copy_parameters()
            stall += 1
            if stall >= config.patience:
                break
    model.restore_parameters(best_params)
    return TrainResult(
        network=model,
        log=log,
        best_epoch=best_epoch,
        best_val_rate=best_rate,
        epochs_run=epochs_run,
    )


# ---------------------------------------------------------------------------
# Dense tanh baseline


@dataclass(frozen=True)
class BaselineConfig:
    """Hidden layer widths of the dense tanh comparison network; the data
    fixes its input and output widths."""

    hidden_widths: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.hidden_widths, (tuple, list)):
            raise ValueError("hidden_widths must be a tuple or list of integers")
        # A tuple keeps the frozen config hashable.
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if not all(type(v) is int for v in (*self.hidden_widths, self.seed)):  # no bools
            raise ValueError("hidden_widths and seed must be integers")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden_widths must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @staticmethod
    def mirroring(feature_count: int, hidden_width: int = 8) -> "BaselineConfig":
        """Hidden widths that shadow a two-part logic network's layer
        chain, so parameter counts stay in the same regime."""
        return BaselineConfig((_pairing_slots(feature_count), hidden_width,
                               _pairing_slots(hidden_width)))


class DenseTanhNet:
    """Fully connected network with tanh after every layer, from the
    features through ``config.hidden_widths`` to the class outputs."""

    def __init__(self, feature_count: int, class_count: int, config: BaselineConfig):
        _check_counts(feature_count, class_count)
        widths = (feature_count, *config.hidden_widths, _output_width(class_count))
        _check_parameters(sum(w_out * (w_in + 1) for w_in, w_out in zip(widths, widths[1:])))
        self.feature_count = feature_count
        self.class_count = class_count
        rng = np.random.default_rng(config.seed)
        self.weights = []
        self.biases = []
        for w_in, w_out in zip(widths, widths[1:]):
            scale = 1.0 / math.sqrt(w_in)
            self.weights.append(rng.uniform(-scale, scale, size=(w_out, w_in)))
            self.biases.append(np.zeros(w_out))
        self.norm_low = -np.ones(feature_count)
        self.norm_high = np.ones(feature_count)
        self._version = 0

    # The logic network's normalize/decide/score path, shared as is.
    bump_version = LogicNetwork.bump_version
    normalize = LogicNetwork.normalize
    forward = LogicNetwork.forward
    scores = LogicNetwork.scores
    decide = LogicNetwork.decide
    classify = LogicNetwork.classify

    def prepare(self, rows: np.ndarray, batch: int | None = None) -> np.ndarray:
        """Normalized rows are this network's input as they are."""
        return rows

    def forward_normalized(self, h: np.ndarray):
        activations = [h]
        for w, b in zip(self.weights, self.biases):
            h = np.tanh(h @ w.T + b)
            activations.append(h)
        return h, activations

    def backward(self, activations, grad_outputs):
        g = np.asarray(grad_outputs, dtype=float)
        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        for layer in reversed(range(len(self.weights))):
            out = activations[layer + 1]
            g = g * (1.0 - out ** 2)
            grad_w[layer] = g.T @ activations[layer]
            grad_b[layer] = g.sum(axis=0)
            if layer > 0:
                g = g @ self.weights[layer]
        return grad_w, grad_b

    def copy_parameters(self):
        return ([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def restore_parameters(self, params) -> None:
        weights, biases = params
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]
        self.bump_version()

    def penalty(self) -> float:
        """Squared L2 mass of the weights; biases are exempt."""
        return float(sum(np.add.reduce(w ** 2, axis=None) for w in self.weights))

    def step(self, grads, learning_rate: float, regularization: float) -> None:
        """A gradient step on the loss plus ``regularization`` times :meth:`penalty`."""
        grad_w, grad_b = grads
        for w, b, g_w, g_b in zip(self.weights, self.biases, grad_w, grad_b):
            w -= learning_rate * (g_w + 2.0 * regularization * w)
            b -= learning_rate * g_b
        self.bump_version()


# The dense counterpart of build_network, with the same arguments and size cap.
build_baseline = DenseTanhNet


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass(frozen=True)
class CrossValResult:
    mean_rate: float
    std_rate: float
    fold_metrics: tuple[Metrics, ...]


def cross_validate(dataset: Dataset, folds: int, build_model, config: TrainConfig,
                   train_fn=None) -> CrossValResult:
    """Stratified k-fold evaluation.

    ``build_model()`` constructs a fresh model per fold and ``train_fn``
    (default :func:`train`) fits it.  Every class must have at least
    ``folds`` members, otherwise stratification is impossible.
    """
    if type(folds) is not int or folds < 2:     # a bool is not a count
        raise ValueError("folds must be an integer of at least 2")
    labels = dataset.labels
    counts = np.bincount(labels, minlength=dataset.class_count)
    if np.any(counts[counts > 0] < folds):
        raise ValueError(
            f"every class needs at least {folds} members for {folds}-fold"
            " stratification"
        )
    train_fn = train_fn or train
    rng = np.random.default_rng(config.seed)
    assignment = np.zeros(labels.shape[0], dtype=np.intp)
    for cls in np.nonzero(counts)[0]:
        members = np.nonzero(labels == cls)[0]
        members = members[rng.permutation(members.shape[0])]
        for f in range(folds):
            assignment[members[f::folds]] = f
    fold_metrics = []
    for f in range(folds):
        test_mask = assignment == f
        train_set = dataset.take(np.nonzero(~test_mask)[0])
        test_set = dataset.take(np.nonzero(test_mask)[0])
        model = build_model()
        result = train_fn(model, train_set, config)
        fold_metrics.append(evaluate(result.network, test_set))
    rates = np.array([m.misclassification_rate for m in fold_metrics])
    return CrossValResult(
        mean_rate=float(rates.mean()),
        std_rate=float(rates.std()),
        fold_metrics=tuple(fold_metrics),
    )


def write_training_log(log: list[tuple[int, float, float]], path: str | Path) -> None:
    """Training log CSV: epoch, train_loss, val_misclassification."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "train_loss", "val_misclassification"])
        for epoch, loss, val in log:
            writer.writerow([epoch, f"{loss:.10g}", f"{val:.10g}"])
