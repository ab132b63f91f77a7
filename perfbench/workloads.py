"""The two benchmark workloads: one user session of train -> eval ->
extract each, built from the seed alone.

A workload's set-up makes every input (data, files, generated models);
:meth:`round` then lists the ops of one round as :class:`Op` values.  The
runner times ``run`` and afterwards calls ``check`` on its result, so
checks never count towards an op's time.  The softlogic modules are read
through the package object at call time, so a traced run sees the same
calls as an untraced one.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
VALIDATION_FRACTION = 0.15  # TrainConfig's default, used to count SGD rows


@dataclass
class Op:
    kind: str            # "train", "eval" or "extract"
    run: Callable        # the timed call; returns what ``check`` needs
    rows: Callable       # rows the op processed, from its result
    check: Callable      # raises checks.CheckFailed on a wrong result


def sgd_rows(labels: np.ndarray) -> int:
    """Rows one training epoch visits: the stratified validation split
    rounds its share per class."""
    counts = np.bincount(labels)
    return int(sum(c - int(round(VALIDATION_FRACTION * c)) for c in counts if c > 1)
               + sum(1 for c in counts if c == 1))


# ---------------------------------------------------------------------------
# gate4-cv: small regime, library calls, k-fold cross-validation


class Gate4CV:
    """Planted two-input gates over 4 unit features, one per kind, each
    fitted by ``cross_validate`` and then scored and extracted fold by
    fold on a fresh sample."""

    name = "gate4-cv"
    KINDS = (("and", 1.0), ("or", 0.0), ("uni", 0.5))
    FEATURES = 4
    TRAIN_ROWS = 1000
    SAMPLE_ROWS = 30_000
    FOLDS = 5
    EPOCHS = 200
    LEARNING_RATE = 0.1
    ERROR_LIMIT = 0.05      # acceptance test 5: misclassification per model
    SNAP_NEEDED = 4         # acceptance test 5: folds snapping to the kind

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.train_sets, self.samples = {}, {}
        for symbol, alpha in self.KINDS:
            self.train_sets[symbol] = self._planted(rng, self.TRAIN_ROWS, alpha)
            self.samples[symbol] = self._planted(rng, self.SAMPLE_ROWS, alpha)
        self.models: dict[str, list] = {}

    def _planted(self, rng, rows: int, alpha: float):
        unit = rng.uniform(size=(rows, self.FEATURES))
        return self.sl.data.Dataset(
            features=2.0 * unit - 1.0,
            labels=checks.planted_labels(unit, 0, 1, alpha),
            feature_names=[f"x{i}" for i in range(self.FEATURES)],
            class_count=2,
            label_names=["0", "1"],
        )

    def round(self) -> list[Op]:
        ops = []
        for symbol, _ in self.KINDS:
            ops += [
                Op("train", lambda s=symbol: self._train(s),
                   lambda fitted: sum(sgd_rows(d.labels) * self.EPOCHS for d in fitted[1]),
                   lambda fitted, s=symbol: self._check_train(s, fitted)),
                Op("eval", lambda s=symbol: self._eval(s),
                   lambda metrics: sum(m.count for m in metrics),
                   lambda metrics, s=symbol: self._check_eval(s, metrics)),
                Op("extract", lambda s=symbol: self._extract(s),
                   lambda reports: 0,
                   lambda reports, s=symbol: self._check_extract(s, reports)),
            ]
        return ops

    def _train(self, symbol: str):
        sl = self.sl
        models, fold_sets = [], []

        def fit(model, dataset, config):
            fold_sets.append(dataset)
            result = sl.training.train(model, dataset, config)
            models.append(result.network)
            return result

        config = sl.training.TrainConfig(
            learning_rate=self.LEARNING_RATE, l1_regularization=0.002,
            max_epochs=self.EPOCHS, patience=self.EPOCHS, batch_size=16,
            seed=self.seed)
        sl.training.cross_validate(
            self.train_sets[symbol], self.FOLDS,
            lambda: sl.network.build_network(
                self.FEATURES, 2, sl.network.NetworkConfig(
                    hidden_width=4, logic_parts=1, seed=self.seed)),
            config, train_fn=fit)
        self.models[symbol] = models
        return models, fold_sets

    def _check_train(self, symbol: str, fitted) -> None:
        models, _ = fitted
        if len(models) != self.FOLDS:
            raise checks.CheckFailed(f"{len(models)} fold models, expected {self.FOLDS}")
        features = self.samples[symbol].features
        for f, net in enumerate(models):
            outputs, _ = net.forward(features)
            checks.check_forward(outputs, checks.reference_forward(net.to_dict(), features),
                                 f"{symbol} fold {f}")

    def _eval(self, symbol: str):
        sample = self.samples[symbol]
        return [self.sl.training.evaluate(net, sample) for net in self.models[symbol]]

    def _check_eval(self, symbol: str, metrics) -> None:
        sample = self.samples[symbol]
        for f, (net, m) in enumerate(zip(self.models[symbol], metrics)):
            what = f"{symbol} fold {f}"
            reference = checks.reference_forward(net.to_dict(), sample.features)
            errors = checks.check_rate(m.misclassification_rate, m.count, reference,
                                       sample.labels, what)
            checks.check_at_most(errors / m.count, self.ERROR_LIMIT, what)

    def _extract(self, symbol: str):
        ex = self.sl.extraction
        features = self.samples[symbol].features
        reports = []
        for net in self.models[symbol]:
            expr = ex.trace_expression(net)
            text = self.sl.expressions.render(expr)
            omit = ex.should_omit(expr)
            faith = ex.faithfulness(net, expr, features)
            labels = ex.leaf_labels(net)
            dominant = ex.dominant_first_gate(net, features)
            reports.append((expr, text, omit, faith, labels, dominant))
        return reports

    def _check_extract(self, symbol: str, reports) -> None:
        for f, (_, _, _, faith, labels, _) in enumerate(reports):
            checks.check_unit_interval(faith, f"{symbol} fold {f} faithfulness")
            if len(labels) != 14:
                raise checks.CheckFailed(f"{len(labels)} leaf labels, expected 14")
        found = [(kind.value, alpha) for *_, (_, kind, alpha) in reports]
        checks.check_dominant_kinds(found, symbol, self.SNAP_NEEDED)


# ---------------------------------------------------------------------------
# krkp-cli: wide regime through the command line


class KrkpCli:
    """Categorical CSV files in the kr-vs-kp column layout with planted
    labels, trained and scored through ``cli.main``; extraction runs on a
    generated wide model."""

    name = "krkp-cli"
    TRAIN_ROWS = 1000
    HELD_OUT_ROWS = 2000
    EXTRACT_ROWS = 64
    EPOCHS = 30
    HIDDEN = 8
    STRONG, WEAK = 3, 3     # selector weights per row in the generated model
    KEEP_RATIO = 0.5        # ExtractionConfig's default weight_keep_ratio
    LABELS = ("won", "nowin")

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.seed = seed
        self.schema_path = ROOT / "datasets" / "kr-vs-kp.schema.json"
        columns = json.loads(self.schema_path.read_text())["columns"]
        self.columns = [c["name"] for c in columns if c["kind"] != "label"]
        self.categories = [["b", "n", "w"] if name == "katri" else ["f", "t"]
                           for name in self.columns]
        rng = np.random.default_rng(seed)
        binary = [k for k, cats in enumerate(self.categories) if len(cats) == 2]
        a, b = rng.choice(binary, size=2, replace=False)
        self.planted = (int(a), int(b), float(rng.choice([0.0, 0.5, 1.0])))
        self.train_csv = workdir / "train.csv"
        self.held_out_csv = workdir / "held_out.csv"
        self.model_path = workdir / "model.json"
        _, train_labels = self._write_csv(self.train_csv, rng, self.TRAIN_ROWS)
        self.train_rows = sgd_rows(np.asarray([self.LABELS.index(v) for v in train_labels]))
        self.held_out_values, self.held_out_labels = self._write_csv(
            self.held_out_csv, rng, self.HELD_OUT_ROWS)
        self.extract_features = self.encode(self._draw(rng, self.EXTRACT_ROWS))
        self.generated = self._generate_model(rng)
        self.extract_net = sl.network.LogicNetwork.from_dict(self.generated)
        self.first_bytes: dict[str, bytes] | None = None
        self.ablation_checked = False

    # -- inputs -----------------------------------------------------------

    def _draw(self, rng, rows: int) -> np.ndarray:
        """Category index per row and column, uniform within each column."""
        return np.stack([rng.integers(len(cats), size=rows) for cats in self.categories],
                        axis=1)

    def _write_csv(self, path: Path, rng, rows: int):
        values = self._draw(rng, rows)
        a, b, alpha = self.planted
        positive = checks.planted_labels(values.astype(float), a, b, alpha)
        labels = [self.LABELS[0] if p else self.LABELS[1] for p in positive]
        with open(path, "w") as handle:
            for r in range(rows):
                cells = [self.categories[k][v] for k, v in enumerate(values[r])]
                handle.write(",".join(cells + [labels[r]]) + "\n")
        return values, labels

    def encode(self, values: np.ndarray) -> np.ndarray:
        """kr-vs-kp encoding: a two-valued column is -1/+1 in sorted order,
        the three-valued one is one-hot on the signed interval."""
        blocks = []
        for k, cats in enumerate(self.categories):
            if len(cats) == 2:
                blocks.append(2.0 * values[:, k:k + 1] - 1.0)
            else:
                blocks.append(np.where(values[:, k:k + 1] == np.arange(len(cats)), 1.0, -1.0))
        return np.hstack(blocks)

    def _generate_model(self, rng) -> dict:
        """Wide 2-part model: levels near the three anchors; each selector
        row holds a few strong weights of random sign, a few weak ones
        below the keep ratio and exact zeros elsewhere."""
        sl = self.sl
        features = self.extract_features.shape[1]
        model = sl.network.build_network(
            features, 2, sl.network.NetworkConfig(hidden_width=self.HIDDEN, seed=self.seed),
            feature_names=[f"f{i}" for i in range(features)],
            label_names=list(self.LABELS)).to_dict()
        for p, slots in enumerate(len(items) for items in model["pairings"]):
            anchors = rng.choice([0.0, 0.5, 1.0], size=slots)
            model["alphas"][p] = np.clip(anchors + rng.uniform(-0.05, 0.05, size=slots),
                                         0.0, 1.0).tolist()
            rows = len(model["selectors"][p])
            w = np.zeros((rows, slots))
            for r in range(rows):
                cols = rng.choice(slots, size=self.STRONG + self.WEAK, replace=False)
                mag = np.concatenate([rng.uniform(0.6, 1.0, self.STRONG),
                                      rng.uniform(0.05, 0.25, self.WEAK)])
                w[r, cols] = mag * rng.choice([-1.0, 1.0], size=mag.shape[0])
            model["selectors"][p] = w.tolist()
        return model

    # -- ops --------------------------------------------------------------

    def _cli(self, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.sl.cli.main(argv)
        if code != 0:
            raise checks.CheckFailed(f"softlogic {argv[0]} exited {code}")
        return out.getvalue()

    def round(self) -> list[Op]:
        return [
            Op("train", self._train,
               lambda _: self.train_rows * self.EPOCHS, self._check_train),
            Op("eval", self._eval, lambda m: m["count"], self._check_eval),
            Op("extract", self._extract, lambda _: 0, self._check_extract),
        ]

    def _train(self):
        return self._cli([
            "train", "--data", str(self.train_csv), "--schema", str(self.schema_path),
            "--out", str(self.model_path), "--seed", str(self.seed),
            "--max-epochs", str(self.EPOCHS), "--patience", str(self.EPOCHS)])

    def _artifacts(self) -> dict[str, bytes]:
        return {path.name: path.read_bytes() for path in (
            self.model_path, self.model_path.with_suffix(".log.csv"),
            self.model_path.with_suffix(".manifest.json"))}

    def _check_train(self, _stdout) -> None:
        now = self._artifacts()
        if self.first_bytes is not None:
            for name, data in now.items():
                checks.check_identical(data, self.first_bytes[name], name)
            return
        self.first_bytes = now
        model = json.loads(now["model.json"])
        features = self.encode(self.held_out_values)
        outputs, _ = self.sl.network.LogicNetwork.from_dict(model).forward(features)
        checks.check_forward(outputs, checks.reference_forward(model, features),
                             "trained model")

    def _eval(self):
        return json.loads(self._cli([
            "eval", "--model", str(self.model_path), "--data", str(self.held_out_csv),
            "--schema", str(self.schema_path), "--json"]))

    def _check_eval(self, metrics: dict) -> None:
        model = json.loads(self.first_bytes["model.json"])
        labels = np.asarray([model["label_names"].index(v) for v in self.held_out_labels])
        reference = checks.reference_forward(model, self.encode(self.held_out_values))
        checks.check_rate(metrics["misclassification_rate"], metrics["count"],
                          reference, labels, "softlogic eval")

    def _extract(self):
        ex = self.sl.extraction
        net, features = self.extract_net, self.extract_features
        expr = ex.trace_expression(net)
        text = self.sl.expressions.render(expr)
        omit = ex.should_omit(expr)
        faith = ex.faithfulness(net, expr, features)
        labels = ex.leaf_labels(net)
        dominant = ex.dominant_first_gate(net, features)
        return expr, text, omit, faith, labels, dominant

    def _check_extract(self, report) -> None:
        expr, _, _, faith, labels, _ = report
        checks.check_leaves(expr, checks.reachable_strong_slots(self.generated, self.KEEP_RATIO))
        checks.check_unit_interval(faith, "faithfulness")
        if len(labels) != len(self.generated["alphas"][0]):
            raise checks.CheckFailed(f"{len(labels)} leaf labels")
        if self.ablation_checked:
            return
        # The model never changes, so its forward pass and the ablation
        # (on a few rows, enough to see the zero columns) are checked once.
        self.ablation_checked = True
        outputs, _ = self.extract_net.forward(self.extract_features)
        checks.check_forward(outputs, checks.reference_forward(
            self.generated, self.extract_features), "generated model")
        importance = self.sl.extraction.first_gate_importance(
            self.extract_net, self.extract_features[:8])
        checks.check_ablation(importance, np.asarray(self.generated["selectors"][0]))


WORKLOADS = {Gate4CV.name: Gate4CV, KrkpCli.name: KrkpCli}
