"""Training loop behavior for the logic network and the dense baseline."""

import csv
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softlogic.data import Dataset, generate_synthetic, split_dataset
from softlogic.expressions import Gate, Leaf
from softlogic.network import (
    ConfigurationError,
    NetworkConfig,
    PairingTable,
    ShapeMismatchError,
    build_network,
    fit_normalization,
)
from softlogic.operators import OperatorKind
from softlogic.training import (
    _targets,
    BaselineConfig,
    CrossValResult,
    DenseTanhNet,
    Metrics,
    TrainConfig,
    TrainingDivergedError,
    build_baseline,
    cross_validate,
    evaluate,
    train,
    write_training_log,
)

AND = OperatorKind.CONJUNCTION


def and_dataset(rows=300, seed=0):
    return generate_synthetic(Gate(AND, 1.0, Leaf(0), Leaf(1)),
                              feature_count=3, rows=rows, seed=seed)


def small_net(seed=0, **kwargs):
    defaults = dict(hidden_width=4, logic_parts=2, seed=seed)
    defaults.update(kwargs)
    return build_network(3, 2, NetworkConfig(**defaults))


def quick_config(**kwargs):
    defaults = dict(max_epochs=60, patience=60, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# --------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(l1_regularization=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("name, value", [
    ("max_epochs", 2.5), ("patience", 3.0), ("batch_size", 16.0), ("batch_size", True),
    ("seed", 1.5), ("seed", None), ("max_epochs", np.float64(2.0)),
])
def test_train_config_rejects_non_integer_counts(name, value):
    # A bool is no count, and a float only fails later inside train.
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("learning_rate", "0.1"), ("validation_fraction", None), ("l1_regularization", True),
])
def test_train_config_rejects_non_numeric_rates(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        TrainConfig(**{name: value})


def test_train_config_accepts_numpy_floats():
    assert TrainConfig(learning_rate=np.float64(0.1)).learning_rate == 0.1


# ------------------------------------------------------------- evaluate


def test_evaluate_confusion_and_rate():
    class Fixed:
        class_count = 3

        def classify(self, features):
            return np.array([0, 1, 1, 2]), None

    ds = Dataset(features=np.zeros((4, 2)), labels=np.array([0, 1, 2, 2]),
                 feature_names=["a", "b"], class_count=3)
    m = evaluate(Fixed(), ds)
    assert m.misclassification_rate == pytest.approx(0.25)
    assert m.confusion == ((1, 0, 0), (0, 1, 0), (0, 1, 1))
    assert m.count == 4
    assert asdict(m)["confusion"][2] == (0, 1, 1)


# ------------------------------------------------------------- training


def test_training_reduces_loss():
    ds = and_dataset(rows=400)
    result = train(small_net(), ds, quick_config(max_epochs=50))
    first_loss = result.log[0][1]
    last_loss = result.log[-1][1]
    assert last_loss < first_loss


def test_training_learns_conjunction_data():
    ds = and_dataset(rows=400, seed=1)
    test = and_dataset(rows=400, seed=101)
    result = train(small_net(seed=1), ds, quick_config(max_epochs=80))
    rate = evaluate(result.network, test).misclassification_rate
    assert rate <= 0.08


def test_snapshot_never_worse_than_final_epoch():
    ds = and_dataset(rows=250, seed=2)
    result = train(small_net(seed=2), ds,
                   quick_config(max_epochs=40, patience=10))
    final_epoch_val = result.log[-1][2]
    assert result.best_val_rate <= final_epoch_val
    assert result.best_epoch <= result.epochs_run
    logged = {epoch: val for epoch, _, val in result.log}
    assert logged[result.best_epoch] == result.best_val_rate


def test_early_stopping_respects_patience():
    ds = and_dataset(rows=250, seed=3)
    # Tiny patience forces an early exit well before max_epochs.
    result = train(small_net(seed=3), ds,
                   quick_config(max_epochs=500, patience=2,
                                learning_rate=1e-6))
    assert result.epochs_run < 500
    assert len(result.log) == result.epochs_run


def test_alphas_stay_in_unit_interval_all_epochs():
    ds = and_dataset(rows=200, seed=4)
    net = small_net(seed=4)
    train(net, ds, quick_config(max_epochs=30, learning_rate=0.5))
    for part in net.alphas:
        assert np.all(part >= 0.0) and np.all(part <= 1.0)


def test_l1_pull_shrinks_selector_weights():
    ds = and_dataset(rows=300, seed=5)
    loose = train(small_net(seed=5), ds,
                  quick_config(l1_regularization=0.0)).network
    tight = train(small_net(seed=5), ds,
                  quick_config(l1_regularization=0.1)).network
    loose_mass = np.median(np.abs(np.concatenate(
        [w.ravel() for w in loose.selectors])))
    tight_mass = np.median(np.abs(np.concatenate(
        [w.ravel() for w in tight.selectors])))
    assert tight_mass < loose_mass


def test_training_is_deterministic_per_seed():
    ds = and_dataset(rows=200, seed=6)
    a = train(small_net(seed=6), ds, quick_config(max_epochs=10))
    b = train(small_net(seed=6), ds, quick_config(max_epochs=10))
    assert a.log == b.log
    for wa, wb in zip(a.network.selectors, b.network.selectors):
        assert np.array_equal(wa, wb)


def test_training_fits_normalization_from_data():
    ds = and_dataset(rows=200, seed=7)
    ds.features[:, 0] = ds.features[:, 0] * 50.0 + 10.0
    net = small_net(seed=7)
    train(net, ds, quick_config(max_epochs=3))
    assert net.norm_low[0] == ds.features[:, 0].min()
    assert net.norm_high[0] == ds.features[:, 0].max()


def test_training_rejects_class_count_mismatch():
    ds = and_dataset(rows=100)
    net = build_network(3, 4, NetworkConfig(hidden_width=4))
    with pytest.raises(ValueError, match="classes"):
        train(net, ds, quick_config())


@pytest.mark.parametrize("build", [
    lambda: build_network(4, 2, NetworkConfig(hidden_width=4)),
    lambda: build_baseline(4, 2, BaselineConfig((8,))),
], ids=["logic", "baseline"])
def test_training_rejects_feature_count_mismatch(build):
    net = build()
    with pytest.raises(ShapeMismatchError, match="features"):
        train(net, and_dataset(rows=100), quick_config())
    # Rejected before anything is fitted.
    assert np.array_equal(net.norm_low, -np.ones(4))


@pytest.mark.parametrize("build", [
    lambda: small_net(),
    lambda: build_baseline(3, 2, BaselineConfig((8,))),
], ids=["logic", "baseline"])
def test_training_rejects_an_empty_training_split(build):
    net = build()
    # 0.99 of each class rounds up to the whole class.
    with pytest.raises(ValueError, match="training split is empty"):
        train(net, and_dataset(rows=40), quick_config(validation_fraction=0.99))
    # Rejected before anything is fitted.
    assert np.array_equal(net.norm_low, -np.ones(3))


def test_training_aborts_on_non_finite_input():
    ds = and_dataset(rows=100, seed=8)
    ds.features[3, 1] = np.nan
    with pytest.raises((TrainingDivergedError, ValueError)):
        train(small_net(seed=8), ds, quick_config(max_epochs=5))


def test_divergent_baseline_raises():
    ds = and_dataset(rows=120, seed=9)
    net = build_baseline(3, 2, BaselineConfig((8,), seed=9))
    cfg = quick_config(learning_rate=1e5, l1_regularization=10.0,
                       max_epochs=50)
    # The blow-up route is weight overflow in the penalty term.
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
        train(net, ds, cfg)


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_divergent_logic_net_raises(parts):
    cfg = quick_config(learning_rate=1e300, l1_regularization=1e10)
    # Overflowed part-0 selectors turn a later part's gate arguments NaN;
    # the penalty is checked before the forward pass that would reject them.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError):
        train(small_net(logic_parts=parts), and_dataset(), cfg)


def test_divergence_in_the_last_update_raises():
    # One minibatch per epoch and one epoch: the only update overflows,
    # and validation must not see (and keep) the overflowed weights.
    cfg = quick_config(learning_rate=1e300, l1_regularization=1e10, max_epochs=1,
                       batch_size=1000)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDivergedError, match="after epoch 1"):
        train(small_net(logic_parts=1), and_dataset(), cfg)


# ------------------------------------------------------------- baseline


def test_mirroring_widths_follow_slot_arithmetic():
    assert BaselineConfig.mirroring(4, hidden_width=8).hidden_widths == (14, 8, 44)
    # Each mirrored width is the slot count of the logic network's part.
    for features, hidden in ((2, 2), (3, 4), (4, 8), (38, 8), (7, 13)):
        tables = build_network(features, 2, NetworkConfig(hidden_width=hidden)).pairing_tables
        assert BaselineConfig.mirroring(features, hidden).hidden_widths == (
            tables[0].width_out, hidden, tables[1].width_out)


@pytest.mark.parametrize("classes, outputs", [(2, 1), (3, 3)])
def test_mirrored_baseline_takes_its_outer_widths_from_the_data(classes, outputs):
    # The benchmark's kr-vs-kp baseline; these shapes fix its dnn_rate.
    net = build_baseline(38, classes, BaselineConfig.mirroring(38, 8))
    assert [w.shape for w in net.weights] == [(779, 38), (8, 779), (44, 8), (outputs, 44)]
    assert [b.shape for b in net.biases] == [(779,), (8,), (44,), (outputs,)]


def test_baseline_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(hidden_widths=(0,))
    with pytest.raises(ValueError):
        BaselineConfig(hidden_widths=(5, -1))
    with pytest.raises(ValueError, match="seed must be non-negative"):
        BaselineConfig((3,), seed=-1)


@pytest.mark.parametrize("hidden_widths", [5, None, "8", {4}, np.array([4])],
                         ids=["int", "none", "str", "set", "ndarray"])
def test_baseline_config_rejects_widths_that_are_not_a_tuple_or_list(hidden_widths):
    with pytest.raises(ValueError, match="hidden_widths must be a tuple or list of integers"):
        BaselineConfig(hidden_widths)


def test_baseline_config_stores_a_list_of_widths_as_a_tuple():
    config = BaselineConfig([4, 3], seed=2)
    assert config.hidden_widths == (4, 3)
    assert config == BaselineConfig((4, 3), seed=2)
    assert hash(config) == hash(BaselineConfig((4, 3), seed=2))


@pytest.mark.parametrize("changes", [
    {"hidden_widths": (2.5,)}, {"hidden_widths": (True,)}, {"seed": 1.5},
])
def test_baseline_config_rejects_non_integer_widths_and_seeds(changes):
    # Unchecked, each would fail inside numpy with a TypeError instead.
    with pytest.raises(ValueError, match="must be integers"):
        build_baseline(3, 2, BaselineConfig(**{"hidden_widths": (2,), **changes}))


@pytest.mark.parametrize("feature_count, class_count", [(1, 2), (3, 1), (3.0, 2), (3, True)])
def test_baseline_checks_its_counts_like_the_logic_network(feature_count, class_count):
    with pytest.raises(ConfigurationError, match="must be an integer of at least 2"):
        build_baseline(feature_count, class_count, BaselineConfig((5,)))


@pytest.mark.parametrize("hidden_widths, message", [
    ((10**9,), "5000000001 parameters exceed the cap of 100000000"),
    ((10**4, 10**4), "100060001 parameters exceed"),
])
def test_build_baseline_refuses_a_network_too_large_before_allocating(monkeypatch,
                                                                      hidden_widths, message):
    # Only arithmetic may run: any weight array fails the test.
    def allocate(*args, **kwargs):
        pytest.fail("an array was allocated")

    monkeypatch.setattr(np.random, "default_rng", allocate)
    with pytest.raises(ConfigurationError, match=message):
        build_baseline(3, 2, BaselineConfig(hidden_widths))


def test_baseline_rejects_non_finite_features():
    net = build_baseline(3, 2, BaselineConfig((5,)))
    features = np.zeros((4, 3))
    features[1, 2] = np.nan
    ds = Dataset(features=features, labels=np.array([0, 1, 0, 1]),
                 feature_names=["a", "b", "c"], class_count=2)
    with pytest.raises(ValueError, match="features must be finite"):
        evaluate(net, ds)


def test_baseline_forward_checks_feature_width():
    # The baseline shares the logic network's forward, shape check included.
    net = build_baseline(3, 2, BaselineConfig((5,)))
    with pytest.raises(ShapeMismatchError):
        net.forward(np.zeros((2, 4)))
    classes, scores = net.classify(np.zeros(3))
    assert classes.shape == (1,) and scores.shape == (1, 1)


def test_baseline_learns_conjunction_data():
    ds = and_dataset(rows=400, seed=10)
    test = and_dataset(rows=400, seed=110)
    net = build_baseline(3, 2, BaselineConfig.mirroring(3, hidden_width=4))
    result = train(net, ds, quick_config(max_epochs=80, learning_rate=0.05))
    rate = evaluate(result.network, test).misclassification_rate
    assert rate <= 0.08


def test_baseline_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    net = build_baseline(3, 3, BaselineConfig((5,), seed=12))
    x = rng.uniform(-0.9, 0.9, size=(6, 3))
    r = rng.normal(size=(6, 3))
    out, acts = net.forward(x)
    grad_w, grad_b = net.backward(acts, r)
    h = 1e-6
    for layer, pos in ((0, (2, 1)), (1, (0, 3))):
        saved = net.weights[layer][pos]
        net.weights[layer][pos] = saved + h
        up = float(np.sum(net.forward(x)[0] * r))
        net.weights[layer][pos] = saved - h
        down = float(np.sum(net.forward(x)[0] * r))
        net.weights[layer][pos] = saved
        fd = (up - down) / (2 * h)
        assert grad_w[layer][pos] == pytest.approx(fd, abs=1e-5, rel=1e-4)
    saved = net.biases[0][1]
    net.biases[0][1] = saved + h
    up = float(np.sum(net.forward(x)[0] * r))
    net.biases[0][1] = saved - h
    down = float(np.sum(net.forward(x)[0] * r))
    net.biases[0][1] = saved
    assert grad_b[0][1] == pytest.approx((up - down) / (2 * h),
                                         abs=1e-5, rel=1e-4)


def test_fuzzy_and_baseline_see_identical_validation_split():
    # Same config seed means the same train/validation partition for both
    # model families; the comparison protocol depends on it.
    ds = and_dataset(rows=200, seed=13)
    seen = []

    class Probe:
        class_count = 2
        feature_count = 3
        norm_low = None
        norm_high = None

        def bump_version(self):
            pass

        def penalty(self):
            return 0.0

        def step(self, grads, learning_rate, regularization):
            pass

        def copy_parameters(self):
            return ()

        def restore_parameters(self, params):
            pass

        def classify(self, features):
            return np.zeros(features.shape[0], dtype=np.intp), None

        def normalize(self, features):
            return features

        def prepare(self, rows, batch=None):
            return rows

        def forward_normalized(self, rows):
            seen.append(rows.shape[0])
            raise TrainingDivergedError("stop")

    for _ in range(2):
        with pytest.raises(TrainingDivergedError):
            train(Probe(), ds, quick_config(batch_size=1000))
    assert seen[0] == seen[1]


def test_train_and_cross_validate_fit_the_dense_baseline():
    ds = and_dataset(rows=90, seed=16)
    build = lambda: build_baseline(3, 2, BaselineConfig((4,), seed=16))
    result = train(build(), ds, quick_config(max_epochs=5))
    assert isinstance(result.network, DenseTanhNet) and result.epochs_run == 5
    # The default train_fn fits whichever model build_model returns.
    cv = cross_validate(ds, 3, build, quick_config(max_epochs=5))
    assert isinstance(cv, CrossValResult) and len(cv.fold_metrics) == 3
    assert sum(m.count for m in cv.fold_metrics) == ds.row_count


# ---------------------------------------------- per-split part-0 input


def reference_fit(model, dataset, config, penalty, update):
    """The training loop spelt out on the public per-batch forward: each
    minibatch's normalized rows are prepared on their own and run through
    ``forward_normalized``.  Returns the log; the model ends on its best
    snapshot."""
    model.norm_low, model.norm_high = fit_normalization(dataset.features)
    model.bump_version()
    train_part, val_part = split_dataset(dataset, config.validation_fraction,
                                         seed=config.seed)
    rows = model.normalize(train_part.features)
    targets = _targets(train_part.labels, model.class_count)
    rng = np.random.default_rng(config.seed)
    best_rate, best_params, stall, log = math.inf, model.copy_parameters(), 0, []
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(rows.shape[0])
        losses = []
        for start in range(0, rows.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            outputs, cache = model.forward_normalized(model.prepare(rows[idx]))
            err = model.scores(outputs) - targets[idx]
            losses.append(float(np.mean(err ** 2))
                          + config.l1_regularization * penalty(model))
            update(model, model.backward(cache, err / err.size), config)
        val_rate = evaluate(model, val_part).misclassification_rate
        log.append((epoch, float(np.mean(losses)), val_rate))
        if val_rate <= best_rate:
            stall = 0 if val_rate < best_rate else stall + 1
            best_rate, best_params = val_rate, model.copy_parameters()
        else:
            stall += 1
        if stall >= config.patience:
            break
    model.restore_parameters(best_params)
    return log


def reference_logic_update(net, grads, config):
    lr = config.learning_rate
    for w, a, g_w, g_a in zip(net.selectors, net.alphas, grads.selectors, grads.alphas):
        w -= lr * (g_w + config.l1_regularization * np.sign(w))
        a -= lr * g_a
        np.clip(a, 0.0, 1.0, out=a)
    net.bump_version()


def reference_dense_update(net, grads, config):
    grad_w, grad_b = grads
    lr = config.learning_rate
    for layer in range(len(net.weights)):
        w = net.weights[layer]
        w -= lr * (grad_w[layer] + 2.0 * config.l1_regularization * w)
        net.biases[layer] -= lr * grad_b[layer]
    net.bump_version()


DATA_LEVELS = {"dense": None, "signed": (-1.0, 1.0), "three": (-1.0, 0.0, 1.0)}


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["logic", "baseline"]),
       data=st.sampled_from(sorted(DATA_LEVELS)),
       classes=st.sampled_from([2, 3]),
       parts=st.integers(min_value=1, max_value=3),
       batch=st.sampled_from([5, 9, 16]),
       rows=st.integers(min_value=40, max_value=90),
       seed=st.integers(min_value=0, max_value=2**16))
# Table data whose last minibatch is short, and the baseline.
@example(family="logic", data="signed", classes=2, parts=1, batch=16, rows=60, seed=1)
@example(family="logic", data="three", classes=3, parts=3, batch=16, rows=90, seed=2)
@example(family="baseline", data="dense", classes=3, parts=1, batch=9, rows=50, seed=3)
def test_training_matches_the_per_batch_reference_bit_for_bit(family, data, classes, parts,
                                                             batch, rows, seed):
    rng = np.random.default_rng(seed)
    features = 4
    levels = DATA_LEVELS[data]
    x = (rng.uniform(-3.0, 3.0, size=(rows, features)) if levels is None
         else np.asarray(levels)[rng.integers(len(levels), size=(rows, features))])
    ds = Dataset(features=x, labels=rng.permutation(np.arange(rows) % classes),
                 feature_names=[f"x{i}" for i in range(features)], class_count=classes)
    config = TrainConfig(learning_rate=0.1, l1_regularization=0.002, max_epochs=6,
                         patience=2, batch_size=batch, seed=seed)
    if family == "logic":
        def build():
            return build_network(features, classes, NetworkConfig(
                hidden_width=4, logic_parts=parts, seed=seed))
        penalty = lambda net: float(sum(np.sum(np.abs(w)) for w in net.selectors))
        update = reference_logic_update
    else:
        def build():
            return build_baseline(features, classes, BaselineConfig.mirroring(features, 4))
        penalty = lambda net: float(sum(np.sum(w ** 2) for w in net.weights))
        update = reference_dense_update
    expected, model = build(), build()
    expected_log = reference_fit(expected, ds, config, penalty, update)
    result = train(model, ds, config)
    assert result.log == expected_log
    for got, want in zip(sum(model.copy_parameters(), []),
                         sum(expected.copy_parameters(), [])):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_table_levels_are_found_once_per_train_call(monkeypatch):
    # Each np.unique of raw feature rows finds one prepared input's
    # levels: the training split's and the validation split's, once each.
    features = 5
    unique, found = np.unique, []

    def counting_unique(arr, *args, **kwargs):
        if np.ndim(arr) == 2 and np.shape(arr)[1] == features:
            found.append(np.shape(arr)[0])
        return unique(arr, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    x = np.random.default_rng(4).choice([-1.0, 1.0], size=(200, features))
    ds = Dataset(features=x, labels=(x[:, 0] > 0).astype(np.intp),
                 feature_names=[f"x{i}" for i in range(features)], class_count=2)
    net = build_network(features, 2, NetworkConfig(hidden_width=4, logic_parts=2))
    result = train(net, ds, TrainConfig(max_epochs=3, patience=3))
    assert result.epochs_run == 3
    assert found == [170, 30]


def test_part_0_operands_are_gathered_once_per_split(monkeypatch):
    # Part 0's operand sums depend on the data alone: the training and
    # validation splits are each gathered once, not once per minibatch.
    operands, calls = PairingTable.operands, []

    def counting(self, unit):
        calls.append(unit.shape[0])
        return operands(self, unit)

    monkeypatch.setattr(PairingTable, "operands", counting)
    result = train(small_net(logic_parts=1), and_dataset(rows=200, seed=3),
                   quick_config(max_epochs=3, patience=3))
    assert result.epochs_run == 3
    assert calls == [170, 30]


# ------------------------------------------------------ cross-validation


def test_cross_validate_folds_cover_everything():
    ds = and_dataset(rows=120, seed=14)
    calls = []

    def build_model():
        return small_net(seed=14)

    def fake_train(model, train_set, config):
        calls.append(train_set.row_count)
        from softlogic.training import TrainResult
        return TrainResult(model, [], 0, 0.0, 0)

    result = cross_validate(ds, 4, build_model, quick_config(),
                            train_fn=fake_train)
    assert len(result.fold_metrics) == 4
    assert sum(120 - c for c in calls) == 120    # test folds partition rows
    assert result.mean_rate == pytest.approx(
        np.mean([m.misclassification_rate for m in result.fold_metrics]))


def test_cross_validate_requires_enough_members():
    ds = Dataset(features=np.zeros((7, 2)),
                 labels=np.array([0, 0, 0, 0, 0, 1, 1]),
                 feature_names=["a", "b"], class_count=2)
    with pytest.raises(ValueError, match="stratification"):
        cross_validate(ds, 3, lambda: None, quick_config())
    with pytest.raises(ValueError, match="folds"):
        cross_validate(ds, 1, lambda: None, quick_config())


@pytest.mark.parametrize("folds", [3.0, True, "3", None])
def test_cross_validate_requires_an_integer_fold_count(folds):
    ds = and_dataset(rows=60, seed=14)
    with pytest.raises(ValueError, match="folds must be an integer"):
        cross_validate(ds, folds, lambda: pytest.fail("a model was built"), quick_config())


def test_cross_validate_deterministic():
    ds = and_dataset(rows=90, seed=15)
    run = lambda: cross_validate(ds, 3, lambda: small_net(seed=15),
                                 quick_config(max_epochs=5))
    assert run().mean_rate == run().mean_rate


# ------------------------------------------------- degenerate library calls


@st.composite
def degenerate_calls(draw):
    """A tiny dataset (maybe one class, maybe constant columns), a model
    builder with widths or part counts up to 10^9, a short training config
    with an extreme validation fraction, and a fold count."""
    rows, width, classes = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    cells = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
    if draw(st.booleans()):     # every column constant
        features = np.tile(draw(st.lists(cells, min_size=width, max_size=width)), (rows, 1))
    else:
        features = np.array(draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                                          min_size=rows, max_size=rows)))
    labels = draw(st.lists(st.integers(0, classes - 1) if draw(st.booleans()) else st.just(0),
                           min_size=rows, max_size=rows))
    dataset = Dataset(features, labels, [f"x{i}" for i in range(width)], classes)
    sizes = st.sampled_from([1, 2, 3, 10, 10**9])
    if draw(st.booleans()):
        config = NetworkConfig(hidden_width=max(2, draw(sizes)), logic_parts=draw(sizes))
        build = lambda: build_network(width, classes, config)
    else:
        config = BaselineConfig(tuple(draw(st.lists(sizes, max_size=3))))
        build = lambda: build_baseline(width, classes, config)
    train_config = TrainConfig(
        learning_rate=draw(st.sampled_from([0.01, 1.0, 1e6])),
        max_epochs=draw(st.integers(1, 3)),
        patience=draw(st.integers(1, 3)),
        batch_size=draw(st.sampled_from([1, 4, 16])),
        validation_fraction=draw(st.sampled_from([1e-9, 0.01, 0.5, 0.99, 1 - 1e-9])),
    )
    return dataset, build, train_config, draw(st.integers(2, 3))


def documented(call):
    """``call()``'s result, or None after a documented error: a
    ``ValueError`` (subclasses included) or a divergence.  Any other
    exception fails the test, and so does any warning but the one for a
    class with a single instance; RuntimeWarnings are errors, as in tier-1."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except (ValueError, TrainingDivergedError):
            return None
        finally:
            assert all(w.category is UserWarning and "single instance" in str(w.message)
                       for w in caught), [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(degenerate_calls())
def test_library_entry_points_end_in_a_result_or_a_documented_error(case):
    dataset, build, config, folds = case
    model = documented(build)
    if model is not None:
        result = documented(lambda: train(model, dataset, config))
        documented(lambda: evaluate(result.network if result else model, dataset))
    documented(lambda: cross_validate(dataset, folds, build, config))


# ---------------------------------------------------------------- logs


def test_write_training_log_format(tmp_path):
    path = tmp_path / "log.csv"
    write_training_log([(1, 0.25, 0.5), (2, 0.125, 0.25)], path)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["epoch", "train_loss", "val_misclassification"]
    assert rows[1] == ["1", "0.25", "0.5"]
    assert rows[2] == ["2", "0.125", "0.25"]
