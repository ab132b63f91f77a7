"""Network structure, forward semantics, gradients and persistence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softlogic.network import (
    ConfigurationError,
    LogicNetwork,
    NetworkConfig,
    PairingTable,
    ShapeMismatchError,
    StaleCacheError,
    build_network,
    fit_normalization,
    serialize_model,
)
from softlogic.operators import SquashParams


def toy_net(feature_count=4, class_count=2, **kwargs):
    defaults = dict(hidden_width=4, logic_parts=2, seed=7)
    defaults.update(kwargs)
    return build_network(feature_count, class_count, NetworkConfig(**defaults))


# ------------------------------------------------------------ pairings


def reference_items(width):
    """The model-file pairing order, spelled out: every (i, j) with i < j
    lexicographically, then every input against true, then against false."""
    return ([["pair", i, j] for i in range(width) for j in range(i + 1, width)]
            + [["true", i] for i in range(width)]
            + [["false", i] for i in range(width)])


def test_standard_pairing_order():
    for width in range(1, 7):
        assert PairingTable.standard(width).to_json() == reference_items(width)
    # Columns 3 and 4 of the augmented input [x, +1, -1] are true and false.
    table = PairingTable.standard(3)
    assert table.left_idx.tolist() == [0, 0, 1, 0, 1, 2, 0, 1, 2]
    assert table.right_idx.tolist() == [1, 2, 2, 3, 3, 3, 4, 4, 4]


def test_pairing_count_formula():
    for n in (2, 3, 5, 8):
        assert PairingTable.standard(n).width_out == n * (n - 1) // 2 + 2 * n


def test_pairing_validation():
    for left, right in [
        ([2], [1]),         # a pair out of order
        ([1], [1]),         # an input paired with itself
        ([-1], [3]),
        ([0], [5]),         # past the false column
        ([3], [4]),         # true against false reads no input
        ([0, 1], [1]),      # index arrays of different lengths
    ]:
        with pytest.raises(ConfigurationError):
            PairingTable(3, left, right)
    with pytest.raises(ConfigurationError):
        PairingTable.standard(0)


def test_pairing_table_operands_inject_signed_constants():
    table = PairingTable.standard(2)
    x = np.array([[0.4, -0.6]])
    left, right = table.operands(x)
    # Slots: (0,1), T0, T1, F0, F1.
    assert left.tolist() == [[0.4, 0.4, -0.6, 0.4, -0.6]]
    assert right.tolist() == [[-0.6, 1.0, 1.0, -1.0, -1.0]]


@st.composite
def pairing_layers(draw):
    """A width, a model-file pairing list in any order with constants mixed
    in, and inputs plus slot gradients with one to three leading axes."""
    width = draw(st.integers(min_value=2, max_value=8))
    pool = reference_items(width)
    items = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3 * len(pool)))
    lead = tuple(draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, size=lead + (width,))
    g = rng.normal(size=lead + (len(items),))
    return width, items, x, g


def scatter_reference(width, items, g):
    out = np.zeros(g.shape[:-1] + (width,))
    for s, (kind, *indices) in enumerate(items):
        # A constant operand has no input to reach.
        for i in indices:
            out[..., i] += g[..., s]
    return out


@given(pairing_layers())
def test_pairing_table_matches_per_slot_reference(layer):
    width, items, x, g = layer
    table = PairingTable.from_json(width, items)
    assert table.to_json() == items
    left, right = table.operands(x)
    constant = {"true": 1.0, "false": -1.0}
    for s, (kind, i, *partner) in enumerate(items):
        assert np.array_equal(left[..., s], x[..., i])
        expected = x[..., partner[0]] if kind == "pair" else np.full(x.shape[:-1], constant[kind])
        assert np.array_equal(right[..., s], expected)
    assert np.allclose(table.scatter(g), scatter_reference(width, items, g),
                       rtol=0.0, atol=1e-12)
    # Gradient on constant slots alone reaches only their left inputs.
    only_constants = g * np.array([kind != "pair" for kind, *_ in items])
    assert np.allclose(table.scatter(only_constants),
                       scatter_reference(width, items, only_constants),
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("pairing", [
    ["pair", 0, 3], ["pair", 1, 4], ["true", 3], ["false", -1],
])
def test_pairing_table_rejects_indices_outside_its_inputs(pairing):
    # Index 3 and 4 would read the constant columns of [x, +1, -1].
    with pytest.raises(ConfigurationError):
        PairingTable.from_json(3, [["pair", 0, 1], pairing])


@pytest.mark.parametrize("item", [
    ["pair", 2, 1], ["pair", 1], ["pair", 1, None], ["true", 1, 2], ["xor", 0, 1],
    ["pair", 0.5, 1], ["false", True], [], "pair",
])
def test_pairing_json_rejects_malformed_items(item):
    with pytest.raises(ConfigurationError):
        PairingTable.from_json(3, [["pair", 0, 1], item])


def test_pairing_json_round_trip():
    for width in (1, 3, 5):
        table = PairingTable.standard(width)
        again = PairingTable.from_json(width, table.to_json())
        assert again.left_idx.tolist() == table.left_idx.tolist()
        assert again.right_idx.tolist() == table.right_idx.tolist()


# ----------------------------------------------------------- structure


def test_layer_widths_match_slot_arithmetic():
    net = build_network(4, 2, NetworkConfig(hidden_width=8, logic_parts=2))
    widths = [(table.width_in, table.width_out, alphas.shape, selector.shape)
              for table, alphas, selector
              in zip(net.pairing_tables, net.alphas, net.selectors)]
    assert widths == [
        (4, 14, (14,), (8, 14)),       # C(4,2) + 2*4 slots onto hidden width 8
        (8, 44, (44,), (1, 44)),       # C(8,2) + 2*8 slots onto one output
    ]
    assert net.output_width == 1


def test_output_width_binary_vs_multiclass():
    assert build_network(3, 2, NetworkConfig()).output_width == 1
    assert build_network(3, 5, NetworkConfig()).output_width == 5


def test_build_network_rejects_degenerate_shapes():
    with pytest.raises(ConfigurationError):
        build_network(1, 2, NetworkConfig())
    with pytest.raises(ConfigurationError):
        build_network(4, 1, NetworkConfig())
    with pytest.raises(ConfigurationError):
        build_network(4, 2, NetworkConfig(), feature_names=["a", "b"])


def test_build_network_respects_slot_cap():
    with pytest.raises(ConfigurationError):
        build_network(4, 2, NetworkConfig(max_pairing_slots=10))


def test_network_config_validation():
    with pytest.raises(ConfigurationError):
        NetworkConfig(hidden_width=1)
    with pytest.raises(ConfigurationError):
        NetworkConfig(logic_parts=0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(alpha_init=(0.8, 0.2))


def test_build_network_seeded_determinism():
    a = toy_net(seed=3)
    b = toy_net(seed=3)
    c = toy_net(seed=4)
    for wa, wb in zip(a.selectors, b.selectors):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.selectors, c.selectors))


def test_initial_alphas_inside_init_range():
    net = build_network(5, 2, NetworkConfig(alpha_init=(0.4, 0.6), seed=1))
    for part in net.alphas:
        assert np.all(part >= 0.4) and np.all(part <= 0.6)


# ------------------------------------------------------- normalization


def test_fit_normalization_bounds():
    feats = np.array([[0.0, 5.0], [10.0, 5.0], [4.0, 7.0]])
    low, high = fit_normalization(feats)
    assert low.tolist() == [0.0, 5.0]
    assert high.tolist() == [10.0, 7.0]


def test_normalize_maps_endpoints_and_clamps():
    net = toy_net(feature_count=2, logic_parts=1)
    net.norm_low = np.array([0.0, -2.0])
    net.norm_high = np.array([10.0, 2.0])
    z = net.normalize(np.array([[0.0, -2.0], [10.0, 2.0], [5.0, 0.0],
                                [-99.0, 99.0]]))
    assert z[0].tolist() == [-1.0, -1.0]
    assert z[1].tolist() == [1.0, 1.0]
    assert z[2].tolist() == [0.0, 0.0]
    assert z[3].tolist() == [-1.0, 1.0]   # out-of-range inputs clamp


def test_normalize_a_feature_far_outside_wide_bounds_without_overflow():
    net = toy_net(feature_count=2, logic_parts=1)
    net.norm_low = np.array([0.0, -1e308])
    net.norm_high = np.array([1.0, 1e307])
    z = net.normalize(np.array([[1e308, -1e308], [-1e308, 1e308], [0.5, 0.0]]))
    assert z[:, 0].tolist() == [1.0, -1.0, 0.0]
    assert z[:2, 1].tolist() == [-1.0, 1.0]


def test_fit_normalization_rejects_a_range_that_overflows_a_float():
    with pytest.raises(ValueError, match="overflows"):
        fit_normalization(np.array([[-1e308, 0.0], [1e308, 1.0]]))


def test_normalize_degenerate_feature_goes_to_zero():
    net = toy_net(feature_count=2, logic_parts=1)
    net.norm_low = np.array([3.0, 0.0])
    net.norm_high = np.array([3.0, 1.0])
    z = net.normalize(np.array([[3.0, 0.5], [7.0, 0.5]]))
    assert z[:, 0].tolist() == [0.0, 0.0]


# --------------------------------------------------------- forward


def gate_slot_value(net, signed_inputs, alpha, slot=0):
    """Signed output of one first-layer gate for fixed operands."""
    net.alphas[0][slot] = alpha
    net.bump_version()
    x = np.asarray(signed_inputs, dtype=float)[None, :]
    left, right = net.pairing_tables[0].operands(x)
    t = (left + 1) / 2 + (right + 1) / 2 - net.alphas[0]
    from softlogic.operators import squash
    return float(2 * squash(t[0, slot], net.config.squash) - 1)


def test_gate_values_at_reference_points():
    net = toy_net(feature_count=2, logic_parts=1)
    # Slot 0 couples features 0 and 1.
    assert gate_slot_value(net, [0.0, 0.0], 0.5) == pytest.approx(0.0, abs=1e-9)
    assert gate_slot_value(net, [1.0, -1.0], 0.5) == pytest.approx(0.0, abs=1e-9)
    # Saturated conjunction sits within the squash corner error of +1.
    assert gate_slot_value(net, [1.0, 1.0], 1.0) == pytest.approx(1.0, abs=0.02)
    assert gate_slot_value(net, [-1.0, -1.0], 0.0) == pytest.approx(-1.0, abs=0.02)


def test_forward_shapes_and_single_row_convenience():
    net = toy_net(feature_count=3, class_count=3)
    out, cache = net.forward(np.zeros((5, 3)))
    assert out.shape == (5, 3)
    out1, _ = net.forward(np.zeros(3))
    assert out1.shape == (1, 3)
    wrapped, _ = net.forward(np.zeros((1, 3)))
    assert np.array_equal(out1, wrapped)
    assert np.allclose(out1[0], out[0])


def test_forward_rejects_wrong_width():
    net = toy_net(feature_count=3)
    with pytest.raises(ShapeMismatchError):
        net.forward(np.zeros((2, 4)))
    with pytest.raises(ShapeMismatchError):
        net.forward(np.zeros((2, 3, 1)))


def test_outputs_closed_in_signed_interval():
    rng = np.random.default_rng(0)
    net = toy_net(feature_count=4, logic_parts=3)
    # Scale weights up so clamping actually engages.
    for w in net.selectors:
        w *= 40.0
    net.bump_version()
    out, cache = net.forward(rng.uniform(-50, 50, size=(64, 4)))
    assert np.all(out >= -1.0) and np.all(out <= 1.0)
    assert np.all(np.abs(cache.outputs) <= 1.0)
    # Between parts the clamped selector outputs pass through tanh.
    for remapped in cache.tanh_out:
        assert np.all(np.abs(remapped) <= np.tanh(1.0))
    for gate in cache.gate_out:
        assert np.all(np.abs(gate) <= 1.0 + 1e-9)


def test_permuting_features_permutes_consistently():
    # Relabeling inputs and remapping slots accordingly leaves outputs
    # unchanged: the pairing bookkeeping has no hidden positional bias.
    rng = np.random.default_rng(5)
    n = 3
    net = toy_net(feature_count=n, logic_parts=1)
    perm = np.array([2, 0, 1])     # sigma(i) = perm[i]

    slots = [tuple(item) for item in reference_items(n)]
    slot_index = {item: s for s, item in enumerate(slots)}

    def mapped_slot(item):
        kind, *indices = item
        return slot_index[(kind, *sorted(int(perm[i]) for i in indices))]

    other = toy_net(feature_count=n, logic_parts=1)
    for s, item in enumerate(slots):
        other.alphas[0][mapped_slot(item)] = net.alphas[0][s]
        other.selectors[0][:, mapped_slot(item)] = net.selectors[0][:, s]
    other.bump_version()

    x = rng.uniform(-1, 1, size=(16, n))
    xp = np.empty_like(x)
    xp[:, perm] = x
    out, _ = net.forward(x)
    out_p, _ = other.forward(xp)
    assert np.allclose(out, out_p, atol=1e-12)


def test_decide_binary_threshold_and_tie():
    net = toy_net(feature_count=2, class_count=2, logic_parts=1)
    outputs = np.array([[-0.2], [0.0], [0.4]])
    assert net.scores(outputs)[:, 0].tolist() == [0.4, 0.5, 0.7]
    assert net.decide(outputs).tolist() == [0, 1, 1]   # tie at 1/2 goes up


def test_decide_multiclass_first_max():
    net = toy_net(feature_count=2, class_count=3, logic_parts=1)
    outputs = np.array([[0.3, 0.3, 0.1], [0.1, 0.2, 0.9]])
    assert net.decide(outputs).tolist() == [0, 2]


# -------------------------------------------------------- gradients


def numeric_alpha_grad(net, x, weights, p, idx, h=1e-5):
    saved = net.alphas[p][idx]
    net.alphas[p][idx] = saved + h
    net.bump_version()
    up = float(np.sum(net.forward(x)[0] * weights))
    net.alphas[p][idx] = saved - h
    net.bump_version()
    down = float(np.sum(net.forward(x)[0] * weights))
    net.alphas[p][idx] = saved
    net.bump_version()
    return (up - down) / (2 * h)


def numeric_selector_grad(net, x, weights, p, pos, h=1e-5):
    saved = net.selectors[p][pos]
    net.selectors[p][pos] = saved + h
    net.bump_version()
    up = float(np.sum(net.forward(x)[0] * weights))
    net.selectors[p][pos] = saved - h
    net.bump_version()
    down = float(np.sum(net.forward(x)[0] * weights))
    net.selectors[p][pos] = saved
    net.bump_version()
    return (up - down) / (2 * h)


def test_backward_matches_finite_differences_spotcheck():
    rng = np.random.default_rng(11)
    net = toy_net(feature_count=3, class_count=2, logic_parts=2)
    x = rng.uniform(-0.9, 0.9, size=(8, 3))
    weights = rng.normal(size=(8, 1))
    out, cache = net.forward(x)
    grads = net.backward(cache, weights)
    for p, idx in ((0, 0), (0, 5), (1, 2)):
        fd = numeric_alpha_grad(net, x, weights, p, idx)
        assert grads.alphas[p][idx] == pytest.approx(fd, abs=1e-6, rel=1e-4)
    for p, pos in ((0, (1, 3)), (1, (0, 2))):
        fd = numeric_selector_grad(net, x, weights, p, pos)
        assert grads.selectors[p][pos] == pytest.approx(fd, abs=1e-6, rel=1e-4)


def test_backward_rejects_stale_cache():
    net = toy_net(feature_count=2)
    out, cache = net.forward(np.zeros((1, 2)))
    net.bump_version()
    with pytest.raises(StaleCacheError):
        net.backward(cache, np.ones_like(out))


def test_backward_rejects_wrong_gradient_shape():
    net = toy_net(feature_count=2)
    out, cache = net.forward(np.zeros((3, 2)))
    with pytest.raises(ShapeMismatchError):
        net.backward(cache, np.ones((2, 1)))


def test_restore_parameters_invalidates_caches():
    net = toy_net(feature_count=2)
    snap = net.copy_parameters()
    out, cache = net.forward(np.zeros((1, 2)))
    net.restore_parameters(snap)
    with pytest.raises(StaleCacheError):
        net.backward(cache, np.ones_like(out))


def test_copy_parameters_is_a_deep_snapshot():
    net = toy_net(feature_count=2)
    snap = net.copy_parameters()
    before = snap[0][0].copy()
    net.alphas[0][:] = 0.0
    assert np.array_equal(snap[0][0], before)


# ---------------------------------------------------------- gate tables


def run_dense(fn, *args):
    """``fn(*args)`` with part 0's gate table turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LogicNetwork, "_gate_table", lambda self, x: None)
        return fn(*args)


def forward_backward(net, x, grad):
    out, cache = net.forward_normalized(x)
    return out, cache, net.backward(cache, grad)


@st.composite
def few_valued_batches(draw):
    """A network and a batch over 2-4 levels in [-1, 1] whose row count
    straddles the table threshold, zeros of either sign mixed in."""
    level_count = draw(st.integers(min_value=2, max_value=4))
    levels = draw(st.lists(
        st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                  st.floats(min_value=-1.0, max_value=1.0)),
        min_size=level_count, max_size=level_count, unique=True))
    rows = (level_count + 1) ** 2 + draw(st.integers(min_value=-3, max_value=3))
    features = draw(st.integers(min_value=2, max_value=5))
    net = toy_net(feature_count=features,
                  class_count=draw(st.sampled_from([2, 3])),
                  logic_parts=draw(st.integers(min_value=1, max_value=3)),
                  seed=draw(st.integers(min_value=0, max_value=2**16)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = np.asarray(levels)[rng.integers(level_count, size=(rows, features))]
    x[(x == 0.0) & (rng.random(x.shape) < 0.5)] = -0.0
    grad = rng.normal(size=(rows, net.output_width))
    grad[rng.random(grad.shape) < 0.2] = -0.0
    return net, x, grad


def assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@given(few_valued_batches())
def test_gate_table_matches_dense_path_bit_for_bit(batch):
    net, x, grad = batch
    out, cache, grads = forward_backward(net, x, grad)
    dense_out, dense, dense_grads = run_dense(forward_backward, net, x, grad)
    n = np.unique(x).size
    assert (cache.gate_codes[0] is not None) == ((n + 1) ** 2 <= x.shape[0])
    assert all(codes is None for codes in cache.gate_codes[1:])
    assert_same_bits(out, dense_out)
    for p in range(len(net.pairing_tables)):
        assert_same_bits(cache.gate_out[p], dense.gate_out[p])
        assert cache.gate_out[p].flags.f_contiguous == dense.gate_out[p].flags.f_contiguous
        assert_same_bits(cache.sel_pre[p], dense.sel_pre[p])
        assert_same_bits(grads.alphas[p], dense_grads.alphas[p])
        assert_same_bits(grads.selectors[p], dense_grads.selectors[p])


def test_continuous_rows_keep_per_row_gate_arguments():
    net = toy_net(feature_count=4)
    _, cache = net.forward(np.random.default_rng(1).uniform(-1, 1, size=(64, 4)))
    assert cache.gate_pre[0].shape == (64, net.alphas[0].size)
    assert cache.gate_codes == [None, None]


@pytest.mark.parametrize("rows", [16, 17, 100])
def test_signed_binary_rows_get_a_three_sum_table(rows):
    # Operands of +-1 inputs and the constants sum to 0, 1 or 2 on [0, 1].
    net = toy_net(feature_count=4)
    x = np.random.default_rng(rows).choice([-1.0, 1.0], size=(rows, 4))
    x[0] = (-1.0, 1.0, -1.0, 1.0)
    _, cache = net.forward(x)
    slots = net.alphas[0].size
    assert cache.gate_pre[0].shape == (3, slots)
    assert cache.gate_codes[0].shape == (slots, rows)
    assert cache.gate_out[0].shape == (rows, slots)
    assert cache.gate_codes[1] is None


@pytest.mark.parametrize("rows", [1, 3])
def test_few_rows_stay_dense(rows):
    net = toy_net(feature_count=4)
    _, cache = net.forward(np.ones((rows, 4)))
    assert cache.gate_pre[0].shape == (rows, net.alphas[0].size)
    assert cache.gate_codes[0] is None


def test_nan_feature_raises_the_same_error_on_either_path():
    net = toy_net(feature_count=4)
    x = np.random.default_rng(2).choice([-1.0, 1.0], size=(32, 4))
    x[-1, 2] = np.nan
    messages = []
    for forward in (net.forward, lambda rows: run_dense(net.forward, rows)):
        with pytest.raises(ValueError) as caught:
            forward(x)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == "x must be finite"
    # The table path was the one taken: the same batch without the NaN gets one.
    x[-1, 2] = 1.0
    assert net.forward(x)[1].gate_codes[0] is not None


# ------------------------------------------------------- persistence


def test_save_load_round_trip_is_bit_exact(tmp_path):
    net = toy_net(feature_count=4, class_count=3)
    net.norm_low = np.array([0.1, -1.7, 0.0, 2.0 / 3.0])
    net.norm_high = np.array([1.9, 2.3, 1.0, 7.0 / 3.0])
    path = tmp_path / "model.json"
    net.save(path)
    loaded = LogicNetwork.load(path)
    assert serialize_model(loaded) == path.read_text()
    x = np.random.default_rng(2).uniform(-2, 3, size=(10, 4))
    a, _ = net.forward(x)
    b, _ = loaded.forward(x)
    assert np.array_equal(a, b)


def test_names_travel_with_the_model(tmp_path):
    net = build_network(3, 2, NetworkConfig(hidden_width=4),
                        feature_names=["age", "mass", "dose"],
                        label_names=["sick", "well"])
    path = tmp_path / "model.json"
    net.save(path)
    loaded = LogicNetwork.load(path)
    assert loaded.feature_names == ["age", "mass", "dose"]
    assert loaded.label_names == ["sick", "well"]


def test_build_network_validates_label_names_length():
    with pytest.raises(ConfigurationError):
        build_network(3, 2, NetworkConfig(), label_names=["only-one"])


def test_from_dict_rejects_foreign_payloads():
    net = toy_net(feature_count=2)
    good = net.to_dict()
    bad = dict(good, format="something-else")
    with pytest.raises(ValueError):
        LogicNetwork.from_dict(bad)
    bad = dict(good, format_version=99)
    with pytest.raises(ValueError):
        LogicNetwork.from_dict(bad)


def test_from_dict_validates_widths():
    net = toy_net(feature_count=3)
    data = net.to_dict()
    data["alphas"][0] = data["alphas"][0][:-1]
    with pytest.raises(ConfigurationError):
        LogicNetwork.from_dict(data)


def test_validate_catches_selector_chain_break():
    net = toy_net(feature_count=3)
    net.selectors[0] = net.selectors[0][:, :-1]
    with pytest.raises(ConfigurationError):
        net.validate()


def test_serialized_form_is_format_v2_json_without_layers(tmp_path):
    net = toy_net(feature_count=2, class_count=2)
    data = json.loads(serialize_model(net))
    assert data["format_version"] == 2
    assert "layers" not in data
    assert data["class_count"] == 2


def test_squash_params_travel_with_the_model(tmp_path):
    cfg = NetworkConfig(hidden_width=4, squash=SquashParams(smoothness=20.0))
    net = build_network(2, 2, cfg)
    path = tmp_path / "m.json"
    net.save(path)
    assert LogicNetwork.load(path).config.squash.smoothness == 20.0
