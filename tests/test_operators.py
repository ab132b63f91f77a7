"""Operator algebra: crisp identities, smooth surrogates, snapping."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlogic.operators import (
    GeneralOpSpec,
    OperatorKind,
    SquashParams,
    classify_alpha,
    cut,
    gate_crisp,
    gate_smooth,
    gate_smooth_grads,
    general_operator,
    preference,
    squash,
    squash_grad,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# Dyadic rationals keep every sum in the gate algebra exactly
# representable, so crisp identities can be asserted with ==.
dyadic = st.integers(min_value=0, max_value=2**20).map(lambda k: k / 2**20)


# ---------------------------------------------------------------- cut


def test_cut_clamps_and_passes_through():
    assert cut(-3.0) == 0.0
    assert cut(0.0) == 0.0
    assert cut(0.37) == 0.37
    assert cut(1.0) == 1.0
    assert cut(42.0) == 1.0


def test_cut_scalar_in_float_out():
    out = cut(0.5)
    assert isinstance(out, float)
    arr = cut(np.array([-1.0, 0.5, 2.0]))
    assert isinstance(arr, np.ndarray)
    assert arr.tolist() == [0.0, 0.5, 1.0]


def test_cut_rejects_non_finite():
    with pytest.raises(ValueError):
        cut(float("nan"))
    with pytest.raises(ValueError):
        cut(np.array([0.2, float("inf")]))


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_cut_idempotent(x):
    assert cut(cut(x)) == cut(x)


# ------------------------------------------------------------- squash


def test_squash_corner_error_is_log2_over_beta():
    # Worst-case deviation from cut sits at the ramp corners; the exact
    # corner value is (ln 2 - ln(1 + e^-beta)) / beta, which approaches
    # ln(2)/beta from below as beta grows.
    for beta in (10.0, 40.0, 80.0):
        p = SquashParams(smoothness=beta)
        exact = (math.log(2) - math.log1p(math.exp(-beta))) / beta
        assert abs(squash(0.0, p) - exact) < 1e-15
        assert abs(squash(1.0, p) - (1 - exact)) < 1e-15
    assert abs(squash(0.0) - math.log(2) / 80) < 1e-12


def test_squash_converges_to_cut():
    xs = np.linspace(-0.5, 1.5, 401)
    errs = []
    for beta in (10.0, 20.0, 40.0, 80.0):
        p = SquashParams(smoothness=beta)
        errs.append(np.max(np.abs(squash(xs, p) - cut(xs))))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= math.log(2) / 80 + 1e-12


def test_squash_is_self_dual_about_center():
    for t in (0.0, 0.1, 0.5, 0.49, 3.0, 100.0):
        assert abs(squash(0.5 + t) + squash(0.5 - t) - 1.0) < 1e-12


def test_squash_stable_for_huge_arguments():
    # No overflow or NaN even for absurd inputs; benign tail underflow is
    # expected and allowed.
    with np.errstate(over="raise", invalid="raise"):
        assert squash(1e9) == 1.0
        assert squash(-1e9) == 0.0


def test_squash_strictly_increasing_inside_ramp():
    xs = np.linspace(0.05, 0.95, 200)
    ys = squash(xs)
    assert np.all(np.diff(ys) > 0)


@given(st.floats(min_value=-5, max_value=5, allow_nan=False),
       st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_squash_monotone(a, b):
    # Monotone up to rounding noise in the saturated tails.
    lo, hi = sorted((a, b))
    assert squash(lo) <= squash(hi) + 1e-12


@given(st.floats(min_value=-2, max_value=3, allow_nan=False))
def test_squash_within_corner_bound_of_cut(x):
    assert abs(squash(x) - cut(x)) <= math.log(2) / 80 + 1e-12


def test_squash_respects_center_and_width():
    p = SquashParams(center=2.0, ramp_width=4.0, smoothness=80.0)
    assert abs(squash(2.0, p) - 0.5) < 1e-12
    # Corners moved to center +- width/2.
    assert abs(squash(0.0, p) - math.log(2) / (4 * 80)) < 1e-12


def test_squash_params_validation():
    with pytest.raises(ValueError):
        SquashParams(ramp_width=0.0)
    with pytest.raises(ValueError):
        SquashParams(smoothness=-1.0)
    with pytest.raises(ValueError):
        SquashParams(center=float("inf"))


def test_squash_grad_matches_finite_differences():
    h = 1e-6
    for x in (-0.3, 0.1, 0.5, 0.9, 1.3):
        fd = (squash(x + h) - squash(x - h)) / (2 * h)
        assert abs(squash_grad(x) - fd) < 1e-6


@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_squash_grad_nonnegative(x):
    assert squash_grad(x) >= 0.0


def test_squash_grad_far_outside_the_ramp_is_quiet_and_nonnegative():
    # Far arguments would overflow exp(-z) in a naive logistic.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = squash_grad(np.array([-1e6, -1e3, 1e3, 1e6]))
    assert np.all(out >= 0.0)


@pytest.mark.parametrize("params", [SquashParams(), SquashParams(smoothness=20.0)])
def test_squash_grad_matches_two_logistics(params):
    def logistic(z):
        return np.exp(-np.logaddexp(0.0, -z))

    a, lam, beta = params.center, params.ramp_width, params.smoothness
    x = np.linspace(-1.0, 2.0, 3001)
    reference = (logistic(beta * (x - (a - lam / 2))) - logistic(beta * (x - (a + lam / 2)))) / lam
    assert np.max(np.abs(squash_grad(x, params) - reference)) <= 4.5e-16


# ------------------------------------------------------ crisp gates


def test_gate_crisp_named_anchors():
    # Bounded conjunction, disjunction and the averaging middle case.
    assert gate_crisp(0.7, 0.6, 1.0) == pytest.approx(0.3)
    assert gate_crisp(0.7, 0.6, 0.0) == 1.0
    assert gate_crisp(0.7, 0.6, 0.5) == pytest.approx(0.8)
    assert gate_crisp(0.0, 1.0, 0.5) == 0.5


def test_gate_crisp_neutral_elements():
    for x in (0.0, 0.25, 0.5, 0.875, 1.0):
        assert gate_crisp(x, 1.0, 1.0) == x
        assert gate_crisp(x, 0.0, 0.0) == x
        assert gate_crisp(x, 0.5, 0.5) == x


def test_gate_crisp_annihilators():
    for x in (0.0, 0.3, 1.0):
        assert gate_crisp(x, 0.0, 1.0) == 0.0
        assert gate_crisp(x, 1.0, 0.0) == 1.0


@given(dyadic, dyadic, dyadic)
def test_gate_crisp_commutative(x, y, alpha):
    assert gate_crisp(x, y, alpha) == gate_crisp(y, x, alpha)


@given(dyadic, dyadic, dyadic)
def test_gate_crisp_de_morgan_exact(x, y, alpha):
    # 1 - g(x, y; a) == g(1-x, 1-y; 1-a), exact on dyadic operands.
    assert 1.0 - gate_crisp(x, y, alpha) == gate_crisp(1 - x, 1 - y, 1 - alpha)


@given(dyadic, dyadic, dyadic)
def test_gate_crisp_between_bounded_ops(x, y, alpha):
    assert gate_crisp(x, y, 1.0) <= gate_crisp(x, y, alpha) <= gate_crisp(x, y, 0.0)


@given(dyadic, dyadic)
def test_gate_crisp_bracketed_by_min_max(x, y):
    # Bounded conjunction never exceeds min; bounded disjunction never
    # undercuts max.
    assert gate_crisp(x, y, 1.0) <= min(x, y)
    assert gate_crisp(x, y, 0.0) >= max(x, y)


def test_gate_crisp_middle_case_regions():
    # Conjunctive below the midpoint, disjunctive above, mean in between.
    assert gate_crisp(0.2, 0.3, 0.5) == 0.0            # below min(x, y)
    assert gate_crisp(0.8, 0.7, 0.5) == 1.0            # above max(x, y)
    assert gate_crisp(0.25, 0.75, 0.5) == pytest.approx(0.5)


def test_gate_crisp_not_associative_at_middle():
    a = gate_crisp(gate_crisp(0.1, 0.1, 0.5), 0.8, 0.5)
    b = gate_crisp(0.1, gate_crisp(0.1, 0.8, 0.5), 0.5)
    assert a != b


def test_gate_crisp_broadcasts():
    xs = np.array([0.1, 0.9])
    out = gate_crisp(xs, 0.5, 0.5)
    assert out.shape == (2,)
    assert out.tolist() == [pytest.approx(0.1), pytest.approx(0.9)]


# ----------------------------------------------------- smooth gates


@given(dyadic, dyadic, dyadic)
@settings(max_examples=50)
def test_gate_smooth_near_crisp(x, y, alpha):
    assert abs(gate_smooth(x, y, alpha) - gate_crisp(x, y, alpha)) <= (
        math.log(2) / 80 + 1e-12)


@given(dyadic, dyadic, dyadic)
@settings(max_examples=50)
def test_gate_smooth_de_morgan_within_tolerance(x, y, alpha):
    lhs = 1.0 - gate_smooth(x, y, alpha)
    rhs = gate_smooth(1 - x, 1 - y, 1 - alpha)
    assert abs(lhs - rhs) < 1e-10


def test_gate_smooth_grads_match_finite_differences():
    h = 1e-6
    for (x, y, a) in ((0.3, 0.4, 0.5), (0.6, 0.7, 1.0), (0.2, 0.2, 0.0)):
        gx, gy, ga = gate_smooth_grads(x, y, a)
        fx = (gate_smooth(x + h, y, a) - gate_smooth(x - h, y, a)) / (2 * h)
        fa = (gate_smooth(x, y, a + h) - gate_smooth(x, y, a - h)) / (2 * h)
        assert abs(gx - fx) < 1e-6
        assert abs(ga - fa) < 1e-6
        assert gx == gy
        assert ga == -gx


# ------------------------------------------------- general operator


def test_general_operator_recovers_named_gates():
    spec_and = GeneralOpSpec(weights=(1.0, 1.0), neutral=1.0)
    spec_or = GeneralOpSpec(weights=(1.0, 1.0), neutral=0.0)
    spec_uni = GeneralOpSpec(weights=(1.0, 1.0), neutral=0.5)
    for x in (0.0, 0.25, 0.625, 1.0):
        for y in (0.0, 0.5, 0.875):
            assert general_operator([x, y], spec_and) == gate_crisp(x, y, 1.0)
            assert general_operator([x, y], spec_or) == gate_crisp(x, y, 0.0)
            assert general_operator([x, y], spec_uni) == gate_crisp(x, y, 0.5)


def test_general_operator_negation():
    spec = GeneralOpSpec(weights=(-1.0,), neutral=0.5)
    for x in (0.0, 0.25, 0.5, 1.0):
        assert general_operator([x], spec) == 1.0 - x


def test_general_operator_weighted_three_way():
    spec = GeneralOpSpec(weights=(2.0, 1.0, 1.0), neutral=0.5)
    # 0.5 + 2(x-0.5) + (y-0.5) + (z-0.5), clamped.
    assert general_operator([0.75, 0.5, 0.5], spec) == pytest.approx(1.0)
    assert general_operator([0.5, 0.25, 0.75], spec) == pytest.approx(0.5)


def test_general_operator_custom_generator():
    spec = GeneralOpSpec(weights=(1.0, 1.0), neutral=1.0,
                         generator=lambda t: t ** 2,
                         generator_inverse=lambda v: v ** 0.5)
    # f(x)+f(y)-1 inside the clamp, then the square root back.
    assert general_operator([1.0, 0.8], spec) == pytest.approx(0.8)
    assert general_operator([0.9, 0.9], spec) == pytest.approx(
        math.sqrt(0.81 + 0.81 - 1.0))


def test_general_operator_validation():
    with pytest.raises(ValueError):
        GeneralOpSpec(weights=(), neutral=0.5)
    with pytest.raises(ValueError):
        GeneralOpSpec(weights=(0.0,), neutral=0.5)
    with pytest.raises(ValueError):
        GeneralOpSpec(weights=(1.0,), neutral=1.5)
    with pytest.raises(ValueError):
        GeneralOpSpec(weights=(1.0,), neutral=0.5,
                      generator=lambda t: -t, generator_inverse=lambda v: -v)
    spec = GeneralOpSpec(weights=(1.0, 1.0), neutral=0.5)
    with pytest.raises(ValueError):
        general_operator([0.5], spec)          # arity
    with pytest.raises(ValueError):
        general_operator([0.5, 1.5], spec)     # range


# --------------------------------------------------------- preference


def test_preference_anchors():
    assert preference(0.5, 0.5) == 0.5
    assert preference(0.0, 1.0) == 1.0
    assert preference(1.0, 0.0) == 0.0
    assert preference(0.25, 0.75) == pytest.approx(1.0)


def test_preference_matches_general_operator_route():
    # pref(x, y; w) is the weighted operator over (1-x, y) at neutral 1/2.
    for w in (0.5, 1.0, 2.0):
        spec = GeneralOpSpec(weights=(w, w), neutral=0.5)
        for k in range(0, 17):
            for j in range(0, 17):
                x, y = k / 16, j / 16
                assert preference(x, y, w) == general_operator([1 - x, y], spec)


@given(dyadic, dyadic)
def test_preference_antisymmetric(x, y):
    assert preference(x, y) == 1.0 - preference(y, x)


def test_preference_monotone_in_second_argument():
    ys = np.linspace(0, 1, 21)
    out = preference(0.5, ys)
    assert np.all(np.diff(out) >= 0)


# ----------------------------------------------------- classification


def test_classify_alpha_anchors():
    assert classify_alpha(0.0) is OperatorKind.DISJUNCTION
    assert classify_alpha(0.5) is OperatorKind.AGGREGATIVE
    assert classify_alpha(1.0) is OperatorKind.CONJUNCTION


def test_classify_alpha_tolerance_window():
    assert classify_alpha(0.14) is OperatorKind.DISJUNCTION
    assert classify_alpha(0.15) is OperatorKind.DISJUNCTION   # inclusive
    assert classify_alpha(0.16) is OperatorKind.OTHER
    assert classify_alpha(0.36) is OperatorKind.AGGREGATIVE
    assert classify_alpha(0.84) is OperatorKind.OTHER
    assert classify_alpha(0.86) is OperatorKind.CONJUNCTION


def test_classify_alpha_tie_prefers_aggregative():
    assert classify_alpha(0.25, tolerance=0.25) is OperatorKind.AGGREGATIVE
    assert classify_alpha(0.75, tolerance=0.25) is OperatorKind.AGGREGATIVE


def test_classify_alpha_zero_tolerance():
    assert classify_alpha(1.0, tolerance=0.0) is OperatorKind.CONJUNCTION
    assert classify_alpha(0.999, tolerance=0.0) is OperatorKind.OTHER


def test_classify_alpha_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_alpha(float("nan"))
    with pytest.raises(ValueError):
        classify_alpha(0.5, tolerance=-0.1)


@given(st.floats(min_value=-2, max_value=3, allow_nan=False))
def test_classify_alpha_total(alpha):
    assert classify_alpha(alpha) in OperatorKind


def test_operator_kind_symbols():
    assert OperatorKind.DISJUNCTION.symbol == "or"
    assert OperatorKind.AGGREGATIVE.symbol == "uni"
    assert OperatorKind.CONJUNCTION.symbol == "and"
    assert OperatorKind.OTHER.canonical_alpha is None
    assert OperatorKind.CONJUNCTION.canonical_alpha == 1.0
