"""The squash kernel against the paper's ramp evaluated exactly.

The float formula ``(logaddexp(0, lo) - logaddexp(0, hi)) / (l b)`` is no
oracle on its own: above about 2**53 ramp widths from the center both of
its arguments round to the same float and it reads 0, and for a small
``l b`` the difference cancels.  The reference here is the same formula in
enough decimal digits that neither happens.
"""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from softlogic.operators import SquashParams, squash

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

EPS = sys.float_info.epsilon

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max)


def _softplus(u):
    return max(u, 0) + mpmath.log1p(mpmath.exp(-abs(u)))


def exact_ramp(x: float, p: SquashParams) -> tuple[float, float]:
    """S(x) and its slope S'(x) from the paper's formula, evaluated below
    the center and reflected above it (S(a + m) = 1 - S(a - m)), so no
    digit cancels whatever the size of x - a."""
    c = p.ramp_width * p.smoothness
    with mp.workprec(2200):                     # x - a of any two floats, exactly
        m = mpmath.mpf(x) - mpmath.mpf(p.center)
    with mp.workdps(40 + max(0, int(-math.log10(c)))):
        beta, half = mpmath.mpf(p.smoothness), mpmath.mpf(p.ramp_width) / 2
        lo, hi = beta * (-abs(m) + half), beta * (-abs(m) - half)
        low = (_softplus(lo) - _softplus(hi)) / (beta * 2 * half)
        value = 1 - low if m > 0 else low
        slope = (1 / (1 + mpmath.exp(-lo)) - 1 / (1 + mpmath.exp(-hi))) / (2 * half)
        return float(value), float(slope * abs(m))


@st.composite
def ramps(draw):
    """Valid squash settings, from the defaults to extreme products."""
    scale = st.one_of(st.floats(min_value=0.01, max_value=200.0), positive)
    center = draw(st.one_of(st.floats(min_value=-3.0, max_value=3.0), finite))
    try:
        return SquashParams(center=center, ramp_width=draw(scale), smoothness=draw(scale))
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(ramps(), st.lists(st.one_of(st.floats(min_value=-4.0, max_value=4.0), finite),
                         min_size=1, max_size=6))
def test_squash_matches_the_exact_ramp_without_warnings(params, xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = squash(np.array(xs), params)
        singles = [squash(x, params) for x in xs]
    assert all(type(s) is float for s in singles)
    assert [float(s) for s in batch] == singles
    for x, s in zip(xs, singles):
        exact, slope_times_m = exact_ramp(x, params)
        # 1e-15 of arithmetic, plus what rounding x - a to a float may move
        # S by: the slope times a few ulps of x - a.
        assert abs(s - exact) <= 1e-15 + 4 * EPS * slope_times_m, (x, s, exact)
        assert 0.0 <= s <= 1.0


@settings(max_examples=300, deadline=None)
@given(ramps())
def test_squash_is_exactly_0_or_1_where_the_ramp_is_saturated(params):
    # Exact rationals: x - a may overflow a float while b |x - a| is small.
    a, lam, beta = (Fraction(v) for v in (params.center, params.ramp_width,
                                          params.smoothness))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e9, -1e9, 1e308, -1e308, sys.float_info.max):
            m = Fraction(x) - a
            if beta * abs(m) - lam * beta / 2 > 800:
                assert squash(x, params) == (1.0 if m > 0 else 0.0)


def test_squash_far_outside_the_ramp_is_0_or_1():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        above = squash(np.array([1e9, 1e16, 1e17, 1e308, sys.float_info.max]))
        below = squash(np.array([-1e9, -1e16, -1e308, -sys.float_info.max]))
    assert above.tolist() == [1.0] * 5
    assert below.tolist() == [0.0] * 4
    assert squash(1e308) == 1.0 and squash(-1e308) == 0.0


def test_squash_with_a_very_sharp_ramp():
    # e^{c/2} overflows a float once c/2 passes about 709.
    p = SquashParams(smoothness=1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert squash(0.3, p) == pytest.approx(0.3, abs=1e-15)
        assert squash(np.array([0.0, 0.5, 1.0]), p).tolist() == pytest.approx(
            [math.log(2) / 1e4, 0.5, 1 - math.log(2) / 1e4], abs=1e-15)


def test_squash_keeps_shape_and_leaves_its_input_alone():
    x = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
    before = x.copy()
    out = squash(x)
    assert out.shape == (3, 4) and out is not x
    assert np.array_equal(x, before)
    assert squash(np.empty((0, 3))).shape == (0, 3)
    for bad in (np.nan, np.inf, [0.0, -np.inf]):
        with pytest.raises(ValueError, match="x must be finite"):
            squash(bad)


@pytest.mark.parametrize("width, smoothness", [(1e200, 1e200), (1e-300, 1e-300),
                                               (1e-160, 1e-160)])
def test_squash_params_reject_a_ramp_product_outside_the_normal_floats(width, smoothness):
    with pytest.raises(ValueError, match="ramp_width \\* smoothness"):
        SquashParams(ramp_width=width, smoothness=smoothness)
