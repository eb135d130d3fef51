"""The one tolerance rule of the internal cross-checks (errors.at_most and
errors.agree)."""

import math

import pytest
from hypothesis import given, strategies as st

from daugavetlab.errors import REL_TOL, InvariantViolation, agree, at_most

UNIT = st.floats(min_value=-1.0, max_value=1.0)
#: The absolute slacks the cross-checks held values to before the rule.
OLD_SLACKS = (1e-12, 1e-9, 1e-6)


@given(bound=UNIT, old=st.sampled_from(OLD_SLACKS))
def test_below_magnitude_one_nothing_passes_that_an_old_slack_rejected(bound, old):
    value = bound + 1.01 * old
    if abs(value) <= 1.0:
        with pytest.raises(InvariantViolation):
            at_most(value, bound, "over")
        with pytest.raises(InvariantViolation):
            agree(value, bound, "apart")
        with pytest.raises(InvariantViolation):
            at_most(value, bound, "over", scale=0.5)


def test_the_floor_is_one():
    at_most(0.5 + 0.5 * REL_TOL, 0.5, "over")
    agree(0.0, 0.9 * REL_TOL, "apart")
    with pytest.raises(InvariantViolation, match="^over$"):
        at_most(2 * REL_TOL, 0.0, "over")
    with pytest.raises(InvariantViolation, match="^apart$"):
        agree(0.0, -2 * REL_TOL, "apart")


def test_the_slack_scales_with_the_values_or_the_given_scale():
    big = 1e6
    at_most(big + 0.5 * REL_TOL * big, big, "over")
    agree(3.4e15, 3.4e15 + 1024, "apart")
    at_most(0.5 * REL_TOL * big, 0.0, "over", scale=big)
    with pytest.raises(InvariantViolation):
        at_most(big + 3 * REL_TOL * big, big, "over")
    with pytest.raises(InvariantViolation):
        agree(3.4e15, 3.4e15 + 8192, "apart")
    with pytest.raises(InvariantViolation):
        at_most(2 * REL_TOL * big, 0.0, "over", scale=big)
    with pytest.raises(InvariantViolation):  # a scale replaces the values' own size
        at_most(big + 0.5 * REL_TOL * big, big, "over", scale=1.0)


def test_equal_infinities_agree():
    for x in (math.inf, -math.inf):
        agree(x, x, "apart")
        at_most(x, x, "over")


def test_non_finite_values_never_raise():
    for a, b in [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 0.0), (0.0, math.nan),
                 (math.inf, -math.inf), (math.nan, math.nan)]:
        agree(a, b, "apart")
        at_most(a, b, "over")
        at_most(a, b, "over", scale=1.0)


def test_a_callable_message_is_formatted_only_on_failure():
    calls = []

    def message():
        calls.append(1)
        return "formatted"

    at_most(1.0, 1.0, message)
    agree(1.0, 1.0, message)
    assert calls == []
    with pytest.raises(InvariantViolation, match="^formatted$"):
        agree(1.0, 2.0, message)
