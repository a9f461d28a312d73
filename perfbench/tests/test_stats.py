import math

import pytest

from stats import loglog_slope, tail


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value = tail(values)
    assert value == 90
    assert sum(v > value for v in values) == 10
    assert pct == 90.0


def test_tail_is_order_free_and_needs_eleven_samples():
    assert tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 11, 10]) == (100 / 11, 1)
    assert tail(list(range(10))) is None
    assert tail([]) is None


def test_tail_with_ties_still_has_ten_samples_at_or_beyond():
    values = [1.0] * 30 + [2.0] * 10
    pct, value = tail(values)
    assert value == 1.0 and pct == 75.0


@pytest.mark.parametrize("power", [1, 2, 0.5])
def test_loglog_slope_recovers_the_power(power):
    xs = [50, 100, 200, 400, 800]
    ys = [3.0 * x ** power for x in xs]
    assert loglog_slope(xs, ys) == pytest.approx(power)


def test_loglog_slope_of_linear_plus_constant_is_below_one():
    xs = [10, 100, 1000]
    assert 0.4 < loglog_slope(xs, [100 + x for x in xs]) < 1


def test_loglog_slope_of_quadratic_with_linear_term_tends_to_two():
    xs = [100, 200, 400, 800]
    slope = loglog_slope(xs, [x * x + 50 * x for x in xs])
    assert 1.8 < slope < 2 and not math.isclose(slope, 2)


def test_loglog_slope_rejects_degenerate_input():
    with pytest.raises(ValueError):
        loglog_slope([1], [1])
    with pytest.raises(ValueError):
        loglog_slope([2, 2], [1, 3])
