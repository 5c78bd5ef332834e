"""``matrixio.format_rows`` against ``repr``, float by float."""

import numpy as np
import pytest

from roadhmm import matrixio

TINY, HUGE = 5e-324, 1.7976931348623157e308


def assert_formats_as_repr(values, width=9):
    """``format_rows`` of ``values``, in rows of ``width`` padded with 0.0, equals repr's text."""
    values = np.asarray(values, dtype=float).reshape(-1)
    rows = np.concatenate([values, np.zeros(-values.size % width)]).reshape(-1, width)
    lines = matrixio.format_rows([""] * len(rows), rows).split("\n")
    assert lines.pop() == ""
    expected = [",".join(map(repr, row.tolist())) for row in rows]
    wrong = [(got, want) for got, want in zip(lines, expected, strict=True) if got != want]
    assert not wrong, f"{len(wrong)} of {len(rows)} rows differ, first: {wrong[0]}"


def with_neighbours(values):
    """Both signs of ``values`` and of the floats one ulp below and above each."""
    values = np.asarray(values, dtype=float)
    around = np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, np.inf)])
    return np.concatenate([around, -around])


def test_a_million_random_finite_bit_patterns_of_either_sign():
    bits = np.random.default_rng(29).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(float)
    values = values[np.isfinite(values)]
    assert values.size > 0.99 * 10**6 and (values < 0).mean() > 0.49
    assert_formats_as_repr(values)


def test_every_power_of_two_and_of_ten_with_both_neighbours():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_formats_as_repr(with_neighbours(np.concatenate([powers_of_two, powers_of_ten])))


def test_every_subnormal_with_a_mantissa_below_ten_thousand():
    subnormals = np.arange(1, 10**4, dtype=np.uint64).view(float)
    assert subnormals[0] == TINY
    assert_formats_as_repr(np.concatenate([subnormals, -subnormals]))


def test_signed_zeros_infinities_nan_and_the_extremes():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, HUGE, -HUGE, TINY, -TINY,
              2.2250738585072014e-308, 1.0, -1.0]
    for row in (values, values[::-1]):  # each value also ends a row
        assert_formats_as_repr(row, width=len(row))
    assert matrixio.format_rows(["a,"], np.array([[-0.0, np.nan, -np.inf]])) == "a,-0.0,nan,-inf\n"


def test_the_fixed_and_scientific_boundaries_with_both_neighbours():
    values = with_neighbours([1e-5, 1e-4, 1e15, 1e16])
    boundaries = [repr(v) for v in values[4:8].tolist()]
    assert boundaries == ["1e-05", "0.0001", "1000000000000000.0", "1e+16"]
    assert_formats_as_repr(values)


def test_short_decimals_at_every_scale():
    rng = np.random.default_rng(7)
    values = rng.integers(1, 10**6, 50_000) / 10.0 ** rng.integers(-20, 25, 50_000)
    assert_formats_as_repr(np.concatenate([values, -values, np.round(values, 2)]))


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 5), (0, 4), (2, 0)])
def test_any_shape_of_block_and_each_rows_prefix(shape):
    rows = np.arange(np.prod(shape), dtype=float).reshape(shape) / 3
    prefixes = [f"p{k}," for k in range(shape[0])]
    expected = "".join(prefix + ",".join(map(repr, row.tolist())) + "\n"
                       for prefix, row in zip(prefixes, rows))
    assert matrixio.format_rows(prefixes, rows) == expected
