"""Unit tests for the truncated power-series type and its sections."""

import numpy as np
import pytest

from secradius.exceptions import ValidationError
from secradius.series import TruncatedSeries, is_normalized, section

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAS_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# Construction and invariants
# ---------------------------------------------------------------------------


def test_construction_copies_and_freezes():
    src = np.array([0.0, 1.0, 2.0])
    s = TruncatedSeries(src)
    src[1] = 99.0
    assert s.coeffs[1] == 1.0
    assert s.coeffs.dtype == np.complex128
    assert not s.coeffs.flags.writeable
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_instances_are_frozen():
    s = TruncatedSeries([0, 1])
    with pytest.raises(AttributeError):
        s.coeffs = np.zeros(2)


def test_order_property():
    assert TruncatedSeries([1]).order == 0
    assert TruncatedSeries([0, 1, 2, 3]).order == 3


def test_rejects_empty_and_multidimensional():
    with pytest.raises(ValidationError):
        TruncatedSeries([])
    with pytest.raises(ValidationError):
        TruncatedSeries(np.zeros((2, 2)))


@pytest.mark.parametrize("coeffs", [[0, "1", "2"], [0, 1, 10**400], [False, True]])
def test_rejects_non_numeric_coefficients(coeffs):
    """Numeric strings, integers beyond float range and bools are a ValidationError."""
    with pytest.raises(ValidationError):
        TruncatedSeries(coeffs)


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValidationError):
        TruncatedSeries([0.0, np.nan])
    with pytest.raises(ValidationError):
        TruncatedSeries([0.0, np.inf])
    with pytest.raises(ValidationError):
        TruncatedSeries([0.0, complex(0.0, np.inf)])


def test_is_normalized():
    assert is_normalized(TruncatedSeries([0, 1, 0, 0]))
    assert is_normalized(TruncatedSeries([1e-13, 1.0 + 1e-13, 5.0]))
    assert not is_normalized(TruncatedSeries([0.5, 1.0]))
    assert not is_normalized(TruncatedSeries([0.0, 2.0]))
    assert not is_normalized(TruncatedSeries([1.0]))  # order 0


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def test_section_and_tail_recombine():
    """The section and the tail coefficients c_{n+1}.. make up the series."""
    rng = np.random.default_rng(11)
    s = TruncatedSeries(rng.normal(size=13) + 1j * rng.normal(size=13))
    for n in (1, 4, 12):
        head = section(s, n)
        assert head.order == n
        np.testing.assert_array_equal(
            np.concatenate([head.coeffs, s.coeffs[n + 1 :]]), s.coeffs
        )


def test_section_of_full_order_is_identity_map():
    s = TruncatedSeries([0, 1, 2, 3])
    np.testing.assert_array_equal(section(s, 3).coeffs, s.coeffs)


def test_section_bounds():
    s = TruncatedSeries([0, 1, 2, 3])
    for bad in (0, 4, -1):
        with pytest.raises(ValidationError):
            section(s, bad)


if HAS_HYPOTHESIS:

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=10,
        ),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_section_plus_tail(coeffs, n):
        """Property: a section and the tail coefficients partition the series."""
        s = TruncatedSeries(coeffs)
        k = min(n, s.order)
        recombined = np.concatenate([section(s, k).coeffs, s.coeffs[k + 1 :]])
        np.testing.assert_array_equal(recombined, s.coeffs)
