"""The package namespace re-exports exactly the submodules' public names."""

import pytest

import secradius
from secradius import bounds, exceptions, radius, series, verify, zoo


def test_package_exports_are_the_submodule_lists():
    names = secradius.__all__
    assert len(names) == len(set(names))
    submodules = (series, zoo, bounds, radius, verify, exceptions)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in submodules))
    missing = [name for name in names if not hasattr(secradius, name)]
    assert missing == []


def test_series_surface_is_the_type_and_its_sections():
    assert series.__all__ == ["TruncatedSeries", "section", "is_normalized"]
    z = series.TruncatedSeries([0, 1])
    with pytest.raises(TypeError):
        z + z


def test_exceptions_surface_is_one_input_error_and_the_numerical_failures():
    assert exceptions.__all__ == [
        "SecradiusError",
        "ValidationError",
        "PoleProximityError",
        "ZeroOnCircleError",
        "CrossCheckError",
    ]
    assert issubclass(exceptions.ValidationError, ValueError)
