"""The package namespace re-exports exactly the submodules' public names."""

import secradius
from secradius import bounds, exceptions, radius, series, verify, zoo


def test_package_exports_are_the_submodule_lists():
    names = secradius.__all__
    assert len(names) == len(set(names))
    submodules = (series, zoo, bounds, radius, verify, exceptions)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in submodules))
    missing = [name for name in names if not hasattr(secradius, name)]
    assert missing == []
