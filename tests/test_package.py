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
        "ZeroOnCircleError",
        "CrossCheckError",
    ]
    assert issubclass(exceptions.ValidationError, ValueError)
    for failure in (exceptions.ZeroOnCircleError, exceptions.CrossCheckError):
        assert issubclass(failure, exceptions.SecradiusError)
        assert issubclass(failure, ArithmeticError)


_S = zoo.f0(4)
_SPEC = zoo.HerglotzSpec([0.5, 0.5], [1, -1])

#: Every public function that takes an order, count, seed, grid or radius:
#: (function, keyword arguments that it accepts, integer names, radius names).
_ARGUMENT_TABLE = [
    (bounds.coeff_bound, {"n": 3}, ["n"], []),
    (bounds.deriv_envelope, {"r": 0.3}, [], ["r"]),
    (bounds.tail_derivative_bound, {"n": 3, "r": 0.3}, ["n"], ["r"]),
    (bounds.k_tail, {"n": 4}, ["n"], []),
    (bounds.cube_series_tail, {"order": 3, "r": 0.3}, ["order"], ["r"]),
    (zoo.koebe, {"order": 3}, ["order"], []),
    (zoo.half_plane, {"order": 3}, ["order"], []),
    (zoo.f0, {"order": 3}, ["order"], []),
    (zoo.synthesize_F, {"spec": _SPEC, "order": 5}, ["order"], []),
    (zoo.p_coeffs, {"spec": _SPEC, "order": 3}, ["order"], []),
    (zoo.spec_from_seed, {"seed": 3, "atom_count": 2}, ["seed", "atom_count"], []),
    (
        zoo.sample_specs,
        {"count": 2, "atom_count": 2, "rng_seed": 3},
        ["count", "atom_count", "rng_seed"],
        [],
    ),
    (series.section, {"s": _S, "n": 3}, ["n"], []),
    (
        radius.boundary_min,
        {"s": _S, "criterion": "re-deriv", "r": 0.3, "grid_size": 64},
        ["grid_size"],
        ["r"],
    ),
    (radius.count_zeros, {"s": _S, "r": 0.3}, [], ["r"]),
    (
        radius.criterion_radius,
        {"s": _S, "criterion": "re-deriv", "grid_size": 64},
        ["grid_size"],
        [],
    ),
    (
        verify.theorem1_suite,
        {"count": 1, "atom_count": 2, "n_max": 3, "seed": 3},
        ["count", "atom_count", "n_max", "seed"],
        [],
    ),
    (
        verify.conjecture2_scan,
        {"count": 1, "atom_count": 2, "n_min": 2, "n_max": 3, "seed": 3, "grid": 64},
        ["count", "atom_count", "n_min", "n_max", "seed", "grid"],
        [],
    ),
    (
        verify.classical_radius_scan,
        {"n_min": 5, "n_max": 6},
        ["n_min", "n_max"],
        [],
    ),
    (verify.figure1_curves, {"r": 0.3}, [], ["r"]),
]

#: Every public function that takes a single number that is not an order or
#: a radius: (function, keyword arguments that it accepts, the number's name).
_SCALAR_TABLE = [
    (radius.criterion_radius, {"s": _S, "criterion": "re-deriv", "tol": 1e-9}, "tol"),
    (zoo.rotation, {"f": _S, "mu": 1j}, "mu"),
]


def _argument_cases():
    for fn, kwargs, integers, radii in _ARGUMENT_TABLE:
        for name in integers:
            good = kwargs[name]
            for bad in (good + 0.5, float(good), True, None, str(good)):
                case_id = f"{fn.__name__}-{name}={bad!r}"
                yield pytest.param(fn, {**kwargs, name: bad}, "must be an integer", id=case_id)
        for name in radii:
            for bad in (None, str(kwargs[name])):
                case_id = f"{fn.__name__}-{name}={bad!r}"
                yield pytest.param(fn, {**kwargs, name: bad}, "must be a real number", id=case_id)
            case_id = f"{fn.__name__}-{name}=10**400"
            yield pytest.param(fn, {**kwargs, name: 10**400}, "must lie in", id=case_id)
            # more digits than Python will convert to a string
            case_id = f"{fn.__name__}-{name}=10**5000"
            message = "must lie in .*, got an integer of more than 300 digits$"
            yield pytest.param(fn, {**kwargs, name: 10**5000}, message, id=case_id)
    for fn, kwargs, name in _SCALAR_TABLE:
        good = kwargs[name]
        for bad, message in ((None, "must be numbers"), (str(good), "must be numbers"),
                             ([good], "must be a single number")):
            case_id = f"{fn.__name__}-{name}={bad!r}"
            yield pytest.param(fn, {**kwargs, name: bad}, message, id=case_id)


def test_argument_table_covers_every_checked_function():
    assert len(_ARGUMENT_TABLE) == 20
    for fn, kwargs, *_names in _ARGUMENT_TABLE + _SCALAR_TABLE:
        fn(**kwargs)  # the unaltered arguments are accepted


@pytest.mark.parametrize("fn, kwargs, message", _argument_cases())
def test_every_order_and_radius_argument_fails_one_way(fn, kwargs, message):
    """An order, count, seed, grid or section index must be an integer (not a
    float or a bool), a radius a real number in range (an integer beyond
    float range included), and a tolerance or rotation factor one
    number, not a sequence; anything else is a ValidationError that says
    so, from every function alike."""
    with pytest.raises(exceptions.ValidationError, match=message):
        fn(**kwargs)


def test_negative_seeds_are_a_validation_error():
    with pytest.raises(exceptions.ValidationError, match="seed must be at least 0"):
        zoo.spec_from_seed(-1, 2)
    with pytest.raises(exceptions.ValidationError, match="rng_seed must be at least 0"):
        zoo.sample_specs(2, 2, -1)

