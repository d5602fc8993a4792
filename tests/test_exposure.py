import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpolicy import (DataValidationError, InterferenceMap, expected_exposure,
                      exposure_map, exposure_row_mass)


def test_exposure_map_hand_example():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(exposure_map(h, np.array([1.0, 0.0])), [0.5, 1.5])


def test_exposure_map_zero_treatment():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(exposure_map(h, np.zeros(2)), np.zeros(2))


def test_exposure_map_single_row():
    h = InterferenceMap(np.array([[1.0, 1.0]]))
    assert np.allclose(exposure_map(h, np.array([1.0, 1.0])), [1.0])


def test_expected_exposure_hand_example():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(expected_exposure(h, np.array([0.5, 0.5])), [0.75, 1.75])


def test_expected_exposure_equal_propensities_factor():
    h = InterferenceMap(np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]]))
    e = np.full(3, 0.3)
    assert np.allclose(expected_exposure(h, e), 0.3 * h.h.mean(axis=1))


def test_expected_exposure_single_unit():
    h = InterferenceMap(np.array([[2.0]]))
    assert np.allclose(expected_exposure(h, np.array([0.25])), [0.5])


def test_exposure_row_mass_examples():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(exposure_row_mass(h), [1.5, 3.5])
    assert np.array_equal(exposure_row_mass(InterferenceMap(np.zeros((2, 2)))),
                          np.zeros(2))
    h1 = InterferenceMap(np.array([[5.0], [7.0]]))
    assert np.allclose(exposure_row_mass(h1), [5.0, 7.0])


def test_exposure_linearity(rng):
    for _ in range(10):
        h = InterferenceMap(rng.random((6, 4)))
        a1 = rng.random(4) * 0.5
        a2 = rng.random(4) * 0.5
        lhs = exposure_map(h, a1 + a2)
        rhs = exposure_map(h, a1) + exposure_map(h, a2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda j: st.tuples(
    st.lists(st.lists(st.floats(0.0, 10.0), min_size=j, max_size=j), min_size=1, max_size=5),
    st.lists(st.floats(0.0, 1.0), min_size=j, max_size=j),
    st.lists(st.floats(0.0, 1.0), min_size=j, max_size=j),
    st.floats(0.0, 1.0))))
def test_exposure_map_is_linear_over_convex_combinations(instance):
    rows, a1, a2, t = instance
    h = InterferenceMap(np.array(rows))
    a1, a2 = np.array(a1), np.array(a2)
    mixed = exposure_map(h, t * a1 + (1.0 - t) * a2)
    combined = t * exposure_map(h, a1) + (1.0 - t) * exposure_map(h, a2)
    assert np.max(np.abs(mixed - combined)) <= 1e-13 * max(1.0, float(h.h.max()))


def test_exposure_monotonicity(rng):
    for _ in range(10):
        h = InterferenceMap(rng.random((5, 3)))
        a = rng.random(3) * 0.5
        bumped = a.copy()
        k = int(rng.integers(0, 3))
        bumped[k] += 0.3
        assert np.all(exposure_map(h, bumped) >= exposure_map(h, a))


def test_exposure_map_matches_expected_exposure_on_shared_input(rng):
    h = InterferenceMap(rng.random((5, 3)) + 0.1)
    e = rng.uniform(0.1, 0.9, 3)
    assert np.array_equal(exposure_map(h, e), expected_exposure(h, e))


def test_exposure_errors():
    h = InterferenceMap(np.ones((2, 2)))
    with pytest.raises(DataValidationError):
        exposure_map(h, np.array([1.0]))
    with pytest.raises(DataValidationError):
        exposure_map(h, np.array([1.0, 1.5]))
    with pytest.raises(DataValidationError):
        expected_exposure(h, np.array([0.0, 0.5]))
    with pytest.raises(DataValidationError):
        expected_exposure(h, np.array([1.0, 0.5]))
