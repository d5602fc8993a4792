import pathlib
import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import bnpolicy
from bnpolicy import DataValidationError, InterferenceMap


def test_exposure_map_hand_example():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(h.exposure(np.array([1.0, 0.0])), [0.5, 1.5])


def test_exposure_map_zero_treatment():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(h.exposure(np.zeros(2)), np.zeros(2))


def test_exposure_map_single_row():
    h = InterferenceMap(np.array([[1.0, 1.0]]))
    assert np.allclose(h.exposure(np.array([1.0, 1.0])), [1.0])


def test_expected_exposure_hand_example():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(h.exposure(np.array([0.5, 0.5])), [0.75, 1.75])


def test_expected_exposure_equal_propensities_factor():
    h = InterferenceMap(np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]]))
    e = np.full(3, 0.3)
    assert np.allclose(h.exposure(e), 0.3 * h.h.mean(axis=1))


def test_expected_exposure_single_unit():
    h = InterferenceMap(np.array([[2.0]]))
    assert np.allclose(h.exposure(np.array([0.25])), [0.5])


def test_exposure_row_mass_examples():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(h.row_mass(), [1.5, 3.5])
    assert np.array_equal(InterferenceMap(np.zeros((2, 2))).row_mass(), np.zeros(2))
    h1 = InterferenceMap(np.array([[5.0], [7.0]]))
    assert np.allclose(h1.row_mass(), [5.0, 7.0])


def test_aggregate_hand_example():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 2.0]]))
    assert np.allclose(h.aggregate(np.array([1.0, 0.0, 1.0])), [0.5, 2.0])
    # a (n, k) operand maps column by column
    w = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, -1.0]])
    assert np.allclose(h.aggregate(w), np.column_stack([h.aggregate(w[:, 0]),
                                                        h.aggregate(w[:, 1])]))


def test_operators_keep_the_bits_of_the_hand_written_products(rng):
    dense = rng.random((9, 5)) * (rng.random((9, 5)) < 0.6)
    # a sparse map keeps the bits of scipy's CSR products
    csr = scipy.sparse.csr_array(dense)
    coo = csr.tocoo()
    sparse = InterferenceMap(rows=coo.row, cols=coo.col, data=coo.data, shape=coo.shape)
    for h, held in ((InterferenceMap(dense), dense), (sparse, csr)):
        for v in (rng.random(5), rng.random((5, 3))):
            assert np.array_equal(h.exposure(v), held @ v / h.j)
        for w in (rng.standard_normal(9), rng.standard_normal((9, 2))):
            assert np.array_equal(h.aggregate(w), held.T @ w / h.j)
        row_sums = held @ np.ones(h.j) if h.sparse else held.sum(axis=1)
        assert np.array_equal(h.row_mass(), row_sums / h.j)
    v, w = rng.random(5), rng.standard_normal(9)
    dense = InterferenceMap(dense)
    assert np.allclose(sparse.exposure(v), dense.exposure(v), rtol=1e-14, atol=0)
    assert np.allclose(sparse.aggregate(w), dense.aggregate(w), rtol=1e-14, atol=1e-15)
    assert np.allclose(sparse.row_mass(), dense.row_mass(), rtol=1e-14, atol=0)


def test_exposure_linearity(rng):
    for _ in range(10):
        h = InterferenceMap(rng.random((6, 4)))
        a1 = rng.random(4) * 0.5
        a2 = rng.random(4) * 0.5
        lhs = h.exposure(a1 + a2)
        rhs = h.exposure(a1) + h.exposure(a2)
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
    mixed = h.exposure(t * a1 + (1.0 - t) * a2)
    combined = t * h.exposure(a1) + (1.0 - t) * h.exposure(a2)
    assert np.max(np.abs(mixed - combined)) <= 1e-13 * max(1.0, float(h.h.max()))


def test_exposure_monotonicity(rng):
    for _ in range(10):
        h = InterferenceMap(rng.random((5, 3)))
        a = rng.random(3) * 0.5
        bumped = a.copy()
        k = int(rng.integers(0, 3))
        bumped[k] += 0.3
        assert np.all(h.exposure(bumped) >= h.exposure(a))


def test_exposure_errors():
    # n = 2 outcome units, J = 3 intervention units: each operator checks its
    # operand's leading dimension only (the range of a treatment or a
    # propensity is checked by the estimators that know it)
    h = InterferenceMap(np.ones((2, 3)))
    for bad in (np.ones(2), np.ones((2, 3)), np.float64(1.0)):
        with pytest.raises(DataValidationError, match="exposure operand must have 3 rows"):
            h.exposure(bad)
    for bad in (np.ones(3), np.ones((3, 2)), np.float64(1.0)):
        with pytest.raises(DataValidationError, match="aggregate operand must have 2 rows"):
            h.aggregate(bad)
    assert np.array_equal(h.exposure(np.array([0.0, 1.5, -1.0])), [1 / 6, 1 / 6])


# a product with H or a division by J written outside ``data.py``, or a
# rebuilt sparse format: the map alone sorts and checks its triplets
HAND_WRITTEN_PRODUCT = re.compile(r"\.h @|\.h\.T\b|\bh\.h\b|/ h\.j\b|/ config\.j\b"
                                  r"|\bindptr\b|\bsearchsorted\b|\btocsr\b")


def test_only_the_interference_map_multiplies_by_h():
    src = pathlib.Path(bnpolicy.__file__).parent
    found = [f"{path.name}:{k}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "data.py"
             for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if HAND_WRITTEN_PRODUCT.search(line)]
    assert found == []
