import numpy as np
import pytest

from bnpolicy import (DataValidationError, FeatureMap, InterferenceMap,
                      InterventionTable, OutcomeTable, fit_standardizer,
                      validate_bundle)


def test_validate_bundle_consistent_dims_is_clean():
    h = InterferenceMap(np.ones((2, 2)))
    out = OutcomeTable(x=np.zeros((2, 1)), y=np.array([1.0, 2.0]))
    intv = InterventionTable(x=np.zeros((2, 1)), a=np.array([0.0, 1.0]))
    report = validate_bundle(h, out, intv)
    assert report.ok
    assert report.issues == ()


def test_validate_bundle_flags_zero_column():
    h = InterferenceMap(np.array([[1.0, 0.0], [2.0, 0.0]]))
    out = OutcomeTable(x=np.zeros((2, 1)), y=np.array([1.0, 2.0]))
    intv = InterventionTable(x=np.zeros((2, 1)), a=np.array([0.0, 1.0]))
    report = validate_bundle(h, out, intv)
    assert not report.ok
    assert "column 1 has no transport" in report.issues


def test_validate_bundle_flags_nonbinary_treatment():
    h = InterferenceMap(np.ones((2, 2)))
    out = OutcomeTable(x=np.zeros((2, 1)), y=np.array([1.0, 2.0]))
    intv = InterventionTable(x=np.zeros((2, 1)), a=np.array([0.0, 2.0]))
    report = validate_bundle(h, out, intv)
    assert "non-binary treatment at index 1" in report.issues


def test_validate_bundle_flags_dim_mismatch():
    h = InterferenceMap(np.ones((3, 2)))
    out = OutcomeTable(x=np.zeros((2, 1)), y=np.array([1.0, 2.0]))
    intv = InterventionTable(x=np.zeros((2, 1)), a=np.array([0.0, 1.0]))
    assert not validate_bundle(h, out, intv).ok


def test_validate_bundle_is_pure(rng):
    h = InterferenceMap(rng.random((4, 3)))
    out = OutcomeTable(x=rng.random((4, 2)), y=rng.random(4))
    intv = InterventionTable(x=rng.random((3, 2)), a=np.array([0.0, 1.0, 2.0]))
    assert validate_bundle(h, out, intv) == validate_bundle(h, out, intv)


def test_interference_map_rejects_negative_and_nonfinite():
    with pytest.raises(DataValidationError):
        InterferenceMap(np.array([[1.0, -1.0]]))
    with pytest.raises(DataValidationError):
        InterferenceMap(np.array([[1.0, np.nan]]))


def test_standardizer_two_point_column():
    s = fit_standardizer(np.array([[1.0], [3.0]]))
    assert np.allclose(s.means, [2.0])
    assert np.allclose(s.sds, [np.sqrt(2.0)])
    z = s.apply(np.array([[1.0], [3.0]]))
    assert np.allclose(z[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_standardizer_constant_column_flagged():
    s = fit_standardizer(np.array([[5.0], [5.0], [5.0]]))
    assert s.constant_columns.tolist() == [0]
    z = s.apply(np.array([[5.0], [5.0], [5.0]]))
    assert np.allclose(z, 0.0)


def test_standardizer_idempotent_on_standardized_data(rng):
    x = rng.standard_normal((50, 3))
    z = fit_standardizer(x).apply(x)
    z2 = fit_standardizer(z).apply(z)
    assert np.max(np.abs(z2 - z)) <= 1e-12


def test_standardizer_round_trip(rng):
    for _ in range(20):
        x = rng.standard_normal((30, 4)) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
        s = fit_standardizer(x)
        back = s.apply(x) * s.sds + s.means
        assert np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x))) <= 1e-12


def test_standardizer_rejects_nonfinite():
    with pytest.raises(DataValidationError):
        fit_standardizer(np.array([[1.0], [np.inf]]))


@pytest.mark.parametrize("kind,blocks", [("linear", 1), ("quadratic", 2),
                                         ("cubic", 3), ("trig", 3)])
def test_expansion_dims(rng, kind, blocks):
    fm = FeatureMap(kind)
    for p in rng.integers(1, 21, size=12):
        p = int(p)
        x = rng.standard_normal((7, p))
        assert fm.dim(p) == 1 + blocks * p
        assert fm.expand(x).shape == (7, 1 + blocks * p)
        names = fm.names(p, "x")
        assert len(names) == fm.dim(p) == fm.expand(x).shape[1]
        assert names[0] == "intercept"


def test_linear_expansion_of_zero_vector():
    fm = FeatureMap("linear")
    row = fm.expand(np.zeros((1, 4)))
    assert np.array_equal(row[0], np.array([1.0, 0, 0, 0, 0]))


def test_trig_expansion_columns():
    fm = FeatureMap("trig")
    x = np.array([[0.5]])
    assert np.allclose(fm.expand(x)[0], [1.0, 0.5, np.sin(0.5), np.cos(0.5)])


def test_unknown_basis_kind_rejected():
    with pytest.raises(DataValidationError):
        FeatureMap("spline")
