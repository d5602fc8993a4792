"""The package's scipy-free numerics against scipy itself, bit for bit.

The bundle commands import no scipy: the normal cdf and quantile are Python
ports, the sparse products are ``np.bincount`` sums and the pivoted QR and
its triangular solves call LAPACKE in scipy's OpenBLAS through ctypes.  Each
must reproduce what scipy returns to the last bit, so these tests import
scipy and compare bytes.
"""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special

from bnpolicy import (FeatureMap, InterferenceMap, OutcomeModelSpec, OutcomeTable,
                      PreparedData, fit_q)
from bnpolicy import _blas, _normal
from bnpolicy.errors import RankDeficiencyError


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _design(rng, n, k):
    """Normal columns scaled by factors between 0.01 and 100."""
    return rng.standard_normal((n, k)) * np.exp(rng.uniform(np.log(0.01), np.log(100.0), k))


@pytest.fixture
def no_lapacke(monkeypatch):
    """scipy's OpenBLAS as if it exported none of the LAPACKE symbols."""
    monkeypatch.setattr(_blas.ctypes, "CDLL", lambda path: object())
    _blas._lapack.cache_clear()
    assert _blas._lapack() is None
    yield
    _blas._lapack.cache_clear()


def test_the_lapacke_route_is_taken_here():
    assert _blas._lapack() is not None


@pytest.mark.parametrize("shape", [(2000, 14), (600, 8), (5000, 20), (12, 3)])
def test_pivoted_qr_and_solves_match_scipy(rng, shape):
    for _ in range(3):
        a = _design(rng, *shape)
        y = rng.standard_normal(shape[0])
        want = scipy.linalg.qr(a, mode="economic", pivoting=True)
        for got, expected in zip(_blas.pivoted_qr(a), want):
            _assert_same_bits(got, expected)
            assert got.flags.f_contiguous == expected.flags.f_contiguous
        q, r, _ = want
        for b in (q.T @ y, (q * y[:, None]).T):
            # R as the QR returns it, the only R the package solves with
            got = _blas.solve_upper(r, b)
            expected = scipy.linalg.solve_triangular(r, b)
            _assert_same_bits(got, expected)
            assert got.flags.f_contiguous == expected.flags.f_contiguous


def test_the_scipy_fallback_gives_the_same_bits(rng, no_lapacke):
    a = _design(rng, 600, 8)
    q, r, piv = _blas.pivoted_qr(a)
    for got, expected in zip((q, r, piv), scipy.linalg.qr(a, mode="economic", pivoting=True)):
        _assert_same_bits(got, expected)
    b = (q * rng.standard_normal(600)[:, None]).T
    _assert_same_bits(_blas.solve_upper(r, b), scipy.linalg.solve_triangular(r, b))


def _q_problem(rng, n=800, dependent=False):
    x = rng.standard_normal((n, 2)) * [0.05, 30.0]
    if dependent:  # the second covariate a multiple of the first
        x[:, 1] = 3.0 * x[:, 0]
    abar = rng.uniform(0.0, 2.0, n)
    y = x[:, 0] - 0.2 * abar * x[:, 1] + 0.1 * rng.standard_normal(n)
    spec = OutcomeModelSpec(basis_f0=FeatureMap("quadratic"), basis_fa=FeatureMap("linear"))
    return OutcomeTable(x=x, y=y), abar, spec


def test_fit_q_has_the_same_bits_on_either_route(rng, monkeypatch):
    out, abar, spec = _q_problem(rng)
    fast = fit_q(PreparedData(out, abar=abar), spec)
    monkeypatch.setattr(_blas, "_lapack", lambda: None)
    slow = fit_q(PreparedData(out, abar=abar), spec)
    for name in ("alpha", "beta", "cov_theta"):
        _assert_same_bits(getattr(fast, name), getattr(slow, name))


def test_a_rank_deficient_design_names_the_same_column_on_either_route(rng, monkeypatch):
    out, abar, spec = _q_problem(rng, dependent=True)
    with pytest.raises(RankDeficiencyError) as fast:
        fit_q(PreparedData(out, abar=abar), spec)
    monkeypatch.setattr(_blas, "_lapack", lambda: None)
    with pytest.raises(RankDeficiencyError) as slow:
        fit_q(PreparedData(out, abar=abar), spec)
    assert fast.value.column == slow.value.column
    assert str(fast.value) == str(slow.value)


def _normal_grid(rng):
    return np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 8.0, -8.0, 38.5, -38.5, 1e300, -1e300,
         np.sqrt(2.0), -np.sqrt(2.0), 5e-324],
        np.linspace(-40.0, 40.0, 8001), rng.uniform(-40.0, 40.0, 20000),
        3.0 * rng.standard_normal(20000)])


def _probability_grid(rng):
    return np.concatenate([
        [0.0, -0.0, 1.0, 0.5, 0.975, 0.025, 5e-324, 1e-300, 1.0 - 1e-16, np.exp(-2.0),
         1.0 - np.exp(-2.0), np.exp(-32.0)],
        np.linspace(0.0, 1.0, 10001), np.logspace(-300, -1, 3000),
        1.0 - np.logspace(-16, -1, 3000), rng.uniform(0.0, 1.0, 20000)])


def test_ndtr_matches_scipy(rng):
    z = _normal_grid(rng)
    _assert_same_bits(_normal.ndtr(z), scipy.special.ndtr(z))
    assert np.isnan(_normal.ndtr(np.nan))
    assert isinstance(_normal.ndtr(0.3), float)
    assert _normal.ndtr(0.3) == scipy.special.ndtr(0.3)


def test_ndtri_matches_scipy(rng):
    p = _probability_grid(rng)
    _assert_same_bits(_normal.ndtri(p), scipy.special.ndtri(p))
    outside = np.array([-0.5, 1.5, -np.inf, np.inf, np.nan])
    assert np.all(np.isnan(_normal.ndtri(outside)))
    assert _normal.ndtri(0.975) == scipy.special.ndtri(0.975)
    # a matrix keeps its shape
    grid = p[:12].reshape(3, 4)
    _assert_same_bits(_normal.ndtri(grid), scipy.special.ndtri(grid))


@pytest.fixture
def csr(rng):
    """A 3000 x 200 map with 12 values a row, a stored zero, an empty row and column."""
    n, j, deg = 3000, 200, 12
    rows = np.repeat(np.arange(n), deg)
    cols = np.concatenate([rng.choice(j - 1, deg, replace=False) for _ in range(n)])
    values = rng.lognormal(0.0, 1.0, n * deg)
    values[5] = 0.0
    keep = rows != 17
    return scipy.sparse.csr_array((values[keep], (rows[keep], cols[keep])), shape=(n, j))


def _shuffled_triplets(rng, csr):
    """The map of ``csr``, handed over as its triplets in a random order."""
    coo = csr.tocoo()
    order = rng.permutation(coo.nnz)
    return InterferenceMap(rows=coo.row[order], cols=coo.col[order], data=coo.data[order],
                           shape=coo.shape)


def test_sparse_products_match_scipy(rng, csr):
    h = _shuffled_triplets(rng, csr)
    n, j = csr.shape
    for v in (rng.random(j), rng.random((j, 3)), rng.random((j, 7))):
        _assert_same_bits(h.exposure(v), csr @ v / j)
    for w in (rng.standard_normal(n), rng.standard_normal((n, 3)),
              rng.standard_normal((n, 7))):
        _assert_same_bits(h.aggregate(w), csr.T @ w / j)
    _assert_same_bits(h.row_mass(), csr @ np.ones(j) / j)
    assert h.row_mass()[17] == 0.0
    assert h.zero_columns().tolist() == [j - 1]


def test_kept_columns_match_scipy(rng, csr):
    h = _shuffled_triplets(rng, csr)
    n, j = csr.shape
    kept = np.flatnonzero(rng.random(j) < 0.7)
    sub, want = h.keep_columns(kept), csr[:, kept]
    assert sub.sparse and sub.shape == want.shape
    # the triplets in scipy's storage order: by row, then column
    assert np.array_equal(sub.rows, np.repeat(np.arange(n), np.diff(want.indptr)))
    assert np.array_equal(sub.cols, want.indices)
    assert np.array_equal(sub.data, want.data)
    for v in (rng.random(kept.size), rng.random((kept.size, 3))):
        _assert_same_bits(sub.exposure(v), want @ v / kept.size)
    w = rng.standard_normal((n, 7))
    _assert_same_bits(sub.aggregate(w), want.T @ w / kept.size)
    reached = np.asarray(abs(want).sum(axis=0)).ravel() > 0
    assert sub.zero_columns().tolist() == np.flatnonzero(~reached).tolist()
