"""A transport map read from a triplet file (sparse) against the same map read dense."""
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bnpolicy import (DataValidationError, FeatureMap, InterferenceMap, OutcomeModelSpec,
                      PreparedData, apply_trim, effect_table, fit_a, knapsack_policy,
                      policy_count, trim_by_propensity)
from bnpolicy.io import read_interference_csv, read_intervention_csv, read_outcome_csv
from oracles import dense

N, J, DEG = 400, 30, 5
SPEC = OutcomeModelSpec(basis_f0=FeatureMap("quadratic"), basis_fa=FeatureMap("linear"))
PROP = FeatureMap("linear")


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """Outcome and plant files and one H written dense and as shuffled triplets.

    Each outcome unit is reached by DEG of the first J - 1 plants; the last
    plant's only triplet holds the value 0.0, so it reaches no unit.
    """
    root = tmp_path_factory.mktemp("sparse_bundle")
    rng = np.random.default_rng(20240817)
    x, z = rng.standard_normal((N, 2)), rng.standard_normal((J, 2))
    a = (rng.uniform(size=J) < 1.0 / (1.0 + np.exp(-0.8 * z[:, 0]))).astype(float)
    h = np.zeros((N, J))
    for i in range(N):
        h[i, rng.choice(J - 1, DEG, replace=False)] = rng.lognormal(0.0, 0.5, DEG)
    fx = FeatureMap("quadratic").expand(x)
    y = (fx @ rng.normal(0.0, 0.5, fx.shape[1]) + h @ a / J * (x @ [0.4, -0.3] - 0.5)
         + 0.1 * rng.standard_normal(N))
    order = rng.permutation(N * DEG + 1)
    x, y, z, h = x.tolist(), y.tolist(), z.tolist(), h.tolist()  # repr of Python floats
    triplets = [f"{i},{k},{v!r}" for i, row in enumerate(h) for k, v in enumerate(row) if v]
    triplets.append(f"7,{J - 1},0.0")
    return {
        "outcomes": _write(root / "outcomes.csv", ["id,y,person_years,x1,x2"] + [
            f"o{i},{y[i]!r},{1000.0 + i!r},{x[i][0]!r},{x[i][1]!r}" for i in range(N)]),
        "interventions": _write(root / "plants.csv", ["id,a,cost,z1,z2"] + [
            f"p{k},{a[k]:.0f},{1.0 + k % 7!r},{z[k][0]!r},{z[k][1]!r}" for k in range(J)]),
        "dense": _write(root / "h_dense.csv", [",".join(map(repr, row)) for row in h]),
        "triplets": _write(root / "h_triplets.csv",
                           ["i,j,value"] + [triplets[k] for k in order]),
    }


def _close(got, want, tol=1e-12):
    """Frobenius-relative agreement of two arrays."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def _fits(bundle):
    """(dense, sparse) pairs of the map, the tables and the A-learning fit."""
    _, out = read_outcome_csv(bundle["outcomes"])
    _, intv, _ = read_intervention_csv(bundle["interventions"])
    maps = (read_interference_csv(bundle["dense"], n=N, j=J),
            read_interference_csv(bundle["triplets"], n=N, j=J))
    return out, intv, maps, [fit_a(out, intv, h, SPEC, prop_basis=PROP) for h in maps]


def _assert_fits_agree(dense, sparse):
    assert _close(sparse.theta, dense.theta)
    for name in ("omega_phi", "omega_gamma", "cov_theta"):
        assert _close(getattr(sparse, name), getattr(dense, name)), name


def _assert_sorted_triplets(h):
    """The map holds read-only triplets inside n x J, sorted strictly by row, then column."""
    assert h.rows.shape == h.cols.shape == h.data.shape
    assert np.all((0 <= h.rows) & (h.rows < h.n) & (0 <= h.cols) & (h.cols < h.j))
    assert np.all(np.diff(h.rows.astype(np.int64) * h.j + h.cols) > 0)
    assert not any(arr.flags.writeable for arr in (h.rows, h.cols, h.data))


def test_a_triplet_file_is_held_sparse_and_matches_the_dense_file(bundle):
    full = read_interference_csv(bundle["dense"], n=N, j=J)
    sparse = read_interference_csv(bundle["triplets"], n=N, j=J)
    assert not full.sparse and sparse.sparse and sparse.h is None
    _assert_sorted_triplets(sparse)
    assert np.array_equal(dense(sparse), full.h)
    assert np.array_equal(sparse.zero_columns(), full.zero_columns())
    assert sparse.zero_columns().tolist() == [J - 1]


def test_fit_effects_and_policy_value_agree(bundle):
    out, intv, maps, fits = _fits(bundle)
    _assert_fits_agree(*fits)
    tables = [effect_table(PreparedData(out, h=h), fit.beta, fit.cov_beta(), SPEC.basis_fa,
                           cost=intv.cost)
              for h, fit in zip(maps, fits)]
    for name in ("total_effect", "se", "p_one_sided", "ci_low", "ci_high", "benefit_cost"):
        assert _close(getattr(tables[1], name), getattr(tables[0], name)), name
    assert np.array_equal(tables[1].structural_zero, tables[0].structural_zero)
    assert tables[1].structural_zero[J - 1]
    te = tables[0].total_effect
    pi = knapsack_policy(te, intv.cost, 0.3 * float(intv.cost.sum()), N).pi
    values = [policy_count(pi, PreparedData(out, h=h), fits[0].beta, SPEC.basis_fa) for h in maps]
    assert _close(values[1], values[0])


def test_trimmed_fit_agrees(bundle):
    out, intv, maps, fits = _fits(bundle)
    trim = trim_by_propensity(fits[0].gamma_fit, 0.2)
    trimmed = [apply_trim(h, intv, trim) for h in maps]
    assert 0 < trimmed[0][0].j < J and trimmed[1][0].sparse
    _assert_sorted_triplets(trimmed[1][0])
    assert np.array_equal(dense(trimmed[1][0]), trimmed[0][0].h)
    _assert_fits_agree(*[fit_a(out, kept, h, SPEC, prop_basis=PROP) for h, kept in trimmed])


def test_a_scipy_sparse_input_becomes_a_frozen_csr_array():
    """A scipy user hands over the triplets of a COO array: unsorted, int32 or int64."""
    import scipy.sparse

    coo = scipy.sparse.coo_array(([1.0, 2.0, 0.5], ([2, 0, 0], [0, 1, 0])), shape=(3, 2))
    given = (coo.row.astype(np.int32), coo.col, coo.data)
    h = InterferenceMap(rows=given[0], cols=given[1], data=given[2], shape=coo.shape)
    assert h.sparse and h.h is None and h.shape == (3, 2)
    _assert_sorted_triplets(h)
    assert h.rows.tolist() == [0, 0, 2] and h.cols.tolist() == [0, 1, 0]
    assert np.array_equal(dense(h), coo.toarray())
    # the map holds sorted copies: the caller's arrays keep their order and stay writable
    assert given[0].tolist() == [2, 0, 0] and all(arr.flags.writeable for arr in given)
    assert not any(np.shares_memory(held, arr)
                   for held in (h.rows, h.cols, h.data) for arr in given)


def test_int32_triplets_sort_by_row_without_overflow():
    """Row * J + column passes 2**31 here: an int32 sort key would wrap to a negative."""
    n = j = 70000
    rows, cols = np.array([40000, 0, 1], dtype=np.int32), np.array([5, j - 1, 0], dtype=np.int32)
    h = InterferenceMap(rows=rows, cols=cols, data=[1.0, 2.0, 3.0], shape=(n, j))
    _assert_sorted_triplets(h)
    assert h.rows.tolist() == [0, 1, 40000] and h.data.tolist() == [2.0, 3.0, 1.0]


def _sorted_as_before(j, rows, cols, data):
    """The triplets sorted by a stable argsort of row * J + column, int64 and float."""
    rows, cols = np.asarray(rows).astype(np.int64), np.asarray(cols).astype(np.int64)
    order = np.argsort(rows * j + cols, kind="stable")
    return rows[order], cols[order], np.asarray(data, dtype=float)[order]


def _row_major(n, j, deg):
    """Triplets of an n x J map, DEG a row, in the order a row-major file holds them,
    as the fields of the structured array a triplet file reads into."""
    table = np.empty(n * deg, dtype=[("i", np.int64), ("j", np.int64), ("value", float)])
    table["i"] = np.repeat(np.arange(n), deg)
    table["j"] = np.tile(np.arange(deg) * (j // deg), n)
    table["value"] = np.linspace(0.5, 2.0, n * deg)
    return table["i"], table["j"], table["value"]


def _orders_of_row_major_triplets():
    """Ascending, shuffled, int32 and strided triplets of the same 50 x 40 map."""
    rows, cols, data = (np.array(arr) for arr in _row_major(50, 40, 4))
    shuffled = np.random.default_rng(3).permutation(rows.size)
    return {
        "ascending": (rows, cols, data),
        "shuffled": (rows[shuffled], cols[shuffled], data[shuffled]),
        "int32": (rows.astype(np.int32), cols.astype(np.int32), data),
        "strided": _row_major(50, 40, 4),
        "strided_shuffled": tuple(np.repeat(arr[shuffled], 2)[::2] for arr in (rows, cols, data)),
    }


@pytest.mark.parametrize("order", list(_orders_of_row_major_triplets()))
def test_triplets_in_any_order_or_layout_are_held_as_a_sort_would_hold_them(order):
    rows, cols, data = _orders_of_row_major_triplets()[order]
    h = InterferenceMap(rows=rows, cols=cols, data=data, shape=(50, 40))
    _assert_sorted_triplets(h)
    for held, want in zip((h.rows, h.cols, h.data), _sorted_as_before(40, rows, cols, data)):
        assert held.dtype == want.dtype and held.tobytes() == want.tobytes()
        assert held.flags.c_contiguous
        assert not any(np.shares_memory(held, arr) for arr in (rows, cols, data))


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_a_repeated_pair_is_named_in_any_order(order):
    rows, cols = [0, 0, 1, 1, 2], [1, 2, 0, 0, 2]
    step = 1 if order == "ascending" else -1
    with pytest.raises(DataValidationError, match=r"^duplicate triplet \(i, j\) = \(1, 0\)$"):
        InterferenceMap(rows=rows[::step], cols=cols[::step], data=[1.0] * 5, shape=(3, 3))


# a row-major map held as read peaks at its three copies (24 bytes a triplet),
# the sort keys (8) and the ascending check (1): 11.88 MB for 360000 triplets
# (33 bytes each) where a stable argsort and three gathers peaked at 20.88 MB
# (58 bytes each)
ROW_MAJOR_PEAK_BYTES_PER_TRIPLET = 36


def test_a_row_major_map_is_built_under_its_traced_memory_bound():
    def build(n, deg):
        rows, cols, data = _row_major(n, 500, deg)
        tracemalloc.start()
        try:
            InterferenceMap(rows=rows, cols=cols, data=data, shape=(n, 500))
            return tracemalloc.get_traced_memory()[1] / rows.size
        finally:
            tracemalloc.stop()

    build(10, 2)  # whatever a first call allocates once
    peak = build(20000, 12)
    assert peak < ROW_MAJOR_PEAK_BYTES_PER_TRIPLET, peak


# triplets of a 2 x 3 map (any order is fine) that break one rule each, and the
# error they raise; a triplet file is checked by the same rules
BAD_TRIPLETS = {
    "fewer_values": (dict(rows=[0, 1], cols=[0, 1], data=[1.0]), "the same length"),
    "fewer_columns": (dict(rows=[0, 1], cols=[0], data=[1.0, 1.0]), "the same length"),
    "column_outside": (dict(rows=[0, 1], cols=[0, 3], data=[1.0, 1.0]),
                       "triplet \\(1, 3\\) outside 2x3"),
    "row_outside": (dict(rows=[1, 2], cols=[0, 0], data=[1.0, 1.0]),
                    "triplet \\(2, 0\\) outside 2x3"),
    "negative_row": (dict(rows=[-1, 0], cols=[0, 0], data=[1.0, 1.0]),
                     "triplet \\(-1, 0\\) outside 2x3"),
    "repeated_column": (dict(rows=[1, 0, 1], cols=[2, 1, 2], data=[1.0, 1.0, 1.0]),
                        "duplicate triplet \\(i, j\\) = \\(1, 2\\)"),
    "float_indices": (dict(rows=[0, 1], cols=[0.0, 1.0], data=[1.0, 1.0]),
                      "cols must be a 1-d integer array"),
    "float_rows": (dict(rows=[0.0, 1.5], cols=[0, 1], data=[1.0, 1.0]),
                   "rows must be a 1-d integer array"),
    "matrix_rows": (dict(rows=[[0, 1]], cols=[0, 1], data=[1.0, 1.0]),
                    "rows must be a 1-d integer array"),
    "matrix_data": (dict(rows=[0, 1], cols=[0, 1], data=[[1.0, 1.0]]),
                    "data must be a 1-d array"),
    "negative_value": (dict(rows=[0, 1], cols=[0, 1], data=[1.0, -1.0]),
                       "negative entries"),
    "nan_value": (dict(rows=[0, 1], cols=[0, 1], data=[1.0, np.nan]),
                  "non-finite entries"),
}


@pytest.mark.parametrize("case", BAD_TRIPLETS)
def test_a_csr_map_checks_its_arrays(case):
    arrays, message = BAD_TRIPLETS[case]
    with pytest.raises(DataValidationError, match=message):
        InterferenceMap(shape=(2, 3), **arrays)


def test_a_map_takes_a_matrix_or_csr_arrays_not_both():
    arrays = dict(rows=[1, 0], cols=[1, 0], data=[2.0, 1.0])
    h = InterferenceMap(shape=(2, 3), **arrays)
    assert np.array_equal(dense(h), [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    for bad in (dict(h=np.ones((2, 3)), **arrays), dict(arrays), dict(shape=(2, 3))):
        with pytest.raises(DataValidationError, match="give h, or rows, cols, data and shape"):
            InterferenceMap(**bad)


def test_keep_columns_takes_distinct_ascending_columns():
    values = np.arange(6.0).reshape(2, 3)
    rows, cols = np.nonzero(values)
    for h in (InterferenceMap(values),
              InterferenceMap(rows=rows, cols=cols, data=values[rows, cols], shape=(2, 3))):
        assert np.array_equal(dense(h.keep_columns(np.array([0, 2]))), values[:, [0, 2]])
        for kept in ([2, 0], [1, 1]):
            with pytest.raises(DataValidationError, match="distinct and ascending"):
                h.keep_columns(np.array(kept))


@pytest.mark.parametrize("kept", [[0, 5], [-1, 2], [0.5], [True, False, True]])
def test_keep_columns_rejects_an_index_that_is_not_a_column(kept):
    dense = np.arange(6.0).reshape(2, 3)
    rows, cols = np.nonzero(dense)
    for h in (InterferenceMap(dense),
              InterferenceMap(rows=rows, cols=cols, data=dense[rows, cols], shape=(2, 3))):
        with pytest.raises(DataValidationError,
                           match=r"distinct and ascending integers in \[0, 3\)"):
            h.keep_columns(kept)


# a probe that writes the benchmark's smoke bundle (n=600, J=40, H as triplets),
# runs each bundle command and simulate in this process, and lists the scipy
# modules loaded after the import and after each command
BUNDLE_PROBE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from inputs import SMOKE, write_bundle
from bnpolicy.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[2]
seen = [["import", 0, scipy_modules()]]
paths = write_bundle(out, 0, SMOKE)
bundle = ["--outcomes", paths["outcomes"], "--interventions", paths["interventions"],
          "--h", paths["h"], "--f0-basis", "quadratic", "--fa-basis", "quadratic",
          "--prop-basis", "quadratic"]
config = os.path.join(out, "sim.json")
with open(config, "w") as fh:
    json.dump({"reps": 2, "n": 300, "j": 30}, fh)
commands = {
    "effects": ["effects", *bundle],
    "policy": ["policy", *bundle, "--budget-frac", "0.2"],
    "sweep": ["sweep", *bundle],
    "fit_a": ["fit", *bundle, "--estimator", "a"],
    "fit_q": ["fit", *bundle, "--estimator", "q"],
    "simulate": ["simulate", "--config", config, "--threads", "1"],
}
for name, argv in commands.items():
    code = main([*argv, "--out-dir", os.path.join(out, name)])
    seen.append([name, code, scipy_modules()])
print(json.dumps(seen))
"""


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path):
    """No bundle command, nor simulate, loads any scipy module."""
    import bnpolicy
    src = os.path.dirname(os.path.dirname(bnpolicy.__file__))
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    done = subprocess.run([sys.executable, "-B", "-c", BUNDLE_PROBE, str(perfbench),
                           str(tmp_path)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert [name for name, _, _ in seen] == ["import", "effects", "policy", "sweep", "fit_a",
                                             "fit_q", "simulate"]
    assert all(code == 0 and modules == [] for _, code, modules in seen), seen
