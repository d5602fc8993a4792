"""A transport map read from a triplet file (CSR) against the same map read dense."""
import os
import subprocess
import sys

import numpy as np
import pytest

from bnpolicy import (FeatureMap, InterferenceMap, OutcomeModelSpec, apply_trim, effect_table,
                      fit_a, knapsack_policy, policy_value, trim_by_propensity)
from bnpolicy.io import read_interference_csv, read_intervention_csv, read_outcome_csv

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
    """(dense, CSR) pairs of the map, the tables and the A-learning fit."""
    _, out = read_outcome_csv(bundle["outcomes"])
    _, intv, _ = read_intervention_csv(bundle["interventions"])
    maps = (read_interference_csv(bundle["dense"], n=N, j=J),
            read_interference_csv(bundle["triplets"], n=N, j=J))
    return out, intv, maps, [fit_a(out, intv, h, SPEC, prop_basis=PROP) for h in maps]


def _assert_fits_agree(dense, sparse):
    assert _close(sparse.theta, dense.theta)
    for name in ("omega_phi", "omega_gamma", "cov_theta"):
        assert _close(getattr(sparse, name), getattr(dense, name)), name


def test_a_triplet_file_is_held_sparse_and_matches_the_dense_file(bundle):
    dense = read_interference_csv(bundle["dense"], n=N, j=J)
    sparse = read_interference_csv(bundle["triplets"], n=N, j=J)
    assert not dense.sparse and sparse.sparse
    assert sparse.h.format == "csr" and sparse.h.has_canonical_format
    assert np.array_equal(sparse.h.toarray(), dense.h)
    assert np.array_equal(sparse.zero_columns(), dense.zero_columns())
    assert sparse.zero_columns().tolist() == [J - 1]
    assert not sparse.h.data.flags.writeable


def test_fit_effects_and_policy_value_agree(bundle):
    out, intv, maps, fits = _fits(bundle)
    _assert_fits_agree(*fits)
    tables = [effect_table(h, out, fit.beta, fit.cov_beta(), SPEC.basis_fa, cost=intv.cost)
              for h, fit in zip(maps, fits)]
    for name in ("total_effect", "se", "p_one_sided", "ci_low", "ci_high", "benefit_cost"):
        assert _close(getattr(tables[1], name), getattr(tables[0], name)), name
    assert np.array_equal(tables[1].structural_zero, tables[0].structural_zero)
    assert tables[1].structural_zero[J - 1]
    te = tables[0].total_effect
    pi = knapsack_policy(te, intv.cost, 0.3 * float(intv.cost.sum()), N).pi
    values = [policy_value(te, pi, N, h=h, out=out, beta=fits[0].beta,
                           basis_fa=SPEC.basis_fa) for h in maps]
    assert values[1][0] == values[0][0]
    assert _close(values[1][1], values[0][1])


def test_trimmed_fit_agrees(bundle):
    out, intv, maps, fits = _fits(bundle)
    trim = trim_by_propensity(fits[0].gamma_fit, 0.2)
    trimmed = [apply_trim(h, intv, trim) for h in maps]
    assert 0 < trimmed[0][0].j < J and trimmed[1][0].sparse
    assert np.array_equal(trimmed[1][0].h.toarray(), trimmed[0][0].h)
    _assert_fits_agree(*[fit_a(out, kept, h, SPEC, prop_basis=PROP) for h, kept in trimmed])


def test_a_scipy_sparse_input_becomes_a_frozen_csr_array():
    import scipy.sparse

    coo = scipy.sparse.coo_matrix(([1.0, 2.0, 0.5], ([0, 2, 0], [1, 0, 1])), shape=(3, 2))
    h = InterferenceMap(coo)
    assert isinstance(h.h, scipy.sparse.csr_array) and h.sparse
    assert np.array_equal(h.h.toarray(), [[0.0, 1.5], [0.0, 0.0], [2.0, 0.0]])
    assert all(not arr.flags.writeable for arr in (h.h.data, h.h.indices, h.h.indptr))
    indices = np.array([1, 0, 0])
    unsorted = scipy.sparse.csr_array(([1.0, 2.0, 3.0], indices, [0, 2, 3]), shape=(2, 2))
    h = InterferenceMap(unsorted)
    assert h.h.has_canonical_format and indices.tolist() == [1, 0, 0]
    assert np.array_equal(h.h.toarray(), [[2.0, 1.0], [3.0, 0.0]])


def test_cli_import_leaves_scipy_sparse_unloaded():
    import bnpolicy
    src = os.path.dirname(os.path.dirname(bnpolicy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, bnpolicy.cli; print('scipy.sparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
