"""Seeded input bundles for the CLI workloads, drawn with plain numpy.

The draw does not use the package's simulation lab, so a change to the lab
cannot change the benchmark's inputs.  Each component (outcome units, plants,
transport matrix) has its own random stream, so the plant table is the same
whether or not the transport matrix is drawn.

Bundle: n outcome units with person-years and p covariates, J plants with q
covariates, binary treatments and costs, and a sparse transport matrix H
written as a triplet CSV with ``deg`` lognormal nonzeros per row.  Outcomes
follow the package's model with quadratic bases,

    y = f0(x) . alpha + abar * fa(x) . beta + noise,  abar = H a / J,

with a mostly protective effect, so the fit is well posed and most plants
are candidates for treatment.
"""
from __future__ import annotations

import os

import numpy as np

FULL = {"n": 30000, "j": 500, "deg": 12}
SMOKE = {"n": 600, "j": 40, "deg": 6}
P = Q = 3
MEAN_TREATMENT = 0.19
MISSING_COST_SHARE = 0.35
NOISE_SD = 0.1
ALPHA = np.array([0.3, 0.1, -0.05, 0.08, 0.02, -0.03, 0.01])
BETA = np.array([-0.01, 0.0025, -0.00125, 0.00125, 0.0005, 0.00025, -0.0005])
GAMMA_LIN = np.array([0.5, -0.4, 0.3])
GAMMA_SQ = np.array([0.1, -0.1, 0.05])

_OUTCOMES, _PLANTS, _TRANSPORT = 1, 2, 3


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def _quadratic(x):
    return np.hstack([np.ones((x.shape[0], 1)), x, x**2])


def _logistic(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def draw_plants(seed: int, j: int):
    """Covariates, treatments and full costs of the J plants.

    The propensity intercept is set by bisection so the mean propensity is
    MEAN_TREATMENT; treatments are redrawn if they come out all equal.
    Costs are a nonlinear function of the covariates, so the forest beats
    the linear model in cost imputation.
    """
    rng = _rng(seed, _PLANTS)
    z = rng.standard_normal((j, Q))
    offset = z @ GAMMA_LIN + z**2 @ GAMMA_SQ
    lo, hi = -20.0, 20.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _logistic(mid + offset).mean() < MEAN_TREATMENT:
            lo = mid
        else:
            hi = mid
    e = _logistic(mid + offset)
    a = (rng.random(j) < e).astype(float)
    while a.min() == a.max():
        a = (rng.random(j) < e).astype(float)
    cost = np.exp(0.5 + 0.4 * z[:, 0] + 0.5 * np.abs(z[:, 1])
                  + 0.4 * (z[:, 2] > 0) + 0.15 * rng.standard_normal(j))
    missing = np.zeros(j, dtype=bool)
    missing[rng.permutation(j)[:round(MISSING_COST_SHARE * j)]] = True
    return z, a, cost, missing


def draw_transport(seed: int, n: int, j: int, deg: int):
    """(rows, cols, values) of H: deg distinct random plants per outcome unit.

    Entries are lognormal around J/deg so each row's mass (1/J) sum_j H_ij
    is near one; every column is checked to reach at least one unit.
    """
    rng = _rng(seed, _TRANSPORT)
    colmass = np.exp(0.45 * rng.standard_normal(j))
    cols = np.empty((n, deg), dtype=np.int64)
    for start in range(0, n, 4096):
        keys = rng.random((min(4096, n - start), j), dtype=np.float32)
        cols[start:start + keys.shape[0]] = np.sort(
            np.argpartition(keys, deg - 1, axis=1)[:, :deg], axis=1)
    rows = np.repeat(np.arange(n), deg)
    cols = cols.ravel()
    values = (j / deg) * colmass[cols] * rng.lognormal(-0.28, 0.75, n * deg)
    if np.bincount(cols, minlength=j).min() == 0:
        raise RuntimeError("transport draw left a plant with no outcome units")
    return rows, cols, values


def draw_outcomes(seed: int, n: int, j: int, transport, a):
    rng = _rng(seed, _OUTCOMES)
    x = rng.standard_normal((n, P))
    person_years = rng.uniform(500.0, 20000.0, n)
    rows, cols, values = transport
    abar = np.bincount(rows, weights=values * a[cols], minlength=n) / j
    bx = _quadratic(x)
    y = bx @ ALPHA + abar * (bx @ BETA) + NOISE_SD * rng.standard_normal(n)
    return x, y, person_years


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return os.path.getsize(path)


def _plant_lines(z, a, cost, missing):
    lines = ["id,a,cost," + ",".join(f"z{k + 1}" for k in range(Q))]
    for k in range(a.shape[0]):
        c = "" if missing is not None and missing[k] else repr(float(cost[k]))
        lines.append(f"p{k},{int(a[k])},{c}," + ",".join(map(repr, z[k].tolist())))
    return lines


def write_plants(out_dir: str, seed: int, size: dict) -> dict:
    """Plant table with about 35% of cost cells blank (for impute-costs)."""
    z, a, cost, missing = draw_plants(seed, size["j"])
    path = os.path.join(out_dir, "plants_missing_cost.csv")
    nbytes = _write(path, _plant_lines(z, a, cost, missing))
    return {"interventions": path,
            "facts": {"plants_bytes": nbytes, "plants": int(a.shape[0]),
                      "missing_costs": int(missing.sum())}}


def write_bundle(out_dir: str, seed: int, size: dict) -> dict:
    """Outcome, plant (full costs) and triplet transport CSVs for the CLI."""
    n, j, deg = size["n"], size["j"], size["deg"]
    z, a, cost, _ = draw_plants(seed, j)
    transport = draw_transport(seed, n, j, deg)
    x, y, person_years = draw_outcomes(seed, n, j, transport, a)
    paths = {name: os.path.join(out_dir, f"{name}.csv")
             for name in ("outcomes", "interventions", "h")}
    out_lines = ["id,y,person_years," + ",".join(f"x{k + 1}" for k in range(P))]
    for i, (yi, pyi, xi) in enumerate(zip(y.tolist(), person_years.tolist(),
                                          x.tolist())):
        out_lines.append(f"o{i},{yi!r},{pyi!r}," + ",".join(map(repr, xi)))
    rows, cols, values = transport
    h_lines = ["i,j,value"]
    h_lines.extend(f"{i},{c},{v!r}" for i, c, v in
                   zip(rows.tolist(), cols.tolist(), values.tolist()))
    sizes = {
        "outcomes_bytes": _write(paths["outcomes"], out_lines),
        "interventions_bytes": _write(paths["interventions"],
                                      _plant_lines(z, a, cost, None)),
        "h_bytes": _write(paths["h"], h_lines),
    }
    return {**paths, "facts": {**sizes, "n": n, "plants": j,
                               "triplets": int(values.shape[0]),
                               "mean_treatment": float(a.mean())}}
