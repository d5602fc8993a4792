"""File formats for the CLI: unit tables, interference matrices, reports.

Every emitted file starts with a version comment line.  Machine-readable
numbers are written with repr so re-parsing reproduces the in-memory
values bit for bit; human-readable tables round to 4 significant digits.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter

import numpy as np

from .data import InterferenceMap, InterventionTable, OutcomeTable
from .effects import EffectTable
from .errors import DataValidationError
from .policy import PolicySolution
from .simlab import CELLS, SimReport

FORMAT_PREFIX = "# bnpolicy-"


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_human(x: float) -> str:
    return f"{x:.4g}" if np.isfinite(x) else str(x)


def _write(path, lines) -> str:
    """Write the lines to ``path``; the text written."""
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _load(path, row_dtype):
    """Header and rows of a CSV file without blank or '#' lines, by numpy's C reader.

    ``row_dtype(header)`` is the dtype of the rows after the header, or None
    when the first line is already a row of a float matrix.
    """
    with open(path, "r", encoding="utf-8") as fh:
        where = [0]  # number of the last line read, for error messages
        lines = (line for where[0], line in enumerate(fh, start=1)
                 if line.strip() and not line.startswith("#"))
        first = next(lines, "")
        header = [c.strip() for c in first.split(",")]
        dtype = row_dtype(header)
        head = first if dtype is None else next(lines, "")
        if not head:
            raise DataValidationError(f"{path}: no data rows")
        blank_as_nan = {k: lambda s: float(s) if s.strip() else np.nan
                        for k, name in enumerate(header) if name == "cost"}
        try:
            data = np.loadtxt(itertools.chain([head], lines), delimiter=",", comments=None,
                              dtype=float if dtype is None else dtype,
                              converters=blank_as_nan or None, ndmin=2 if dtype is None else 1)
        except ValueError as exc:
            reason = str(exc).split(" at row ")[0]
            raise DataValidationError(f"{path}, line {where[0]}: {reason}") from exc
    return header, data


def _read_units(path, key, extra):
    """Ids, key column, extra column or None, covariates of id,<key>[,<extra>],..."""
    def row_dtype(header):
        if header[:2] != ["id", key]:
            raise DataValidationError(
                f"{path}: expected header starting 'id,{key}', got {header[:2]}")
        if extra in header[3:]:
            raise DataValidationError(
                f"{path}: column {extra!r} must be the third column, after {key!r}")
        if len(header) <= 2 + (header[2:3] == [extra]):
            raise DataValidationError(f"{path}: no covariate columns found")
        return np.dtype([("id", object), ("v", float, (len(header) - 1,))])

    header, rows = _load(path, row_dtype)
    ids = rows["id"].tolist()
    if len(set(ids)) < len(ids):
        dup = next(uid for uid, count in Counter(ids).items() if count > 1)
        raise DataValidationError(f"{path}: duplicate unit id {dup!r}")
    # contiguous copies: a strided column would change the order of later sums
    v, has_extra = rows["v"], header[2] == extra
    return (ids, np.ascontiguousarray(v[:, 0]),
            np.ascontiguousarray(v[:, 1]) if has_extra else None,
            np.ascontiguousarray(v[:, 1 + has_extra:]))


def read_outcome_csv(path):
    """Outcome units: header id,y[,person_years],x1..xp."""
    ids, y, py, x = _read_units(path, "y", "person_years")
    return ids, OutcomeTable(x=x, y=y, person_years=py)


def read_intervention_csv(path):
    """Intervention units: header id,a[,cost],z1..zq.

    Blank cost cells read as NaN, to be imputed: the table then has
    cost=None and the raw column is handed back separately.
    """
    ids, a, raw_cost, x = _read_units(path, "a", "cost")
    cost = raw_cost if raw_cost is not None and not np.any(np.isnan(raw_cost)) else None
    return ids, InterventionTable(x=x, a=a, cost=cost), raw_cost


def read_interference_csv(path, n=None, j=None):
    """Dense (n rows x J numeric columns) or triplet (header i,j,value)."""
    def row_dtype(header):
        if header[:3] != ["i", "j", "value"]:
            return None
        if n is None or j is None:
            raise DataValidationError("triplet interference file needs n and J")
        return np.dtype([("i", np.int64), ("j", np.int64), ("value", float)])

    _, data = _load(path, row_dtype)
    if data.dtype.names is None:
        if (n is not None and data.shape[0] != n) or (j is not None and data.shape[1] != j):
            raise DataValidationError(f"{path}: matrix shape {data.shape}, expected ({n}, {j})")
        return InterferenceMap(data)
    rows, cols = data["i"], data["j"]
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= j)
    if outside.any():
        k = int(np.argmax(outside))
        raise DataValidationError(f"{path}: triplet ({rows[k]}, {cols[k]}) outside {n}x{j}")
    h = np.zeros((n, j))
    h[rows, cols] = 1.0  # mark and count: a repeated (i, j) marks one cell twice
    if np.count_nonzero(h) < data.shape[0]:
        keys = np.sort(rows * j + cols)
        dup = divmod(int(keys[np.argmax(keys[1:] == keys[:-1])]), j)
        raise DataValidationError(f"{path}: duplicate triplet (i, j) = {dup}")
    h[rows, cols] = data["value"]
    return InterferenceMap(h)


EFFECTS_COLUMNS = ("id", "total_effect", "se", "p_one_sided", "ci_low", "ci_high",
                   "benefit_cost", "structural_zero")


def write_effects_csv(path, ids, table: EffectTable):
    lines = [f"{FORMAT_PREFIX}effects v1", ",".join(EFFECTS_COLUMNS)]
    bc = table.benefit_cost
    for k, uid in enumerate(ids):
        lines.append(",".join([
            str(uid), _fmt(table.total_effect[k]), _fmt(table.se[k]),
            _fmt(table.p_one_sided[k]), _fmt(table.ci_low[k]), _fmt(table.ci_high[k]),
            "" if bc is None else _fmt(bc[k]), str(int(table.structural_zero[k]))]))
    _write(path, lines)


def write_coefficients_csv(path, names, estimates, ses, ci_low, ci_high, p_values):
    lines = [f"{FORMAT_PREFIX}coefficients v1", "name,estimate,se,ci_low,ci_high,p_value"]
    for k, name in enumerate(names):
        lines.append(",".join([name, _fmt(estimates[k]), _fmt(ses[k]),
                               _fmt(ci_low[k]), _fmt(ci_high[k]), _fmt(p_values[k])]))
    _write(path, lines)


def write_policy_json(path, sol: PolicySolution, ids):
    doc = {
        "format": "bnpolicy-policy v1",
        "method": sol.method,
        "budget": None if np.isinf(sol.budget) else sol.budget,
        "spent": sol.spent,
        "value_rate": sol.value_rate,
        "value_count": sol.value_count,
        "allocation": {str(uid): float(sol.pi[k]) for k, uid in enumerate(ids)},
    }
    _write(path, [json.dumps(doc, indent=2, sort_keys=True)])


def write_sweep_csv(path, fractions, pairs, dominance_ok: bool):
    lines = [f"{FORMAT_PREFIX}sweep v1",
             "fraction,bc_value_rate,bc_spent,te_value_rate,te_spent,bc_leq_te"]
    for f, (bc_sol, te_sol) in zip(fractions, pairs):
        lines.append(",".join([
            _fmt(f), _fmt(bc_sol.value_rate), _fmt(bc_sol.spent),
            _fmt(te_sol.value_rate), _fmt(te_sol.spent),
            str(int(bc_sol.value_rate <= te_sol.value_rate))]))
    lines.append(f"# dominance_holds={int(dominance_ok)}")
    _write(path, lines)


_CELL_DISPLAY = {
    "q_correct": ("Q-learning", "correct", "-"),
    "q_misspec": ("Q-learning", "misspec", "-"),
    "a_cc": ("A-learning", "correct", "correct"),
    "a_c_misP": ("A-learning", "correct", "misspec"),
    "a_misB_c": ("A-learning", "misspec", "correct"),
    "a_mis_mis": ("A-learning", "misspec", "misspec"),
}


def sim_report_to_dict(report: SimReport) -> dict:
    return {
        "format": "bnpolicy-sim-report v1",
        "master_seed": report.master_seed,
        "reps": report.reps,
        "theta0": [float(v) for v in report.theta0],
        "gamma0_slopes": [float(v) for v in report.gamma0_slopes],
        "cells": {
            name: {
                "bias": stats.mean_bias,
                "rmse": stats.mean_rmse,
                "coverage_pct": stats.mean_coverage,
                "n_ok": stats.n_ok,
                "n_failed": stats.n_failed,
            } for name, stats in report.cells.items()
        },
    }


def write_sim_report(json_path, txt_path, report: SimReport) -> str:
    """Write the JSON report and the text table; the text of the table."""
    _write(json_path, [json.dumps(sim_report_to_dict(report), indent=2, sort_keys=True)])
    rows = [["Method", "BS", "PS", "Bias", "RMSE", "Coverage", "Failed"]]
    for name in CELLS:
        stats = report.cells[name]
        method, bs, ps = _CELL_DISPLAY[name]
        rows.append([method, bs, ps, _fmt_human(stats.mean_bias),
                     _fmt_human(stats.mean_rmse), _fmt_human(stats.mean_coverage),
                     str(stats.n_failed)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [f"{FORMAT_PREFIX}sim-report v1 (seed={report.master_seed}, reps={report.reps})"]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return _write(txt_path, lines)


def write_imputed_costs_csv(path, ids, observed_mask, costs):
    lines = [f"{FORMAT_PREFIX}imputed-costs v1", "id,cost,source"]
    for k, uid in enumerate(ids):
        src = "observed" if observed_mask[k] else "imputed"
        lines.append(f"{uid},{_fmt(costs[k])},{src}")
    lines.append(f"# total_cost={_fmt(float(np.sum(costs)))}")
    _write(path, lines)


def write_leaderboard_csv(path, leaderboard):
    """Validation NMAE of each cost model, best first: (kind, score) pairs."""
    _write(path, [f"{FORMAT_PREFIX}cost-leaderboard v1", "model,nmae",
                  *(f"{kind},{_fmt(score)}" for kind, score in leaderboard)])


def write_importance_csv(path, importance):
    """Forest importance of each plant covariate z1..zq."""
    # repr of the numpy scalar, not _fmt: with numpy >= 2 a cell reads
    # np.float64(...), which the benchmark's recorded references match
    _write(path, [f"{FORMAT_PREFIX}cost-importance v1", "feature,importance",
                  *(f"z{k + 1},{v!r}" for k, v in enumerate(importance))])
