"""File formats for the CLI: unit tables, interference matrices, reports.

Every emitted file starts with a version comment line.  Machine-readable
numbers are written with repr so re-parsing reproduces the in-memory
values bit for bit; human-readable tables round to 4 significant digits.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import stat
import tempfile
from collections import Counter
from contextlib import contextmanager

import numpy as np

from .data import InterferenceMap, InterventionTable, OutcomeTable
from .errors import DataValidationError

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


def _cost_cell(text):
    """A cost cell: NaN when blank (to be imputed), else a finite number >= 0."""
    if not text.strip():
        return np.nan
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise DataValidationError(f"cost must be a finite number >= 0, got {text.strip()!r}")
    return value


def _is_row(line):
    """Whether a line is read as a row: neither blank nor a '#' comment."""
    return bool(line.strip()) and not line.startswith("#")


def _parse(lines, header, dtype, skiprows=0):
    """Rows by numpy's C reader, after the first ``skiprows`` lines.

    ``lines`` is an iterable of lines, or a path that numpy reads in
    chunks; ``dtype`` None reads a float matrix.
    """
    cost_cells = {k: _cost_cell for k, name in enumerate(header) if name == "cost"}
    return np.loadtxt(lines, delimiter=",", comments=None, skiprows=skiprows,
                      encoding="utf-8-sig", dtype=float if dtype is None else dtype,
                      converters=cost_cells or None, ndmin=2 if dtype is None else 1)


def _by_descriptor(fh):
    """A path that opens the file of ``fh`` again, or None.

    The path goes through ``/proc/self/fd``, so the name that ``fh`` was
    opened by plays no part: numpy decompresses a file by its name's
    suffix.  None where no ``/proc/self/fd`` exists.
    """
    path = f"/proc/self/fd/{fh.fileno()}"
    return path if os.path.exists(path) else None


def _load(path, row_dtype):
    """Header and rows of a CSV file without blank or '#' lines, by numpy's C reader.

    ``row_dtype(header)`` is the dtype of the rows after the header, or None
    when the first line is already a row of a float matrix.  An input that is
    not a regular file, a pipe say, is read from a temporary copy of its
    bytes, since it can be read only once.  When the file opens with its
    header and a row, the reader takes the rest of the file as it is: by a
    path that opens the same file again (``_by_descriptor``), which numpy
    reads in chunks, or else from the open file, whose lines numpy pulls one
    at a time.  A file it rejects, and a file that opens otherwise, is read
    again through a filter that drops blank and '#' lines and counts lines,
    so an error names the line at fault.  A file that is not UTF-8 text is
    rejected.
    """
    try:
        with open(path, "rb") as raw:
            if stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
                with open(raw.fileno(), "r", encoding="utf-8-sig", closefd=False) as fh:
                    return _load_open(fh, path, row_dtype)
            with tempfile.TemporaryFile("w+", encoding="utf-8-sig") as fh:
                shutil.copyfileobj(raw, fh.buffer)
                fh.seek(0)
                return _load_open(fh, path, row_dtype)
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text") from exc


def _copied(data, encoding):
    """The bytes ``data`` in an anonymous temporary file, open as text at its start."""
    copy = tempfile.TemporaryFile("w+", encoding=encoding)
    try:
        copy.buffer.write(data)
        copy.seek(0)
    except BaseException:
        copy.close()
        raise
    return copy


def _load_open(fh, path, row_dtype):
    """``_load`` of the file ``path`` opened as ``fh``."""
    first = fh.readline()
    if _is_row(first):
        header = [c.strip() for c in first.split(",")]
        dtype = row_dtype(header)
        head = first if dtype is None else fh.readline()
        if _is_row(head):
            reopened = _by_descriptor(fh)
            try:
                if reopened is None:
                    data = _parse(itertools.chain([head], fh), header, dtype)
                else:
                    data = _parse(reopened, header, dtype, skiprows=int(dtype is not None))
            except ValueError:
                pass
            else:
                # blank lines are skipped by the reader as by the filter,
                # and a '#' line fails every numeric first column; only an
                # id column can hold one as a row
                if dtype is None or "id" not in dtype.names or not any(
                        uid.startswith("#") for uid in data["id"].tolist()):
                    return header, data
    fh.seek(0)
    where = [0]  # number of the last line read, for error messages
    lines = (line for where[0], line in enumerate(fh, start=1) if _is_row(line))
    first = next(lines, "")
    header = [c.strip() for c in first.split(",")]
    dtype = row_dtype(header)
    head = first if dtype is None else next(lines, "")
    if not head:
        raise DataValidationError(f"{path}: no data rows")
    try:
        data = _parse(itertools.chain([head], lines), header, dtype)
    except UnicodeDecodeError:
        raise
    except ValueError as exc:
        cause = exc.__cause__  # numpy wraps what a converter raises
        reason = (str(cause) if isinstance(cause, DataValidationError)
                  else str(exc).split(" at row ")[0])
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


def _build(path, cls, **arrays):
    """``cls(**arrays)``, with the file named in a validation error."""
    try:
        return cls(**arrays)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc


def read_outcome_csv(path):
    """Outcome units: header id,y[,person_years],x1..xp."""
    ids, y, py, x = _read_units(path, "y", "person_years")
    return ids, _build(path, OutcomeTable, x=x, y=y, person_years=py)


def read_intervention_csv(path):
    """Intervention units: header id,a[,cost],z1..zq.

    Blank cost cells read as NaN, to be imputed: the table then has
    cost=None and the raw column is handed back separately.  A cost cell
    that is not blank must be a finite number >= 0.
    """
    ids, a, raw_cost, x = _read_units(path, "a", "cost")
    cost = raw_cost if raw_cost is not None and not np.any(np.isnan(raw_cost)) else None
    return ids, _build(path, InterventionTable, x=x, a=a, cost=cost), raw_cost


def _transport_dtype(header):
    """``_load``'s row dtype of a transport file: a triplet row, else None (dense)."""
    if header[:3] != ["i", "j", "value"]:
        return None
    return np.dtype([("i", np.int64), ("j", np.int64), ("value", float)])


class _Parsing(str):
    """The path of a regular transport file, which a child forked here parses
    with the caller.

    The file is cut after the line that holds the byte at three quarters of
    its size.  The child parses the lines before the cut, from a temporary
    copy of them, with ``_load``'s reader, and sends the header and rows
    down a pipe.  ``take``, called where the file would be read, parses the
    lines after the cut while the child may still run, then joins the two
    parts.  numpy parses each line on its own, so the joined rows are the
    bits that the whole file gives.  Where no child starts, a part fails,
    or the parts do not join, ``take`` gives None, and the reader reads the
    whole file itself, with the messages it always gives.
    """

    def __init__(self, path):
        import pickle

        self.pid = self.fd = None
        fds = ()
        try:
            fds = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        if pid == 0:  # the child, which never returns
            code = 1
            try:
                os.close(fds[0])
                with open(path, "rb") as raw:
                    cut = self.cut(raw)
                    raw.seek(0)
                    with _copied(raw.read(cut), "utf-8-sig") as fh:
                        parsed = _load_open(fh, path, _transport_dtype)
                with os.fdopen(fds[1], "wb") as pipe:
                    pickle.dump(parsed, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        os.close(fds[1])
        self.pid, self.fd = pid, fds[0]

    @staticmethod
    def cut(raw):
        """The offset of the cut in the binary file ``raw``, which is left there."""
        raw.seek(os.fstat(raw.fileno()).st_size * 3 // 4)
        raw.readline()
        return raw.tell()

    def _tail(self):
        """Rows of the lines after the cut, as the whole file's first pass
        parses them: () where they are blank, None where they fail, the
        temporary copy included."""
        try:
            with open(self, "rb") as raw:
                first = raw.readline()
                self.cut(raw)
                tail = raw.read()
            if not tail.strip():
                return ()
            if tail.startswith(b"\xef\xbb\xbf"):  # a mark that numpy would drop here
                return None
            header = [c.strip() for c in first.decode("utf-8-sig").split(",")]
            with _copied(tail, "utf-8") as fh:
                return _parse(_by_descriptor(fh) or fh, header, _transport_dtype(header))
        except (OSError, ValueError):  # UnicodeDecodeError included
            return None

    def take(self):
        """The header and rows of the whole file, waiting for the child's
        part; None where no child ran, a part failed or they do not join."""
        import pickle

        if self.pid is None:
            return None
        tail = self._tail()
        fd, self.fd = self.fd, None
        try:
            with os.fdopen(fd, "rb") as pipe:
                parsed = pickle.load(pipe)
        except Exception:  # the child sent nothing, or not all of it
            parsed = None
        pid, self.pid = self.pid, None
        if os.waitpid(pid, 0)[1] != 0 or parsed is None or tail is None:
            return None
        if not len(tail):
            return parsed
        header, head = parsed
        if head.dtype != tail.dtype or head.shape[1:] != tail.shape[1:]:
            return None  # a header only the filtered reread reads, or rows of two lengths
        return header, np.concatenate([head, tail])

    def stop(self):
        """Close the pipe, and kill and reap the child unless ``take`` did."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


@contextmanager
def parsing_in_child(path, fork):
    """``path``, which a forked child parses in part as a transport file while the block runs.

    The block gets a ``_Parsing`` of ``path`` where ``fork`` is true, the
    platform can fork and ``path`` is a regular file, else ``path`` itself;
    ``read_interference_csv`` parses the rest of a ``_Parsing`` and joins it
    to the child's part.  A pipe stays with the caller: once a child had
    read it, it could not be read again.  Whatever the block does, the
    child is reaped on the way out, and killed first if it still runs.
    """
    try:
        fork = fork and hasattr(os, "fork") and stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # a missing file fails where the reader opens it
        fork = False
    parsing = _Parsing(path) if fork else path
    try:
        yield parsing
    finally:
        if fork:
            parsing.stop()


def read_interference_csv(path, n, j):
    """Dense (n rows x J numeric columns) or triplet (header i,j,value).

    A dense file is held as a numpy array, a triplet file, its rows in any
    order, as a sparse ``InterferenceMap``, which sorts and checks the
    triplets; neither imports scipy.  A ``path`` from ``parsing_in_child``
    is read in two parts, by its child and here (``_Parsing.take``).
    """
    parsed = path.take() if isinstance(path, _Parsing) else None
    _, data = parsed or _load(path, _transport_dtype)
    if data.dtype.names is None:
        if data.shape != (n, j):
            raise DataValidationError(f"{path}: matrix shape {data.shape}, expected ({n}, {j})")
        return _build(path, InterferenceMap, h=data)
    return _build(path, InterferenceMap, rows=data["i"], cols=data["j"], data=data["value"],
                  shape=(n, j))


EFFECTS_COLUMNS = ("id", "total_effect", "se", "p_one_sided", "ci_low", "ci_high",
                   "benefit_cost", "structural_zero")


def write_effects_csv(path, ids, table):
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


def write_policy_json(path, sol, ids, value_count):
    """``sol`` by unit id, with its count-scale value ``value_count`` (or None)."""
    doc = {
        "format": "bnpolicy-policy v1",
        "method": sol.method,
        "budget": None if np.isinf(sol.budget) else sol.budget,
        "spent": sol.spent,
        "value_rate": sol.value_rate,
        "value_count": value_count,
        "allocation": {str(uid): float(sol.pi[k]) for k, uid in enumerate(ids)},
    }
    _write(path, [json.dumps(doc, indent=2, sort_keys=True)])


def write_sweep_csv(path, fractions, pairs, bc_leq_te):
    """A row per fraction with its flag in ``bc_leq_te``; the footer is all of them."""
    lines = [f"{FORMAT_PREFIX}sweep v1",
             "fraction,bc_value_rate,bc_spent,te_value_rate,te_spent,bc_leq_te"]
    for f, (bc_sol, te_sol), flag in zip(fractions, pairs, bc_leq_te):
        lines.append(",".join([
            _fmt(f), _fmt(bc_sol.value_rate), _fmt(bc_sol.spent),
            _fmt(te_sol.value_rate), _fmt(te_sol.spent), str(int(flag))]))
    lines.append(f"# dominance_holds={int(all(bc_leq_te))}")
    _write(path, lines)


def _json_number(x: float) -> float | None:
    """``x``, or None (JSON null) if not finite: strict JSON has neither NaN nor
    Infinity, and a cell whose every replication failed has NaN means."""
    return x if np.isfinite(x) else None


def sim_report_to_dict(report) -> dict:
    return {
        "format": "bnpolicy-sim-report v1",
        "master_seed": report.master_seed,
        "reps": report.reps,
        "theta0": [float(v) for v in report.theta0],
        "gamma0_slopes": [float(v) for v in report.gamma0_slopes],
        "cells": {
            name: {
                "bias": _json_number(stats.mean_bias),
                "rmse": _json_number(stats.mean_rmse),
                "coverage_pct": _json_number(stats.mean_coverage),
                "n_ok": stats.n_ok,
                "n_failed": stats.n_failed,
            } for name, stats in report.cells.items()
        },
    }


def write_sim_report(json_path, txt_path, report) -> str:
    """Write the JSON report and the text table; the text of the table."""
    from .simlab import CELLS  # the lab owns the cells and their labels

    _write(json_path, [json.dumps(sim_report_to_dict(report), indent=2, sort_keys=True)])
    rows = [["Method", "BS", "PS", "Bias", "RMSE", "Coverage", "Failed"]]
    for name, stats in report.cells.items():
        rows.append([*CELLS[name].labels(), _fmt_human(stats.mean_bias),
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
