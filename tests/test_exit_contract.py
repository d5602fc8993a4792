"""The exit-code contract of the bundle commands and of ``impute-costs``, on
generated malformed input.

Each example mutates one file of the benchmark's smoke bundle (n=600, J=40,
H as triplets): a cell (to a number, text or bytes that are not UTF-8), a
row, a column, a unit id or a triplet index.  It
then runs one bundle command in process.  The ``impute-costs`` examples make
the same mutations, but the triplet index, to the smoke plant table (40
plants, 14 costs blank).  Whatever the input:

- the exit code is 0, 2, 3 or 4, and no exception escapes ``main``;
- a nonzero exit prints one line and writes no output file;
- a zero exit writes finite numbers only, apart from the documented NaN
  ``benefit_cost`` of a unit whose cost is not positive.
"""
import contextlib
import io
import json
import math
import pathlib
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bnpolicy.cli import main
from bnpolicy.io import read_intervention_csv

@pytest.fixture(scope="module")
def smoke(tmp_path_factory, write_smoke):
    """The directory of the smoke bundle's outcomes.csv, interventions.csv and h.csv."""
    return write_smoke(tmp_path_factory.mktemp("contract"), "write_bundle")


@pytest.fixture(scope="module")
def smoke_plants(tmp_path_factory, write_smoke):
    """The smoke plant table with blank costs, plants_missing_cost.csv."""
    root = write_smoke(tmp_path_factory.mktemp("plants"), "write_plants")
    return root / "plants_missing_cost.csv"


# "\udcff\udcfe" is written by surrogateescape as the bytes ff fe: not UTF-8 text
CELLS = ["1e308", "-1e308", "1e300", "1e-300", "5e-324", "0", "-1", "nan", "inf", "-inf",
         "abc", "", "\udcff\udcfe"]
ROW = st.integers(1, 10**6)  # taken modulo the number of data rows
FILES = st.sampled_from(["outcomes", "interventions", "h"])
MUTATIONS = st.one_of(
    st.tuples(st.just("cell"), FILES, ROW, st.integers(0, 10), st.sampled_from(CELLS)),
    st.tuples(st.just("drop"), FILES, ROW),
    st.tuples(st.just("repeat"), FILES, ROW),
    st.tuples(st.just("same_id"), st.sampled_from(["outcomes", "interventions"]), ROW, ROW),
    st.tuples(st.just("index"), st.just("h"), ROW, st.sampled_from([0, 1]),
              st.sampled_from(["-1", "n", "j", "1.5", "2e0"])),
    st.tuples(st.sampled_from(["drop_column", "add_column"]), FILES, st.integers(0, 10)),
)
PLANT_MUTATIONS = st.one_of(  # the bundle's, on the one plant table
    st.tuples(st.just("cell"), st.just("plants"), ROW, st.integers(0, 10),
              st.sampled_from(CELLS)),
    st.tuples(st.just("drop"), st.just("plants"), ROW),
    st.tuples(st.just("repeat"), st.just("plants"), ROW),
    st.tuples(st.just("same_id"), st.just("plants"), ROW, ROW),
    st.tuples(st.sampled_from(["drop_column", "add_column"]), st.just("plants"),
              st.integers(0, 10)),
)
COMMANDS = st.sampled_from([
    ["effects", "--estimator", "a"],
    ["effects", "--estimator", "q", "--trim", "0.05"],
    ["fit", "--estimator", "a"],
    ["fit", "--estimator", "q", "--f0-basis", "quadratic", "--fa-basis", "quadratic"],
    ["policy", "--estimator", "a", "--budget-frac", "0.2"],
    ["policy", "--estimator", "q"],
    ["sweep", "--estimator", "a", "--prop-basis", "quadratic"],
])


def _mutate(lines, mutation):
    """(file edited, its new lines) for one mutation of the bundle's lines."""
    kind, name, row, *rest = mutation
    rows = list(lines[name])
    if kind.endswith("column"):  # in every line, the header too
        table = [line.split(",") for line in rows]
        at = row % len(table[0])
        for cells in table:
            if kind == "drop_column":
                del cells[at]
            else:
                cells.insert(at, "extra" if cells is table[0] else "1.5")
        return name, [",".join(cells) for cells in table]
    k = 1 + row % (len(rows) - 1)  # a data row, never the header
    cells = rows[k].split(",")
    if kind == "cell":
        cells[rest[0] % len(cells)] = rest[1]
        rows[k] = ",".join(cells)
    elif kind == "drop":
        del rows[k]
    elif kind == "repeat":
        rows.insert(k, rows[k])
    elif kind == "same_id":
        cells[0] = rows[1 + rest[0] % (len(rows) - 1)].split(",")[0]
        rows[k] = ",".join(cells)
    else:  # a triplet's row or column index out of its range, or not an integer
        at, value = rest
        size = {"n": len(lines["outcomes"]) - 1, "j": len(lines["interventions"]) - 1}
        cells[at] = str(size.get(value, value))
        rows[k] = ",".join(cells)
    return name, rows


def _number(text):
    if text.startswith("np.float64(") and text.endswith(")"):  # importance.csv's cells
        text = text[len("np.float64("):-1]
    try:
        return float(text)
    except ValueError:
        return None


def _assert_finite_outputs(out_dir, plants):
    """Every number written is finite, but a benefit_cost where the cost is <= 0."""
    _, _, raw_cost = read_intervention_csv(plants)
    for path in sorted(out_dir.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"{path.name}: {c}"))
            values = [doc["spent"], doc["value_rate"], *doc["allocation"].values()]
            values += [doc[key] for key in ("budget", "value_count") if doc[key] is not None]
            assert all(math.isfinite(v) for v in values), (path.name, doc)
            continue
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        header = rows[0]
        for k, row in enumerate(rows[1:]):
            for name, cell in zip(header, row):
                value = None if name in ("id", "name") else _number(cell)  # ids may read "nan"
                if value is None or math.isfinite(value):
                    continue
                assert name == "benefit_cost" and raw_cost[k] <= 0, (path.name, k, name, cell)


def _run(argv, out_dir):
    """(exit code, everything printed) of one command run in process."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main([*argv, "--out-dir", str(out_dir)])
    return code, printed.getvalue()


def _assert_the_contract(code, said, out_dir, plants):
    """The module docstring's three assertions on a finished command; then
    its outputs are removed."""
    try:
        assert code in (0, 2, 3, 4), said
        if code:
            assert said.count("\n") == 1, said
            assert not out_dir.exists(), said
        else:
            _assert_finite_outputs(out_dir, plants)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutation=MUTATIONS, command=COMMANDS)
def test_every_bundle_command_keeps_the_exit_code_contract(smoke, mutation, command):
    paths = {name: str(smoke / f"{name}.csv") for name in ("outcomes", "interventions", "h")}
    lines = {name: pathlib.Path(path).read_text(encoding="utf-8").splitlines()
             for name, path in paths.items()}
    name, edited = _mutate(lines, mutation)
    paths[name] = str(smoke / "edited.csv")
    with open(paths[name], "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write("\n".join(edited) + "\n")
    out_dir = smoke / "out"
    _assert_the_contract(*_run([*command, "--outcomes", paths["outcomes"], "--interventions",
                                paths["interventions"], "--h", paths["h"]], out_dir),
                         out_dir, paths["interventions"])


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutation=PLANT_MUTATIONS)
def test_impute_costs_keeps_the_exit_code_contract(smoke_plants, mutation):
    _, edited = _mutate({"plants": smoke_plants.read_text(encoding="utf-8").splitlines()},
                        mutation)
    path = smoke_plants.with_name("edited.csv")
    path.write_text("\n".join(edited) + "\n", encoding="utf-8", errors="surrogateescape")
    out_dir = smoke_plants.with_name("out")
    _assert_the_contract(*_run(["impute-costs", "--interventions", str(path), "--seed", "3"],
                               out_dir), out_dir, str(path))
