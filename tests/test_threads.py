"""BLAS thread pinning, the forked workers of the study and the cost forest,
reports that depend on neither, and the child that a bundle command forks
to parse its transport file."""
import glob
import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

import bnpolicy
from bnpolicy import (DataValidationError, RegressionForest, SimConfig, _blas, cli,
                      costimpute, run_monte_carlo)
from bnpolicy import io as bio
from bnpolicy._blas import map_in_order, one_blas_thread
from bnpolicy.costimpute import _bagged_block
from bnpolicy.cli import main
from bnpolicy.io import sim_report_to_dict

SMALL = SimConfig(n=300, j=30, p=2, q=2, reps=4, master_seed=5)


def _counts():
    return [get() for _, get, _ in _blas._openblas()]


@pytest.fixture
def libs():
    """The bundled OpenBLAS libraries, both loaded (scipy's by ``_lapack``) and
    each set to 2 threads for the test."""
    _blas._lapack()
    found = _blas._openblas()
    if not found:
        pytest.skip("no bundled OpenBLAS found")
    before = [get() for _, get, _ in found]
    for _, _, put in found:
        put(2)
    yield [path for path, _, _ in found]
    for (_, _, put), count in zip(found, before):
        put(count)


def test_pins_every_library_to_one_thread_and_restores(libs):
    with one_blas_thread() as pinned:
        assert pinned == [(path, 2) for path in libs]
        assert _counts() == [1] * len(libs)
    assert _counts() == [2] * len(libs)


def test_restores_the_caller_count_after_an_exception(libs):
    with pytest.raises(ZeroDivisionError):
        with one_blas_thread():
            assert _counts() == [1] * len(libs)
            1 / 0
    assert _counts() == [2] * len(libs)


def test_nested_use_restores_each_level(libs, tmp_path):
    with one_blas_thread():
        with one_blas_thread() as inner:
            assert inner == [(path, 1) for path in libs]
        assert _counts() == [1] * len(libs)
    assert _counts() == [2] * len(libs)
    # simulate nests map_in_order's pin inside cli.main's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 300, "j": 30, "p": 2, "q": 2, "reps": 1}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert _counts() == [2] * len(libs)


def test_does_nothing_when_no_openblas_is_found(libs, monkeypatch, tmp_path):
    monkeypatch.setattr(_blas, "_library_dirs", lambda: [str(tmp_path)])
    with one_blas_thread() as pinned:
        assert pinned == []
        monkeypatch.undo()
        assert _counts() == [2] * len(libs)


class _StubLibrary:
    """A library's (get, set) pair that records every set call."""

    def __init__(self, count):
        self.count, self.calls = count, []

    def get(self):
        return self.count

    def put(self, count):
        self.calls.append(count)
        self.count = count


def test_a_nested_pin_calls_no_setter(monkeypatch):
    stubs = [_StubLibrary(2), _StubLibrary(1)]
    monkeypatch.setattr(_blas, "_openblas",
                        lambda: [(str(i), s.get, s.put) for i, s in enumerate(stubs)])
    with one_blas_thread():
        assert [s.calls for s in stubs] == [[1], []]
        with one_blas_thread() as inner:
            assert inner == [("0", 1), ("1", 1)]
        assert [s.calls for s in stubs] == [[1], []]
    assert [s.calls for s in stubs] == [[1, 2], []]


def test_the_serial_branch_runs_at_one_blas_thread(libs):
    """One worker runs the items in this process, pinned as a forked worker is."""
    assert map_in_order(lambda _: _counts(), range(2), 1) == [[1] * len(libs)] * 2
    assert _counts() == [2] * len(libs)


def _worker_threads(_):
    return len(os.listdir("/proc/self/task")), _counts()


def test_forked_workers_inherit_one_blas_thread_and_start_no_helper(libs):
    """A count set in a forked worker would restart OpenBLAS's thread server
    there, one spinning helper thread per library; inherited, it starts none."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count a worker's threads")
    if _blas.usable_cpus() < 2:
        pytest.skip("map_in_order runs serially on one CPU")
    assert map_in_order(_worker_threads, range(2), 2) == [(1, [1] * len(libs))] * 2
    assert _counts() == [2] * len(libs)


@pytest.mark.parametrize("n_workers", [0, -1, 2.5, True])
def test_run_monte_carlo_rejects_a_worker_count_below_one(n_workers):
    with pytest.raises(DataValidationError,
                       match=f"n_workers must be a positive integer, got {n_workers!r}"):
        run_monte_carlo(SMALL, n_workers=n_workers)


@pytest.mark.parametrize("n_workers", [0, 2.5, True])
def test_map_in_order_rejects_a_worker_count_that_is_not_a_positive_integer(n_workers):
    # checked before any item runs: a bool is not a worker count
    ran = []
    with pytest.raises(DataValidationError,
                       match=f"^n_workers must be a positive integer, got {n_workers!r}$"):
        map_in_order(ran.append, range(2), n_workers)
    assert ran == []


# one entry for each process this one forks (a fork handler cannot be
# removed, so it is registered once, and ``count_forks`` empties the list)
_FORKS = []
os.register_at_fork(after_in_parent=lambda: _FORKS.append(1))


@pytest.fixture
def count_forks():
    """The list that gets one entry for each process this one forks during the test."""
    _FORKS.clear()
    return _FORKS


def _set_usable_cpus(monkeypatch, cpus):
    """CPUs in the affinity mask; None: no affinity call and an unknown CPU count."""
    if cpus is None:
        monkeypatch.delattr(_blas.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(_blas.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(_blas.os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("n_workers, cpus, expected", [
    (5000, 8, 4),     # capped by the 4 replications
    (5000, 3, 3),     # capped by the usable CPUs
    (2, 8, 2),
    (5000, 1, 0),     # one usable CPU: serial
    (5000, None, 0),  # no affinity mask and unknown CPU count: serial
    (1, 8, 0),
])
def test_the_study_forks_at_most_one_worker_per_rep_and_per_cpu(
        monkeypatch, count_forks, n_workers, cpus, expected):
    _set_usable_cpus(monkeypatch, cpus)
    report = run_monte_carlo(SMALL, n_workers=n_workers)
    assert len(count_forks) == expected
    _assert_no_child_left()
    monkeypatch.undo()
    assert sim_report_to_dict(report) == sim_report_to_dict(run_monte_carlo(SMALL))


def _forest_fit(n_workers):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 3))
    y = x[:, 0] ** 2 + rng.standard_normal(60) * 0.1
    forest = RegressionForest(n_trees=12, seed=11, n_workers=n_workers).fit(x, y)
    return forest.predict(rng.standard_normal((10, 3))).tolist(), forest.importance_.tolist()


@pytest.mark.parametrize("n_workers, cpus, expected", [
    (5000, 64, 12),    # capped by the 12 trees, in blocks of one
    (5000, 3, 3),      # capped by the usable CPUs: three blocks of 4 trees
    (2, 8, 2),         # two blocks of 6 trees
    (5000, 1, 0),      # one usable CPU: serial
    (5000, None, 0),   # no affinity mask and unknown CPU count: serial
    (1, 8, 0),
])
def test_the_forest_forks_at_most_one_worker_per_tree_and_per_cpu(
        monkeypatch, count_forks, n_workers, cpus, expected):
    _set_usable_cpus(monkeypatch, cpus)
    fit = _forest_fit(n_workers)
    assert len(count_forks) == expected
    _assert_no_child_left()
    monkeypatch.undo()
    assert fit == _forest_fit(1)


def test_the_items_run_in_this_process_where_the_platform_cannot_fork(monkeypatch, count_forks):
    """Spawned workers would import the package again, which costs about what
    a forest saves on two cores; so without fork the items run in-process."""
    _set_usable_cpus(monkeypatch, 8)
    monkeypatch.delattr(os, "fork")
    assert map_in_order(lambda _: os.getpid(), range(4), 2) == [os.getpid()] * 4
    fit = _forest_fit(2)
    report = run_monte_carlo(SMALL, n_workers=2)
    assert count_forks == []
    monkeypatch.undo()
    assert fit == _forest_fit(1)
    assert sim_report_to_dict(report) == sim_report_to_dict(run_monte_carlo(SMALL))


@pytest.fixture
def two_cpus():
    if _blas.usable_cpus() < 2 or not hasattr(os, "fork"):
        pytest.skip("map_in_order forks workers only on two CPUs or more")
    yield
    _assert_no_child_left()


def _slow_first(item):
    """(item, worker pid); the first item takes half a second, the others no time."""
    if item == 0:
        time.sleep(0.5)
    return item, os.getpid()


def test_workers_take_chunks_as_they_finish_and_results_come_in_item_order(two_cpus, count_forks):
    # 16 items on 2 workers are 8 chunks of 2: while one worker runs the slow
    # first chunk, the other takes all the rest
    seen = map_in_order(_slow_first, range(16), 2)
    assert [item for item, _ in seen] == list(range(16)) and len(count_forks) == 2
    slow, fast = seen[0][1], seen[2][1]
    assert os.getpid() not in (slow, fast) and slow != fast
    assert [pid for _, pid in seen] == [slow] * 2 + [fast] * 14


def test_a_result_larger_than_a_pipe_buffer_comes_back_from_every_worker(two_cpus):
    results = map_in_order(lambda item: bytes([item]) * (1 << 20), range(4), 2)
    assert results == [bytes([item]) * (1 << 20) for item in range(4)]


def _fails_at_2_and_9(item):
    """Item 2 fails late with a ValueError, item 9 at once with a ZeroDivisionError."""
    if item == 2:
        time.sleep(0.2)
        raise ValueError("item 2 is out of range")
    return 1 / (item - 9)


def test_the_first_failing_items_exception_is_raised_with_its_type_and_message(two_cpus):
    with pytest.raises(ValueError, match="^item 2 is out of range$"):
        map_in_order(_fails_at_2_and_9, range(16), 2)
    with pytest.raises(ZeroDivisionError):
        map_in_order(_fails_at_2_and_9, range(3, 16), 2)


def _killed_at_3(item):
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def test_a_worker_killed_by_a_signal_is_an_error_and_leaves_no_child(two_cpus):
    with pytest.raises(RuntimeError, match=f"exit code -{int(signal.SIGKILL)} before it sent"):
        map_in_order(_killed_at_3, range(16), 2)


def test_an_interrupt_in_the_caller_kills_and_reaps_every_worker(two_cpus, monkeypatch):
    def interrupted(real, *args):
        raise KeyboardInterrupt

    monkeypatch.setattr(*_failing(pickle, "loads", interrupted, where="parent"))
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_in_order(lambda item: item if item == 0 else time.sleep(30), range(4), 2)
    assert time.monotonic() - started < 10


class _CountedBlock(costimpute._Block):
    """A packed block that carries the BLAS thread counts of the process that grew it."""


def _block_with_blas_counts(*args):
    block = _CountedBlock(*_bagged_block(*args))
    block.blas_counts = _counts()
    return block


def test_forest_pool_workers_run_one_blas_thread(libs, monkeypatch):
    if _blas.usable_cpus() < 2:
        pytest.skip("the forest grows its trees serially on one CPU")
    monkeypatch.setattr(costimpute, "_bagged_block", _block_with_blas_counts)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((40, 3)), rng.standard_normal(40)
    forest = RegressionForest(n_trees=8, n_workers=2).fit(x, y)
    assert [block.roots.shape[0] for block in forest.blocks] == [4, 4]
    assert [block.blas_counts for block in forest.blocks] == [[1] * len(libs)] * 2
    assert _counts() == [2] * len(libs)


def _run_probe(probe, *argv, **env):
    """The JSON that ``probe`` prints last, run in a fresh interpreter that
    imports the package from this checkout."""
    src = os.path.dirname(os.path.dirname(bnpolicy.__file__))
    done = subprocess.run([sys.executable, "-c", probe, *argv],
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


def _scipy_openblas():
    found = [path for libdir in _blas._library_dirs(("scipy",))
             for path in glob.glob(os.path.join(libdir, "*openblas*.so*"))]
    if not found:
        pytest.skip("scipy bundles no OpenBLAS here")


# a probe that runs one command, then lists the files of scipy's bundled
# libraries mapped into its process
MAPS_PROBE = """
import json, os, sys
from bnpolicy import _blas
from bnpolicy.cli import main
code = main(sys.argv[1:])
libdirs = [os.path.realpath(d) + os.sep for d in _blas._library_dirs(("scipy",))]
with open("/proc/self/maps") as fh:
    mapped = {line.split()[-1] for line in fh if line.split()[-1].startswith(tuple(libdirs))}
print(json.dumps([code, sorted(os.path.basename(path) for path in mapped)]))
"""


@pytest.mark.parametrize("command, maps_lapack", [
    (["impute-costs", "--interventions", "{plants}"], False),
    (["effects", "--estimator", "a", *"--outcomes {outcomes} --interventions "
      "{interventions} --h {h}".split()], False),
    (["fit", "--estimator", "q", *"--outcomes {outcomes} --interventions "
      "{interventions} --h {h}".split()], True),  # runs the pivoted QR
], ids=["impute-costs", "effects-a", "fit-q"])
def test_only_a_command_that_runs_lapack_maps_scipys_openblas(
        tmp_path, write_smoke, command, maps_lapack):
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to list a process's mapped files")
    _scipy_openblas()
    write_smoke(tmp_path, "write_bundle")
    write_smoke(tmp_path, "write_plants")
    files = {name: str(tmp_path / f"{name}.csv") for name in ("outcomes", "interventions", "h")}
    files["plants"] = str(tmp_path / "plants_missing_cost.csv")
    argv = [arg.format(**files) for arg in command]
    code, mapped = _run_probe(MAPS_PROBE, *argv, "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert bool(mapped) == maps_lapack, mapped


# a probe that loads scipy's OpenBLAS through _lapack, outside any pin or
# inside two nested ones, and reads that library's thread count at each step
LOAD_PROBE = """
import json, sys
from bnpolicy import _blas
libdirs = tuple(_blas._library_dirs(("scipy",)))

def counts():
    return [get() for path, get, _ in _blas._openblas() if path.startswith(libdirs)]

seen = {"before": counts()}
if sys.argv[1] == "outside":
    _blas._lapack()
else:
    with _blas.one_blas_thread():
        with _blas.one_blas_thread():
            _blas._lapack()
            seen["inner"] = counts()
        seen["outer"] = counts()
seen["after"] = counts()
print(json.dumps(seen))
"""


def test_a_library_that_lapack_loads_inside_a_pin_runs_on_one_thread():
    _scipy_openblas()
    seen = _run_probe(LOAD_PROBE, "inside", OPENBLAS_NUM_THREADS="2")
    assert seen["before"] == []  # scipy's library is loaded by _lapack, not before
    assert seen["inner"] == [1] and seen["outer"] == [1]


def test_the_outermost_pin_restores_the_count_a_library_had_when_it_loaded():
    _scipy_openblas()
    loaded = _run_probe(LOAD_PROBE, "outside", OPENBLAS_NUM_THREADS="2")
    seen = _run_probe(LOAD_PROBE, "inside", OPENBLAS_NUM_THREADS="2")
    assert loaded["before"] == seen["before"] == []
    assert len(loaded["after"]) == 1
    assert seen["after"] == loaded["after"]


# a probe that digests the pivoted QR of a 30000 x 20 array, first inside a
# pin (so scipy's OpenBLAS loads inside it), then outside it
QR_PROBE = """
import hashlib, json
import numpy as np
from bnpolicy import _blas
a = np.random.default_rng(0).standard_normal((30000, 20))

def digest():
    return hashlib.sha256(b"".join(part.tobytes() for part in _blas.pivoted_qr(a))).hexdigest()

with _blas.one_blas_thread():
    pinned = digest()
print(json.dumps({"pinned": pinned, "unpinned": digest()}))
"""


def test_a_pinned_pivoted_qr_gives_the_one_thread_bits_where_two_threads_change_them():
    """From about 30000 x 20 on, the QR's bits move with the BLAS thread
    count, so only the pin that ``_lapack`` sets on load keeps them."""
    _scipy_openblas()
    if _blas.usable_cpus() < 2:
        pytest.skip("OpenBLAS runs one thread on one CPU")
    reference = _run_probe(QR_PROBE, OPENBLAS_NUM_THREADS="1")
    seen = _run_probe(QR_PROBE, OPENBLAS_NUM_THREADS="2")
    assert reference["pinned"] == reference["unpinned"]
    assert seen["pinned"] == reference["pinned"]
    assert seen["unpinned"] != reference["pinned"]


@pytest.mark.parametrize("n_workers", [0, -1, 2.5])
def test_the_forest_rejects_a_worker_count_below_one(n_workers):
    with pytest.raises(DataValidationError,
                       match=f"n_workers must be a positive integer, got {n_workers!r}"):
        RegressionForest(n_trees=4, n_workers=n_workers).fit(np.eye(6), np.arange(6.0))


def _write_bundle(root, n, j, deg, seed=3):
    """Outcome (with person-years), plant and triplet CSVs; quadratic truth."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    z = rng.standard_normal((j, 3))
    a = (rng.random(j) < 1.0 / (1.0 + np.exp(1.5 - z[:, 0]))).astype(float)
    cost = np.exp(0.5 + 0.4 * z[:, 1] + 0.2 * rng.standard_normal(j))
    cols = (rng.integers(0, j, n)[:, None] + (j // deg) * np.arange(deg)) % j
    vals = (j / deg) * rng.lognormal(-0.28, 0.75, (n, deg))
    abar = (vals * a[cols]).sum(axis=1) / j
    quad = np.hstack([np.ones((n, 1)), x, x**2])
    alpha = np.array([0.3, 0.1, -0.05, 0.08, 0.02, -0.03, 0.01])
    beta = np.array([-0.01, 0.0025, -0.00125, 0.00125, 0.0005, 0.00025, -0.0005])
    y = quad @ alpha + abar * (quad @ beta) + 0.1 * rng.standard_normal(n)
    years = rng.uniform(500.0, 20000.0, n)
    out = ["id,y,person_years,x1,x2,x3"]
    out += [f"o{i}," + ",".join(map(repr, [yi, pi, *xi]))
            for i, (yi, pi, xi) in enumerate(zip(y.tolist(), years.tolist(), x.tolist()))]
    plants = ["id,a,cost,z1,z2,z3"]
    plants += [f"p{k},{ak:.0f}," + ",".join(map(repr, [ck, *zk]))
               for k, (ak, ck, zk) in enumerate(zip(a, cost.tolist(), z.tolist()))]
    triplets = ["i,j,value"]
    triplets += [f"{i},{c},{v!r}" for i, (cr, vr) in enumerate(zip(cols.tolist(), vals.tolist()))
                 for c, v in zip(cr, vr)]
    paths = {}
    for name, lines in (("outcomes", out), ("interventions", plants), ("h", triplets)):
        paths[name] = root / f"{name}.csv"
        paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def test_reports_are_identical_for_any_worker_and_blas_thread_count(tmp_path):
    # n=12000 is large enough that OpenBLAS splits the fits' products across
    # threads, so without the pin effects.csv and policy.json differ between
    # one and two BLAS threads on a 2-core host; a small bundle would not.
    paths = _write_bundle(tmp_path, n=12000, j=100, deg=6)
    bundle = ["--outcomes", str(paths["outcomes"]),
              "--interventions", str(paths["interventions"]), "--h", str(paths["h"]),
              "--estimator", "a", "--f0-basis", "quadratic", "--fa-basis", "quadratic"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 600, "j": 40, "p": 2, "q": 2, "reps": 4,
                               "master_seed": 5}))
    src = os.path.dirname(os.path.dirname(bnpolicy.__file__))
    base = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    runs = {}
    for threads in ("1", "2"):
        for blas in ("1", None):
            env = dict(base, PYTHONPATH=src)
            if blas is not None:
                env["OPENBLAS_NUM_THREADS"] = blas
            out_dir = tmp_path / f"w{threads}_b{blas}"
            for argv in (["effects", *bundle],
                         ["fit", *bundle, "--estimator", "q"],
                         ["policy", *bundle, "--budget-frac", "0.3"],
                         ["simulate", "--config", str(cfg), "--threads", threads]):
                subprocess.run([sys.executable, "-m", "bnpolicy.cli", *argv,
                                "--out-dir", str(out_dir)],
                               env=env, check=True, capture_output=True, timeout=300)
            runs[out_dir.name] = {f: (out_dir / f).read_bytes()
                                  for f in sorted(os.listdir(out_dir))}
    first, *rest = runs.values()
    assert sorted(first) == ["effects.csv", "outcome_coefficients.csv", "policy.json",
                             "sim_report.json", "sim_report.txt"]
    for other in rest:
        assert other == first


# a probe that runs the study on a p = 13 config, the lab's reference shape,
# with 2 workers and then 1, and digests each report
REFERENCE_SHAPE_PROBE = """
import hashlib, json
from bnpolicy import SimConfig, run_monte_carlo
from bnpolicy.io import sim_report_to_dict
config = SimConfig(n=800, j=60, p=13, q=3, reps=2, master_seed=5)
reports = [sim_report_to_dict(run_monte_carlo(config, n_workers=n)) for n in (2, 1)]
print(json.dumps([hashlib.sha256(json.dumps(r).encode()).hexdigest() for r in reports]))
"""


def test_the_study_at_the_reference_shape_has_the_same_bits_for_any_worker_and_blas_thread_count():
    """At p = 13 (54 columns under quadratic bases) two BLAS threads change a
    fit's bits, so only ``map_in_order``'s own pin keeps the report; the
    command-line test above cannot see that pin, since ``cli.main`` pins BLAS
    around every command."""
    if _blas.usable_cpus() < 2:
        pytest.skip("OpenBLAS runs one thread on one CPU")
    digests = [digest for threads in ("1", "2")
               for digest in _run_probe(REFERENCE_SHAPE_PROBE, OPENBLAS_NUM_THREADS=threads)]
    assert len(digests) == 4 and len(set(digests)) == 1, digests


BUNDLE_COMMANDS = (["fit"], ["effects"], ["policy", "--budget-frac", "0.2"], ["sweep"])


def _edited(path, edit, name):
    """A copy of the text file ``path``, named ``name``, with ``edit`` applied to its lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    copy = path.with_name(name)
    copy.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return copy


def _dense(lines):
    """The lines of a dense file holding the transport map of triplet lines."""
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
    h = np.zeros((i.max() + 1, j.max() + 1))
    h[i, j] = rows[:, 2]
    return [",".join(map(repr, row)) for row in h.tolist()]


def _on_cpus(monkeypatch, cpus):
    """Bundle commands run as on ``cpus`` usable CPUs: with more than one, they fork."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)


def _bundle_argv(files, h):
    return ["--outcomes", str(files["outcomes"]), "--interventions",
            str(files["interventions"]), "--h", str(h)]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outputs(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.parametrize("layout", ["triplets", "dense"])
def test_bundle_commands_write_the_same_bytes_on_one_cpu_or_two(
        tmp_path, monkeypatch, write_smoke, count_forks, layout):
    """On two CPUs a child forked by the command parses the transport file; on
    one the command parses it itself. The outputs are the same bytes."""
    root = write_smoke(tmp_path, "write_bundle")
    files = {name: root / f"{name}.csv" for name in ("outcomes", "interventions", "h")}
    h = files["h"] if layout == "triplets" else _edited(files["h"], _dense, "dense.csv")
    runs = {}
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        for argv in BUNDLE_COMMANDS:
            assert main([*argv, *_bundle_argv(files, h), "--out-dir",
                         str(out_dir / argv[0])]) == 0
            _assert_no_child_left()
        runs[cpus] = _outputs(out_dir)
    assert len(count_forks) == len(BUNDLE_COMMANDS)  # all on two CPUs
    assert sorted(runs[1]) == ["effects/effects.csv", "fit/outcome_coefficients.csv",
                               "fit/propensity_coefficients.csv", "policy/policy.json",
                               "sweep/sweep.csv"]
    assert runs[1] == runs[2]


def _failing(owner, name, failure, where="child"):
    """A patch of ``owner.name`` that runs ``failure(real, *args)`` in its place in
    a forked child, in this process or in ``both``, and the real one elsewhere."""
    parent, real = os.getpid(), getattr(owner, name)

    def patched(*args, **kwargs):
        if where == "both" or (os.getpid() == parent) == (where == "parent"):
            return failure(real, *args, **kwargs)
        return real(*args, **kwargs)
    return owner, name, patched


def _no_fork():
    raise OSError(11, "Resource temporarily unavailable")


def _no_temporary_file(real, *args, **kwargs):
    raise OSError(30, "Read-only file system")


# a child, or the part this process parses, that fails: the patch that makes it fail
PART_FAILURES = {
    "fork_fails": lambda: (os, "fork", _no_fork),
    "exits_without_rows": lambda: _failing(bio, "_load_open", lambda real, *args: os._exit(0)),
    "killed": lambda: _failing(bio, "_load_open",
                               lambda real, *args: os.kill(os.getpid(), signal.SIGKILL)),
    "raises": lambda: _failing(bio, "_load_open", lambda real, *args: 1 / 0),
    "sends_half": lambda: _failing(pickle, "dump", lambda real, obj, pipe, **kwargs: pipe.write(
        pickle.dumps(obj)[:len(pickle.dumps(obj)) // 2])),
    # no temporary file can be made: a regular file is then read without one
    **{f"no_temporary_file_{where}": lambda where=where: _failing(
        tempfile, "TemporaryFile", _no_temporary_file, where)
       for where in ("child", "parent", "both")},
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.parametrize("failure", PART_FAILURES)
def test_a_bundle_command_reads_the_transport_file_itself_where_a_part_fails(
        tmp_path, monkeypatch, write_smoke, failure):
    root = write_smoke(tmp_path, "write_bundle")
    files = {name: root / f"{name}.csv" for name in ("outcomes", "interventions", "h")}
    argv = ["effects", *_bundle_argv(files, files["h"])]
    _on_cpus(monkeypatch, 1)
    assert main([*argv, "--out-dir", str(tmp_path / "alone")]) == 0
    _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(*PART_FAILURES[failure]())
    assert main([*argv, "--out-dir", str(tmp_path / "part_failed")]) == 0
    _assert_no_child_left()
    assert _outputs(tmp_path / "alone") == _outputs(tmp_path / "part_failed")


def _with_line(at, text):
    """An edit that puts ``text`` in as line ``at`` (1-based) of a file."""
    return lambda lines: [*lines[:at - 1], text, *lines[at - 1:]]


def _no_cost(lines):
    """Plant lines with the first unit's cost cell blank."""
    cells = lines[1].split(",")
    return [lines[0], ",".join([*cells[:2], "", *cells[3:]]), *lines[2:]]


# a failing bundle command: command, the edit of each input file that has one,
# whether the transport file is missing, the exit code and what stderr says;
# where both tables are sound, a bad transport file fails last
FAILURES = {
    "bad_outcome_row": ("effects", {"outcomes": _with_line(5, "o_bad,1.0,2.0,abc,0.1,0.2"),
                                    "h": _with_line(6, "1.5,0,1.0")},
                        False, 2, "outcomes.csv, line 5: "),
    "policy_without_cost": ("policy", {"interventions": _no_cost,
                                       "h": _with_line(6, "1.5,0,1.0")},
                            False, 2, "policy command needs a complete cost column"),
    "bad_triplet_row": ("sweep", {"h": _with_line(6, "1.5,0,1.0")},
                        False, 2, "h.csv, line 6: "),
    "missing_h": ("fit", {}, True, 4, "i/o failure: [Errno 2] No such file or directory"),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.parametrize("case", FAILURES)
def test_a_bundle_command_fails_alike_on_one_cpu_or_two(
        tmp_path, monkeypatch, capsys, write_smoke, count_forks, case):
    """The child's result is used only where the command reads the transport
    file, so the same error comes first; a child is never left behind."""
    command, edits, missing_h, code, message = FAILURES[case]
    root = write_smoke(tmp_path, "write_bundle")
    files = {}
    for name in ("outcomes", "interventions", "h"):
        path = root / f"{name}.csv"
        files[name] = _edited(path, edits[name], f"{name}.csv") if name in edits else path
    if missing_h:
        files["h"] = root / "missing.csv"
    results = {}
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        results[cpus] = (main([command, *_bundle_argv(files, files["h"]),
                               "--out-dir", str(tmp_path / "out")]),
                         capsys.readouterr().err)
        _assert_no_child_left()
    assert results[1] == results[2]
    assert results[1][0] == code and message in results[1][1]
    assert len(count_forks) == (0 if missing_h else 1)
    assert not (tmp_path / "out").exists()
