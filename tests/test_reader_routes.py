"""The two routes by which a reader hands a table to numpy's C reader.

A regular file is read in chunks, by a path that opens the same file again
through ``/proc/self/fd``; anything else, a pipe say, is read line by line
from the file the reader opened.  Either way a reader returns the same bits
and names the same line at fault, and a file that is not UTF-8 text exits 2.
"""
import gzip
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import bnpolicy
from bnpolicy import io as bio
from bnpolicy.cli import main
from bnpolicy.errors import DataValidationError
from bnpolicy.io import read_interference_csv, read_intervention_csv, read_outcome_csv

N, J = 30, 6


def _tables():
    """Lines of an outcome, a plant, a dense and a triplet file of one N x J bundle."""
    rng = np.random.default_rng(8)
    x, z = rng.standard_normal((N, 2)), rng.standard_normal((J, 2))
    h = np.where(rng.uniform(size=(N, J)) < 0.5, rng.lognormal(0.0, 0.4, (N, J)), 0.0)
    y, py = rng.standard_normal(N), rng.uniform(100.0, 900.0, N)
    cost = rng.uniform(0.5, 2.0, J)
    x, z, h, y, py, cost = (arr.tolist() for arr in (x, z, h, y, py, cost))  # floats' repr
    return {
        "outcomes": ["id,y,person_years,x1,x2", *(
            f"o{i},{y[i]!r},{py[i]!r},{x[i][0]!r},{x[i][1]!r}" for i in range(N))],
        "interventions": ["id,a,cost,z1,z2", *(
            f"p{k},{k % 2},{'' if k == 3 else repr(cost[k])},{z[k][0]!r},{z[k][1]!r}"
            for k in range(J))],
        "dense": [",".join(map(repr, row)) for row in h],
        "triplets": ["i,j,value", *(f"{i},{k},{v!r}" for i, row in enumerate(h)
                                    for k, v in enumerate(row) if v)],
    }


def _read(path, kind):
    """Ids and arrays a reader makes of the file at ``path``, with their dtypes."""
    if kind == "outcomes":
        ids, out = read_outcome_csv(path)
        arrays = [out.x, out.y, out.person_years]
    elif kind == "interventions":
        ids, intv, raw_cost = read_intervention_csv(path)
        arrays = [intv.x, intv.a, raw_cost]
    else:
        h = read_interference_csv(path, n=N, j=J)
        ids, arrays = [], [h.h] if kind == "dense" else [h.rows, h.cols, h.data]
    return ids, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# edit of a table's lines -> the text of the file; the first line is the
# header, or a dense file's first row
LAYOUTS = {
    "plain": lambda lines: "\n".join(lines) + "\n",
    "byte_order_mark": lambda lines: "\ufeff" + "\n".join(lines) + "\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "blank_after_header": lambda lines: "\n".join([lines[0], "", *lines[1:]]) + "\n",
    "trailing_blank_lines": lambda lines: "\n".join([*lines, "", "   ", "\t", ""]) + "\n",
    "comment_lines": lambda lines: "\n".join(["# a note", lines[0], *lines[1:4], "# another",
                                             *lines[4:], "# last"]) + "\n",
    "hash_prefixed_id": lambda lines: "\n".join([*lines[:3], "#" + lines[3],
                                                  *lines[4:]]) + "\n",
}
# the layouts a regular file's first pass takes whole, in chunks
CHUNKED = {"plain", "byte_order_mark", "crlf"}


def _by_line(patch):
    """Readers see every file as one that cannot be opened again: a pipe's route."""
    patch.setattr(bio, "_by_descriptor", lambda fh: None)


@pytest.fixture
def parsed(monkeypatch):
    """The first argument of every ``_parse`` call: a path or an iterable of lines."""
    calls, parse = [], bio._parse
    monkeypatch.setattr(bio, "_parse", lambda lines, *args, **kw: (
        calls.append(lines), parse(lines, *args, **kw))[1])
    return calls


@pytest.mark.parametrize("kind, layout", [
    (kind, layout) for kind in ("outcomes", "interventions", "dense", "triplets")
    for layout in LAYOUTS if (kind, layout) != ("dense", "hash_prefixed_id")])  # no ids
def test_both_routes_read_the_same_bits(tmp_path, monkeypatch, parsed, kind, layout):
    lines = _tables()[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(LAYOUTS[layout](lines), encoding="utf-8", newline="")
    chunked = _read(str(path), kind)
    if layout in CHUNKED and os.path.isdir("/proc/self/fd"):
        assert isinstance(parsed[0], str) and parsed[0].startswith("/proc/self/fd/")
    with monkeypatch.context() as patch:
        _by_line(patch)
        assert _read(str(path), kind) == chunked
    if layout == "hash_prefixed_id":  # the row reads as a comment line, as it always did
        del lines[3]
    plain = tmp_path / "plain.csv"
    plain.write_text(LAYOUTS["plain"](lines), encoding="utf-8")
    assert _read(str(plain), kind) == chunked


# file with one bad line, and the number of that line, counting every line
BAD_LINES = {
    "bad_cell": ("outcomes", lambda lines: [*lines[:6], "o99,1.0,5.0,abc,0.5", *lines[6:]], 7),
    "short_row": ("outcomes", lambda lines: [*lines[:9], "o99,1.0,5.0", *lines[9:]], 10),
    "negative_cost": ("interventions", lambda lines: [*lines[:3], "p99,1,-2.0,0.1,0.2",
                                                      *lines[3:]], 4),
    "bad_dense_cell": ("dense", lambda lines: [*lines[:4], "x" + lines[4], *lines[5:]], 5),
    "bad_triplet_index": ("triplets", lambda lines: [*lines[:5], "1.5,0,1.0", *lines[5:]], 6),
}


@pytest.mark.parametrize("case", BAD_LINES)
def test_both_routes_name_the_same_line(tmp_path, monkeypatch, case):
    kind, edit, line = BAD_LINES[case]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(edit(_tables()[kind])) + "\n", encoding="utf-8")
    messages = []
    for route in ("chunked", "by_line"):
        if route == "by_line":
            _by_line(monkeypatch)
        with pytest.raises(DataValidationError) as caught:
            _read(str(path), kind)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{path}, line {line}: ")


def test_a_plain_table_named_like_a_compressed_file_reads_as_plain_text(tmp_path, parsed):
    """numpy picks a decompressor by a path's suffix; the reader hands it no
    name but that of the open file's descriptor, so one pass reads the table."""
    lines = _tables()["interventions"]
    plain, named = tmp_path / "plants.csv", tmp_path / "plants.csv.gz"
    for path in (plain, named):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _read(str(named), "interventions") == _read(str(plain), "interventions")
    if os.path.isdir("/proc/self/fd"):
        assert len(parsed) == 2 and all(p.startswith("/proc/self/fd/") for p in parsed)


def _with_last_cell(lines, row, raw):
    """The bytes of ``lines`` with the last cell of line ``row`` set to ``raw``."""
    encoded = [line.encode() for line in lines]
    encoded[row] = encoded[row].rpartition(b",")[0] + b"," + raw
    return b"\n".join(encoded) + b"\n"


def _bundle(tmp_path):
    """Paths of the outcome, plant and triplet files of ``_tables``."""
    paths = {}
    for name, kind in (("outcomes", "outcomes"), ("interventions", "interventions"),
                       ("h", "triplets")):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join(_tables()[kind]) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize("at", ["first_buffer", "past_it"])  # the file's first 8 KB
@pytest.mark.parametrize("route", ["chunked", "by_line"])
def test_a_table_with_bytes_that_are_not_utf8_exits_2_naming_the_file(
        tmp_path, capsys, monkeypatch, at, route):
    if route == "by_line":
        _by_line(monkeypatch)
    paths = _bundle(tmp_path)
    header, *rows = _tables()["outcomes"]
    rows = [f"o{k},{row.split(',', 1)[1]}" for k, row in enumerate(rows * 15)]  # ~40 KB
    bad = 2 if at == "first_buffer" else len(rows)
    paths["outcomes"].write_bytes(_with_last_cell([header, *rows], bad, b"\xff\xfe"))
    out_dir = tmp_path / "out"
    code = main(["effects", "--estimator", "q", "--outcomes", str(paths["outcomes"]),
                 "--interventions", str(paths["interventions"]), "--h", str(paths["h"]),
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"validation failure: {paths['outcomes']}: not UTF-8 text\n"
    assert not out_dir.exists()


def test_impute_costs_on_a_gzip_file_exits_2_naming_the_file(tmp_path, capsys):
    lines = _tables()["interventions"]
    path = tmp_path / "plants.csv.gz"
    path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
    out_dir = tmp_path / "out"
    code = main(["impute-costs", "--interventions", str(path), "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == f"validation failure: {path}: not UTF-8 text\n"
    assert not out_dir.exists()


def _effects_run(paths, out_dir):
    """(exit code, stdout with ``out_dir`` named <out>, stderr, output files) of
    ``effects`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(bnpolicy.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "bnpolicy.cli", "effects", "--outcomes", str(paths["outcomes"]),
         "--interventions", str(paths["interventions"]), "--h", str(paths["h"]),
         "--out-dir", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    files = {f: (out_dir / f).read_bytes() for f in sorted(os.listdir(out_dir))
             } if out_dir.exists() else {}
    return done.returncode, done.stdout.replace(str(out_dir), "<out>"), done.stderr, files


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_effects_reads_pipes_as_it_reads_regular_files(tmp_path, write_smoke):
    """A pipe cannot be opened again without losing what was read into the
    reader's buffer; the smoke bundle's outcome and triplet files are several
    such buffers long."""
    files = write_smoke(tmp_path, "write_bundle")
    regular = {name: files / f"{name}.csv" for name in ("outcomes", "interventions", "h")}
    expected = _effects_run(regular, tmp_path / "from_files")
    assert expected[0] == 0 and expected[3]

    piped = dict(regular)
    writers = []
    for name in ("outcomes", "h"):
        piped[name] = tmp_path / f"{name}.fifo"
        os.mkfifo(piped[name])
        text = regular[name].read_bytes()
        writers.append(threading.Thread(target=piped[name].write_bytes, args=(text,),
                                        daemon=True))
        writers[-1].start()
    try:
        got = _effects_run(piped, tmp_path / "from_pipes")
    finally:
        for name, writer in zip(("outcomes", "h"), writers):
            writer.join(timeout=5)
            if writer.is_alive():  # the command never opened this pipe: unblock its writer
                os.close(os.open(piped[name], os.O_RDONLY | os.O_NONBLOCK))
    assert got == expected
