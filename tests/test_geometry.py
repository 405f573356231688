import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assouad_lab import geometry
from assouad_lab.cli import main
from assouad_lab.errors import EmptySetError, InvalidParameterError
from assouad_lab.geometry import PointSet, load_points, save_points

from conftest import one_cpu, point_samples, two_cpus


def test_pointset_basic():
    ps = PointSet(dim=2, points=[(0.0, 0.0), (1.0, 2.0)], resolution=0.1)
    assert len(ps) == 2
    lo, hi = ps.bounding_box()
    assert np.array_equal(lo, [0.0, 0.0])
    assert np.array_equal(hi, [1.0, 2.0])


def test_pointset_rejects_wrong_shape():
    with pytest.raises(InvalidParameterError):
        PointSet(dim=2, points=[(0.0, 0.0, 0.0)], resolution=0.1)


def test_pointset_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        PointSet(dim=1, points=[(np.inf,)], resolution=0.1)
    with pytest.raises(InvalidParameterError):
        PointSet(dim=1, points=[(np.nan,)], resolution=0.1)


@pytest.mark.parametrize("res", [0.0, -1.0, np.inf, np.nan])
def test_pointset_rejects_bad_resolution(res):
    with pytest.raises(InvalidParameterError):
        PointSet(dim=1, points=[(0.0,)], resolution=res)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 511, 512, 1024, 1537, 5000])
def test_bounding_box_is_each_columns_min_and_max(dim, n):
    pts = np.random.default_rng(n * dim).normal(size=(n, dim)) * [1.0, 1e3, 1e-3][:dim]
    lo, hi = PointSet(dim=dim, points=pts, resolution=1e-6).bounding_box()
    assert np.array_equal(lo, pts.min(axis=0)) and np.array_equal(hi, pts.max(axis=0))
    assert lo.shape == hi.shape == (dim,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 700, 1030])  # a full line of the pass, or the rows past it
def test_non_finite_points_are_refused_wherever_they_sit(bad, row):
    pts = np.zeros((1031, 2))
    pts[row, 1] = bad
    with pytest.raises(InvalidParameterError, match="finite"):
        PointSet(dim=2, points=pts, resolution=0.1)


def test_bounding_box_of_a_loaded_csv(tmp_path):
    # Points read with their params are a strided view of the CSV's rows.
    pts = np.random.default_rng(5).normal(size=(1500, 2))
    PointSet(dim=2, points=pts, resolution=1e-3, params=np.arange(1500.0)).to_csv(tmp_path / "p.csv")
    ps = load_points(tmp_path / "p.csv")
    assert not ps.points.flags.c_contiguous and ps.points.strides == (24, 8)
    lo, hi = ps.bounding_box()
    assert np.array_equal(lo, pts.min(axis=0)) and np.array_equal(hi, pts.max(axis=0))


def test_bounding_box_of_strided_points_copies_nothing():
    # Points beside a param column are reduced column by column, not copied.
    n = 200_000
    rows = np.random.default_rng(6).normal(size=(n, 3))
    tracemalloc.start()
    lo, hi = PointSet(dim=2, points=rows[:, :2], resolution=1e-3).bounding_box()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * n
    assert np.array_equal(lo, rows[:, :2].min(axis=0)) and np.array_equal(hi, rows[:, :2].max(axis=0))
    rows[n // 2, 1] = np.nan
    with pytest.raises(InvalidParameterError, match="finite"):
        PointSet(dim=2, points=rows[:, :2], resolution=1e-3)


def test_pointset_rejects_implicit_empty():
    with pytest.raises(EmptySetError):
        PointSet(dim=2, points=np.empty((0, 2)), resolution=0.1)


def test_params_must_align():
    with pytest.raises(InvalidParameterError):
        PointSet(dim=1, points=[(0.0,), (1.0,)], resolution=0.1, params=[1.0])


def test_points_are_immutable():
    ps = PointSet(dim=1, points=[(0.0,), (1.0,)], resolution=0.1)
    with pytest.raises(ValueError):
        ps.points[0, 0] = 5.0


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    # awkward magnitudes on purpose: round trip must survive 17-digit text
    pts = rng.uniform(-1, 1, size=(200, 2)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
    ps = PointSet(dim=2, points=pts, resolution=1.7e-5)
    path = tmp_path / "pts.csv"
    ps.to_csv(path)
    back = PointSet.from_csv(path)
    assert back == ps
    assert np.array_equal(back.points, ps.points)
    assert back.resolution == ps.resolution


def test_csv_round_trip_keeps_params(tmp_path):
    ps = PointSet(dim=2, points=[(1.0, 0.0), (0.0, 0.0)], resolution=1e-3,
                  params=[1.0, np.inf])
    path = tmp_path / "pts.csv"
    ps.to_csv(path)
    back = PointSet.from_csv(path)
    assert back.params is not None
    assert back.params[0] == 1.0
    assert np.isinf(back.params[1])


def test_plain_csv_needs_resolution(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0.5,0.5\n0.25,0.75\n")
    with pytest.raises(InvalidParameterError):
        PointSet.from_csv(path)
    ps = PointSet.from_csv(path, resolution=0.01)
    assert len(ps) == 2 and ps.dim == 2


def test_plain_csv_header_detected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("x,y\n0.5,0.5\n")
    ps = PointSet.from_csv(path, resolution=0.01)
    assert len(ps) == 1


def test_json_round_trip(tmp_path):
    ps = PointSet(dim=2, points=[(0.1, 0.2), (0.0, 0.0)], resolution=1e-4,
                  params=[3.0, np.inf])
    path = tmp_path / "pts.json"
    ps.to_json(path)
    back = PointSet.from_json(path)
    assert back == ps


def test_load_points_dispatch(tmp_path):
    ps = PointSet(dim=1, points=[(0.25,)], resolution=0.1)
    ps.to_csv(tmp_path / "a.csv")
    ps.to_json(tmp_path / "a.json")
    assert load_points(tmp_path / "a.csv") == ps
    assert load_points(tmp_path / "a.json") == ps


def test_save_points_dispatch(tmp_path, capsys):
    ps = PointSet(dim=2, points=[(0.25, 0.5)], resolution=0.1, params=[np.inf])
    save_points(ps, tmp_path / "b.json")
    save_points(ps, str(tmp_path / "b.csv"))
    assert (tmp_path / "b.json").read_text().startswith("{")
    assert load_points(tmp_path / "b.json") == ps
    assert load_points(tmp_path / "b.csv") == ps
    save_points(ps)
    assert capsys.readouterr().out == (tmp_path / "b.csv").read_text()


# ---- CSV exactness against per-row reference code ------------------------

SPECIAL = [-0.0, 0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308]


def reference_write_csv(ps) -> str:
    """The per-row writer the block writer replaced, kept as the reference."""
    cols = [f"x{i}" for i in range(ps.dim)]
    data = ps.points
    if ps.params is not None:
        cols.append("param")
        data = np.column_stack([ps.points, ps.params])
    out = [f"# assouad-lab dim={ps.dim} resolution={'%.17g' % ps.resolution}\n",
           ",".join(cols) + "\n"]
    for row in data:
        out.append(",".join("%.17g" % v for v in row) + "\n")
    return "".join(out)


@st.composite
def csv_samples(draw):
    """point_samples with special values planted and optional params (inf, -0.0, subnormals)."""
    ps = draw(point_samples(max_points=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = ps.points.copy().ravel()
    planted = rng.random(pts.size) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    pts[planted] = rng.choice(SPECIAL, size=int(planted.sum()))
    params = draw(st.none() | st.lists(st.floats(allow_nan=False),
                                       min_size=len(ps), max_size=len(ps)))
    return PointSet(dim=ps.dim, points=pts.reshape(-1, ps.dim),
                    resolution=ps.resolution, params=params)


def written(ps) -> str:
    buf = io.StringIO()
    ps.to_csv(buf)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(ps=csv_samples(), block=st.integers(1, 70))
def test_csv_writer_matches_per_row_writer(ps, block):
    # small blocks put the row counts on both sides of a block boundary
    with mock.patch.object(geometry, "_BLOCK_ROWS", block):
        assert written(ps) == reference_write_csv(ps)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_csv_writer_at_real_block_size(extra):
    n = geometry._BLOCK_ROWS + extra
    pts = np.random.default_rng(n).uniform(-1, 1, size=(n, 1))
    ps = PointSet(dim=1, points=pts, resolution=1e-3, params=np.arange(n) / 3.0)
    assert written(ps) == reference_write_csv(ps)


CELL_FORMATS = ["%.17g", "%r", "%.6e", "%.3f", " %.17g ", "%+.17g"]


def reference_cells(text: str) -> np.ndarray:
    """Per-cell float() over the data rows of a file with one header row."""
    rows = []
    for line in text.splitlines()[1:]:
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([float(v) for v in line.split(",")])
    return np.array(rows, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(ps=csv_samples(), data=st.data())
def test_csv_reader_matches_float_bit_for_bit(tmp_path_factory, ps, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = ps.points if ps.params is None else np.column_stack([ps.points, ps.params])
    lines = [",".join(f"x{i}" for i in range(ps.dim))
             + (",param" if ps.params is not None else "")]
    for row in table:
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# between rows", "\t", "  # indented", "\t#"]))
        lines.append(",".join(
            (rng.choice(CELL_FORMATS) % v) if np.isfinite(v) else repr(v) for v in row.tolist()
        ))
    text = "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    path.write_text(text)
    back = PointSet.from_csv(path, resolution=ps.resolution)
    loaded = back.points if back.params is None else np.column_stack([back.points, back.params])
    assert np.array_equal(loaded.view(np.int64), reference_cells(text).view(np.int64))


@pytest.mark.parametrize("content, needles", [
    ("# assouad-lab dim=1 resolution=0.1\nx0\n1\n3,\n", ["line 4", "non-numeric", "'3,'"]),
    ("0.1,0.2\n0.3,0.4\n0.5,0.6,0.7\n", ["line 3", "columns"]),
    ("x0,x1\n0.1,0.2\n# note\n\n0.3,x\n", ["line 5", "non-numeric", "'0.3,x'"]),
    ("0.1,0.2\nabc,0.3\n0.5,0.6\n", ["line 2", "non-numeric"]),
    ("x0,x1\nx0,x1\n0.1,0.2\n", ["line 2", "non-numeric"]),
    ("# assouad-lab dim=two\n0.1\n", ["line 1", "'dim=two'"]),
    ("0.1,0.2\n0.3,1_0\n", ["line 2", "non-numeric"]),
    ("0.1,0.2\n0.3,\u0661\n", ["line 2", "non-numeric"]),
], ids=["trailing-empty-cell", "ragged", "non-numeric", "mid-file-header",
        "second-header", "bad-metadata", "digit-separator", "non-ascii-digit"])
def test_csv_reader_names_the_bad_line(tmp_path, content, needles):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(InvalidParameterError) as info:
        PointSet.from_csv(path, resolution=0.1)
    for needle in [str(path), *needles]:
        assert needle in str(info.value)


@pytest.mark.parametrize("content, line", [
    (b"1,2\n\xff,3\n", 2),
    (b"# assouad-lab dim=2 \xfe resolution=0.1\nx0,x1\n1,2\n", 1),
    (b"x0,x1\n\xc3\n1,2\n", 2),
    (b"x0,x1\n1,2\n3,4 # caf\xe9\n", 3),
    (b"x0,x1\n1,x\n" + b"5,6\n" * 4000 + b"\xff,7\n", 2),
], ids=["data", "prelude", "header-then-bad-line", "data-comment", "bad-cell-first"])
def test_csv_bytes_that_are_not_text_exit_2_naming_the_line(tmp_path, capsys, content, line):
    path = tmp_path / "bytes.csv"
    path.write_bytes(content)
    assert main(["index-stats", str(path), "--res", "0.1"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"error: {path} line {line}: ")
    assert ("non-numeric" in err[0]) == (line == 2 and b"1,x" in content)


@pytest.mark.parametrize("content", ["x0,x1\n", "# assouad-lab dim=2 resolution=0.1\nx0,x1\n\n",
                                     "# only a comment\n", ""])
def test_csv_without_data_rows_is_empty(tmp_path, capsys, content):
    path = tmp_path / "hdr.csv"
    path.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptySetError):
            PointSet.from_csv(path, resolution=0.1)
        assert main(["index-stats", str(path), "--res", "0.1"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: no points found in")


def test_csv_blank_and_comment_lines_between_rows(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("# assouad-lab dim=2 resolution=0.01\n\nx0,x1,param\n0.1,0.2,1\n"
                    "\n   \n# a note\n  # indented note\n0.3,0.4,inf # trailing note\n\t\n"
                    "\t# tab-indented\n# end\n")
    ps = PointSet.from_csv(path)
    assert ps.points.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert ps.params.tolist() == [1.0, np.inf]
    assert ps.resolution == 0.01


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_loaded_inputs_over_the_point_budget_exit_2(tmp_path, capsys, suffix):
    # Comments, blank lines and a header do not count; rows past the budget
    # + 1 are never parsed (the longest CSV ends in a row that is not numeric).
    budget = 5
    for n in (budget, budget + 1, budget + 40):
        ps = PointSet(dim=2, points=np.arange(2.0 * n).reshape(n, 2), resolution=0.1,
                      params=np.arange(float(n)))
        path = tmp_path / f"p{n}{suffix}"
        if suffix == ".csv":
            ps.to_csv(path)
            text = path.read_text().replace("\n", "\n\n# note\n")
            path.write_text(text + ("x,y,z\n" if n > budget + 1 else ""))
        else:
            ps.to_json(path)
        with mock.patch.object(geometry, "POINT_BUDGET", budget):
            code = main(["index-stats", str(path)])
        err = capsys.readouterr().err.strip().split("\n")
        if n <= budget:
            assert code == 0 and err == [""]
        else:
            assert code == 2 and len(err) == 1
            assert err[0] == f"error: {path}: holds over the 5-point budget"


# ---- CSV on two processes ----------------------------------------------------

def split_at(block_rows=8, split_bytes=64):
    """Thresholds low enough that a few rows take the two-process path, and
    chunks small enough that they end inside lines and line ends."""
    return mock.patch.multiple(geometry, _BLOCK_ROWS=block_rows, _SPLIT_BYTES=split_bytes,
                               _CHUNK_BYTES=5)


def csv_text(ps, sink, capfd, tmp_path) -> str:
    if sink == "path":
        path = tmp_path / "out.csv"
        ps.to_csv(path)
        return path.read_text()
    if sink == "stringio":
        return written(ps)
    capfd.readouterr()
    save_points(ps)  # stdout
    out, err = capfd.readouterr()
    assert err == ""
    return out


@two_cpus
@pytest.mark.parametrize("sink", ["path", "stringio", "stdout"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("with_params", [False, True], ids=["points", "params"])
@pytest.mark.parametrize("block, extra", [(8, -1), (8, 0), (8, 1), (9, -1), (9, 0), (9, 1)],
                         ids=["7-of-8", "8-of-8", "9-of-8", "8-of-9", "9-of-9", "10-of-9"])
def test_split_csv_write_matches_one_cpu(tmp_path, capfd, forks, sink, dim, with_params,
                                         block, extra):
    n = block + extra
    rng = np.random.default_rng(n * 10 + dim)
    ps = PointSet(dim=dim, points=rng.uniform(-1, 1, size=(n, dim)), resolution=1e-3,
                  params=rng.normal(size=n) if with_params else None)
    with split_at(block_rows=block):
        text = csv_text(ps, sink, capfd, tmp_path)
        assert len(forks) == (1 if n > block else 0)
        with one_cpu():
            assert csv_text(ps, sink, capfd, tmp_path) == text
    assert len(forks) == (1 if n > block else 0)
    assert text == reference_write_csv(ps)


@two_cpus
def test_split_csv_write_to_a_piped_stdout(tmp_path):
    # A pipe block-buffers stdout: text buffered at the fork must not be written twice.
    script = (
        "import numpy as np\n"
        "from assouad_lab import geometry\n"
        "geometry._BLOCK_ROWS = 8\n"
        "pts = np.arange(60.0).reshape(20, 3) / 7\n"
        "geometry.save_points(geometry.PointSet(dim=3, points=pts, resolution=1e-3))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(geometry.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    ps = PointSet(dim=3, points=np.arange(60.0).reshape(20, 3) / 7, resolution=1e-3)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == reference_write_csv(ps)


def split_rows(path):
    """The loaded table (params as a last column) on two processes, and on one CPU."""
    tables = []
    for patch in (contextlib.nullcontext(), one_cpu()):
        with split_at(), patch:
            ps = PointSet.from_csv(path, resolution=0.1)
        tables.append(ps.points if ps.params is None else np.column_stack([ps.points, ps.params]))
    return tables


ROWS = [f"{i}.5,{-i}.25" for i in range(12)]


@two_cpus
@pytest.mark.parametrize("special, newline", [
    ("# a note", "\n"), ("", "\n"), ("   \t", "\n"), ("  # indented note", "\n"),
    (ROWS[5], "\r\n"), ("# a note", "\r\n"), ("", "\r\n"),
], ids=["comment", "blank", "whitespace", "indented-comment", "crlf-row", "crlf-comment",
        "crlf-blank"])
def test_split_csv_read_matches_one_cpu_around_the_cut(tmp_path, forks, special, newline):
    # Leading zeros on the first cell shift the byte midpoint of the data
    # across the special line (and its line end), two pad bytes per byte.
    header = newline.join(["# assouad-lab dim=2 resolution=0.1", "", "x0,x1", "# rows", ""])
    header = header.encode()
    seen = set()
    for pad in range(120):
        rows = ["0" * pad + ROWS[0], *ROWS[1:4], special, *ROWS[4:]]
        body = newline.join(rows).encode() + newline.encode()
        first = len(header)
        a = first + len(newline.join(rows[:4]).encode() + newline.encode())
        b = a + len(special) + len(newline)  # the special line with its line end
        where = (first + first + len(body)) // 2 - a
        if not -2 <= where <= b - a + 1:
            continue
        seen.add(where)
        path = tmp_path / f"pad{pad}.csv"
        path.write_bytes(header + body)
        del forks[:]
        split, one = split_rows(path)
        assert len(forks) == 1
        assert len(split) >= 12 and np.array_equal(split.view(np.int64), one.view(np.int64))
    assert seen == set(range(-2, len(special) + len(newline) + 2))


@two_cpus
@pytest.mark.parametrize("width", [1, 2, 3])
def test_split_csv_read_of_a_tail_of_comments(tmp_path, forks, width):
    row = ",".join(["0.25"] * width)
    path = tmp_path / "tail.csv"
    path.write_text("x0,x1,x2"[:3 * width - 1] + "\n" + f"{row}\n" * 3 + "# note\n" * 40)
    split, one = split_rows(path)
    assert len(forks) == 1
    assert split.shape == (3, width) and np.array_equal(split, one)


def run_both(capsys, path):
    """Exit code and stderr of index-stats on two processes, and on one CPU."""
    results = []
    for patch in (contextlib.nullcontext(), one_cpu()):
        with split_at(), patch:
            rc = main(["index-stats", str(path), "--res", "0.1"])
        results.append((rc, capsys.readouterr().err))
    return results


def cut_row(header: str, rows: list) -> int:
    """Index of the first row after the cut the reader makes in ``header + rows``."""
    text = (header + "".join(rows)).encode()
    mid = (len(header) + len(text)) // 2
    return text[:text.index(b"\n", mid) + 1].count(b"\n") - header.count("\n")


@two_cpus
@pytest.mark.parametrize("case", ["bad-cell", "columns-at-the-cut", "mid-file-header",
                                  "not-text-after-the-cut"])
def test_split_csv_read_errors_match_one_cpu(tmp_path, capsys, forks, case):
    header = "x0,x1\n"
    rows = [f"{i}.5,{i}.25\n" for i in range(20)]
    if case == "bad-cell":
        rows[16] = "0.3,x\n"
    elif case == "mid-file-header":
        rows[15] = "x0,x1\n"
    elif case == "not-text-after-the-cut":
        # past the text the header scan decodes, and past the cut
        rows = [f"{i}.5,{i}.25\n" for i in range(2000)]
        rows[1990] = "0.3,0.4 # \udcff\n"  # written as the lone byte 0xff
    else:  # "i,25" for "i.25" adds a column and keeps every byte in place
        k = cut_row(header, rows)
        rows[k:] = [row.replace(".25", ",25") for row in rows[k:]]
    path = tmp_path / "bad.csv"
    path.write_bytes((header + "".join(rows)).encode("utf-8", "surrogateescape"))
    split, one = run_both(capsys, path)
    assert len(forks) == 1
    assert split == one and split[0] == 2
    assert len(split[1].strip().split("\n")) == 1
    assert {"bad-cell": "line 18: non-numeric", "mid-file-header": "line 17: non-numeric",
            "not-text-after-the-cut": "line 1992: not utf-8 text",
            "columns-at-the-cut": "columns"}[case] in split[1].lower()  # UTF-8 or utf-8


@two_cpus
def test_split_csv_read_keeps_the_point_budget(tmp_path, capsys, forks):
    path = tmp_path / "big.csv"
    path.write_text("x0,x1\n" + "".join(f"{i}.5,{i}.25\n" for i in range(8)))
    with mock.patch.object(geometry, "POINT_BUDGET", 5):
        split, one = run_both(capsys, path)
    assert len(forks) == 1
    assert split == one == (2, f"error: {path}: holds over the 5-point budget\n")
