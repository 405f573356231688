import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assouad_lab import geometry
from assouad_lab.cli import main
from assouad_lab.errors import EmptySetError, InvalidParameterError
from assouad_lab.geometry import Cube, PointSet, load_points, save_points

from conftest import point_samples


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


@pytest.mark.parametrize("res", [0.0, -1.0])
def test_pointset_rejects_bad_resolution(res):
    with pytest.raises(InvalidParameterError):
        PointSet(dim=1, points=[(0.0,)], resolution=res)


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


def test_cube():
    q = Cube(center=(0.0, 0.0), radius=0.5)
    assert q.side == 1.0
    assert np.array_equal(q.low(), [-0.5, -0.5])


@pytest.mark.parametrize("bad", [0.0, -0.25])
def test_cube_rejects_nonpositive_radius(bad):
    with pytest.raises(InvalidParameterError):
        Cube(center=(0.0,), radius=bad)


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
