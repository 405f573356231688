"""End-to-end checks of the assouad-lab command line."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from assouad_lab import cli, geometry, index
from assouad_lab import estimators as est
from assouad_lab import maps as qc
from assouad_lab.cli import main
from assouad_lab.errors import AssouadLabError, PoleProximityError
from assouad_lab.families import FamilySpec, sample_family
from assouad_lab.geometry import PointSet, load_points, save_points

from conftest import strict_json, two_cpus


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---- gen -----------------------------------------------------------------


def test_gen_spiral_stdout(capsys):
    rc, out, _ = run(capsys, "gen", "--family", "spiral", "--a", "1",
                     "--xmax", "100", "--res", "1e-2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# assouad-lab dim=2 resolution=")
    assert lines[1] == "x0,x1,param"
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == pytest.approx(math.cos(1.0), abs=1e-15)
    assert first[1] == pytest.approx(math.sin(1.0), abs=1e-15)
    # the origin rides along as the accumulation point, tagged param=inf
    last = lines[-1].split(",")
    assert float(last[0]) == 0.0 and float(last[1]) == 0.0
    assert math.isinf(float(last[2]))


def test_gen_round_trips_bit_exact(tmp_path, capsys):
    path = tmp_path / "s1.csv"
    rc, _, _ = run(capsys, "gen", "--family", "spiral", "--a", "1.5",
                   "--xmax", "200", "--res", "1e-2", "-o", str(path))
    assert rc == 0
    direct = sample_family(
        FamilySpec(kind="poly_spiral", a=1.5, x_max=200.0, target_resolution=1e-2)
    )
    assert PointSet.from_csv(path) == direct


def test_gen_cantor_row_count(tmp_path, capsys):
    path = tmp_path / "c.csv"
    rc, _, _ = run(capsys, "gen", "--family", "cantor", "--depth", "10", "-o", str(path))
    assert rc == 0
    rows = path.read_text().strip().split("\n")
    assert len(rows) == 2 + 2048  # metadata + header + 2^11 endpoints


@pytest.mark.parametrize("argv", [
    ["--family", "spiral", "--a", "0.5", "--xmax", "1e12", "--res", "1e-3"],
    ["--family", "cantor", "--depth", "40"],
    ["--family", "sequence", "--mmax", "1000000000"],
], ids=["spiral", "cantor", "sequence"])
def test_gen_refuses_samples_over_the_point_budget(capsys, argv):
    tracemalloc.start()
    rc, out, err = run(capsys, "gen", *argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rc == 2 and out == ""
    assert_one_error_line(err, "budget")
    assert peak < 64 * 2**20  # refused before the sample is allocated


def test_gen_rejects_coarse_truncation(capsys):
    rc, _, err = run(capsys, "gen", "--family", "spiral", "--a", "1",
                     "--xmax", "1000", "--res", "1e-6")
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("family, kind", [
    ("spiral", "poly_spiral"), ("logspiral", "log_spiral"), ("cantor", "cantor"),
    ("sequence", "sequence")])
def test_gen_defaults_are_those_of_family_spec(tmp_path, capsys, family, kind):
    # gen with no family flag draws FamilySpec's own defaults
    got, want = tmp_path / "gen.csv", tmp_path / "spec.csv"
    assert run(capsys, "gen", "--family", family, "-o", str(got))[0] == 0
    save_points(sample_family(FamilySpec(kind)), want)
    assert got.read_bytes() == want.read_bytes()


# a value off FamilySpec's default for each flag a family reads
_GEN_OFF_DEFAULT = {"a": "2", "c": "0.5", "ratio": "0.25", "p": "2", "xmax": "500",
                    "depth": "10", "mmax": "500", "res": "2e-3"}


@pytest.mark.parametrize("family, flag", [
    pytest.param(family, name, id=f"{family}-{name}")
    for family, row in cli._READS["gen"].items() for name in (*row, "res")])
def test_gen_reads_every_flag_its_family_row_lists(capsys, family, flag):
    rc, default, _ = run(capsys, "gen", "--family", family)
    assert rc == 0
    rc, changed, _ = run(capsys, "gen", "--family", family, f"--{flag}", _GEN_OFF_DEFAULT[flag])
    assert rc == 0 and changed != default


# ---- index-stats -----------------------------------------------------------


def test_index_stats_payload(spiral_s1_coarse, capsys):
    rc, out, _ = run(capsys, "index-stats", str(spiral_s1_coarse))
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == "assouad-lab/1"
    assert payload["command"] == "index-stats"
    assert payload["dim"] == 2
    assert payload["points"] > 1000
    assert payload["maxLevel"] + 1 == len(payload["levels"])
    assert payload["levels"][0]["occupied"] >= 1
    sides = [lv["cellSide"] for lv in payload["levels"]]
    assert sides == sorted(sides, reverse=True)


@pytest.mark.parametrize("points, levels", [
    ([(0.3, 0.7)], 8),  # zero extent: the levels a single point gets
    ([(0.0, 0.0), (1.0, 0.5)], 9),
])
def test_index_for_does_not_reduce_the_points_again(monkeypatch, points, levels):
    # The bounding box is taken once, when the PointSet is made.
    ps = PointSet(dim=2, points=points, resolution=1e-3)
    calls = []
    bounds = geometry._column_bounds
    monkeypatch.setattr(geometry, "_column_bounds", lambda a: calls.append(1) or bounds(a))
    idx = cli.build_index(ps)
    assert idx.max_level == levels and calls == []


# ---- estimate ---------------------------------------------------------------


def test_estimate_box_single_point(tmp_path, capsys):
    path = tmp_path / "pt.csv"
    path.write_text("0.25,0.75\n")
    rc, out, _ = run(capsys, "estimate", str(path), "--mode", "box", "--res", "1e-4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == 0.0
    assert payload["method"] == "box"
    assert "elapsedSeconds" in payload


@pytest.mark.parametrize("rows", ["0,0\n0.0001,0\n", "0,0\n5e-324,0\n"],
                         ids=["under-resolution", "subnormal-extent"])
def test_a_sample_under_its_resolution_is_indexed_as_one_point(tmp_path, capsys, rows):
    # Its root widens around the box midpoint to resolution * 2^8, as one
    # point's does, with the midpoint at a leaf cell's centre: one cell a level.
    path = tmp_path / "tiny.csv"
    path.write_text(rows)
    rc, out, err = run(capsys, "index-stats", str(path), "--res", "1e-3")
    assert rc == 0 and "error" not in err
    stats = strict_json(out)
    assert (stats["maxLevel"], stats["rootSide"]) == (8, 0.256)
    assert [level["occupied"] for level in stats["levels"]] == [1] * 9
    rc, out, err = run(capsys, "estimate", str(path), "--res", "1e-3", "--mode", "box")
    assert rc == 0 and "error" not in err and strict_json(out)["value"] == 0.0
    rc, out, err = run(capsys, "estimate", str(path), "--res", "1e-3", "--mode", "spectrum")
    spec = strict_json(out)
    assert rc == 0 and "error" not in err
    assert all(v is None for v in spec["value"]) and set(spec["regularized"]) == {0.0}


def test_estimate_needs_resolution_for_plain_csv(tmp_path, capsys):
    path = tmp_path / "pt.csv"
    path.write_text("0.25,0.75\n")
    rc, out, err = run(capsys, "estimate", str(path), "--mode", "box")
    assert rc == 2 and out == ""
    assert_one_error_line(err, f"error: {path}: carries no resolution metadata; pass --res")


def test_estimate_spectrum_payload(spiral_s1_coarse, capsys):
    rc, out, _ = run(capsys, "estimate", str(spiral_s1_coarse), "--mode", "spectrum")
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "spectrum"
    assert 0.0 < payload["rhoHat"] < 1.0
    assert len(payload["theta"]) == len(payload["regularized"]) == 18
    regs = payload["regularized"]
    assert all(b >= a - 1e-12 for a, b in zip(regs, regs[1:]))


def test_estimate_reports_absent_theta_and_floor(tmp_path, capsys):
    cantor = tmp_path / "cantor.csv"
    run(capsys, "gen", "--family", "cantor", "--depth", "10", "-o", str(cantor))
    rc, out, err = run(capsys, "estimate", str(cantor), "--mode", "spectrum",
                       "--theta", "0.99", "--rmin", "0.004", "--rmax", "0.2")
    assert rc == 0
    assert "no admissible scale pair" in err
    payload = json.loads(out)
    assert payload["value"] == [None]
    assert 0.0 < payload["regularized"][0] < 1.0  # box-dimension floor


def test_estimate_narrow_window_is_numeric_failure(tmp_path, capsys):
    cantor = tmp_path / "cantor.csv"
    run(capsys, "gen", "--family", "cantor", "--depth", "10", "-o", str(cantor))
    rc, _, err = run(capsys, "estimate", str(cantor), "--mode", "spectrum",
                     "--theta", "0.99", "--rmin", "0.01", "--rmax", "0.1")
    assert rc == 3
    assert "error:" in err


def test_estimate_runs_are_deterministic(spiral_s1_coarse, capsys):
    def once():
        rc, out, _ = run(capsys, "estimate", str(spiral_s1_coarse), "--mode", "spectrum")
        assert rc == 0
        payload = json.loads(out)
        payload.pop("elapsedSeconds")
        return payload

    assert once() == once()


def assert_one_error_line(err, *needles):
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for needle in needles:
        assert needle in lines[0]


@pytest.mark.parametrize("command", ["estimate", "index-stats"])
@pytest.mark.parametrize("name, content, needle", [
    ("nope.csv", None, "No such file"),
    ("nope.csv", "# assouad-lab dim=2 resolution=0.001\nx0,x1\n0.1,0.2\n0.3,abc\n", "line 4"),
    ("nope.csv", "0.1,0.2\n0.3,0.4,0.5\n", "columns"),
    ("nope.csv", "0.1,0.2\nabc,0.3\n0.5,0.6\n", "line 2"),
    ("nope.json", "{}", "missing key(s) dim, resolution, points"),
    ("nope.json", "not json", "not valid JSON"),
    ("nope.json", '{"dim": 2, "resolution": 1e-3, "points": [[1, "x"]]}', "numbers"),
    ("nope.json", '{"dim": 2, "resolution": 1e-3, "points": [[1, 2], [3]]}', "equal length"),
    ("nope.json", '{"dim": "two", "resolution": 1e-3, "points": [[1, 2]]}', "dim"),
    ("nope.json", "[[1, 2]]", "JSON object"),
    ("nope.json", '{"dim": 2, "resolution": 1e-3, "points": []}', "no points"),
    ("nope.json", '{"dim": 2.7, "resolution": 1e-3, "points": [[1, 2]]}', "dim must be an integer"),
    ("nope.json", '{"dim": true, "resolution": 1e-3, "points": [[1]]}', "dim must be an integer"),
    ("nope.json", '{"dim": 2, "resolution": true, "points": [[1, 2]]}', "resolution must be a number"),
    ("nope.csv", "0,0\nnan,1\n1,1\n", "points must be finite"),
    ("nope.csv", "0,0\ninf,1\n1,1\n", "points must be finite"),
], ids=["missing", "non-numeric", "ragged", "mid-file-header", "json-no-keys",
        "json-not-json", "json-non-numeric", "json-ragged", "json-bad-dim", "json-not-object",
        "json-no-points", "json-float-dim", "json-bool-dim", "json-bool-resolution",
        "nan-row", "inf-row"])
def test_estimate_missing_input(tmp_path, capsys, command, name, content, needle):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    rc, out, err = run(capsys, command, str(path), "--res", "1e-3")
    assert rc == 2 and out == ""
    assert_one_error_line(err, name, needle)


@pytest.mark.parametrize("command", ["estimate", "index-stats"])
@pytest.mark.parametrize("name, content", [
    ("big.csv", "-1.7e308,0\n1.7e308,0\n"),
    ("tiny.json", '{"dim": 2, "resolution": 1e-320, "points": [[0, 0], [1, 0]]}'),
    ("far.json", '{"dim": 2, "resolution": 1e-3, "points": [[0, 0], [1e308, 1e308]]}'),
    # one point: its root is widened to resolution * 2^8, past the float range
    ("one.json", '{"dim": 2, "resolution": 1e306, "points": [[0, 0]]}'),
], ids=["extent-overflows", "resolution-subnormal", "ratio-overflows", "one-point-widened"])
def test_extent_over_resolution_that_overflows_exits_2(tmp_path, capsys, command, name,
                                                        content):
    path = tmp_path / name
    path.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning before the refusal
        # --res would override a JSON file's own resolution, which is under test
        res = ["--res", "1e-3"] if name.endswith(".csv") else []
        rc, out, err = run(capsys, command, str(path), *res)
    assert rc == 2 and out == ""
    assert_one_error_line(err, "extent over their resolution overflows a float")


FAR = 2.0**500  # build_index's limit on coordinates and extent


@pytest.mark.parametrize("command", ["estimate", "index-stats"])
@pytest.mark.parametrize("points, passes, res", [
    ([[0, 0], [1e308, 1e308]], False, 1),  # the extent over resolution fits; its square does not
    ([[1e308, 0]], False, 1),  # one point: no extent, but the root's center would overflow
    ([[0, 0], [FAR * 1.0000001, 0]], False, 1),
    ([[-FAR / 2, 0], [FAR / 2 * 1.0000001, 0]], False, 1),
    ([[0, 0], [FAR, FAR]], True, 1),
    ([[-FAR / 2, FAR], [FAR / 2, 0]], True, 1),
    ([[FAR, -FAR]], True, 1),
    ([[0, 0]], True, 1e300),  # one point: its root widens to 1e300 * 2^8, still a float
], ids=["1e308", "one-point", "just-past", "just-past-extent", "at-limit", "extent-at-limit",
        "one-point-at-limit", "one-point-widened"])
def test_points_whose_squares_overflow_exit_2(tmp_path, capsys, command, points, passes, res):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 2, "resolution": res, "points": points}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning, refused or not
        rc, out, err = run(capsys, command, str(path), *(
            ["--mode", "spectrum"] if command == "estimate" else []))
    if passes:
        assert rc == 0 and strict_json(out)
    else:
        assert rc == 2 and out == ""
        assert_one_error_line(err, "coordinates or extent reach", "would overflow a float")


def test_estimate_too_coarse_for_default_window_is_numeric_failure(tmp_path, capsys):
    # the K=2 image of S_2 at res 1e-3 has resolution 0.096 on a root of
    # side 1.06: the default window [0.384, 0.374] is empty
    src, img = tmp_path / "s2.csv", tmp_path / "img.csv"
    assert run(capsys, "gen", "--family", "spiral", "--a", "2", "--xmax", "100",
               "--res", "1e-3", "-o", str(src))[0] == 0
    assert run(capsys, "map", str(src), "--spec", "radial:K=2", "-o", str(img))[0] == 0
    for mode in ("spectrum", "box"):
        rc, _, err = run(capsys, "estimate", str(img), "--mode", mode)
        assert rc == 3
        assert_one_error_line(err, "resolution 0.096", "root side 1.06", "[0.384, 0.374]")
    # an explicit window the user got wrong is still a usage error
    for flags in (["--rmin", "0.5", "--rmax", "0.2"], ["--rmin", "0.5"]):
        rc, _, err = run(capsys, "estimate", str(img), "--mode", "spectrum", *flags)
        assert rc == 2
        assert_one_error_line(err, "r_min < r_max")


def test_estimate_plot_writes_curve(spiral_s1_coarse, tmp_path, capsys):
    plot = tmp_path / "curve.csv"
    rc, _, _ = run(capsys, "estimate", str(spiral_s1_coarse), "--mode", "spectrum",
                   "--plot", str(plot))
    assert rc == 0
    lines = plot.read_text().strip().split("\n")
    assert lines[0] == "theta,regularized"
    assert len(lines) == 19


def _unread_flags():
    """Every (command, mode, flag) where another mode of the command reads
    the flag and this one does not, from the CLI's own table."""
    for command, rows in cli._READS.items():
        every = {name for row in rows.values() for name in row}
        for mode, row in rows.items():
            for name in sorted(every - set(row)):
                yield pytest.param(command, mode, name,
                                   id=f"{command}-{mode}-{cli._flag(name)[2:]}")


# a --map of each verify chain kind
_CHAIN_MAP = {"identity": [], "radial": ["--map", "radial:K=2"],
              "pushforward": ["--map", "similarity:s=2"]}


def _mode_argv(command, mode):
    """A call of ``command`` in ``mode``; no input it names exists."""
    if command == "verify":
        return ["verify", "--set", "spiral:a=1", *_CHAIN_MAP[mode]]
    if command == "classify":
        return ["classify", "--a", "2", "--b", "1", *(["--json"] if mode == "json" else [])]
    if command == "estimate":
        return ["estimate", "missing.csv", "--mode", mode]
    return [command, "--family" if command == "gen" else "--formula", mode]


# a value each flag's own check accepts; every other flag takes 0.5
_FLAG_VALUE = {"depth": "10", "mmax": "10", "centers": "5", "inner_p": "9", "plot": "x.csv",
               "source_csv": "x.csv", "out": "x.json"}


@pytest.mark.parametrize("command, mode, name", _unread_flags())
def test_a_flag_its_mode_does_not_read_is_refused_before_any_input(monkeypatch, tmp_path,
                                                                    capsys, command, mode, name):
    must_not_run = mock.Mock(side_effect=AssertionError(f"ran past the {name} check"))
    monkeypatch.setattr(cli, "load_points", must_not_run)
    monkeypatch.setattr(cli.fam, "sample_family", must_not_run)
    monkeypatch.chdir(tmp_path)
    flag = cli._flag(name)
    rc, out, err = run(capsys, *_mode_argv(command, mode), flag, _FLAG_VALUE.get(name, "0.5"))
    assert rc == 2 and out == ""
    assert_one_error_line(err, f"error: {flag} is not read by the {mode} "
                               f"{cli._MODE_NOUN[command]}")
    assert not must_not_run.called and not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [
    pytest.param(flags, id=f"assouad-{flags[0][2:]}")
    for flags in (["--theta", "0.3"], ["--theta-min", "0.1"], ["--theta-max", "0.5"],
                  ["--theta-step", "0.1"])])
def test_estimate_plot_outside_spectrum_is_refused_before_loading(flags, capsys):
    # The assouad mode runs a spectrum sweep, but on the default grid only.
    # Its grid refusals are listed by hand: a table row that let it read a grid
    # flag would drop the case from the test above rather than fail it.
    must_not_run = mock.Mock(side_effect=AssertionError(f"ran past the {flags[0]} check"))
    with mock.patch.object(cli, "load_points", must_not_run), \
            mock.patch.object(est, "estimate_spectrum", must_not_run):
        rc, out, err = run(capsys, "estimate", "missing.csv", "--mode", "assouad", *flags)
    assert rc == 2 and out == ""
    assert_one_error_line(err, f"error: {flags[0]} is not read by the assouad mode")
    assert not must_not_run.called


@pytest.mark.parametrize("mode", ["assouad"])
def test_estimate_limit_modes_run_one_default_sweep(spiral_s1_coarse, mode, capsys):
    grids = []
    sweep = est.estimate_spectrum

    def recorded(idx, theta_grid=est.DEFAULT_THETA_GRID, *args, **kwargs):
        grids.append(theta_grid)
        return sweep(idx, theta_grid, *args, **kwargs)

    with mock.patch.object(est, "estimate_spectrum", recorded):
        rc, out, _ = run(capsys, "estimate", str(spiral_s1_coarse), "--mode", mode)
    assert rc == 0
    assert grids == [est.DEFAULT_THETA_GRID]
    assert json.loads(out)["value"] == pytest.approx(1.62, abs=0.01)


GRID = est.DEFAULT_THETA_GRID


@pytest.mark.parametrize("flags, want", [
    ([], GRID),
    (["--theta-min", "0.05", "--theta-max", "0.9", "--theta-step", "0.05"], GRID),
    (["--theta-min", "0.5"], GRID[9:]),
    (["--theta-max", "0.2"], GRID[:4]),
    (["--theta-step", "0.25"], (0.05, 0.3, 0.55, 0.8)),
    (["--theta", "0.3", "--theta-min", "0.5"], (0.3,)),
], ids=["none", "all", "min", "max", "step", "theta"])
def test_range_flags_left_out_are_read_off_the_default_grid(flags, want):
    for command in (["estimate", "x.csv", "--mode", "spectrum"], ["verify", "--set", "spiral:a=1"]):
        args = cli._build_parser().parse_args([*command, *flags])
        assert cli._theta_grid(args) == want


# ---- map --------------------------------------------------------------------


def test_map_radial_stretch(tmp_path, capsys):
    src = tmp_path / "s2.csv"
    run(capsys, "gen", "--family", "spiral", "--a", "2", "--xmax", "100",
        "--res", "1e-3", "-o", str(src))
    out_path = tmp_path / "img.csv"
    rc, _, _ = run(capsys, "map", str(src), "--spec", "radial:K=2", "-o", str(out_path))
    assert rc == 0
    image = load_points(str(out_path))
    # x=1 lands on the S_1 point at the same curve parameter
    assert image.points[0] == pytest.approx([math.cos(1.0), math.sin(1.0)], abs=1e-12)
    assert image.params[0] == 1.0
    # origin stays put; resolution is inflated by the tangential stretch
    assert np.all(image.points[-1] == 0.0)
    assert image.resolution > 1e-3


def test_res_overrides_a_json_input_as_it_does_a_csv(tmp_path, capsys):
    ps = sample_family(FamilySpec(kind="poly_spiral", a=1.0, x_max=100.0,
                                  target_resolution=1e-3))
    reports = []
    for name in ("s.json", "s.csv"):
        path = str(tmp_path / name)
        geometry.save_points(ps, path)
        rc, out, _ = run(capsys, "index-stats", path, "--res", "0.002")
        stats = json.loads(out)
        assert rc == 0 and stats.pop("input") == path and stats["resolution"] == 0.002
        rc, out, _ = run(capsys, "estimate", path, "--mode", "box", "--res", "0.002")
        box = json.loads(out)
        assert rc == 0 and box["window"]["rMin"] == 4 * 0.002  # the default window's floor
        del box["input"], box["elapsedSeconds"]
        image = str(tmp_path / ("image-" + name))
        rc, _, _ = run(capsys, "map", path, "--res", "0.002", "--spec", "similarity:s=1",
                       "-o", image)
        assert rc == 0 and load_points(image).resolution == 0.002
        reports.append((stats, box))
    assert reports[0] == reports[1]


def test_map_bad_spec(spiral_s1_coarse, capsys):
    rc, _, err = run(capsys, "map", str(spiral_s1_coarse), "--spec", "twirl:K=2")
    assert rc == 2
    assert "unknown map stage" in err


# ---- bounds ------------------------------------------------------------------


def bounds_values(capsys, *extra):
    rc, out, _ = run(capsys, "bounds", *extra)
    assert rc == 0
    return json.loads(out)


def test_bounds_beta_upper(capsys):
    payload = bounds_values(capsys, "--formula", "beta-upper", "--K", "2", "--alpha", "1")
    assert payload["values"]["value"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert any("planar sharp" in a for a in payload["assumptions"])


def test_bounds_symmetric_coeff(capsys):
    payload = bounds_values(capsys, "--formula", "symmetric-coeff", "--K", "2")
    assert payload["values"]["value"] == pytest.approx(0.5, abs=1e-15)


def test_bounds_conformal_case(capsys):
    payload = bounds_values(capsys, "--formula", "beta-upper", "--K", "1", "--alpha", "1.3")
    assert payload["values"]["value"] == 1.3
    assert payload["inputs"]["p"] == "inf"


def test_bounds_assouad_with_lambda(capsys):
    payload = bounds_values(capsys, "--formula", "assouad", "--K", "2",
                            "--alpha", "1", "--lambda", "1")
    v = payload["values"]
    assert v["lower"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert v["upper"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert v["lambdaLower"] == pytest.approx(v["lower"], abs=1e-12)
    assert v["lambdaUpper"] == pytest.approx(v["upper"], abs=1e-12)


def test_bounds_spectrum_with_oracle_source(capsys):
    payload = bounds_values(capsys, "--formula", "spectrum", "--K", "2",
                            "--t", "1", "--source-a", "2")
    v = payload["values"]
    assert v["thetaImage"] == 0.5
    assert v["thetaContract"] == pytest.approx(2.0 / 3.0)
    assert v["thetaExpand"] == pytest.approx(1.0 / 3.0)
    assert v["upper"] == pytest.approx(2.0, abs=1e-12)
    assert v["lower"] == pytest.approx(10.0 / 11.0, abs=1e-12)


def test_bounds_biholder_clamps(capsys):
    payload = bounds_values(capsys, "--formula", "biholder", "--K", "2",
                            "--theta", "0.2", "--source-value", "1.2")
    assert payload["values"]["value"] == 2.0


def test_bounds_ours(capsys):
    payload = bounds_values(capsys, "--formula", "ours", "--K", "2", "--t", "1", "--d", "1")
    assert payload["values"]["value"] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_bounds_compare(capsys):
    payload = bounds_values(capsys, "--formula", "compare", "--K", "2",
                            "--t", "4", "--source-a", "1")
    v = payload["values"]
    assert v["hypothesesHold"] is True
    assert v["oursLeqBiholder"] is True
    assert v["ours"] <= v["biholder"]


def test_bounds_rh_exponent(capsys):
    payload = bounds_values(capsys, "--formula", "rh-exponent", "--K", "2")
    assert payload["values"]["planar"] == 4.0
    assert payload["values"]["floor"] == 4.0


def test_bounds_rh_exponent_beyond_plane_needs_no_p(capsys):
    payload = bounds_values(capsys, "--formula", "rh-exponent", "--K", "3", "--n", "3")
    assert payload["values"]["floor"] == pytest.approx(4.5)
    assert "planar" not in payload["values"]


def test_bounds_missing_required_flag(capsys):
    rc, _, err = run(capsys, "bounds", "--formula", "beta-upper", "--K", "2")
    assert rc == 2
    assert "--alpha" in err


_CURVE = b"theta,value\n0.1,1.0\n%s\n0.9,1.5\n"  # %s is line 3


@pytest.mark.parametrize("content, needles", [
    (_CURVE % b"0.5", ["line 3: rows have different numbers of columns"]),
    (_CURVE % b"0.5,abc", ["line 3: non-numeric cell in '0.5,abc'"]),
    (_CURVE % b"0.5,", ["line 3: non-numeric cell in '0.5,'"]),
    (_CURVE % b"\xff", ["line 3: not ", "-8 text"]),  # UTF-8 or utf-8
    (b"theta\n0.1\n0.5\n0.9\n", [": expected theta,value rows"]),
], ids=["0.5", "0.5,abc", "0.5,", "not-text", "one-column"])
def test_bounds_bad_source_csv_row(tmp_path, capsys, content, needles):
    """--source-csv is read by the point-CSV reader, with its error lines."""
    curve = tmp_path / "curve.csv"
    curve.write_bytes(content)
    rc, out, err = run(capsys, "bounds", "--formula", "spectrum", "--K", "2", "--t", "1",
                       "--source-csv", str(curve))
    assert rc == 2 and out == ""
    assert_one_error_line(err, str(curve), *needles)


@pytest.mark.parametrize("formula", ["beta-upper", "assouad"])
@pytest.mark.parametrize("value", ["0", "0.5"])
def test_bounds_lambda_below_one_exits_2(capsys, formula, value):
    rc, out, err = run(capsys, "bounds", "--formula", formula, "--K", "2", "--alpha", "1",
                       "--lambda", value)
    assert rc == 2 and out == ""
    assert_one_error_line(err, f"lambda must be >= 1, got {value}")


@pytest.mark.parametrize("formula", ["beta-upper", "symmetric-coeff", "rh-exponent", "assouad",
                                     "spectrum", "biholder", "ours", "compare"])
@pytest.mark.parametrize("flag, name", [("--K", "dilatation"), ("--lambda", "lambda")])
def test_bounds_infinite_dilatation_or_lambda_exits_2(capsys, formula, flag, name):
    # every flag the formulas read, so that only the infinite value is wrong
    rc, out, err = run(capsys, "bounds", "--formula", formula, "--alpha", "1", "--t", "1",
                       "--theta", "0.1", "--d", "1", "--source-a", "1", flag, "inf")
    assert rc == 2 and out == ""
    assert_one_error_line(err, f"{name} must be finite, got inf")


@pytest.mark.parametrize("content, line, row", [
    ("theta,value\n0.1,1.0\nx,5\n0.5,1.2\nzzz,9\n0.9,1.5\n", 3, "x,5"),
    ("theta,value\ntheta,value\n0.1,1.0\n", 2, "theta,value"),
], ids=["rows-between-data", "second-header"])
def test_bounds_source_csv_takes_one_header_before_the_data(tmp_path, capsys, content, line,
                                                            row):
    curve = tmp_path / "curve.csv"
    curve.write_text(content)
    rc, out, err = run(capsys, "bounds", "--formula", "spectrum", "--K", "2", "--t", "1",
                       "--source-csv", str(curve))
    assert rc == 2 and out == ""
    assert_one_error_line(err, str(curve), f"line {line}", repr(row))


def test_bounds_p_must_be_a_number(capsys):
    rc, out, err = run(capsys, "bounds", "--formula", "beta-upper", "--n", "3", "--K", "2",
                       "--p", "abc", "--alpha", "1")
    assert rc == 2 and out == ""
    assert_one_error_line(err, "argument --p", "'abc'")


@pytest.mark.parametrize("argv, needle", [
    (["estimate", "x.csv", "--mode", "qa"], "argument --mode: invalid choice: 'qa'"),
    (["verify", "--set", "spiral:a=1", "--eps", "abc"], "argument --eps: invalid float value"),
    (["verify", "--t", "1"], "the following arguments are required: --set"),
    ([], "the following arguments are required: command"),
], ids=["mode-qa", "bad-float", "missing-set", "missing-command"])
def test_usage_errors_print_one_line(capsys, argv, needle):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert_one_error_line(err, needle)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--help"])
    assert exc.value.code == 0
    assert "--mode {box,spectrum,assouad}" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["inf", "+inf", "Infinity"])
def test_bounds_p_reads_infinity(capsys, text):
    payload = bounds_values(capsys, "--formula", "beta-upper", "--n", "3", "--K", "2",
                            "--p", text, "--alpha", "1")
    assert payload["inputs"]["p"] == "inf"
    assert payload["values"]["value"] == 1.0


# ---- classify -----------------------------------------------------------------


def test_classify_plain_output(capsys):
    rc, out, _ = run(capsys, "classify", "--a", "2", "--b", "1")
    assert rc == 0
    assert out.strip() == "2.0, witness radial:K=2"


def test_classify_inverse_direction(capsys):
    rc, out, _ = run(capsys, "classify", "--a", "1", "--b", "3")
    assert rc == 0
    assert out.strip() == "3.0, witness radial:K=3 (via inverse-map symmetry)"


def test_classify_json(capsys):
    rc, out, _ = run(capsys, "classify", "--a", "2", "--b", "1", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["dilatation"] == 2.0
    assert payload["witness"] == "radial:K=2"
    assert payload["inverted"] is False


def test_classify_out_needs_json(tmp_path, capsys):
    report = tmp_path / "k.json"
    rc, out, err = run(capsys, "classify", "--a", "2", "--b", "1", "--out", str(report))
    assert rc == 2 and out == "" and not report.exists()
    assert_one_error_line(err, "--out is not read by the text report")


@pytest.mark.parametrize("a, b", [("inf", "1"), ("1", "inf"), ("nan", "1"), ("0", "1")])
def test_classify_needs_finite_positive_exponents(capsys, a, b):
    rc, out, err = run(capsys, "classify", "--a", a, "--b", b)
    assert rc == 2 and out == ""
    assert_one_error_line(err, "finite and positive")


def test_every_library_error_exits_2(capsys):
    class NewError(AssouadLabError):
        pass

    def raises(args):
        raise NewError("a new kind of refusal")

    with mock.patch.object(cli, "cmd_classify", raises):
        rc, out, err = run(capsys, "classify", "--a", "1", "--b", "2")
    assert rc == 2 and out == ""
    assert_one_error_line(err, "a new kind of refusal")


# ---- verify ---------------------------------------------------------------------


def test_verify_identity_scenario(tmp_path, capsys):
    # coarse but deterministic smoke: the bound interval collapses exactly
    # onto the source curve, so exit hinges only on the oracle slack
    report = tmp_path / "report.json"
    rc, _, _ = run(capsys, "verify", "--set", "spiral:a=1",
                   "--xmax", "1e3", "--res", "1e-4", "--oracle-eps", "0.3",
                   "--out", str(report))
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["schema"] == "assouad-lab/1"
    assert payload["allPassed"] is True
    assert payload["scenario"]["map"] == "identity"
    feas = [v for v in payload["bounds"]["verdicts"] if v["feasible"]]
    assert feas and all(v["passed"] for v in feas)
    assert max(abs(v["estimate"] - v["lower"]) for v in feas) < 1e-9


@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "inf", "--eps must be finite and >= 0, got inf"),
    ("--eps", "nan", "--eps must be finite and >= 0, got nan"),
    ("--eps", "-0.1", "--eps must be finite and >= 0, got -0.1"),
    ("--oracle-eps", "nan", "--oracle-eps must be finite and >= 0, got nan"),
    ("--oracle-eps", "inf", "--oracle-eps must be finite and >= 0, got inf"),
    ("--oracle-eps", "-0.1", "--oracle-eps must be finite and >= 0, got -0.1"),
    ("--claim-image-a", "nan", "--claim-image-a must be finite and > 0, got nan"),
    ("--claim-image-a", "inf", "--claim-image-a must be finite and > 0, got inf"),
    ("--eps", "0", None),
    ("--oracle-eps", "0", None),
], ids=["eps-inf", "eps-nan", "eps-negative", "oracle-eps-nan", "oracle-eps-inf",
        "oracle-eps-negative", "claim-nan", "claim-inf", "eps-zero", "oracle-eps-zero"])
def test_verify_refuses_non_finite_slacks_and_claims(monkeypatch, capsys, flag, value, message):
    """A slack or claim that is not a finite number in range exits 2 with one
    line, before anything is sampled; a zero slack is allowed, and its report
    is strict JSON."""
    if message is not None:
        monkeypatch.setattr(cli.fam, "sample_family", mock.Mock(side_effect=AssertionError))
    rc, out, err = run(capsys, "verify", "--set", "spiral:a=1", "--xmax", "1000",
                       "--res", "1e-3", flag, value)
    if message is None:
        assert rc in (0, 4) and err == ""
        assert strict_json(out)["eps" if flag == "--eps" else "oracleEps"] == 0.0
    else:
        assert rc == 2 and out == ""
        assert_one_error_line(err, message)


@pytest.mark.parametrize("argv, needle", [
    (["gen", "--family", "spiral", "--res", "inf"], "target_resolution must be finite"),
    (["gen", "--family", "cantor", "--res", "nan"], "target_resolution must be finite"),
    (["verify", "--set", "spiral:a=1", "--xmax", "1000", "--res", "inf"],
     "--res must be finite and > 0, got inf"),
    (["verify", "--set", "spiral:a=1", "--xmax", "1000", "--res", "1e-3", "--map",
      "radial:K=2", "--image-res", "inf"], "--image-res must be finite and > 0, got inf"),
    (["estimate", "{plain}", "--res", "inf"], "resolution must be finite and positive"),
    (["estimate", "{inf}"], "resolution must be finite and positive"),
    (["verify", "--set", "spiral:a=1", "--xmax", "inf"], "x_max must be finite"),
    (["verify", "--set", "spiral:a=inf"], "spiral exponent a must be finite"),
    (["gen", "--family", "logspiral", "--c", "inf"], "log-spiral rate c must be finite"),
], ids=["gen-res", "gen-cantor-res", "verify-res", "verify-image-res", "estimate-res",
        "csv-metadata", "xmax", "spiral-a", "log-spiral-c"])
def test_non_finite_resolutions_and_spiral_parameters_exit_2(tmp_path, capsys, argv, needle):
    (tmp_path / "plain.csv").write_text("0.25,0.75\n0.5,0.5\n")
    (tmp_path / "inf.csv").write_text("# assouad-lab dim=2 resolution=inf\n0.25,0.75\n")
    argv = [a.format(plain=tmp_path / "plain.csv", inf=tmp_path / "inf.csv") for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the refusal
        rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert_one_error_line(err, needle)


@pytest.mark.parametrize("mode", ["spectrum", "assouad", "box"])
def test_window_flags_outside_the_float_range(spiral_s1_coarse, capsys, mode):
    path = str(spiral_s1_coarse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flags in (["--rmax", "inf"], ["--rmin", "nan"], ["--rmax", "nan"]):
            rc, out, err = run(capsys, "estimate", path, "--mode", mode, *flags)
            assert rc == 2 and out == ""
            assert_one_error_line(err, "need 0 < r_min < r_max < inf")
        # below the finest cell no radius admits another level, so a
        # subnormal --rmin estimates what any other such radius does
        reports = []
        for rmin in ("1e-320", "1e-300"):
            rc, out, _ = run(capsys, "estimate", path, "--mode", mode, "--rmin", rmin)
            assert rc == 0
            report = strict_json(out)
            del report["elapsedSeconds"]
            report.pop("window", None)
            reports.append(report)
    assert reports[0] == reports[1]


# a map whose image or resolution leaves the float range, and literals that
# are not finite: exit 2 with one line, and no numpy warning before it
_FLOAT_RANGE_MAPS = [
    ("mobius:a=1e308,b=0,c=0,d=1e-308", "map stage mobius:a=1e+308,b=0,c=0,d=1e-308 sends"),
    ("mobius:a=1e-300,b=0,c=0,d=1e300", "map stage mobius:a=1e-300,b=0,c=0,d=1e+300 sends"),
    ("mobius:a=1e200,b=1e200,c=1e-200,d=1e200", "determinant ad - bc must be finite"),
    ("similarity:s=1e308,t=1e308", "map stage similarity:s=1e+308,t=1e+308 sends"),
    ("mobius:a=1e400,b=0,c=0,d=1", "complex literal '1e400' is not finite"),
    ("similarity:s=1e400", "complex literal '1e400' is not finite"),
    ("radial:K=1e400", "radial stretch needs a finite K >= 1, got inf"),
    ("radial:K=2|similarity:s=5e-324", "map stage similarity:s=4.94066e-324,t=0 sends its"),
]


@pytest.mark.parametrize("spec, needle", _FLOAT_RANGE_MAPS)
def test_map_outside_the_float_range_exits_2(tmp_path, capsys, spec, needle):
    src, dst = tmp_path / "p.csv", tmp_path / "o.csv"
    src.write_text("0.25,0.75\n0.5,0.5\n1,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "map", str(src), "--res", "1e-3", "--spec", spec,
                           "-o", str(dst))
    assert rc == 2 and out == "" and not dst.exists()
    assert_one_error_line(err, needle)


# ---- fuzzed map specs ------------------------------------------------------

_STAGE_KEYS = {"radial": "K", "similarity": "st", "mobius": "abcd"}
# literals a stage reads, listed three times so that most specs parse, then ones
# that are zero, reach past the float range or do not parse
_LITERALS = 3 * ["1", "-1", "2", "3", "0.5", "2i", "-1+0.5i"] + [
    "0", "1e308", "1e-308", "5e-324", "1e400", "nan", "1+", "", "x"]
# whole stages: a pole on the data point (1, 0), and one on (0.5, 0.5)
_POLE_STAGES = ["mobius:a=0,b=1,c=1,d=-1", "mobius:a=1,b=0,c=2,d=-1-i"]


@st.composite
def map_specs(draw):
    """Specs of 1-4 stages with missing, repeated, unknown and upper-case
    keys, empty stages, unknown kinds and literals past the float range."""
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(3 * [*_STAGE_KEYS, "pole"] + ["Radial", "shear", ""]))
        if kind == "pole":
            stages.append(draw(st.sampled_from(_POLE_STAGES)))
            continue
        keys = [k for k in _STAGE_KEYS.get(kind.lower(), "") if draw(st.integers(0, 7))]
        if not draw(st.integers(0, 5)):  # repeated, upper-case or unknown
            keys.append(draw(st.sampled_from(["K", "S", "t", "a", "D", "q"])))
        args = ",".join(f"{k}={draw(st.sampled_from(_LITERALS))}" for k in keys)
        stages.append(f"{kind}:{args}" if args else kind)
    return "|".join(stages)


@settings(max_examples=150, deadline=None)
@given(spec=map_specs())
def test_fuzzed_map_specs_exit_0_2_or_3_with_one_error_line(tmp_path_factory, spec):
    tmp = tmp_path_factory.mktemp("fuzz")
    src, dst = tmp / "p.csv", tmp / "o.csv"
    src.write_text("0.25,0.75\n0.5,0.5\n1,0\n")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(["map", str(src), "--res", "1e-3", "--spec", spec, "-o", str(dst)])
    assert rc in (0, 2, 3) and out.getvalue() == "", spec
    if rc:
        assert_one_error_line(err.getvalue())
        assert not dst.exists(), spec
    else:
        assert err.getvalue() == "" and len(load_points(dst).points) == 3, spec


@pytest.mark.parametrize("spec, needle", [
    m for m in _FLOAT_RANGE_MAPS if m[0].startswith("mobius")])
def test_verify_map_outside_the_float_range_exits_2(capsys, spec, needle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "verify", "--set", "spiral:a=1", "--xmax", "100",
                           "--res", "1e-3", "--map", spec)
    assert rc == 2 and out == ""
    assert_one_error_line(err, needle)


@pytest.mark.parametrize("spec", [
    "radial:K=1e200|radial:K=1e200", "radial:K=1e200|similarity:s=1|radial:K=1e200",
], ids=["radial-chain", "with-similarity"])
def test_verify_chain_whose_dilatation_overflows_exits_2_before_sampling(monkeypatch, capsys,
                                                                          spec):
    monkeypatch.setattr(cli.fam, "sample_family", mock.Mock(side_effect=AssertionError))
    rc, out, err = run(capsys, "verify", "--set", "spiral:a=1", "--xmax", "100",
                       "--res", "1e-3", "--map", spec)
    assert rc == 2 and out == ""
    assert_one_error_line(err, "dilatation must be finite, got inf")


@pytest.mark.parametrize("argv, message", [
    (["map", "{p}", "--spec", "radial:K=2||"], "empty stage in map spec"),
    (["map", "{p}", "--spec", "radial:K"], "malformed map argument 'K'"),
    (["map", "{p}", "--spec", "similarity:t=1"], "similarity stage takes s=<complex>"),
    (["map", "{p}", "--spec", "mobius:a=1,b=0,c=0"], "mobius stage takes a=,b=,c=,d="),
    (["map", "{p}", "--spec", "similarity:s=1+"], "cannot parse complex literal '1+'"),
    (["map", "{p}", "--spec", "similarity:s=x"], "cannot parse complex literal 'x'"),
    (["map", "{p}", "--spec", "radial:K=2,K=3"], "radial stage repeats key 'K'"),
    (["map", "{p}", "--spec", "similarity:s=1,s=2"], "similarity stage repeats key 's'"),
    (["map", "{p}", "--spec", "mobius:a=1,b=0,c=0,d=1,A=2"], "mobius stage repeats key 'A'"),
    (["map", "{p}", "--spec", "shear:x=1,x=2"], "unknown map stage kind 'shear'"),
    (["bounds", "--formula", "symmetric-coeff", "--n", "1", "--K", "2"],
     "ambient dimension must be an integer >= 2, got 1"),
    (["bounds", "--formula", "spectrum", "--K", "2", "--t", "1", "--source-a", "1",
      "--inner-p", "1"], "inner exponent must exceed n=2 or be +inf, got 1.0"),
    (["bounds", "--formula", "beta-upper", "--K", "2", "--alpha", "1", "--inner-p", "1"],
     "inner exponent must exceed n=2 or be +inf, got 1.0"),
    (["bounds", "--formula", "symmetric-coeff", "--K", "2", "--alpha", "1"],
     "--alpha is not read by the symmetric-coeff formula"),
    # refused before the curve file, which does not exist, is opened
    (["bounds", "--formula", "spectrum", "--K", "2", "--t", "1", "--source-a", "1",
      "--source-csv", "no-such-curve.csv"],
     "the spectrum formula reads one source, got --source-a and --source-csv"),
    (["bounds", "--formula", "ours", "--K", "2", "--t", "1", "--d", "1", "--source-a", "1"],
     "the ours formula reads one source, got --d and --source-a"),
    (["bounds", "--formula", "spectrum", "--K", "2", "--t", "-1", "--source-a", "1"],
     "t must be positive, got -1.0"),
    (["bounds", "--formula", "ours", "--K", "2", "--t", "-1", "--d", "1"],
     "t must be positive, got -1.0"),
    (["bounds", "--formula", "ours", "--K", "2", "--t", "1", "--d", "3"],
     "planar dimension value must lie in [0, 2], got 3.0"),
    (["bounds", "--formula", "biholder", "--K", "1.2", "--theta", "1.5", "--source-value", "1"],
     "theta must lie in (0,1), got 1.5"),
    (["bounds", "--formula", "biholder", "--K", "1.2", "--theta", "0.5",
      "--source-value", "nan"], "source spectrum value is undefined (NaN)"),
    (["bounds", "--formula", "biholder", "--K", "1.2", "--theta", "0.5", "--source-value", "3"],
     "planar dimension value must lie in [0, 2], got 3.0"),
], ids=["map-empty-stage", "map-bare-key", "map-similarity-no-s", "map-mobius-no-d",
        "map-dangling-plus", "map-not-a-number", "map-repeated-key", "map-repeated-s",
        "map-repeated-upper-case-key", "map-unknown-kind-first", "symmetric-coeff-n1", "spectrum-inner-p",
        "beta-upper-inner-p", "symmetric-coeff-alpha", "spectrum-two-sources",
        "ours-two-sources",
        "spectrum-negative-t", "ours-negative-t", "ours-d-past-2", "biholder-theta-past-1",
        "biholder-nan-source", "biholder-source-past-2"])
def test_map_spec_and_bound_formula_refusals_exit_2(tmp_path, capsys, argv, message):
    src, dst = tmp_path / "p.csv", tmp_path / "o.csv"
    src.write_text("0.25,0.75\n0.5,0.5\n1,0\n")
    if argv[0] == "map":
        argv = [argv[0], str(src), "--res", "1e-3", *argv[2:], "-o", str(dst)]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and not dst.exists()
    assert_one_error_line(err, f"error: {message}")


def test_verify_detects_wrong_oracle_claim(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc, _, _ = run(capsys, "verify", "--set", "spiral:a=2", "--map", "radial:K=2",
                   "--claim-image-a", "2", "--xmax", "1e3", "--res", "1e-4",
                   "--out", str(report))
    assert rc == 4
    payload = json.loads(report.read_text())
    assert payload["allPassed"] is False
    assert any(v["passed"] is False for v in payload["oracleVerdicts"])
    # an oracle verdict is a bound verdict whose two bounds are the oracle
    for v in payload["oracleVerdicts"]:
        assert list(v) == ["theta", "estimate", "lower", "upper", "feasible", "passed", "reason"]
        assert v["lower"] == v["upper"]
        assert v["feasible"] == (v["passed"] is not None)


@pytest.mark.parametrize("argv, needles", [
    (["--set", "julia:c=0.3"], ["planar spirals"]),
    (["--set", "spiral:a=x"], ["'a=x'"]),
    (["--set", "spiral:a=1,b"], ["'b'"]),
    (["--set", "spiral:a=1,b=2"], ["'b=2'"]),
    (["--set", "spiral:a=1", "--theta-step", "0"], ["theta-step must be positive"]),
    (["--set", "spiral:a=1", "--theta-step", "-0.05"], ["theta-step must be positive"]),
    (["--set", "spiral:a=1", "--theta-min", "0.5", "--theta-max", "0.2"], ["0.5", "0.2"]),
    (["--set", "spiral:a=1", "--theta-step", "1e-12"], ["1e-12", "8.5e+11", "1000"]),
], ids=["family", "value", "no-value", "second-piece", "zero-step", "negative-step", "min-above-max",
        "tiny-step"])
def test_verify_rejects_unknown_scenario(capsys, argv, needles):
    tracemalloc.start()
    rc, _, err = run(capsys, "verify", *argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rc == 2
    assert_one_error_line(err, *needles)
    assert peak < 16 * 2**20  # refused before any theta grid or sample is built


# ---- verify in two processes ----------------------------------------------------

# Small scenario: S_1 to x = 1000 at res 1e-4 (145,588 points)
SMALL = ["--set", "spiral:a=1", "--xmax", "1e3", "--res", "1e-4"]
# The pushforward maps of perfbench seeds 1, 3 and 7
PUSHFORWARDS = ["radial:K=2|similarity:s=1,t=0-1.25i",
                "radial:K=2|similarity:s=1i,t=0.75+1.75i",
                "radial:K=2|similarity:s=2i,t=1-1.75i"]


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def verify_run(capsys, tmp_path, *argv):
    """Exit code, report without timings (None if not written) and stderr."""
    out = tmp_path / "verify.json"
    out.unlink(missing_ok=True)
    rc, _, err = run(capsys, "verify", *argv, "--out", str(out))
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        assert set(report.pop("timings")) == {
            "sampleSource", "estimateSource", "sampleImage", "estimateImage", "bounds"}
    return rc, json.dumps(report), err


@two_cpus
@pytest.mark.parametrize("spec", ["radial:K=2", *PUSHFORWARDS, None],
                         ids=["radial", "seed1", "seed3", "seed7", "identity"])
def test_verify_report_is_the_same_in_one_process_and_two(monkeypatch, capsys, tmp_path,
                                                          forks, spec):
    # A map's source is estimated in the verify child; the identity's one
    # sweep runs here.
    argv = [*SMALL, *(["--map", spec] if spec else [])]
    forked = verify_run(capsys, tmp_path, *argv)
    assert (len(forks), forks.nested()) == ((1, 1) if spec else (0, 0))
    one_cpu(monkeypatch)
    assert verify_run(capsys, tmp_path, *argv) == forked
    assert (len(forks), forks.nested()) == ((1, 1) if spec else (0, 0))
    assert forked[0] in (0, 4) and forked[1] != "null"  # a verdict, not an error


@two_cpus
def test_default_verify_forks_once_and_its_child_forks_nothing(capsys, tmp_path, forks):
    # The source's sweep over 1.93M points runs in one process, the verify child.
    rc, report, _ = verify_run(capsys, tmp_path, "--set", "spiral:a=1", "--map", "radial:K=2")
    assert rc == 0 and report != "null"
    assert (len(forks), forks.nested()) == (1, 1)


@pytest.mark.parametrize("spec", ["radial:K=2", PUSHFORWARDS[0], None],
                         ids=["radial", "pushforward", "identity"])
def test_verify_indexes_no_params(monkeypatch, capsys, tmp_path, spec):
    # Each spiral is drawn without its curve parameters, so no point set made
    # on the way, sample or map's image, ever holds them, nor any index.
    indexed, build, made, post_init = [], cli.build_index, [], PointSet.__post_init__

    def recorded(ps):
        indexed.append(ps)
        return build(ps)

    def constructed(ps):
        made.append(ps.params is not None)
        post_init(ps)

    one_cpu(monkeypatch)  # every sample and index is made in this process
    monkeypatch.setattr(cli, "build_index", recorded)
    monkeypatch.setattr(PointSet, "__post_init__", constructed)
    rc, report, _ = verify_run(capsys, tmp_path, *SMALL, *(["--map", spec] if spec else []))
    assert rc in (0, 4) and report != "null"
    assert len(indexed) == (2 if spec else 1)
    assert all(ps.params is None for ps in indexed)
    assert len(made) >= len(indexed) and not any(made)


def test_verify_radial_chain_reads_image_res(capsys, tmp_path):
    argv = ["--set", "spiral:a=1", "--map", "radial:K=2", "--xmax", "100", "--res", "1e-3"]
    default, given = (json.loads(verify_run(capsys, tmp_path, *argv, *extra)[1])["scenario"]
                      for extra in ([], ["--image-res", "0.01"]))
    assert given["imageRes"] == 0.01 != default["imageRes"]


def test_verify_pushforward_reports_the_image_resolution(capsys, tmp_path):
    # the image estimate runs on the map's image, whose resolution apply_map widens
    report = json.loads(verify_run(capsys, tmp_path, *SMALL, "--map", PUSHFORWARDS[0])[1])
    image = qc.apply_map(qc.parse_map_spec(PUSHFORWARDS[0]), cli._sample_spiral(1.0, 1e3, 1e-4))
    assert report["scenario"]["imageRes"] == image.resolution > report["scenario"]["res"]


@two_cpus
@pytest.mark.parametrize("argv", [
    # the source estimate fails in the child; the image's would not
    ["--map", "radial:K=2", "--xmax", "100", "--res", "0.1", "--image-res", "0.01"],
    # both fail: the source's error comes first, as it does inline
    ["--map", "similarity:s=4", "--xmax", "10", "--res", "0.1"],
], ids=["source-only", "both"])
def test_verify_error_in_the_child_matches_inline(monkeypatch, capsys, tmp_path, forks, argv):
    argv = ["--set", "spiral:a=1", *argv]
    forked = verify_run(capsys, tmp_path, *argv)
    assert len(forks) == 1
    one_cpu(monkeypatch)
    assert verify_run(capsys, tmp_path, *argv) == forked
    rc, report, err = forked
    assert rc == 3 and report == "null"
    assert_one_error_line(err, "root side 1.06")


@two_cpus
@pytest.mark.parametrize("error", [PoleProximityError("pole too close"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_verify_error_in_the_parent_leaves_no_child(monkeypatch, capsys, tmp_path, forks,
                                                    error):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli.qc, "apply_map", fail)
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(["verify", *SMALL, "--map", PUSHFORWARDS[0]])
    else:
        rc, report, err = verify_run(capsys, tmp_path, *SMALL, "--map", PUSHFORWARDS[0])
        assert rc == 3 and report == "null"
        assert_one_error_line(err, "pole too close")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@two_cpus
def test_verify_child_killed_by_a_signal_exits_with_one_line(tmp_path):
    script = (
        "import os, signal, sys\n"
        "from assouad_lab import cli\n"
        "parent, curve = os.getpid(), cli._estimate_curve\n"
        "def estimate(*args):\n"
        "    if os.getpid() != parent:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return curve(*args)\n"
        "cli._estimate_curve = estimate\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = ["verify", *SMALL, "--map", PUSHFORWARDS[0]]
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: the forked estimate process ended with code -9"]


@two_cpus
@pytest.mark.parametrize("task", ["write", "read"])
def test_csv_child_killed_by_a_signal_exits_with_one_line(tmp_path, task):
    sample_family(FamilySpec(kind="poly_spiral", a=1.0, x_max=100.0,
                             target_resolution=1e-3)).to_csv(tmp_path / "s.csv")
    step = "_write_rows" if task == "write" else "_load_range"
    script = (
        "import os, signal, sys\n"
        "from assouad_lab import cli, geometry\n"
        "geometry._BLOCK_ROWS = geometry._SPLIT_BYTES = 1000  # small files split\n"
        f"parent, step = os.getpid(), geometry.{step}\n"
        "def die(*args):\n"
        "    if os.getpid() != parent:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return step(*args)\n"
        f"geometry.{step} = die\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = (["gen", "--family", "spiral", "--xmax", "100", "-o", "out.csv"] if task == "write"
            else ["index-stats", "s.csv"])
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: the forked CSV {task} process ended with code -9"]


@pytest.mark.parametrize("patches", [
    [(index, "_BLOCK", 777)],
    [(qc, "_BLOCK", 333)],
    [(index, "_BLOCK", 1000), (qc, "_BLOCK", 1000)],
], ids=["index-block", "maps-block", "all"])
def test_verify_report_is_the_same_whatever_the_block_sizes(monkeypatch, capsys, tmp_path,
                                                            patches):
    # and so are an estimate report and a map output, of the verify's source
    argv = [*SMALL, "--map", PUSHFORWARDS[0]]
    src, spectrum, image = (str(tmp_path / name) for name in ("s.csv", "e.json", "i.csv"))
    assert run(capsys, "gen", "--family", "spiral", "--xmax", "1e3", "--res", "1e-4",
               "-o", src)[0] == 0

    def outputs():
        assert run(capsys, "estimate", src, "--mode", "spectrum", "--out", spectrum)[0] == 0
        assert run(capsys, "map", src, "--spec", PUSHFORWARDS[0], "-o", image)[0] == 0
        with open(spectrum) as fh:
            report = json.load(fh)
        del report["elapsedSeconds"]
        with open(image, "rb") as fh:
            return verify_run(capsys, tmp_path, *argv), report, fh.read()

    want = outputs()
    for module, name, value in patches:
        assert hasattr(module, name)
        monkeypatch.setattr(module, name, value)
    assert outputs() == want
    assert want[0][0] in (0, 4) and want[0][1] != "null"


@pytest.mark.parametrize("case", ["identity", "one-cpu", "second-thread"])
def test_verify_runs_in_one_process_when_a_fork_cannot_overlap(monkeypatch, capsys, tmp_path,
                                                                case):
    def refuse():
        raise AssertionError("verify forked")

    monkeypatch.setattr(os, "fork", refuse)
    argv = SMALL if case == "identity" else [*SMALL, "--map", PUSHFORWARDS[0]]
    if case == "one-cpu":
        one_cpu(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    if case == "second-thread":
        waiter.start()
    try:
        rc, report, _ = verify_run(capsys, tmp_path, *argv)
    finally:
        release.set()
    if case == "second-thread":
        waiter.join(timeout=60)
        assert not waiter.is_alive()
    assert rc in (0, 4) and report != "null"


@pytest.mark.parametrize("command", [
    ["estimate", "s.csv", "--mode", "spectrum"],
    ["verify", "--set", "spiral:a=1"],
], ids=["estimate", "verify"])
@pytest.mark.parametrize("value", ["0", "-1", "1001", "1000000000", "2.5", "many"])
def test_centers_outside_the_cap_exit_before_any_sample(monkeypatch, capsys, command, value):
    def refuse(*args, **kwargs):
        raise AssertionError("points loaded or sampled before --centers was checked")

    monkeypatch.setattr(cli, "load_points", refuse)
    monkeypatch.setattr(cli.fam, "sample_family", refuse)
    rc, out, err = run(capsys, *command, "--centers", value)
    assert rc == 2 and out == ""
    assert_one_error_line(err, "--centers", repr(value), "1000")


@pytest.mark.parametrize("command", [["estimate", "s.csv"], ["verify", "--set", "spiral:a=1"]])
def test_centers_cap_is_inclusive(command):
    parser = cli._build_parser()
    for value in (1, 1000):
        assert parser.parse_args(command + ["--centers", str(value)]).centers == value


@pytest.mark.parametrize("module", ["assouad_lab", "assouad_lab.errors"])
def test_package_import_loads_nothing_else(module):
    # Names are imported from their modules; the package re-exports none.
    script = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('assouad_lab')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(sorted({"assouad_lab", module}))
