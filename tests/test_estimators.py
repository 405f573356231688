import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from assouad_lab import estimators, index
from assouad_lab.errors import AssouadLabError, InvalidParameterError, WindowTooNarrowError
from assouad_lab.estimators import (
    DEFAULT_THETA_GRID,
    ScaleWindow,
    SpectrumEstimate,
    estimate_assouad,
    estimate_box_dim,
    estimate_rho,
    _coarse_cells,
    estimate_spectrum,
    select_centers,
)
from assouad_lab.geometry import PointSet
from assouad_lab.families import FamilySpec, sample_family
from assouad_lab.index import _decode, build_index
from conftest import encode, point_samples, two_cpus

LOG23 = math.log(2) / math.log(3)


@pytest.fixture(scope="module")
def single_point_idx():
    ps = PointSet(dim=2, points=[(0.3, 0.7)], resolution=1e-4)
    return build_index(ps)


def test_scale_window_validation():
    with pytest.raises(InvalidParameterError):
        ScaleWindow(0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        ScaleWindow(-1.0, 0.5)


def test_scale_window_defaults(cantor12_idx):
    w = ScaleWindow.default_for(cantor12_idx)
    assert w.r_min == pytest.approx(4 * cantor12_idx.source.resolution)
    assert w.r_max == pytest.approx(cantor12_idx.root_side / 4)
    assert len(w.levels(cantor12_idx)) >= 4


# ---- single point: everything is zero ----------------------------------


def test_single_point_box(single_point_idx):
    assert estimate_box_dim(single_point_idx).value == 0.0


def test_single_point_spectrum(single_point_idx):
    spec = estimate_spectrum(single_point_idx)
    assert all(v == 0.0 for v in spec.regularized_values)


def test_single_point_qa_and_assouad(single_point_idx):
    # one estimate stands for both: the last regularized value of the sweep
    assert estimate_assouad(single_point_idx).value == 0.0


# ---- known sets ---------------------------------------------------------


def test_dense_square_box(dense_square_idx):
    est = estimate_box_dim(dense_square_idx)
    assert est.value == pytest.approx(2.0, abs=0.05)
    assert est.method == "box"


def test_dense_square_assouad(dense_square_idx):
    est = estimate_assouad(dense_square_idx)
    assert est.value == pytest.approx(2.0, abs=0.1)
    assert est.method == "assouadWindow"


def test_cantor_depth10_box():
    from assouad_lab.families import FamilySpec, sample_family

    ps = sample_family(FamilySpec(kind="cantor", ratio=1.0 / 3.0, depth=10,
                                  target_resolution=(1.0 / 3.0) ** 10))
    idx = build_index(ps)
    assert estimate_box_dim(idx).value == pytest.approx(LOG23, abs=0.05)


def test_cantor_quasi_assouad(cantor12_idx):
    est = estimate_assouad(cantor12_idx)
    assert est.value == pytest.approx(LOG23, abs=0.08)
    assert est.method == "assouadWindow"


def test_sequence_assouad_one_sided(sequence_idx):
    # finite truncation biases down, so only a floor is asserted
    assert estimate_assouad(sequence_idx).value >= 0.85


def test_qa_and_assouad_read_the_last_regularized_value(cantor12_idx, sequence_idx):
    spiral = build_index(sample_family(
        FamilySpec(kind="poly_spiral", a=1.0, x_max=1e3, target_resolution=1e-3)))
    # the quasi-Assouad level of the curve is the Assouad estimate: no
    # finite window tells the two apart
    for idx in (cantor12_idx, sequence_idx, spiral):
        spec = estimate_spectrum(idx)
        assouad = estimate_assouad(idx)
        assert assouad.value == spec.regularized_values[-1]
        assert assouad.slope_diagnostics == [
            (t, v) for t, v in zip(spec.theta_grid, spec.values) if not math.isnan(v)]


@pytest.fixture(scope="module")
def scaled_segments():
    """A 257-point segment at unit scale and near each end of the float range."""
    out = []
    for scale in (1.0, 1e-300, 1e150):
        pts = np.column_stack([np.linspace(0.0, scale, 257), np.zeros(257)])
        ps = PointSet(dim=2, points=pts, resolution=scale / 256)
        out.append(build_index(ps))
    return out


_RADII = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, 2), r_min=_RADII, r_max=_RADII)
@example(which=0, r_min=4.0 / 256, r_max=math.inf)
@example(which=0, r_min=1e-320, r_max=0.25)
@example(which=1, r_min=1e-302, r_max=1e308)
def test_windows_give_a_finite_spectrum_or_refuse_without_warnings(
        scaled_segments, which, r_min, r_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            window = ScaleWindow(r_min, r_max)
            spec = estimate_spectrum(scaled_segments[which], window=window, center_budget=2)
        except AssouadLabError:
            return
    assert all(math.isfinite(v) for v in spec.regularized_values)
    assert all(math.isnan(v) or math.isfinite(v) for v in spec.values)


def test_a_window_past_the_finest_cell_or_the_root_changes_no_estimate(scaled_segments):
    # the clamp that keeps the window's ratios in the float range is exact
    idx = scaled_segments[0]
    finest, root = idx.cell_side(idx.max_level), idx.root_side
    want = estimate_spectrum(idx, window=ScaleWindow(finest, root), center_budget=2)
    for r_min, r_max in ((1e-320, root), (finest, 1e308), (finest / 3, 2 * root)):
        got = estimate_spectrum(idx, window=ScaleWindow(r_min, r_max), center_budget=2)
        np.testing.assert_array_equal(got.values, want.values)  # NaN where absent
        assert got.regularized_values == want.regularized_values
    assert not all(math.isnan(v) for v in want.values)


def test_no_ray_at_theta_095_even_on_62_levels():
    # The deepest index there is: a ray at 0.95 spans at most
    # 0.05 * (62 - 3) = 2.95 octaves, under the 3 a ray needs.
    pts = np.concatenate([[0.0], 2.0 ** (-np.arange(248) / 4)])
    idx = build_index(PointSet(dim=1, points=pts, resolution=2.0**-62))
    assert idx.max_level == 62
    grid = DEFAULT_THETA_GRID + (0.95,)
    for window in (None, ScaleWindow(2.0**-63, 0.5)):
        values = estimate_spectrum(idx, grid, window=window).values
        assert not math.isnan(values[-2])  # 0.9 is admitted
        assert math.isnan(values[-1])


# ---- spectrum structure -------------------------------------------------


def test_regularized_is_monotone_and_clamped(cantor12_idx, sequence_idx):
    for idx in (cantor12_idx, sequence_idx):
        spec = estimate_spectrum(idx)
        reg = spec.regularized_values
        assert all(b >= a for a, b in zip(reg, reg[1:]))
        assert all(0.0 <= v <= idx.dim for v in reg)
        raw = [v for v in spec.values if not math.isnan(v)]
        assert all(0.0 <= v <= idx.dim for v in raw)


def test_dimension_chain(cantor12_idx, sequence_idx, dense_square_idx):
    for idx in (cantor12_idx, sequence_idx, dense_square_idx):
        box = estimate_box_dim(idx).value
        reg = estimate_spectrum(idx).regularized_values
        assouad = estimate_assouad(idx).value
        for r in reg:
            assert box <= r + 0.1
            assert r + 0.1 <= assouad + 0.2


def test_scale_relaxation_stability(cantor12_idx, sequence_idx):
    # coarsening every query radius by a constant moves no estimate much
    for idx in (cantor12_idx, sequence_idx):
        base = estimate_spectrum(idx).regularized_values
        w0 = ScaleWindow.default_for(idx)
        for c1 in (2.0, 4.0):
            w = ScaleWindow(w0.r_min * c1, min(w0.r_max * c1, idx.root_side))
            moved = estimate_spectrum(idx, window=w).regularized_values
            assert max(abs(a - b) for a, b in zip(base, moved)) <= 0.1


def test_finite_stability_under_union(cantor12, cantor12_idx):
    shifted = cantor12.points + 2.0
    union = PointSet(dim=1, points=np.vstack([cantor12.points, shifted]),
                     resolution=cantor12.resolution)
    union_idx = build_index(union)
    part = estimate_spectrum(cantor12_idx).regularized_values
    whole = estimate_spectrum(union_idx).regularized_values
    for p, w in zip(part, whole):
        assert w >= p - 0.05


def test_absent_theta_reported_not_fabricated(cantor12_idx):
    # theta = 0.99 needs R^(1/theta) barely below R: no admissible pair in
    # a short window, so the raw value is absent and the floor carries it
    w = ScaleWindow(0.004, 0.2)
    spec = estimate_spectrum(cantor12_idx, theta_grid=(0.99,), window=w)
    assert math.isnan(spec.values[0])
    assert spec.regularized_values[0] == pytest.approx(
        estimate_box_dim(cantor12_idx, window=w).value)


def test_spectrum_is_unchanged_when_every_radius_is_counted(cantor12_idx, sequence_idx):
    # The sweep counts only the admitted radii of thetas that have a ray;
    # counting every radius must not move any value or diagnostic.
    count_rays = estimators._count_rays
    skipped = []

    def every_radius(idx, centers, ks, radii_by_k, counted):
        skipped.append(int((~counted).sum()))
        return count_rays(idx, centers, ks, radii_by_k, np.ones_like(counted))

    spiral = build_index(sample_family(
        FamilySpec(kind="poly_spiral", a=1.0, x_max=1e3, target_resolution=1e-4)))
    for idx in (cantor12_idx, sequence_idx, spiral):
        for grid in (DEFAULT_THETA_GRID, (0.1, 0.5, 0.95)):
            want = estimate_spectrum(idx, grid)
            with mock.patch.object(estimators, "_count_rays", every_radius):
                got = estimate_spectrum(idx, grid)
            assert got.to_json() == want.to_json()
            assert got.regularized_values == want.regularized_values
    assert min(skipped) > 0


def test_no_feasible_theta_places_no_center_and_counts_no_ball():
    # On the README's S_1/2 (res 1e-3), 0.95 admits no level and 0.30 spans
    # 2.80 octaves; 0.35 has a ray.  Where no theta is feasible, neither
    # select_centers nor _count_rays runs, and the absent theta reads as it
    # does beside a feasible one.
    idx = build_index(sample_family(
        FamilySpec(kind="poly_spiral", a=0.5, x_max=1e4, target_resolution=1e-3)))
    calls = []

    def spy(name, fn):
        return mock.patch.object(estimators, name,
                                 lambda *a: calls.append(name) or fn(*a))

    with spy("select_centers", select_centers), spy("_count_rays", estimators._count_rays):
        alone = [estimate_spectrum(idx, (theta,)) for theta in (0.95, 0.3)]
        assert calls == []
        with pytest.raises(InvalidParameterError, match="center budget"):
            estimate_spectrum(idx, (0.95,), center_budget=0)
        beside = estimate_spectrum(idx, (0.3, 0.35))
    assert calls == ["select_centers", "_count_rays"]
    assert beside.diagnostics[0] is None and beside.diagnostics[1] is not None
    for spec in alone:
        assert math.isnan(spec.values[0]) and spec.diagnostics == [None]
    assert alone[1].regularized_values == beside.regularized_values[:1]


def test_one_count_call_a_level_and_only_for_thetas_with_a_ray():
    # On the README's S_1/2, 0.30 admits levels but spans too few octaves
    # for a ray, and 0.35 has one: each of 0.35's levels is counted in one
    # call, every center a row, for its one radius; 0.30's radii never are.
    idx = build_index(sample_family(
        FamilySpec(kind="poly_spiral", a=0.5, x_max=1e4, target_resolution=1e-3)))
    count = index.MultiScaleIndex.count_intersecting_many
    calls = []

    def spy(self, level, x, radii):
        calls.append((level, np.shape(x), len(radii)))
        return count(self, level, x, radii)

    with mock.patch.object(index.MultiScaleIndex, "count_intersecting_many", spy):
        spec = estimate_spectrum(idx, (0.3, 0.35), center_budget=24)
    levels = [level for level, _, _ in calls]
    assert spec.diagnostics[0] is None
    assert len(set(levels)) == len(levels) == spec.diagnostics[1]["points"]
    assert all(shape == (24, 2) and n == 1 for _, shape, n in calls)


def test_no_scales_at_all_is_an_error(cantor12_idx):
    w = ScaleWindow(0.01, 0.1)  # three dyadic levels: no floor, no rays
    with pytest.raises(WindowTooNarrowError):
        estimate_spectrum(cantor12_idx, theta_grid=(0.99,), window=w)


def test_box_needs_four_levels(cantor12_idx):
    with pytest.raises(WindowTooNarrowError):
        estimate_box_dim(cantor12_idx, window=ScaleWindow(0.01, 0.1))


@pytest.mark.parametrize("grid, message", [
    ((0.0, 0.5), "strictly inside (0, 1)"),
    ((0.5, 1.0), "strictly inside (0, 1)"),
    ((), "strictly inside (0, 1)"),
    ((0.3, 0.3), "strictly increasing"),
    ((0.5, 0.2), "strictly increasing"),
], ids=["zero", "one", "empty", "repeated", "decreasing"])
def test_spectrum_refuses_a_theta_grid_outside_0_1_or_not_increasing(cantor12_idx, grid,
                                                                     message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        estimate_spectrum(cantor12_idx, theta_grid=grid)


def test_center_budget_below_1_is_refused_before_the_window(cantor12_idx):
    # Two points 4 resolutions apart: a 2-level index whose default window
    # is empty.  On the Cantor index, a window with r_min above root/8: no
    # level range.  A budget of 0 is refused for itself, not for the scales.
    two = build_index(PointSet(dim=2, points=[(0.0, 0.0), (0.004, 0.0)], resolution=1e-3))
    with pytest.raises(WindowTooNarrowError):
        estimate_spectrum(two)
    narrow = ScaleWindow(cantor12_idx.root_side / 4, cantor12_idx.root_side)
    for idx, window in ((two, None), (cantor12_idx, narrow)):
        for budget in (0, -3):
            with pytest.raises(InvalidParameterError,
                               match=f"center budget must be >= 1, got {budget}"):
                estimate_spectrum(idx, window=window, center_budget=budget)


# ---- rho ----------------------------------------------------------------


def oracle_estimate(a, grid=tuple(round(0.05 * i, 2) for i in range(1, 20))):
    from assouad_lab.families import oracle_spiral_spectrum

    vals = [oracle_spiral_spectrum(a, th) for th in grid]
    return SpectrumEstimate(theta_grid=list(grid), values=vals,
                            regularized_values=vals, diagnostics=[None] * len(grid))


def test_rho_on_exact_oracle_curves():
    assert estimate_rho(oracle_estimate(1.0), epsilon=0.01) == pytest.approx(0.5, abs=0.05)
    assert estimate_rho(oracle_estimate(2.0), epsilon=0.01) == pytest.approx(2 / 3, abs=0.05)


def test_rho_of_flat_zero_spectrum():
    grid = list(DEFAULT_THETA_GRID)
    flat = SpectrumEstimate(theta_grid=grid, values=[0.0] * len(grid),
                            regularized_values=[0.0] * len(grid),
                            diagnostics=[None] * len(grid))
    assert estimate_rho(flat, epsilon=0.05) == grid[0]


def test_rho_sits_at_grid_top_while_curve_still_rising():
    grid = [0.1, 0.2, 0.3]
    rising = SpectrumEstimate(theta_grid=grid, values=[0.1, 0.2, 1.0],
                              regularized_values=[0.1, 0.2, 1.0],
                              diagnostics=[None] * 3)
    # nothing before the final point comes within epsilon of the top value
    assert estimate_rho(rising, epsilon=0.05) == 0.3


@pytest.mark.parametrize("epsilon", [0.0, -0.1])
def test_rho_refuses_a_nonpositive_epsilon(epsilon):
    with pytest.raises(InvalidParameterError, match="epsilon must be positive"):
        estimate_rho(oracle_estimate(1.0), epsilon=epsilon)


# ---- serialization ------------------------------------------------------


def test_spectrum_json_and_csv(cantor12_idx):
    spec = estimate_spectrum(cantor12_idx, theta_grid=(0.2, 0.5, 0.99),
                             window=ScaleWindow(0.004, 0.2))
    payload = json.loads(json.dumps(spec.to_json()))
    assert set(payload) == {"theta", "value", "regularized", "diagnostics"}
    assert payload["value"][2] is None  # NaN must not leak into JSON
    lines = spec.to_csv().strip().splitlines()
    assert lines[0] == "theta,regularized"
    assert len(lines) == 4


# ---- center selection: exactness against the full-scan reference ---------
# The reference is the earlier full-scan code: every hotspot snap-back takes
# the distance to all N points.


def hot_level(idx):
    """The mid-depth level whose occupied cells the hotspots are ranked by."""
    level = max(3, idx.max_level // 2)
    return max(idx.max_level - 1, 0) if level >= idx.max_level else level


def reference_hotspots(idx, budget):
    deep_addr = _decode(idx.level_keys[idx.max_level], idx._bits, idx.dim)
    hot = hot_level(idx)
    anc = encode(deep_addr >> (idx.max_level - hot), idx._bits)
    uniq, counts = np.unique(anc, return_counts=True)
    top = uniq[np.lexsort((uniq, -counts))[:budget]]  # most leaves first, then smallest key
    low = idx.low
    points = idx.source.points
    out = []
    for key in top:
        sub = deep_addr[anc == key]
        for lev in range(hot + 1, idx.max_level + 1):
            child = encode(sub >> (idx.max_level - lev), idx._bits)
            winners, tallies = np.unique(child, return_counts=True)
            sub = sub[child == winners[np.argmax(tallies)]]
        cell_center = low + (sub[0] + 0.5) * idx.cell_side(idx.max_level)
        out.append(points[int(np.argmin(np.linalg.norm(points - cell_center, axis=1)))])
    out = np.asarray(out)
    first = np.unique(out, axis=0, return_index=True)[1]  # each row at its first place
    return out[np.sort(first)]


SINGLE_POINT = PointSet(dim=2, points=[(0.3, 0.7)], resolution=1e-3)
# The hotspot cell [-1, -0.75) has its center equidistant from -1 and -0.75,
# which sit in different coarse cells; the first index (-0.75) must win.
TIED_ACROSS_CELLS = PointSet(dim=1, points=[0, 1, -0.75, 1, -0.5, -0.25, 0.75, -0.25, 0, -1],
                             resolution=0.25)


def coarse_cell_edges(dim):
    """Points exactly on coarse-cell edges (multiples of the coarse side),
    one ulp to either side of them, and on the root's upper face, which the
    address clip puts in the last cell.  The root is [0, 1]^dim."""
    level = min(8, 16 // dim)
    rng = np.random.default_rng(dim)
    edges = rng.integers(0, 2**level + 1, size=(300, dim)) / 2.0**level
    nudged = np.nextafter(edges, rng.choice([-np.inf, np.inf], size=edges.shape))
    pts = np.clip(np.vstack([[np.zeros(dim)], edges, nudged, [np.ones(dim)]]), 0.0, 1.0)
    pts[rng.random(len(pts)) < 0.2, rng.integers(0, dim)] = 1.0
    ps = PointSet(dim=dim, points=pts, resolution=2.0**-10)
    idx = build_index(ps)
    assert idx.coarse_level == level and np.array_equal(idx.low, np.zeros(dim))
    return ps


# Two of its 9 hot cells snap back to (0.75, 0), which is kept once.
SNAPS_TWICE = PointSet(dim=2, points=[
    (0.25, -0.5), (-1, -1), (0.75, 0.75), (0.25, 0.5), (0, 0.75), (0.75, -1), (0.75, -1),
    (0.5, -0.75), (0.75, 0), (-0.5, -0.25), (-1, -0.75), (0.25, 0.25), (0.25, 0.25),
    (0.25, -0.25), (1, 1), (0.5, -0.25)], resolution=0.25)

# What --centers N means: Cantor depth 12 and the sequence at the CLI's
# defaults have 10 and 8 occupied hot cells, a 20,001-point diagonal segment
# 64, so budget N places min(N, that many) centers (test_center_counts).
CANTOR_12 = sample_family(FamilySpec(kind="cantor", depth=12))
SEQUENCE = sample_family(FamilySpec(kind="sequence"))
DIAGONAL = PointSet(dim=2, points=np.repeat(np.linspace(0.0, 1.0, 20_001)[:, None], 2, axis=1),
                    resolution=1e-4)


@settings(max_examples=60, deadline=None)
@given(ps=point_samples(), budget=st.integers(1, 40))
@example(ps=SINGLE_POINT, budget=24)
@example(ps=TIED_ACROSS_CELLS, budget=2)
@example(ps=CANTOR_12, budget=24)
@example(ps=SEQUENCE, budget=24)
@example(ps=DIAGONAL, budget=24)
@example(ps=SNAPS_TWICE, budget=9)
def test_select_centers_matches_reference(ps, budget):
    idx = build_index(ps)
    got = select_centers(idx, budget)
    want = reference_hotspots(idx, budget)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # distinct centers, at most one per occupied hot cell; a smaller
    # budget's centers are the first rows of a larger one's
    most = select_centers(idx, 1000)
    assert len(np.unique(most, axis=0)) == len(most) <= idx.occupied_count(hot_level(idx))
    assert len(got) <= budget and got.tobytes() == most[:len(got)].tobytes()
    with pytest.raises(InvalidParameterError, match="center budget"):
        select_centers(idx, 0)


@pytest.mark.parametrize("ps, at_24, at_1000", [
    (CANTOR_12, 10, 10), (SEQUENCE, 8, 8), (DIAGONAL, 24, 64), (SNAPS_TWICE, 8, 8),
], ids=["cantor", "sequence", "diagonal", "snaps-twice"])
def test_center_counts(ps, at_24, at_1000):
    idx = build_index(ps)
    assert [len(select_centers(idx, b)) for b in (24, 1000)] == [at_24, at_1000]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_select_centers_on_coarse_cell_edges(dim):
    ps = coarse_cell_edges(dim)
    for block in (1, 3, 1024):
        with mock.patch.object(index, "_BLOCK", block):
            idx = build_index(ps)
        for budget in (2, 17, 60, 200):
            got = select_centers(idx, budget)
            want = reference_hotspots(idx, budget)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_coarse_keys(idx):
    """Row-major uint16 coarse keys by the float formula floor((x - low) / coarse side), clipped."""
    level = idx.coarse_level
    addr = np.floor((idx.source.points - idx.low) / idx.cell_side(level))
    np.clip(addr, 0, 2**level - 1, out=addr)
    return encode(addr.astype(np.int64), level).astype(np.uint16)


@settings(max_examples=40, deadline=None)
@given(ps=point_samples(), block=st.sampled_from([1, 7, 2**14, 2**15]))
def test_coarse_cells_group_points_by_leaf_ancestor(ps, block):
    with mock.patch.object(index, "_BLOCK", block):
        idx = build_index(ps)
    order, starts, level = _coarse_cells(idx)
    assert level == idx.coarse_level == min(idx.max_level, 8, 16 // idx.dim)
    assert np.array_equal(np.sort(order), np.arange(len(ps)))
    leaf = np.floor((ps.points - idx.low) / idx.cell_side(idx.max_level)).astype(np.int64)
    np.clip(leaf, 0, 2**idx.max_level - 1, out=leaf)
    key = encode(leaf >> (idx.max_level - level), level)
    group = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    assert np.array_equal(key[order], group)
    assert idx.coarse_keys.dtype == np.uint16
    assert np.array_equal(idx.coarse_keys, reference_coarse_keys(idx))
    # Stable: index order inside each coarse cell.
    same = group[1:] == group[:-1]
    assert np.all(np.diff(order)[same] > 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coarse_keys_match_the_float_formula_on_cell_edges(dim):
    # The root is [0, 1]^dim.  Points sit on coarse-cell edges, one ulp to
    # either side of them, and on the root's upper face, where the float
    # formula's clip and the shifted leaf address must agree.
    level = min(8, 16 // dim)
    rng = np.random.default_rng(10 + dim)
    edges = rng.integers(0, 2**level + 1, size=(500, dim)) / 2.0**level
    below, above = np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)
    pts = np.clip(np.vstack([[np.zeros(dim)], edges, below, above, [np.ones(dim)]]), 0.0, 1.0)
    pts[rng.random(len(pts)) < 0.2, rng.integers(0, dim)] = 1.0
    ps = PointSet(dim=dim, points=pts, resolution=2.0**-12)
    for block in (1, 7, 2**14, 2**15):
        with mock.patch.object(index, "_BLOCK", block):
            idx = build_index(ps)
        assert idx.coarse_level == level and np.array_equal(idx.low, np.zeros(dim))
        assert np.array_equal(idx.coarse_keys, reference_coarse_keys(idx))


# A 202k-point S_1/2 sample: an N-sized float64 array is 1.6 MB, more than
# all the block-, grid- and cell-sized arrays of these passes together.
SPIRAL_200K = FamilySpec(kind="poly_spiral", a=0.5, x_max=1e4, target_resolution=2e-3)


def test_coarse_cells_allocates_per_point_only_the_keys_and_the_order():
    # The keys live on the index; bincount's intp copy of them is freed
    # before the order is allocated.  Shuffled, so the argsort path runs.
    ps = sample_family(SPIRAL_200K)
    perm = np.random.default_rng(5).permutation(len(ps))
    idx = build_index(PointSet(dim=2, points=ps.points[perm], resolution=ps.resolution))
    tracemalloc.start()
    order, starts, _ = _coarse_cells(idx)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert order.dtype == np.intp  # argsort's, not the run path's int32
    assert peak <= order.nbytes + 2 * starts.nbytes + 2**16


def keys_in_runs(n: int, runs: int, seed: int = 0) -> np.ndarray:
    """uint16 keys of ``n`` points in exactly ``runs`` runs; keys recur across runs."""
    rng = np.random.default_rng(seed)
    run_keys = np.cumsum(rng.integers(1, 40, runs)) % 41  # no two neighbours equal
    cuts = np.sort(rng.choice(np.arange(1, n), runs - 1, replace=False))
    return np.repeat(run_keys, np.diff(cuts, prepend=0, append=n)).astype(np.uint16)


@pytest.mark.parametrize("keys, run_path", [
    (keys_in_runs(20_000, 50), True),
    (np.random.default_rng(1).permutation(keys_in_runs(20_000, 50)), False),
    (np.zeros(1, np.uint16), False),
    (np.full(5000, 1234, np.uint16), True),
    (keys_in_runs(40, 10), False),  # one run per 4 points
    (keys_in_runs(41, 10), True),
], ids=["long-runs", "shuffled", "one-point", "one-cell", "runs-at-1/4", "runs-under-1/4"])
def test_coarse_cells_is_the_stable_argsort(keys, run_path):
    idx = build_index(PointSet(dim=2, points=[(0.0, 0.0), (1.0, 1.0)], resolution=1e-3))
    idx = dataclasses.replace(idx, coarse_keys=keys)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        order, starts, *_ = _coarse_cells(idx)
    # The run path sorts one key per run, the radix path every point's key.
    assert (len(argsort.call_args.args[0]) < len(keys)) == run_path
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    # the run path builds its order in 4 bytes a point; argsort's is kept
    assert order.dtype == (np.int32 if run_path else np.intp)
    want = np.zeros((1 << 16) + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=1 << 16), out=want[1:])
    assert np.array_equal(starts, want) and starts.dtype == np.intp


def test_coarse_cells_from_runs_allocate_per_point_only_the_order():
    idx = build_index(sample_family(S1_SMALL))  # 2,091 runs over 145,588 points
    keys = idx.coarse_keys
    runs = np.count_nonzero(keys[1:] != keys[:-1]) + 1
    assert 4 * runs < len(keys)
    tracemalloc.start()
    order, starts, _ = _coarse_cells(idx)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= order.nbytes + 2 * starts.nbytes + 64 * runs + 2**12
    assert np.array_equal(order, np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("near", [(0.249, 0.3125), (0.376, 0.3125)], ids=["below", "above"])
def test_snap_back_reaches_neighbour_cells(near):
    # Leaf side 1/8.  The drill ends in the leaf cell [0.25, 0.375)^2, whose
    # own point sits near its far corner; the nearest sample lies across the
    # lower or the upper x edge, in a neighbouring leaf (and coarse) cell.
    pts = [(0.0, 0.0), (1.0, 1.0), (0.37, 0.37), (0.26, 0.49), (0.49, 0.49),
           (0.49, 0.26), near]
    idx = build_index(PointSet(dim=2, points=pts, resolution=1.0 / 8.0))
    got = select_centers(idx, 1)
    assert got.tolist() == [list(near)]
    assert got.tobytes() == reference_hotspots(idx, 1).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hot_cells_tie_to_the_smaller_key(dim):
    # Root [0, 1]^dim, 6 levels (leaf side 1/64), hot cells at level 3.  Hot
    # cells 5 and 1 (per axis) hold two leaves each and are listed in that
    # order; cell 3 holds three; the corners hold one leaf each, in hot
    # cells 0 and 7.  Inside cells 5 and 1, and in cell 3 one level down,
    # two leaves fall in children of equal count: the smaller key wins.
    def leaf(first):
        return [(first + 0.5) / 64.0] + [(8 * (first // 8) + 0.5) / 64.0] * (dim - 1)

    pts = [leaf(44), leaf(40), leaf(12), leaf(8), leaf(24), leaf(28), leaf(31),
           [0.0] * dim, [1.0] * dim]
    idx = build_index(PointSet(dim=dim, points=pts, resolution=1.0 / 64.0))
    assert np.array_equal(idx.low, np.zeros(dim)) and idx.max_level == 6
    want = np.array([leaf(28), leaf(8), leaf(40), [0.0] * dim, [1.0] * dim])
    for budget in (1, 2, 3, 5, 6, 40):
        got = select_centers(idx, budget)
        assert got.tobytes() == want[:budget].tobytes()
        assert got.tobytes() == reference_hotspots(idx, budget).tobytes()


def test_hotspots_allocate_no_cells_by_dim_array():
    # The ranking shifts the sorted leaf keys field by field: no decoded
    # (leaf cells x dim) int64 addresses, at a budget under and one over the
    # number of hot cells.  The coarse cells are built beforehand: their
    # allocations are bounded by the coarse-cell tests above.
    ps = sample_family(SPIRAL_200K)
    idx = build_index(ps)
    cells = _coarse_cells(idx)
    leaves = idx.occupied_count(idx.max_level)
    with mock.patch.object(estimators, "_coarse_cells", lambda _: cells):
        for budget in (12, 500):
            tracemalloc.start()
            select_centers(idx, budget)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 8 * idx.dim * leaves, (budget, peak / leaves)


@pytest.mark.parametrize("a, x_max, res, shuffle", [
    (1.0, 1e3, 1e-4, False),  # coarse cells far larger than leaves at the center
    (1.5, 1e3, 1e-4, True),   # random point order: chunks no longer follow the curve
])
def test_select_centers_matches_reference_on_spirals(a, x_max, res, shuffle):
    ps = sample_family(FamilySpec(kind="poly_spiral", a=a, x_max=x_max, target_resolution=res))
    if shuffle:
        perm = np.random.default_rng(5).permutation(len(ps))
        ps = PointSet(dim=2, points=ps.points[perm], resolution=ps.resolution)
    idx = build_index(ps)
    assert idx.max_level > min(idx.max_level, 16 // idx.dim)
    got = select_centers(idx, 24)
    assert got.tobytes() == reference_hotspots(idx, 24).tobytes()
    # --centers 1000 places one distinct center per occupied hot cell (277
    # and 170 here), and its first 24 are those of the default budget
    most = select_centers(idx, 1000)
    assert len(most) == idx.occupied_count(hot_level(idx)) < 1000
    assert len(np.unique(most, axis=0)) == len(most)
    assert most[:24].tobytes() == got.tobytes()


# ---- exact invariances -------------------------------------------------------

# S_1 to x = 1000 at res 1e-4 (145,588 points).  The invariances below hold
# byte for byte on this sample; they are not a theorem about every sample
# (an axis swap moves the values of S_1 to x = 100 at res 1e-3).
S1_SMALL = FamilySpec(kind="poly_spiral", a=1.0, x_max=1e3, target_resolution=1e-4)


def spectrum_invariants(points, resolution) -> str:
    """Values, regularized values and the diagnostics no similarity moves."""
    spec = estimate_spectrum(build_index(PointSet(dim=2, points=points, resolution=resolution)))
    keep = ("fit", "points", "span", "count", "p95")
    return json.dumps([spec.values, spec.regularized_values,
                       [d and [d[k] for k in keep] for d in spec.diagnostics]])


@pytest.fixture(scope="module")
def s1_small_invariants():
    ps = sample_family(S1_SMALL)
    return ps, spectrum_invariants(ps.points, ps.resolution)


@pytest.mark.parametrize("transform", [
    lambda p, r: (p * 4, r * 4),
    lambda p, r: (p / 8, r / 8),
    lambda p, r: (p + [0.25, -1.5], r),
    lambda p, r: (np.ascontiguousarray(p[:, ::-1]), r),
    lambda p, r: (np.ascontiguousarray(p[::-1]), r),
], ids=["scale-4-one-sweep", "scale-1/8-one-sweep", "translate-one-sweep",
        "swap-axes-one-sweep", "reverse-order-one-sweep"])
def test_spectrum_is_exactly_invariant(s1_small_invariants, transform):
    ps, want = s1_small_invariants
    assert spectrum_invariants(*transform(ps.points, ps.resolution)) == want


def test_spectrum_reports_the_first_center_of_the_largest_value(cantor12_idx, sequence_idx):
    # Self-similar sets tie: several centers reach a theta's largest value.
    calls, ray_fits = [], estimators._ray_fits

    def recorded(counts, admitted, g, feasible):
        calls.append((list(feasible), ray_fits(counts, admitted, g, feasible)))
        return calls[-1][1]

    ties = 0
    for idx in (cantor12_idx, sequence_idx):
        del calls[:]
        with mock.patch.object(estimators, "_ray_fits", recorded):
            spec = estimate_spectrum(idx)
        centers = select_centers(idx, estimators.DEFAULT_CENTER_BUDGET)
        [(feasible, fits)] = calls
        assert len(fits) == len(centers)
        assert feasible == [ti for ti, d in enumerate(spec.diagnostics) if d is not None]
        for j, ti in enumerate(feasible):
            found = [fit[j][0] for fit in fits]
            first = [ci for ci, v in enumerate(found) if v == max(found)]
            ties += len({tuple(centers[ci]) for ci in first}) > 1
            assert spec.diagnostics[ti]["center"] == centers[first[0]].tolist()
            assert spec.diagnostics[ti]["fit"] == fits[first[0]][j][1]
    assert ties


@two_cpus
def test_spectrum_over_2_to_the_20_points_forks_nothing(forks):
    g = np.linspace(0.0, 1.0, 1025)
    xs, ys = np.meshgrid(g, g)
    ps = PointSet(dim=2, points=np.column_stack([xs.ravel(), ys.ravel()]), resolution=1e-3)
    assert len(ps) > 1 << 20
    estimate_spectrum(build_index(ps))
    assert len(forks) == 0
