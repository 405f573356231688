import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from assouad_lab import index

from assouad_lab.errors import InvalidParameterError
from assouad_lab.estimators import estimate_box_dim
from assouad_lab.families import cantor_intervals
from assouad_lab.geometry import PointSet
from assouad_lab.index import (
    _decode,
    _leaf_keys,
    build_index,
    local_dyadic_count,
    snap_level,
)
from conftest import (
    at_level, center_aligned_count, encode, make_random_set, point_samples,
)


# ---- build_index ------------------------------------------------------


def test_single_point_occupies_one_cell_per_level():
    ps = PointSet(dim=2, points=[(0.0, 0.0)], resolution=1e-3)
    idx = build_index(ps)
    assert [idx.occupied_count(m) for m in range(9)] == [1] * 9
    # degenerate box is widened so the leaves sit at the resolution
    assert idx.cell_side(8) == pytest.approx(ps.resolution)


def test_unit_square_corners():
    idx = build_index(at_level([(0, 0), (1, 0), (0, 1), (1, 1)], 1))
    assert idx.occupied_count(1) == 4


def test_uniform_grid_fills_level_six():
    g = np.linspace(0.0, 1.0, 100)
    xs, ys = np.meshgrid(g, g)
    idx = build_index(at_level(np.column_stack([xs.ravel(), ys.ravel()]), 6))
    assert idx.occupied_count(6) >= 0.99 * 4096


def test_empty_set_refused():
    with pytest.raises(InvalidParameterError, match="cannot index an empty point set"):
        # PointSet refuses no points, so empty a valid one after the fact
        ps = PointSet(dim=2, points=[(0.0, 0.0)], resolution=0.1)
        ps.points = ps.points[:0]
        build_index(ps)


def test_leaf_cells_stop_at_the_resolution():
    ps = PointSet(dim=1, points=[(0.0,), (1.0,)], resolution=0.25)
    idx = build_index(ps)
    assert idx.max_level == 2 and idx.cell_side(2) == 0.25


def test_deepest_level_respects_resolution():
    ps = PointSet(dim=1, points=[(0.0,), (1.0,)], resolution=1e-3)
    lvl = build_index(ps).max_level
    assert 2.0**-lvl >= 1e-3 > 2.0 ** -(lvl + 1)


@pytest.mark.parametrize("dim", [1, 2, 7])
def test_one_point_is_indexed_to_eight_levels(dim):
    ps = PointSet(dim=dim, points=[np.full(dim, 0.3)], resolution=1e-3)
    idx = build_index(ps)
    assert idx.max_level == 8
    assert idx.cell_side(8) == ps.resolution


def test_one_point_in_dim_8_overruns_the_address_budget():
    ps = PointSet(dim=8, points=[np.zeros(8)], resolution=1e-3)
    with pytest.raises(InvalidParameterError, match="packed-address budget"):
        build_index(ps)


def test_root_corner_and_side_are_the_covering_cube_around_the_box_midpoint():
    idx = build_index(at_level([(0.0, 0.0), (1.0, 0.5)], 3))
    assert np.array_equal(idx.low, [0.0, -0.25]) and idx.root_side == 1.0
    assert not idx.low.flags.writeable


def test_an_extent_that_halves_to_zero_is_refused():
    ps = PointSet(dim=2, points=[(0.0, 0.0), (5e-324, 0.0)], resolution=5e-324)
    with pytest.raises(InvalidParameterError, match="halves to 0"):
        build_index(ps)


def test_build_is_deterministic():
    rng = np.random.default_rng(42)
    ps = at_level(rng.uniform(size=(500, 2)), 6)
    a = build_index(ps)
    b = build_index(ps)
    for m in range(7):
        assert np.array_equal(a.cell_addresses(m), b.cell_addresses(m))


# ---- the depth rule against a reference --------------------------------


def reference_depth(ps):
    """floor(log2(extent / resolution)) capped at 62 // dim, or None where the
    extent is 0 or under the resolution (the floor is negative)."""
    ratio = float(np.max(ps.points.max(axis=0) - ps.points.min(axis=0))) / ps.resolution
    if ratio == 0.0:  # no extent, or one so far under that the ratio underflows
        return None
    level = math.floor(math.log2(ratio) + 1e-12)
    return None if level < 0 else min(level, 62 // ps.dim)


@st.composite
def depth_samples(draw):
    """Samples in dims 1-8 whose extent is 0, just under or just over the
    resolution (by 2^-1 down to 2^-52 of it), or up to 2^70 resolutions wide,
    past every dimension's address cap."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    res = 2.0 ** draw(st.floats(-30.0, 30.0))
    kind = draw(st.sampled_from(["zero", "under", "over", "wide"]))
    if kind == "zero":
        ratio = 0.0
    elif kind == "wide":
        ratio = 2.0 ** draw(st.floats(0.0, 70.0))
    else:
        ratio = 1.0 + (-1.0 if kind == "under" else 1.0) * 2.0 ** -draw(st.integers(1, 52))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corner = rng.uniform(-100.0, 100.0, size=dim) * res
    pts = corner + rng.uniform(0.0, 1.0, size=(n, dim)) * (ratio * res)
    axis = draw(st.integers(0, dim - 1))
    pts[0, axis], pts[-1, axis] = corner[axis], corner[axis] + ratio * res
    return PointSet(dim=dim, points=pts, resolution=res)


@settings(max_examples=300, deadline=None)
@given(ps=depth_samples())
@example(ps=PointSet(dim=2, points=[(0.0, 0.0), (1e-4, 0.0)], resolution=1e-3))
@example(ps=PointSet(dim=2, points=[(0.0, 0.0), (5e-324, 0.0)], resolution=4.0))
def test_depth_is_the_floor_of_log2_extent_over_resolution(ps):
    level = reference_depth(ps)
    if level is None and ps.dim == 8:  # 8 levels of 8 fields pass the 62 address bits
        with pytest.raises(InvalidParameterError, match="packed-address budget"):
            build_index(ps)
        return
    idx = build_index(ps)
    if level is not None:
        assert idx.max_level == level
        assert idx.cell_side(level) >= ps.resolution * (1.0 - 1e-12)
        return
    # No extent, or one under the resolution: indexed as one point at the
    # box midpoint would be, to 8 levels on a root of resolution * 2^8.
    mid = (ps.points.min(axis=0) + ps.points.max(axis=0)) / 2.0
    point = build_index(PointSet(dim=ps.dim, points=[mid], resolution=ps.resolution))
    assert idx.max_level == point.max_level == 8
    assert idx.root_side == point.root_side == ps.resolution * 2.0**8
    # half a leaf below the centred root: the midpoint is a leaf cell's centre
    assert np.array_equal(idx.low, (mid - ps.resolution / 2.0) - idx.root_side / 2.0)
    assert np.array_equal(idx.low, point.low)
    # Every point lies under half a resolution from that centre, so the
    # sample occupies one cell at every level, as the point does, and the
    # box report reads the same.
    assert [idx.occupied_count(m) for m in range(9)] == [1] * 9
    assert estimate_box_dim(idx) == estimate_box_dim(point)


# ---- occupied_count ---------------------------------------------------


def test_segment_counts_match_1d_bucketing(unit_segment_idx):
    idx = unit_segment_idx
    for m in range(1, 8):
        s = idx.cell_side(m)
        c = idx.occupied_count(m)
        assert 1 / s <= c <= 1 / s + 2


def test_cantor_endpoint_counts_track_interval_oracle():
    eps = np.unique(cantor_intervals(1.0 / 3.0, 8).reshape(-1))
    ps = PointSet(dim=1, points=eps.reshape(-1, 1), resolution=(1.0 / 3.0) ** 9)
    idx = build_index(ps)
    for k in range(1, 6):
        lvl = snap_level(idx, 3.0**-k)
        c = idx.occupied_count(lvl)
        # 2^k construction intervals at width 3^-k, grid misalignment <= 3x
        assert 2**k / 3 <= c <= 3 * 2**k


def test_occupied_count_level_bounds(unit_segment_idx):
    top = unit_segment_idx.max_level
    with pytest.raises(InvalidParameterError, match=f"level -1 outside stored range 0..{top}"):
        unit_segment_idx.occupied_count(-1)
    with pytest.raises(InvalidParameterError, match=f"level {top + 1} outside stored range"):
        unit_segment_idx.occupied_count(top + 1)


# ---- snap_level / local_dyadic_count ----------------------------------


def test_snap_level_bracket(unit_segment_idx):
    idx = unit_segment_idx
    for target in (0.9, 0.5, 0.26, 0.125, 0.01, 0.004):
        lvl = snap_level(idx, target)
        s = idx.cell_side(lvl)
        assert s <= target * (1 + 1e-12) and target < 2 * s * (1 + 1e-12)


def test_snap_level_rejects_nonpositive(unit_segment_idx):
    with pytest.raises(InvalidParameterError):
        snap_level(unit_segment_idx, 0.0)


def test_local_count_segment_ball(unit_segment_idx):
    # hand-checkable query: ball of radius 1/4 about the midpoint, m=4
    c = local_dyadic_count(unit_segment_idx, (0.5, 0.0), 0.25, 4)
    assert 7 <= c <= 27


def test_local_count_root_scale(unit_segment_idx):
    idx = unit_segment_idx
    c = local_dyadic_count(idx, (0.0, 0.0), idx.root_side / 2, 0)
    assert 1 <= c <= 4


def test_local_count_empty_region(unit_segment_idx):
    assert local_dyadic_count(unit_segment_idx, (0.9, 0.4), 0.05, 0) == 0


def test_local_count_below_resolution_refused(unit_segment_idx):
    with pytest.raises(InvalidParameterError, match="cell side 0.000125 is below the declared resolution"):
        local_dyadic_count(unit_segment_idx, (0.5, 0.0), 0.001, 4)


def test_local_count_refuses_a_nonpositive_radius(unit_segment_idx):
    for radius in (0.0, -0.25):
        with pytest.raises(InvalidParameterError, match="ball radius must be positive"):
            local_dyadic_count(unit_segment_idx, (0.5, 0.0), radius, 2)


@pytest.mark.parametrize("x", [(0.5,), (0.5, 0.0, 0.9, 0.4)])
def test_local_count_refuses_a_center_that_is_not_one_point(unit_segment_idx, x):
    with pytest.raises(InvalidParameterError, match="ball center must be one point of dimension 2"):
        local_dyadic_count(unit_segment_idx, x, 0.25, 2)


def test_local_count_refuses_a_level_past_the_index():
    # Extent 3 at resolution 1: one level, leaf side 1.5.  A cell side of 1
    # is at the resolution but snaps to level 2, which the index lacks.
    idx = build_index(PointSet(dim=2, points=[(0.0, 0.0), (3.0, 0.0)], resolution=1.0))
    assert idx.max_level == 1
    with pytest.raises(InvalidParameterError, match="query needs level 2 but the index stops at 1"):
        local_dyadic_count(idx, (0.0, 0.0), 0.5, 0)


def test_local_count_needs_stored_level(unit_segment_idx):
    idx = unit_segment_idx
    with pytest.raises(InvalidParameterError, match="below the declared resolution"):
        local_dyadic_count(idx, (0.5, 0.0), idx.root_side / 2, idx.max_level + 3)
    with pytest.raises(InvalidParameterError, match="dyadic refinement m must be >= 0, got -1"):
        local_dyadic_count(idx, (0.5, 0.0), 0.25, -1)


# ---- structural invariants --------------------------------------------


def assert_parent_closure_and_growth(idx):
    n = idx.dim
    for lvl in range(1, idx.max_level + 1):
        child = idx.cell_addresses(lvl)
        parents = set(map(tuple, idx.cell_addresses(lvl - 1).tolist()))
        assert all(tuple(a) in parents for a in (child // 2).tolist())
        c0, c1 = idx.occupied_count(lvl - 1), idx.occupied_count(lvl)
        assert c0 <= c1 <= 2**n * c0


def test_invariants_on_fixtures(unit_segment_idx, cantor12_idx):
    assert_parent_closure_and_growth(unit_segment_idx)
    assert_parent_closure_and_growth(cantor12_idx)


def cells_near(ps, x, radius, m, reach):
    """Cells of ``center_aligned_count``'s grid, unclipped, that hold a sample
    point within ``reach`` of x."""
    sigma = 2.0 ** -m * 2.0 * radius
    x = np.asarray(x, dtype=np.float64)
    d2 = np.sum((ps.points - x) ** 2, axis=1)
    near = ps.points[d2 <= reach * reach * (1 + 1e-12)]
    return len(np.unique(np.floor((near - (x - radius)) / sigma), axis=0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
@example(seed=1348685, n=1)  # an index cell meets the ball, its points lie outside it
def test_randomized_invariants_and_ball_sandwich(seed, n):
    rng = np.random.default_rng(seed)
    ps = make_random_set(rng, int(rng.integers(0, 5)), n)
    # keep the property runs small; the acceptance suite does the full battery
    if len(ps) > 2000:
        ps = PointSet(dim=n, points=ps.points[:2000], resolution=ps.resolution)
    idx = build_index(ps)
    assert_parent_closure_and_growth(idx)

    root_r = idx.root_side / 2
    for _ in range(4):
        x = ps.points[int(rng.integers(0, len(ps)))]
        radius = root_r * 2.0 ** -float(rng.uniform(0, 5))
        floor_side = max(ps.resolution, idx.root_side * 2.0**-idx.max_level)
        m_hi = int(math.floor(math.log2(2 * radius / floor_side)))
        if m_hi < 0:
            continue
        m = int(rng.integers(0, min(m_hi, 8) + 1))
        try:
            local = local_dyadic_count(idx, x, radius, m)
        except InvalidParameterError:
            continue
        oracle = center_aligned_count(ps, x, radius, m)
        assert oracle >= 1 and local >= 1
        # The index counts occupied cells of side s (s <= sigma < 2s) that meet
        # the ball; such a cell may hold only points outside it, which the
        # oracle never sees.  But each counted cell holds a sample point within
        # radius + s*sqrt(n) of x, in some sigma-cell of the oracle's grid, and
        # along each axis a sigma-cell meets at most 3 index cells, since
        # sigma < 2s.  So at most 3^n counted cells share one sigma-cell.
        s = idx.cell_side(snap_level(idx, 2.0**-m * 2.0 * radius))
        assert local <= 3**n * cells_near(ps, x, radius, m, radius + s * math.sqrt(n))
        assert oracle <= 3**n * local


# ---- exactness against the np.unique reference ------------------------


def reference_level_keys(ps, max_level):
    """Level keys as built with np.unique and an axis-0 bounding box."""
    bits = max(max_level, 1)
    lo, hi = ps.points.min(axis=0), ps.points.max(axis=0)
    extent = float(np.max(hi - lo))
    low = (lo + hi) / 2.0
    if extent == 0.0:  # widened, with the midpoint at a leaf cell's centre
        extent = ps.resolution * 2.0**max_level
        low -= ps.resolution / 2.0
    low -= extent / 2.0
    leaf_side = extent * 2.0**-max_level
    addr = np.floor((ps.points - low) / leaf_side).astype(np.int64)
    np.clip(addr, 0, (np.int64(1) << max_level) - 1, out=addr)
    keys = [np.unique(encode(addr, bits))]
    for _ in range(max_level):
        parents = _decode(keys[0], bits, ps.dim) >> 1
        keys.insert(0, np.unique(encode(parents, bits)))
    return keys


def with_signed_zeros(ps, seed):
    """A copy of the sample with about a quarter of its coordinates set to +-0.0."""
    rng = np.random.default_rng(seed)
    pts = ps.points.copy()
    pick = rng.integers(0, 8, size=pts.shape)
    pts[pick == 0] = 0.0
    pts[pick == 1] = -0.0
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    res = min(ps.resolution, extent / 2.0) if extent > 0 else 1e-3
    return PointSet(dim=ps.dim, points=pts, resolution=res)


@settings(max_examples=60, deadline=None)
@given(ps=point_samples(), zeros=st.none() | st.integers(0, 2**32 - 1))
@example(ps=PointSet(dim=2, points=[(0.3, 0.7)], resolution=1e-3), zeros=None)
def test_level_keys_match_np_unique_reference(ps, zeros):
    if zeros is not None:
        ps = with_signed_zeros(ps, zeros)
    idx = build_index(ps)
    lo, hi = ps.bounding_box()
    if zeros is None:
        assert lo.tobytes() == ps.points.min(axis=0).tobytes()
        assert hi.tobytes() == ps.points.max(axis=0).tobytes()
    else:
        # Between 0.0 and -0.0 either reduction may keep either sign; the
        # root's low corner, center - radius, is the same number both ways.
        assert np.array_equal(lo, ps.points.min(axis=0))
        assert np.array_equal(hi, ps.points.max(axis=0))
    ref = reference_level_keys(ps, idx.max_level)
    assert len(idx.level_keys) == len(ref)
    for got, want in zip(idx.level_keys, ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---- cell_dist2: exactness against the row-wise einsum reference ----------


def reference_cell_dist2(idx, level, x):
    x = np.asarray(x, dtype=np.float64).reshape(idx.dim)
    s = idx.cell_side(level)
    low = idx.low + idx.cell_addresses(level) * s
    gap = np.maximum(np.maximum(low - x, x - (low + s)), 0.0)
    return np.einsum("ij,ij->i", gap, gap)


@settings(max_examples=60, deadline=None)
@given(ps=point_samples(), pick=st.integers(0, 2**16))
@example(ps=PointSet(dim=2, points=[(0.3, 0.7)], resolution=1e-3), pick=0)
def test_cell_dist2_is_bitwise_einsum(ps, pick):
    idx = build_index(ps)
    point = ps.points[pick % len(ps)]
    for level in range(idx.max_level + 1):
        # a sample point, a cell corner (on the grid lines) and a far point
        corner = idx.low + idx.cell_addresses(level)[pick % idx.occupied_count(level)] \
            * idx.cell_side(level)
        for x in (point, corner, point + 0.3):
            got = idx.cell_dist2(level, x)
            assert got.tobytes() == reference_cell_dist2(idx, level, x).tobytes()


@pytest.mark.parametrize("dim", range(1, 9))
def test_cell_dist2_is_bitwise_einsum_in_every_dimension(dim):
    # einsum pairs the squares differently from dim 3 on; dim 8 folds a block
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1.0, 1.0, size=(4000, dim)) * rng.choice([1e-3, 1.0, 1e3], size=dim)
    idx = build_index(at_level(pts, 62 // dim if dim > 4 else 12))
    for level in (idx.max_level // 2, idx.max_level):
        xs = np.array([pts[0], pts[1] + 0.01, rng.uniform(-2e3, 2e3, size=dim)])
        for x in xs:
            got = idx.cell_dist2(level, x)
            assert got.tobytes() == reference_cell_dist2(idx, level, x).tobytes()
        # several points at once: one row each, bit for bit
        want = np.array([reference_cell_dist2(idx, level, x) for x in xs])
        assert idx.cell_dist2(level, xs).tobytes() == want.tobytes()


def test_build_index_allocates_per_point_only_a_column_the_keys_and_a_mask():
    # duplicate-heavy, so the per-point arrays dominate the per-cell ones
    n = 200_000
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, 2))
    ps = at_level(pts, 7)
    tracemalloc.start()
    idx = build_index(ps)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    returned = sum(k.nbytes for k in idx.level_keys)
    # float64 column + int64 keys + bool dedup mask, plus what is returned
    assert peak <= 8 * n + 8 * n + n + returned + 2**16


# ---- count_intersecting_many: the radii x cells matrix it replaced ------


def reference_count_many(idx, level, x, radii):
    d2 = idx.cell_dist2(level, x)
    radii = np.asarray(radii, dtype=np.float64)
    return np.count_nonzero(d2[None, :] <= (radii * radii)[:, None], axis=1)


@settings(max_examples=60, deadline=None)
@given(ps=point_samples(), pick=st.integers(0, 2**16),
       radii=st.lists(st.floats(0.0, 4.0), max_size=12))
def test_count_intersecting_many_matches_matrix_reference(ps, pick, radii):
    idx = build_index(ps)
    x = ps.points[pick % len(ps)]
    for level in range(idx.max_level + 1):
        # unsorted, repeated, and exactly at some cells' distances
        ladder = radii + radii[:2] + np.sqrt(idx.cell_dist2(level, x)[:3]).tolist()
        got = idx.count_intersecting_many(level, x, ladder)[0]
        want = reference_count_many(idx, level, x, ladder)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---- count_intersecting_many: the slab against the full scan ---------------


@settings(max_examples=150, deadline=None)
@given(ps=point_samples(), pick=st.integers(0, 2**16),
       radii=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6),
       where=st.floats(-0.2, 1.2), sign=st.sampled_from([-1.0, 1.0]),
       ulps=st.sampled_from([-1, 0, 1]), off=st.sampled_from([0.0, 2.5, -1e3]))
@mock.patch.object(index, "_BATCH_TESTS", 0)  # every center counts over its slab
def test_slab_count_matches_full_scan_at_slab_edges(ps, pick, radii, where, sign, ulps, off):
    # x0 + R or x0 - R (R the largest radius) on a first-axis cell edge, or
    # one ulp to either side; edges reach a few cells past the root, and the
    # other coordinates may lie far outside it.
    idx = build_index(ps)
    rmax = max(radii)
    x = ps.points[pick % len(ps)] + off
    for level in range(idx.max_level + 1):
        s, low = idx.cell_side(level), idx.low[0]
        edge = low + round(where * (2**level + 4) - 2) * s
        x[0] = edge + sign * rmax
        if ulps:
            x[0] = np.nextafter(x[0], ulps * np.inf)
        got = idx.count_intersecting_many(level, x, radii)[0]
        want = reference_count_many(idx, level, x, radii)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 3])
@mock.patch.object(index, "_BATCH_TESTS", 0)
def test_slab_count_matches_full_scan_in_dims_1_and_3(dim):
    # dim 1 has no key fields below the first axis; dim 3 has two
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1.0, 1.0, size=(3000, dim))
    idx = build_index(at_level(pts, 12 if dim == 1 else 6))
    for level in range(idx.max_level + 1):
        s = idx.cell_side(level)
        for x in (pts[0], rng.uniform(-3.0, 3.0, size=dim), idx.low + s):
            radii = [0.0, s / 2, s, 3 * s, 0.7, 5.0]
            got = idx.count_intersecting_many(level, x, radii)[0]
            assert np.array_equal(got, reference_count_many(idx, level, x, radii))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_counts_match_each_centers_full_scan(dim):
    # Centers as rows: each level once just under the batch bound (one
    # matrix) and once at it (a slab per center).  Radii are unsorted and
    # repeated, fall exactly on some cells' distances, and one is NaN.
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1.0, 1.0, size=(3000, dim))
    idx = build_index(at_level(pts, 12 if dim == 1 else 6))
    centers = np.vstack([pts[:4], rng.uniform(-3.0, 3.0, size=(2, dim)), [idx.low]])
    for level in range(idx.max_level + 1):
        s = idx.cell_side(level)
        exact = [math.sqrt(d) for c in centers[:2] for d in idx.cell_dist2(level, c)[:3]]
        radii = [0.7, s, 0.0, 3 * s, *exact, exact[0], math.nan, 5.0]
        want = np.array([reference_count_many(idx, level, c, radii) for c in centers])
        tests = len(centers) * idx.occupied_count(level)
        for bound in (tests + 1, tests):
            with mock.patch.object(index, "_BATCH_TESTS", bound):
                got = idx.count_intersecting_many(level, centers, radii)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@mock.patch.object(index, "_BATCH_TESTS", 0)
def test_slab_count_when_cells_near_the_float_resolution_of_the_coordinates():
    # 56 levels over [0.1, 1.1]: leaf cells (2^-56) are finer than the ulp of
    # the coordinates (2^-53 near 0.6), so float cell edges round by several
    # cells; the slab widens to cover them.
    pts = np.concatenate([[0.1, 1.1], 0.6 + np.arange(-3000, 3000) * 2.0**-55])
    idx = build_index(at_level(pts, 56))
    low = idx.low[0]
    for level in (54, 56):
        s = idx.cell_side(level)
        middle = int((0.6 - low) / s)
        for r in (s, 5 * s):
            for a in range(middle - 1000, middle + 1000, 13):
                for x0 in (low + a * s - r, low + a * s + r):
                    got = idx.count_intersecting_many(level, [x0], [r, r / 2])[0]
                    assert np.array_equal(got, reference_count_many(idx, level, [x0], [r, r / 2]))


# ---- leaf and coarse keys --------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_leaf_keys_below_the_low_corner_match_floor(dim):
    # A point a few ulps below the root's low corner has (x - low) / side in
    # (-1, 0): floor gives -1 and the cast 0, and the clip sends both to 0.
    level, bits, coarse = 10, 10, min(8, 16 // dim)
    low = np.full(dim, 0.3)
    side = 2.0**-level
    rng = np.random.default_rng(dim)
    pts = low + rng.integers(0, 2**level, size=(200, dim)) * side
    for k in range(1, 5):
        pts[rng.random(len(pts)) < 0.3, rng.integers(0, dim)] = 0.3 - k * np.spacing(0.3)
    pts[:5] = 0.3 - np.arange(1, 6)[:, None] * np.spacing(0.3)
    for block in (1, 7, 2**14, 2**15):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(index, "_BLOCK", block)
            keys, coarse_keys = _leaf_keys(pts, low, side, level, bits, coarse)
        addr = np.floor((pts - low) / side).astype(np.int64)
        np.clip(addr, 0, 2**level - 1, out=addr)
        assert (addr[:5] == 0).all() and ((pts - low) / side < 0).any()
        # runs of one key in a block are kept once
        blocks = [encode(addr[i:i + block], bits) for i in range(0, len(pts), block)]
        assert np.array_equal(keys, np.concatenate(
            [b[np.r_[True, b[1:] != b[:-1]]] for b in blocks]))
        assert np.array_equal(coarse_keys, encode(addr >> (level - coarse), coarse))
