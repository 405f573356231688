import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from assouad_lab.errors import (
    EmptySetError,
    InvalidParameterError,
    LevelOutOfRangeError,
    ResolutionExceededError,
    ScaleBelowResolutionError,
)
from assouad_lab.families import cantor_intervals
from assouad_lab.geometry import PointSet
from assouad_lab.index import (
    _decode,
    _encode,
    build_index,
    deepest_level,
    local_dyadic_count,
    occupied_count,
    snap_level,
)
from conftest import center_aligned_count, index_sample, make_random_set, point_samples


# ---- build_index ------------------------------------------------------


def test_single_point_occupies_one_cell_per_level():
    ps = PointSet(dim=2, points=[(0.0, 0.0)], resolution=1e-3)
    idx = build_index(ps, 3)
    assert [idx.occupied_count(m) for m in range(4)] == [1, 1, 1, 1]
    # degenerate box is widened so the leaves sit at the resolution
    assert idx.cell_side(3) == pytest.approx(ps.resolution)


def test_unit_square_corners():
    ps = PointSet(dim=2, points=[(0, 0), (1, 0), (0, 1), (1, 1)], resolution=1e-3)
    idx = build_index(ps, 1)
    assert idx.occupied_count(1) == 4


def test_uniform_grid_fills_level_six():
    g = np.linspace(0.0, 1.0, 100)
    xs, ys = np.meshgrid(g, g)
    ps = PointSet(dim=2, points=np.column_stack([xs.ravel(), ys.ravel()]),
                  resolution=1e-3)
    idx = build_index(ps, 6)
    assert idx.occupied_count(6) >= 0.99 * 4096


def test_empty_set_refused():
    with pytest.raises(EmptySetError):
        build_index(PointSet.empty(dim=2, resolution=0.1), 3)


def test_indexing_below_resolution_refused():
    ps = PointSet(dim=1, points=[(0.0,), (1.0,)], resolution=0.25)
    with pytest.raises(ResolutionExceededError):
        build_index(ps, 4)  # leaf side 1/16 < 0.25
    idx = build_index(ps, 2)
    assert idx.cell_side(2) == 0.25


def test_deepest_level_respects_resolution():
    ps = PointSet(dim=1, points=[(0.0,), (1.0,)], resolution=1e-3)
    lvl = deepest_level(ps)
    assert 2.0**-lvl >= 1e-3 > 2.0 ** -(lvl + 1)


def test_build_is_deterministic():
    rng = np.random.default_rng(42)
    ps = PointSet(dim=2, points=rng.uniform(size=(500, 2)), resolution=1e-3)
    a = build_index(ps, 6)
    b = build_index(ps, 6)
    for m in range(7):
        assert np.array_equal(a.cell_addresses(m), b.cell_addresses(m))


# ---- occupied_count ---------------------------------------------------


def test_segment_counts_match_1d_bucketing(unit_segment_idx):
    idx = unit_segment_idx
    for m in range(1, 8):
        s = idx.cell_side(m)
        c = occupied_count(idx, m)
        assert 1 / s <= c <= 1 / s + 2


def test_cantor_endpoint_counts_track_interval_oracle():
    eps = np.unique(cantor_intervals(1.0 / 3.0, 8).reshape(-1))
    ps = PointSet(dim=1, points=eps.reshape(-1, 1), resolution=(1.0 / 3.0) ** 9)
    idx = build_index(ps, deepest_level(ps))
    for k in range(1, 6):
        lvl = snap_level(idx, 3.0**-k)
        c = idx.occupied_count(lvl)
        # 2^k construction intervals at width 3^-k, grid misalignment <= 3x
        assert 2**k / 3 <= c <= 3 * 2**k


def test_occupied_count_level_bounds(unit_segment_idx):
    with pytest.raises(LevelOutOfRangeError):
        unit_segment_idx.occupied_count(-1)
    with pytest.raises(LevelOutOfRangeError):
        unit_segment_idx.occupied_count(unit_segment_idx.max_level + 1)


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
    with pytest.raises(ScaleBelowResolutionError):
        local_dyadic_count(unit_segment_idx, (0.5, 0.0), 0.001, 4)


def test_local_count_needs_stored_level(unit_segment_idx):
    idx = unit_segment_idx
    with pytest.raises((LevelOutOfRangeError, ScaleBelowResolutionError)):
        local_dyadic_count(idx, (0.5, 0.0), idx.root_side / 2, idx.max_level + 3)
    with pytest.raises(LevelOutOfRangeError):
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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_randomized_invariants_and_ball_sandwich(seed, n):
    rng = np.random.default_rng(seed)
    ps = make_random_set(rng, int(rng.integers(0, 5)), n)
    # keep the property runs small; the acceptance suite does the full battery
    if len(ps) > 2000:
        ps = PointSet(dim=n, points=ps.points[:2000], resolution=ps.resolution)
    idx = build_index(ps, deepest_level(ps))
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
        except (LevelOutOfRangeError, ScaleBelowResolutionError):
            continue
        oracle = center_aligned_count(ps, x, radius, m)
        assert oracle >= 1 and local >= 1
        assert local <= 3**n * oracle
        assert oracle <= 3**n * local


# ---- exactness against the np.unique reference ------------------------


def reference_level_keys(ps, max_level):
    """Level keys as built with np.unique and an axis-0 bounding box."""
    bits = max(max_level, 1)
    lo, hi = ps.points.min(axis=0), ps.points.max(axis=0)
    extent = float(np.max(hi - lo))
    if extent == 0.0:
        extent = ps.resolution * 2.0**max_level
    low = (lo + hi) / 2.0 - extent / 2.0
    leaf_side = extent * 2.0**-max_level
    addr = np.floor((ps.points - low) / leaf_side).astype(np.int64)
    np.clip(addr, 0, (np.int64(1) << max_level) - 1, out=addr)
    keys = [np.unique(_encode(addr, bits))]
    for _ in range(max_level):
        parents = _decode(keys[0], bits, ps.dim) >> 1
        keys.insert(0, np.unique(_encode(parents, bits)))
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
    idx = index_sample(ps)
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
    low = idx.root.low() + idx.cell_addresses(level) * s
    gap = np.maximum(np.maximum(low - x, x - (low + s)), 0.0)
    return np.einsum("ij,ij->i", gap, gap)


@settings(max_examples=60, deadline=None)
@given(ps=point_samples(), pick=st.integers(0, 2**16))
@example(ps=PointSet(dim=2, points=[(0.3, 0.7)], resolution=1e-3), pick=0)
def test_cell_dist2_is_bitwise_einsum(ps, pick):
    idx = index_sample(ps)
    point = ps.points[pick % len(ps)]
    for level in range(idx.max_level + 1):
        # a sample point, a cell corner (on the grid lines) and a far point
        corner = idx.root.low() + idx.cell_addresses(level)[pick % idx.occupied_count(level)] \
            * idx.cell_side(level)
        for x in (point, corner, point + 0.3):
            got = idx.cell_dist2(level, x)
            assert got.tobytes() == reference_cell_dist2(idx, level, x).tobytes()


@pytest.mark.parametrize("dim", range(1, 9))
def test_cell_dist2_is_bitwise_einsum_in_every_dimension(dim):
    # einsum pairs the squares differently from dim 3 on; dim 8 folds a block
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1.0, 1.0, size=(4000, dim)) * rng.choice([1e-3, 1.0, 1e3], size=dim)
    ps = PointSet(dim=dim, points=pts, resolution=1e-12)
    idx = build_index(ps, 62 // dim if dim > 4 else 12)
    for level in (idx.max_level // 2, idx.max_level):
        for x in (pts[0], pts[1] + 0.01, rng.uniform(-2e3, 2e3, size=dim)):
            got = idx.cell_dist2(level, x)
            assert got.tobytes() == reference_cell_dist2(idx, level, x).tobytes()


def test_build_index_allocates_per_point_only_a_column_the_keys_and_a_mask():
    # duplicate-heavy, so the per-point arrays dominate the per-cell ones
    n = 200_000
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, 2))
    ps = PointSet(dim=2, points=pts, resolution=1e-3)
    tracemalloc.start()
    idx = build_index(ps, 7)
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
    idx = index_sample(ps)
    x = ps.points[pick % len(ps)]
    for level in range(idx.max_level + 1):
        # unsorted, repeated, and exactly at some cells' distances
        ladder = radii + radii[:2] + np.sqrt(idx.cell_dist2(level, x)[:3]).tolist()
        got = idx.count_intersecting_many(level, x, ladder)
        want = reference_count_many(idx, level, x, ladder)
        assert got.dtype == want.dtype and np.array_equal(got, want)
