"""Multiscale dyadic occupancy index.

The index stores, for every level m = 0..max_level, the set of dyadic
cells (of side root_side * 2^-m, in the grid anchored at the root cube's
lower corner ``low``) that contain at least one sample point.  Cells are
kept as integer lattice addresses packed into int64 keys, so membership
and parent arithmetic are plain integer operations.  Levels shrink as they coarsen because a parent cell
is occupied exactly when one of its children is.  Keys are row-major, the
first axis's address most significant: ball counting relies on it, since a
slab of first-axis addresses is then one contiguous range of sorted keys.

Queries never fabricate detail below the declared sampling resolution:
the index stops at the deepest level whose cells are still at least the
source resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .geometry import PointSet

MAX_AMBIENT_DIM = 8  # packed-address budget: dim * max_level must fit in an int64
_ADDRESS_BITS = 62

#: Most center-cell pairs a batched ``count_intersecting_many`` tests in one
#: matrix; from there on each center counts over its own slab.  The measured
#: crossover, 24 centers on S_1 at res 1e-5 and its images: just under 2^17
#: pairs took 1.2 ms whole against 1.7 ms by slabs (3 radii), 2^17.2 took
#: 2.2 ms against 2.0 (13 radii).
_BATCH_TESTS = 1 << 17


def _decode(keys: np.ndarray, bits: int, n: int) -> np.ndarray:
    mask = (np.int64(1) << bits) - 1
    out = np.empty((len(keys), n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[:, i] = keys & mask
        keys = keys >> bits
    return out


def _dedup(keys: np.ndarray) -> np.ndarray:
    """Each run of equal values kept once: the distinct values of a sorted array."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _ancestor_keys(keys: np.ndarray, up: int, bits: int, dim: int) -> np.ndarray:
    """Keys of the ancestors ``up`` levels above cells ``keys``, field by field."""
    out = keys >> up  # then clear each field's top bits, shifted in from the next
    out &= sum(((1 << (bits - up)) - 1) << (bits * j) for j in range(dim))
    return out


#: Points per block of the leaf-address pass: a block's temporaries fit in
#: L2 (2 MB per core where measured); 2^15 ran no faster and peaked higher.
_BLOCK = 1 << 14


def _leaf_keys(points: np.ndarray, low: np.ndarray, side: float, level: int,
               bits: int, coarse: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed keys of the points' cells at ``level`` (runs of one key in a
    block of ``_BLOCK`` points kept once), and each point's uint16 key at
    ``coarse``.  Per column: ``(x - low) / side`` cast to int64 in place and
    clipped (the cast truncates, unlike floor only below 0, where the clip
    sends both to 0), then shifted by ``level - coarse`` for the coarse key."""
    last = (1 << level) - 1
    keys = np.empty(len(points), dtype=np.int64)
    coarse_keys = np.zeros(len(points), dtype=np.uint16)
    col, block = np.empty(min(len(points), _BLOCK)), np.empty(min(len(points), _BLOCK), np.int64)
    kept = 0
    for s in range(0, len(points), _BLOCK):
        c = coarse_keys[s:s + _BLOCK]
        f, k = col[:len(c)], block[:len(c)]
        k[...] = 0
        addr = f.view(np.int64)
        for j in range(points.shape[1]):
            np.subtract(points[s:s + _BLOCK, j], low[j], out=f)
            f /= side
            addr[...] = f
            np.clip(addr, 0, last, out=addr)
            k <<= bits
            k |= addr
            addr >>= level - coarse
            c <<= coarse
            np.bitwise_or(c, addr, out=c, casting="unsafe")
        run = _dedup(k)
        keys[kept:kept + len(run)] = run
        kept += len(run)
    return keys[:kept], coarse_keys


@dataclass(eq=False)
class MultiScaleIndex:
    """Occupancy sets for one point sample at every dyadic level."""

    low: np.ndarray  # the root cube's lower corner, read-only
    root_side: float
    max_level: int
    dim: int
    level_keys: list  # list of sorted int64 arrays, index = level
    source: PointSet
    # each point's uint16 key at coarse_level = min(max_level, 8, 16 // dim)
    coarse_keys: np.ndarray
    coarse_level: int
    _bits: int = 0
    _bounds_cache: dict = field(default_factory=dict, repr=False)

    def cell_side(self, level: int) -> float:
        return self.root_side * 2.0 ** (-level)

    def occupied_count(self, level: int) -> int:
        self._check_level(level)
        return len(self.level_keys[level])

    def cell_addresses(self, level: int) -> np.ndarray:
        """(N_m, n) integer addresses of occupied cells, sorted by key."""
        self._check_level(level)
        return _decode(self.level_keys[level], self._bits, self.dim)

    def _check_level(self, level: int) -> None:
        if not (0 <= level <= self.max_level):
            raise InvalidParameterError(
                f"level {level} outside stored range 0..{self.max_level}"
            )

    def _cell_bounds(self, level: int) -> tuple[list, list]:
        """Per-column lower and upper cell edges at a level (cached float64)."""
        if level not in self._bounds_cache:
            s = self.cell_side(level)
            addr = self.cell_addresses(level)
            lows = [self.low[j] + addr[:, j] * s for j in range(self.dim)]
            self._bounds_cache[level] = (lows, [c + s for c in lows])
        return self._bounds_cache[level]

    def cell_dist2(self, level: int, x, cells: slice = slice(None)) -> np.ndarray:
        """Squared Euclidean distance from x to every occupied cell at a level
        (or to the ``cells`` slice of them, in key order): one row per point
        when x is a (points, dim) array.

        Column by column, in place.  The squares are summed in the order
        numpy's ``einsum("ij,ij->i")`` adds a row: two interleaved
        accumulators (even and odd columns) added at the end, a full block
        of eight columns folded last to first.  So the result is bit for bit
        the row-wise ``einsum`` of the clipped gaps, for one point or many.
        """
        self._check_level(level)
        x = np.asarray(x, dtype=np.float64)
        # one point's coordinates, or each coordinate as a column of points
        x = x.reshape(len(x), self.dim).T[:, :, None] if x.ndim == 2 else x.reshape(self.dim)
        lows, highs = self._cell_bounds(level)
        lanes = [None, None]
        scratch = None
        for j in (range(self.dim) if self.dim < 8 else range(7, -1, -1)):
            gap = np.subtract(lows[j][cells], x[j])
            scratch = np.subtract(x[j], highs[j][cells], out=scratch)
            np.maximum(gap, scratch, out=gap)
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            k = j % 2
            lanes[k] = gap if lanes[k] is None else np.add(lanes[k], gap, out=lanes[k])
        if lanes[1] is None:
            return lanes[0]
        return np.add(lanes[0], lanes[1], out=lanes[0])

    def count_intersecting_many(self, level: int, x, radii) -> np.ndarray:
        """Occupied cells at a level meeting each closed ball B(x, r), r in radii.

        ``x`` is a (centers, dim) array, or one point as its only row; the
        counts are a (centers, radii) array.  When centers times occupied
        cells is under ``_BATCH_TESTS``, every center is tested against every
        cell in one ``cell_dist2`` matrix.  Otherwise each center tests only
        the cells whose first-axis address lies within one cell of
        [x0 - R, x0 + R] (R the largest radius), one range of the row-major
        keys, widened by the cells that float rounding can span (none unless
        a side nears 2^-48 of the coordinates).  Every cell left out is at
        least R + side away, so the counts are those over every cell.
        """
        self._check_level(level)
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.dim)
        radii = np.asarray(radii, dtype=np.float64)
        counts = np.empty((len(x), len(radii)), dtype=np.intp)
        if len(x) * len(self.level_keys[level]) < _BATCH_TESTS:
            d2 = self.cell_dist2(level, x)
            for k, r2 in enumerate(radii * radii):
                counts[:, k] = np.count_nonzero(d2 <= r2, axis=1)
        else:
            for c, point in enumerate(x):
                counts[c] = self._slab_counts(level, point, radii)
        return counts

    def _slab_counts(self, level: int, x: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """``count_intersecting_many`` of one point, over its first-axis slab."""
        r = float(np.fmax.reduce(np.abs(radii), initial=0.0))  # NaN radii count nothing
        s, low, top = self.cell_side(level), self.low[0], float(1 << level)
        pad = 1 + int(min(2.0**-48 * (abs(x[0]) + abs(low) + r + self.root_side) / s, top))
        # first-axis cell addresses of x0 - r and x0 + r, clipped near the grid
        a, b = (math.floor(min(max((v - low) / s, -1.0), top)) for v in (x[0] - r, x[0] + r))
        shift = self._bits * (self.dim - 1)
        i, j = np.searchsorted(self.level_keys[level], [max(a - pad, 0) << shift,
                                                        min(b + pad + 1, 1 << level) << shift])
        d2 = self.cell_dist2(level, x, slice(i, j))
        # One pass per radius: a (radii x cells) boolean matrix costs twice the time.
        return np.array([np.count_nonzero(d2 <= r2) for r2 in radii * radii], dtype=np.intp)


#: Largest coordinate magnitude and extent an index takes.  Its squared
#: distances sum at most 8 squares of gaps within the root cube, and its slab
#: bounds add a few coordinates and sides: far inside the float range below it.
_MAX_MAGNITUDE = 2.0**500

#: Levels a single point, or a sample under its resolution, is indexed to:
#: fewer make even a flat occupancy profile unfittable.
_MIN_INDEX_LEVELS = 8


def build_index(ps: PointSet) -> MultiScaleIndex:
    """Index a point sample down to the deepest level whose cells are still at
    least its declared resolution.

    The root is the smallest cube centered at the bounding-box midpoint that
    covers the sample, and the depth is ``floor(log2(extent / resolution))``,
    capped by the packed-address budget.  A sample with no extent, or one
    under its resolution, is indexed to ``_MIN_INDEX_LEVELS`` levels on a
    root widened around its midpoint so the leaf cells sit exactly at the
    resolution.

    Per point, building allocates the int64 leaf keys (sorted in place, with
    a dedup mask) and the uint16 coarse keys it keeps; everything else is
    sized by a block of points or by the occupied cells it returns.
    """
    if len(ps) == 0:
        raise InvalidParameterError("cannot index an empty point set")
    lo, hi = ps.bounding_box()
    lo_l, hi_l = lo.tolist(), hi.tolist()
    extent = max(h - l for l, h in zip(lo_l, hi_l))  # inf on overflow, unwarned
    ratio = extent / ps.resolution
    if ratio == math.inf:
        raise InvalidParameterError(
            "the points' extent over their resolution overflows a float "
            f"(extent {extent:.3g}, resolution {ps.resolution:.3g})"
        )
    reach = max(extent, -min(lo_l), max(hi_l))
    if reach > _MAX_MAGNITUDE:
        raise InvalidParameterError(
            f"the points' coordinates or extent reach {reach:.3g}, past "
            f"{_MAX_MAGNITUDE:.3g}: their squared distances would overflow a float"
        )
    if ps.dim > MAX_AMBIENT_DIM:
        raise InvalidParameterError(
            f"ambient dimension {ps.dim} exceeds the supported maximum {MAX_AMBIENT_DIM}"
        )
    # negative when the extent is 0 or under the resolution (or the ratio underflows)
    level = math.floor(math.log2(ratio) + 1e-12) if ratio > 0.0 else -1
    max_level = _MIN_INDEX_LEVELS if level < 0 else min(level, _ADDRESS_BITS // ps.dim)
    bits = max(max_level, 1)
    if ps.dim * bits > _ADDRESS_BITS:
        raise InvalidParameterError(
            f"{max_level} levels at dim {ps.dim} exceed the {_ADDRESS_BITS}-bit "
            "packed-address budget"
        )
    low = (lo + hi) / 2.0
    if level < 0:
        # Widen, as for a single point, so the deepest cells match the
        # resolution, and shift by half a leaf so the midpoint sits at the
        # centre of a leaf cell rather than on a corner shared by 2^dim.
        extent = float(ps.resolution) * 2.0**max_level
        if extent == math.inf:
            raise InvalidParameterError(
                "the points' extent over their resolution overflows a float (a sample "
                f"under its resolution, widened to resolution {ps.resolution:.3g} * 2^{max_level})"
            )
        low -= ps.resolution / 2.0
    low -= extent / 2.0
    low.flags.writeable = False
    root_side = 2.0 * (extent / 2.0)
    if root_side == 0.0:  # the least subnormal extent halves to 0
        raise InvalidParameterError(f"the points' extent {extent:.3g} halves to 0")

    level_keys = [None] * (max_level + 1)
    coarse = min(max_level, 8, 16 // ps.dim)  # uint16 keys, radix-sorted; <= 256 cells an axis
    leaf_side = extent * 2.0**-max_level
    keys, coarse_keys = _leaf_keys(ps.points, low, leaf_side, max_level, bits, coarse)
    keys.sort()
    level_keys[max_level] = _dedup(keys)
    for m in range(max_level - 1, -1, -1):
        keys = _ancestor_keys(level_keys[m + 1], 1, bits, ps.dim)
        keys.sort(kind="stable")  # sorted runs, one per child row: timsort merges them
        level_keys[m] = _dedup(keys)
    for k in level_keys:
        k.flags.writeable = False

    return MultiScaleIndex(
        low=low,
        root_side=root_side,
        max_level=max_level,
        dim=ps.dim,
        level_keys=level_keys,
        source=ps,
        coarse_keys=coarse_keys,
        coarse_level=coarse,
        _bits=bits,
    )


def snap_level(idx: MultiScaleIndex, target_side: float) -> int:
    """The unique level whose cell side s satisfies s <= target < 2s."""
    if target_side <= 0:
        raise InvalidParameterError("target side must be positive")
    side = idx.root_side
    guess = int(math.ceil(math.log2(side / target_side) - 1e-9))
    for lvl in (guess - 1, guess, guess + 1):
        if lvl < 0:
            continue
        s = side * 2.0**-lvl
        if s <= target_side * (1 + 1e-12) and target_side < 2 * s * (1 + 1e-12):
            return lvl
    raise InvalidParameterError(
        f"no dyadic level matches target side {target_side:.3g} "
        f"(root side {side:.3g})"
    )


def local_dyadic_count(idx: MultiScaleIndex, x, radius: float, m: int) -> int:
    """Occupied-cell count at the dyadic refinement m of the ball B(x, radius).

    The cube Q(x, radius) has side 2*radius; its level-m dyadic cells have
    side 2^-m * 2*radius.  The count is taken on the stored global grid at
    the level snapped to that cell side (global side s <= target < 2s),
    over cells intersecting the closed ball.
    """
    if m < 0:
        raise InvalidParameterError(f"dyadic refinement m must be >= 0, got {m}")
    if radius <= 0:
        raise InvalidParameterError("ball radius must be positive")
    if np.size(x) != idx.dim:  # else the counting would read it as several centers
        raise InvalidParameterError(f"ball center must be one point of dimension "
                                    f"{idx.dim}, got {np.size(x)} coordinates")
    target = 2.0**-m * 2.0 * radius
    if target < idx.source.resolution * (1.0 - 1e-12):
        raise InvalidParameterError(
            f"requested cell side {target:.3g} is below the declared "
            f"resolution {idx.source.resolution:.3g}"
        )
    level = snap_level(idx, target)
    if level > idx.max_level:
        raise InvalidParameterError(
            f"query needs level {level} but the index stops at {idx.max_level}"
        )
    return int(idx.count_intersecting_many(level, x, [radius])[0, 0])
