"""Dimension estimators driven by multiscale occupancy counts.

Everything here reduces to one primitive: count occupied dyadic cells of a
chosen level inside a ball, then regress log-count against log-scale.  The
box dimension uses global counts; the Assouad-type estimators localize the
counts at sampled centers and sweep scale pairs (R, r) tied together by the
spectrum parameter theta.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, WindowTooNarrowError
from .index import MultiScaleIndex, _ancestor_keys, _decode

METHOD_BOX = "box"
METHOD_ASSOUAD_WINDOW = "assouadWindow"

#: Default grid for spectrum sweeps; 0.05 steps keep the CSV/plot output small
#: while resolving the spiral phase transitions to within one step.
DEFAULT_THETA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 19))

DEFAULT_CENTER_BUDGET = 24

# Ray admissibility: outer radius at least two levels below the root, at
# least one octave between 2R and r, and enough points to regress on.
_U_MIN = 2.0
_K_LO = 3
_MIN_RAY_POINTS = 4
_MIN_RAY_SPAN = 3.0

# Slope statistic: ordinary least squares penalized by the slope's standard
# error, with an optional shallow-transient correction term 2^(-g) that must
# clear an F-test before it is trusted.  Tuned once against the closed-form
# spiral and Cantor oracles; see the estimator notes in the test suite.
_Z_PENALTY = 2.5
_F_CRIT = 25.0
_MODEL_MIN_POINTS = 6
_MODEL_MAX_START = 3.0
_MODEL_MIN_SPAN = 4.0


@dataclass(frozen=True)
class ScaleWindow:
    """Closed range of ball radii the estimators are allowed to query."""

    r_min: float
    r_max: float

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise InvalidParameterError(
                f"need 0 < r_min < r_max < inf, got [{self.r_min}, {self.r_max}]"
            )

    @staticmethod
    def default_bounds(idx: MultiScaleIndex) -> tuple[float, float]:
        """Default (r_min, r_max), unchecked.

        Two guard levels at each end: the finest scales are polluted by
        sampling artifacts, the coarsest by the bounding box itself.
        """
        return 4.0 * idx.source.resolution, idx.root_side * math.sqrt(idx.dim) / 4.0

    @classmethod
    def default_for(cls, idx: MultiScaleIndex) -> "ScaleWindow":
        r_min, r_max = cls.default_bounds(idx)
        if not r_min < r_max:
            raise WindowTooNarrowError(
                f"resolution {idx.source.resolution:.3g} is too coarse for root side "
                f"{idx.root_side:.3g}: the default window [4*resolution, "
                f"root side*sqrt(dim)/4] = [{r_min:.3g}, {r_max:.3g}] is empty"
            )
        return cls(r_min=r_min, r_max=r_max)

    def levels(self, idx: MultiScaleIndex) -> list[int]:
        """Dyadic levels whose cell side falls inside the window."""
        out = [m for m in range(idx.max_level + 1)
               if self.r_min <= idx.cell_side(m) <= self.r_max]
        return out


@dataclass
class DimEstimate:
    value: float
    method: str
    window: ScaleWindow
    slope_diagnostics: list = field(default_factory=list)


@dataclass
class SpectrumEstimate:
    """Assouad spectrum estimates over a theta grid.

    ``values`` holds the raw per-theta statistics (NaN where no admissible
    scale pair exists); ``regularized_values`` is the running maximum,
    floored by the box-dimension estimate and therefore never NaN.
    """

    theta_grid: list[float]
    values: list[float]
    regularized_values: list[float]
    diagnostics: list

    def to_json(self) -> dict:
        return {
            "theta": list(self.theta_grid),
            "value": [None if math.isnan(v) else v for v in self.values],
            "regularized": list(self.regularized_values),
            "diagnostics": list(self.diagnostics),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["theta", "regularized"])
        for t, v in zip(self.theta_grid, self.regularized_values):
            writer.writerow([f"{t:.17g}", f"{v:.17g}"])
        return buf.getvalue()


def _coarse_cells(idx: MultiScaleIndex) -> tuple[np.ndarray, np.ndarray, int]:
    """Source points grouped by the index's coarse cells: ``(order, starts, level)``.

    The points of coarse cell k are ``order[starts[k]:starts[k + 1]]``, in
    index order.  ``order`` is int32 when built from runs of one key (4 bytes
    a point), else argsort's intp.  Points on the root's upper face are in
    the last cell.
    """
    level, keys = idx.coarse_level, idx.coarse_keys
    starts = np.zeros((1 << (level * idx.dim)) + 1, dtype=np.intp)
    new = keys[1:] != keys[:-1]
    # The run path below wins under one run of a key per 4 points.  Forced
    # paths, in-process medians on 2 CPUs, run path over argsort: 0.21 on
    # the S_1 source (0.001 runs a point), 0.39 on its pushforward image
    # (0.025), 0.51 on the radial image (0.075), 0.90 on S_1/2 at res 1e-3
    # (0.12), 3.3-3.8 on the last two shuffled (0.9-1); on synthetic keys,
    # 0.64-0.79 at 0.2 and 1.06-1.67 from 0.25 to 0.3 (400k points),
    # 0.60-0.78 at 0.2 and 0.7-1.2 from 0.25 to 0.3 (2M points).
    if 4 * (np.count_nonzero(new) + 1) >= len(keys):
        del new
        np.cumsum(np.bincount(keys, minlength=len(starts) - 1), out=starts[1:])
        order = np.argsort(keys, kind="stable")
    else:
        # A sample in curve order: a stable sort keeps each run whole and
        # runs of one key in index order, so laying out the runs in stable
        # key order gives the stable argsort.
        first = np.concatenate([[0], np.flatnonzero(new) + 1])
        del new
        size = np.diff(first, append=len(keys))
        counts = np.bincount(keys[first], size, len(starts) - 1)  # float64, exact
        starts[1:] = np.cumsum(counts, out=counts)
        rank = np.argsort(keys[first], kind="stable")
        first, size = first[rank], size[rank]
        # A sum of ones that jumps, at each run's first slot, from the previous
        # run's last point to this run's first; in int32, which holds every
        # index of a sample within POINT_BUDGET, 4 bytes a point
        order = np.ones(len(keys), dtype=np.int32 if len(keys) <= 1 << 31 else np.intp)
        order[np.cumsum(size) - size] = first - np.concatenate([[0], (first + size - 1)[:-1]])
        np.cumsum(order, out=order)
    return order, starts, level


def select_centers(idx: MultiScaleIndex, budget: int) -> np.ndarray:
    """Query centers: up to ``budget`` structural hotspots, where the
    occupancy tree is refining fastest.

    Ranks mid-depth cells by how many deepest-level cells they contain
    (ties to the smaller key), keeps the first ``budget``, then drills each
    down level by level, always following the child with the most
    descendants (ties to the smaller key).  Accumulation points (spiral
    centers, sequence limits), where a spiral's spectrum peaks, are found
    this way.  Each drilled cell snaps to its nearest sample point (first
    index on ties).  That point lies in the cell's 3^dim leaf
    neighbourhood: the cell holds a point within s*sqrt(dim)/2 of its
    center, and every point outside it is at least 1.5*s away (s the leaf
    side; sqrt(8)/2 < 1.5 for every supported dim).  So only the coarse
    cells covering it are searched, and each coarse cell's first
    coordinates are gathered at most once a call: hotspots cluster, and
    S_1's core cell holds a third of the sample.  Per point this allocates
    the coarse cells' order (int32 for a sample in curve order) and the
    first coordinates of the cells the snap-backs search.

    A point that two cells snap to is kept once, at its first place.  So
    there is one center per occupied mid-depth cell at most, all distinct,
    and a smaller budget's centers are the first rows of a larger one's.
    """
    if budget < 1:
        raise InvalidParameterError(f"center budget must be >= 1, got {budget}")
    hot_level = max(_K_LO, idx.max_level // 2)
    if hot_level >= idx.max_level:
        hot_level = max(idx.max_level - 1, 0)
    bits, dim, up = idx._bits, idx.dim, idx.max_level - hot_level
    deep, hot = idx.level_keys[idx.max_level], idx.level_keys[hot_level]
    anc = _ancestor_keys(deep, up, bits, dim)
    anc.sort()
    counts = np.diff(np.searchsorted(anc, hot), append=len(anc))
    del anc
    # hot keys ascend, so a stable sort of -counts breaks ties by key
    top = hot[np.argsort(-counts, kind="stable")[:budget]]
    lead = bits * (dim - 1) + up  # leaf keys of one first-axis hot address share key >> lead
    row = top >> (bits * (dim - 1)) << lead
    slab = np.searchsorted(deep, [row, row + (1 << lead)])

    order, starts, level = _coarse_cells(idx)
    shift = idx.max_level - level
    last = (1 << idx.max_level) - 1
    side = idx.cell_side(idx.max_level)
    points = idx.source.points
    first_coords = {}  # coarse cell -> its members' first coordinates
    out = []
    for key, first, stop in zip(top, *slab):
        sub = deep[first:stop]
        sub = sub[_ancestor_keys(sub, up, bits, dim) == key]
        for t in range(up - 1, -1, -1):
            # child slot: bit t of each address field, first field highest,
            # so the first most-populated slot is the child with the smallest key
            slot = sum(((sub >> (bits * (dim - 1 - j) + t)) & 1) << (dim - 1 - j)
                       for j in range(dim))
            sub = sub[slot == np.bincount(slot, minlength=1 << dim).argmax()]
        cell = _decode(sub[:1], bits, dim)[0]
        cell_center = idx.low + (cell + 0.5) * side
        lo = (np.maximum(cell - 1, 0) >> shift).tolist()
        hi = (np.minimum(cell + 1, last) >> shift).tolist()
        cand = []
        for address in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            c = 0
            for a in address:  # row-major, as the index packs its keys
                c = (c << level) | a
            if c not in first_coords:
                first_coords[c] = points[order[starts[c]:starts[c + 1]], 0]
            # Points more than 1.5 leaf sides off in the first coordinate
            # are farther than the nearest point can be.
            near = np.abs(first_coords[c] - cell_center[0]) <= 1.5 * side
            cand.append(order[starts[c]:starts[c + 1]][near])
        cand = np.sort(np.concatenate(cand))
        d = np.linalg.norm(points[cand] - cell_center, axis=1)
        out.append(int(cand[np.argmin(d)]))
    return points[list(dict.fromkeys(out))]


def _ray_model(g: np.ndarray):
    """Penalized scaling slope of a ray at ascending abscissae ``g``, as a
    function of its ordinates, returning ``(value, fit)``.

    Plain least squares by default.  When the ray starts shallow, spans
    enough octaves, and an exponentially decaying correction term reduces
    the residual by a decisive F-ratio, the corrected slope is used instead:
    that combination is the signature of a finite-size transient (count
    deficits at coarse scales), not of the log-periodic oscillation a
    self-similar set produces.  The design matrices, the slope entries of
    their inverse Gram matrices and the shape gate depend on ``g`` alone, so
    they are made once, for every center's ray at one theta.
    """
    n = len(g)
    line = np.column_stack([np.ones_like(g), g])
    line_cov = np.linalg.inv(line.T @ line)[1, 1]
    curve = None
    if n >= _MODEL_MIN_POINTS and g[0] <= _MODEL_MAX_START and g[-1] - g[0] >= _MODEL_MIN_SPAN:
        curve = np.column_stack([np.ones_like(g), g, np.exp2(-g)])
        try:
            curve_cov = np.linalg.inv(curve.T @ curve)[1, 1]
        except np.linalg.LinAlgError:
            curve = None

    def value(y: np.ndarray):
        beta, resid, *_ = np.linalg.lstsq(line, y, rcond=None)
        slope, fit = float(beta[1]), "linear"
        rss1 = float(resid[0]) if len(resid) else 0.0
        se = math.sqrt(rss1 / (n - 2) * line_cov) if n > 2 and rss1 > 0.0 else 0.0
        if curve is not None and rss1 > 0.0:
            beta, resid, *_ = np.linalg.lstsq(curve, y, rcond=None)
            rss2 = float(resid[0]) if len(resid) else 0.0
            if rss2 > 0.0:  # n >= _MODEL_MIN_POINTS leaves n - 3 > 0 degrees of freedom
                f_stat = (rss1 - rss2) / (rss2 / (n - 3))
                if f_stat >= _F_CRIT and float(beta[1]) > slope:
                    slope, fit = float(beta[1]), "transient"
                    se = math.sqrt(rss2 / (n - 3) * curve_cov)
        return slope - _Z_PENALTY * se, fit

    return value


def _count_rays(idx: MultiScaleIndex, centers: np.ndarray, ks: np.ndarray,
                radii_by_k: list[np.ndarray], counted: np.ndarray) -> np.ndarray:
    """counts[c, i, j]: level-ks[i] cells meeting B(centers[c], radii_by_k[i][j])
    where counted[i, j], else 0.  One ``count_intersecting_many`` call per
    level, every center a row of it."""
    counts = np.zeros((len(centers), len(ks), len(radii_by_k[0])))
    for i, k in enumerate(ks):
        if counted[i].any():
            counts[:, i, counted[i]] = idx.count_intersecting_many(
                int(k), centers, radii_by_k[i][counted[i]])
    return counts


def _ray_fits(counts: np.ndarray, admitted: np.ndarray, g: np.ndarray, feasible) -> list:
    """(value, fit) of each center's ray at each feasible theta, from
    ``counts[center, level, theta]``; a ray reads every admitted level.
    Every center's ray at a theta has the same abscissae, so only the
    least-squares solves are made per center."""
    fits = [[] for _ in counts]
    for ti in feasible:
        rows = admitted[:, ti]
        order = np.argsort(g[rows, ti])
        value = _ray_model(g[rows, ti][order])
        for c, out in zip(counts, fits):
            out.append(value(np.log2(c[rows, ti])[order]))
    return fits


def estimate_box_dim(idx: MultiScaleIndex, window: ScaleWindow | None = None) -> DimEstimate:
    """Upper box dimension from the global occupancy counts.

    Least-squares slope of log2(occupied cells) against level over every
    dyadic level inside the window, clamped to [0, ambient dimension].
    """
    window = window or ScaleWindow.default_for(idx)
    levels = window.levels(idx)
    if len(levels) < 4:
        raise WindowTooNarrowError(
            f"box fit needs >= 4 dyadic levels in window, found {len(levels)}"
        )
    ms = np.asarray(levels, dtype=float)
    counts = np.asarray([idx.occupied_count(m) for m in levels], dtype=float)
    logc = np.log2(counts)
    slope = float(np.polyfit(ms, logc, 1)[0])
    diag = [(float(m * math.log(2.0)), float(math.log(c))) for m, c in zip(ms, counts)]
    return DimEstimate(
        value=float(np.clip(slope, 0.0, idx.dim)),
        method=METHOD_BOX,
        window=window,
        slope_diagnostics=diag,
    )


def _ray_geometry(idx: MultiScaleIndex, window: ScaleWindow):
    """Level range and outer-radius floor implied by a scale window.

    The radii are first clamped to [finest cell side, root side]: that
    admits the same levels and floor, and keeps each ratio to the root
    inside the float range.
    """
    root = idx.root_side
    r_min = min(max(window.r_min, idx.cell_side(idx.max_level)), root)
    k_hi = min(int(math.floor(math.log2(root / r_min))), idx.max_level)
    u_lo = max(_U_MIN, math.log2(root / min(window.r_max, root)))
    return _K_LO, k_hi, u_lo


def estimate_spectrum(idx: MultiScaleIndex, theta_grid=DEFAULT_THETA_GRID,
                      window: ScaleWindow | None = None,
                      center_budget: int = DEFAULT_CENTER_BUDGET) -> SpectrumEstimate:
    """Regularized Assouad spectrum over a theta grid.

    For each theta the scale pairs follow the ray R = 2 * root_side * 2^(-u)
    with u = 1 + theta*k and r = cell side at level k, so that
    log(R/r) = (1 - theta) * k * log 2 exactly.  Each sampled center
    contributes the penalized slope of log2(count) along its ray; the
    spectrum value is the maximum over centers, its first center on ties.

    A theta has a ray when it admits _MIN_RAY_POINTS levels (u above the
    window's floor, 2R/r at least 2) spanning _MIN_RAY_SPAN octaves.  That
    is decided once, from theta, the window and the index depth alone,
    never from the centers: each is a sample point, so every admitted ball
    meets its cell.  Thetas without a ray are reported absent (NaN), never
    fabricated; the regularized curve is the running maximum floored by the
    box-dimension estimate, a lower bound for the spectrum at every theta.
    """
    thetas = [float(t) for t in theta_grid]
    if not thetas or any(not (0.0 < t < 1.0) for t in thetas):
        raise InvalidParameterError("theta grid must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise InvalidParameterError("theta grid must be strictly increasing")
    if center_budget < 1:  # refused whether or not a theta is feasible
        raise InvalidParameterError(f"center budget must be >= 1, got {center_budget}")
    window = window or ScaleWindow.default_for(idx)

    try:
        box_floor = estimate_box_dim(idx, window).value
    except WindowTooNarrowError:
        box_floor = None

    k_lo, k_hi, u_lo = _ray_geometry(idx, window)
    values = [math.nan] * len(thetas)
    diagnostics: list = [None] * len(thetas)

    if k_hi >= k_lo:
        ks = np.arange(k_lo, k_hi + 1)
        theta_arr = np.asarray(thetas)
        radii_by_k = [idx.root_side * np.exp2(-(1.0 + theta_arr * k)) for k in ks]
        u = 1.0 + theta_arr * ks[:, None]  # [level, theta], as for the radii
        g = ks[:, None] - u + 1.0  # log2(2R / r)
        admitted = (u >= u_lo - 1e-9) & (g >= 1.0)
        # which thetas have a ray, from the geometry alone (see above)
        points = admitted.sum(0)
        span = np.where(admitted, g, -np.inf).max(0) - np.where(admitted, g, np.inf).min(0)
        feasible = np.flatnonzero((points >= _MIN_RAY_POINTS) & (span >= _MIN_RAY_SPAN))
        if len(feasible):  # else no center is placed and no ball counted
            centers = select_centers(idx, center_budget)
            counted = np.zeros_like(admitted)  # the admitted radii of feasible thetas
            counted[:, feasible] = admitted[:, feasible]
            counts = _count_rays(idx, centers, ks, radii_by_k, counted)
            fits = _ray_fits(counts, admitted, g, feasible)

        for j, ti in enumerate(feasible):
            found = [f[j][0] for f in fits]
            best = int(np.argmax(found))  # the first center of the largest value
            deepest = int(np.flatnonzero(admitted[:, ti])[-1])
            values[ti] = float(np.clip(found[best], 0.0, idx.dim))
            diagnostics[ti] = {
                "R": float(radii_by_k[deepest][ti]),
                "r": float(idx.cell_side(int(ks[deepest]))),
                "center": [float(v) for v in centers[best]],
                "count": int(counts[best, deepest, ti]),
                "fit": fits[best][j][1],
                "points": int(points[ti]),
                "span": float(span[ti]),
                "p95": float(np.clip(np.percentile(found, 95), 0.0, idx.dim)),
            }

    if all(math.isnan(v) for v in values) and box_floor is None:
        raise WindowTooNarrowError(
            "no admissible (R, r) pair at any theta and no box-dimension floor"
        )

    running = -math.inf
    regularized = []
    for v in values:
        if not math.isnan(v):
            running = max(running, v)
        floor = box_floor if box_floor is not None else 0.0
        regularized.append(float(np.clip(max(running, floor), 0.0, idx.dim)))

    return SpectrumEstimate(
        theta_grid=thetas,
        values=values,
        regularized_values=regularized,
        diagnostics=diagnostics,
    )


def estimate_assouad(idx: MultiScaleIndex, window: ScaleWindow | None = None,
                     center_budget: int = DEFAULT_CENTER_BUDGET) -> DimEstimate:
    """Assouad dimension: supremum of the localized statistics over all
    admissible scale pairs, read as the last regularized value of one
    default-grid sweep: the running maximum of the clipped raw values (plus
    the box floor) ends at it.  The diagnostics are the raw values where
    present, as (theta, value) pairs.

    The grid stops at 0.9 because no larger grid theta is ever admitted: a
    ray at theta spans (1 - theta) * k octaves at level k, over levels
    _K_LO..k_hi with k_hi at most the index's 62 address bits, so its span
    is at most (1 - theta) * (62 - 3), which is 2.95 < _MIN_RAY_SPAN at
    theta = 0.95.
    """
    spec = estimate_spectrum(idx, DEFAULT_THETA_GRID, window, center_budget)
    diag = [(t, v) for t, v in zip(spec.theta_grid, spec.values) if not math.isnan(v)]
    return DimEstimate(
        value=spec.regularized_values[-1],
        method=METHOD_ASSOUAD_WINDOW,
        window=window or ScaleWindow.default_for(idx),
        slope_diagnostics=diag,
    )


def estimate_rho(spec: SpectrumEstimate, epsilon: float = 0.1) -> float:
    """Phase-transition estimate: smallest grid theta whose regularized value
    reaches the quasi-Assouad level (the final regularized value) within
    epsilon; 1.0 if the curve never gets there."""
    if epsilon <= 0.0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    reg = spec.regularized_values
    if not reg:
        return 1.0
    qa = reg[-1]
    for theta, value in zip(spec.theta_grid, reg):
        if value >= qa - epsilon:
            return float(theta)
    return 1.0
