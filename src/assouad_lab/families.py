"""Reference families with known dimension theory.

Four families are supported:

* poly_spiral(a):  {x^-a * (cos x, sin x) : x >= 1} plus the origin.
* log_spiral(c):   {exp(-c x) * (cos x, sin x) : x >= 1} plus the origin.
* cantor(ratio):   endpoints of the depth-d symmetric Cantor construction.
* sequence(p):     {0} union {m^-p : 1 <= m <= m_max}.

Spirals are sampled by arc length so consecutive points are at most
resolution/2 apart, which makes the sample an honest resolution-fine
cover of the truncated curve.  The closed-form box dimension, Assouad
spectrum, and phase-transition location of the polynomial spirals are
exposed as oracles for testing estimators and distortion bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, TruncationTooCoarseError
from .forking import in_halves
from .geometry import POINT_BUDGET, PointSet

# The unsampled tail of a truncated family must stay within this many
# resolution units of the origin; beyond that the declared resolution
# would be a lie at scales the estimators actually probe.
TAIL_SLACK = 16.0


def _check_budget(n_points: float, what: str) -> None:
    if not n_points <= POINT_BUDGET:
        raise InvalidParameterError(
            f"{what} would generate {n_points:.3g} points; "
            f"the budget is {POINT_BUDGET:.3g}"
        )


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one member of one family.

    kind: "poly_spiral" | "log_spiral" | "cantor" | "sequence".
    a, c, ratio, p: the family parameter relevant to the kind.
    x_max / depth / m_max: truncation control.
    target_resolution: declared sampling fineness of the output.
    """

    kind: str
    a: float = 1.0
    c: float = 1.0
    ratio: float = 1.0 / 3.0
    p: float = 1.0
    x_max: float = 1000.0
    depth: int = 8
    m_max: int = 1000
    target_resolution: float = 1e-3


def sample_family(spec: FamilySpec, *, _params: bool = True) -> PointSet:
    """Generate the sample a FamilySpec describes.

    ``_params=False`` is private to callers that never read a spiral's curve
    parameters: the sample is drawn without them, so they are never held.
    """
    res = spec.target_resolution
    if not 0 < res < np.inf:
        raise InvalidParameterError(f"target_resolution must be finite and positive, got {res}")
    if spec.kind == "poly_spiral":
        return _sample_poly_spiral(spec.a, spec.x_max, res, _params)
    if spec.kind == "log_spiral":
        return _sample_log_spiral(spec.c, spec.x_max, res, _params)
    if spec.kind == "cantor":
        return _sample_cantor(spec.ratio, spec.depth, res)
    if spec.kind == "sequence":
        return _sample_sequence(spec.p, spec.m_max, res)
    raise InvalidParameterError(f"unknown family kind {spec.kind!r}")


# ---- spirals ----------------------------------------------------------


def _arc_length_parameter(x_max: float, speed, n_dense: int) -> np.ndarray:
    """Invert cumulative arc length on a dense log grid of x in [1, x_max]."""
    x = np.geomspace(1.0, x_max, n_dense)
    v = speed(x)
    seg = 0.5 * (v[1:] + v[:-1]) * np.diff(x)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    return x, s


#: Curve points per block: the spiral is written block by block straight into
#: its final arrays, so temporaries fit in L2 whatever the sample size.
_BLOCK = 1 << 14


def _curve_points(x_max: float, modulus, speed, step: float, with_params: bool) -> tuple:
    """(N + 1, 2) curve points and their (N + 1) parameters (None unless
    ``with_params``), the origin last.  The second half of the blocks is
    drawn on a helper thread when a CPU is free for it (``forking.in_halves``):
    each block writes its own rows, so the arrays are the same bit for bit."""
    n_dense = int(min(2e6, max(8192, 400 * np.log10(max(x_max, 10.0)) ** 2 * 4)))
    x_dense, s_dense = _arc_length_parameter(x_max, speed, n_dense)
    total = s_dense[-1]
    n_pts = np.floor(total / step) + 1
    _check_budget(n_pts + 1, "this truncation and resolution")  # +1: the origin
    n_pts = int(n_pts)
    pts = np.empty((n_pts + 1, 2))
    params = np.empty(n_pts + 1) if with_params else None

    def draw(starts):
        for start in starts:
            b = slice(start, min(start + _BLOCK, n_pts))
            xs = np.interp(np.arange(b.start, b.stop) * step, s_dense, x_dense)
            if start == 0:
                xs[0] = 1.0
            if with_params:
                params[b] = xs
            r = modulus(xs)
            pts[b, 0] = r * np.cos(xs)
            pts[b, 1] = r * np.sin(xs)

    in_halves(draw, range(0, n_pts, _BLOCK))
    pts[n_pts] = 0.0
    if with_params:
        params[n_pts] = np.inf
    return pts, params


def _sample_spiral(label: str, rate: float, x_max: float, res: float, modulus, speed,
                   with_params: bool):
    """The curve x -> modulus(x) * (cos x, sin x) on [1, x_max], sampled by arc
    length, after the checks both spirals share; ``label`` names ``rate``."""
    if not 0 < rate < np.inf:
        raise InvalidParameterError(f"{label} must be finite and > 0, got {rate}")
    if not 1 < x_max < np.inf:
        raise InvalidParameterError(f"x_max must be finite and exceed 1, got {x_max}")
    tail = modulus(x_max)
    if tail > TAIL_SLACK * res:
        raise TruncationTooCoarseError(
            f"unsampled tail extends to modulus {tail:.3g} > "
            f"{TAIL_SLACK:g} * resolution ({res:.3g}); raise x_max or resolution"
        )
    pts, params = _curve_points(x_max, modulus, speed, 0.49 * res, with_params)
    return PointSet(dim=2, points=pts, resolution=res, params=params)


def _sample_poly_spiral(a: float, x_max: float, res: float, with_params: bool) -> PointSet:
    # |d/dx (x^-a e^{ix})| = x^-a sqrt(1 + a^2/x^2)
    return _sample_spiral("spiral exponent a", a, x_max, res, lambda x: x**-a,
                          lambda x: x**-a * np.sqrt(1.0 + (a / x) ** 2), with_params)


def _sample_log_spiral(c: float, x_max: float, res: float, with_params: bool) -> PointSet:
    return _sample_spiral("log-spiral rate c", c, x_max, res, lambda x: np.exp(-c * x),
                          lambda x: np.exp(-c * x) * np.sqrt(1.0 + c * c), with_params)


# ---- Cantor construction ----------------------------------------------


def cantor_intervals(ratio: float, depth: int) -> np.ndarray:
    """(2^depth, 2) array of [left, right] construction intervals."""
    if not (0 < ratio <= 0.5):
        raise InvalidParameterError(f"ratio must lie in (0, 1/2], got {ratio}")
    if depth < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {depth}")
    ivals = np.array([[0.0, 1.0]])
    for _ in range(depth):
        left = np.column_stack(
            [ivals[:, 0], ivals[:, 0] + ratio * (ivals[:, 1] - ivals[:, 0])]
        )
        right = np.column_stack(
            [ivals[:, 1] - ratio * (ivals[:, 1] - ivals[:, 0]), ivals[:, 1]]
        )
        ivals = np.vstack([left, right])
    order = np.argsort(ivals[:, 0])
    return ivals[order]


def _sample_cantor(ratio: float, depth: int, res: float) -> PointSet:
    # 2^depth intervals, two endpoints each (a float power overflows past 1023)
    _check_budget(2.0 ** (depth + 1) if depth < 1000 else np.inf, f"Cantor depth {depth}")
    ivals = cantor_intervals(ratio, depth)
    width = ratio**depth
    if width > res * (1 + 1e-12):
        raise TruncationTooCoarseError(
            f"depth-{depth} intervals have width {width:.3g} > target "
            f"resolution {res:.3g}; increase depth or coarsen the resolution"
        )
    pts = np.unique(ivals.reshape(-1))
    return PointSet(dim=1, points=pts.reshape(-1, 1), resolution=res)


# ---- convergent sequence ----------------------------------------------


def _sample_sequence(p: float, m_max: int, res: float) -> PointSet:
    if p <= 0:
        raise InvalidParameterError(f"sequence exponent p must be > 0, got {p}")
    if m_max < 1:
        raise InvalidParameterError(f"m_max must be >= 1, got {m_max}")
    _check_budget(m_max + 1, f"m_max {m_max}")
    m = np.arange(1, m_max + 1, dtype=np.float64)
    pts = np.concatenate([[0.0], np.sort(m**-p)])
    return PointSet(dim=1, points=pts.reshape(-1, 1), resolution=res)


# ---- closed-form oracles ----------------------------------------------


def oracle_spiral_box_dim(a: float) -> float:
    """Box dimension of the polynomial spiral with exponent a > 0."""
    if not 0 < a < np.inf:
        raise InvalidParameterError(f"a must be finite and > 0, got {a}")
    return max(2.0 / (1.0 + a), 1.0)


def oracle_spiral_spectrum(a: float, theta: float) -> float:
    """Assouad spectrum of the polynomial spiral at theta in (0, 1).

    Two regimes meet continuously at a = 1: a winding-dominated branch for
    a <= 1 and a curve-dominated branch for a >= 1.  Both are nondecreasing
    in theta, so the regularized spectrum coincides with this value.
    """
    if not 0 < a < np.inf:
        raise InvalidParameterError(f"a must be finite and > 0, got {a}")
    if not (0 < theta < 1):
        raise InvalidParameterError(f"theta must lie in (0, 1), got {theta}")
    if a <= 1:
        return min(2.0 / ((1.0 + a) * (1.0 - theta)), 2.0)
    return min(1.0 + theta / (a * (1.0 - theta)), 2.0)


def oracle_spiral_rho(a: float) -> float:
    """Phase transition: the spectrum saturates at 2 exactly from a/(1+a) on."""
    if not 0 < a < np.inf:
        raise InvalidParameterError(f"a must be finite and > 0, got {a}")
    return a / (1.0 + a)


def oracle_sequence_dims(p: float) -> tuple[float, float, float]:
    """(Hausdorff, box, Assouad) dimensions of {0} union {m^-p}."""
    if p <= 0:
        raise InvalidParameterError(f"p must be > 0, got {p}")
    return 0.0, 1.0 / (1.0 + p), 1.0
