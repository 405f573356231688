"""Planar map algebra with dilatation bookkeeping.

Three primitive map kinds cover everything the distortion experiments need:
radial power maps (the only genuinely quasiconformal ones here), similarities,
and Moebius transformations.  A PlanarMap is a pipeline of primitives applied
left to right; its dilatation bound is the product of the primitive
dilatations, with conformal primitives contributing 1.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PoleProximityError
from .geometry import PointSet

# Moebius images blow up near the pole; points closer than this many
# resolution units are refused rather than silently distorted.
POLE_MARGIN = 10.0


@dataclass(frozen=True)
class RadialPower:
    """z -> |z|^(power-1) * z, fixing the origin.  K-quasiconformal with
    K = max(power, 1/power); power = 1/K gives the classical radial stretch."""

    power: float

    def __post_init__(self):
        if not (self.power > 0.0 and np.isfinite(self.power)):
            raise InvalidParameterError(f"radial power must be positive, got {self.power}")

    @property
    def dilatation(self) -> float:
        return max(self.power, 1.0 / self.power)

    def apply(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros_like(z)
        nz = z != 0
        zn = z[nz]
        out[nz] = np.abs(zn) ** (self.power - 1.0) * zn
        return out

    def inverse(self) -> "RadialPower":
        return RadialPower(1.0 / self.power)

    def lipschitz(self, moduli_lo: float, moduli_hi: float, denom_min: float) -> float:
        # Derivative bound sup |z|^(power-1) over the annulus of the data.
        if moduli_hi == 0.0:
            return 1.0
        p = self.power - 1.0  # numpy powers: overflow gives inf, not an exception
        return float(max(np.float64(moduli_lo) ** p if moduli_lo > 0 else np.inf if p < 0 else 0.0,
                         np.float64(moduli_hi) ** p))


@dataclass(frozen=True)
class Similarity:
    """z -> scale * z + offset, scale != 0; conformal, dilatation 1."""

    scale: complex
    offset: complex = 0j

    def __post_init__(self):
        if self.scale == 0:
            raise InvalidParameterError("similarity scale must be nonzero")

    @property
    def dilatation(self) -> float:
        return 1.0

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.scale * z + self.offset

    def inverse(self) -> "Similarity":
        return Similarity(1.0 / self.scale, -self.offset / self.scale)

    def lipschitz(self, moduli_lo: float, moduli_hi: float, denom_min: float) -> float:
        return float(np.abs(self.scale))  # numpy: a modulus past the float range is inf


@dataclass(frozen=True)
class Mobius:
    """z -> (a z + b) / (c z + d) with ad - bc != 0; conformal away from the pole."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if not 0.0 < np.abs(self.a * self.d - self.b * self.c) < np.inf:
            raise InvalidParameterError("mobius determinant ad - bc must be finite and nonzero")

    @property
    def dilatation(self) -> float:
        return 1.0

    @property
    def pole(self) -> complex | None:
        if self.c == 0:
            return None
        return -self.d / self.c

    def apply(self, z: np.ndarray) -> np.ndarray:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def lipschitz(self, moduli_lo: float, moduli_hi: float, denom_min: float) -> float:
        det = np.abs(self.a * self.d - self.b * self.c)
        # |f'(z)| = |ad - bc| / |cz + d|^2, largest where |cz + d| is least;
        # numpy arithmetic: a square that leaves the float range, or a
        # minimum that underflows to 0, gives inf or 0 rather than an exception
        return float(det / np.float64(denom_min) ** 2)


@dataclass(frozen=True)
class PlanarMap:
    ops: tuple

    @property
    def dilatation_bound(self) -> float:
        bound = 1.0
        for op in self.ops:
            bound *= op.dilatation
        return bound


def identity_map() -> PlanarMap:
    return PlanarMap(ops=())


def radial_stretch(K: float) -> PlanarMap:
    """The canonical K-quasiconformal map z -> |z|^(1/K - 1) z.

    Sends the polynomial spiral with decay a onto the one with decay a/K.
    """
    if not (K >= 1.0 and np.isfinite(K)):
        raise InvalidParameterError(f"radial stretch needs a finite K >= 1, got {K}")
    if K == 1.0:
        return identity_map()
    return PlanarMap(ops=(RadialPower(1.0 / K),))


def invert(f: PlanarMap) -> PlanarMap:
    return PlanarMap(ops=tuple(op.inverse() for op in reversed(f.ops)))


#: Points per block of apply_map: each block is taken through every stage
#: in place, so temporaries fit in L2 whatever the sample size.
_BLOCK = 1 << 14


@np.errstate(all="ignore")  # leaving the float range is refused, not warned about
def apply_map(f: PlanarMap, ps: PointSet) -> PointSet:
    """Pointwise image of a planar point set, with honest resolution scaling.

    The output resolution is the input resolution multiplied by each
    primitive's local Lipschitz bound over the annulus of moduli the data
    actually occupies at that stage of the pipeline (origin excluded; the
    radial powers fix it exactly).  Moebius stages refuse points within
    POLE_MARGIN resolution units of the pole rather than emit garbage.

    A stage that sends a point, or the resolution, outside the float
    range (to inf, NaN or a resolution of 0) is refused, naming the stage.
    The first failing stage in chain order is the one refused.

    The sample is read once: each block goes through every stage while it
    is in cache, folded into a stage's statistics just before that stage
    maps it, and the stages are checked in chain order after the last
    block.  Per point, only the (N, 2) output is allocated: the map works
    in place on it, viewed as N complex numbers.
    """
    if ps.dim != 2:
        raise InvalidParameterError(f"planar maps need dim=2 point sets, got dim={ps.dim}")
    pts = ps.points
    out = np.empty((len(pts), 2))
    z = out.view(np.complex128).reshape(-1)
    # per stage, over the points it maps: least and largest nonzero modulus,
    # least distance to its pole, least |cz + d|, and whether its image is finite
    n = len(f.ops)
    lo, gap, denom_min = [np.inf] * n, [np.inf] * n, [np.inf] * n
    hi, finite = [0.0] * n, [True] * n
    for s in range(0, len(z), _BLOCK):
        zb = z[s:s + _BLOCK]
        zb[:] = pts[s:s + _BLOCK, 0] + 1j * pts[s:s + _BLOCK, 1]
        for k, op in enumerate(f.ops):
            moduli = np.abs(zb)
            positive = moduli[moduli > 0]
            if len(positive):
                lo[k] = min(lo[k], float(positive.min()))
                hi[k] = max(hi[k], float(positive.max()))
            if isinstance(op, Mobius):
                denom_min[k] = min(denom_min[k], float(np.min(np.abs(op.c * zb + op.d))))
                if op.pole is not None:
                    gap[k] = min(gap[k], float(np.min(np.abs(zb - op.pole))))
            zb[:] = op.apply(zb)
            finite[k] = finite[k] and bool(np.isfinite(zb).all())
    resolution = ps.resolution
    for k, op in enumerate(f.ops):
        if gap[k] < POLE_MARGIN * resolution:
            raise PoleProximityError(
                f"point at distance {gap[k]:.3e} from mobius pole "
                f"(need >= {POLE_MARGIN} * resolution = {POLE_MARGIN * resolution:.3e})"
            )
        # with no nonzero modulus, lo stays inf and hi 0: the radial bound is 1
        resolution = resolution * op.lipschitz(lo[k], hi[k], denom_min[k])
        if not (finite[k] and 0.0 < resolution < np.inf):
            what = "its resolution" if finite[k] else "a point"
            raise InvalidParameterError(
                f"map stage {_format_stage(op)} sends {what} outside the float range"
            )
    return PointSet(dim=2, points=out, resolution=float(resolution), params=ps.params)


_COMPLEX_RE = re.compile(r"^[0-9eE+\-.ij]+$")


def _parse_complex(text: str) -> complex:
    """Parse '1+2i', '-i', '0.5', '2i' into a complex number."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned or not _COMPLEX_RE.match(cleaned):
        raise InvalidParameterError(f"cannot parse complex literal {text!r}")
    normalized = cleaned.replace("i", "j")
    # complex() rejects bare "j-less" juxtapositions like "+j1"; rely on its parser.
    try:
        value = complex(normalized)
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse complex literal {text!r}") from exc
    if not cmath.isfinite(value):
        raise InvalidParameterError(f"complex literal {text!r} is not finite")
    return value


def _format_complex(value: complex) -> str:
    re_part, im_part = value.real, value.imag
    if im_part == 0:
        return f"{re_part:g}"
    if re_part == 0:
        return f"{im_part:g}i"
    sign = "+" if im_part > 0 else "-"
    return f"{re_part:g}{sign}{abs(im_part):g}i"


def parse_map_spec(text: str) -> PlanarMap:
    """Build a map from the CLI mini-language.

    Stages are joined by '|' and applied left to right:
    'radial:K=2.0', 'similarity:s=1+2i,t=0', 'mobius:a=1,b=0,c=0,d=1'.
    """
    ops = []
    for stage in text.split("|"):
        stage = stage.strip()
        if not stage:
            raise InvalidParameterError("empty stage in map spec")
        kind, _, arg_text = stage.partition(":")
        kind = kind.strip().lower()
        if kind not in ("radial", "similarity", "mobius"):
            raise InvalidParameterError(f"unknown map stage kind {kind!r}")
        args = {}
        if arg_text:
            for item in arg_text.split(","):
                key, eq, value = item.partition("=")
                if not eq:
                    raise InvalidParameterError(f"malformed map argument {item!r}")
                if key.strip().lower() in args:
                    raise InvalidParameterError(f"{kind} stage repeats key {key.strip()!r}")
                args[key.strip().lower()] = value.strip()
        if kind == "radial":
            if set(args) != {"k"}:
                raise InvalidParameterError("radial stage takes exactly K=<real>")
            try:
                K = float(args["k"])
            except ValueError as exc:
                raise InvalidParameterError(f"cannot parse K value {args['k']!r}") from exc
            ops.extend(radial_stretch(K).ops)
        elif kind == "similarity":
            if not set(args) <= {"s", "t"} or "s" not in args:
                raise InvalidParameterError("similarity stage takes s=<complex>[,t=<complex>]")
            ops.append(Similarity(_parse_complex(args["s"]),
                                  _parse_complex(args.get("t", "0"))))
        else:
            if set(args) != {"a", "b", "c", "d"}:
                raise InvalidParameterError("mobius stage takes a=,b=,c=,d=")
            ops.append(Mobius(*(_parse_complex(args[k]) for k in "abcd")))
    return PlanarMap(ops=tuple(ops))


def _format_stage(op) -> str:
    if isinstance(op, RadialPower):
        return f"radial:K={1.0 / op.power:g}"
    if isinstance(op, Similarity):
        return f"similarity:s={_format_complex(op.scale)},t={_format_complex(op.offset)}"
    if isinstance(op, Mobius):
        return "mobius:" + ",".join(
            f"{name}={_format_complex(getattr(op, name))}" for name in "abcd")
    raise InvalidParameterError(f"unknown primitive {op!r}")

