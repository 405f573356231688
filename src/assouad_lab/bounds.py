"""Closed-form dimension distortion bounds for quasiconformal maps.

Everything here is exact arithmetic on the inequality chain

    (1 - n/p) * (1/dim_src - 1/n)  <=  1/dim_img - 1/n  <=  (1 - n/p')^{-1} * (1/dim_src' - 1/n)

where the two source dimensions are read off the regularized spectrum at
shifted parameters theta(t/K) and theta(K*t).  Solving each side for the
image dimension turns the chain into a two-sided bound [lower, upper].
The 1/0 = +inf convention applies throughout: a source dimension of 0 on
the contracting side forces the image bound to 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, SpectrumUndefinedError

SpectrumFn = Callable[[float], float]


def theta_of_t(t: float) -> float:
    """Spectrum parameter 1/(1+t) associated with the scale exponent t."""
    if not t > 0:
        raise InvalidParameterError(f"t must be positive, got {t}")
    return 1.0 / (1.0 + t)


def t_of_theta(theta: float) -> float:
    """Inverse of theta_of_t on (0, 1)."""
    if not 0.0 < theta < 1.0:
        raise InvalidParameterError(f"theta must lie in (0,1), got {theta}")
    return (1.0 - theta) / theta


def _check_dilatation(value: float, name: str = "dilatation") -> None:
    """A dilatation (or lambda) is a finite number >= 1."""
    if not 1.0 <= value < math.inf:
        bound = "finite" if value == math.inf else ">= 1"
        raise InvalidParameterError(f"{name} must be {bound}, got {value}")


def rh_exponent_floor(n: int, K: float, lam: float = 1.0) -> float:
    """Lower bound n*lam*K/(lam*K - 1) for the reverse-Holder exponent.

    Valid in every dimension; at n=2 and lam=1 it is the sharp planar
    exponent 2K/(K-1).  Returns +inf when lam*K == 1.
    """
    _check_ambient(n)
    _check_dilatation(K)
    _check_dilatation(lam, "lambda")
    lk = lam * K
    if lk == 1.0:
        return math.inf
    return n * lk / (lk - 1.0)


def _check_ambient(n) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise InvalidParameterError(f"ambient dimension must be an integer >= 2, got {n}")


@dataclass(frozen=True)
class ExponentContext:
    """Ambient dimension, dilatation, and the Sobolev exponents they pin down.

    The exponent p is auto-filled in the plane (2K/(K-1), or +inf for a
    conformal map).  For n >= 3 the sharp value is not known, so the caller
    must supply one; rh_exponent_floor gives a safe default.  inner_p is p'.
    """

    n: int = 2
    K: float = 1.0
    p: Optional[float] = None
    lam: float = 1.0
    inner_p: Optional[float] = None

    def __post_init__(self):
        _check_ambient(self.n)
        _check_dilatation(self.K)
        _check_dilatation(self.lam, "lambda")
        p = self.p
        if p is None:
            if self.K == 1.0:
                p = math.inf
            elif self.n == 2:
                p = rh_exponent_floor(2, self.K)
            else:
                raise InvalidParameterError(
                    "exponent p must be supplied for n >= 3 (see rh_exponent_floor)"
                )
            object.__setattr__(self, "p", p)
        elif not (p == math.inf or p > self.n):
            raise InvalidParameterError(f"exponent p must exceed n={self.n} or be +inf, got {p}")
        q = self.inner_p
        if not (q is None or q == math.inf or q > self.n):
            raise InvalidParameterError(f"inner exponent must exceed n={self.n} or be +inf, got {q}")

    def inner_exponent(self) -> float:
        """Exponent p' used on the expanding side of the chain.

        inner_p if given, else the K^(n-1)-dilatation surrogate: the sharp
        planar value for n=2, the rh_exponent_floor lower bound otherwise.  A
        lower bound for p' only weakens (never invalidates) the image bound.
        """
        if self.inner_p is not None:
            return self.inner_p
        k_inner = self.K ** (self.n - 1)
        if k_inner == 1.0:
            return math.inf
        if self.n == 2:
            return rh_exponent_floor(2, k_inner)
        return rh_exponent_floor(self.n, k_inner, self.lam)


def beta_upper(alpha: float, ctx: ExponentContext) -> float:
    """Largest possible image dimension p*alpha/(p - n + alpha)."""
    if not 0.0 < alpha <= ctx.n:
        raise InvalidParameterError(f"alpha must lie in (0, {ctx.n}], got {alpha}")
    if ctx.p == math.inf:
        return alpha
    return ctx.p * alpha / (ctx.p - ctx.n + alpha)


def symmetric_coeff(ctx: ExponentContext) -> float:
    """Coefficient 1 - n/p of the symmetric form; 1/K in the plane, 1 at p=+inf."""
    if ctx.p == math.inf:
        return 1.0
    return 1.0 - ctx.n / ctx.p


def _recip_gap(d: float, n: int) -> float:
    # 1/d - 1/n with the 1/0 = +inf convention
    if math.isnan(d):
        raise SpectrumUndefinedError("source spectrum value is undefined (NaN)")
    if not 0.0 <= d <= n + 1e-9:
        raise InvalidParameterError(f"dimension value must lie in [0, {n}], got {d}")
    if d == 0.0:
        return math.inf
    return 1.0 / d - 1.0 / n


def _dim_from_gap(gap: float, n: int) -> float:
    # invert d -> 1/d - 1/n; gap = +inf collapses to dimension 0
    if gap == math.inf:
        return 0.0
    return 1.0 / (gap + 1.0 / n)


def _inner_coeff(ctx: ExponentContext) -> float:
    """Coefficient (1 - n/p')^{-1} of the expanding side; 1 at p' = +inf."""
    p_inner = ctx.inner_exponent()
    return 1.0 if p_inner == math.inf else 1.0 / (1.0 - ctx.n / p_inner)


def spectrum_bounds(
    t: float, ctx: ExponentContext, source_spectrum: SpectrumFn
) -> tuple[float, float]:
    """Two-sided bound on the image spectrum at theta(t).

    The upper bound multiplies the reciprocal gap of the source value at
    theta(t/K) by 1 - n/p; the lower bound multiplies the gap at theta(K*t)
    by (1 - n/p')^{-1}.  Returns (lower, upper) in dimension coordinates.
    """
    if not t > 0:
        raise InvalidParameterError(f"t must be positive, got {t}")
    K = ctx.K
    d_contract = source_spectrum(theta_of_t(t / K))
    d_expand = source_spectrum(theta_of_t(K * t))

    upper = _dim_from_gap(symmetric_coeff(ctx) * _recip_gap(d_contract, ctx.n), ctx.n)
    lower = _dim_from_gap(_inner_coeff(ctx) * _recip_gap(d_expand, ctx.n), ctx.n)
    return lower, upper


def _source_gap(alpha_source: float, n: int) -> float:
    """Reciprocal gap of a source Assouad dimension, which lies strictly inside (0, n)."""
    if not 0.0 < alpha_source < n:
        raise InvalidParameterError(
            f"source dimension must lie strictly inside (0, {n}), got {alpha_source}"
        )
    return _recip_gap(alpha_source, n)


def assouad_bounds(alpha_source: float, ctx: ExponentContext) -> tuple[float, float]:
    """Two-sided bound on the image Assouad dimension for a source of dimension
    alpha: the spectrum bound of the constant spectrum alpha, at any t."""
    _source_gap(alpha_source, ctx.n)  # alpha must be interior
    return spectrum_bounds(1.0, ctx, lambda theta: alpha_source)


def assouad_bounds_lambda(alpha_source: float, ctx: ExponentContext) -> tuple[float, float]:
    """Dilatation-only form of assouad_bounds with coefficients 1/(lam*K) and lam*K."""
    gap = _source_gap(alpha_source, ctx.n)
    lk = ctx.lam * ctx.K
    upper = _dim_from_gap(gap / lk, ctx.n)
    lower = _dim_from_gap(gap * lk, ctx.n)
    return lower, upper


def biholder_upper(theta: float, K: float, source_at_shifted: float) -> float:
    """Upper bound K*(1 - theta/K^2)/(1 - theta) * dim at theta/K^2, clamped at 2.

    Planar bound derived from the (1/K, K) bi-Holder regularity of a
    K-quasiconformal map; only meaningful for theta < 1/K^2.
    """
    _check_dilatation(K)
    if not 0.0 < theta < 1.0:
        raise InvalidParameterError(f"theta must lie in (0,1), got {theta}")
    if theta >= 1.0 / K**2:
        raise InvalidParameterError(f"theta={theta} is not below 1/K^2={1.0 / K**2}")
    if math.isnan(source_at_shifted):
        raise SpectrumUndefinedError("source spectrum value is undefined (NaN)")
    if not 0.0 <= source_at_shifted <= 2.0:
        raise InvalidParameterError(
            f"planar dimension value must lie in [0, 2], got {source_at_shifted}"
        )
    value = K * (1.0 - theta / K**2) / (1.0 - theta) * source_at_shifted
    return min(value, 2.0)


def ours_upper(t: float, K: float, d: float) -> float:
    """Upper bound K*d/(1 + (K-1)/2 * d) with d the source spectrum at theta(t/K)."""
    if not t > 0:
        raise InvalidParameterError(f"t must be positive, got {t}")
    _check_dilatation(K)
    if not 0.0 <= d <= 2.0:
        raise InvalidParameterError(f"planar dimension value must lie in [0, 2], got {d}")
    return K * d / (1.0 + 0.5 * (K - 1.0) * d)


@dataclass(frozen=True)
class BoundComparison:
    theta: float
    ours: float
    biholder: Optional[float]
    hypothesis_failures: tuple[str, ...]
    ours_leq_biholder: Optional[bool]

    @property
    def hypotheses_hold(self) -> bool:
        return not self.hypothesis_failures


def compare_bounds(t: float, K: float, source_spectrum: SpectrumFn) -> BoundComparison:
    """Evaluate both planar upper bounds at theta(t) and compare them.

    When theta(t) < 1/K^2 and theta(t) <= d/2 the reciprocal-gap bound is
    guaranteed to be at most the bi-Holder one; outside those hypotheses the
    comparison is still reported, with the failing hypothesis named.
    """
    theta = theta_of_t(t)
    d = source_spectrum(theta_of_t(t / K))
    ours = ours_upper(t, K, d)

    failures = []
    if theta >= 1.0 / K**2:
        failures.append("theta(t) >= 1/K^2: biholder bound inapplicable")
        biholder = None
    else:
        biholder = biholder_upper(theta, K, source_spectrum(theta / K**2))
    if theta > d / 2.0:
        failures.append("theta(t) > d/2")

    verdict = None if biholder is None else bool(ours <= biholder + 1e-12)
    return BoundComparison(
        theta=theta,
        ours=ours,
        biholder=biholder,
        hypothesis_failures=tuple(failures),
        ours_leq_biholder=verdict,
    )


@dataclass(frozen=True)
class SpiralClassification:
    """Minimal dilatation needed to map one polynomial spiral onto another."""

    a: float
    b: float
    dilatation: float
    inverted: bool

    def witness_spec(self) -> str:
        return f"radial:K={self.dilatation:.17g}"


def classify_spirals(a: float, b: float) -> SpiralClassification:
    """Threshold dilatation max(a,b)/min(a,b) for mapping spiral a onto spiral b.

    Stated for a > b; the a < b case goes through the inverse map (same
    dilatation in the plane) and is flagged as inverted.
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise InvalidParameterError(
            f"spiral exponents must be finite and positive, got a={a}, b={b}"
        )
    return SpiralClassification(
        a=a, b=b, dilatation=max(a, b) / min(a, b), inverted=a < b
    )


def spectrum_interpolator(
    theta_grid: Sequence[float], values: Sequence[float]
) -> SpectrumFn:
    """Linear interpolant through the finite points of a sampled spectrum curve.

    Queries outside the covered theta range (or on an all-NaN curve) raise
    SpectrumUndefinedError, so bound evaluations never silently extrapolate.
    The thetas of those points must be finite and strictly increasing.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals)
    thetas, vals = thetas[keep], vals[keep]
    if thetas.size == 0:
        raise SpectrumUndefinedError("spectrum curve has no finite values")
    if not (np.isfinite(thetas).all() and (np.diff(thetas) > 0).all()):
        raise InvalidParameterError("spectrum curve thetas must be finite and strictly increasing")

    def lookup(theta: float) -> float:
        if theta < thetas[0] - 1e-12 or theta > thetas[-1] + 1e-12:
            raise SpectrumUndefinedError(
                f"theta={theta:.6g} outside covered range [{thetas[0]:.6g}, {thetas[-1]:.6g}]"
            )
        return float(np.interp(theta, thetas, vals))

    return lookup


@dataclass(frozen=True)
class ThetaVerdict:
    theta: float
    estimate: Optional[float]
    lower: Optional[float]
    upper: Optional[float]
    feasible: bool
    passed: Optional[bool]
    reason: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def all_passed(verdicts: Sequence[ThetaVerdict]) -> bool:
    """Whether every feasible verdict passed; infeasible thetas never fail."""
    return all(v.passed for v in verdicts if v.feasible)


def check_curve(
    theta_grid: Sequence[float],
    bounds_at: Callable[[float], tuple[float, float]],
    image_spectrum: SpectrumFn,
    slack: float,
) -> tuple[ThetaVerdict, ...]:
    """One verdict per theta: the image estimate against [lower - slack, upper + slack].

    ``bounds_at(theta)`` gives (lower, upper); an oracle check passes the
    oracle value as both.  A side that raises SpectrumUndefinedError makes
    its theta infeasible, with the side named in the reason, rather than
    failed; a feasible verdict passes when lower - slack <= estimate <= upper + slack.
    """
    if not 0.0 <= slack < math.inf:
        raise InvalidParameterError(f"slack must be finite and nonnegative, got {slack}")
    verdicts = []
    for theta in theta_grid:
        lower = upper = None
        try:
            side = "source"
            lower, upper = bounds_at(theta)
            side = "image"
            est = image_spectrum(theta)
        except SpectrumUndefinedError as exc:
            verdicts.append(ThetaVerdict(theta, None, lower, upper, False, None, f"{side}: {exc}"))
        else:
            ok = lower - slack <= est <= upper + slack
            reason = "" if ok else (
                f"estimate {est:.4f} outside [{lower:.4f} - {slack}, {upper:.4f} + {slack}]"
            )
            verdicts.append(ThetaVerdict(theta, est, lower, upper, True, bool(ok), reason))
    return tuple(verdicts)


@dataclass(frozen=True)
class BoundReport:
    """Per-theta image-dimension bounds next to the source curve they come from."""

    verdicts: tuple
    input_curve: tuple
    slack: float
    context: ExponentContext

    @property
    def all_passed(self) -> bool:
        return all_passed(self.verdicts)

    @property
    def feasible_count(self) -> int:
        return sum(1 for v in self.verdicts if v.feasible)

    def to_json(self) -> dict:
        def curve(values):  # JSON has no NaN
            return [None if v is None or math.isnan(v) else v for v in values]

        return {
            "thetaGrid": [v.theta for v in self.verdicts],
            "lowerCurve": curve(v.lower for v in self.verdicts),
            "upperCurve": curve(v.upper for v in self.verdicts),
            "inputCurve": curve(self.input_curve),
            "verdicts": [v.to_json() for v in self.verdicts],
            "slack": self.slack,
            "feasibleCount": self.feasible_count,
            "allPassed": self.all_passed,
            "context": {
                "n": self.context.n,
                "K": self.context.K,
                "p": "inf" if self.context.p == math.inf else self.context.p,
                "lambda": self.context.lam,
            },
        }


def spectrum_bound_report(
    theta_grid: Sequence[float],
    ctx: ExponentContext,
    source_spectrum: SpectrumFn,
    image_spectrum: SpectrumFn,
    slack: float,
) -> BoundReport:
    """Check an image spectrum curve against the two-sided bounds on a theta grid.

    Grid points where either curve is unavailable are marked infeasible
    rather than failed (see check_curve).
    """

    def source_or_nan(theta: float) -> float:
        try:
            return source_spectrum(theta)
        except SpectrumUndefinedError:
            return math.nan

    verdicts = check_curve(
        theta_grid, lambda th: spectrum_bounds(t_of_theta(th), ctx, source_spectrum),
        image_spectrum, slack,
    )
    return BoundReport(verdicts, tuple(source_or_nan(th) for th in theta_grid), slack, ctx)
