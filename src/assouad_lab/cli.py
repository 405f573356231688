"""Command-line surface: sampling, estimation, map application, bound checks.

Exit codes: 0 success / all verdicts pass, 2 usage or parameter error,
3 numeric infeasibility (scale window too narrow, pole too close), 4
verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Optional

from . import bounds as bnd
from . import estimators as est
from . import families as fam
from . import maps as qc
from .errors import (
    AssouadLabError,
    InvalidParameterError,
    PoleProximityError,
    ResolutionExceededError,
    ScaleBelowResolutionError,
    SpectrumUndefinedError,
    WindowTooNarrowError,
)
from .forking import forked
from .geometry import _read_csv_table, load_points, save_points
from .index import build_index, deepest_level

SCHEMA = "assouad-lab/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

# Every other AssouadLabError is a usage or parameter error.
_NUMERIC_ERRORS = (
    WindowTooNarrowError,
    PoleProximityError,
    ResolutionExceededError,
    ScaleBelowResolutionError,
)

# gen families whose FamilySpec kind has another name
_FAMILY_KINDS = {"logspiral": "log_spiral", "spiral": "poly_spiral"}

# Most thetas a --theta-step grid may hold; each one is a full count sweep.
_MAX_THETAS = 1000

# Most query centers --centers may ask for; each one is a full ray sweep.
_MAX_CENTERS = 1000

# Every mode of each command, in --help order, with the flags it reads
# besides those all the command's modes read; _check_reads refuses the rest.
# A bounds formula's first flag is the one it needs, checked and echoed into
# the report's inputs.
_READS = {
    "gen": {"cantor": ("ratio", "depth"), "logspiral": ("c", "xmax"),  # --family
            "sequence": ("p", "mmax"), "spiral": ("a", "xmax")},
    "estimate": {  # --mode
        "box": (),
        "spectrum": ("centers", "theta", "theta_min", "theta_max", "theta_step", "plot"),
        "assouad": ("centers",),
    },
    "bounds": {  # --formula, besides n, K, p and lambda
        "beta-upper": ("alpha",),
        "symmetric-coeff": (),
        "rh-exponent": (),
        "assouad": ("alpha", "inner_p"),
        "spectrum": ("t", "inner_p", "source_a", "source_csv"),
        "biholder": ("theta", "source_value", "source_a", "source_csv"),
        "ours": ("t", "d", "source_a", "source_csv"),
        "compare": ("t", "source_a", "source_csv"),
    },
    "verify": {"identity": (), "radial": ("image_res",), "pushforward": ()},  # --map's kind
    "classify": {"text": (), "json": ("out",)},  # the text line or the --json report
}
_MODE_NOUN = {"gen": "family", "estimate": "mode", "bounds": "formula", "verify": "chain",
              "classify": "report"}


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _flag(name: str) -> str:
    """The option that sets ``args.<name>``."""
    return "--" + name.replace("_", "-")


def _check_reads(args, mode: str) -> None:
    """Refuse the first given flag, in --help order, that ``mode`` of the
    command does not read though another of its modes does."""
    rows = _READS[args.command]
    every = {name for row in rows.values() for name in row}
    for name, value in vars(args).items():
        if value is not None and name in every and name not in rows[mode]:
            raise InvalidParameterError(
                f"{_flag(name)} is not read by the {mode} {_MODE_NOUN[args.command]}")


def _num(v):
    # JSON has no inf/nan literals
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return None
    return v


def _emit(args, payload: dict) -> None:
    """Print the report, or write it to ``--out``, under the schema and command."""
    text = json.dumps({"schema": SCHEMA, "command": args.command, **payload}, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(args):
    ps = load_points(args.input, resolution=getattr(args, "res", None))
    return ps, build_index(ps, deepest_level(ps))


def _window_from(args, idx) -> Optional[est.ScaleWindow]:
    if args.rmin is None and args.rmax is None:
        return None
    r_min, r_max = est.ScaleWindow.default_bounds(idx)
    return est.ScaleWindow(
        r_min=args.rmin if args.rmin is not None else r_min,
        r_max=args.rmax if args.rmax is not None else r_max,
    )


def _center_budget(text: str) -> int:
    """``--centers`` value: an integer in [1, _MAX_CENTERS], checked at parse time."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= _MAX_CENTERS:
        raise InvalidParameterError(
            f"--centers must be an integer in [1, {_MAX_CENTERS}], got {text!r}"
        )
    return value


def _theta_grid(args, extra=()) -> tuple:
    """The ``--theta`` values, else the ``--theta-min/-max/-step`` range, else
    ``DEFAULT_THETA_GRID``, with ``extra`` added.  A range flag left out is
    read off the default grid: its first or last theta, or its spacing."""
    default = est.DEFAULT_THETA_GRID
    if args.theta:
        grid = {round(v, 10) for v in args.theta}
    elif args.theta_min is None and args.theta_max is None and args.theta_step is None:
        grid = set(default)
    else:
        lo = default[0] if args.theta_min is None else args.theta_min
        hi = default[-1] if args.theta_max is None else args.theta_max
        step = default[1] - default[0] if args.theta_step is None else args.theta_step
        if not step > 0:
            raise InvalidParameterError("theta-step must be positive")
        if not lo <= hi:
            raise InvalidParameterError(f"theta-min {lo:g} exceeds theta-max {hi:g}")
        steps = (hi - lo) / step
        if not steps <= _MAX_THETAS - 1:
            raise InvalidParameterError(
                f"theta-step {step:g} asks for {steps + 1:.3g} thetas; "
                f"at most {_MAX_THETAS} are allowed"
            )
        steps = int(round(steps))
        grid = {round(lo + i * step, 10) for i in range(steps + 1)}
    grid.update(round(v, 10) for v in extra)
    return tuple(sorted(grid))


# ---- gen ---------------------------------------------------------------


# FamilySpec fields whose gen flag has another name
_SPEC_FIELDS = {"xmax": "x_max", "mmax": "m_max", "res": "target_resolution"}


def cmd_gen(args) -> int:
    _check_reads(args, args.family)
    # only the flags given, so each default lives in FamilySpec alone
    given = {_SPEC_FIELDS.get(name, name): getattr(args, name)
             for name in (*_READS["gen"][args.family], "res") if getattr(args, name) is not None}
    spec = fam.FamilySpec(kind=_FAMILY_KINDS.get(args.family, args.family), **given)
    save_points(fam.sample_family(spec), args.out)
    return EXIT_OK


# ---- index-stats -------------------------------------------------------


def cmd_index_stats(args) -> int:
    ps, idx = _load(args)
    payload = {
        "input": args.input,
        "points": len(ps),
        "dim": ps.dim,
        "resolution": ps.resolution,
        "rootSide": idx.root_side,
        "maxLevel": idx.max_level,
        "levels": [
            {"level": m, "cellSide": idx.cell_side(m), "occupied": idx.occupied_count(m)}
            for m in range(idx.max_level + 1)
        ],
    }
    _emit(args, payload)
    return EXIT_OK


# ---- estimate ----------------------------------------------------------

def cmd_estimate(args) -> int:
    _check_reads(args, args.mode)
    centers = est.DEFAULT_CENTER_BUDGET if args.centers is None else args.centers
    ps, idx = _load(args)
    window = _window_from(args, idx)
    started = time.perf_counter()
    payload = {"mode": args.mode, "input": args.input, "points": len(ps)}

    if args.mode == "spectrum":
        spec = est.estimate_spectrum(
            idx, theta_grid=_theta_grid(args), window=window, center_budget=centers
        )
        absent = [t for t, v in zip(spec.theta_grid, spec.values) if math.isnan(v)]
        if absent:
            _warn(
                "no admissible scale pair at theta = "
                + ", ".join(f"{t:g}" for t in absent)
                + "; raw value reported absent"
            )
        payload["rhoHat"] = est.estimate_rho(spec, ambient_dim=ps.dim)
        payload.update(spec.to_json())
        if args.plot:
            with open(args.plot, "w") as fh:
                fh.write(spec.to_csv())
    else:
        if args.mode == "box":
            e = est.estimate_box_dim(idx, window=window)
        else:
            e = est.estimate_assouad(idx, window=window, center_budget=centers)
        payload.update(
            value=e.value,
            method=e.method,
            window={"rMin": e.window.r_min, "rMax": e.window.r_max},
            diagnostics=e.slope_diagnostics,
        )

    payload["elapsedSeconds"] = round(time.perf_counter() - started, 3)
    _emit(args, payload)
    return EXIT_OK


# ---- map ---------------------------------------------------------------


def cmd_map(args) -> int:
    f = qc.parse_map_spec(args.spec)
    ps = load_points(args.input, resolution=args.res)
    save_points(qc.apply_map(f, ps), args.out)
    return EXIT_OK


# ---- bounds ------------------------------------------------------------


_SOURCES = ("d", "source_value", "source_a", "source_csv")


def _oracle_source(args) -> bnd.SpectrumFn:
    if args.source_a is not None:
        a = args.source_a
        return lambda th: fam.oracle_spiral_spectrum(a, th)
    if args.source_csv is not None:
        rows = _read_csv_table(args.source_csv)[3]  # under from_csv's rules
        if rows.shape[1] < 2:
            raise InvalidParameterError(f"{args.source_csv}: expected theta,value rows")
        return bnd.spectrum_interpolator(rows[:, 0], rows[:, 1])
    raise InvalidParameterError("this formula needs --source-a or --source-csv")


def cmd_bounds(args) -> int:
    lam = args.lam if args.lam is not None else 1.0
    if args.formula == "rh-exponent" and args.p is None and args.n >= 3:
        # this formula is how one finds an exponent, so don't demand one
        args.p = bnd.rh_exponent_floor(args.n, args.K, lam)
    ctx = bnd.ExponentContext(n=args.n, K=args.K, p=args.p, lam=lam, inner_p=args.inner_p)
    _check_reads(args, args.formula)
    sources = [_flag(name) for name in _SOURCES if getattr(args, name) is not None]
    if len(sources) > 1:
        raise InvalidParameterError(
            f"the {args.formula} formula reads one source, got {' and '.join(sources)}")
    assumptions = []
    if ctx.K == 1.0:
        assumptions.append("conformal case: p = +inf, all coefficients collapse to 1")
    elif args.p is None and ctx.n == 2:
        assumptions.append(f"planar sharp exponent p = 2K/(K-1) = {ctx.p:.6g}")

    inputs = {
        "n": ctx.n,
        "K": ctx.K,
        "p": ctx.p,
        "lambda": ctx.lam,
        "formula": args.formula,
    }
    for need in _READS["bounds"][args.formula][:1]:  # the flag it needs, if any
        if getattr(args, need) is None:
            raise InvalidParameterError(f"--{need} is required")
        inputs[need] = getattr(args, need)
    values: dict = {}

    if args.formula == "beta-upper":
        values["value"] = bnd.beta_upper(args.alpha, ctx)
    elif args.formula == "symmetric-coeff":
        values["value"] = bnd.symmetric_coeff(ctx)
    elif args.formula == "rh-exponent":
        if ctx.n == 2:
            values["planar"] = bnd.planar_rh_exponent(ctx.K)
        values["floor"] = bnd.rh_exponent_floor(ctx.n, ctx.K, ctx.lam)
        assumptions.append("floor = n*lambda*K/(lambda*K - 1), a lower bound in every dimension")
    elif args.formula == "assouad":
        lower, upper = bnd.assouad_bounds(args.alpha, ctx)
        values["lower"], values["upper"] = lower, upper
        if args.lam is not None:
            ll, lu = bnd.assouad_bounds_lambda(args.alpha, ctx)
            values["lambdaLower"], values["lambdaUpper"] = ll, lu
            assumptions.append("lambda form uses coefficients 1/(lambda*K) and lambda*K")
        assumptions.append(_inner_note(ctx))
    elif args.formula == "spectrum":
        src = _oracle_source(args)
        lower, upper = bnd.spectrum_bounds(args.t, ctx, src)
        values.update(
            lower=lower,
            upper=upper,
            thetaImage=bnd.theta_of_t(args.t),
            thetaContract=bnd.theta_of_t(args.t / ctx.K),
            thetaExpand=bnd.theta_of_t(ctx.K * args.t),
        )
        assumptions.append(_inner_note(ctx))
    elif args.formula == "biholder":
        if args.source_value is not None:
            src_val = args.source_value
        else:
            src_val = _oracle_source(args)(args.theta / ctx.K**2)
        inputs["sourceValue"] = src_val
        values["value"] = bnd.biholder_upper(args.theta, ctx.K, src_val)
        assumptions.append("value clamped at ambient dimension 2")
    elif args.formula == "ours":
        d = args.d if args.d is not None else _oracle_source(args)(bnd.theta_of_t(args.t / ctx.K))
        inputs["d"] = d
        values["value"] = bnd.ours_upper(args.t, ctx.K, d)
    else:  # compare
        cmp = bnd.compare_bounds(args.t, ctx.K, _oracle_source(args))
        values.update(
            theta=cmp.theta,
            ours=cmp.ours,
            biholder=cmp.biholder,
            hypothesesHold=cmp.hypotheses_hold,
            hypothesisFailures=list(cmp.hypothesis_failures),
            oursLeqBiholder=cmp.ours_leq_biholder,
        )

    payload = {
        "inputs": {k: _num(v) for k, v in inputs.items()},
        "values": {k: _num(v) for k, v in values.items()},
        "assumptions": [a for a in assumptions if a],
    }
    _emit(args, payload)
    return EXIT_OK


def _inner_note(ctx: bnd.ExponentContext) -> str:
    if ctx.K == 1.0:
        return ""
    how = "K^(n-1) surrogate" if ctx.inner_p is None else "user-supplied"
    return f"inner exponent p' = {ctx.inner_exponent():.6g} ({how})"


# ---- classify ----------------------------------------------------------


def cmd_classify(args) -> int:
    _check_reads(args, "json" if args.json else "text")
    c = bnd.classify_spirals(args.a, args.b)
    if args.json:
        _emit(args, {
            "a": c.a,
            "b": c.b,
            "dilatation": c.dilatation,
            "witness": c.witness_spec(),
            "inverted": c.inverted,
        })
    else:
        line = f"{c.dilatation}, witness {c.witness_spec()}"
        if c.inverted:
            line += " (via inverse-map symmetry)"
        print(line)
    return EXIT_OK


# ---- verify ------------------------------------------------------------


def _parse_set(text: str) -> float:
    """The exponent a of the scenario selector "spiral:a=<number>", its one piece."""
    head, _, rest = text.partition(":")
    if head != "spiral":
        raise InvalidParameterError(
            f"unsupported scenario family {head!r}; verification covers planar spirals"
        )
    a = None
    for piece in filter(None, rest.split(",")):
        key, _, val = piece.partition("=")
        try:
            if key.strip() != "a" or a is not None:
                raise ValueError
            a = float(val)
        except ValueError:
            raise InvalidParameterError(
                f"scenario piece {piece!r} is not a=<number>, the spiral's one parameter"
            ) from None
    if a is None:
        raise InvalidParameterError("spiral scenario needs a=<exponent>")
    return a


def _net_radial_power(f: qc.PlanarMap) -> Optional[float]:
    """Product of powers when the map is a pure radial-power chain, else None."""
    power = 1.0
    for op in f.ops:
        if isinstance(op, qc.RadialPower):
            power *= op.power
        else:
            return None
    return power


def _sample_spiral(a: float, x_max: float, res: float):
    """A spiral sample drawn without its curve parameters, which verify never
    reads: no process, forked copy or map's image ever holds them."""
    return fam.sample_family(
        fam.FamilySpec(kind="poly_spiral", a=a, x_max=x_max, target_resolution=res),
        _params=False)


def _estimate_curve(ps, grid, centers):
    """The spectrum estimate of ``ps`` and the seconds it took."""
    t0 = time.perf_counter()
    idx = build_index(ps, deepest_level(ps))
    spec = est.estimate_spectrum(idx, theta_grid=grid, center_budget=centers)
    return spec, time.perf_counter() - t0


def cmd_verify(args) -> int:
    for flag, value in (("--eps", args.eps), ("--oracle-eps", args.oracle_eps)):
        if not 0.0 <= value < math.inf:
            raise InvalidParameterError(f"{flag} must be finite and >= 0, got {value}")
    for flag, value in (("--res", args.res), ("--image-res", args.image_res),
                        ("--claim-image-a", args.claim_image_a)):
        if value is not None and not 0.0 < value < math.inf:
            raise InvalidParameterError(f"{flag} must be finite and > 0, got {value}")
    a_src = _parse_set(args.set)
    f = qc.parse_map_spec(args.map) if args.map else qc.identity_map()
    net = _net_radial_power(f)
    _check_reads(args, "identity" if net == 1.0 else "pushforward" if net is None else "radial")
    ctx = bnd.ExponentContext(n=2, K=f.dilatation_bound)  # an overflowing chain stops here
    extra = (bnd.theta_of_t(args.t),) if args.t is not None else ()
    grid = _theta_grid(args, extra=extra)
    stages = ("sampleSource", "estimateSource", "sampleImage", "estimateImage", "bounds")
    timings = dict.fromkeys(stages, 0.0)

    clock = time.perf_counter
    t0 = clock()
    src_ps = _sample_spiral(a_src, args.xmax, args.res)
    timings["sampleSource"] = clock() - t0

    a_img = None
    img_res_used = args.res
    if net == 1.0:
        a_img = a_src
        src_est, timings["estimateSource"] = _estimate_curve(src_ps, grid, args.centers)
        img_est = src_est
    else:
        # The two estimates share no state: a child process makes the
        # source's while this one makes and estimates the image.
        with forked(lambda: _estimate_curve(src_ps, grid, args.centers), "estimate") as source:
            t0 = clock()
            if net is not None:
                # A radial power sends the spiral with exponent a onto the one with
                # exponent a*power, so estimate the image on its own honest sample
                # instead of pushing worst-case Lipschitz factors through the index.
                del src_ps  # one full-size sample alive at a time
                a_img = a_src * net
                res_img = args.image_res if args.image_res is not None else args.res
                tail_floor = args.xmax ** (-a_img) / fam.TAIL_SLACK
                if res_img < tail_floor:
                    res_img = tail_floor * (1.0 + 1e-9)
                    _warn(f"image resolution raised to {res_img:.3g} "
                          "to keep the truncation tail honest")
                img_res_used = res_img
                img_ps = _sample_spiral(a_img, args.xmax, res_img)
            else:
                img_ps = qc.apply_map(f, src_ps)
                del src_ps
            timings["sampleImage"] = clock() - t0
            img_est, timings["estimateImage"] = _estimate_curve(img_ps, grid, args.centers)
            src_est, timings["estimateSource"] = source()

    t0 = clock()
    src_fn = bnd.spectrum_interpolator(src_est.theta_grid, src_est.regularized_values)
    img_fn = bnd.spectrum_interpolator(img_est.theta_grid, img_est.regularized_values)
    report = bnd.spectrum_bound_report(grid, ctx, src_fn, img_fn, slack=args.eps)
    timings["bounds"] = clock() - t0

    claimed_a = args.claim_image_a if args.claim_image_a is not None else a_img
    oracle_curves = {
        "source": [fam.oracle_spiral_spectrum(a_src, th) for th in grid],
    }
    oracle_verdicts = ()
    if claimed_a is not None:
        oracle_curves["image"] = [fam.oracle_spiral_spectrum(claimed_a, th) for th in grid]
        oracle_curves["imageExponent"] = claimed_a
        oracle_curves["imageClaimed"] = args.claim_image_a is not None
        # Only theta with a real (non-floor) estimate can contradict an
        # oracle; where the raw statistic is absent the regularized value
        # is a box-dimension floor, not a point estimate.
        absent = {th for th, v in zip(img_est.theta_grid, img_est.values) if math.isnan(v)}

        def image_at(th: float) -> float:
            if th in absent:
                raise SpectrumUndefinedError("raw estimate absent")
            return img_fn(th)

        oracle_verdicts = bnd.check_curve(
            grid, lambda th: (fam.oracle_spiral_spectrum(claimed_a, th),) * 2,
            image_at, args.oracle_eps)

    scenario = {
        "family": "spiral",
        "a": a_src,
        "map": args.map or "identity",
        "dilatation": ctx.K,
        "imageExponent": a_img,
        "t": args.t,
        "xmax": args.xmax,
        "res": args.res,
        "imageRes": img_res_used,
        "centers": args.centers,
        "thetaGrid": list(grid),
        "claimImageA": args.claim_image_a,
    }
    all_passed = bnd.all_passed(report.verdicts + oracle_verdicts)
    _emit(args, {
        "scenario": scenario,
        "eps": args.eps,
        "oracleEps": args.oracle_eps,
        "sourceSpectrum": src_est.to_json(),
        "imageSpectrum": img_est.to_json(),
        "oracleCurves": oracle_curves,
        "bounds": report.to_json(),
        "oracleVerdicts": [v.to_json() for v in oracle_verdicts],
        "allPassed": all_passed,
        "timings": {k: round(v, 3) for k, v in timings.items()},
    })
    return EXIT_OK if all_passed else EXIT_VERIFY


# ---- parser ------------------------------------------------------------


def _add_grid_flags(p) -> None:
    p.add_argument("--theta", type=float, action="append",
                   help="explicit grid value; repeatable, replaces the range flags")
    p.add_argument("--theta-min", type=float, default=None)
    p.add_argument("--theta-max", type=float, default=None)
    p.add_argument("--theta-step", type=float, default=None)


def _add_window_flags(p) -> None:
    p.add_argument("--rmin", type=float, default=None, help="smallest ball radius")
    p.add_argument("--rmax", type=float, default=None, help="largest ball radius")


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``parser_class`` its subparsers, whose usage
    errors are one-line ``InvalidParameterError``s instead of a usage block
    and ``SystemExit``; ``--help`` still exits 0."""

    def error(self, message):
        raise InvalidParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="assouad-lab",
        description="box-counting and Assouad spectrum estimation with "
        "quasiconformal distortion checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a point family to CSV/JSON")
    g.add_argument("--family", required=True, choices=list(_READS["gen"]))
    g.add_argument("--a", type=float, help="polynomial spiral exponent")
    g.add_argument("--c", type=float, help="logarithmic spiral rate")
    g.add_argument("--ratio", type=float, help="Cantor contraction ratio")
    g.add_argument("--p", type=float, help="sequence decay exponent")
    g.add_argument("--xmax", type=float)
    g.add_argument("--depth", type=int)
    g.add_argument("--mmax", type=int)
    g.add_argument("--res", type=float, help="target resolution")
    g.add_argument("-o", "--out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("index-stats", help="per-level occupancy of the dyadic index")
    s.add_argument("input")
    s.add_argument("--res", type=float, default=None, help="resolution, overriding the file's")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_index_stats)

    e = sub.add_parser("estimate", help="estimate a dimension or the spectrum")
    e.add_argument("input")
    e.add_argument("--mode", choices=list(_READS["estimate"]), default="box")
    e.add_argument("--res", type=float, default=None, help="resolution, overriding the file's")
    e.add_argument("--centers", type=_center_budget, default=None)
    _add_grid_flags(e)
    _add_window_flags(e)
    e.add_argument("--out", default=None)
    e.add_argument("--plot", default=None, help="write the regularized curve as CSV")
    e.set_defaults(func=cmd_estimate)

    m = sub.add_parser("map", help="apply a planar map to a point set")
    m.add_argument("input")
    m.add_argument("--spec", required=True, help='e.g. "radial:K=2" or "radial:K=2|similarity:s=2,t=1"')
    m.add_argument("--res", type=float, default=None, help="resolution, overriding the file's")
    m.add_argument("-o", "--out", default=None)
    m.set_defaults(func=cmd_map)

    b = sub.add_parser("bounds", help="evaluate a closed-form distortion bound")
    b.add_argument("--formula", required=True, choices=list(_READS["bounds"]))
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--K", type=float, default=1.0)
    b.add_argument("--p", type=float, default=None, help='Sobolev exponent, a float or "inf"')
    b.add_argument("--lambda", dest="lam", type=float, default=None)
    b.add_argument("--inner-p", type=float, default=None)
    b.add_argument("--alpha", type=float, default=None)
    b.add_argument("--t", type=float, default=None)
    b.add_argument("--theta", type=float, default=None)
    b.add_argument("--d", type=float, default=None)
    b.add_argument("--source-value", type=float, default=None)
    b.add_argument("--source-a", type=float, default=None, help="spiral exponent for the oracle curve")
    b.add_argument("--source-csv", default=None, help="two-column theta,value curve")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bounds)

    v = sub.add_parser("verify", help="end-to-end distortion check on a sampled scenario")
    v.add_argument("--set", required=True, help='scenario, e.g. "spiral:a=1"')
    v.add_argument("--map", default=None, help="map mini-language spec; identity when omitted")
    v.add_argument("--t", type=float, default=None, help="extra grid point theta(t)")
    v.add_argument("--eps", type=float, default=0.2, help="slack for estimate-vs-bound verdicts")
    v.add_argument("--oracle-eps", type=float, default=0.15, help="slack for estimate-vs-oracle verdicts")
    v.add_argument("--xmax", type=float, default=1e4)
    v.add_argument("--res", type=float, default=1e-5)
    v.add_argument("--image-res", type=float, default=None)
    v.add_argument("--centers", type=_center_budget, default=est.DEFAULT_CENTER_BUDGET)
    v.add_argument("--claim-image-a", type=float, default=None,
                   help="assert the image spectrum equals this spiral oracle")
    _add_grid_flags(v)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="minimal dilatation between two spirals")
    c.add_argument("--a", type=float, required=True)
    c.add_argument("--b", type=float, required=True)
    c.add_argument("--json", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # every usage error, from argparse or an option type, is raised here
        args = parser.parse_args(argv)
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (AssouadLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
