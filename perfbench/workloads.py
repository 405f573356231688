"""The benchmark workloads: CLI calls, seeded inputs and output checks.

Each workload is a fixed list of ``assouad-lab`` CLI calls made in-process
through ``assouad_lab.cli.main``.  The seed only picks input transforms that
leave every closed-form oracle unchanged (a translation, a rotation by a
multiple of 90 degrees, a power-of-two scale); a workload with no free input
ignores it and says so in ``uses_seed``.

The oracles are written out here rather than imported from the package, so
that a change to the program cannot move the reference it is checked
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Tolerance the acceptance gate already claims (criterion 2).
SOURCE_SUP_TOL = 0.15
SOURCE_SUP_THETA_MAX = 0.70


def spiral_spectrum(a: float, theta: float) -> float:
    """Assouad spectrum of the polynomial spiral x^-a e^(ix), x >= 1."""
    if a <= 1:
        return min(2.0 / ((1.0 + a) * (1.0 - theta)), 2.0)
    return min(1.0 + theta / (a * (1.0 - theta)), 2.0)


def spiral_rho(a: float) -> float:
    return a / (1.0 + a)


def rho_hat(thetas, regularized, epsilon: float = 0.1) -> float:
    """Smallest theta whose regularized value is within epsilon of the last."""
    if not regularized:
        return 1.0
    top = regularized[-1]
    for theta, v in zip(thetas, regularized):
        if v >= top - epsilon:
            return float(theta)
    return 1.0


@dataclass
class Call:
    """One timed CLI call and the files it must write."""

    label: str
    argv: list
    report: str | None = None  # JSON report, parsed and checked
    files: tuple = ()  # other outputs, hashed byte for byte


@dataclass
class Accuracy:
    """Accuracy readings of one pass, folded over the workload's outputs."""

    oracle_err_max: float = 0.0
    rho_err: float = 0.0
    thetas_feasible: int = 0
    readings: dict = field(default_factory=dict)

    def spectrum(self, name: str, spec: dict, oracle, rho: float) -> None:
        """Fold in one spectrum: error over thetas with a raw estimate, rho error."""
        errs = [abs(reg - oracle(th))
                for th, raw, reg in zip(spec["theta"], spec["value"], spec["regularized"])
                if raw is not None]
        err = max(errs, default=0.0)
        rerr = abs(rho_hat(spec["theta"], spec["regularized"]) - rho)
        self.oracle_err_max = max(self.oracle_err_max, err)
        self.rho_err = max(self.rho_err, rerr)
        self.thetas_feasible += len(errs)
        self.readings[name] = {"oracle_err": err, "rho_err": rerr, "feasible": len(errs)}


def _source_sup(spec: dict) -> float:
    """Acceptance criterion 2: sup-norm of the S_1 curve on theta <= 0.70."""
    return max(abs(reg - spiral_spectrum(1.0, th))
               for th, reg in zip(spec["theta"], spec["regularized"])
               if th <= SOURCE_SUP_THETA_MAX + 1e-12)


class Workload:
    name = ""
    why = ""
    uses_seed = False
    probe = "numpy"  # the speed.SpeedProbe part its calls are normalized by

    def context(self, seed: int) -> dict:
        """Input parameters derived from the seed."""
        return {}

    def calls(self, ctx: dict) -> list:
        raise NotImplementedError

    def check(self, reports: dict):
        """Return ({label: [problem, ...]}, Accuracy) for one pass."""
        raise NotImplementedError


class _Verify(Workload):
    a_source = 1.0
    a_image = 0.5  # radial:K=2 sends the spiral with exponent a onto a/2

    def map_spec(self, ctx: dict) -> str:
        raise NotImplementedError

    def calls(self, ctx):
        argv = ["verify", "--set", "spiral:a=1", "--map", self.map_spec(ctx),
                "--out", "verify.json"]
        return [Call("verify", argv, report="verify.json")]

    def check(self, reports):
        rep = reports["verify"]
        acc = Accuracy()
        acc.spectrum("source", rep["sourceSpectrum"],
                     lambda th: spiral_spectrum(self.a_source, th), spiral_rho(self.a_source))
        acc.spectrum("image", rep["imageSpectrum"],
                     lambda th: spiral_spectrum(self.a_image, th), spiral_rho(self.a_image))
        problems = []
        sup = _source_sup(rep["sourceSpectrum"])
        acc.readings["source"]["criterion2_sup"] = sup
        if not sup <= SOURCE_SUP_TOL:
            problems.append(f"source sup-norm {sup:.4f} > {SOURCE_SUP_TOL}")
        if rep.get("allPassed") is not True:
            problems.append("report says allPassed is not true")
        return {"verify": problems}, acc


class VerifyRadial(_Verify):
    name = "verify-radial"
    why = ("paper headline check: S_1 at res 1e-5 (1.93M points) and its S_1/2 image, "
           "no file I/O; center selection and index build dominate; no free input, seed unused")

    def map_spec(self, ctx):
        return "radial:K=2"


class VerifyPushforward(_Verify):
    name = "verify-pushforward"
    why = ("only workload through maps: S_1 pushed through radial:K=2 then a seeded similarity; "
           "duplicate-heavy image (~34 points per cell) for index and centers")
    uses_seed = True

    def context(self, seed):
        rng = random.Random(seed)
        scale = 2.0 ** rng.choice((0, 1, 2))
        quarter = rng.randrange(4)
        tx, ty = rng.randint(-8, 8) / 4.0, rng.randint(-8, 8) / 4.0
        s = [f"{scale:g}", f"{scale:g}i", f"-{scale:g}", f"-{scale:g}i"][quarter]
        t = f"{tx:g}{ty:+g}i"
        return {"similarity": f"similarity:s={s},t={t}"}

    def map_spec(self, ctx):
        return f"radial:K=2|{ctx['similarity']}"


class CsvSpectrum(Workload):
    name = "csv-spectrum"
    probe = "python"  # CSV formatting and parsing are interpreter-bound
    why = ("README example: gen S_1/2 at res 1e-3 to a 25 MB CSV, then estimate the spectrum "
           "from it; CSV write and read dominate; no free input, seed unused")

    def calls(self, ctx):
        gen = ["gen", "--family", "spiral", "--a", "0.5", "--xmax", "1e4", "--res", "1e-3",
               "-o", "spiral.csv"]
        est = ["estimate", "spiral.csv", "--mode", "spectrum", "--plot", "curve.csv",
               "--out", "spectrum.json"]
        return [Call("gen", gen, files=("spiral.csv",)),
                Call("estimate", est, report="spectrum.json", files=("curve.csv",))]

    def check(self, reports):
        rep = reports["estimate"]
        acc = Accuracy()
        acc.spectrum("spectrum", rep, lambda th: spiral_spectrum(0.5, th), spiral_rho(0.5))
        problems = []
        with open("spiral.csv", "rb") as fh:
            rows = sum(1 for line in fh if line[:1] not in (b"#", b"x"))
        if rows != rep["points"]:
            problems.append(f"report has {rep['points']} points, CSV has {rows} rows")
        with open("curve.csv") as fh:
            curve = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
        if curve != rep["regularized"]:
            problems.append("plot CSV differs from the report's regularized curve")
        return {"gen": [], "estimate": problems}, acc


WORKLOADS = {w.name: w for w in (VerifyRadial(), VerifyPushforward(), CsvSpectrum())}
