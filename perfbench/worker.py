"""One benchmark workload in a fresh process; prints one JSON line.

Started by ``run.py`` with a pinned environment; not meant to be run by
hand.  With ``--setup-only`` it imports the package and reports the set-up
time; without it, it imports the package and measures the timed calls.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Report fields that legitimately change from run to run.
VOLATILE_KEYS = ("timings", "elapsedSeconds")


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import assouad_lab
    import assouad_lab.cli as cli

    if Path(assouad_lab.__file__).resolve().parent != src / "assouad_lab":
        raise ImportError(f"assouad_lab imported from {assouad_lab.__file__}, not {src}")
    return cli, numpy.__version__


def report_digest(report: dict) -> str:
    stable = {k: v for k, v in report.items() if k not in VOLATILE_KEYS}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def run_call(cli_main, call, tracer=None):
    """Run one CLI call; return (wall seconds, exit code or error text)."""
    for path in (call.report, *call.files):
        if path and os.path.exists(path):
            os.unlink(path)
    span = tracer.open("cli.main") if tracer else None
    t0 = time.perf_counter()
    try:
        rc = cli_main(call.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed call, not a crashed benchmark
        rc = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    if span:
        tracer.close(span)
    return wall, rc


def evaluate(workload, calls, outcomes, first_digests):
    """Check one pass; return (problems per label, accuracy, digests)."""
    problems = {c.label: [] for c in calls}
    reports, digests = {}, {}
    for call, (_, rc) in zip(calls, outcomes):
        if rc != 0:
            problems[call.label].append(f"exit code {rc!r}, expected 0")
            continue
        h = hashlib.sha256()
        try:
            if call.report:
                with open(call.report) as fh:
                    reports[call.label] = json.load(fh)
                h.update(report_digest(reports[call.label]).encode())
            for path in call.files:
                with open(path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
        except (OSError, ValueError) as exc:
            problems[call.label].append(f"unreadable output: {exc}")
            reports.pop(call.label, None)
            continue
        digests[call.label] = h.hexdigest()
        expected = first_digests.get(call.label)
        if expected is not None and expected != digests[call.label]:
            problems[call.label].append("output differs from the first pass of this run")
    acc = None
    if all(c.label in reports for c in calls if c.report):
        try:
            checked, acc = workload.check(reports)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            checked = {calls[-1].label: [f"report check crashed: {exc!r}"]}
        for label, found in checked.items():
            problems[label].extend(found)
    return problems, acc, digests


def measure(cli_main, workload, ctx, seconds: float, trace: bool, spin=speed.spin) -> dict:
    """Repeat the workload's calls for about ``seconds``.

    Each call runs under a ``speed.SpeedProbe``, so its wall time is also
    reported at nominal machine speed.  Pass 0 is a warm-up: it is checked,
    but its times are left out of ``walls``.
    """
    calls = workload.calls(ctx)
    walls = {"untraced": [], "traced": []}  # normalized seconds per pass
    raw_walls = {"untraced": [], "traced": []}
    call_walls = {c.label: [] for c in calls}
    layer_samples, missing, spans = [], [], None
    attempted = failed = 0
    failures, first_digests, accuracy = [], {}, None
    started = time.perf_counter()
    spins = []  # median spin part times of each call
    passes = 0
    while True:
        # warm-up, traced, traced, untraced, untraced, traced, ...
        traced = trace and passes % 4 in (1, 2)
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install(tracing.TARGETS)
        outcomes, norm = [], 0.0
        try:
            for c in calls:
                with speed.SpeedProbe(spin) as probe:
                    wall, rc = run_call(cli_main, c, tracer)
                norm += probe.normalized(wall, workload.probe)
                spins.append(probe.medians())
                outcomes.append((wall, rc))
        finally:
            if tracer:
                tracer.uninstall()
        passes += 1
        if passes == 1:
            # one pass is one CLI session; later passes would only add heap growth
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            side = "traced" if traced else "untraced"
            walls[side].append(norm)
            raw_walls[side].append(sum(w for w, _ in outcomes))
        for c, (w, _) in zip(calls, outcomes):
            call_walls[c.label].append(w)
        if tracer:
            layer_samples.append(tracing.layer_values(tracer.spans))
            missing = tracer.missing
            spans = spans or tracing.span_summary(tracer.spans)
        problems, acc, digests = evaluate(workload, calls, outcomes, first_digests)
        if passes == 1:
            first_digests = digests
        accuracy = accuracy or acc
        attempted += len(calls)
        for label, found in problems.items():
            if found:
                failed += 1
                failures.append({"pass": passes, "call": label, "problems": found})
        elapsed = time.perf_counter() - started
        if passes >= (4 if trace else 2) and elapsed * (passes + 1) / passes > seconds:
            break
    out = {
        "walls": walls,
        "raw_walls": raw_walls,
        "call_walls": call_walls,
        "spins": spins,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digests": first_digests,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "accuracy": None if accuracy is None else {
            "oracle_err_max": accuracy.oracle_err_max,
            "rho_err": accuracy.rho_err,
            "thetas_feasible": accuracy.thetas_feasible,
            "readings": accuracy.readings,
        },
    }
    if trace:
        layers = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        layers["trace.overhead_s"] = (statistics.median(walls["traced"])
                                      - statistics.median(walls["untraced"]))
        out.update(layers=layers, layer_samples=len(layer_samples), missing_patches=missing,
                   spans=spans)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, numpy_version = import_package()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup = time.perf_counter() - _STARTED
        # import is interpreter work, so the Python spin part tracks it
        spin = statistics.median(speed.spin()[0] for _ in range(21))
        result = {"setup_s": speed.normalized(setup, spin, "python"), "raw_setup_s": setup,
                  "spin_s": spin}
    else:
        ctx = workload.context(args.seed)
        result = {"ctx": ctx, "numpy": numpy_version,
                  **measure(cli.main, workload, ctx, args.seconds, bool(args.trace))}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
