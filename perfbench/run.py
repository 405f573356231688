"""Benchmark of the assouad-lab CLI on three fixed workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-radial --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

Each workload runs in fresh worker processes with the BLAS/OpenMP thread
variables set to 1 and ``ASSOUAD_LAB_THREADS`` unset (the one-thread path).
Five workers in turn only import the package, so ``setup_s`` is a median
of five; a last worker measures the timed calls.  Times are normalized by
a machine-speed probe sampled during each call (``speed.py``), so that
the machine's drift in speed cancels; the raw times are in the run record.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the environment, the seed and the per-pass readings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_err_max": "dim",
    "rho_err": "theta",
    "thetas_feasible": "count",
}

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return p, xs[max(0, -(-p * n // 100) - 1)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ASSOUAD_LAB_THREADS"}
    env.update(PINNED_ENV)
    return env


def run_worker(work: Path, workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=work, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker overran the {RUN_BUDGET_S:.0f}s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Return (result line, details) for one workload."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / f"{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = [run_worker(work, workload, seed, seconds, trace, True, deadline)
                  for _ in range(SETUP_RUNS)]
        main = run_worker(work, workload, seed, seconds, trace, False, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    acc = main["accuracy"]
    if acc is None:
        raise BenchError(f"{workload}: no pass produced a checkable report: {main['failures']}")
    walls = main["walls"]["untraced"]
    if trace:
        metrics = {k: {"value": main["layers"][k], "unit": LAYER_METRICS[k][0]}
                   for k in LAYER_METRICS}
    else:
        values = {
            "wall_norm_s": statistics.median(walls),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "oracle_err_max": acc["oracle_err_max"],
            "rho_err": acc["rho_err"],
            "thetas_feasible": acc["thetas_feasible"],
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "uses_seed": WORKLOADS[workload].uses_seed,
        "seed_inputs": main["ctx"],
        "seconds": seconds,
        "trace": trace,
        "samples": {"wall_norm_s": len(walls), "setup_s": len(setups),
                    "layers": main.get("layer_samples", 0)},
        "wall_norm_s_passes": walls,
        "wall_norm_s_traced_passes": main["walls"]["traced"],
        "wall_norm_s_tail": tail_percentile(walls),
        "wall_s": statistics.median(main["raw_walls"]["untraced"]),
        "wall_s_passes": main["raw_walls"]["untraced"],
        "call_walls": main["call_walls"],
        "spin_s": main["spins"],
        "setup_s_runs": [s["setup_s"] for s in setups],
        "raw_setup_s_runs": [s["raw_setup_s"] for s in setups],
        "setup_spin_s": [s["spin_s"] for s in setups],
        "failed_ratio": main["failed"] / main["attempted"],
        "failures": main["failures"],
        "accuracy": acc,
        "digests": main["digests"],
        "missing_patches": main.get("missing_patches", []),
        "spans": main.get("spans"),
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": main["numpy"],
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "pinned": PINNED_ENV,
            "ASSOUAD_LAB_THREADS": "unset",
        },
    }
    return result, details


def print_table(rows) -> None:
    print(f"{'workload':<20} {'metric':<30} {'value':>14} {'unit':<15} samples")
    for workload, name, value, unit, n in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<20} {name:<30} {text:>14} {unit:<15} {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "assouad_lab" / "__init__.py").is_file():
        print(f"error: no assouad_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(details))
            print(json.dumps(result))
            return 0
        rows = []
        for name in WORKLOADS:
            result, details = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(details), file=sys.stderr)
            for metric, m in result["metrics"].items():
                n = details["samples"].get(metric, details["samples"]["layers"]
                                           if args.trace else 1)
                rows.append((name, metric, m["value"], m["unit"], n))
            rows.append((name, "wall_s (raw)", details["wall_s"], "s",
                         len(details["wall_s_passes"])))
            rows.append((name, "failed_ratio", details["failed_ratio"], "ratio",
                         result["attempted"]))
        print_table(rows)
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
