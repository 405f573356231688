"""Golden CLI outputs: every command's report, byte for byte, timings aside.

Each case runs ``main`` in one working directory, in order, so later cases
read the files earlier ones wrote.  A case pins its exit code, its stderr,
its stdout (a JSON report with the top-level ``timings`` and
``elapsedSeconds`` keys removed, else the text) and the sha256 of every
file it writes.  The pinned record is compared as the text
``json.dumps(record, indent=2)``, so a report matches only if it is the
same text as the golden one once the timing keys are gone.  Reports and
pinned records are parsed as strict JSON: a NaN or Infinity literal fails.

Regenerate the files in ``tests/golden/`` after an intended change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from assouad_lab import forking
from assouad_lab.cli import main
from conftest import strict_json

GOLDEN = Path(__file__).parent / "golden"

_S1 = ["--xmax", "1000", "--res", "1e-3"]
_VERIFY = ["verify", "--set", "spiral:a=1", "--xmax", "1000", "--res", "1e-4"]
_PUSH = "radial:K=2|similarity:s=2i,t=0.25"

# (name, argv, files the command writes)
CASES = [
    ("gen-s1-csv", ["gen", "--family", "spiral", "--a", "1", *_S1, "-o", "s.csv"], ["s.csv"]),
    ("gen-cantor-json", ["gen", "--family", "cantor", "--depth", "10", "-o", "c.json"],
     ["c.json"]),
    ("index-stats", ["index-stats", "s.csv"], []),
    ("estimate-box", ["estimate", "s.csv", "--mode", "box"], []),
    ("estimate-assouad", ["estimate", "s.csv", "--mode", "assouad"], []),
    ("estimate-spectrum", ["estimate", "s.csv", "--mode", "spectrum", "--plot", "curve.csv"],
     ["curve.csv"]),
    ("estimate-assouad-json", ["estimate", "c.json", "--mode", "assouad"], []),
    ("estimate-plot-outside-spectrum",
     ["estimate", "s.csv", "--mode", "assouad", "--plot", "x.csv"], []),
    ("map-pushforward-csv", ["map", "s.csv", "--spec", _PUSH, "-o", "m.csv"], ["m.csv"]),
    ("map-radial-json", ["map", "s.csv", "--spec", "radial:K=2", "-o", "r.json"], ["r.json"]),
    ("verify-radial", [*_VERIFY, "--map", "radial:K=2"], []),
    ("verify-pushforward", [*_VERIFY, "--map", _PUSH], []),
    ("verify-identity", _VERIFY, []),
    ("bounds-beta-upper", ["bounds", "--formula", "beta-upper", "--K", "2", "--alpha", "1"], []),
    ("bounds-beta-upper-p", ["bounds", "--formula", "beta-upper", "--n", "3", "--K", "2",
                             "--p", "4.5", "--alpha", "1"], []),
    ("bounds-beta-upper-p-inf", ["bounds", "--formula", "beta-upper", "--n", "3", "--K", "2",
                                 "--p", "Infinity", "--alpha", "1"], []),
    ("bounds-symmetric-coeff", ["bounds", "--formula", "symmetric-coeff", "--K", "2"], []),
    ("bounds-rh-exponent", ["bounds", "--formula", "rh-exponent", "--K", "2"], []),
    ("bounds-rh-exponent-n3", ["bounds", "--formula", "rh-exponent", "--n", "3", "--K", "2"], []),
    ("bounds-assouad", ["bounds", "--formula", "assouad", "--K", "2", "--alpha", "1"], []),
    ("bounds-assouad-lambda", ["bounds", "--formula", "assouad", "--K", "2", "--alpha", "1",
                               "--lambda", "1.5"], []),
    ("bounds-spectrum", ["bounds", "--formula", "spectrum", "--K", "2", "--t", "1",
                         "--source-a", "1"], []),
    ("bounds-spectrum-source-csv", ["bounds", "--formula", "spectrum", "--K", "1.2", "--t", "2",
                                    "--source-csv", "curve.csv", "--inner-p", "9"], []),
    ("bounds-spectrum-missing-source", ["bounds", "--formula", "spectrum", "--K", "2",
                                        "--t", "1"], []),
    ("bounds-biholder", ["bounds", "--formula", "biholder", "--K", "1.2", "--theta", "0.5",
                         "--source-a", "1"], []),
    ("bounds-ours", ["bounds", "--formula", "ours", "--K", "2", "--t", "1", "--source-a", "1"],
     []),
    ("bounds-compare", ["bounds", "--formula", "compare", "--K", "2", "--t", "1",
                        "--source-a", "1"], []),
    ("bounds-missing-alpha", ["bounds", "--formula", "assouad", "--K", "2"], []),
    ("bounds-missing-t", ["bounds", "--formula", "ours", "--K", "2", "--d", "1"], []),
    ("bounds-missing-theta", ["bounds", "--formula", "biholder", "--K", "2",
                              "--source-value", "1"], []),
    ("classify", ["classify", "--a", "1", "--b", "0.5"], []),
    ("classify-json", ["classify", "--a", "0.5", "--b", "1", "--json"], []),
]


def _record(argv, files) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    stdout = out.getvalue()
    if stdout.startswith("{"):
        stdout = strict_json(stdout)
        stdout.pop("timings", None)
        stdout.pop("elapsedSeconds", None)
    return {
        "argv": list(argv),
        "exit": rc,
        "stdout": stdout,
        "stderr": err.getvalue(),
        "files": {f: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files},
    }


def _run_all(workdir) -> dict:
    old = os.getcwd()
    os.chdir(workdir)
    try:
        return {name: _record(argv, files) for name, argv, files in CASES}
    finally:
        os.chdir(old)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_golden_cli_output(records, name):
    want = strict_json((GOLDEN / f"{name}.json").read_text())
    assert json.dumps(records[name], indent=2) == json.dumps(want, indent=2)


def test_golden_sized_files_are_written_and_read_in_one_process(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.chdir(tmp_path)
    for name, argv, files in CASES:
        if "--map" not in argv:  # verify with a map estimates its source in a child
            want = strict_json((GOLDEN / f"{name}.json").read_text())
            assert json.dumps(_record(argv, files), indent=2) == json.dumps(want, indent=2)


def test_golden_cli_output_on_one_cpu(tmp_path, monkeypatch):
    """All cases with no fork possible; ``test_golden_cli_output`` forks
    where a CPU is free."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not forking.can_overlap()
    got = _run_all(tmp_path)
    for name, _, _ in CASES:
        want = strict_json((GOLDEN / f"{name}.json").read_text())
        assert json.dumps(got[name], indent=2) == json.dumps(want, indent=2), name


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, record in _run_all(tmp).items():
            (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
