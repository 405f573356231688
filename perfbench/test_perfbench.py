"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench``."""

import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

import run
import speed
import tracing
import worker
from workloads import Accuracy, Call, Workload, rho_hat

HERE = Path(__file__).resolve().parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > a [1, 4] > leaf [2, 3]; outer > b [5, 6]
    t = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    outer = t.open("outer")
    a = t.open("a")
    leaf = t.open("leaf")
    t.close(leaf)
    t.close(a)
    b = t.open("b")
    t.close(b)
    t.close(outer)
    selfs = tracing.self_times(t.spans)
    assert selfs[outer.sid] == 6  # 10 - 3 - 1
    assert selfs[a.sid] == 2
    assert selfs[leaf.sid] == 1
    assert selfs[b.sid] == 1
    assert [s.parent for s in t.spans] == [None, outer.sid, a.sid, outer.sid]


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span(0, None, "p", 0.0, 10.0),
             tracing.Span(1, 0, "c", 2.0, 6.0),
             tracing.Span(2, 0, "c", 4.0, 12.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_layer_values_split_centers_and_fit():
    spans = [tracing.Span(0, None, "cli.main", 0.0, 10.0),
             tracing.Span(1, 0, "estimators.sweep", 1.0, 9.0, {"sweeps": 1}),
             tracing.Span(2, 1, "estimators.centers", 1.0, 5.0),
             tracing.Span(3, 2, "estimators.fps", 2.0, 4.5, {"dist_evals": 100}),
             tracing.Span(4, 1, "estimators.count", 5.0, 6.0, {"calls": 1, "cell_tests": 7}),
             tracing.Span(5, 1, "estimators.count", 6.0, 6.5, {"calls": 1, "cell_tests": 3})]
    v = tracing.layer_values(spans)
    assert v["cli.self_s"] == pytest.approx(2.0)
    assert v["estimators.centers_s"] == pytest.approx(4.0)
    assert v["estimators.fps_s"] == pytest.approx(2.5)
    assert v["estimators.hotspots_s"] == pytest.approx(1.5)
    assert v["estimators.count_s"] == pytest.approx(1.5)
    assert v["estimators.count_calls"] == 2
    assert v["estimators.count_cell_tests"] == 10
    assert v["estimators.fit_s"] == pytest.approx(8.0 - 4.0 - 1.5)
    assert set(v) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)


def test_install_patches_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.work = lambda n: list(range(n))
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    original = mod.work
    t = tracing.Tracer()
    t.install([("fake_layer", "work", "fake.work", tracing.points_counters),
               ("fake_layer", "gone", "fake.gone", None)])
    assert mod.work(3) == [0, 1, 2]
    t.uninstall()
    assert mod.work is original
    assert [(s.name, s.counters) for s in t.spans] == [("fake.work", {"points": 3})]
    assert t.missing == ["fake_layer.gone"]


def test_metric_names_follow_the_grammar():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME_RE.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(UNIT_RE.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in bench[key])
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [(m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.LAYER_METRICS.values())
    for bad in ("wall s", "_wall", "wall/s", "é", "x" * 65, ""):
        assert not NAME_RE.match(bad)


class _OneReport(Workload):
    name = "fake"

    def calls(self, ctx):
        return [Call("estimate", ["estimate"], report="r.json")]

    def check(self, reports):
        return {"estimate": []}, Accuracy(oracle_err_max=abs(reports["estimate"]["value"] - 1))


def _evaluate(tmp_path, monkeypatch, text, first=None, rc=0):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.json").write_text(text)
    wl = _OneReport()
    calls = wl.calls({})
    return worker.evaluate(wl, calls, [(0.1, rc)], first or {})


def test_good_report_passes_and_ignores_timings(tmp_path, monkeypatch):
    problems, acc, digests = _evaluate(tmp_path, monkeypatch,
                                       '{"value": 1.25, "elapsedSeconds": 3.0}')
    assert problems == {"estimate": []}
    assert acc.oracle_err_max == pytest.approx(0.25)
    again, _, _ = _evaluate(tmp_path, monkeypatch, '{"value": 1.25, "elapsedSeconds": 9.0}',
                            first=digests)
    assert again == {"estimate": []}


def test_corrupted_report_is_a_failure(tmp_path, monkeypatch):
    problems, acc, _ = _evaluate(tmp_path, monkeypatch, '{"value": 1.2')
    assert problems["estimate"] and acc is None


def test_report_missing_a_field_is_a_failure(tmp_path, monkeypatch):
    problems, acc, _ = _evaluate(tmp_path, monkeypatch, '{"other": 1}')
    assert problems["estimate"] and acc is None


def test_non_deterministic_report_is_a_failure(tmp_path, monkeypatch):
    _, _, first = _evaluate(tmp_path, monkeypatch, '{"value": 1.25}')
    problems, _, _ = _evaluate(tmp_path, monkeypatch, '{"value": 1.26}', first=first)
    assert problems["estimate"] == ["output differs from the first pass of this run"]


def test_unexpected_exit_code_is_a_failure(tmp_path, monkeypatch):
    problems, _, _ = _evaluate(tmp_path, monkeypatch, '{"value": 1.0}', rc=3)
    assert problems["estimate"] == ["exit code 3, expected 0"]


def test_rho_hat_and_absent_thetas():
    spec = {"theta": [0.1, 0.2, 0.3], "value": [None, 1.5, 1.9],
            "regularized": [1.0, 1.5, 1.9]}
    acc = Accuracy()
    acc.spectrum("s", spec, lambda th: 2.0, 0.25)
    assert acc.thetas_feasible == 2
    assert acc.oracle_err_max == pytest.approx(0.5)  # absent theta 0.1 is skipped
    assert rho_hat(spec["theta"], spec["regularized"]) == 0.3
    assert acc.rho_err == pytest.approx(0.05)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    p, value = run.tail_percentile(list(range(1, 101)))
    assert p == 90 and sum(x > value for x in range(1, 101)) >= 10


def test_measure_counts_every_differing_pass_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = []

    def drifting_cli(argv):
        runs.append(argv)
        (tmp_path / "r.json").write_text(json.dumps({"value": 1.0 + len(runs)}))
        time.sleep(0.01)
        return 0

    out = worker.measure(drifting_cli, _OneReport(), {}, seconds=0.1, trace=False,
                         spin=lambda: (0.0001, 0.0001))
    assert out["attempted"] == len(runs) >= 2
    assert out["failed"] == out["attempted"] - 1  # every pass after the first differs
    assert out["accuracy"]["oracle_err_max"] == pytest.approx(1.0)


def test_normalized_scales_by_the_spin_time():
    nominal = speed.NOMINAL_S["numpy"]
    assert speed.normalized(3.0, nominal, "numpy") == pytest.approx(3.0)
    # a machine running at half speed doubles both the call and the spin
    assert speed.normalized(6.0, 2 * nominal, "numpy") == pytest.approx(3.0)


def test_probe_samples_during_the_block_and_subtracts_its_spins():
    with speed.SpeedProbe(lambda: (0.002, 0.001), interval=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass  # pure-Python work, so the handler gets to run
        wall = time.perf_counter() - t0
    assert len(probe.samples) >= 5  # one before, one after, the rest inside
    assert probe.in_block_s == pytest.approx(0.003 * (len(probe.samples) - 2))
    assert probe.normalized(wall, "python") == pytest.approx(
        (wall - probe.in_block_s) * speed.NOMINAL_S["python"] / 0.002)


def test_measure_skips_the_warm_up_pass_and_normalizes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def cli(argv):
        (tmp_path / "r.json").write_text('{"value": 1.0}')
        time.sleep(0.02)  # shorter than the probe's interval: sampled only around the call
        return 0

    nominal = speed.NOMINAL_S[_OneReport.probe]
    out = worker.measure(cli, _OneReport(), {}, seconds=0.05, trace=False,
                         spin=lambda: (2 * nominal, 2 * nominal))
    passes = out["attempted"]
    assert passes >= 2 and out["failed"] == 0
    assert len(out["walls"]["untraced"]) == len(out["raw_walls"]["untraced"]) == passes - 1
    assert out["spins"] == [{"python": 2 * nominal, "numpy": 2 * nominal}] * passes
    assert out["walls"]["untraced"] == pytest.approx([w / 2 for w in out["raw_walls"]["untraced"]])
