"""Acceptance gate: one test per shipped claim, each printing a PASS line.

Everything here runs on the public API or the CLI entry point, with the
tolerances stated next to each assertion.  The randomized battery in
criterion 8 uses a fixed seed, so the whole module is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import center_aligned_count, make_random_set
from assouad_lab import bounds as bnd
from assouad_lab.cli import main as cli_main
from assouad_lab.errors import InvalidParameterError
from assouad_lab.estimators import (
    DEFAULT_THETA_GRID,
    estimate_assouad,
    estimate_box_dim,
    estimate_rho,
    estimate_spectrum,
)
from assouad_lab.families import (
    FamilySpec,
    oracle_spiral_box_dim,
    oracle_spiral_rho,
    oracle_spiral_spectrum,
    sample_family,
)
from assouad_lab.index import build_index, local_dyadic_count
from assouad_lab.maps import apply_map, radial_stretch

CANTOR_DIM = math.log(2.0) / math.log(3.0)


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def spiral(a, x_max, res):
    return sample_family(
        FamilySpec(kind="poly_spiral", a=a, x_max=x_max, target_resolution=res)
    )


def test_criterion_01_spiral_box_dimensions(capsys):
    results = []
    for a, target in ((0.5, 4.0 / 3.0), (2.0, 1.0)):
        t0 = time.perf_counter()
        ps = spiral(a, 1e4, 1e-3)
        assert len(ps) <= 2_000_000
        e = estimate_box_dim(build_index(ps))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        assert abs(e.value - target) <= 0.1
        results.append(f"a={a}: {e.value:.4f} vs {target:.4f} ({len(ps)} pts, {elapsed:.1f}s)")
    announce(capsys, "CRITERION 1 PASS (box dim within 0.1): " + "; ".join(results))


def test_criterion_02_spiral_spectrum_curve(capsys):
    t0 = time.perf_counter()
    ps = spiral(1.0, 1e4, 1e-5)
    idx = build_index(ps)
    grid = tuple(round(0.05 * i, 10) for i in range(1, 15))  # 0.05 .. 0.70
    spec = estimate_spectrum(idx, theta_grid=grid)
    rho_hat = estimate_rho(spec)
    elapsed = time.perf_counter() - t0

    sup = max(
        abs(v - oracle_spiral_spectrum(1.0, th))
        for th, v in zip(grid, spec.regularized_values)
    )
    assert elapsed < 60.0
    assert sup <= 0.15
    assert abs(rho_hat - 0.5) <= 0.1
    announce(
        capsys,
        f"CRITERION 2 PASS (sup-norm {sup:.4f} <= 0.15, rhoHat {rho_hat} in "
        f"0.5 +- 0.1, {elapsed:.1f}s)",
    )


def test_criterion_03_cantor_dimensions(capsys, cantor12, cantor12_idx):
    box = estimate_box_dim(cantor12_idx)
    spec = estimate_spectrum(cantor12_idx, theta_grid=DEFAULT_THETA_GRID)
    assouad = estimate_assouad(cantor12_idx)

    box_err = abs(box.value - CANTOR_DIM)
    spec_err = max(abs(v - CANTOR_DIM) for v in spec.regularized_values)
    asd_err = abs(assouad.value - CANTOR_DIM)
    for err in (box_err, spec_err, asd_err):
        assert err <= 0.06
    announce(
        capsys,
        f"CRITERION 3 PASS (Cantor log2/log3: box {box_err:.4f}, spectrum "
        f"{spec_err:.4f}, Assouad {asd_err:.4f}, all <= 0.06)",
    )


def test_criterion_04_radial_transport(capsys):
    worst = 0.0
    for a, K in ((2.0, 2.0), (3.0, 1.5), (1.0, 4.0)):
        ps = spiral(a, 100.0, 1e-3)
        img = apply_map(radial_stretch(K), ps)
        mask = np.isfinite(img.params)
        x = img.params[mask]
        target = np.column_stack(
            [x ** (-a / K) * np.cos(x), x ** (-a / K) * np.sin(x)]
        )
        resid = np.linalg.norm(img.points[mask] - target, axis=1).max()
        assert resid < 1e-10
        assert np.all(img.points[~mask] == 0.0)
        worst = max(worst, resid)
    announce(capsys, f"CRITERION 4 PASS (max transport residual {worst:.2e} < 1e-10)")


def test_criterion_05_classification_threshold(capsys, tmp_path):
    assert bnd.classify_spirals(2.0, 1.0).dilatation == 2.0

    rc = cli_main(["classify", "--a", "2", "--b", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "2.0, witness radial:K=2"

    # at the threshold dilatation the shifted parameters hit both phase
    # transitions exactly
    worst = 0.0
    for a in (1.5, 2.0, 3.0, 5.0, 8.0):
        for b in (0.5, 1.0, 1.25, 2.0):
            if a <= b:
                continue
            K, t = a / b, 1.0 / b
            worst = max(
                worst,
                abs(bnd.theta_of_t(t / K) - a / (1.0 + a)),
                abs(bnd.theta_of_t(t) - b / (1.0 + b)),
            )
    assert worst <= 1e-12
    announce(
        capsys,
        f"CRITERION 5 PASS (classify(2,1)=2.0 exact; tightness residual {worst:.1e} <= 1e-12)",
    )


def test_criterion_06_verify_scenarios(capsys, tmp_path):
    summaries = []
    for K in (1.0, 1.5, 2.0, 4.0):
        report_path = tmp_path / f"verify_K{K}.json"
        rc = cli_main(
            ["verify", "--set", "spiral:a=1", "--map", f"radial:K={K:g}",
             "--out", str(report_path)]
        )
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert rc == 0, f"verify failed for K={K}"
        feasible = [v for v in report["bounds"]["verdicts"] if v["feasible"]]
        assert feasible, f"no feasible grid theta for K={K}"
        assert all(v["passed"] for v in feasible)
        checked = [v for v in report["oracleVerdicts"] if v["passed"] is not None]
        if K in (1.5, 2.0):
            assert checked, f"K={K} should reach at least one oracle-checked theta"
        if K == 1.0:
            # bounds collapse onto the source curve; the estimate is that
            # same curve, so the equality gap is zero up to interpolation
            gap = max(abs(v["estimate"] - v["lower"]) for v in feasible)
            assert gap <= 0.15
            summaries.append(f"K=1 equality gap {gap:.1e}")
        else:
            summaries.append(f"K={K:g}: {len(feasible)} feasible ok")

    # a wrong closed-form claim about the image must be caught
    bad_path = tmp_path / "corrupted.json"
    rc = cli_main(
        ["verify", "--set", "spiral:a=2", "--map", "radial:K=2",
         "--claim-image-a", "2", "--out", str(bad_path)]
    )
    capsys.readouterr()
    assert rc == 4
    bad = json.loads(bad_path.read_text())
    failing = [v["theta"] for v in bad["oracleVerdicts"] if v["passed"] is False]
    assert any(0.5 < th < 2.0 / 3.0 for th in failing)
    summaries.append(f"corrupted claim rejected at theta={failing}")
    announce(capsys, "CRITERION 6 PASS (eps=0.2): " + "; ".join(summaries))


def test_criterion_07_bound_identities(capsys):
    # the two published shapes of the upper bound agree to 1e-12
    worst_identity = 0.0
    for alpha in np.linspace(0.05, 2.0, 10):
        for p in np.linspace(2.1, 50.0, 10):
            ctx = bnd.ExponentContext(n=2, K=2.0, p=float(p))
            beta = bnd.beta_upper(float(alpha), ctx)
            lhs = 1.0 / beta - 0.5
            rhs = (1.0 - 2.0 / p) * (1.0 / alpha - 0.5)
            worst_identity = max(worst_identity, abs(lhs - rhs))
    assert worst_identity <= 1e-12

    ks = np.linspace(1.01, 100.0, 200)
    worst_coeff = max(
        abs(bnd.symmetric_coeff(bnd.ExponentContext(n=2, K=float(K))) - 1.0 / K)
        for K in ks
    )
    assert worst_coeff <= 1e-12

    worst_ours = max(
        abs(bnd.ours_upper(1.0, float(K), 1.0)
            - bnd.beta_upper(1.0, bnd.ExponentContext(n=2, K=float(K))))
        for K in ks
    )
    assert worst_ours <= 1e-12

    # wherever both hypotheses hold, the reciprocal-gap bound wins
    holding = 0
    for K in (1.2, 1.5, 2.0, 3.0):
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            for a in (0.5, 1.0, 2.0):
                cmp = bnd.compare_bounds(t, K, lambda th, a=a: oracle_spiral_spectrum(a, th))
                if cmp.hypotheses_hold:
                    holding += 1
                    assert cmp.ours <= cmp.biholder + 1e-12
    assert holding >= 10
    announce(
        capsys,
        f"CRITERION 7 PASS (identity {worst_identity:.1e}, coeff {worst_coeff:.1e}, "
        f"ours==beta {worst_ours:.1e}, all <= 1e-12; comparison holds at "
        f"{holding} grid points)",
    )


def test_criterion_08_randomized_index_battery(capsys):
    rng = np.random.default_rng(20260814)
    queries = 0
    worst = 0.0
    for i in range(200):
        n = (i % 3) + 1
        ps = make_random_set(rng, i, n)
        idx = build_index(ps)

        for m in range(1, idx.max_level + 1):
            child = idx.cell_addresses(m)
            parents = {tuple(row) for row in idx.cell_addresses(m - 1)}
            assert {tuple(row) for row in child // 2} <= parents
            c0, c1 = idx.occupied_count(m - 1), idx.occupied_count(m)
            assert c0 <= c1 <= (2**n) * c0

        root_r = idx.root_side * np.sqrt(n) / 2.0
        pts = ps.points
        for _ in range(8):
            x = pts[rng.integers(len(pts))]
            radius = root_r * 2.0 ** (-rng.uniform(0.0, 5.0))
            m_hi = int(np.floor(np.log2(2.0 * radius / ps.resolution)))
            if m_hi < 0:
                continue
            m = int(rng.integers(0, min(m_hi, 8) + 1))
            try:
                local = local_dyadic_count(idx, x, radius, m)
            except InvalidParameterError:
                continue
            oracle = center_aligned_count(ps, x, radius, m)
            assert oracle >= 1 and local >= 1
            assert local <= 3**n * oracle, (i, n, local, oracle)
            assert oracle <= 3**n * local, (i, n, local, oracle)
            worst = max(worst, local / oracle, oracle / local)
            queries += 1
    assert queries >= 1500
    announce(
        capsys,
        f"CRITERION 8 PASS (200 sets, {queries} ball queries, zero sandwich "
        f"violations, worst local/center-aligned ratio {worst:.1f} < 3^n)",
    )


def test_criterion_09_oracle_properties(capsys):
    thetas = np.arange(0.01, 1.0, 0.01)
    checked = 0
    for a in (0.25, 0.5, 1.0, 2.0, 5.0):
        box = oracle_spiral_box_dim(a)
        rho = oracle_spiral_rho(a)
        assert box == max(2.0 / (1.0 + a), 1.0)
        assert rho == a / (1.0 + a)

        # the phase transition never undershoots the box-dimension bound,
        # with equality exactly in the winding-dominated regime
        assert rho >= 1.0 - box / 2.0 - 1e-15
        if a <= 1.0:
            assert abs(rho - (1.0 - box / 2.0)) <= 1e-15
        else:
            assert rho > 1.0 - box / 2.0 + 1e-6

        prev = 0.0
        for th in thetas:
            v = oracle_spiral_spectrum(a, float(th))
            closed = (
                min(2.0 / ((1.0 + a) * (1.0 - th)), 2.0)
                if a <= 1.0
                else min(1.0 + th / (a * (1.0 - th)), 2.0)
            )
            assert abs(v - closed) <= 1e-15
            assert v >= prev - 1e-15  # nondecreasing
            assert v <= box / (1.0 - th) + 1e-12  # box-dimension envelope
            if th < rho:
                assert v >= (1.0 - rho) / (1.0 - th) * 2.0 - 1e-12
            if abs(th - rho) > 1e-9:  # saturation flips exactly at rho
                assert (v == 2.0) == (th > rho)
            prev = v
            checked += 1
    announce(
        capsys,
        f"CRITERION 9 PASS ({checked} oracle grid points: closed forms, "
        f"monotonicity, envelope and transition bounds all hold)",
    )
