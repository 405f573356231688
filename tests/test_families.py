import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from assouad_lab import families
from assouad_lab.errors import InvalidParameterError
from assouad_lab.families import (
    FamilySpec,
    cantor_intervals,
    oracle_sequence_dims,
    oracle_spiral_box_dim,
    oracle_spiral_rho,
    oracle_spiral_spectrum,
    sample_family,
)

from conftest import one_cpu, two_cpus

THETAS = np.arange(0.01, 1.0, 0.01)
SPIRAL_AS = (0.25, 0.5, 1.0, 2.0, 5.0)


# ---- samplers ----------------------------------------------------------


def test_spiral_first_point_and_origin():
    ps = sample_family(FamilySpec(kind="poly_spiral", a=1.0, x_max=1e3,
                                  target_resolution=1e-3))
    assert np.allclose(ps.points[0], [np.cos(1.0), np.sin(1.0)], atol=1e-15)
    # the accumulation point at the origin is part of the sample
    assert np.any(np.all(ps.points == 0.0, axis=1))
    assert ps.resolution == 1e-3


def test_spiral_gap_contract():
    ps = sample_family(FamilySpec(kind="poly_spiral", a=0.5, x_max=200.0,
                                  target_resolution=1e-2))
    curve = ps.points[np.isfinite(ps.params)]
    gaps = np.linalg.norm(np.diff(curve, axis=0), axis=1)
    assert gaps.max() <= 1e-2 / 2 * (1 + 1e-9)


def test_spiral_params_are_the_curve_parameter():
    ps = sample_family(FamilySpec(kind="poly_spiral", a=2.0, x_max=100.0,
                                  target_resolution=1e-3))
    x = ps.params[np.isfinite(ps.params)]
    pts = ps.points[np.isfinite(ps.params)]
    assert np.allclose(pts[:, 0], x**-2.0 * np.cos(x), atol=1e-14)
    assert x[0] == 1.0 and np.all(np.diff(x) > 0)


def test_spiral_tail_rule():
    with pytest.raises(InvalidParameterError, match="unsampled tail extends to modulus 0.1 > 16"):
        sample_family(FamilySpec(kind="poly_spiral", a=1.0, x_max=10.0,
                                 target_resolution=1e-6))


def test_log_spiral_smoke():
    ps = sample_family(FamilySpec(kind="log_spiral", c=1.0, x_max=20.0,
                                  target_resolution=1e-3))
    r = np.linalg.norm(ps.points, axis=1)
    assert r.max() <= 1.0 + 1e-12
    curve = ps.points[np.isfinite(ps.params)]
    gaps = np.linalg.norm(np.diff(curve, axis=0), axis=1)
    assert gaps.max() <= 1e-3 / 2 * (1 + 1e-9)


# The whole-array spiral sampler the block-wise one replaced, kept as the
# reference it must match bit for bit.


def reference_spiral(kind, k, x_max, res):
    if kind == "poly_spiral":
        def modulus(x):
            return x**-k

        def speed(x):
            return x**-k * np.sqrt(1.0 + (k / x) ** 2)
    else:
        def modulus(x):
            return np.exp(-k * x)

        def speed(x):
            return np.exp(-k * x) * np.sqrt(1.0 + k * k)
    step = 0.49 * res
    n_dense = int(min(2e6, max(8192, 400 * np.log10(max(x_max, 10.0)) ** 2 * 4)))
    x_dense = np.geomspace(1.0, x_max, n_dense)
    v = speed(x_dense)
    s_dense = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(x_dense))])
    n_pts = int(np.floor(s_dense[-1] / step) + 1)
    xs = np.interp(np.arange(n_pts) * step, s_dense, x_dense)
    xs[0] = 1.0
    r = modulus(xs)
    pts = np.column_stack([r * np.cos(xs), r * np.sin(xs)])
    return np.vstack([pts, [0.0, 0.0]]), np.concatenate([xs, [np.inf]])


SPIRALS = [
    ("poly_spiral", 1.0, 100.0, 1e-2),
    ("poly_spiral", 0.5, 200.0, 1e-2),
    ("poly_spiral", 2.0, 100.0, 1e-3),
    ("poly_spiral", 4.0, 1.5, 5e-2),  # a handful of points
    ("log_spiral", 0.5, 40.0, 1e-3),
]


def assert_matches_reference_spiral(kind, k, x_max, res):
    ps = sample_family(FamilySpec(kind=kind, a=k, c=k, x_max=x_max, target_resolution=res))
    pts, params = reference_spiral(kind, k, x_max, res)
    assert ps.points.tobytes() == pts.tobytes()
    assert ps.params.tobytes() == params.tobytes()


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(SPIRALS), block=st.integers(1, 70))
def test_spiral_matches_whole_array_reference(spec, block):
    with mock.patch.object(families, "_BLOCK", block):
        assert_matches_reference_spiral(*spec)


def test_spiral_matches_whole_array_reference_across_real_blocks():
    # S_1 to x = 1000 at res 1e-4 has ~141k points: eight full blocks and a partial one
    assert_matches_reference_spiral("poly_spiral", 1.0, 1e3, 1e-4)


# ---- spiral blocks on two threads ------------------------------------------

def counted_threads(monkeypatch) -> list:
    """The threads started while the test runs."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@two_cpus
@pytest.mark.parametrize("spec", [
    FamilySpec(kind="poly_spiral", a=1.0, x_max=100.0, target_resolution=1e-3),
    FamilySpec(kind="log_spiral", c=0.5, x_max=40.0, target_resolution=1e-3),
], ids=["spiral", "logspiral"])
@pytest.mark.parametrize("blocks", [1, 2, 3, 7])
def test_spiral_on_two_threads_matches_one_cpu(monkeypatch, spec, blocks):
    n = len(sample_family(spec)) - 1  # the curve's points; the origin is last
    started = counted_threads(monkeypatch)
    with mock.patch.object(families, "_BLOCK", -(-n // blocks)):
        assert len(range(0, n, families._BLOCK)) == blocks
        two = sample_family(spec)
        assert len(started) == (blocks > 1)  # the second half of the blocks
        bare = sample_family(spec, _params=False)
        with one_cpu():
            one = sample_family(spec)
    assert len(started) == 2 * (blocks > 1) and threading.active_count() == 1
    assert two.points.tobytes() == one.points.tobytes() == bare.points.tobytes()
    assert two.params.tobytes() == one.params.tobytes() and bare.params is None


def _s1_speed(x):
    return 1.0 / x * np.sqrt(1.0 + 1.0 / x**2)


def _failing_past(x_fail):
    def modulus(x):
        if x[-1] > x_fail:
            raise ValueError(f"block ending at x = {x[-1]!r}")
        return 1.0 / x
    return modulus


def _overflowing_past(x_fail):
    return lambda x: np.exp(np.where(x > x_fail, 1e3, 0.0)) / x


@two_cpus
@pytest.mark.parametrize("modulus", [_failing_past(30.0), _failing_past(2.0),
                                     _overflowing_past(30.0)],
                         ids=["second-half", "both-halves", "errstate"])
def test_spiral_error_on_the_helper_thread_matches_inline(monkeypatch, modulus):
    # S_1 to x = 100 in 10 blocks: the helper's half starts near x = 11.6
    def error():
        with np.errstate(over="raise"), pytest.raises(Exception) as info:
            families._curve_points(100.0, modulus, _s1_speed, 0.49e-3, True)
        return type(info.value), str(info.value)

    started = counted_threads(monkeypatch)
    with mock.patch.object(families, "_BLOCK", 1000):
        threaded = error()
        assert len(started) == 1 and threading.active_count() == 1
        with one_cpu():
            assert error() == threaded
    assert len(started) == 1
    assert threaded[0] in (ValueError, FloatingPointError)


def test_cantor_depth2_endpoints():
    ps = sample_family(FamilySpec(kind="cantor", ratio=1.0 / 3.0, depth=2,
                                  target_resolution=1.0 / 9.0))
    expected = sorted([0, 1 / 9, 2 / 9, 1 / 3, 2 / 3, 7 / 9, 8 / 9, 1])
    assert np.allclose(ps.points.ravel(), expected, atol=1e-15)


def test_cantor_interval_construction():
    ivals = cantor_intervals(1.0 / 3.0, 1)
    assert np.allclose(ivals, [[0.0, 1.0 / 3.0], [2.0 / 3.0, 1.0]])
    assert len(cantor_intervals(0.4, 10)) == 2**10


def test_cantor_too_coarse():
    with pytest.raises(InvalidParameterError, match="depth-2 intervals have width 0.111 > target"):
        sample_family(FamilySpec(kind="cantor", ratio=1.0 / 3.0, depth=2,
                                 target_resolution=1e-3))


def test_sequence_small():
    ps = sample_family(FamilySpec(kind="sequence", p=1.0, m_max=4,
                                  target_resolution=1e-3))
    assert np.allclose(ps.points.ravel(), [0.0, 0.25, 1 / 3, 0.5, 1.0])


@pytest.mark.parametrize("spec", [
    FamilySpec(kind="poly_spiral", a=0.0),
    FamilySpec(kind="poly_spiral", a=-1.0),
    FamilySpec(kind="cantor", ratio=0.6),
    FamilySpec(kind="cantor", ratio=0.0),
    FamilySpec(kind="sequence", p=0.0),
    FamilySpec(kind="nonsense"),
])
def test_invalid_specs(spec):
    with pytest.raises(InvalidParameterError):
        sample_family(spec)


# ---- closed-form oracles ----------------------------------------------


def test_box_dim_values():
    assert oracle_spiral_box_dim(1.0) == 1.0
    assert oracle_spiral_box_dim(0.5) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert oracle_spiral_box_dim(3.0) == 1.0


def test_spectrum_values():
    assert oracle_spiral_spectrum(2.0, 0.5) == pytest.approx(1.5, abs=1e-15)
    assert oracle_spiral_spectrum(0.5, 1.0 / 3.0) == pytest.approx(2.0, abs=1e-12)
    assert oracle_spiral_spectrum(1.0, 1e-9) == pytest.approx(1.0, abs=1e-8)


def test_rho_values():
    assert oracle_spiral_rho(1.0) == 0.5
    assert oracle_spiral_rho(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert oracle_spiral_rho(1e-9) < 1e-8


def test_oracle_input_validation():
    for bad in (0.0, -2.0):
        with pytest.raises(InvalidParameterError):
            oracle_spiral_box_dim(bad)
        with pytest.raises(InvalidParameterError):
            oracle_spiral_spectrum(bad, 0.5)
        with pytest.raises(InvalidParameterError):
            oracle_spiral_rho(bad)
    with pytest.raises(InvalidParameterError):
        oracle_spiral_spectrum(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        oracle_spiral_spectrum(1.0, 1.0)


def test_branch_agreement_at_a1():
    for th in THETAS:
        lo = oracle_spiral_spectrum(1.0 - 1e-12, th)
        hi = oracle_spiral_spectrum(1.0 + 1e-12, th)
        mid = oracle_spiral_spectrum(1.0, th)
        assert mid == pytest.approx(min(1.0 / (1.0 - th), 2.0), abs=1e-12)
        assert lo == pytest.approx(mid, abs=1e-9)
        assert hi == pytest.approx(mid, abs=1e-9)


def test_spectrum_monotone_and_phase_transition():
    for a in SPIRAL_AS:
        rho = oracle_spiral_rho(a)
        vals = [oracle_spiral_spectrum(a, th) for th in THETAS]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
        for th, v in zip(THETAS, vals):
            if th >= rho:
                assert v == pytest.approx(2.0, abs=1e-12)
            else:
                assert v < 2.0


def test_box_envelope_upper_bound():
    # the spectrum never exceeds box/(1 - theta)
    for a in SPIRAL_AS:
        box = oracle_spiral_box_dim(a)
        for th in THETAS:
            assert oracle_spiral_spectrum(a, th) <= box / (1 - th) + 1e-12


def test_rho_inequality_equality_iff_a_small():
    # quasi-Assouad dimension of every polynomial spiral is 2
    for a in SPIRAL_AS:
        rho = oracle_spiral_rho(a)
        floor = 1.0 - oracle_spiral_box_dim(a) / 2.0
        assert rho >= floor - 1e-15
        if a <= 1.0:
            assert rho == pytest.approx(floor, abs=1e-15)
        else:
            assert rho > floor + 1e-6


def test_prespectrum_lower_bound_below_transition():
    for a in SPIRAL_AS:
        rho = oracle_spiral_rho(a)
        for th in THETAS:
            if th < rho:
                bound = (1 - rho) / (1 - th) * 2.0
                assert oracle_spiral_spectrum(a, th) >= bound - 1e-12


def test_sequence_dims():
    assert oracle_sequence_dims(1.0) == (0.0, 0.5, 1.0)
    assert oracle_sequence_dims(3.0) == (0.0, 0.25, 1.0)
    with pytest.raises(InvalidParameterError):
        oracle_sequence_dims(0.0)


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_sequence_box_dim_against_grid_enumeration(p):
    # count 2^-k cells hit by the full analytic set {m^-p} u {0}
    def grid_count(k):
        s = 2.0**-k
        m_hi = int(np.ceil(s ** (-1.0 / p)))
        m = np.arange(1, m_hi + 1, dtype=np.float64)
        cells = np.unique(np.floor(m**-p / s).astype(np.int64))
        return len(np.union1d(cells, [0]))

    ks = np.arange(6, 26)
    counts = np.array([grid_count(k) for k in ks])
    slope = np.polyfit(ks * np.log(2), np.log(counts), 1)[0]
    assert slope == pytest.approx(oracle_sequence_dims(p)[1], abs=0.02)
