import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from assouad_lab.bounds import (
    BoundReport,
    ExponentContext,
    assouad_bounds,
    assouad_bounds_lambda,
    beta_upper,
    all_passed,
    biholder_upper,
    check_curve,
    classify_spirals,
    compare_bounds,
    ours_upper,
    planar_rh_exponent,
    rh_exponent_floor,
    spectrum_bound_report,
    spectrum_bounds,
    spectrum_interpolator,
    symmetric_coeff,
    t_of_theta,
    theta_of_t,
)
from assouad_lab.errors import (
    InvalidParameterError,
    SpectrumUndefinedError,
    ThetaOutOfRangeError,
)
from assouad_lab.families import oracle_spiral_rho, oracle_spiral_spectrum


# ---- theta parametrization ----------------------------------------------


def test_theta_of_t_values():
    assert theta_of_t(1.0) == 0.5
    assert theta_of_t(1e-9) == pytest.approx(1.0, abs=1e-8)
    assert theta_of_t(1.0) == pytest.approx(1.0 / (1.0 + 1.0))


def test_theta_t_round_trip():
    for t in np.geomspace(1e-6, 1e6, 60):
        assert t_of_theta(theta_of_t(t)) == pytest.approx(t, rel=1e-12)


def test_theta_of_t_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        theta_of_t(0.0)
    with pytest.raises(InvalidParameterError):
        t_of_theta(1.0)


# ---- exponents ----------------------------------------------------------


def test_planar_rh_exponent():
    assert planar_rh_exponent(2.0) == 4.0
    assert planar_rh_exponent(1.0) == math.inf
    assert planar_rh_exponent(10.0) == pytest.approx(20.0 / 9.0)


def test_rh_floor():
    # n lambda K / (lambda K - 1); at n=2, lambda=1 it is the sharp value
    assert rh_exponent_floor(2, 2.0) == planar_rh_exponent(2.0)
    assert rh_exponent_floor(3, 2.0, lam=1.0) == pytest.approx(6.0)
    assert rh_exponent_floor(3, 1.0) == math.inf


def test_context_auto_p():
    ctx = ExponentContext(n=2, K=2.0)
    assert ctx.p == 4.0
    assert ExponentContext(n=2, K=1.0).p == math.inf


def test_context_requires_p_beyond_plane():
    with pytest.raises(InvalidParameterError):
        ExponentContext(n=3, K=2.0)
    ctx = ExponentContext(n=3, K=2.0, p=5.0)
    assert ctx.p == 5.0


def test_context_rejects_subcritical_p():
    with pytest.raises(InvalidParameterError):
        ExponentContext(n=3, K=2.0, p=3.0)
    with pytest.raises(InvalidParameterError):
        ExponentContext(n=2, K=2.0, p=1.5)


# ---- the upper dimension-distortion formula ------------------------------


def test_beta_upper_spot_values():
    ctx = ExponentContext(n=2, K=2.0)
    assert beta_upper(1.0, ctx) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert beta_upper(2.0, ctx) == pytest.approx(2.0, abs=1e-15)
    assert beta_upper(1.3, ExponentContext(n=2, K=1.0)) == 1.3


def test_beta_upper_domain():
    ctx = ExponentContext(n=2, K=2.0)
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(InvalidParameterError):
            beta_upper(bad, ctx)


def test_symmetric_coeff_examples():
    assert symmetric_coeff(ExponentContext(n=2, K=2.0)) == pytest.approx(0.5)
    assert symmetric_coeff(ExponentContext(n=2, K=1.0)) == 1.0
    assert symmetric_coeff(ExponentContext(n=2, K=10.0)) == pytest.approx(0.1)


def test_direct_and_symmetric_forms_agree():
    # 1/beta - 1/n == (1 - n/p)(1/alpha - 1/n), the two published shapes
    for n in (2, 3, 4):
        for p in np.linspace(n + 0.1, n + 40, 10):
            ctx = ExponentContext(n=n, K=2.0, p=float(p))
            for alpha in np.linspace(0.05, n, 10):
                beta = beta_upper(float(alpha), ctx)
                lhs = 1.0 / beta - 1.0 / n
                rhs = (1.0 - n / p) * (1.0 / alpha - 1.0 / n)
                assert abs(lhs - rhs) < 1e-12


@settings(max_examples=100)
@given(
    a1=st.floats(0.05, 2.0),
    a2=st.floats(0.05, 2.0),
    p1=st.floats(2.1, 40.0),
    p2=st.floats(2.1, 40.0),
)
def test_beta_upper_monotonicity(a1, a2, p1, p2):
    lo_a, hi_a = sorted((a1, a2))
    lo_p, hi_p = sorted((p1, p2))
    c_lo = ExponentContext(n=2, K=2.0, p=lo_p)
    c_hi = ExponentContext(n=2, K=2.0, p=hi_p)
    assert beta_upper(lo_a, c_lo) <= beta_upper(hi_a, c_lo) + 1e-12
    assert beta_upper(lo_a, c_hi) <= beta_upper(lo_a, c_lo) + 1e-12


# ---- two-sided bounds ----------------------------------------------------


def test_spectrum_bounds_collapse_at_K1():
    ctx = ExponentContext(n=2, K=1.0)
    lo, hi = spectrum_bounds(1.0, ctx, lambda th: oracle_spiral_spectrum(2.0, th))
    val = oracle_spiral_spectrum(2.0, 0.5)
    assert lo == pytest.approx(val, abs=1e-12)
    assert hi == pytest.approx(val, abs=1e-12)


def test_spectrum_bounds_bracket_the_true_image():
    # stretching S_2 by K=2 gives S_1; check at t=1 (theta = 1/2)
    ctx = ExponentContext(n=2, K=2.0)
    lo, hi = spectrum_bounds(1.0, ctx, lambda th: oracle_spiral_spectrum(2.0, th))
    image_val = oracle_spiral_spectrum(1.0, 0.5)
    assert lo <= image_val + 1e-12 <= hi + 2e-12
    assert hi == pytest.approx(2.0, abs=1e-12)  # source already saturates


def test_spectrum_bounds_zero_convention():
    ctx = ExponentContext(n=2, K=2.0)
    lo, hi = spectrum_bounds(1.0, ctx, lambda th: 0.0)
    assert (lo, hi) == (0.0, 0.0)


def test_assouad_bounds_frozen_example():
    lo, hi = assouad_bounds(1.0, ExponentContext(n=2, K=2.0))
    assert lo == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert hi == pytest.approx(4.0 / 3.0, abs=1e-15)
    # the two planar coefficients are reciprocal: symmetric gap identity
    gap = 1.0 - 1.0 / 2.0
    assert 1.0 / lo - 0.5 == pytest.approx(2.0 * gap, abs=1e-15)
    assert 1.0 / hi - 0.5 == pytest.approx(0.5 * gap, abs=1e-15)


def test_assouad_bounds_limits():
    for alpha in (1.999999, 1.9999999999):
        lo, hi = assouad_bounds(alpha, ExponentContext(n=2, K=2.0))
        assert lo == pytest.approx(2.0, abs=1e-5)
        assert hi == pytest.approx(2.0, abs=1e-5)
    lo, hi = assouad_bounds(0.7, ExponentContext(n=2, K=1.0))
    assert lo == pytest.approx(0.7, abs=1e-15)
    assert hi == pytest.approx(0.7, abs=1e-15)


def test_assouad_bounds_need_interior_alpha():
    ctx = ExponentContext(n=2, K=2.0)
    for bad in (0.0, 2.0, -0.4):
        with pytest.raises(InvalidParameterError):
            assouad_bounds(bad, ctx)


def test_lambda_form_matches_sharp_planar_value():
    ctx = ExponentContext(n=2, K=2.0, lam=1.0)
    assert assouad_bounds_lambda(1.0, ctx) == pytest.approx(assouad_bounds(1.0, ctx))


def test_inverse_symmetry_of_assouad_bounds():
    # mapping forward then bounding back never overshoots the source
    for K in (1.5, 2.0, 5.0):
        ctx = ExponentContext(n=2, K=K)
        for alpha in np.linspace(0.05, 1.95, 30):
            _, hi = assouad_bounds(float(alpha), ctx)
            lo_back, _ = assouad_bounds(min(hi, 2.0 - 1e-12), ctx)
            assert lo_back <= alpha + 1e-9


# ---- single-theta upper bounds and their comparison ----------------------


def test_biholder_upper_examples():
    assert biholder_upper(0.3, 1.0, 1.7) == pytest.approx(1.7)
    # unclamped value 2*(0.95/0.8)*1.2 = 2.85 exceeds the ambient plane
    assert biholder_upper(0.2, 2.0, 1.2) == 2.0
    assert biholder_upper(0.2, 2.0, 0.4) == pytest.approx(2 * 0.95 / 0.8 * 0.4)


def test_biholder_upper_precondition():
    with pytest.raises(ThetaOutOfRangeError):
        biholder_upper(0.3, 2.0, 1.0)  # 0.3 >= 1/K^2 = 0.25


def test_ours_upper_examples():
    assert ours_upper(1.0, 1.0, 1.3) == 1.3
    assert ours_upper(1.0, 2.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert ours_upper(1.0, 2.0, 2.0) == pytest.approx(2.0, abs=1e-15)


def test_ours_upper_equals_beta_upper_at_d1():
    for K in np.linspace(1.01, 100.0, 150):
        ctx = ExponentContext(n=2, K=float(K))
        assert abs(ours_upper(1.0, float(K), 1.0) - beta_upper(1.0, ctx)) < 1e-12


def test_compare_bounds_direction_under_hypotheses():
    src = lambda th: oracle_spiral_spectrum(1.0, th)
    cmp = compare_bounds(4.0, 2.0, src)  # theta(t) = 0.2 < 1/4, d = 1.5
    assert cmp.hypotheses_hold
    assert cmp.ours <= cmp.biholder + 1e-12
    assert cmp.ours_leq_biholder


def test_compare_bounds_reports_failed_hypotheses():
    src = lambda th: oracle_spiral_spectrum(1.0, th)
    cmp = compare_bounds(1.0, 2.0, src)  # theta(t) = 0.5 >= 1/K^2
    assert not cmp.hypotheses_hold
    assert any("biholder" in msg for msg in cmp.hypothesis_failures)
    assert cmp.biholder is None

    thin = compare_bounds(4.0, 1.5, lambda th: 0.05)  # theta(t)=0.2 > d/2
    assert any("d/2" in msg for msg in thin.hypothesis_failures)


def test_compare_bounds_equality_at_K1():
    src = lambda th: oracle_spiral_spectrum(2.0, th)
    cmp = compare_bounds(3.0, 1.0, src)
    assert cmp.hypotheses_hold
    assert cmp.ours == pytest.approx(cmp.biholder, abs=1e-12)


# ---- classification -------------------------------------------------------


def test_classify_exact_threshold():
    c = classify_spirals(2.0, 1.0)
    assert c.dilatation == 2.0
    assert not c.inverted
    assert c.witness_spec() == "radial:K=2"


def test_classify_identity_and_inverse():
    assert classify_spirals(1.0, 1.0).dilatation == 1.0
    c = classify_spirals(1.0, 3.0)
    assert c.dilatation == 3.0
    assert c.inverted


def test_classify_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        classify_spirals(0.0, 1.0)


def test_classification_threshold_is_tight_for_bounds():
    # with K = a/b and t = 1/b, the contracted and expanded theta values hit
    # the two phase transitions exactly, so the planar bounds are sharp
    # along the radial-stretch family
    for a in (1.5, 2.0, 3.0, 5.0, 8.0):
        for b in (0.5, 1.0, 1.25, 2.0):
            if a <= b:
                continue
            K = a / b
            t = 1.0 / b
            assert abs(theta_of_t(t / K) - oracle_spiral_rho(a)) < 1e-12
            assert abs(theta_of_t(t) - oracle_spiral_rho(b)) < 1e-12


# ---- curve plumbing -------------------------------------------------------


def test_interpolator_midpoints_and_hull():
    f = spectrum_interpolator([0.2, 0.4], [1.0, 2.0])
    assert f(0.3) == pytest.approx(1.5)
    assert f(0.2) == 1.0
    with pytest.raises(SpectrumUndefinedError):
        f(0.1)
    with pytest.raises(SpectrumUndefinedError):
        f(0.5)


def test_interpolator_skips_absent_points():
    f = spectrum_interpolator([0.1, 0.2, 0.3], [math.nan, 1.0, 2.0])
    assert f(0.25) == pytest.approx(1.5)
    with pytest.raises(SpectrumUndefinedError):
        f(0.15)


def test_bound_report_verdicts_and_json():
    ctx = ExponentContext(n=2, K=2.0)
    grid = [0.2, 0.5, 0.8]
    report = spectrum_bound_report(
        grid, ctx,
        source_spectrum=lambda th: oracle_spiral_spectrum(2.0, th),
        image_spectrum=lambda th: oracle_spiral_spectrum(1.0, th),
        slack=0.05,
    )
    assert isinstance(report, BoundReport)
    assert report.feasible_count == len([v for v in report.verdicts if v.feasible])
    assert report.all_passed
    payload = report.to_json()
    assert payload["slack"] == 0.05
    assert len(payload["verdicts"]) == 3
    json.dumps(payload)  # must be plain-JSON serializable


def test_bound_report_flags_violations():
    ctx = ExponentContext(n=2, K=2.0)
    report = spectrum_bound_report(
        [0.5], ctx,
        source_spectrum=lambda th: oracle_spiral_spectrum(2.0, th),
        image_spectrum=lambda th: 0.05,  # far below any legal image value
        slack=0.05,
    )
    assert not report.all_passed
    assert report.verdicts[0].feasible and not report.verdicts[0].passed


def test_bound_report_marks_infeasible_theta():
    ctx = ExponentContext(n=2, K=4.0)
    source = spectrum_interpolator([0.4, 0.6], [1.6, 1.8])
    report = spectrum_bound_report(
        [0.1, 0.5], ctx,
        source_spectrum=source,
        image_spectrum=lambda th: 1.0,
        slack=0.2,
    )
    # theta = 0.1 needs the source curve at theta(t/K) far outside the hull
    assert not report.verdicts[0].feasible
    assert report.verdicts[0].reason.startswith("source")


def test_check_curve_is_the_oracle_rule_with_lower_equal_to_upper():
    # an oracle check passes the oracle as both bounds: inclusive at +-slack
    oracle = {0.2: 1.25, 0.4: 1.5, 0.6: 1.5, 0.8: 1.5}
    estimate = {0.2: 1.25 + 0.125, 0.4: 1.5 - 0.125, 0.6: 1.5 + 0.126}

    def image(th):
        if th not in estimate:
            raise SpectrumUndefinedError("raw estimate absent")
        return estimate[th]

    verdicts = check_curve(list(oracle), lambda th: (oracle[th],) * 2, image, 0.125)
    assert [v.passed for v in verdicts] == [True, True, False, None]
    assert [v.feasible for v in verdicts] == [True, True, True, False]
    assert all(v.lower == v.upper == oracle[v.theta] for v in verdicts)
    assert verdicts[2].reason == "estimate 1.6260 outside [1.5000 - 0.125, 1.5000 + 0.125]"
    absent = verdicts[3].to_json()
    assert absent == {"theta": 0.8, "estimate": None, "lower": 1.5, "upper": 1.5,
                      "feasible": False, "passed": None,
                      "reason": "image: raw estimate absent"}
    assert not all_passed(verdicts) and all_passed(verdicts[:2] + verdicts[3:])


def test_check_curve_names_the_side_that_is_undefined():
    def undefined(th):
        raise SpectrumUndefinedError("no value")

    (src,) = check_curve([0.5], undefined, lambda th: 1.0, 0.1)
    assert (src.feasible, src.lower, src.estimate) == (False, None, None)
    assert src.reason == "source: no value"
    (img,) = check_curve([0.5], lambda th: (1.0, 2.0), undefined, 0.1)
    assert (img.feasible, img.lower, img.upper, img.reason) == (False, 1.0, 2.0, "image: no value")
    for slack in (-0.1, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            check_curve([0.5], lambda th: (1.0, 2.0), lambda th: 1.5, slack)
