import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from assouad_lab import maps

from assouad_lab.errors import (
    AssouadLabError,
    InvalidParameterError,
    PoleProximityError,
)
from assouad_lab.estimators import estimate_spectrum
from assouad_lab.families import FamilySpec, sample_family
from assouad_lab.geometry import PointSet
from assouad_lab.index import build_index
from assouad_lab.maps import (
    Mobius,
    PlanarMap,
    RadialPower,
    Similarity,
    apply_map,
    identity_map,
    invert,
    parse_map_spec,
    radial_stretch,
)

nonzero_z = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


def planar(op):
    return PlanarMap(ops=(op,))


# ---- radial stretch exactness ------------------------------------------


@settings(max_examples=200)
@given(z=nonzero_z, K=st.floats(1.0, 50.0, exclude_min=True))
def test_radial_stretch_polar_form(z, K):
    f = radial_stretch(K)
    w = f.ops[0].apply(np.array([z]))[0]
    assert abs(abs(w) - abs(z) ** (1.0 / K)) <= 1e-12 * max(1.0, abs(w))
    # the argument is untouched: w / |w| == z / |z| up to roundoff
    assert abs(w / abs(w) - z / abs(z)) < 1e-12


def test_radial_stretch_identity_at_K1():
    f = radial_stretch(1.0)
    assert f.ops == ()
    assert f.dilatation_bound == 1.0
    ps = PointSet(2, np.array([[0.3, 0.4], [0.0, -2.0], [5.0, 0.0]]), 1e-3)
    img = apply_map(f, ps)
    assert np.array_equal(img.points, ps.points)
    assert img.resolution == ps.resolution


def test_radial_stretch_fixes_unit_modulus():
    z = np.exp(1j * np.array([1.0, 2.5, -0.7]))
    w = radial_stretch(2.0).ops[0].apply(z)
    assert np.allclose(w, z, atol=1e-15)


def test_radial_stretch_moves_s2_point_to_s1():
    z = np.array([4.0**-2 * np.exp(4.0j)])
    w = radial_stretch(2.0).ops[0].apply(z)[0]
    assert w == pytest.approx(4.0**-1 * np.exp(4.0j), abs=1e-15)


@pytest.mark.parametrize("power", [0.0, -1.0, math.inf, math.nan])
def test_radial_power_must_be_positive_and_finite(power):
    with pytest.raises(InvalidParameterError, match="radial power must be positive"):
        RadialPower(power)


def test_radial_stretch_rejects_expansion():
    with pytest.raises(InvalidParameterError, match="radial stretch needs a finite K >= 1, got 0.5"):
        radial_stretch(0.5)


@pytest.mark.parametrize("a,K", [(2.0, 2.0), (3.0, 1.5), (1.0, 4.0)])
def test_spiral_transport(a, K):
    ps = sample_family(FamilySpec(kind="poly_spiral", a=a, x_max=100.0,
                                  target_resolution=1e-3))
    img = apply_map(radial_stretch(K), ps)
    mask = np.isfinite(img.params)
    x = img.params[mask]
    target = np.column_stack([x ** (-a / K) * np.cos(x),
                              x ** (-a / K) * np.sin(x)])
    resid = np.linalg.norm(img.points[mask] - target, axis=1)
    assert resid.max() < 1e-10
    assert np.all(img.points[~mask] == 0.0)  # origin goes to origin


def test_round_trip_through_inverse():
    ps = sample_family(FamilySpec(kind="poly_spiral", a=1.0, x_max=100.0,
                                  target_resolution=1e-3))
    radial = radial_stretch(3.0)
    # the Mobius pole at -4 lies beyond the unit disc the spiral and its image lie in
    for f in (radial, PlanarMap(radial.ops + (Mobius(1.0, 0.0, 0.25, 1.0),))):
        back = apply_map(invert(f), apply_map(f, ps))
        assert np.abs(back.points - ps.points).max() < 1e-10


# ---- dilatation bookkeeping --------------------------------------------


def test_identity_composition_keeps_bound():
    f = radial_stretch(2.0)
    assert PlanarMap(identity_map().ops + f.ops).dilatation_bound == 2.0
    assert PlanarMap(f.ops + identity_map().ops).dilatation_bound == 2.0


def test_conformal_factors_do_not_raise_bound():
    f = radial_stretch(2.0)
    m = Mobius(1.0, 1.0, 0.0, 1.0)  # translation
    s = Similarity(scale=2.0 + 1.0j, offset=0.5)
    for g in (PlanarMap(planar(m).ops + f.ops), PlanarMap(f.ops + planar(s).ops)):
        assert g.dilatation_bound == 2.0


def test_stretch_composition_multiplies_bound():
    g = PlanarMap(radial_stretch(2.0).ops + radial_stretch(3.0).ops)
    assert g.dilatation_bound == 6.0


def test_composite_local_distortion_never_exceeds_bound():
    # measure max/min directional stretching of the K=6 composite directly
    g = PlanarMap(radial_stretch(2.0).ops + radial_stretch(3.0).ops)

    def image(z):
        arr = np.asarray(z, dtype=np.complex128)
        for op in g.ops:
            arr = op.apply(arr)
        return arr

    delta = 1e-7
    angles = np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
    for z0 in (0.5 + 0.0j, 0.1 + 0.2j, -0.8j, 1.5 + 1.5j):
        d = np.abs(image(z0 + delta * angles) - image(z0)) / delta
        ratio = d.max() / d.min()
        assert ratio <= 6.0 * (1 + 1e-3)
    # and the bound is attained (rays against circles), not just an estimate
    z0 = 0.5 + 0.0j
    d = np.abs(image(z0 + delta * angles) - image(z0)) / delta
    assert d.max() / d.min() == pytest.approx(6.0, rel=1e-3)


# ---- apply_map ----------------------------------------------------------


def test_apply_identity_is_exact():
    ps = PointSet(dim=2, points=[(0.1, 0.2), (3.0, -1.0)], resolution=1e-3)
    img = apply_map(identity_map(), ps)
    assert np.array_equal(img.points, ps.points)
    assert img.resolution == ps.resolution


def test_apply_similarity_scales_square():
    corners = PointSet(dim=2, points=[(0, 0), (1, 0), (0, 1), (1, 1)],
                       resolution=1e-2)
    img = apply_map(planar(Similarity(scale=2.0, offset=0.0)), corners)
    assert np.allclose(img.points, 2.0 * corners.points)
    assert img.resolution == pytest.approx(2e-2)


def test_apply_map_resolution_tracks_worst_stretch():
    # tangential stretching of |z|^(-1/2) z over moduli [1/16, 1] peaks at
    # (1/16)^(-1/2) = 4, so a K=2 stretch coarsens the resolution fourfold
    pts = [(1.0, 0.0), (1.0 / 16.0, 0.0)]
    ps = PointSet(dim=2, points=pts, resolution=1e-3)
    img = apply_map(radial_stretch(2.0), ps)
    assert img.resolution == pytest.approx(4e-3)


def test_apply_map_requires_planar_input():
    ps = PointSet(dim=1, points=[(0.5,)], resolution=1e-3)
    with pytest.raises(InvalidParameterError, match="planar maps need dim=2 point sets, got dim=1"):
        apply_map(identity_map(), ps)


def test_mobius_pole_guard():
    inversion = planar(Mobius(0.0, 1.0, 1.0, -1.0))  # pole at z=1
    near = PointSet(dim=2, points=[(1.001, 0.0)], resolution=1e-3)
    with pytest.raises(PoleProximityError):
        apply_map(inversion, near)
    far = PointSet(dim=2, points=[(5.0, 0.0), (0.0, 0.0)], resolution=1e-3)
    img = apply_map(inversion, far)
    assert img.points[0][0] == pytest.approx(0.25)  # 1/(5-1)


# Largest gap between the regularized S_1 spectrum and that of its Mobius
# image, at a theta where both have a raw value: measured 0.030, 0.050, 0.052
# and 0.109 at poles -100, -20, -5 and -2, plus a margin of 0.04.  The
# K = 1.25 radial image of the same sample lies 0.173 off and keeps 11 thetas.
_CONFORMAL_TOL = 0.15


def test_mobius_image_keeps_the_source_spectrum():
    # A Mobius map is conformal (K = 1) but no similarity: the image of S_1,
    # at verify's default scale, has the source's spectrum at every theta.
    source = sample_family(FamilySpec(kind="poly_spiral", a=1.0, x_max=1e4,
                                      target_resolution=1e-5))
    want = estimate_spectrum(build_index(source))
    raw = [not math.isnan(v) for v in want.values]
    assert sum(raw) == 13
    for pole in (100, 20, 5, 2):
        image = apply_map(parse_map_spec(f"mobius:a=1,b=0,c={1 / pole},d=1"), source)
        assert image.resolution > source.resolution  # widened by the Lipschitz factor
        got = estimate_spectrum(build_index(image))
        assert [not math.isnan(v) for v in got.values] == raw, pole
        gap = max(abs(g - w) for g, w, kept in
                  zip(got.regularized_values, want.regularized_values, raw) if kept)
        assert gap <= _CONFORMAL_TOL, (pole, gap)


# The whole-array code apply_map replaced, kept as the reference it must
# match byte for byte.


def reference_radial_apply(op, z):
    out = np.zeros_like(z)
    nz = z != 0
    out[nz] = np.abs(z[nz]) ** (op.power - 1.0) * z[nz]
    return out


@np.errstate(all="ignore")
def reference_apply_map(f, ps):
    z = ps.points[:, 0] + 1j * ps.points[:, 1]
    resolution = ps.resolution
    for op in f.ops:
        moduli = np.abs(z)
        positive = moduli[moduli > 0]
        lo = float(positive.min()) if len(positive) else 0.0
        hi = float(positive.max()) if len(positive) else 0.0
        denom_min = float(np.min(np.abs(op.c * z + op.d))) if isinstance(op, Mobius) else np.inf
        if isinstance(op, Mobius) and op.pole is not None:
            gap = float(np.min(np.abs(z - op.pole)))
            if gap < maps.POLE_MARGIN * resolution:
                raise PoleProximityError(
                    f"point at distance {gap:.3e} from mobius pole (need >= "
                    f"{maps.POLE_MARGIN} * resolution = {maps.POLE_MARGIN * resolution:.3e})")
        scale = op.lipschitz(lo, hi, denom_min)
        z = reference_radial_apply(op, z) if isinstance(op, RadialPower) else op.apply(z)
        resolution = resolution * scale
        finite = bool(np.isfinite(z).all())
        if not (finite and 0.0 < resolution < np.inf):
            what = "its resolution" if finite else "a point"
            raise InvalidParameterError(
                f"map stage {maps._format_stage(op)} sends {what} outside the float range")
    return np.column_stack([z.real, z.imag]), resolution


MAPS = [parse_map_spec(spec) for spec in (
    "radial:K=2",
    "radial:K=3|similarity:s=2i,t=0.25",
    "similarity:s=-1+0.5i,t=-0.75|radial:K=1.5",
    "mobius:a=1,b=0,c=0.25,d=2|radial:K=2",
    "mobius:a=2,b=1,c=0,d=1",
)]
# power > 1: the resolution then depends on the largest modulus
MAPS.append(invert(MAPS[1]))
# Chains refused on some or all samples: at a first stage whose successor
# would fail too, or only at a later stage.  The first failing stage in
# chain order is the one named.
REFUSED_MAPS = [parse_map_spec(spec) for spec in (
    "similarity:s=1e308,t=1e308|mobius:a=0,b=1,c=1,d=-1",
    "mobius:a=0,b=1,c=1,d=-1|similarity:s=1e308,t=1e308",
    "radial:K=2|similarity:s=5e-324|mobius:a=0,b=1,c=1,d=-1",
    "mobius:a=0,b=1,c=1,d=0|similarity:s=1e308,t=1e308",
    "radial:K=2|mobius:a=0,b=1,c=1,d=0",
    "similarity:s=4|similarity:s=1e308",
)]


@st.composite
def planar_samples(draw):
    """Planar points with planted zeros, signed zeros and repeated rows."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, 2)) * 10.0 ** rng.integers(-4, 2, size=(n, 1))
    planted = rng.integers(0, 5, size=(n, 2))
    pts[planted == 0] = 0.0
    pts[planted == 1] = -0.0
    params = rng.uniform(size=n) if draw(st.booleans()) else None
    return PointSet(dim=2, points=pts, resolution=1e-6, params=params)


@settings(max_examples=100, deadline=None)
@given(ps=planar_samples(), f=st.sampled_from(MAPS + REFUSED_MAPS), block=st.integers(1, 70))
def test_apply_map_matches_whole_array_reference(ps, f, block):
    try:
        want, want_res = reference_apply_map(f, ps)
    except AssouadLabError as exc:
        with mock.patch.object(maps, "_BLOCK", block), pytest.raises(type(exc)) as got:
            apply_map(f, ps)
        assert str(got.value) == str(exc)
        return
    with mock.patch.object(maps, "_BLOCK", block):
        img = apply_map(f, ps)
    assert img.points.tobytes() == want.tobytes()
    assert img.resolution == want_res
    assert img.params is ps.params or np.array_equal(img.params, ps.params)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_apply_map_block_edges_match_reference(offset):
    # sizes on both sides of the real block size, with the origin planted
    n = maps._BLOCK + offset
    rng = np.random.default_rng(n)
    pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts[::1000] = 0.0
    ps = PointSet(dim=2, points=pts, resolution=1e-6)
    f = MAPS[1]
    want, want_res = reference_apply_map(f, ps)
    img = apply_map(f, ps)
    assert img.points.tobytes() == want.tobytes() and img.resolution == want_res


def test_apply_map_allocates_its_output_plus_block_temporaries():
    n, block = 100_000, 1024
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(n, 2))
    pts[::100] = 0.0
    ps = PointSet(dim=2, points=pts, resolution=1e-6)
    for f in MAPS:
        with mock.patch.object(maps, "_BLOCK", block):
            tracemalloc.start()
            apply_map(f, ps)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # the (N, 2) output, then a few complex temporaries of one block
        assert peak <= 16 * n + 8 * 16 * block + 2**16, f


def test_mobius_requires_invertible_coefficients():
    with pytest.raises(InvalidParameterError):
        Mobius(1.0, 2.0, 1.0, 2.0)


# ---- mini-language ------------------------------------------------------


def test_parse_simple_radial():
    f = parse_map_spec("radial:K=2")
    assert isinstance(f.ops[0], RadialPower)
    assert f.dilatation_bound == 2.0


def test_parse_chain_round_trip():
    text = "radial:K=2|similarity:s=1+2i,t=0|mobius:a=1,b=0,c=0,d=1"
    f = parse_map_spec(text)
    assert len(f.ops) == 3
    assert f.dilatation_bound == 2.0


_MALFORMED = {
    "radial": "radial stage takes exactly K=<real>",  # missing parameter
    "radial:K=": "cannot parse K value ''",  # empty value
    "radial:K=fast": "cannot parse K value 'fast'",  # non-numeric value
    "radial:K=0.5": "radial stretch needs a finite K >= 1, got 0.5",  # dilatation below 1
    "twirl:K=2": "unknown map stage kind 'twirl'",  # unknown primitive
    "similarity:s=0,t=0": "similarity scale must be nonzero",  # degenerate scale
}


@pytest.mark.parametrize("bad", list(_MALFORMED))
def test_parse_rejects_malformed(bad):
    with pytest.raises(InvalidParameterError, match=re.escape(_MALFORMED[bad])):
        parse_map_spec(bad)


# ---- coefficients across the float range ---------------------------------

# Decimal literals from 0 through subnormals to the largest float, and
# 1e400, which parses to inf.
_REAL_LITERALS = st.one_of(
    st.sampled_from(["0", "1", "-1", "5e-324", "1e-320", "2.2250738585072014e-308",
                     "1e-300", "1e-200", "1e200", "1e300", "1.7976931348623157e308",
                     "1e400", "-1e400"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_COMPLEX_LITERALS = st.one_of(
    _REAL_LITERALS,
    st.tuples(_REAL_LITERALS, _REAL_LITERALS).map(
        lambda p: f"{p[0]}{'' if p[1].startswith('-') else '+'}{p[1]}i"),
)


@st.composite
def stage_specs(draw):
    kind = draw(st.sampled_from(["radial", "similarity", "mobius"]))
    if kind == "radial":
        return f"radial:K={draw(_REAL_LITERALS)}"
    if kind == "similarity":
        return f"similarity:s={draw(_COMPLEX_LITERALS)},t={draw(_COMPLEX_LITERALS)}"
    return "mobius:" + ",".join(f"{k}={draw(_COMPLEX_LITERALS)}" for k in "abcd")


_SMALL = PointSet(dim=2, points=np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.25, 0.75], [-0.5, 0.5], [1e-3, -2e-3]]), resolution=1e-4)


@settings(max_examples=300, deadline=None)
@given(st.lists(stage_specs(), min_size=1, max_size=3).map("|".join))
@example("mobius:a=1e308,b=0,c=0,d=1e-308")
@example("mobius:a=1e-300,b=0,c=0,d=1e300")
@example("mobius:a=1e200,b=1e200,c=1e-200,d=1e200")
@example("similarity:s=1e308,t=1e308")
@example("mobius:a=1e400,b=0,c=0,d=1")
@example("similarity:s=1e400")
@example("mobius:a=1e308+1e308i,b=0,c=0,d=1.5")
def test_maps_give_a_finite_image_or_refuse_without_warnings(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            image = apply_map(parse_map_spec(spec), _SMALL)
        except AssouadLabError:
            return
    assert np.isfinite(image.points).all()
    assert 0.0 < image.resolution < math.inf
