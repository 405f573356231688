"""Multiscale dimension estimation for planar and low-dimensional point clouds.

The package measures box-counting dimension, the (regularized) Assouad
spectrum, and Assouad dimension of finite samples through a dyadic
occupancy index, and checks the results against closed-form distortion
bounds for planar quasiconformal maps.
"""

from .bounds import (
    BoundComparison,
    BoundReport,
    ExponentContext,
    SpiralClassification,
    ThetaVerdict,
    assouad_bounds,
    assouad_bounds_lambda,
    beta_upper,
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
from .errors import (
    AssouadLabError,
    DimensionMismatchError,
    EmptySetError,
    InvalidDilatationError,
    InvalidParameterError,
    LevelOutOfRangeError,
    PoleProximityError,
    ResolutionExceededError,
    ScaleBelowResolutionError,
    SpectrumUndefinedError,
    ThetaOutOfRangeError,
    TruncationTooCoarseError,
    WindowTooNarrowError,
)
from .estimators import (
    DimEstimate,
    ScaleWindow,
    SpectrumEstimate,
    estimate_assouad,
    estimate_box_dim,
    estimate_rho,
    estimate_spectrum,
    select_centers,
)
from .families import (
    FamilySpec,
    cantor_intervals,
    oracle_sequence_dims,
    oracle_spiral_box_dim,
    oracle_spiral_rho,
    oracle_spiral_spectrum,
    sample_family,
)
from .geometry import PointSet, load_points, save_points
from .index import MultiScaleIndex, build_index, deepest_level, local_dyadic_count, snap_level
from .maps import (
    Mobius,
    PlanarMap,
    RadialPower,
    Similarity,
    apply_map,
    compose,
    format_map_spec,
    identity_map,
    invert,
    parse_map_spec,
    radial_stretch,
)

__version__ = "0.1.0"
