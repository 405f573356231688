"""Multiscale dimension estimation for planar and low-dimensional point clouds.

The package measures box-counting dimension, the (regularized) Assouad
spectrum, and Assouad dimension of finite samples through a dyadic
occupancy index, and checks the results against closed-form distortion
bounds for planar quasiconformal maps.  Each name is imported from the
module that defines it; the package re-exports none.
"""

__version__ = "0.1.0"
