"""Shared fixtures: expensive samples are built once per session."""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from assouad_lab.families import FamilySpec, sample_family
from assouad_lab.geometry import PointSet
from assouad_lab.index import build_index, deepest_level


@pytest.fixture(scope="session")
def cantor12():
    return sample_family(
        FamilySpec(kind="cantor", ratio=1.0 / 3.0, depth=12,
                   target_resolution=(1.0 / 3.0) ** 12)
    )


@pytest.fixture(scope="session")
def cantor12_idx(cantor12):
    return build_index(cantor12, deepest_level(cantor12))


@pytest.fixture(scope="session")
def dense_square():
    g = np.linspace(0.0, 1.0, 1001)
    xs, ys = np.meshgrid(g, g)
    return PointSet(dim=2, points=np.column_stack([xs.ravel(), ys.ravel()]),
                    resolution=1e-3)


@pytest.fixture(scope="session")
def dense_square_idx(dense_square):
    return build_index(dense_square, deepest_level(dense_square))


@pytest.fixture(scope="session")
def sequence_set():
    return sample_family(
        FamilySpec(kind="sequence", p=1.0, m_max=10**4, target_resolution=1e-8)
    )


@pytest.fixture(scope="session")
def sequence_idx(sequence_set):
    return build_index(sequence_set, deepest_level(sequence_set))


@pytest.fixture(scope="session")
def unit_segment_idx():
    pts = np.column_stack([np.linspace(0.0, 1.0, 1001), np.zeros(1001)])
    ps = PointSet(dim=2, points=pts, resolution=1e-3)
    return build_index(ps, deepest_level(ps))


@pytest.fixture(scope="session")
def spiral_s1_coarse(tmp_path_factory):
    """Small S_1 sample on disk, for CLI tests."""
    ps = sample_family(
        FamilySpec(kind="poly_spiral", a=1.0, x_max=1e3, target_resolution=1e-3)
    )
    path = tmp_path_factory.mktemp("data") / "s1.csv"
    ps.to_csv(path)
    return path


def make_random_set(rng, i, n):
    """Deterministic randomized point cloud, cycling through five shapes."""
    kind = i % 5
    size = int(rng.integers(50, 10001))
    if kind == 0:
        pts = rng.uniform(0, 1, size=(size, n))
    elif kind == 1:
        k = int(rng.integers(1, 4))
        centers = rng.uniform(0, 1, size=(k, n))
        lab = rng.integers(0, k, size=size)
        pts = centers[lab] + rng.normal(0, 0.05, size=(size, n))
    elif kind == 2:
        side = int(rng.integers(8, 33))
        pts = rng.integers(0, side, size=(size, n)).astype(float) / side
    elif kind == 3:
        t = np.sort(rng.uniform(0, 1, size=size))
        pts = np.zeros((size, n))
        pts[:, 0] = t
        if n >= 2:
            pts[:, 1] = np.sin(6 * t) * 0.3
    else:
        r = rng.uniform(0, 1, size=size) ** 3
        d = rng.normal(size=(size, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pts = 0.5 + 0.5 * r[:, None] * d
    lo, hi = pts.min(0), pts.max(0)
    extent = float((hi - lo).max()) or 1.0
    res = extent / 2 ** int(rng.integers(6, 11))
    return PointSet(dim=n, points=pts, resolution=res)


@st.composite
def point_samples(draw, max_points=400):
    """Small samples in dims 1-3 for exactness checks against reference code.

    Shapes: uniform random; duplicate-heavy (snapped to a quarter grid);
    half the points tied on the smallest first coordinate, with coarse later
    coordinates so ties reach past the first column; and points on a
    1/64 grid spanning [0, 1] in every coordinate, so the root's low corner
    is 0 and many points lie exactly on dyadic cell boundaries.  A single
    point, or a set with zero extent, gets resolution 1e-3.
    """
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_points))
    shape = draw(st.sampled_from(["random", "coarse", "tied", "boundary"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    if shape == "coarse":
        pts = np.round(pts * 4.0) / 4.0
    elif shape == "tied":
        tied = rng.random(n) < 0.5
        pts[tied, 0] = pts[:, 0].min()
        pts[tied, 1:] = np.round(pts[tied, 1:] * 2.0) / 2.0
    elif shape == "boundary":
        pts = rng.integers(0, 65, size=(n, dim)) / 64.0
        pts[0], pts[-1] = 0.0, 1.0
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    res = extent * 2.0 ** -draw(st.integers(1, 10)) if extent > 0 else 1e-3
    return PointSet(dim=dim, points=pts, resolution=res)


def encode(addr, bits):
    """Row-major packed keys of (N, dim) integer addresses, first axis highest."""
    key = addr[:, 0].astype(np.int64)
    for i in range(1, addr.shape[1]):
        key = (key << bits) | addr[:, i].astype(np.int64)
    return key


def index_sample(ps):
    """Index at the deepest honest level, as the CLI does."""
    return build_index(ps, deepest_level(ps))


def center_aligned_count(ps, x, radius, m):
    """Brute-force dyadic count over Q(x, radius) after m halvings.

    Counts the cells of the radius-anchored grid that contain a sample
    point lying inside the closed ball B(x, radius); this is the direct
    enumeration the index's snapped-grid count is compared against.
    """
    sigma = 2.0 ** -m * 2.0 * radius
    x = np.asarray(x, dtype=np.float64)
    d2 = np.sum((ps.points - x) ** 2, axis=1)
    inside = ps.points[d2 <= radius * radius * (1 + 1e-12)]
    if len(inside) == 0:
        return 0
    addr = np.floor((inside - (x - radius)) / sigma).astype(np.int64)
    np.clip(addr, 0, 2**m - 1, out=addr)
    return len(np.unique(addr, axis=0))


def strict_json(text):
    """Parse a report as strict JSON: a NaN, Infinity or -Infinity literal fails."""
    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    return json.loads(text, parse_constant=refuse)


two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="work is split between two processes only with two usable CPUs")


def one_cpu():
    """A context in which this process sees one usable CPU, as under ``taskset -c 0``."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True)


class Forks(list):
    """Pids of the child processes this process forked while the test runs.

    ``nested()`` also counts the forks those children made in turn.
    """

    def __init__(self, log):
        super().__init__()
        self.log = log

    def nested(self) -> int:
        return len(self.log.read_text().split()) if self.log.exists() else 0


@pytest.fixture
def forks(monkeypatch, tmp_path):
    pids, fork = Forks(tmp_path / "forks.log"), os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        if pid:
            with open(pids.log, "a") as fh:  # one short append: whole lines from any process
                fh.write(f"{pid}\n")
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids
