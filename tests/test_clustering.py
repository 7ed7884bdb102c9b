"""Density clustering versus a quadratic reference, plus the background filter."""

import dataclasses
import importlib.machinery
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack import clustering
from beamtrack.clustering import (
    Cluster,
    DbscanParams,
    _components,
    _islands,
    dbscan,
    filter_background,
    finite_rows,
)
from beamtrack.errors import ValidationError
from beamtrack.pipeline import radar_instant
from beamtrack.world import build_scenario, default_config

from oracles import components_reference, dbscan_reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def _labels_of(clusters, noise, n):
    labels = np.full(n, -1, dtype=int)
    for c in clusters:
        labels[c.member_indices] = c.label
    return labels


def _blob(rng, center, count, spread=0.05):
    pts3 = np.asarray(center) + rng.normal(0.0, spread, size=(count, 3))
    doppler = rng.normal(0.0, 1.0, size=count)
    return np.column_stack([pts3, doppler])


def _assert_matches_reference(pts, eps, min_pts):
    ref_labels, ref_count = dbscan_reference(pts, eps, min_pts)
    clusters, noise = dbscan(pts, DbscanParams(eps_m=eps, min_pts=min_pts))
    assert len(clusters) == ref_count
    assert np.array_equal(_labels_of(clusters, noise, len(pts)), ref_labels)
    assert noise == np.flatnonzero(ref_labels == -1).tolist()


def _frame(config, k):
    return build_scenario(config).sample_point_cloud(radar_instant(config, k)).points


def test_two_blobs_and_noise():
    rng = np.random.default_rng(3)
    a = _blob(rng, (0.0, 0.0, 1.0), 30)
    b = _blob(rng, (5.0, 0.0, 1.0), 25)
    stray = np.array([[2.5, 10.0, 1.0, 0.0]])
    pts = np.vstack([a, b, stray])
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.3, min_pts=5))
    assert len(clusters) == 2
    assert clusters[0].label == 0 and clusters[1].label == 1
    assert clusters[0].member_indices == list(range(30))
    assert clusters[1].member_indices == list(range(30, 55))
    assert noise == [55]
    assert np.allclose(clusters[0].core_point, a[:, :2].mean(axis=0))
    assert clusters[0].point_count == 30
    assert clusters[0].mean_doppler_mps == pytest.approx(a[:, 3].mean())
    assert clusters[0].velocity_mps is None


def test_labels_follow_scan_order():
    rng = np.random.default_rng(4)
    # the blob that appears first in the array gets label 0 regardless of position
    far = _blob(rng, (9.0, 9.0, 1.0), 12)
    near = _blob(rng, (0.0, 0.0, 1.0), 12)
    clusters, _ = dbscan(np.vstack([far, near]), DbscanParams(eps_m=0.3, min_pts=5))
    assert clusters[0].member_indices == list(range(12))
    assert np.allclose(clusters[0].core_point, far[:, :2].mean(axis=0), atol=0.1)


def test_min_pts_is_self_inclusive():
    # 5 coincident points: each has 5 neighbors including itself
    pts = np.tile(np.array([[1.0, 2.0, 1.0, 0.5]]), (5, 1))
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.1, min_pts=5))
    assert len(clusters) == 1 and noise == []
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.1, min_pts=6))
    assert clusters == [] and noise == [0, 1, 2, 3, 4]


def test_border_point_joins_first_cluster():
    # two 5-point chains whose end cores both reach one midpoint; the midpoint
    # has only 3 neighbors (itself + one end of each chain) so it stays a
    # border point and must take the first cluster's label, not bridge them
    xs_left = [-0.30, -0.25, -0.20, -0.15, 0.00]
    xs_right = [0.56, 0.71, 0.76, 0.81, 0.86]
    pts3 = np.array([[x, 0.0, 0.0] for x in xs_left + xs_right + [0.28]])
    pts = np.column_stack([pts3, np.zeros(len(pts3))])
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.3, min_pts=5))
    assert len(clusters) == 2
    assert 10 in clusters[0].member_indices
    assert 10 not in clusters[1].member_indices
    assert noise == []


def test_empty_and_all_noise():
    clusters, noise = dbscan(np.empty((0, 4)), DbscanParams())
    assert clusters == [] and noise == []
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [10.0, 0.0, 0.0, 0.0]])
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.5, min_pts=2))
    assert clusters == [] and noise == [0, 1]


def test_parameter_validation():
    pts = np.zeros((3, 4))
    with pytest.raises(ValidationError):
        dbscan(pts, DbscanParams(eps_m=0.0, min_pts=5))
    with pytest.raises(ValidationError):
        dbscan(pts, DbscanParams(eps_m=0.3, min_pts=0))


def test_matches_quadratic_reference_on_random_clouds():
    rng = np.random.default_rng(17)
    for _ in range(60):
        blobs = [
            rng.uniform(0.0, 3.0, 3) + rng.normal(0.0, 0.25, (rng.integers(5, 50), 3))
            for _ in range(rng.integers(1, 5))
        ]
        pts3 = np.vstack(blobs + [rng.uniform(0.0, 3.0, (rng.integers(0, 20), 3))])
        pts = np.column_stack([pts3, rng.normal(0.0, 1.0, len(pts3))])
        pts = pts[rng.permutation(len(pts))]
        eps = float(rng.uniform(0.15, 0.5))
        min_pts = int(rng.integers(1, 10))
        _assert_matches_reference(pts, eps, min_pts)


def test_cores_one_ulp_beyond_eps_in_one_cell_stay_apart():
    # x is the float just below eps/sqrt(3): both groups fall in one cell of
    # side eps/sqrt(3), yet the float distance between them exceeds eps
    eps = 0.8504306583014237
    x = 0.49099636949743763
    pts3 = np.array([[0.0, 0.0, 0.0]] * 3 + [[x, x, x]] * 3)
    pts = np.column_stack([pts3, np.zeros(6)])
    clusters, noise = dbscan(pts, DbscanParams(eps_m=eps, min_pts=3))
    assert [c.member_indices for c in clusters] == [[0, 1, 2], [3, 4, 5]]
    assert noise == []
    _assert_matches_reference(pts, eps, 3)


@pytest.mark.parametrize("eps", [0.25, 0.3, 0.5, 1.1])
def test_ties_at_eps_follow_the_reference(eps):
    # (c, c, c) with c = eps/sqrt(3) lies at float distance eps from the origin
    # up to the last ulp: at 0.25, 0.5 and 1.1 its squared distance exceeds
    # fl(eps**2) while its square root still rounds to eps
    c = eps / math.sqrt(3.0)
    pts3 = np.array([[0.0, 0.0, 0.0]] * 3 + [[c, c, c]] * 3)
    pts = np.column_stack([pts3, np.zeros(len(pts3))])
    for min_pts in (3, 4):
        _assert_matches_reference(pts, eps, min_pts)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("seed", [0, 1])
def test_non_finite_rows_are_noise(bad, seed):
    rng = np.random.default_rng(seed)
    pts = np.vstack([_blob(rng, (0.0, 0.0, 1.0), 30), _blob(rng, (1.0, 0.0, 1.0), 20)])
    pts = pts[rng.permutation(len(pts))]
    rows = rng.choice(len(pts), 6, replace=False)
    pts[rows, rng.integers(0, 3, size=6)] = bad
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.3, min_pts=5))
    assert set(rows.tolist()) <= set(noise)
    _assert_matches_reference(pts, 0.3, 5)
    finite = finite_rows(pts)
    assert finite.tolist() == sorted(set(range(len(pts))) - set(rows.tolist()))
    # handing dbscan the caller's finite_rows gives the same clustering
    with_finite = dbscan(pts, DbscanParams(eps_m=0.3, min_pts=5), finite)
    assert [c.member_indices for c in with_finite[0]] == [c.member_indices for c in clusters]
    assert with_finite[1] == noise


def test_all_non_finite_cloud_is_noise():
    pts = np.array([[np.nan, 0.0, 0.0, 1.0], [0.0, np.inf, 0.0, 1.0], [0.0, 0.0, -np.inf, 1.0]])
    assert dbscan(pts, DbscanParams(eps_m=0.3, min_pts=1)) == ([], [0, 1, 2])
    assert finite_rows(pts).tolist() == [] and finite_rows(np.empty((0, 4))).tolist() == []


def test_nan_row_in_a_demo_frame_is_noise_and_changes_nothing_else():
    pts = _frame(default_config(0), 10)
    params = DbscanParams()
    clusters, noise = dbscan(pts, params)
    assert clusters
    with_nan = np.vstack([pts, [[np.nan, np.nan, np.nan, 0.0]]])
    clusters_nan, noise_nan = dbscan(with_nan, params)
    assert [c.member_indices for c in clusters_nan] == [c.member_indices for c in clusters]
    assert noise_nan == noise + [len(pts)]


def test_non_finite_doppler_stays_in_the_cluster_and_out_of_its_mean():
    pts = _frame(default_config(0), 10)
    params = DbscanParams()
    clusters, noise = dbscan(pts, params)
    poisoned = pts.copy()
    poisoned[::10, 3] = np.nan
    poisoned[5, 3] = np.inf
    bad = ~np.isfinite(poisoned[:, 3])
    clusters_bad, noise_bad = dbscan(poisoned, params)
    assert [c.member_indices for c in clusters_bad] == [c.member_indices for c in clusters]
    assert noise_bad == noise
    for c in clusters_bad:
        members = np.array(c.member_indices)
        assert bad[members].any()
        assert c.mean_doppler_mps == pts[members[~bad[members]], 3].mean()
    # a cluster without one finite doppler has no mean
    ring = np.column_stack([np.zeros((5, 3)), [np.nan, np.inf, -np.inf, np.nan, np.nan]])
    (only,), _ = dbscan(ring, DbscanParams(eps_m=0.3, min_pts=5))
    assert only.mean_doppler_mps is None


def test_cores_far_apart_in_every_axis():
    # the cores' bounding box spans more cells than a 64-bit linear index counts
    rng = np.random.default_rng(8)
    pts = np.vstack(
        [_blob(rng, (0.0, 0.0, 0.0), 12), _blob(rng, (2e6, -3e6, 4e6), 12), _blob(rng, (-2e6, 1e6, 3e6), 12)]
    )
    _assert_matches_reference(pts, 0.3, 5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x0, x1", [(1e17, 1e17 + 16.0), (1e19, 3e19)])
def test_far_blobs_at_huge_coordinates_stay_apart(x0, x1):
    # At 1e17 m the floats are 16 m apart and x / (eps/2) rounds to multiples
    # of 128 cells, so both blobs would round into one cell; beyond 2**63 cells
    # (1e19 m) a cast to int64 is invalid. Cores past 2**48 cells get a cell each.
    rng = np.random.default_rng(5)
    blobs = []
    for x in (x0, x1):
        blob = np.zeros((6, 4))
        blob[:, 0] = x
        blob[:, 1:3] = rng.normal(0.0, 0.03, (6, 2))
        blobs.append(blob)
    pts = np.vstack(blobs)
    assert pts[6, 0] - pts[0, 0] == x1 - x0
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.3, min_pts=5))
    assert [c.member_indices for c in clusters] == [list(range(6)), list(range(6, 12))]
    assert noise == []
    _assert_matches_reference(pts, 0.3, 5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    exponents=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(exponents=[0.0, 200.0, 200.0], seed=0)  # near the origin and at +-1e200 m
def test_matches_quadratic_reference_at_any_magnitude(exponents, seed):
    # per magnitude, three blobs near +-10**exponent per axis, a few float steps
    # or 0.2 m apart, whichever is more; from ~1e15 m the float step exceeds
    # eps, and magnitudes apart by more than ~1.3e154 m overflow a squared extent
    rng = np.random.default_rng(seed)
    centers = []
    for exponent in exponents:
        base = rng.choice([-1.0, 1.0], 3) * 10.0**exponent * rng.uniform(0.5, 1.0, 3)
        centers.append(base + rng.integers(-3, 4, (3, 3)) * np.maximum(np.spacing(base), 0.2))
    n = 30 * len(exponents)
    pts3 = np.vstack(centers)[rng.integers(0, 3 * len(exponents), n)] + rng.normal(0.0, 0.1, (n, 3))
    _assert_matches_reference(np.column_stack([pts3, np.zeros(n)]), 0.3, int(rng.integers(1, 5)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eps_as_wide_as_a_huge_cloud_matches_reference():
    # points 1e152 m apart along x, eps just as wide: too wide for one kd-tree,
    # with no gap of 2 eps to cut it at, so every pair is tested
    rng = np.random.default_rng(2)
    pts3 = np.zeros((12, 3))
    pts3[:, 0] = rng.integers(0, 6, 12) * 1e152
    pts3[:, 1] = rng.choice([0.0, 0.5e152], 12)
    _assert_matches_reference(np.column_stack([pts3, np.zeros(12)]), 1e152, 3)


@pytest.mark.parametrize("seed", [0, 3])
def test_matches_quadratic_reference_on_simulated_frames(seed):
    # dense body blobs plus static clutter desks, about 600 points per frame
    config = dataclasses.replace(default_config(seed), points_per_client_per_frame=200)
    params = DbscanParams()
    for k in (0, 11, 23, 35):
        _assert_matches_reference(_frame(config, k), params.eps_m, params.min_pts)


_EPS = st.sampled_from([0.25, 0.3, 0.5, 0.8504306583014237, 1.1]) | st.floats(0.05, 2.0)


@st.composite
def _grid_clouds(draw):
    # coordinates on multiples of eps/2, eps/sqrt(3) or eps per axis reach
    # distances of exactly eps and points on cell boundaries; duplicates reach
    # shared cells
    eps = draw(_EPS)
    steps = draw(st.tuples(*[st.sampled_from([eps / 2, eps / math.sqrt(3.0), eps])] * 3))
    cell = st.tuples(*[st.integers(-3, 3)] * 3)
    rows = draw(st.lists(cell, min_size=1, max_size=30))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
    pts3 = np.array(rows + [rows[i] for i in copies]) * np.array(steps)
    order = draw(st.permutations(range(len(pts3))))
    pts = np.column_stack([pts3[list(order)], np.zeros(len(pts3))])
    return pts, eps, draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(_grid_clouds())
def test_matches_quadratic_reference_on_grid_clouds(cloud):
    pts, eps, min_pts = cloud
    _assert_matches_reference(pts, eps, min_pts)


@st.composite
def _clouds_with_far_and_non_finite_rows(draw):
    # a grid cloud, plus blobs of coincident points whose cores lie beyond
    # 2**48 cell sides (the 1e200 m one also splits the kd-tree query), plus
    # rows with a NaN or infinite coordinate; the doppler tells rows apart
    pts, eps, min_pts = draw(_grid_clouds())
    rows = [pts]
    far = st.tuples(st.sampled_from([1e17, -3e19, 2.0**60, 1e200]), st.integers(0, 2), st.integers(1, 9))
    for magnitude, axis, count in draw(st.lists(far, max_size=3)):
        blob = np.zeros((count, 4))
        blob[:, axis] = magnitude
        rows.append(blob)
    bad = st.tuples(st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2))
    for value, axis in draw(st.lists(bad, max_size=4)):
        row = np.zeros((1, 4))
        row[0, axis] = value
        rows.append(row)
    cloud = np.vstack(rows)
    cloud = cloud[list(draw(st.permutations(range(len(cloud)))))]
    cloud[:, 3] = np.arange(len(cloud)) * 0.25 - 1.0
    return cloud, eps, min_pts


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(_clouds_with_far_and_non_finite_rows())
def test_cluster_members_and_noise_are_the_reference_indices_in_row_order(cloud):
    # label equality alone does not pin the order of member_indices
    pts, eps, min_pts = cloud
    ref, ref_count = dbscan_reference(pts, eps, min_pts)
    clusters, noise = dbscan(pts, DbscanParams(eps_m=eps, min_pts=min_pts))
    assert [c.label for c in clusters] == list(range(ref_count))
    for c in clusters:
        members = np.flatnonzero(ref == c.label)
        assert c.member_indices == members.tolist()
        assert c.point_count == len(members)
        assert c.core_point.tobytes() == pts[members, :2].mean(axis=0).tobytes()
        assert c.mean_doppler_mps == pts[members, 3].mean()
    assert noise == np.flatnonzero(ref == -1).tolist()


@st.composite
def _island_clouds(draw):
    """2-6 blobs in a row along x, some at 1e154 m or beyond, and an island budget.

    Consecutive blobs are just over or just under 2 eps apart (or eps, or
    closer), so some gaps cut the cloud and some do not. A point midway
    across a gap under 2 eps is within eps of both blobs' end points: a
    border point, or a bridge, as min_pts has it. Blobs below min_pts hold
    no core. The rows are shuffled, so cluster numbers and first cores
    interleave across islands, and the budget is small enough to split the
    cloud and to group its slabs.
    """
    eps = draw(st.sampled_from([0.3, 0.5, 1.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, x = [], 0.0
    for i in range(draw(st.integers(2, 6))):
        if i:
            gap = eps * draw(st.sampled_from([0.5, 0.99, 1.01, 1.99, 2.0, 2.01, 3.0]))
            if gap < 2.0 * eps and draw(st.booleans()):
                rows.append([x + gap / 2, 0.0, 0.0])
            x += gap
        # mutually within eps: x over eps/2 and y, z within eps/4 of the x
        # axis, on which the end points lie
        count = draw(st.integers(1, 12))
        blob = np.zeros((count, 3))
        blob[:, 0] = x + np.linspace(0.0, eps / 2, count)
        blob[1:-1, 1:] = rng.uniform(-eps / 4, eps / 4, (max(count - 2, 0), 2))
        far = draw(st.sampled_from([0.0] * 4 + [1e154, -1e154, -3e300]))
        blob[:, draw(st.integers(1, 2))] += far
        rows.extend(blob.tolist())
        x = float(blob[-1, 0])
    pts3 = np.array(rows)[list(draw(st.permutations(range(len(rows)))))]
    budget = draw(st.sampled_from([1, 5, 12, 30, clustering._ISLAND_POINTS]))
    return np.column_stack([pts3, np.zeros(len(pts3))]), eps, draw(st.integers(3, 6)), budget


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_island_clouds())
def test_islands_label_as_the_quadratic_reference(cloud):
    pts, eps, min_pts, budget = cloud
    with mock.patch.object(clustering, "_ISLAND_POINTS", budget):
        _assert_matches_reference(pts, eps, min_pts)


def _island_rows(pts, eps):
    return sorted(sorted(rows.tolist()) for rows, _ in _islands(pts[:, :3], eps))


def test_the_budget_splits_a_cloud_and_groups_its_slabs(monkeypatch):
    # along x, 3 eps apart: blobs of 10 and 12 points, 30 points in two
    # blobs 3 eps apart in y, and 8 points. A budget of 25 keeps the first
    # two slabs in one island, cuts the 30-point slab again along y and
    # leaves the last slab alone.
    monkeypatch.setattr(clustering, "_ISLAND_POINTS", 25)
    rng = np.random.default_rng(11)
    centers = [(0.0, 0.0)] * 10 + [(0.9, 0.0)] * 12 + [(1.8, 0.0)] * 15 + [(1.8, 0.9)] * 15
    centers += [(2.7, 0.0)] * 8
    pts3 = np.column_stack([centers, np.zeros(60)]) + rng.uniform(-0.03, 0.03, (60, 3))
    order = rng.permutation(60)
    pts = np.column_stack([pts3[order], np.zeros(60)])
    row_of = np.argsort(order)  # where each point of pts3 went
    islands = [sorted(row_of[a:b].tolist()) for a, b in ((0, 22), (22, 37), (37, 52), (52, 60))]
    assert _island_rows(pts, 0.3) == sorted(islands)
    _assert_matches_reference(pts, 0.3, 5)
    # within the budget, the whole cloud is one island
    monkeypatch.setattr(clustering, "_ISLAND_POINTS", 60)
    assert _island_rows(pts, 0.3) == [list(range(60))]
    _assert_matches_reference(pts, 0.3, 5)


def test_no_neighbour_pair_joins_two_islands_of_a_demo_frame():
    # each of the demo's three 800-point bodies is an island of its own
    from scipy.spatial import cKDTree

    pts = _frame(default_config(0), 10)
    island_of = np.full(len(pts), -1)
    for k, (rows, wide) in enumerate(_islands(pts[:, :3], 0.3)):
        assert not wide and len(rows) <= clustering._ISLAND_POINTS
        assert (island_of[rows] == -1).all()
        island_of[rows] = k
    assert (island_of >= 0).all() and island_of.max() >= 2
    pairs = cKDTree(pts[:, :3]).query_pairs(0.3, output_type="ndarray")
    assert (island_of[pairs[:, 0]] == island_of[pairs[:, 1]]).all()


# --- the helper process that labels part of a multi-island cloud -----------


def _labels_in_process(pts, params):
    """dbscan's labels and noise on a host seen as having one CPU, so no helper runs."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        clusters, noise = dbscan(pts, params)
    return _labels_of(clusters, noise, len(pts)), noise


def _ready(helper, seconds=60.0):
    """The helper, once it has reported ready."""
    deadline = time.monotonic() + seconds
    while not helper.ready():
        assert time.monotonic() < deadline, "the helper did not report ready"
        time.sleep(0.01)
    return helper


@pytest.fixture(scope="module")
def helper():
    """A ready helper of this process, on a host seen as having two CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fresh = clustering._Helper()
        patch.setattr(clustering, "_helper", fresh)
        yield _ready(fresh)
        fresh.close()


@pytest.fixture
def local_islands(monkeypatch):
    """The sizes of the islands this process labels itself; the helper's are not seen."""
    sizes = []
    label = clustering._island_labels

    def counted(xyz, *args):
        sizes.append(len(xyz))
        return label(xyz, *args)

    monkeypatch.setattr(clustering, "_island_labels", counted)
    return sizes


def _assert_helper_labels(pts, params, local_islands):
    """dbscan labels pts with the helper's share as it does alone; the helper took an island."""
    islands = [rows for rows, _ in _islands(pts[:, :3], params.eps_m)]
    islands = [rows for rows in islands if len(rows) >= params.min_pts]
    local_islands.clear()
    clusters, noise = dbscan(pts, params)
    assert 0 < len(local_islands) < len(islands)
    labels, in_process_noise = _labels_in_process(pts, params)
    assert np.array_equal(_labels_of(clusters, noise, len(pts)), labels)
    assert noise == in_process_noise
    return clusters, noise


@pytest.mark.parametrize("workload", ["demo", "crowd"])
def test_the_helper_labels_demo_and_crowd_frames_as_this_process_does(
    helper, local_islands, workload
):
    config = workloads.WORKLOADS[workload](1)
    for k in (0, 17, 35):
        _assert_helper_labels(_frame(config, k), DbscanParams(), local_islands)
    # every third point, in islands of up to 400, is small enough for the
    # quadratic reference; min_pts falls with the density
    sparse = _frame(config, 17)[::3]
    params = DbscanParams(min_pts=34)
    with mock.patch.object(clustering, "_ISLAND_POINTS", 400):
        clusters, noise = _assert_helper_labels(sparse, params, local_islands)
    ref_labels, ref_count = dbscan_reference(sparse, params.eps_m, params.min_pts)
    assert len(clusters) == ref_count
    assert np.array_equal(_labels_of(clusters, noise, len(sparse)), ref_labels)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_island_clouds())
def test_the_helper_labels_island_clouds_as_the_quadratic_reference(helper, cloud):
    # several blobs, shuffled, some beyond a kd-tree's range, in islands that
    # the helper and this process share
    pts, eps, min_pts, budget = cloud
    with mock.patch.object(clustering, "_ISLAND_POINTS", budget):
        _assert_matches_reference(pts, eps, min_pts)
        labels, _ = _labels_in_process(pts, DbscanParams(eps, min_pts))
        assert np.array_equal(labels, dbscan_reference(pts, eps, min_pts)[0])


def test_the_helper_labels_islands_whose_rows_are_not_in_scan_order(
    helper, local_islands, monkeypatch
):
    # five 20-point blobs 3 eps apart along x, shuffled: _islands yields each
    # slab's rows in x order, so first cores interleave across islands
    monkeypatch.setattr(clustering, "_ISLAND_POINTS", 20)
    rng = np.random.default_rng(5)
    pts3 = np.repeat(np.arange(5.0)[:, None] * [0.9, 0.0, 0.0], 20, axis=0)
    pts3 += rng.uniform(-0.03, 0.03, (100, 3))
    pts = np.column_stack([pts3, np.zeros(100)])[rng.permutation(100)]
    yielded = [rows for rows, _ in _islands(pts[:, :3], 0.3)]
    assert len(yielded) == 5 and not all((np.diff(rows) > 0).all() for rows in yielded)
    _assert_helper_labels(pts, DbscanParams(eps_m=0.3, min_pts=5), local_islands)
    _assert_matches_reference(pts, 0.3, 5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_helper_labels_islands_too_wide_for_a_kd_tree(helper, local_islands):
    # two 6-point chains 5e151 m long, 2e153 m apart, eps 1e152: neither is cut
    # by a gap over 2 eps, and each is too wide for a kd-tree, so every pair
    # of each is tested, one of them in the helper
    chain = np.arange(6) * 1e151
    pts3 = np.zeros((12, 3))
    pts3[:, 0] = np.concatenate([chain, 2e153 + chain])
    pts = np.column_stack([pts3, np.zeros(12)])[np.random.default_rng(6).permutation(12)]
    assert [wide for _, wide in _islands(pts[:, :3], 1e152)] == [True, True]
    _assert_helper_labels(pts, DbscanParams(eps_m=1e152, min_pts=3), local_islands)
    _assert_matches_reference(pts, 1e152, 3)


def _break_between_frames(helper):
    helper.process.kill()
    helper.process.wait(timeout=10)


def _break_with_a_request_in_flight(helper):
    # a request the helper cannot unpack: it exits, and the reply never comes
    requests = helper.requests
    helper.requests = mock.Mock(send=lambda request: requests.send(None), close=requests.close)


@pytest.mark.parametrize("breaks", [_break_between_frames, _break_with_a_request_in_flight])
def test_a_broken_helper_leaves_the_frames_to_this_process(monkeypatch, local_islands, breaks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    doomed = _ready(clustering._Helper())
    monkeypatch.setattr(clustering, "_helper", doomed)
    frames = [_frame(default_config(2), k) for k in (3, 4, 5)]
    want = [_labels_in_process(pts, DbscanParams()) for pts in frames]
    breaks(doomed)
    got = []

    def cluster():
        for pts in frames:
            local_islands.clear()
            clusters, noise = dbscan(pts, DbscanParams())
            got.append((_labels_of(clusters, noise, len(pts)), noise, len(local_islands)))

    worker = threading.Thread(target=cluster, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "clustering hung on a broken helper"
    for (labels, noise, labelled_here), (want_labels, want_noise), pts in zip(got, want, frames):
        assert np.array_equal(labels, want_labels) and noise == want_noise
        islands = [rows for rows, _ in _islands(pts[:, :3], 0.3) if len(rows) >= 100]
        assert labelled_here == len(islands)  # every island, here
    assert len(got) == 3
    # it is closed, reaped and never started again
    assert clustering._helper is doomed and doomed.process is None and not doomed.ready()


def test_an_exception_between_request_and_reply_retires_the_helper(monkeypatch, local_islands):
    # the reply left unread would answer the next frame's request
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    retired = _ready(clustering._Helper())
    monkeypatch.setattr(clustering, "_helper", retired)
    first, second = _frame(default_config(2), 3), _frame(default_config(2), 4)
    with mock.patch.object(clustering, "_island_labels", mock.Mock(side_effect=KeyboardInterrupt)):
        with pytest.raises(KeyboardInterrupt):
            dbscan(first, DbscanParams())
    assert retired.process is None and not retired.ready()
    clusters, noise = dbscan(second, DbscanParams())
    labels, _ = _labels_in_process(second, DbscanParams())
    assert np.array_equal(_labels_of(clusters, noise, len(second)), labels)


def test_threads_share_the_helper_one_request_at_a_time(helper):
    # more threads than CPUs: one at a time has the helper's pipe, the others
    # label every island themselves, and every thread gets its own frames' labels
    frames = [_frame(default_config(seed), k) for seed in (0, 1) for k in (2, 9, 16, 30)]
    want = [_labels_in_process(pts, DbscanParams())[0] for pts in frames]
    got = {}

    def cluster(t):
        for rep in range(3):
            for i in range(t % 2, len(frames), 2):
                clusters, noise = dbscan(frames[i], DbscanParams())
                got[t, rep, i] = _labels_of(clusters, noise, len(frames[i]))

    workers = [threading.Thread(target=cluster, args=(t,), daemon=True) for t in range(4)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    assert len(got) == 4 * 3 * 4
    assert all(np.array_equal(labels, want[i]) for (_, _, i), labels in got.items())
    assert helper.ready()


def test_one_cpu_starts_no_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    idle = clustering._Helper()
    monkeypatch.setattr(clustering, "_helper", idle)
    for k in (0, 1, 2):
        dbscan(_frame(default_config(0), k), DbscanParams())
    assert idle.process is None and not idle.broken


def test_a_sigint_leaves_the_helper_serving(helper, local_islands):
    # a terminal's Ctrl-C reaches the whole process group; the parent decides
    helper.process.send_signal(signal.SIGINT)
    time.sleep(0.2)
    assert helper.process.poll() is None
    _assert_helper_labels(_frame(default_config(0), 6), DbscanParams(), local_islands)


_UNGUARDED_SCRIPT = """\
import os, sys, time
import numpy as np
from beamtrack import clustering
from beamtrack.clustering import DbscanParams, dbscan

os.sched_getaffinity = lambda pid: {0, 1}
clustering._ISLAND_POINTS = 20
rng = np.random.default_rng(0)
pts = np.column_stack([rng.normal(0.0, 0.03, (40, 3)), np.zeros(40)])
pts[20:, 0] += 5.0
deadline = time.monotonic() + 60
while True:
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.3, min_pts=5))
    assert [c.member_indices for c in clusters] == [list(range(20)), list(range(20, 40))]
    if clustering._helper.ready():
        break
    assert time.monotonic() < deadline, "no helper"
dbscan(pts, DbscanParams(eps_m=0.3, min_pts=5))
print(clustering._helper.process.pid, flush=True)
if sys.argv[1:] == ["hang"]:
    time.sleep(60)
"""


def _helper_script(tmp_path, *args):
    """Start _UNGUARDED_SCRIPT (no __main__ guard) in a new interpreter; it and its helper's pid."""
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_SCRIPT)
    src = str(Path(clustering.__file__).resolve().parents[1])
    run = subprocess.Popen(
        [sys.executable, "-W", "always::ResourceWarning", str(script), *args],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    return run, int(run.stdout.readline())


def _gone(pid, seconds=10.0):
    """Whether process pid has exited within seconds (a zombie counts as exited)."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_an_unguarded_script_uses_the_helper_and_leaves_no_process(tmp_path):
    # multiprocessing's spawn would re-run the script in the child and fail
    run, pid = _helper_script(tmp_path)
    out, err = run.communicate(timeout=60)
    assert run.returncode == 0, err
    assert "ResourceWarning" not in err
    assert _gone(pid)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_the_helper_of_a_killed_process_exits(tmp_path):
    # no atexit hook runs: the helper sees its pipe close and exits
    run, pid = _helper_script(tmp_path, "hang")
    run.kill()
    run.communicate(timeout=60)
    assert _gone(pid)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child")
@pytest.mark.filterwarnings("ignore:.*fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_a_forked_child_does_not_keep_the_helper_from_eof(monkeypatch):
    # the child's copy of the request pipe kept the helper reading: close()
    # waited its full 1 s and killed it (returncode -9)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = _ready(clustering._Helper())
    process = started.process
    release_read, release_write = os.pipe()
    child = os.fork()
    if child == 0:  # sleeps until the parent closes its end of the release pipe
        os.close(release_write)
        os.read(release_read, 1)
        os._exit(0)
    os.close(release_read)
    try:
        started.close()
        assert process.returncode == 0
    finally:
        os.close(release_write)
        os.waitpid(child, 0)


def _fresh_interpreter(*argv, stdin=None):
    """Run python argv with beamtrack imported from this tree; the finished process, bytes out."""
    src = str(Path(clustering.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdin=stdin,
        capture_output=True,
        timeout=120,
    )


# one demo cloud clustered in this process alone (no helper), after importing
# the module named in argv[1], if any; prints the peak RSS in MB and the names
# of the loaded modules
_CLUSTER_A_DEMO_CLOUD = """\
import importlib, os, resource, sys
os.sched_getaffinity = lambda pid: {0}
for first in sys.argv[1:]:
    importlib.import_module(first)
from beamtrack.clustering import DbscanParams, dbscan
from beamtrack.pipeline import radar_instant
from beamtrack.world import build_scenario, default_config

config = default_config(0)
cloud = build_scenario(config).sample_point_cloud(radar_instant(config, 10)).points
assert len(dbscan(cloud, DbscanParams())[0]) == 3
unit = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss is bytes there, KiB here
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit)
print(" ".join(sys.modules))
"""
# the modules _CLUSTER_A_DEMO_CLOUD reports: the extension, the scipy.spatial
# package with the two it loads, and the extension's own imports with numpy.f2py,
# which scipy._lib._util's array-API layer loads
_KD_TREE_IMPORTS = (
    "scipy.spatial._ckdtree",
    "scipy.spatial",
    "scipy.linalg",
    "scipy.special",
    "scipy.sparse",
    "scipy._lib._util",
    "numpy.f2py",
)


@pytest.fixture(scope="module")
def demo_cloud_probes():
    """{first import: (peak RSS in MB, loaded modules)} of _CLUSTER_A_DEMO_CLOUD runs."""
    pytest.importorskip("resource")
    # Linux carries the RSS high-water mark of the process that starts an
    # interpreter over into its ru_maxrss, so each probe is started from a
    # small interpreter, not from this one
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    probes = {}
    for first in (None, "scipy.spatial", "scipy.sparse"):
        argv = [first] if first else []
        run = _fresh_interpreter("-c", launcher, sys.executable, "-c", _CLUSTER_A_DEMO_CLOUD, *argv)
        assert run.returncode == 0, run.stderr.decode()
        peak, loaded = run.stdout.decode().splitlines()
        probes[first] = float(peak), " ".join(m for m in _KD_TREE_IMPORTS if m in loaded.split())
    return probes


def test_clustering_loads_the_kd_tree_extension_and_not_the_scipy_spatial_package(demo_cloud_probes):
    # the package's __init__ also loads qhull with scipy.linalg and distance
    # with scipy.special, ~15 MB that the kd-tree does not use
    alone, loaded = demo_cloud_probes[None]
    with_package, package_loaded = demo_cloud_probes["scipy.spatial"]
    assert loaded == "scipy.spatial._ckdtree"
    assert package_loaded == " ".join(_KD_TREE_IMPORTS)
    assert alone <= with_package - 10.0, (alone, with_package)


def test_clustering_loads_the_kd_tree_extension_without_scipy_sparse_or_the_array_api_layer(
    demo_cloud_probes,
):
    # scipy._lib._util's array-API layer runs `from numpy import *`, which
    # loads numpy.f2py, numpy.testing and numpy.ma: ~13 MB the kd-tree does not use
    alone, _ = demo_cloud_probes[None]
    with_sparse, sparse_loaded = demo_cloud_probes["scipy.sparse"]
    assert sparse_loaded == "scipy.spatial._ckdtree scipy.sparse scipy._lib._util numpy.f2py"
    assert alone <= with_sparse - 8.0, (alone, with_sparse)


# clusters a demo cloud after importing the modules named in argv[1:], then
# checks the extension against the real scipy, scipy.sparse and scipy._lib._util
_CLUSTER_THEN_USE_THE_REAL_MODULES = """\
import importlib, os, sys
import numpy as np
os.sched_getaffinity = lambda pid: {0}
first = {name: importlib.import_module(name) for name in sys.argv[1:]}
from beamtrack.clustering import DbscanParams, dbscan
from beamtrack.pipeline import radar_instant
from beamtrack.world import build_scenario, default_config

config = default_config(0)
cloud = build_scenario(config).sample_point_cloud(radar_instant(config, 10)).points
before = set(sys.modules)
assert len(dbscan(cloud, DbscanParams())[0]) == 3
assert all(sys.modules[name] is module for name, module in first.items())
for name in ("scipy", "scipy.sparse", "scipy._lib._util"):
    assert name in before or name not in sys.modules, name
import scipy, scipy.sparse, scipy._lib._util

extension = sys.modules["scipy.spatial._ckdtree"]
assert scipy.__spec__.origin and scipy.sparse.__spec__.submodule_search_locations
assert scipy._lib._util.__spec__.origin
assert extension.copy_if_needed is scipy._lib._util.copy_if_needed
tree = extension.cKDTree(cloud[:200, :3])
dok = tree.sparse_distance_matrix(tree, 0.3)
coo = tree.sparse_distance_matrix(tree, 0.3, output_type="coo_matrix")
assert type(dok) is scipy.sparse.dok_matrix and type(coo) is scipy.sparse.coo_matrix
assert np.array_equal(dok.toarray(), coo.toarray())
assert np.count_nonzero(coo.toarray()) == 2 * len(tree.query_pairs(0.3))
"""


@pytest.mark.parametrize("first", [(), ("scipy.sparse",), ("scipy._lib._util",), ("scipy",)])
def test_the_kd_tree_stand_ins_leave_the_real_modules_to_later_imports(first):
    run = _fresh_interpreter("-c", _CLUSTER_THEN_USE_THE_REAL_MODULES, *first)
    assert run.returncode == 0, run.stderr.decode()


# loads the extension through a loader that fails as given by argv[1]: after
# an exception, or after importing a name that a stand-in lacks; then again
# through a loader that replaces the scipy.sparse stand-in before loading it
_FAILED_THEN_REPLACED_LOADS = """\
import importlib.machinery, sys
from beamtrack import clustering

loader = importlib.machinery.ExtensionFileLoader
exec_module = loader.exec_module
seen = []

def failing(self, module):
    if module.__name__ != "scipy.spatial._ckdtree":
        return exec_module(self, module)
    seen.append([sys.modules[name].__spec__ for name in ("scipy.sparse", "scipy._lib._util")])
    if sys.argv[1] == "raises":
        raise RuntimeError("exec_module failed")
    from scipy._lib._util import _lazywhere

def replacing(self, module):
    if module.__name__ == "scipy.spatial._ckdtree":
        sys.modules["scipy.sparse"] = replaced
    exec_module(self, module)

loader.exec_module = failing
try:
    clustering._ckdtree()
except (RuntimeError, ImportError) as error:
    print(type(error).__name__, getattr(error, "name", None))
assert seen == [[None, None]]  # both stand-ins, which have no spec
left = ("scipy.spatial._ckdtree", "scipy", "scipy.sparse", "scipy._lib._util")
assert not any(name in sys.modules for name in left), [n for n in left if n in sys.modules]
replaced = type(sys)("scipy.sparse")
loader.exec_module = replacing
extension = clustering._ckdtree()
assert sys.modules["scipy.sparse"] is replaced and "scipy._lib._util" not in sys.modules
assert clustering._ckdtree() is extension and extension.cKDTree
"""


@pytest.mark.parametrize(
    "failure, printed",
    [("raises", "RuntimeError None"), ("imports", "ImportError scipy._lib._util")],
)
def test_a_failed_kd_tree_load_leaves_no_module_and_a_replaced_stand_in_stays(failure, printed):
    run = _fresh_interpreter("-c", _FAILED_THEN_REPLACED_LOADS, failure)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.decode().strip() == printed


def test_a_scipy_without_the_kd_tree_extension_fails_naming_it(monkeypatch):
    # no fallback to the scipy.spatial package
    monkeypatch.delitem(sys.modules, clustering._CKDTREE, raising=False)
    finder = importlib.machinery.PathFinder
    find_spec = finder.find_spec
    monkeypatch.setattr(
        finder, "find_spec", lambda name, *path: None if name == "_ckdtree" else find_spec(name, *path)
    )
    with pytest.raises(ImportError, match="scipy.spatial._ckdtree") as raised:
        clustering._ckdtree()
    assert raised.value.name == "scipy.spatial._ckdtree"
    assert clustering._CKDTREE not in sys.modules


def test_the_helper_program_exits_at_eof_without_the_scipy_spatial_package():
    src = str(Path(clustering.__file__).resolve().parents[1])
    run = _fresh_interpreter(
        "-X", "importtime", "-c", clustering._HELPER_SOURCE, src, stdin=subprocess.DEVNULL
    )
    assert run.returncode == 0, run.stderr.decode()
    # its only message, length-prefixed, is _READY
    assert pickle.loads(run.stdout[4:]) == clustering._READY
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in run.stderr.decode().splitlines()
        if line.startswith("import time:")
    ]
    # nor scipy's __init__, which loads its build config and test utilities
    assert not {"scipy.spatial", "scipy.sparse", "scipy._lib._util", "numpy.f2py"} & set(imported)
    assert not {"scipy.__config__", "scipy._lib._testutils", "scipy._distributor_init"} & set(imported)


# clusters a demo cloud, then imports the scipy.spatial package beside the
# extension that clustering loaded, and clusters the cloud again
_CLUSTER_THEN_IMPORT_SCIPY_SPATIAL = """\
import os, pickle, sys
import numpy as np
os.sched_getaffinity = lambda pid: {0}
from beamtrack.clustering import DbscanParams, dbscan
from beamtrack.pipeline import radar_instant
from beamtrack.world import build_scenario, default_config

def partition(cloud):
    clusters, noise = dbscan(cloud, DbscanParams())
    return [c.member_indices for c in clusters], noise

config = default_config(1)
cloud = build_scenario(config).sample_point_cloud(radar_instant(config, 4)).points
before = partition(cloud)
extension = sys.modules["scipy.spatial._ckdtree"]
assert "scipy.spatial" not in sys.modules
from scipy.spatial import KDTree, cKDTree
# the package reuses the extension in sys.modules; it then lacks the private
# attribute scipy.spatial._ckdtree, which only the package's own import sets
assert cKDTree is extension.cKDTree and sys.modules["scipy.spatial._ckdtree"] is extension
tree = cKDTree(cloud[:, :3])
pairs = tree.query_pairs(0.3, output_type="ndarray")
assert np.array_equal(pickle.loads(pickle.dumps(tree)).query_pairs(0.3, output_type="ndarray"), pairs)
assert KDTree(cloud[:, :3]).query(cloud[7, :3]) == (0.0, 7)
assert partition(cloud) == before
"""


def test_the_scipy_spatial_package_imported_after_clustering_shares_its_kd_tree():
    run = _fresh_interpreter("-c", _CLUSTER_THEN_IMPORT_SCIPY_SPATIAL)
    assert run.returncode == 0, run.stderr.decode()


# four threads cluster demo frames 3, 10, 17 and 24 at once, the extension not
# yet loaded, each load held open 0.1 s; prints the loads and each frame's labels
_FOUR_THREADS_CLUSTER_AT_ONCE = """\
import importlib.util, json, os, sys, threading, time
os.sched_getaffinity = lambda pid: {0}
from beamtrack.clustering import DbscanParams, dbscan
from beamtrack.pipeline import radar_instant
from beamtrack.world import build_scenario, default_config

create, loads = importlib.util.module_from_spec, []

def counted(spec):
    if spec.name == "scipy.spatial._ckdtree":
        loads.append(spec.name)
        time.sleep(0.1)  # time for another thread to load it too
    return create(spec)

importlib.util.module_from_spec = counted
config = default_config(0)
scenario = build_scenario(config)
clouds = [scenario.sample_point_cloud(radar_instant(config, k)).points for k in (3, 10, 17, 24)]
barrier, labels, modules = threading.Barrier(4), [None] * 4, set()

def cluster(i):
    barrier.wait()
    clusters, noise = dbscan(clouds[i], DbscanParams())
    labels[i] = [c.member_indices for c in clusters], noise
    modules.add(id(sys.modules["scipy.spatial._ckdtree"]))

threads = [threading.Thread(target=cluster, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
print(json.dumps([len(loads), len(modules), labels]))
"""


def test_threads_clustering_at_once_load_the_kd_tree_once():
    run = _fresh_interpreter("-c", _FOUR_THREADS_CLUSTER_AT_ONCE)
    assert run.returncode == 0, run.stderr.decode()
    loads, modules, labels = json.loads(run.stdout)
    assert (loads, modules) == (1, 1)
    config = default_config(0)
    for (members, noise), k in zip(labels, (3, 10, 17, 24)):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            clusters, want_noise = dbscan(_frame(config, k), DbscanParams())
        assert [c.member_indices for c in clusters] == members and noise == want_noise


@st.composite
def _edge_lists(draw):
    """A node count and edges among the nodes: duplicates, self-loops and none at all allowed."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=60))


@settings(max_examples=300, deadline=None)
@example((1, []))
@example((5, [(3, 3), (4, 1), (1, 4), (4, 1)]))
@given(_edge_lists())
def test_components_equal_breadth_first_search(graph):
    n, edges = graph
    a = np.array([e[0] for e in edges], dtype=np.intp)
    b = np.array([e[1] for e in edges], dtype=np.intp)
    assert _components(n, a, b).tolist() == components_reference(n, edges)


@pytest.mark.parametrize("shape", ["path", "star"])
def test_components_rounds_do_not_grow_with_diameter(shape):
    # 20,000 nodes numbered at random: a path has diameter 19,999, so a search
    # that spreads labels one edge per round would take that many rounds
    n = 20_000
    order = np.random.default_rng(7).permutation(n)
    if shape == "path":
        a, b = order[:-1], order[1:]
    else:
        a, b = np.full(n - 1, order[0]), order[1:]
    start = time.perf_counter()
    root = _components(n, a, b)
    elapsed = time.perf_counter() - start
    assert (root == 0).all()
    assert elapsed < 0.25  # a few milliseconds on a 2-core machine


def test_filter_background_drops_all_static_clusters():
    pts = np.zeros((8, 4))
    pts[4:, 3] = 0.5  # second cluster moves
    static = Cluster(0, np.zeros(2), 0.0, 4, [0, 1, 2, 3])
    moving = Cluster(1, np.zeros(2), 0.5, 4, [4, 5, 6, 7])
    kept = filter_background([static, moving], pts)
    assert [c.label for c in kept] == [1]


def test_filter_background_single_live_member_retains():
    pts = np.zeros((4, 4))
    pts[2, 3] = 0.01  # one member above the zero-doppler tolerance
    c = Cluster(0, np.zeros(2), 0.0025, 4, [0, 1, 2, 3])
    assert filter_background([c], pts) == [c]


def test_filter_background_ignores_non_finite_doppler():
    pts = np.zeros((4, 4))
    for bad in (np.nan, np.inf, -np.inf):
        pts[1, 3] = bad  # a static cluster with one unusable doppler stays static
        c = Cluster(0, np.zeros(2), 0.0, 4, [0, 1, 2, 3])
        assert filter_background([c], pts) == []
        pts[2, 3] = 0.5  # ... and a live member still retains it
        assert filter_background([c], pts) == [c]
        pts[2, 3] = 0.0


def test_filter_background_tolerance_is_strict():
    pts = np.zeros((2, 4))
    c = Cluster(0, np.zeros(2), 1e-3, 2, [0, 1])
    for doppler in (1e-3, -1e-3):  # exactly at tolerance: |doppler| <= 1e-3 counts as static
        pts[:, 3] = doppler
        assert filter_background([c], pts) == []
        pts[1, 3] = np.nextafter(doppler, 2 * doppler)  # one float step beyond
        assert filter_background([c], pts) == [c]
