"""Density clustering versus a quadratic reference, plus the background filter."""

import dataclasses
import math
import time
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
