"""Density clustering versus a quadratic reference, plus the background filter."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.clustering import Cluster, DbscanParams, dbscan, filter_background, finite_rows
from beamtrack.errors import ValidationError
from beamtrack.world import build_scenario, default_config

from oracles import dbscan_reference


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
    scenario = build_scenario(config)
    per = int(round(config.radar_rate_hz * config.frame_time_s))
    return scenario.sample_point_cloud((k + 1) * per - 1).points


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


def test_cores_far_apart_in_every_axis():
    # a linear cell index over the cores' bounding box would overflow 64 bits
    rng = np.random.default_rng(8)
    pts = np.vstack(
        [_blob(rng, (0.0, 0.0, 0.0), 12), _blob(rng, (2e6, -3e6, 4e6), 12), _blob(rng, (-2e6, 1e6, 3e6), 12)]
    )
    _assert_matches_reference(pts, 0.3, 5)


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


def test_filter_background_tolerance_is_strict():
    pts = np.zeros((2, 4))
    pts[:, 3] = 1e-3  # exactly at tolerance: |doppler| <= tol counts as static
    c = Cluster(0, np.zeros(2), 1e-3, 2, [0, 1])
    assert filter_background([c], pts, doppler_zero_tol=1e-3) == []
    assert filter_background([c], pts, doppler_zero_tol=0.9e-3) == [c]
