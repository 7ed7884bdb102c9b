"""Frame-to-frame cluster matching and label inheritance."""

import gc
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack.clustering import Cluster
from beamtrack.errors import ValidationError
from beamtrack.tracking import (
    ClusterFrame,
    displacement_threshold,
    lex_min_assignment,
    match_clusters,
    update_clusters,
)

from oracles import assignment_reference, integer_assignment_reference, matching_reference


def _cluster(label, x, y):
    return Cluster(
        label=label,
        core_point=np.array([x, y], dtype=float),
        mean_doppler_mps=0.0,
        point_count=10,
        member_indices=[],
    )


def _frame(index, cores):
    return ClusterFrame(index, [_cluster(i, x, y) for i, (x, y) in enumerate(cores)])


def test_displacement_threshold_formula():
    # mean walking speed plus three standard deviations, bit for bit
    for frame_time_s in (0.5, 1.0, 0.1, 1 / 3):
        assert displacement_threshold(frame_time_s) == (1.4 + 3.0 * 0.4) * frame_time_s


def test_displacement_threshold_validation():
    for frame_time_s in (0.0, -0.5):
        with pytest.raises(ValidationError):
            displacement_threshold(frame_time_s)


def test_match_obvious_assignment():
    prev = _frame(0, [(0.0, 0.0), (5.0, 0.0)])
    curr = _frame(1, [(0.1, 0.0), (5.1, 0.0)])
    m = match_clusters(prev, curr)
    assert m.pairs == [(0, 0), (1, 1)]
    assert m.total_cost_m == pytest.approx(0.2)
    assert m.unmatched_prev == [] and m.unmatched_curr == []


def test_match_crossing_is_cheapest():
    # each prev core pairs with the nearer curr core even when labels cross
    prev = _frame(0, [(0.0, 0.0), (1.0, 0.0)])
    curr = _frame(1, [(1.1, 0.0), (-0.1, 0.0)])
    m = match_clusters(prev, curr)
    assert m.pairs == [(0, 1), (1, 0)]


def test_match_tie_breaks_lexicographically():
    # two prev cores equidistant from two curr cores: both assignments cost the
    # same, so the sorted pair list (0,0),(1,1) must win over (0,1),(1,0)
    prev = _frame(0, [(0.0, 0.0), (2.0, 0.0)])
    curr = _frame(1, [(1.0, 0.0), (1.0, 0.0)])
    m = match_clusters(prev, curr)
    assert m.pairs == [(0, 0), (1, 1)]


def test_match_rectangular_leaves_extra_unmatched():
    prev = _frame(0, [(0.0, 0.0), (4.0, 0.0)])
    curr = _frame(1, [(0.0, 0.1), (4.0, 0.1), (9.0, 9.0)])
    m = match_clusters(prev, curr)
    assert m.pairs == [(0, 0), (1, 1)]
    assert m.unmatched_curr == [2]
    m2 = match_clusters(curr, prev)
    assert m2.unmatched_prev == [2]


def test_match_empty_frames():
    empty = ClusterFrame(0, [])
    full = _frame(1, [(0.0, 0.0)])
    m = match_clusters(empty, full)
    assert m.pairs == [] and m.unmatched_curr == [0]
    m = match_clusters(full, empty)
    assert m.pairs == [] and m.unmatched_prev == [0]


def test_match_agrees_with_enumeration_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        m_ = int(rng.integers(1, 6))
        prev_cores = rng.uniform(-3.0, 3.0, size=(n, 2))
        curr_cores = rng.uniform(-3.0, 3.0, size=(m_, 2))
        got = match_clusters(_frame(0, prev_cores), _frame(1, curr_cores))
        want_pairs, want_cost = matching_reference(prev_cores, curr_cores)
        assert got.pairs == [tuple(p) for p in want_pairs]
        assert got.total_cost_m == want_cost


# linear_sum_assignment's optimum here sums to 3.8284271247461903 in sorted
# order; another optimal assignment sums one ulp lower
_ULP_PREV = [(1.0, 2.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
_ULP_CURR = [(1.0, 0.0), (1.0, 0.0), (0.0, 0.0)]
# here several 6 x 6 assignments tie exactly
_TIE_PREV = [(0.0, 0.0), (0.0, 0.0), (0.0, 2.0), (2.0, 1.0), (0.0, 0.0), (1.0, 1.0)]
_TIE_CURR = [(1.0, 1.0), (2.0, 0.0), (2.0, 2.0), (2.0, 2.0), (0.0, 2.0), (2.0, 1.0)]


@pytest.mark.parametrize(
    "prev, curr, pairs, cost",
    [
        (_ULP_PREV, _ULP_CURR, [(1, 0), (2, 2), (3, 1)], 3.82842712474619),
        (_TIE_PREV, _TIE_CURR, [(0, 1), (1, 2), (2, 4), (3, 5), (4, 0), (5, 3)], 7.65685424949238),
    ],
)
def test_match_pinned_tie_instances(prev, curr, pairs, cost):
    m = match_clusters(_frame(0, prev), _frame(1, curr))
    assert m.pairs == pairs
    assert m.total_cost_m == cost


@st.composite
def _tie_heavy_clouds(draw):
    """Two clouds of 0-6 cores whose coordinates come from {0, 1, 2} or a few floats."""
    pool = draw(
        st.one_of(
            st.just([0.0, 1.0, 2.0]),
            st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=3),
        )
    )
    coord = st.sampled_from(pool)
    cloud = st.lists(st.tuples(coord, coord), max_size=6)
    return draw(cloud), draw(cloud)


@settings(max_examples=300, deadline=None)
@example((_ULP_PREV, _ULP_CURR))
@example((_TIE_PREV, _TIE_CURR))
@given(_tie_heavy_clouds())
def test_match_equals_enumeration_on_tie_heavy_clouds(clouds):
    prev, curr = clouds
    got = match_clusters(_frame(0, prev), _frame(1, curr))
    want_pairs, want_cost = matching_reference(prev, curr)
    assert got.pairs == [tuple(p) for p in want_pairs]
    assert got.total_cost_m == want_cost


def test_lex_min_assignment_reports_no_finite_assignment():
    inf = np.inf
    assert lex_min_assignment(np.array([[1.0, inf], [2.0, inf]])) == ([], inf)
    assert lex_min_assignment(np.array([[1.0, inf], [inf, 2.0]])) == ([(0, 0), (1, 1)], 3.0)
    assert lex_min_assignment(np.zeros((0, 3))) == ([], 0.0)


@pytest.mark.parametrize(
    "cost",
    [[[math.nan, 1.0], [1.0, 0.0]], [[math.nan] * 3] * 2, [[0.0, -1.0]], [[-math.inf]]],
)
def test_lex_min_assignment_rejects_nan_and_negative_entries(cost):
    with pytest.raises(ValueError, match="non-negative and not NaN"):
        lex_min_assignment(np.array(cost))


def test_lex_min_assignment_total_is_a_python_float():
    for cost in ([[0.5, 2.0], [1.0, 0.25]], [[1.0, math.inf], [2.0, math.inf]]):
        assert type(lex_min_assignment(np.array(cost))[1]) is float


@pytest.mark.parametrize("shape", [(8, 30), (12, 40), (16, 64), (30, 8)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lex_min_assignment_is_fast_on_tie_heavy_integer_costs(shape, seed):
    # costs uniform in {0, 1, 2} tie thousands of optimal assignments; an
    # exhaustive search over them took 21 s on one 8 x 30 draw
    cost = np.random.default_rng(seed).integers(0, 3, shape).astype(float)
    start = time.perf_counter()
    got = lex_min_assignment(cost)
    elapsed = time.perf_counter() - start
    assert got == integer_assignment_reference(cost)
    assert elapsed < 1.0  # about 1-4 ms on a 2-core machine


_ENTRIES = st.one_of(
    st.just([0.0, 1.0, 2.0, math.inf]),
    # sums of these differ from one another by an ulp or two: 0.1 + 0.2 != 0.3
    st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 2.0**0.5, math.inf]), min_size=1, max_size=4),
)


@st.composite
def _tie_heavy_costs(draw):
    """Cost matrices up to 6 x 8 or 8 x 6 whose entries come from a few values, inf among them."""
    pool = draw(_ENTRIES)
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if min(rows, cols) > 6:
        rows = 6
    return np.array(draw(st.lists(st.lists(st.sampled_from(pool), min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows)))


@settings(max_examples=200, deadline=None)
@example(np.array([[1.0, 1.0], [1.0, 1.0]]))
@example(np.array([[0.1, 0.2], [0.2, 0.1], [0.3, 0.3]]))
@example(np.array([[math.inf, 1.0], [math.inf, 2.0]]))
@given(_tie_heavy_costs())
def test_lex_min_assignment_equals_enumeration_on_tie_heavy_costs(cost):
    pairs, total = lex_min_assignment(cost)
    want_pairs, want_total = assignment_reference(cost)
    assert pairs == want_pairs
    assert total == want_total and type(total) is float


def test_match_leaves_no_cyclic_garbage():
    # an 8 x 8 frame pair, the size of the crowd workload's frames
    rng = np.random.default_rng(5)
    cores = rng.uniform(-3.0, 8.0, size=(8, 2))
    prev = _frame(0, cores)
    curr = _frame(1, cores + rng.uniform(-0.3, 0.3, size=(8, 2)))
    gc.collect()
    m = match_clusters(prev, curr)
    assert gc.collect() == 0
    assert m.pairs == [(i, i) for i in range(8)]


def test_update_inherits_label_and_velocity():
    prev = _frame(3, [(0.0, 0.0)])
    moved = [_cluster(0, 0.2, 0.1)]
    frame, counter = update_clusters(prev, moved, threshold_m=1.0, frame_time_s=0.5,
                                     next_label=1, frame_index=4)
    assert counter == 1
    assert [c.label for c in frame.clusters] == [0]
    assert np.allclose(frame.clusters[0].velocity_mps, [0.4, 0.2])
    assert frame.frame_index == 4


def test_update_deletes_implausible_jump():
    prev = _frame(0, [(0.0, 0.0)])
    jumped = [_cluster(0, 3.0, 0.0)]
    frame, counter = update_clusters(prev, jumped, threshold_m=1.0, frame_time_s=0.5,
                                     next_label=1, frame_index=1)
    # the matched-but-too-far cluster is deleted outright, not relabeled
    assert frame.clusters == []
    assert counter == 1


def test_update_threshold_boundary_is_exclusive():
    prev = _frame(0, [(0.0, 0.0)])
    at_threshold = [_cluster(0, 1.0, 0.0)]
    frame, _ = update_clusters(prev, at_threshold, threshold_m=1.0, frame_time_s=0.5,
                               next_label=1, frame_index=1)
    assert frame.clusters == []  # displacement >= threshold deletes
    just_under = [_cluster(0, 1.0 - 1e-9, 0.0)]
    frame, _ = update_clusters(prev, just_under, threshold_m=1.0, frame_time_s=0.5,
                               next_label=1, frame_index=1)
    assert [c.label for c in frame.clusters] == [0]


def test_update_fresh_labels_for_new_clusters():
    prev = _frame(0, [(0.0, 0.0)])
    curr = [_cluster(0, 0.1, 0.0), _cluster(1, 7.0, 7.0)]
    frame, counter = update_clusters(prev, curr, threshold_m=1.0, frame_time_s=0.5,
                                     next_label=5, frame_index=1)
    labels = [c.label for c in frame.clusters]
    assert labels == [0, 5]
    assert counter == 6
    fresh = frame.by_label()[5]
    assert fresh.velocity_mps is None


def test_update_first_frame_assigns_counter_labels():
    curr = [_cluster(0, 1.0, 1.0), _cluster(1, 2.0, 2.0)]
    frame, counter = update_clusters(None, curr, threshold_m=1.0, frame_time_s=0.5,
                                     next_label=0, frame_index=0)
    assert [c.label for c in frame.clusters] == [0, 1]
    assert counter == 2
    assert all(c.velocity_mps is None for c in frame.clusters)


def test_update_vanished_cluster_is_dropped():
    prev = _frame(0, [(0.0, 0.0), (5.0, 0.0)])
    curr = [_cluster(0, 0.1, 0.0)]
    frame, _ = update_clusters(prev, curr, threshold_m=1.0, frame_time_s=0.5,
                               next_label=2, frame_index=1)
    assert [c.label for c in frame.clusters] == [0]  # label 1 gone, no coasting


def test_update_validates_frame_time():
    with pytest.raises(ValidationError):
        update_clusters(None, [], threshold_m=1.0, frame_time_s=0.0, next_label=0, frame_index=0)
