"""Binding tracked clusters to clients by velocity signature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.errors import IdentificationError
from beamtrack.identification import (
    WINDOW_FIRST_FRAME,
    WINDOW_LAST_FRAME,
    should_identify,
    identify_clients,
)

from oracles import identification_reference


def test_window_constants():
    assert WINDOW_FIRST_FRAME == 2
    assert WINDOW_LAST_FRAME == 5


def test_should_identify_window_is_inclusive():
    got = [should_identify(i, error_flag=False) for i in range(8)]
    assert got == [False, False, True, True, True, True, False, False]


def test_error_flag_forces_identification_anywhere():
    for i in (0, 3, 7, 100):
        assert should_identify(i, error_flag=True)


def test_identify_straightforward_assignment():
    clusters = [(0, np.array([0.5, 0.0])), (1, np.array([0.0, 0.5]))]
    clients = {0: np.array([0.45, 0.02]), 1: np.array([0.03, 0.48])}
    assert list(identify_clients(clusters, clients).items()) == [(0, 0), (1, 1)]


def test_identify_swapped_velocities_swap_bindings():
    clusters = [(0, np.array([0.5, 0.0])), (1, np.array([0.0, 0.5]))]
    clients = {0: np.array([0.0, 0.5]), 1: np.array([0.5, 0.0])}
    assert identify_clients(clusters, clients) == {0: 1, 1: 0}


def test_identify_picks_best_of_many():
    clusters = [
        (3, np.array([1.0, 0.0])),
        (7, np.array([0.0, 1.0])),
        (9, np.array([-1.0, 0.0])),
    ]
    clients = {0: np.array([0.0, 0.95]), 1: np.array([-0.9, 0.05])}
    assert identify_clients(clusters, clients) == {0: 7, 1: 9}


def test_identify_labels_must_be_distinct():
    # one cluster matches both clients perfectly; the other is far from both.
    # the distinct-label rule forces the second binding onto the bad cluster
    clusters = [(0, np.array([0.5, 0.5])), (1, np.array([-5.0, -5.0]))]
    clients = {0: np.array([0.5, 0.5]), 1: np.array([0.5, 0.5])}
    labels = identify_clients(clusters, clients)
    assert set(labels.values()) == {0, 1}
    assert labels[0] == 0  # the scan favors the lower label for client 0


def test_identify_tie_breaks_to_lowest_label_pair():
    # both clusters carry the same velocity: every ordered pair costs the same,
    # so (smallest, next) wins even with labels presented out of order
    clusters = [(4, np.array([0.3, 0.0])), (2, np.array([0.3, 0.0]))]
    clients = {0: np.array([0.3, 0.0]), 1: np.array([0.3, 0.0])}
    assert identify_clients(clusters, clients) == {0: 2, 1: 4}


def test_identify_needs_two_clusters():
    with pytest.raises(IdentificationError):
        identify_clients([(0, np.array([0.5, 0.0]))], {0: np.zeros(2), 1: np.zeros(2)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_identify_rejects_non_finite_velocities(bad):
    clusters = [(0, np.array([0.5, 0.0])), (1, np.array([0.0, 0.5])), (2, np.zeros(2))]
    clients = {0: np.array([0.5, 0.0]), 1: np.array([0.0, 0.5])}
    with pytest.raises(IdentificationError, match="client 1 velocity is not finite"):
        identify_clients(clusters, {0: clients[0], 1: np.array([0.0, bad])})
    # the message names the client's own id, not its row
    with pytest.raises(IdentificationError, match="client 7 velocity is not finite"):
        identify_clients(clusters, {3: clients[0], 7: np.array([0.0, bad])})
    # one bad cluster would otherwise be skipped by every comparison, silently
    with pytest.raises(IdentificationError, match="cluster 2 velocity is not finite"):
        identify_clients(clusters[:2] + [(2, np.array([bad, 0.0]))], clients)


def test_identify_raises_when_every_cost_overflows():
    clusters = [(0, np.array([1e308, 1e308])), (1, np.array([-1e308, -1e308]))]
    with np.errstate(over="ignore"), pytest.raises(IdentificationError, match="finite"):
        identify_clients(clusters, {0: np.zeros(2), 1: np.zeros(2)})


def test_identify_needs_a_cluster_per_client():
    clusters = [(0, np.zeros(2)), (1, np.zeros(2))]
    with pytest.raises(
        IdentificationError, match="need at least 3 velocity-bearing clusters, got 2"
    ):
        identify_clients(clusters, {0: np.zeros(2), 1: np.zeros(2), 2: np.zeros(2)})
    # the two-client message is the one frame logs carry
    with pytest.raises(
        IdentificationError, match="need at least 2 velocity-bearing clusters, got 1"
    ):
        identify_clients(clusters[:1], {0: np.zeros(2), 1: np.zeros(2)})


def test_identify_exhaustive_against_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        labels = sorted(rng.choice(50, size=n, replace=False).tolist())
        vels = [rng.normal(0.0, 1.0, 2) for _ in range(n)]
        clusters = list(zip(labels, vels))
        clients = [rng.normal(0.0, 1.0, 2), rng.normal(0.0, 1.0, 2)]
        labels = identify_clients(clusters, dict(enumerate(clients)))
        assert tuple(labels.values()) == identification_reference(clusters, clients)


_UNIT = st.sampled_from([-1.0, 0.0, 1.0])
_TIE_VELOCITY = st.tuples(_UNIT, _UNIT).map(np.array)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True),
    st.data(),
)
def test_identify_matches_reference_on_tie_heavy_velocities(labels, data):
    # velocities on the {-1, 0, 1}^2 grid make many label sequences cost the same
    vels = data.draw(st.lists(_TIE_VELOCITY, min_size=len(labels), max_size=len(labels)))
    n_clients = data.draw(st.integers(2, min(3, len(labels))))
    clients = data.draw(st.lists(_TIE_VELOCITY, min_size=n_clients, max_size=n_clients))
    clusters = list(zip(labels, vels))  # labels in drawn, not ascending, order
    ids = [5, 2, 9][:n_clients]  # rows follow the mapping's order, not the ids'
    bound = identify_clients(clusters, dict(zip(ids, clients)))
    assert list(bound) == ids
    assert tuple(bound.values()) == identification_reference(clusters, clients)


def test_identify_raises_when_only_one_cluster_has_finite_costs():
    # cluster 0 is the only finite choice for both clients: no pair of distinct
    # labels has a finite cost, which is an IdentificationError, not a solver error
    clusters = [
        (0, np.array([1.0, 1.0])),
        (1, np.array([1e308, 1e308])),
        (2, np.array([-1e308, 1e308])),
    ]
    with np.errstate(over="ignore"), pytest.raises(IdentificationError, match="finite"):
        identify_clients(clusters, {0: np.zeros(2), 1: np.zeros(2)})
