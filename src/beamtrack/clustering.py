"""Density clustering of radar point clouds and the zero-doppler background filter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_NOISE = -1
# widest per-axis extent handed to one kd-tree: its query raises ValueError once
# the squared extents sum beyond the float64 maximum (~1.3e154 m on one axis)
_TREE_EXTENT = 2.0**500
# a member whose |doppler| exceeds this (m/s) marks its cluster as moving
DOPPLER_ZERO_TOL = 1e-3


@dataclass(frozen=True)
class DbscanParams:
    eps_m: float = 0.3
    min_pts: int = 100


@dataclass
class Cluster:
    label: int
    core_point: np.ndarray  # (2,) centroid of member (x, y)
    mean_doppler_mps: float | None  # over members with a finite doppler; None if none has one
    point_count: int
    member_indices: list[int]  # rows of the clustered cloud; empty once tracked (see Pipeline)
    velocity_mps: np.ndarray | None = None  # filled by the tracker once matched


def finite_rows(points: np.ndarray) -> np.ndarray:
    """Indices of the rows of an (n, 4) cloud whose x, y and z are all finite."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(np.isfinite(pts[:, :3]).all(axis=1))


def dbscan(
    points: np.ndarray, params: DbscanParams, finite: np.ndarray | None = None
) -> tuple[list[Cluster], list[int]]:
    """Classic density clustering over the 3-D coordinates of a point cloud.

    points is (n, 4): x, y, z, doppler. Neighborhoods are Euclidean balls of
    eps_m in 3-D (a point counts itself), the distance being
    sqrt(dx*dx + dy*dy + dz*dz) in float64 with ties at eps_m inside. A row with
    a non-finite x, y or z is in no neighborhood, so it is noise. Clusters are
    labeled 0, 1, ... in discovery order with points scanned in input order;
    border points reachable from several clusters go to the first one
    discovered. The labels equal that definition's for every finite coordinate.
    A non-finite doppler leaves its row in the clustering but out of the
    cluster's mean doppler. Returns the clusters and the indices of noise
    points. finite, if given, is finite_rows(points), for a caller that also
    needs it.
    """
    if not 0.0 < params.eps_m < math.inf:
        raise ValidationError("eps_m must be > 0 and finite")
    if params.min_pts < 1:
        raise ValidationError("min_pts must be >= 1")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return [], []
    labels = np.full(len(pts), _NOISE, dtype=np.intp)
    if finite is None:
        finite = finite_rows(pts)
    labels[finite] = _labels(pts[finite, :3], params.eps_m, params.min_pts)
    n_clusters = int(labels.max()) + 1

    # one stable sort groups the rows by label, noise first, each group in row order
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(_NOISE, n_clusters + 1)).tolist()
    finite_doppler = np.isfinite(pts[:, 3])
    every_doppler_finite = finite_doppler.all()
    clusters = []
    for label in range(n_clusters):
        members = order[bounds[label + 1] : bounds[label + 2]]
        doppler = pts[members, 3]
        if not every_doppler_finite:
            doppler = doppler[finite_doppler[members]]
        clusters.append(
            Cluster(
                label=label,
                core_point=pts[members, :2].mean(axis=0),
                mean_doppler_mps=float(doppler.mean()) if doppler.size else None,
                point_count=len(members),
                member_indices=members.tolist(),
            )
        )
    return clusters, order[: bounds[1]].tolist()


def _labels(xyz: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels of finite (n, 3) points, -1 for noise.

    After the neighbour query each step is one pass over the pairs, with no
    sort of them and no boolean-indexed copy.
    """
    n = len(xyz)
    labels = np.full(n, _NOISE, dtype=np.intp)
    pairs = _neighbour_pairs(xyz, eps)
    counts = np.bincount(pairs.ravel(), minlength=n) + 1  # a point counts itself
    core_idx = np.flatnonzero(counts >= min_pts)
    if core_idx.size == 0:
        return labels

    # Core points within eps of each other always share a cluster, so the
    # clusters' core memberships are the connected components of the core-core
    # adjacency graph. Cores sharing a grid cell of side eps/2 are mutually
    # within eps (see _number_cells), so each cell is one node and the component
    # search runs on the far smaller cell graph. Non-core points all get the
    # sentinel cell n_cells.
    cell_of_core, n_cells = _number_cells(xyz[core_idx] / (eps / 2))
    side = n_cells + 1
    # 32-bit cell ids halve the per-pair arrays while edge keys fit
    cell_of = np.full(n, n_cells, dtype=np.int32 if side * side < 2**31 else np.intp)
    cell_of[core_idx] = cell_of_core
    first, second = pairs[:, 0], pairs[:, 1]
    cell_a, cell_b = cell_of[first], cell_of[second]

    # Pairs with exactly one core end reach a border point.
    one_core = np.flatnonzero((cell_a == n_cells) != (cell_b == n_cells))
    a_is_border = cell_a[one_core] == n_cells
    border = np.where(a_is_border, first[one_core], second[one_core])
    border_via = cell_a[one_core] + cell_b[one_core] - n_cells  # the core end's cell

    # Cell-graph edges, deduplicated in a boolean (n_cells+1)^2 mask; its last
    # row and column collect the pairs with a non-core end. The mask never
    # outweighs the pair array, else the edge keys are sorted instead.
    key = np.multiply(cell_a, side, out=cell_a)  # cell_a is not needed again
    key += cell_b
    if side * side <= 16 * len(key):
        seen = np.zeros(side * side, dtype=bool)
        seen[key] = True
        key = np.flatnonzero(seen)
    else:
        key = np.unique(key)
    # The core-core edges go to _components as plain index arrays: a
    # union-find needs them in no order and with no weights.
    row, col = np.divmod(key, side)
    both_core = (row < n_cells) & (col < n_cells)
    root = _components(n_cells, row[both_core], col[both_core])

    # Clusters are numbered by first appearance of a core in scan order.
    first_seen = np.full(n_cells, n, dtype=np.intp)
    np.minimum.at(first_seen, root[cell_of_core], core_idx)
    roots = np.flatnonzero(root == np.arange(n_cells))
    n_clusters = len(roots)
    rank = np.empty(n_cells, dtype=np.intp)
    rank[roots[np.argsort(first_seen[roots])]] = np.arange(n_clusters)
    label_of_cell = rank[root]
    labels[core_idx] = label_of_cell[cell_of_core]

    # A border point goes to the smallest adjacent label, matching sequential
    # region growing in label order.
    best = np.full(n, n_clusters, dtype=np.intp)
    np.minimum.at(best, border, label_of_cell[border_via])
    claimed = best < n_clusters
    labels[claimed] = best[claimed]
    return labels


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least node of each node's connected component; the edges are (a[i], b[i]).

    A vectorised union-find. Each round hooks every root that has an edge to
    a smaller root onto the least such root, then jumps pointers
    (parent = parent[parent]) until every node points at its root, and drops
    the edges left inside one tree. A root that neither hooks nor is hooked
    has only larger neighbour roots, all hooked onto roots below it, so it
    hooks in the next round: every two rounds at least halve the roots of
    each component. So there are at most 2 * ceil(log2(n)) + 1 rounds of at
    most ceil(log2(n)) + 1 jumps each, however long the graph's paths are.
    """
    parent = np.arange(n)
    while a.size:
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        a, b = parent[a], parent[b]
        split = a != b
        a, b = a[split], b[split]
    return parent


def _neighbour_pairs(xyz: np.ndarray, eps: float) -> np.ndarray:
    """(m, 2) index pairs i < j of the points with fl(sqrt(dx*dx + dy*dy + dz*dz)) <= eps.

    cKDTree keeps a pair when that same float sum s is <= fl(r * r), which at
    r = eps differs from the square-root test for s a few ulps above eps**2.
    The largest s whose square root rounds to <= eps is s_max; when some r has
    fl(r * r) == s_max (about half of all eps, 0.3 among them) one query at r
    returns exactly the pairs. Otherwise the query runs slightly wider and the
    pairs at the tie are tested with the square root. A cloud wider than
    _TREE_EXTENT is split first (_island_pairs).
    """
    # the spread over all axes bounds each axis's extent and costs far less;
    # Python floats overflow to inf without a warning
    if len(xyz) and float(xyz.max()) - float(xyz.min()) > _TREE_EXTENT:
        with np.errstate(over="ignore"):
            extent = np.ptp(xyz, axis=0)
        if extent.max() > _TREE_EXTENT:
            return _island_pairs(xyz, eps, int(extent.argmax()))
    s_max = eps * eps
    while math.sqrt(s_max) > eps:
        s_max = math.nextafter(s_max, 0.0)
    while math.sqrt(math.nextafter(s_max, math.inf)) <= eps:
        s_max = math.nextafter(s_max, math.inf)
    r = math.sqrt(s_max)
    while r * r > s_max:
        r = math.nextafter(r, 0.0)
    while (up := math.nextafter(r, math.inf)) * up <= s_max:
        r = up
    # imported here, so a command that never clusters does not load scipy.spatial
    from scipy.spatial import cKDTree

    # The pair set does not depend on the tree's shape, only the time to find
    # it: larger leaves, midpoint splits and uncompacted nodes build and walk
    # these clouds fastest.
    tree = cKDTree(xyz, leafsize=32, balanced_tree=False, compact_nodes=False)
    if r * r == s_max:
        return tree.query_pairs(r, output_type="ndarray")
    return _within(xyz, tree.query_pairs(r * (1.0 + 2.0**-40), output_type="ndarray"), eps)


def _within(xyz: np.ndarray, pairs: np.ndarray, eps: float) -> np.ndarray:
    """The (m, 2) pairs whose fl(sqrt(dx*dx + dy*dy + dz*dz)) is <= eps."""
    d = xyz[pairs[:, 0]] - xyz[pairs[:, 1]]
    with np.errstate(over="ignore"):  # an inf distance is beyond eps
        return pairs[np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]) <= eps]


def _island_pairs(xyz: np.ndarray, eps: float, axis: int) -> np.ndarray:
    """_neighbour_pairs of a cloud too wide for one kd-tree.

    Sorted along its widest axis, the cloud is cut wherever two neighbours lie
    more than 2 eps apart; no pair within eps spans a cut, so each island's
    pairs are found on their own. A cloud with no such gap (eps wider than its
    extent over the point count) has every pair tested.
    """
    order = np.argsort(xyz[:, axis], kind="stable")
    with np.errstate(over="ignore"):
        cuts = np.flatnonzero(np.diff(xyz[order, axis]) > 2.0 * eps) + 1
    if not cuts.size:
        return _within(xyz, np.column_stack(np.triu_indices(len(xyz), 1)), eps)
    islands = [np.sort(island) for island in np.split(order, cuts)]
    return np.concatenate([island[_neighbour_pairs(xyz[island], eps)] for island in islands])


def _number_cells(scaled: np.ndarray) -> tuple[np.ndarray, int]:
    """Number the cells of (k, 3) core coordinates in cell sides; returns (number per row, count).

    A cell is the floor of each coordinate. Two cores in one cell are within
    eps: the cell diagonal is sqrt(3)/2 * eps ~ 0.87 eps, and the 13% margin
    covers the rounding of x / side, under 2**-5 sides while |x / side| < 2**48.
    A core at or beyond 2**48 sides in some axis gets a cell of its own. The
    cells are numbered in lexicographic (x, y, z) order, then the cells of
    their own in row order, from one lexsort and a compare of adjacent rows.
    """
    cells = np.floor(scaled)
    far = (np.abs(scaled) >= 2.0**48).any(axis=1)
    # far rows sort last, in row order, and each starts a cell of its own
    cells[far] = 0.0
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0], far))
    ranked = cells[order]
    new = far[order]
    new[1:] |= (ranked[1:] != ranked[:-1]).any(axis=1)
    new[0] = True
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return number, int(new.sum())


def filter_background(clusters: list[Cluster], points: np.ndarray) -> list[Cluster]:
    """Drop clusters with no member whose finite |doppler| exceeds DOPPLER_ZERO_TOL.

    Static objects return exactly zero doppler; anything alive keeps at least
    a few moving points, so one non-zero member is enough to retain a cluster.
    A non-finite doppler is no evidence of motion.
    """
    if not clusters:
        return []
    speed = np.abs(np.asarray(points, dtype=float)[:, 3])
    live = (speed > DOPPLER_ZERO_TOL) & (speed < math.inf)
    return [c for c in clusters if live[c.member_indices].any()]
