"""Density clustering of radar point clouds and the zero-doppler background filter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import ValidationError

_NOISE = -1


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
    member_indices: list[int]
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
    discovered. A non-finite doppler leaves its row in the clustering but out
    of the cluster's mean doppler. Returns the clusters and the indices of
    noise points. finite, if given, is finite_rows(points), for a caller that
    also needs it.
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

    finite_doppler = np.isfinite(pts[:, 3])
    every_doppler_finite = finite_doppler.all()
    clusters = []
    for label in range(n_clusters):
        members = np.flatnonzero(labels == label)
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
    noise = np.flatnonzero(labels == _NOISE).tolist()
    return clusters, noise


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
    # within eps: the cell diagonal is sqrt(3)/2 * eps ~ 0.87 eps, and the 13%
    # margin is far beyond the rounding of x / side. So each cell is one node and
    # the component search runs on the far smaller cell graph. Non-core points
    # all get the sentinel cell n_cells.
    cell_of_core, n_cells = _number_cells(np.floor(xyz[core_idx] / (eps / 2)).astype(np.intp))
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
    # Either way the keys come out sorted, so the core-core edges are already
    # in row-major order: they are the compressed rows of the cell graph as is.
    # Weights are float64, the dtype connected_components converts any graph to.
    row, col = np.divmod(key, side)
    both_core = (row < n_cells) & (col < n_cells)
    row, col = row[both_core], col[both_core]
    indptr = np.searchsorted(row, np.arange(n_cells + 1))
    graph = csr_matrix((np.ones(len(col)), col, indptr), shape=(n_cells, n_cells))
    n_clusters, comp_of_cell = connected_components(graph, directed=False)

    # Clusters are numbered by first appearance of a core in scan order.
    first_seen = np.full(n_clusters, n, dtype=np.intp)
    np.minimum.at(first_seen, comp_of_cell[cell_of_core], core_idx)
    rank = np.empty(n_clusters, dtype=np.intp)
    rank[np.argsort(first_seen)] = np.arange(n_clusters)
    label_of_cell = rank[comp_of_cell]
    labels[core_idx] = label_of_cell[cell_of_core]

    # A border point goes to the smallest adjacent label, matching sequential
    # region growing in label order.
    best = np.full(n, n_clusters, dtype=np.intp)
    np.minimum.at(best, border, label_of_cell[border_via])
    claimed = best < n_clusters
    labels[claimed] = best[claimed]
    return labels


def _neighbour_pairs(xyz: np.ndarray, eps: float) -> np.ndarray:
    """(m, 2) index pairs i < j of the points with fl(sqrt(dx*dx + dy*dy + dz*dz)) <= eps.

    cKDTree keeps a pair when that same float sum s is <= fl(r * r), which at
    r = eps differs from the square-root test for s a few ulps above eps**2.
    The largest s whose square root rounds to <= eps is s_max; when some r has
    fl(r * r) == s_max (about half of all eps, 0.3 among them) one query at r
    returns exactly the pairs. Otherwise the query runs slightly wider and the
    pairs at the tie are tested with the square root.
    """
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
    # The pair set does not depend on the tree's shape, only the time to find
    # it: larger leaves, midpoint splits and uncompacted nodes build and walk
    # these clouds fastest.
    tree = cKDTree(xyz, leafsize=32, balanced_tree=False, compact_nodes=False)
    if r * r == s_max:
        return tree.query_pairs(r, output_type="ndarray")
    pairs = tree.query_pairs(r * (1.0 + 2.0**-40), output_type="ndarray")
    d = xyz[pairs[:, 0]] - xyz[pairs[:, 1]]
    return pairs[np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]) <= eps]


def _number_cells(cells: np.ndarray) -> tuple[np.ndarray, int]:
    """Number the distinct rows of (k, 3) integer cell coordinates; returns (number per row, count)."""
    lo = cells.min(axis=0)
    spans = cells.max(axis=0) - lo + 1
    if math.prod(spans.tolist()) <= np.iinfo(np.intp).max:
        distinct, number = np.unique(np.ravel_multi_index((cells - lo).T, spans), return_inverse=True)
    else:  # cores spread over more cells than a linear index can count
        distinct, number = np.unique(cells, axis=0, return_inverse=True)
    return number.reshape(-1), len(distinct)


def filter_background(
    clusters: list[Cluster], points: np.ndarray, doppler_zero_tol: float = 1e-3
) -> list[Cluster]:
    """Drop clusters with no member whose finite doppler exceeds doppler_zero_tol.

    Static objects return exactly zero doppler; anything alive keeps at least
    a few moving points, so one non-zero member is enough to retain a cluster.
    A non-finite doppler is no evidence of motion.
    """
    if not clusters:
        return []
    speed = np.abs(np.asarray(points, dtype=float)[:, 3])
    live = (speed > doppler_zero_tol) & (speed < math.inf)
    return [c for c in clusters if live[c.member_indices].any()]
