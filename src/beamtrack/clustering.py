"""Density clustering of radar point clouds and the zero-doppler background filter."""

from __future__ import annotations

import atexit
import bisect
import ctypes
import math
import os
import pickle
import sys
import threading
import types
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _keep_frame_heap_resident() -> None:
    """Keep freed blocks of up to glibc's mmap ceiling in the heap, in this process.

    Left to adjust itself, glibc serves a block from the heap once a freed mmap
    of its size has raised the mmap threshold, and trims the heap top beyond
    twice that threshold. An 800-point island's pair arrays, scipy's pair
    vector and the cell arrays together exceed twice the largest of them, so
    each island would give them back to the kernel and the next would fault
    ~2,000 pages in again. The mmap threshold is fixed at glibc's ceiling for
    its own adjustment, DEFAULT_MMAP_THRESHOLD_MAX (4 MiB * sizeof(long)), and
    the trim threshold at twice that. Both are set, as setting either one stops
    glibc adjusting the other. A libc without mallopt, or one that refuses the
    first value, is left as it was.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    ceiling = 4 * 2**20 * ctypes.sizeof(ctypes.c_long)
    if mallopt(m_mmap_threshold, ceiling):
        mallopt(m_trim_threshold, 2 * ceiling)


_keep_frame_heap_resident()

_NOISE = -1
# widest per-axis extent handed to one kd-tree: its query raises ValueError once
# the squared extents sum beyond the float64 maximum (~1.3e154 m on one axis)
_TREE_EXTENT = 2.0**500
# most points _islands groups into one island. Each island costs a fixed
# ~0.1 ms (a kd-tree build and some 30 numpy calls), so small slabs are queried
# together: the crowd's 300-point walkers go four or five to an island, while
# two 800-point demo bodies, whose pairs set DBSCAN's peak memory, never share one
_ISLAND_POINTS = 1500
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
    needs it. The cloud is clustered island by island (_labels), so the
    buffers of one call follow its largest island, not its point count.
    When this process may run on two or more CPUs, a helper process labels
    part of a cloud of two or more islands, with the same code and labels;
    it is started at the first such cloud and exits with this process.
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
    xyz = pts.take(finite, axis=0)[:, :3].copy()  # contiguous, as _labels' gathers want
    labels[finite] = _labels(xyz, params.eps_m, params.min_pts)
    n_clusters = int(labels.max()) + 1

    # one stable sort groups the rows by label, noise first, each group in row order
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(_NOISE, n_clusters + 1)).tolist()
    finite_doppler = np.isfinite(pts[:, 3])
    every_doppler_finite = finite_doppler.all()
    clusters = []
    # a mean whose sum overflows, to inf or to inf - inf, is taken again (_bounded_mean)
    with np.errstate(over="ignore", invalid="ignore"):
        for label in range(n_clusters):
            members = order[bounds[label + 1] : bounds[label + 2]]
            rows = pts.take(members, axis=0)
            doppler = rows[:, 3]
            if not every_doppler_finite:
                doppler = doppler[finite_doppler.take(members)]
            core = rows[:, :2].mean(axis=0)
            if not (math.isfinite(core[0]) and math.isfinite(core[1])):
                core = _bounded_mean(rows[:, :2], core)
            mean_doppler = float(doppler.mean()) if doppler.size else None
            if mean_doppler is not None and not math.isfinite(mean_doppler):
                mean_doppler = float(_bounded_mean(doppler, mean_doppler))
            clusters.append(
                Cluster(
                    label=label,
                    core_point=core,
                    mean_doppler_mps=mean_doppler,
                    point_count=len(members),
                    member_indices=members.tolist(),
                )
            )
    return clusters, order[: bounds[1]].tolist()


def _bounded_mean(values: np.ndarray, mean):
    """mean, the plain mean of finite values along axis 0, with its overflowed entries retaken."""
    # the sum of each value over the count, kept within the values' range
    retaken = np.clip((values / len(values)).sum(axis=0), values.min(axis=0), values.max(axis=0))
    return np.where(np.isfinite(mean), mean, retaken)


def _labels(xyz: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels of finite (n, 3) points, -1 for noise.

    No pair within eps joins two islands (_islands), so each island of at
    least min_pts points is labelled completely on its own (_island_labels),
    and the pair buffers follow the largest island, not the whole cloud. An
    island's rows are sorted first, so its clusters' local numbering follows
    global scan order; every island's clusters are then numbered together by
    their first core row. When two or more islands are labelled and this
    process may run on two CPUs, a helper process labels some of them
    (_Helper) while this process labels the rest, with the same function.
    """
    labels = np.full(len(xyz), _NOISE, dtype=np.intp)
    radius, exact = _query_radius(eps)
    islands = [
        (np.sort(rows), None if wide else radius)
        for rows, wide in _islands(xyz, eps)
        if len(rows) >= min_pts
    ]
    if not islands:
        return labels
    if len(islands) >= 2 and _cpus() >= 2:
        islands, done = _helper.label(xyz, islands, eps, min_pts, exact)
    else:
        done = _label_islands(xyz, islands, eps, min_pts, exact)

    # Clusters are numbered by their first core row in scan order.
    firsts = np.concatenate([rows[first] for (rows, _), (_, first) in zip(islands, done)])
    rank = np.empty(len(firsts), dtype=np.intp)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    start = 0
    for (rows, _), (local, first) in zip(islands, done):
        end = start + len(first)
        # a local label indexes its island's global labels; -1 picks the appended noise
        labels[rows] = np.append(rank[start:end], _NOISE)[local]
        start = end
    return labels


def _island_labels(xyz: np.ndarray, eps: float, min_pts: int, radius: float | None, exact: bool):
    """DBSCAN labels of one island's finite (n, 3) points, and each cluster's first core row.

    Clusters are numbered by their first core row, in row order; a border
    point goes to the smallest adjacent label, matching sequential region
    growing in label order. radius and exact are _neighbour_pairs'. Returns
    the labels, -1 for noise, and the first core rows, ascending.
    """
    n = len(xyz)
    labels = np.full(n, _NOISE, dtype=np.intp)
    graph = _cell_graph(xyz, eps, min_pts, radius, exact)
    if graph is None:
        return labels, np.empty(0, dtype=np.intp)
    core_idx, cell_of_core, n_cells, edge_a, edge_b, border, border_via = graph

    # The core-core edges go to _components as plain index arrays: a
    # union-find needs them in no order and with no weights.
    root = _components(n_cells, edge_a, edge_b)
    first_seen = np.full(n_cells, n, dtype=np.intp)
    np.minimum.at(first_seen, root[cell_of_core], core_idx)
    roots = np.flatnonzero(root == np.arange(n_cells))
    order = np.argsort(first_seen[roots])
    n_clusters = len(roots)
    rank = np.empty(n_cells, dtype=np.intp)
    rank[roots[order]] = np.arange(n_clusters)
    label_of_cell = rank[root]
    labels[core_idx] = label_of_cell[cell_of_core]

    best = np.full(n, n_clusters, dtype=np.intp)
    np.minimum.at(best, border, label_of_cell[border_via])
    claimed = best < n_clusters
    labels[claimed] = best[claimed]
    return labels, first_seen[roots[order]]


def _label_islands(xyz: np.ndarray, islands: list, eps: float, min_pts: int, exact: bool) -> list:
    """_island_labels of each (rows, radius) island of xyz, in this process."""
    return [_island_labels(xyz.take(rows, axis=0), eps, min_pts, r, exact) for rows, r in islands]


def _split(islands: list) -> tuple[list, list]:
    """Islands largest first, each to the side with fewer points: (this process's, the helper's)."""
    sides, points = ([], []), [0, 0]
    for island in sorted(islands, key=lambda island: len(island[0]), reverse=True):
        side = int(points[1] < points[0])
        sides[side].append(island)
        points[side] += len(island[0])
    return sides


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# what the helper sends once its imports are done
_READY = "ready"
# the helper's program: argv[1] is the directory beamtrack was imported from.
# It ignores SIGINT, which a terminal sends to the whole process group, and
# exits when its parent closes the pipe or exits.
_HELPER_SOURCE = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "sys.path.insert(0, sys.argv[1]); from beamtrack.clustering import _serve; _serve()"
)


# bytes of the length that precedes each pickled message on a _Pipe
_PREFIX_BYTES = 8


class _Pipe:
    """One end of an OS pipe that carries pickled objects, each after its length.

    The helper's framing: multiprocessing.connection.Connection does the
    same, but would load multiprocessing and socket into both processes.
    """

    def __init__(self, fd: int) -> None:
        self.fd = fd

    def send(self, obj) -> None:
        """Write obj's pickle after its length; raises BrokenPipeError once the reader is gone."""
        data = pickle.dumps(obj)
        view = memoryview(len(data).to_bytes(_PREFIX_BYTES, "big") + data)
        while view:
            view = view[os.write(self.fd, view) :]

    def recv(self):
        """The next object; raises EOFError if the pipe ends before a whole message."""
        size = int.from_bytes(self._read(_PREFIX_BYTES), "big")
        return pickle.loads(self._read(size))

    def _read(self, size: int) -> bytes:
        chunks = []
        while size:
            chunk = os.read(self.fd, size)
            if not chunk:
                raise EOFError("the pipe ended inside a message")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    def poll(self) -> bool:
        """Whether recv() would not block: a message has begun, or the pipe has ended."""
        import select  # loaded with subprocess, which started the helper

        poller = select.poll()  # unlike select.select, any fd number
        poller.register(self.fd, select.POLLIN)
        return bool(poller.poll(0))

    def close(self) -> None:
        """Close the fd; later calls do nothing."""
        fd, self.fd = self.fd, -1
        if fd >= 0:
            os.close(fd)


def _this_cpu() -> int:
    """The CPU the calling thread is running on: field 39 of its /proc stat."""
    with open("/proc/thread-self/stat", "rb") as stat:
        return int(stat.read().rsplit(b")", 1)[1].split()[36])


def _keep_off_this_cpu(pid: int) -> None:
    """Let process pid run on this thread's allowed CPUs but the one it is on now.

    Left to the scheduler, the helper and the thread that labels this
    process's own islands can share one CPU for a whole run. pid is left as
    it is when no other CPU is allowed, when /proc is missing, or when the
    kernel refuses the set.
    """
    try:
        cpu = _this_cpu()
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(pid, others)
    except OSError:
        pass


class _Helper:
    """A second process that labels islands for this one, over its stdin and stdout pipes.

    It is started by the first label() call, and takes islands once it has
    sent _READY after its imports; until then every island is labelled in
    this process. It runs off the CPU of the thread that started it
    (_keep_off_this_cpu). Once its pipe breaks it is closed and never used
    again. It is started with subprocess rather than multiprocessing: spawn
    re-runs a caller's unguarded __main__, and fork is unsafe beside the
    telemetry server's threads.
    """

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.lock = threading.Lock()  # one request on the pipe at a time
        self.process = None
        self.requests = self.replies = None
        self.is_ready = False
        self.broken = False

    def label(self, xyz: np.ndarray, islands: list, eps: float, min_pts: int, exact: bool):
        """The (rows, radius) islands of xyz, reordered, and the _island_labels of each.

        The helper labels its share (_split) while this process labels the
        rest. A call from a forked child, or while another thread's request
        is on the pipe, labels every island here.
        """
        if self.owner != os.getpid() or not self.lock.acquire(blocking=False):
            return islands, _label_islands(xyz, islands, eps, min_pts, exact)
        try:
            if not self.ready():
                return islands, _label_islands(xyz, islands, eps, min_pts, exact)
            mine, theirs = _split(islands)
            try:
                request = [(xyz.take(rows, axis=0), r) for rows, r in theirs]
                self.requests.send((eps, min_pts, exact, request))
            except BrokenPipeError:
                self.close()
                return islands, _label_islands(xyz, islands, eps, min_pts, exact)
            try:
                done = _label_islands(xyz, mine, eps, min_pts, exact)
                done += self.replies.recv()
            except EOFError:  # the helper is gone: its islands are labelled here
                self.close()
                done += _label_islands(xyz, theirs, eps, min_pts, exact)
            except BaseException:
                self.close()  # its reply, left unread, would answer the next request
                raise
            return mine + theirs, done
        finally:
            self.lock.release()

    def ready(self) -> bool:
        """Whether the helper has reported ready; starts it on the first call."""
        if self.is_ready or self.broken:
            return self.is_ready
        if self.process is None:
            self._start()
            return False
        try:
            if self.replies.poll():
                self.is_ready = self.replies.recv() == _READY
        except EOFError:  # it exited during its imports
            self.close()
        return self.is_ready

    def _start(self) -> None:
        import subprocess

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        down_read, down_write = os.pipe()
        up_read, up_write = os.pipe()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-c", _HELPER_SOURCE, package_root],
                stdin=down_read,
                stdout=up_write,
            )
        except OSError:  # no interpreter to run, or no process to be had
            os.close(down_write)
            os.close(up_read)
            self.broken = True
            return
        finally:
            os.close(down_read)
            os.close(up_write)
        _keep_off_this_cpu(self.process.pid)
        self.requests = _Pipe(down_write)
        self.replies = _Pipe(up_read)
        atexit.register(self.close)
        os.register_at_fork(after_in_child=self._close_in_child)

    def _close_in_child(self) -> None:
        """In a child forked from this process, close its copies of the pipes, and only those.

        The child's copy of the request pipe would otherwise keep the helper
        from seeing EOF when this process closes it, and close() here would
        kill the helper after its 1 s wait.
        """
        self.requests.close()
        self.replies.close()

    def close(self) -> None:
        """Close the pipes and reap the helper: it exits at EOF, or is killed after 1 s."""
        if self.owner != os.getpid() or self.process is None:
            return  # a forked child does not own its parent's helper
        import subprocess

        self.is_ready, self.broken = False, True
        self.requests.close()
        self.replies.close()
        try:
            self.process.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process = None


# this process's helper; no process runs until a cloud of two islands is labelled
_helper = _Helper()


def _serve() -> None:
    """The helper's loop: label each request's islands, until the parent closes the pipe."""
    _ckdtree()  # loaded before _READY, not at the first request
    requests = _Pipe(0)
    replies = _Pipe(os.dup(1))
    os.dup2(2, 1)  # a stray print goes to stderr, not into the pipe
    try:
        replies.send(_READY)
        while True:
            eps, min_pts, exact, islands = requests.recv()
            replies.send([_island_labels(xyz, eps, min_pts, r, exact) for xyz, r in islands])
    except (EOFError, BrokenPipeError):
        pass  # the parent closed its end or exited


def _cell_graph(xyz: np.ndarray, eps: float, min_pts: int, radius: float | None, exact: bool):
    """The cores of finite (n, 3) points, their cell graph and its border pairs.

    Core points within eps of each other always share a cluster, so the
    clusters' core memberships are the connected components of the core-core
    adjacency graph. Cores sharing a grid cell of side eps/2 are mutually
    within eps (see _number_cells), so each cell is one node and the
    component search runs on the far smaller cell graph. radius and exact
    are _neighbour_pairs'. Returns (core rows, cell of each core, cell count,
    edge cells a, edge cells b, border rows, cell of each border row's core
    end), a border row once per neighbouring core, or None if no point is a
    core. After the neighbour query each step is one pass over the pairs
    with no boolean-indexed copy of them; only the edge keys may be sorted.
    """
    pairs = _neighbour_pairs(xyz, eps, radius, exact)
    counts = np.bincount(pairs.ravel(), minlength=len(xyz)) + 1  # a point counts itself
    core_idx = np.flatnonzero(counts >= min_pts)
    if core_idx.size == 0:
        return None
    # Non-core points all get the sentinel cell n_cells.
    with np.errstate(over="ignore"):  # a core at inf cell sides is far (_number_cells)
        cell_of_core, n_cells = _number_cells(xyz.take(core_idx, axis=0) / (eps / 2))
    side = n_cells + 1
    # 32-bit cell ids halve the per-pair arrays while edge keys fit
    cell_of = np.full(len(xyz), n_cells, dtype=np.int32 if side * side < 2**31 else np.intp)
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
    row, col = np.divmod(key, side)
    both_core = (row < n_cells) & (col < n_cells)
    return core_idx, cell_of_core, n_cells, row[both_core], col[both_core], border, border_via


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


def _islands(xyz: np.ndarray, eps: float):
    """Yield (rows, wide): sets of rows of xyz that no pair within eps joins.

    Points more than 2 eps apart along an axis are in no pair, so a cloud
    sorted along its widest axis is cut at every such gap, and the slabs
    between cuts are grouped in order up to _ISLAND_POINTS points. A slab
    over the budget is cut again along its widest other axis that has a gap.
    A cloud wider than _TREE_EXTENT on some axis, too wide for one kd-tree,
    has its slabs kept apart (a group of them could be too wide again, and be
    cut back into itself), and any slab still too wide is cut again. wide
    marks a set that no axis cuts and that is too wide for a kd-tree, so
    every pair of it is tested. A narrow cloud within the budget is one
    island, unsorted.
    """
    # the spread over all axes bounds each axis's extent and costs far less;
    # Python floats overflow to inf without a warning
    too_wide = len(xyz) > 0 and float(xyz.max()) - float(xyz.min()) > _TREE_EXTENT
    todo = [(np.arange(len(xyz)), -1)]
    while todo:
        rows, cut_axis = todo.pop()
        if len(rows) <= _ISLAND_POINTS and not too_wide:
            yield rows, False
            continue
        # one column at a time: numpy reduces a column of an (n, 3) array far
        # faster than the array along axis 0
        coords = [xyz[:, axis].take(rows) for axis in range(3)]
        extent = [float(c.max()) - float(c.min()) for c in coords]
        wide = max(extent) > _TREE_EXTENT
        if len(rows) <= _ISLAND_POINTS and not wide:
            yield rows, False
            continue
        for axis in sorted(range(3), key=extent.__getitem__, reverse=True):
            if axis == cut_axis:  # a slab has no gap along the axis it was cut on
                continue
            order = np.argsort(coords[axis])
            with np.errstate(over="ignore"):
                cuts = np.flatnonzero(np.diff(coords[axis][order]) > 2.0 * eps) + 1
            if cuts.size:
                break
        else:
            yield rows, wide
            continue
        ranked = rows[order]
        ends = cuts.tolist() + [len(rows)]
        start = 0
        while start < len(rows):
            # the slabs up to the last end within the budget, at least one
            # slab, and exactly one in a cloud too wide for one kd-tree
            first = bisect.bisect_right(ends, start)
            last = first if too_wide else bisect.bisect_right(ends, start + _ISLAND_POINTS) - 1
            end = ends[max(first, last)]
            todo.append((ranked[start:end], axis))
            start = end


def _query_radius(eps: float) -> tuple[float, bool]:
    """The kd-tree query radius for eps, and whether its pairs need no square-root test.

    cKDTree keeps a pair when the float sum s = dx*dx + dy*dy + dz*dz is
    <= fl(r * r), which at r = eps differs from the square-root test
    fl(sqrt(s)) <= eps for s a few ulps above eps**2. The largest s whose
    square root rounds to <= eps is s_max; when some r has fl(r * r) == s_max
    (about half of all eps, 0.3 among them) a query at r returns exactly the
    pairs. Otherwise the query runs slightly wider and the pairs at the tie
    are tested with the square root (_within).
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
    if r * r == s_max:
        return r, True
    return r * (1.0 + 2.0**-40), False


def _neighbour_pairs(xyz: np.ndarray, eps: float, radius: float | None, exact: bool) -> np.ndarray:
    """(m, 2) index pairs i < j of the points with fl(sqrt(dx*dx + dy*dy + dz*dz)) <= eps.

    radius and exact are _query_radius(eps); a radius of None, for points too
    wide for one kd-tree, has every pair tested.
    """
    if radius is None:
        return _within(xyz, np.column_stack(np.triu_indices(len(xyz), 1)), eps)
    # The pair set does not depend on the tree's shape, only the time to find
    # it: larger leaves, midpoint splits and uncompacted nodes build and walk
    # these clouds fastest.
    tree = _ckdtree().cKDTree(xyz, leafsize=32, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    return pairs if exact else _within(xyz, pairs, eps)


# scipy's kd-tree extension, and the lock under which one thread loads it
_CKDTREE = "scipy.spatial._ckdtree"
_ckdtree_lock = threading.Lock()
# the modules the extension imports at load time, each a stand-in while it loads
_SCIPY = "scipy"
_SPARSE = "scipy.sparse"
_UTIL = "scipy._lib._util"


def _scipy_submodule(name: str):
    """The real scipy.<name>: the module __getattr__ of the scipy stand-in, which the extension keeps.

    While the stand-in is in sys.modules that is the submodule there, which
    for scipy.sparse is its stand-in; a dunder name is no submodule.
    """
    if name.startswith("__"):
        raise AttributeError(f"module {_SCIPY!r} has no attribute {name!r}")
    import importlib

    return importlib.import_module(f"{_SCIPY}.{name}")


def _ckdtree():
    """scipy's kd-tree extension module, loaded at the first call without the modules it does not use.

    `from scipy.spatial import cKDTree` runs the package's __init__, which
    also loads qhull with scipy.linalg and distance with scipy.special, so
    the extension is found in scipy's spatial directory, located without
    importing scipy, and loaded under its own name. Its own module-level
    imports would cost ~14 MB of RSS and ~0.1 s more: scipy, whose __init__
    loads subprocess, its build config and its C callback layer;
    scipy._lib._util for copy_if_needed (its array-API layer loads
    numpy.f2py, numpy.testing and numpy.ma); and scipy.sparse, read only by
    sparse_distance_matrix. So while the extension runs, each of the three
    not yet imported is a stand-in in sys.modules: the _util one holds
    copy_if_needed by scipy's rule, the scipy.sparse one nothing, and the
    scipy one is scipy's directories without the __init__. A submodule the
    extension imports from them, such as Cython's shared scipy._cyutility,
    loads as itself and stays; the extension keeps the scipy stand-in as its
    global, and each attribute read on it imports the real scipy.<name>, as
    sparse_distance_matrix reads scipy.sparse. Each stand-in is removed
    afterwards, so a later import gets the real module; another thread
    importing one during the load would get the stand-in. The extension
    stays in sys.modules, so a later import of scipy.spatial reuses it, and
    one already there is used as it is. Raises ImportError, naming the
    module, if scipy has no such extension or the extension imports another
    name from a stand-in.
    """
    with _ckdtree_lock:
        module = sys.modules.get(_CKDTREE)
        if module is not None:
            return module
        import importlib.machinery
        import importlib.util

        package = importlib.util.find_spec(_SCIPY)
        if package is None:
            raise ModuleNotFoundError(f"No module named {_SCIPY!r}", name=_SCIPY)
        spatial = [os.path.join(root, "spatial") for root in package.submodule_search_locations]
        found = importlib.machinery.PathFinder.find_spec("_ckdtree", spatial)
        if found is None:
            raise ImportError(f"no {_CKDTREE} extension in {os.pathsep.join(spatial)}", name=_CKDTREE)
        spec = importlib.util.spec_from_file_location(_CKDTREE, found.origin)
        module = importlib.util.module_from_spec(spec)
        scipy = types.ModuleType(_SCIPY)
        scipy.__path__ = package.submodule_search_locations
        scipy.__getattr__ = _scipy_submodule
        util = types.ModuleType(_UTIL)
        util.copy_if_needed = None if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else False
        stand_ins = {
            name: stand_in
            for name, stand_in in ((_SCIPY, scipy), (_SPARSE, types.ModuleType(_SPARSE)), (_UTIL, util))
            if name not in sys.modules
        }
        sys.modules.update(stand_ins)
        sys.modules[_CKDTREE] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_CKDTREE]
            raise
        finally:
            for name, stand_in in stand_ins.items():
                if sys.modules.get(name) is stand_in:
                    del sys.modules[name]
        return module


def _within(xyz: np.ndarray, pairs: np.ndarray, eps: float) -> np.ndarray:
    """The (m, 2) pairs whose fl(sqrt(dx*dx + dy*dy + dz*dz)) is <= eps."""
    d = xyz[pairs[:, 0]] - xyz[pairs[:, 1]]
    with np.errstate(over="ignore"):  # an inf distance is beyond eps
        return pairs[np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]) <= eps]


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
