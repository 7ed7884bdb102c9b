"""Frame-to-frame cluster association and track label maintenance.

Consecutive frames are associated by an exact minimum-cost assignment on core
point distances. A matched cluster whose displacement is physically implausible
(at or beyond the walking-speed threshold) is deleted outright; survivors
inherit the previous label and gain a displacement velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import Cluster
from .errors import ValidationError

# fastest plausible walking speed: mean 1.4 m/s plus three standard deviations of 0.4 m/s
MAX_WALK_SPEED_MPS = 1.4 + 3.0 * 0.4


@dataclass
class ClusterFrame:
    frame_index: int
    clusters: list[Cluster]

    def by_label(self) -> dict[int, Cluster]:
        return {c.label: c for c in self.clusters}


@dataclass
class Matching:
    pairs: list[tuple[int, int]]  # (prev_label, curr_label), ascending by prev
    unmatched_prev: list[int]
    unmatched_curr: list[int]
    total_cost_m: float


def displacement_threshold(frame_time_s: float) -> float:
    """Maximum plausible core-point displacement in a frame: MAX_WALK_SPEED_MPS * frame_time_s."""
    if frame_time_s <= 0:
        raise ValidationError("frame_time_s must be > 0")
    return MAX_WALK_SPEED_MPS * frame_time_s


def _on_one_grid(cost: np.ndarray) -> list[list[int | None]]:
    """The finite entries of a non-negative cost matrix as integer multiples of one power of two.

    A float is an integer mantissa of 53 bits times a power of two, so taking
    the least such power over the nonzero entries as the unit makes every
    entry, and every sum or difference of entries, an exact Python int. An inf
    entry becomes None.
    """
    finite = np.isfinite(cost)
    mantissa, exponent = np.frexp(np.where(finite, cost, 0.0))
    mantissa = (mantissa * 2.0**53).astype(np.int64)
    # 1024 is frexp's largest exponent: a matrix of zeros shifts by nothing
    shift = np.maximum(exponent - exponent[mantissa != 0].min(initial=1024), 0)
    return np.where(finite, mantissa.astype(object) << shift.astype(object), None).tolist()


def _shortest_augmenting_paths(
    cost: list[list[int | None]],
) -> tuple[list[int], list[int], list[int]] | None:
    """Least-sum assignment of a rows <= cols integer matrix, with its dual potentials.

    Crouse's shortest augmenting path method (IEEE TAES 2016): one Dijkstra
    search per row over the reduced costs cost[i][j] - u[i] - v[j], after which
    the potentials keep every reduced cost non-negative and the assigned ones
    zero. A None entry is a forbidden pair. Returns (column of each row, u, v),
    or None when some row cannot be assigned at all. v starts at 0 and only
    falls; a column left unassigned keeps v == 0.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    u = [0] * n_rows
    v = [0] * n_cols
    col_of = [-1] * n_rows
    row_of = [-1] * n_cols
    for start in range(n_rows):
        dist: list[int | float] = [math.inf] * n_cols  # inf is only compared, never added
        via = [-1] * n_cols
        todo = list(range(n_cols))
        scanned: list[int] = []  # columns in the order their distance became final
        reach = 0
        i = start
        while True:
            ui, row = u[i], cost[i]
            best, pick = math.inf, -1
            for k, j in enumerate(todo):
                c = row[j]
                if c is not None:
                    d = reach + c - ui - v[j]
                    if d < dist[j]:
                        dist[j], via[j] = d, i
                d = dist[j]
                if d < best or (d == best and row_of[j] < 0):
                    best, pick = d, k
            if best == math.inf:
                return None
            reach = best
            j = todo[pick]
            todo[pick] = todo[-1]
            todo.pop()
            scanned.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
        u[start] += reach
        for j in scanned[:-1]:
            u[row_of[j]] += reach - dist[j]
        for j in scanned:
            v[j] -= reach - dist[j]
        while True:  # augment along the path back to start
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of, u, v


def _alternating(by_col: list[list[int]], col_of: list[int], r: int, first: int) -> dict[int, int]:
    """The columns row r can take in a perfect matching that moves only rows >= first.

    by_col[y] lists the rows with a tight entry in column y, and col_of is a
    perfect matching of tight entries. Returns nxt, keyed by those columns:
    when row r takes x, the holder of x moves to nxt[x], that column's holder
    to its nxt, and so on until one takes row r's own column c0 (nxt[c0] ==
    c0). One breadth-first search backwards from c0 finds them all.
    """
    c0 = col_of[r]
    nxt = {c0: c0}
    queue = [c0]
    for y in queue:
        for i in by_col[y]:
            if i >= first and i != r and (x := col_of[i]) not in nxt:
                nxt[x] = y
                queue.append(x)
    return nxt


def _move(col_of: list[int], row_of: list[int], nxt: dict[int, int], r: int, c: int) -> None:
    """Give row r column c, shifting the holders along nxt (see _alternating), in place."""
    c0 = col_of[r]
    x, holder = c, row_of[c]
    while x != c0:
        y = nxt[x]
        after = row_of[y]
        col_of[holder], row_of[y] = y, holder
        x, holder = y, after
    col_of[r], row_of[c] = c, r


def lex_min_assignment(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Exact least-cost assignment of a non-negative cost matrix, lexicographic ties.

    Returns the min(rows, cols) (row, col) pairs, ascending, whose entries
    have the least exact sum, ties going to the lexicographically smallest
    pair list, and the float fold of those entries in row order (0.0 + ...).
    An inf entry is a forbidden pair. Returns ([], inf) when no assignment
    has a finite sum, and when the fold of the one chosen overflows. Raises
    ValueError on a NaN or negative entry.

    The entries are put on one power-of-two grid as Python ints (_on_one_grid),
    so every sum below is exact. A shortest augmenting path solve gives an
    optimum and dual potentials, and an assignment is optimal exactly when
    it uses only entries of reduced cost 0 (the tight ones). The tight
    entries are padded square with zero-cost dummy rows or columns of dual 0,
    and rows are fixed in order, each to the lowest column that still
    admits a perfect matching of tight entries (one breadth-first search per
    row, _alternating), a dummy column, which leaves the row unused, coming
    last. That takes O(rows * cols * max(rows, cols)) steps, however many
    optima tie.
    """
    cost = np.asarray(cost, dtype=float)
    if not (cost >= 0.0).all():
        raise ValueError("assignment costs must be non-negative and not NaN")
    if cost.size == 0:
        return [], 0.0
    m, k = cost.shape
    n = max(m, k)
    grid = _on_one_grid(cost)
    if m > k:
        solved = _shortest_augmenting_paths([list(column) for column in zip(*grid)])
        if solved is None:
            return [], math.inf
        assigned, col_dual, row_dual = solved
        col_of = [-1] * m
        for c, r in enumerate(assigned):
            col_of[r] = c
    else:
        solved = _shortest_augmenting_paths(grid)
        if solved is None:
            return [], math.inf
        col_of, row_dual, col_dual = solved

    by_row = [
        [c for c, (x, vc) in enumerate(zip(row, col_dual)) if x is not None and x - vc == ur]
        for row, ur in zip(grid, row_dual)
    ]
    # pad square (a dummy entry's reduced cost is minus its real partner's
    # dual) and fix the rows in order
    for r in range(m):
        if row_dual[r] == 0:
            by_row[r] += range(k, n)
    free = [c for c in range(k) if col_dual[c] == 0]
    by_row += [free] * (n - m)
    by_col: list[list[int]] = [[] for _ in range(n)]
    for r, cols in enumerate(by_row):
        for c in cols:
            by_col[c].append(r)
    unused = iter(sorted(set(range(n)).difference(col_of)))
    col_of = [c if c >= 0 else next(unused) for c in col_of] + list(unused)
    row_of = [0] * n
    for r, c in enumerate(col_of):
        row_of[c] = r
    for r in range(m):
        if by_row[r][0] != col_of[r]:  # else r already holds its lowest tight column
            nxt = _alternating(by_col, col_of, r, r + 1)
            _move(col_of, row_of, nxt, r, next(c for c in by_row[r] if c in nxt))
    pairs = [(r, c) for r, c in enumerate(col_of[:m]) if 0 <= c < k]
    rows = cost.tolist()
    total = 0.0
    for r, c in pairs:
        total += rows[r][c]
    if total == math.inf:
        return [], math.inf
    return pairs, total


def match_clusters(prev: ClusterFrame, curr: ClusterFrame) -> Matching:
    """Exact min-cost injective matching of cluster core points across frames.

    Matches min(|prev|, |curr|) pairs whose Euclidean core distances have the
    least exact sum, by lex_min_assignment: among assignments of equal sum the
    sorted (prev_label, curr_label) pair list that compares lexicographically
    smallest wins. total_cost_m is their distances folded in that order.
    """
    prev_sorted = sorted(prev.clusters, key=lambda c: c.label)
    curr_sorted = sorted(curr.clusters, key=lambda c: c.label)
    p_cores = np.reshape([c.core_point for c in prev_sorted], (-1, 2))
    c_cores = np.reshape([c.core_point for c in curr_sorted], (-1, 2))
    diff = p_cores[:, None, :] - c_cores[None, :, :]
    best_pairs, total = lex_min_assignment(np.sqrt(np.sum(diff * diff, axis=2)))

    pairs = [(prev_sorted[r].label, curr_sorted[c].label) for r, c in best_pairs]
    matched_prev = {p for p, _ in pairs}
    matched_curr = {c for _, c in pairs}
    return Matching(
        pairs=pairs,
        unmatched_prev=[c.label for c in prev_sorted if c.label not in matched_prev],
        unmatched_curr=[c.label for c in curr_sorted if c.label not in matched_curr],
        total_cost_m=total,
    )


def update_clusters(
    prev: ClusterFrame | None,
    curr_clusters: list[Cluster],
    threshold_m: float,
    frame_time_s: float,
    next_label: int,
    frame_index: int,
) -> tuple[ClusterFrame, int]:
    """Carry track labels from the previous frame onto this frame's clusters.

    With no previous clusters, every current cluster is adopted under a fresh
    label with no velocity. Otherwise matched clusters that moved less than
    threshold_m inherit the previous label and get a displacement velocity;
    matched clusters at or beyond the threshold are deleted as implausible
    jumps; unmatched current clusters get fresh labels. Unmatched previous
    clusters simply disappear (no coasting). Only labels and cores are read;
    the other fields pass through as given. Returns the new frame and the
    advanced label counter.
    """
    if frame_time_s <= 0:
        raise ValidationError("frame_time_s must be > 0")
    if prev is None:
        prev = ClusterFrame(frame_index=frame_index, clusters=[])
    curr_frame = ClusterFrame(frame_index=frame_index, clusters=curr_clusters)
    matching = match_clusters(prev, curr_frame)
    prev_by_label = prev.by_label()
    curr_by_label = curr_frame.by_label()

    out: list[Cluster] = []
    for prev_label, curr_label in matching.pairs:
        p = prev_by_label[prev_label]
        c = curr_by_label[curr_label]
        disp = c.core_point - p.core_point
        if float(np.hypot(disp[0], disp[1])) >= threshold_m:
            continue  # implausible jump: delete
        out.append(replace(c, label=prev_label, velocity_mps=disp / frame_time_s))
    unmatched = set(matching.unmatched_curr)
    for c in curr_clusters:
        if c.label in unmatched:
            out.append(replace(c, label=next_label, velocity_mps=None))
            next_label += 1
    out.sort(key=lambda c: c.label)
    return ClusterFrame(frame_index=frame_index, clusters=out), next_label
