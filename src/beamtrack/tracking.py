"""Frame-to-frame cluster association and track label maintenance.

Consecutive frames are associated by an exact minimum-cost assignment on core
point distances. A matched cluster whose displacement is physically implausible
(at or beyond the walking-speed threshold) is deleted outright; survivors
inherit the previous label and gain a displacement velocity.
"""

from __future__ import annotations

import math
import sys
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


# relative slack between a float fold of non-negative terms and their real sum:
# a fold of n terms sits within n * 2**-53 of it, far inside 1e-12 for the
# fewer than 4,000 rows or columns this module assumes
_BOUND_SLACK = 1.0 - 1e-12


def _shortest_augmenting_paths(
    cost: list[list[float]],
) -> tuple[list[int], list[float], list[float]] | None:
    """Least real-sum assignment of a rows <= cols matrix, with its dual potentials.

    Crouse's shortest augmenting path method (IEEE TAES 2016): one Dijkstra
    search per row over the reduced costs cost[i][j] - u[i] - v[j], after which
    the potentials keep every reduced cost non-negative and the assigned ones
    zero. Returns (column of each row, u, v), or None when some row cannot be
    assigned at a finite cost. v starts at 0 and only falls; a column left
    unassigned keeps v == 0.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    col_of = [-1] * n_rows
    row_of = [-1] * n_cols
    for start in range(n_rows):
        dist = [math.inf] * n_cols
        via = [-1] * n_cols
        todo = list(range(n_cols))
        scanned: list[int] = []  # columns in the order their distance became final
        reach = 0.0
        i = start
        while True:
            ui, row = u[i], cost[i]
            best, pick = math.inf, -1
            for k, j in enumerate(todo):
                d = reach + row[j] - ui - v[j]
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


def _exact_sums(values: list[float], n: int) -> bool:
    """True when all values are multiples of one power of two g and 4 n |value| < 2**53 g.

    Then every sum or difference of up to 4 n of them is exact in float64.
    """
    top = 4 * n * max(map(abs, values))
    if not top < math.inf:
        return False
    grid = math.ldexp(1.0, math.frexp(top)[1] - 53)
    return all(math.fmod(x, grid) == 0.0 for x in values)


def _one_fold(costs: list[list[float]], by_row: list[list[int]], k: int) -> bool:
    """True when every perfect matching of the tight entries by_row of costs folds to one sum.

    A fold rises with each of its terms, so every such fold lies between the
    folds of each row's least and of each row's greatest tight cost; they
    are one when those two are. With more rows than the k real columns, rows
    may go unused instead, and every fold is one when all tight entries in
    real columns share one cost.
    """
    low = high = 0.0
    for r, cols in enumerate(by_row):
        on = [costs[r][c] for c in cols]
        low += min(on)
        high += max(on)
    real = {costs[r][c] for r, cols in enumerate(by_row) for c in cols if c < k}
    return low == high or len(real) == 1


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


def _tie_search(
    cost: list[list[float]],
    by_row: list[list[int]],
    by_col: list[list[int]],
    col_of: list[int],
    row_dual: list[float],
    col_dual: list[float],
    floor: float,
    allow: float,
    exact: bool,
) -> tuple[list[tuple[int, int]], float]:
    """lex_min_assignment's search among the perfect matchings of the tight entries.

    cost is m x k; by_row and by_col list the tight entries of it padded to
    n x n with dummy rows or columns of cost 0 and dual 0, and col_of is one
    of their perfect matchings. Rows are fixed in order, each to the lowest
    column _alternating allows, so the first matching reached is the
    lexicographic least and no branch is a dead end. When exact, every
    perfect matching of the tight entries folds to the same sum, so that
    first one is returned. Otherwise the search goes on, cutting each branch
    whose fold cannot fall below the best found: the real sum of the rows
    left is at least the dual potentials of those rows and of the columns
    left, plus floor (the least reduced cost, <= 0) per row, less allow for
    rounding. Later leaves are lexicographically larger, so a tie with the
    best is cut too.
    """
    m, k = len(cost), len(cost[0])
    n = len(col_of)
    row_rest = [math.fsum(row_dual[r:]) for r in range(n + 1)]
    best: list = [math.inf, None]

    def descend(r: int, partial: float, col_of: list[int], row_of: list[int]) -> None:
        if r == m:  # any dummy rows take the columns left over
            if best[1] is None or partial < best[0]:
                best[0], best[1] = partial, col_of[:m]
            return
        nxt = _alternating(by_col, col_of, r, r + 1)
        free_dual = math.fsum(col_dual[x] for x in col_of[r:])
        for c in by_row[r]:
            if c not in nxt:
                continue
            fold = partial + cost[r][c] if c < k else partial
            if best[1] is not None:
                rest = row_rest[r + 1] + (free_dual - col_dual[c]) + (n - r - 1) * floor - allow
                if (fold * _BOUND_SLACK + rest) * _BOUND_SLACK >= best[0]:
                    continue
            cols, holders = col_of[:], row_of[:]
            _move(cols, holders, nxt, r, c)
            descend(r + 1, fold, cols, holders)
            if exact or c >= k:  # dummy columns are alike: one will do
                return

    row_of = [0] * n
    for r, c in enumerate(col_of):
        row_of[c] = r
    descend(0, 0.0, col_of, row_of)
    if best[0] == math.inf:
        return [], math.inf
    return [(r, c) for r, c in enumerate(best[1]) if c < k], best[0]


def lex_min_assignment(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Exact least-cost assignment of a non-negative cost matrix, lexicographic ties.

    Returns the min(rows, cols) (row, col) pairs, ascending, whose entries
    summed left to right in row order (0.0 + ...) are least, and that sum as
    a float. Among equal float sums the lexicographically smallest pair list
    wins. An inf entry is a forbidden pair. Returns ([], inf) when no
    assignment has a finite sum, and when the real-valued optimum's fold
    overflows. Raises ValueError on a NaN or negative entry.

    A shortest augmenting path solve gives the real-valued optimum and dual
    potentials, hence every entry's reduced cost. An assignment that folds no
    higher than the optimum's fold has a real sum within the 1e-12 relative
    slack of the optimum's, so it uses only entries whose reduced cost lies
    within that slack: the tight subgraph. When the optimum is the tight
    subgraph's only full matching, as in the radar frames of the benchmark
    workloads, it is returned at once, after O(rows * cols * min(rows, cols))
    steps.

    Otherwise the search stays inside the tight subgraph, padded square with
    zero-cost dummy rows or columns, and fixes rows in order, each to the
    lowest column that still admits a full matching (one breadth-first search
    per row). When all those matchings fold to one sum (each row has one cost
    on the subgraph, or all its real entries do, or the tight entries and the
    potentials are multiples of one power of two few enough bits apart for
    every sum to be exact, as small integer costs are), the first one fixed
    is the answer, in polynomial time. Otherwise the search branches,
    cut by a bound from the potentials, over the tight-subgraph assignments
    whose real sums lie within the slack of the optimum, near-ties whose row
    order folds can differ by ulps; that branching can grow exponentially
    with their number.
    """
    cost = np.asarray(cost, dtype=float)
    if not (cost >= 0.0).all():
        raise ValueError("assignment costs must be non-negative and not NaN")
    if cost.size == 0:
        return [], 0.0
    m, k = cost.shape
    n = max(m, k)
    rows = cost.tolist()
    if m > k:
        solved = _shortest_augmenting_paths(cost.T.tolist())
        if solved is None:
            return [], math.inf
        assigned, col_dual, row_dual = solved
        col_of = [-1] * m
        for c, r in enumerate(assigned):
            col_of[r] = c
    else:
        solved = _shortest_augmenting_paths(rows)
        if solved is None:
            return [], math.inf
        col_of, row_dual, col_dual = solved
    pairs = [(r, c) for r, c in enumerate(col_of) if c >= 0]
    total = 0.0
    for r, c in pairs:
        total += rows[r][c]
    if total == math.inf:
        return [], math.inf

    # the n x n matrix padded with dummy rows or columns of cost 0 and dual 0
    row_dual = row_dual + [0.0] * (n - m)
    col_dual = col_dual + [0.0] * (n - k)
    padded = cost
    if m != k:
        padded = np.zeros((n, n))
        padded[:m, :k] = cost
    reduced = padded - np.array(row_dual)[:, None] - np.array(col_dual)
    # every rounding below is far inside this allowance
    allow = 1e-12 * n * (max(map(abs, row_dual)) + max(map(abs, col_dual)) + total)
    floor = min(0.0, float(reduced.min()))
    slack = total / _BOUND_SLACK - math.fsum(row_dual + col_dual) - (n - 1) * floor + allow
    tight = reduced <= (slack if slack < math.inf else sys.float_info.max)
    # the optimum's own pairs are tight; when no other real pair is, it is the only one
    if np.count_nonzero(tight[:m, :k]) == len(pairs):
        return pairs, total

    by_row: list[list[int]] = [[] for _ in range(n)]
    by_col: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(*(index.tolist() for index in np.nonzero(tight))):
        by_row[i].append(j)
        by_col[j].append(i)
    unused = iter(sorted(set(range(n)).difference(col_of)))
    col_of = [c if c >= 0 else next(unused) for c in col_of] + list(unused)
    # nor is there another when no other tight real pair lies on an
    # alternating cycle with the optimum
    for r in range(m):
        others = [c for c in by_row[r] if c < k and c != col_of[r]]
        if others and not _alternating(by_col, col_of, r, 0).keys().isdisjoint(others):
            break
    else:
        return pairs, total
    exact = _one_fold(padded.tolist(), by_row, k) or (
        not reduced[tight].any() and _exact_sums(padded[tight].tolist() + row_dual + col_dual, n)
    )
    return _tie_search(rows, by_row, by_col, col_of, row_dual, col_dual, floor, allow, exact)


def match_clusters(prev: ClusterFrame, curr: ClusterFrame) -> Matching:
    """Exact min-cost injective matching of cluster core points across frames.

    Matches min(|prev|, |curr|) pairs minimizing the Euclidean core distances
    summed in sorted (prev_label, curr_label) order: exact least cost, with
    lexicographic ties, by lex_min_assignment. Among optimal assignments the
    sorted pair list that compares lexicographically smallest wins.
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
