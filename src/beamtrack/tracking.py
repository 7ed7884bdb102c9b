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
from scipy.optimize import linear_sum_assignment

from .clustering import Cluster
from .errors import ValidationError


@dataclass(frozen=True)
class ThresholdParams:
    v_mean_mps: float
    v_std_mps: float
    k_sigma: float = 3.0


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


def displacement_threshold(params: ThresholdParams, frame_time_s: float) -> float:
    """Maximum plausible core-point displacement in one frame."""
    if frame_time_s <= 0:
        raise ValidationError("frame_time_s must be > 0")
    if params.v_mean_mps < 0 or params.v_std_mps < 0:
        raise ValidationError("speed statistics must be >= 0")
    return (params.v_mean_mps + params.k_sigma * params.v_std_mps) * frame_time_s


# relative slack on the lower bound: a float fold of non-negative terms can sit
# below the real-valued optimum by a few ulps, never by this much
_BOUND_SLACK = 1.0 - 1e-12


def _optimum(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """linear_sum_assignment's (rows, cols), or None when no finite assignment exists."""
    try:
        return linear_sum_assignment(cost)
    except ValueError:  # "cost matrix is infeasible"
        return None


def _extend(
    cost: np.ndarray,
    chosen: list[tuple[int, int]],
    partial: float,
    first_row: int,
    free_cols: list[int],
    best: list,
) -> None:
    """Depth-first search for lex_min_assignment below the prefix chosen.

    Candidates (r, c) come in lexicographic order: rows from first_row up,
    then free columns ascending, so leaves arrive in sorted pair-list order.
    best is [total, pairs] and is updated in place.
    """
    n_rows = cost.shape[0]
    left = min(n_rows, cost.shape[1]) - len(chosen) - 1  # pairs after this one
    for r in range(first_row, n_rows - left):
        for c in free_cols:
            total = partial + cost[r, c]
            if total > best[0]:
                continue  # folds of non-negative terms never decrease
            pairs = chosen + [(r, c)]
            if not left:
                if total < best[0] or (total == best[0] and pairs < best[1]):
                    best[0], best[1] = total, pairs
                continue
            cols = [x for x in free_cols if x != c]
            sub = cost[r + 1 :, cols]
            found = _optimum(sub)
            if found is None or (total + sum(sub[found].tolist())) * _BOUND_SLACK > best[0]:
                continue
            _extend(cost, pairs, total, r + 1, cols, best)


def lex_min_assignment(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Exact least-cost assignment of a non-negative cost matrix, lexicographic ties.

    Returns the min(rows, cols) (row, col) pairs, ascending, whose entries
    summed left to right in row order (0.0 + ...) are least, and that sum.
    Among equal float sums the lexicographically smallest pair list wins.
    Returns ([], inf) when no assignment has a finite sum.

    The linear_sum_assignment optimum (Crouse, IEEE TAES 2016) is the first
    incumbent; a depth-first search in lexicographic order then cuts every
    branch whose partial sum, or whose partial sum plus the optimum of the
    rows and columns left (less a 1e-12 relative slack), exceeds the best sum.
    The run time grows exponentially only with the number of pairings that tie
    the optimum to within 1e-12; cluster cores of a radar cloud do not
    produce such ties.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return [], 0.0
    best: list = [math.inf, []]
    found = _optimum(cost)
    if found is not None:
        pairs = [(int(r), int(c)) for r, c in zip(*found)]
        total = 0.0
        for r, c in pairs:
            total += cost[r, c]
        if total < math.inf:
            best = [total, pairs]
    _extend(cost, [], 0.0, 0, list(range(cost.shape[1])), best)
    return best[1], best[0]


def match_clusters(prev: ClusterFrame, curr: ClusterFrame) -> Matching:
    """Exact min-cost injective matching of cluster core points across frames.

    Matches min(|prev|, |curr|) pairs minimizing the Euclidean core distances
    summed in sorted (prev_label, curr_label) order: exact least cost, with
    lexicographic ties, by lex_min_assignment. Among optimal assignments the
    sorted pair list that compares lexicographically smallest wins.
    """
    prev_sorted = sorted(prev.clusters, key=lambda c: c.label)
    curr_sorted = sorted(curr.clusters, key=lambda c: c.label)
    if not prev_sorted or not curr_sorted:
        return Matching(
            pairs=[],
            unmatched_prev=[c.label for c in prev_sorted],
            unmatched_curr=[c.label for c in curr_sorted],
            total_cost_m=0.0,
        )
    p_cores = np.array([c.core_point for c in prev_sorted])
    c_cores = np.array([c.core_point for c in curr_sorted])
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
    clusters simply disappear (no coasting). Returns the new frame and the
    advanced label counter.
    """
    if frame_time_s <= 0:
        raise ValidationError("frame_time_s must be > 0")
    out: list[Cluster] = []
    if prev is None or not prev.clusters:
        for c in curr_clusters:
            out.append(replace(c, label=next_label, velocity_mps=None))
            next_label += 1
        return ClusterFrame(frame_index=frame_index, clusters=out), next_label

    curr_frame = ClusterFrame(frame_index=frame_index, clusters=curr_clusters)
    matching = match_clusters(prev, curr_frame)
    prev_by_label = prev.by_label()
    curr_by_label = curr_frame.by_label()

    matched_curr = set()
    for prev_label, curr_label in matching.pairs:
        matched_curr.add(curr_label)
        p = prev_by_label[prev_label]
        c = curr_by_label[curr_label]
        disp = c.core_point - p.core_point
        if float(np.hypot(disp[0], disp[1])) >= threshold_m:
            continue  # implausible jump: delete
        out.append(replace(c, label=prev_label, velocity_mps=disp / frame_time_s))
    for c in curr_clusters:
        if c.label not in matched_curr:
            out.append(replace(c, label=next_label, velocity_mps=None))
            next_label += 1
    out.sort(key=lambda c: c.label)
    return ClusterFrame(frame_index=frame_index, clusters=out), next_label
