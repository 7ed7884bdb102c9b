"""Output checks computed apart from the program.

Each check takes the program's outputs (cluster lists, frame-log records,
digests) and returns a list of failure messages; an empty list means the check
passed. Nothing here calls into ``beamtrack``: the references are brute force
or first-principles geometry, so agreement is evidence.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque

import numpy as np

# a correctly bound client's filtered track stays within this RMS of its walk;
# a wrong binding puts it metres away
PATH_RMS_BOUND_M = 0.05

# the beam grid the pipeline uses by default: 60 x 30 degrees, 16 x 4 sectors
AZ_SPAN_DEG = 60.0
EL_SPAN_DEG = 30.0
N_AZ = 16
N_EL = 4
BEAMSPACE_HALF_DEG = 90.0

_UNSEEN = -2
_NOISE = -1


# --------------------------------------------------------------------------
# clustering


def brute_force_dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Textbook sequential DBSCAN over an explicit n x n neighbour matrix.

    Scans points in index order and grows a cluster from each unvisited core
    point; a border point keeps the first cluster that reaches it. Returns the
    (n,) label array, -1 for noise.
    """
    xyz = np.asarray(points, dtype=float)[:, :3]
    n = len(xyz)
    adjacent = np.zeros((n, n), dtype=bool)
    for start in range(0, n, 256):
        block = xyz[start : start + 256]
        d2 = ((block[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=2)
        adjacent[start : start + 256] = np.sqrt(d2) <= eps
    is_core = adjacent.sum(axis=1) >= min_pts  # a point is its own neighbour
    labels = np.full(n, _UNSEEN, dtype=int)
    n_clusters = 0
    for i in range(n):
        if labels[i] != _UNSEEN:
            continue
        if not is_core[i]:
            labels[i] = _NOISE
            continue
        label = n_clusters
        n_clusters += 1
        labels[i] = label
        queue = deque([i])
        while queue:
            j = queue.popleft()
            if not is_core[j]:
                continue
            nb = np.flatnonzero(adjacent[j])
            fresh = nb[labels[nb] == _UNSEEN]
            labels[nb[labels[nb] == _NOISE]] = label
            labels[fresh] = label
            queue.extend(fresh.tolist())
    return labels


def check_dbscan_partition(points, eps: float, min_pts: int, clusters, noise) -> list[str]:
    """The program's clusters and noise equal the brute-force partition, labels included."""
    n = len(points)
    got = np.full(n, _UNSEEN, dtype=int)
    for c in clusters:
        got[np.asarray(c.member_indices, dtype=int)] = c.label
    got[np.asarray(noise, dtype=int)] = _NOISE
    want = brute_force_dbscan(points, eps, min_pts)
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = int(bad[0])
        return [
            f"dbscan partition differs from brute force at {bad.size} of {n} points "
            f"(point {i}: got {got[i]}, want {want[i]})"
        ]
    return []


# --------------------------------------------------------------------------
# tracking accuracy


def point_to_polyline_m(point, waypoints) -> float:
    """Distance from a 2-D point to the nearest segment of a polyline."""
    px, py = float(point[0]), float(point[1])
    best = math.inf
    for (ax, ay), (bx, by) in zip(waypoints[:-1], waypoints[1:]):
        dx, dy = bx - ax, by - ay
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        best = min(best, math.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    return best


def path_rms_m(positions, waypoints) -> float:
    """RMS distance of a track's positions to the walked polyline."""
    d = [point_to_polyline_m(p, waypoints) for p in positions]
    if not d:
        raise ValueError("no positions to score")
    return math.sqrt(sum(x * x for x in d) / len(d))


def check_path_rms(rms_by_client: dict, label: str) -> list[str]:
    return [
        f"{label}: client {cid} path RMS {rms:.4f} m exceeds {PATH_RMS_BOUND_M} m"
        for cid, rms in sorted(rms_by_client.items())
        if not rms < PATH_RMS_BOUND_M
    ]


def track_positions(records, client_id: int) -> list:
    """The filtered positions of one client across a run's frame-log records."""
    out = []
    for rec in records:
        for c in rec["clients"]:
            if c["id"] == client_id and c["kf_position"] is not None:
                out.append(c["kf_position"])
    return out


# --------------------------------------------------------------------------
# identification


def check_final_binding(record: dict, label: str) -> list[str]:
    """Each client is bound to the cluster whose core lies nearest its true position."""
    truth = {t["id"]: t["position"] for t in record["truth"]}
    failures = []
    for c in record["clients"]:
        pos = truth[c["id"]]
        nearest = min(
            record["clusters"],
            key=lambda k: math.hypot(k["core"][0] - pos[0], k["core"][1] - pos[1]),
            default=None,
        )
        want = None if nearest is None else nearest["label"]
        if c["bound_label"] != want:
            failures.append(
                f"{label}: client {c['id']} ends bound to cluster {c['bound_label']}, "
                f"nearest to its true position is {want}"
            )
    return failures


# --------------------------------------------------------------------------
# beam selection


def bearing_deg(own_xy, heading_rad: float, peer_xy) -> float:
    """Bearing of the peer from a client's heading, degrees in (-180, 180]."""
    a = math.degrees(math.atan2(peer_xy[1] - own_xy[1], peer_xy[0] - own_xy[0]) - heading_rad)
    a = math.fmod(a, 360.0)
    if a > 180.0:
        a -= 360.0
    elif a <= -180.0:
        a += 360.0
    return a


def grid_bin(angle_deg: float, span_deg: float, n: int) -> int:
    """Index of the uniform bin (lower edge inclusive) holding an angle, clamped."""
    pitch = span_deg / n
    return min(max(int(math.floor((angle_deg + span_deg / 2.0) / pitch)), 0), n - 1)


def _bins_holding(angle_deg: float, span_deg: float, n: int, tol: float = 1e-9) -> set[int]:
    # an angle within tol of a bin edge may fall on either side
    return {grid_bin(angle_deg - tol, span_deg, n), grid_bin(angle_deg + tol, span_deg, n)}


def check_sectors(record: dict, label: str, elevation_deg: float = 0.0) -> list[str]:
    """Every reported sector is the grid bin holding the bearing recomputed from the log."""
    clients = record["clients"]
    failures = []
    for own in clients:
        if own["bearing_deg"] is None:
            if own["sector"] is not None:
                failures.append(f"{label}: client {own['id']} has a sector but no bearing")
            continue
        peers = [c for c in clients if c["id"] != own["id"]]
        if len(peers) != 1 or own["kf_position"] is None or peers[0]["kf_position"] is None:
            failures.append(f"{label}: client {own['id']} has a bearing without two tracks")
            continue
        b = bearing_deg(own["kf_position"], own["heading_rad"], peers[0]["kf_position"])
        where = f"{label}: client {own['id']}"
        if abs(b - own["bearing_deg"]) > 1e-9:
            failures.append(f"{where} logs bearing {own['bearing_deg']}, recomputed {b}")
            continue
        reachable = abs(b) <= BEAMSPACE_HALF_DEG
        if own["in_beamspace"] != reachable:
            failures.append(f"{where} in_beamspace {own['in_beamspace']} at bearing {b}")
        if not reachable:
            if own["sector"] is not None:
                failures.append(f"{where} reports sector {own['sector']} outside the beamspace")
            continue
        # the elevation is given exactly; only the recomputed bearing may sit
        # within rounding of a bin edge
        row = grid_bin(elevation_deg, EL_SPAN_DEG, N_EL)
        allowed = {row * N_AZ + c for c in _bins_holding(b, AZ_SPAN_DEG, N_AZ)}
        if own["sector"] not in allowed:
            failures.append(
                f"{where} reports sector {own['sector']} for bearing {b:.6f}, "
                f"the grid bin is {sorted(allowed)}"
            )
        if own["clamped"] != (abs(b) > AZ_SPAN_DEG / 2.0 or abs(elevation_deg) > EL_SPAN_DEG / 2.0):
            failures.append(f"{where} clamped {own['clamped']} at bearing {b}")
    return failures


# --------------------------------------------------------------------------
# frame identity


def record_digest(record: dict) -> str:
    """Digest of one frame record in the frame log's canonical JSON form."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def pipeline_part(record: dict) -> dict:
    """A logged frame record without what run_scenario adds (truth, scan baseline)."""
    rec = {k: v for k, v in record.items() if k != "truth"}
    rec["clients"] = [
        {k: v for k, v in c.items() if k != "beamscan_sector"} for c in record["clients"]
    ]
    return rec


def check_same_frames(want: list[str], got: list[str], label: str) -> list[str]:
    """Two runs over the same inputs produced the same frame records."""
    if len(want) != len(got):
        return [f"{label}: {len(got)} frames against {len(want)}"]
    for k, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return [f"{label}: frame {k} differs"]
    return []
