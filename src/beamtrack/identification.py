"""Binding radar clusters to IMU-bearing clients by velocity agreement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentificationError
from .tracking import lex_min_assignment

# identification runs inside this early frame window, then only on error
WINDOW_FIRST_FRAME = 2
WINDOW_LAST_FRAME = 5


@dataclass
class ClientBinding:
    client_id: int
    cluster_label: int
    bound_at_frame: int


def should_identify(frame_index: int, error_flag: bool) -> bool:
    """True when identification must run this frame.

    The early window is frames [2, 5] inclusive; outside the window
    identification runs only when the error flag is raised.
    """
    return error_flag or WINDOW_FIRST_FRAME <= frame_index <= WINDOW_LAST_FRAME


def identify_clients(
    cluster_velocities: list[tuple[int, np.ndarray]],
    client_velocities: list[np.ndarray],
    frame_index: int,
) -> tuple[ClientBinding, ClientBinding]:
    """Assign each client the cluster whose velocity matches its IMU velocity.

    The 2 x n case of lex_min_assignment: rows are clients 0 and 1, columns
    are clusters in ascending label order, entries ||v_cluster - v_client||.
    So the labels i != j minimize ||v_cluster(i) - v_client(0)|| +
    ||v_cluster(j) - v_client(1)||, and ties go to the lexicographically
    lowest pair (i, j). Raises IdentificationError when fewer than two clusters
    carry a velocity, when a velocity is not finite, or when no pair has a
    finite cost.
    """
    if len(client_velocities) != 2:
        raise ValueError(f"expected exactly 2 client velocities, got {len(client_velocities)}")
    if len(cluster_velocities) < 2:
        raise IdentificationError(
            f"need at least 2 velocity-bearing clusters, got {len(cluster_velocities)}"
        )
    entries = sorted(
        ((label, np.asarray(v, dtype=float)) for label, v in cluster_velocities),
        key=lambda e: e[0],
    )
    clients = [np.asarray(v, dtype=float) for v in client_velocities]
    for cid, v in enumerate(clients):
        if not np.isfinite(v).all():
            raise IdentificationError(f"client {cid} velocity is not finite: {v.tolist()}")
    for label, v in entries:
        if not np.isfinite(v).all():
            raise IdentificationError(f"cluster {label} velocity is not finite: {v.tolist()}")

    cost = np.array([[float(np.linalg.norm(v - client)) for _, v in entries] for client in clients])
    pairs, _ = lex_min_assignment(cost)
    if not pairs:  # finite velocities whose distances overflow
        raise IdentificationError("no cluster pair has a finite velocity mismatch")
    return tuple(
        ClientBinding(client_id=cid, cluster_label=entries[col][0], bound_at_frame=frame_index)
        for cid, col in pairs
    )
