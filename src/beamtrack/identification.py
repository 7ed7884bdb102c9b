"""Binding radar clusters to IMU-bearing clients by velocity agreement."""

from __future__ import annotations

import numpy as np

from .errors import IdentificationError
from .tracking import lex_min_assignment

# identification runs inside this early frame window, then only on error
WINDOW_FIRST_FRAME = 2
WINDOW_LAST_FRAME = 5


def should_identify(frame_index: int, error_flag: bool) -> bool:
    """True when identification must run this frame.

    The early window is frames [2, 5] inclusive; outside the window
    identification runs only when the error flag is raised.
    """
    return error_flag or WINDOW_FIRST_FRAME <= frame_index <= WINDOW_LAST_FRAME


def identify_clients(
    cluster_velocities: list[tuple[int, np.ndarray]],
    client_velocities: dict[int, np.ndarray],
) -> dict[int, int]:
    """Bind each client to the cluster whose velocity matches its IMU velocity.

    The N x n case of lex_min_assignment: rows are the clients in the
    mapping's order, columns are clusters in ascending label order, entries
    ||v_cluster - v_client||. So the distinct labels bound have the least
    exact sum of mismatches, and ties go to the lexicographically lowest
    sequence of labels in client order. Returns client id -> cluster label.
    Raises IdentificationError when fewer clusters than clients carry a
    velocity, when a velocity is not finite, when no assignment has a finite
    cost, or when the least one's mismatches summed in client order overflow.
    """
    if len(cluster_velocities) < len(client_velocities):
        raise IdentificationError(
            f"need at least {len(client_velocities)} velocity-bearing clusters,"
            f" got {len(cluster_velocities)}"
        )
    entries = sorted(
        ((label, np.asarray(v, dtype=float)) for label, v in cluster_velocities),
        key=lambda e: e[0],
    )
    clients = {cid: np.asarray(v, dtype=float) for cid, v in client_velocities.items()}
    for cid, v in clients.items():
        if not np.isfinite(v).all():
            raise IdentificationError(f"client {cid} velocity is not finite: {v.tolist()}")
    for label, v in entries:
        if not np.isfinite(v).all():
            raise IdentificationError(f"cluster {label} velocity is not finite: {v.tolist()}")

    cost = np.array(
        [[float(np.linalg.norm(v - client)) for _, v in entries] for client in clients.values()]
    )
    pairs, _ = lex_min_assignment(cost)
    ids = list(clients)
    if len(pairs) < len(ids):  # finite velocities whose distances overflow
        raise IdentificationError("no cluster pair has a finite velocity mismatch")
    return {ids[row]: entries[col][0] for row, col in pairs}
