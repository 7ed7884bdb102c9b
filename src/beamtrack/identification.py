"""Binding radar clusters to IMU-bearing clients by velocity agreement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentificationError

# identification runs inside this early frame window, then only on error
WINDOW_FIRST_FRAME = 2
WINDOW_LAST_FRAME = 5


@dataclass(frozen=True)
class IdentificationGate:
    frame_index: int
    error_flag: bool


@dataclass
class ClientBinding:
    client_id: int
    cluster_label: int
    bound_at_frame: int


def should_identify(gate: IdentificationGate, endpoints_only: bool = False) -> bool:
    """True when identification must run this frame.

    The early window is frames [2, 5] inclusive (endpoints_only restricts it to
    exactly frames 2 and 5); outside the window identification runs only when
    the error flag is raised.
    """
    if gate.error_flag:
        return True
    if endpoints_only:
        return gate.frame_index in (WINDOW_FIRST_FRAME, WINDOW_LAST_FRAME)
    return WINDOW_FIRST_FRAME <= gate.frame_index <= WINDOW_LAST_FRAME


def identify_clients(
    cluster_velocities: list[tuple[int, np.ndarray]],
    client_velocities: list[np.ndarray],
    frame_index: int,
) -> tuple[ClientBinding, ClientBinding]:
    """Assign each client the cluster whose velocity matches its IMU velocity.

    Searches ordered pairs of distinct cluster labels minimizing
    ||v_cluster(i) - v_client(0)|| + ||v_cluster(j) - v_client(1)||; ties go to
    the lexicographically lowest label pair. Raises IdentificationError when
    fewer than two clusters carry a velocity, when a velocity is not finite,
    or when no pair has a finite cost.
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
    v0 = np.asarray(client_velocities[0], dtype=float)
    v1 = np.asarray(client_velocities[1], dtype=float)
    for cid, v in enumerate((v0, v1)):
        if not np.isfinite(v).all():
            raise IdentificationError(f"client {cid} velocity is not finite: {v.tolist()}")
    for label, v in entries:
        if not np.isfinite(v).all():
            raise IdentificationError(f"cluster {label} velocity is not finite: {v.tolist()}")

    best_pair: tuple[int, int] | None = None
    best_cost = np.inf
    for label_i, vel_i in entries:
        cost_i = float(np.linalg.norm(vel_i - v0))
        for label_j, vel_j in entries:
            if label_j == label_i:
                continue
            cost = cost_i + float(np.linalg.norm(vel_j - v1))
            if cost < best_cost:  # strict: first hit wins ties, labels ascend
                best_cost = cost
                best_pair = (label_i, label_j)
    if best_pair is None:  # finite velocities whose distances overflow
        raise IdentificationError("no cluster pair has a finite velocity mismatch")
    return (
        ClientBinding(client_id=0, cluster_label=best_pair[0], bound_at_frame=frame_index),
        ClientBinding(client_id=1, cluster_label=best_pair[1], bound_at_frame=frame_index),
    )
