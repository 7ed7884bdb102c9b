"""Constant-velocity Kalman filter for planar client trajectories.

State is [x, y, vx, vy]. Process noise is the white-acceleration model: each
axis gets the (dt^4/4, dt^3/2, dt^2) block scaled by sigma_accel^2. A cycle is
one kf_predict, then at most one kf_reacquire gate and one kf_step, both on
that prediction. Updates use the Joseph form and re-symmetrize the covariance
so it stays PSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
# innovations beyond this many standard deviations (Mahalanobis) are implausible
GATE_SIGMA = 3.0


@dataclass(frozen=True)
class KalmanConfig:
    sigma_accel_mps2: float = 1.0
    sigma_meas_m: float = 0.1


@dataclass
class KalmanState:
    x: np.ndarray  # (4,) [x, y, vx, vy]
    P: np.ndarray  # (4, 4)


def _q_matrix(dt: float, sigma_accel: float) -> np.ndarray:
    q4 = dt**4 / 4.0
    q3 = dt**3 / 2.0
    q2 = dt**2
    Q = np.array(
        [
            [q4, 0.0, q3, 0.0],
            [0.0, q4, 0.0, q3],
            [q3, 0.0, q2, 0.0],
            [0.0, q3, 0.0, q2],
        ]
    )
    return Q * sigma_accel**2


def kf_predict(state: KalmanState, dt: float, cfg: KalmanConfig) -> KalmanState:
    """The constant-velocity prediction dt ahead, covariance not yet symmetrized."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    F = np.eye(4)
    F[0, 2] = F[1, 3] = dt
    return KalmanState(x=F @ state.x, P=F @ state.P @ F.T + _q_matrix(dt, cfg.sigma_accel_mps2))


def kf_init(position_m: np.ndarray, velocity_mps: np.ndarray, cfg: KalmanConfig) -> KalmanState:
    """Start a track: 10 m^2 position variance, 4 (m/s)^2 velocity variance."""
    pos = np.asarray(position_m, dtype=float)
    vel = np.asarray(velocity_mps, dtype=float)
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
        raise ValueError("initial state must be finite")
    x = np.array([pos[0], pos[1], vel[0], vel[1]])
    P = np.diag([10.0, 10.0, 4.0, 4.0])
    return KalmanState(x=x, P=P)


def _innovation(
    predicted: KalmanState, measurement_m: np.ndarray | None, cfg: KalmanConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Innovation, its covariance S and R for a 2-D position; None if it is None or not finite."""
    z = None if measurement_m is None else np.asarray(measurement_m, dtype=float)
    if z is None or not np.all(np.isfinite(z)):
        return None
    R = np.eye(2) * cfg.sigma_meas_m**2
    return z - _H @ predicted.x, _H @ predicted.P @ _H.T + R, R


def kf_step(
    predicted: KalmanState, measurement_m: np.ndarray | None, cfg: KalmanConfig
) -> KalmanState:
    """Update a kf_predict prediction with a 2-D position measurement.

    A None or non-finite measurement is rejected: the step coasts on the
    prediction alone and the position covariance grows.
    """
    x, P = predicted.x, predicted.P
    innovation = _innovation(predicted, measurement_m, cfg)
    if innovation is not None:
        nu, S, R = innovation
        K = P @ _H.T @ np.linalg.inv(S)
        x = x + K @ nu
        ikh = np.eye(4) - K @ _H
        P = ikh @ P @ ikh.T + K @ R @ K.T  # Joseph form
    P = (P + P.T) / 2.0
    return KalmanState(x=x, P=P)


def kf_reacquire(predicted: KalmanState, measurement_m: np.ndarray, cfg: KalmanConfig) -> bool:
    """True when a measurement is implausible for a kf_predict prediction.

    Computes the innovation's Mahalanobis distance; beyond GATE_SIGMA the
    caller should coast the filter and look for a new binding instead of
    accepting the measurement. A non-finite measurement is always implausible.
    """
    innovation = _innovation(predicted, measurement_m, cfg)
    if innovation is None:
        return True
    nu, S, _ = innovation
    d2 = float(nu @ np.linalg.solve(S, nu))
    return math.sqrt(max(d2, 0.0)) > GATE_SIGMA
