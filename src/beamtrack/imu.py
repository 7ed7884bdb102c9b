"""Per-client inertial processing: calibration, velocity integration, orientation.

Conventions: body frame is x forward, y left, z up; quaternions are [w, x, y, z]
and rotate body-frame vectors into the global frame. An accelerometer at rest
reads +GRAVITY_MPS2 along body z.

A reading crosses simulation, the wire codec and dead reckoning once per
device sample, so its 3- and 4-vectors travel as tuples of Python floats: the
per-element arithmetic is the same IEEE arithmetic numpy performs, without
building a small array per step. The inertial functions take a tuple vector as
it is and also accept an ndarray vector, converting it once by one tolist; the
quaternion products are written out in place, so a reading costs no helper
call beyond the orientation's numpy norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError

GRAVITY_MPS2 = 9.81
MIN_CALIBRATION_SAMPLES = 10


@dataclass
class ImuSample:
    """One inertial measurement as produced by a client device, or a window of them.

    The vectors of one reading are tuples of Python floats, as
    Scenario.sample_imu and decode_imu_datagram build them. A window holds n
    readings of one client at once: seq and timestamp_s are (n,) arrays, the
    vectors (n, 3) arrays; window_readings splits it into single readings.
    """

    client_id: int
    seq: int
    timestamp_s: float
    accel_mps2: tuple[float, float, float]  # body frame, includes gravity
    gyro_radps: tuple[float, float, float]  # body frame angular rate


@dataclass
class CalibrationProfile:
    accel_bias: np.ndarray  # (3,)
    gyro_bias: np.ndarray  # (3,)


@dataclass
class ClientMotion:
    """Integrated motion state for one client, its vectors tuples of Python floats."""

    client_id: int
    velocity_mps: tuple[float, float, float] = (0.0, 0.0, 0.0)  # global frame
    orientation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)  # body -> global
    last_update_s: float = 0.0


def calibrate(rest: list[ImuSample] | ImuSample) -> CalibrationProfile:
    """Estimate sensor biases from samples taken while the device is at rest.

    rest is a list of samples or one window of them. The gyro bias is the
    mean angular rate; the accel bias is the mean reading minus the expected
    gravity vector (0, 0, +g) for an upright device.
    """
    if isinstance(rest, ImuSample):
        accel, gyro = rest.accel_mps2, rest.gyro_radps
    else:
        accel, gyro = [s.accel_mps2 for s in rest], [s.gyro_radps for s in rest]
    if len(accel) < MIN_CALIBRATION_SAMPLES:
        raise CalibrationError(
            f"need at least {MIN_CALIBRATION_SAMPLES} rest samples, got {len(accel)}"
        )
    return CalibrationProfile(
        accel_bias=np.mean(accel, axis=0) - np.array([0.0, 0.0, GRAVITY_MPS2]),
        gyro_bias=np.mean(gyro, axis=0),
    )


def window_readings(window: ImuSample) -> list[ImuSample]:
    """A window's readings in order, each of Python ints, floats and float tuples."""
    return [
        ImuSample(window.client_id, seq, t, tuple(a), tuple(g))
        for seq, t, a, g in zip(
            window.seq.tolist(),
            window.timestamp_s.tolist(),
            window.accel_mps2.tolist(),
            window.gyro_radps.tolist(),
        )
    ]


def integrate_velocity(v_prev, a_prev, a_curr, t: float) -> tuple[float, float, float]:
    """Trapezoidal velocity update of 3-vectors: v + t * (a_prev + a_curr) / 2.

    The vectors are float tuples or (3,) arrays; the result is a float tuple.
    """
    if t < 0:
        raise ValueError(f"integration interval must be >= 0, got {t}")
    vx, vy, vz = v_prev if type(v_prev) is tuple else v_prev.tolist()
    px, py, pz = a_prev if type(a_prev) is tuple else a_prev.tolist()
    cx, cy, cz = a_curr if type(a_curr) is tuple else a_curr.tolist()
    return (vx + t * (px + cx) / 2.0, vy + t * (py + cy) / 2.0, vz + t * (pz + cz) / 2.0)


def _unit_norm(w: float, x: float, y: float, z: float) -> float:
    """|q| exactly as np.linalg.norm computes it for the float array [w, x, y, z].

    madgwick_update renormalises the orientation by this value, so its last
    bit reaches the frame log, and this norm must stay numpy's dot of a 4-array.
    That dot is a BLAS ddot, which OpenBLAS runs as a chain of fused
    multiply-adds; sqrt(w*w + x*x + y*y + z*z) in Python floats rounds
    differently on about 12% of random quaternions. Dividing each component by
    the result as a Python float is the same IEEE division numpy performs. The
    unit-length check in gravity_compensate only compares a norm with a 1e-6
    tolerance, so it uses the Python sum of squares.
    """
    q = np.array((w, x, y, z))
    return math.sqrt(q.dot(q))


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_yaw(yaw_rad: float) -> np.ndarray:
    return np.array([math.cos(yaw_rad / 2.0), 0.0, 0.0, math.sin(yaw_rad / 2.0)])


def yaw_from_quat(q: np.ndarray) -> float:
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


def rotate_by_quat(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by unit quaternion q (body -> global for an orientation q).

    With u the vector part of q: v + 2w (u x v) + 2 u x (u x v).
    """
    q, v = np.asarray(q, dtype=float), np.asarray(v, dtype=float)
    u = q[1:]
    uv = np.cross(u, v)
    return v + 2.0 * q[0] * uv + 2.0 * np.cross(u, uv)


def gravity_compensate(accel_body, orientation) -> tuple[float, float, float]:
    """Rotate a body-frame accelerometer reading to global axes and remove gravity.

    accel_body and orientation are float tuples or arrays; the result is a
    float tuple. The rotated vector is the vector part of q * (0, v) * conj(q).
    Raises ValueError if the quaternion is not unit length to within 1e-6.
    """
    w, x, y, z = orientation if type(orientation) is tuple else orientation.tolist()
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"orientation quaternion norm {norm:.8f} is not 1 within 1e-6")
    vx, vy, vz = accel_body if type(accel_body) is tuple else accel_body.tolist()
    # p = q * (0, v)
    pw = w * 0.0 - x * vx - y * vy - z * vz
    px = w * vx + x * 0.0 + y * vz - z * vy
    py = w * vy - x * vz + y * 0.0 + z * vx
    pz = w * vz + x * vy - y * vx + z * 0.0
    # vector part of p * conj(q)
    return (
        pw * -x + px * w + py * -z - pz * -y,
        pw * -y - px * -z + py * w + pz * -x,
        pw * -z + px * -y - py * -x + pz * w - GRAVITY_MPS2,
    )


def madgwick_update(
    state: ClientMotion, sample: ImuSample, dt: float, beta: float = 0.1
) -> ClientMotion:
    """One 6-axis orientation step: exact gyro increment + gravity correction.

    The gyro reading is treated as the mean body rate over dt and applied as an
    exact quaternion rotation, so integration stays exact through sharp turns
    even when readings are consumed sparsely (a first-order step loses
    (|w|dt)^3/12 radians per step, ruinous once a single reading spans a
    corner). The accelerometer term is one normalized gradient-descent step of
    size beta * dt toward gravity alignment. The sample's vectors and the
    state's orientation may be float tuples or arrays. Returns a new
    ClientMotion with the updated quaternion as a float tuple; velocity is left
    untouched. A zero-norm accelerometer reading skips the correction
    (gyro-only update) and is logged; a non-finite reading raises ValueError.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    gyro, accel, q = sample.gyro_radps, sample.accel_mps2, state.orientation
    gx, gy, gz = gyro if type(gyro) is tuple else gyro.tolist()
    ax, ay, az = accel if type(accel) is tuple else accel.tolist()
    q1, q2, q3, q4 = q if type(q) is tuple else q.tolist()
    rate = math.sqrt(gx * gx + gy * gy + gz * gz)
    a_norm = math.sqrt(ax * ax + ay * ay + az * az)
    # a NaN or infinite component makes its norm NaN or inf; only then (or when
    # finite squares overflow) are the components tested one by one
    if not (rate < math.inf and a_norm < math.inf) and not all(
        map(math.isfinite, (gx, gy, gz, ax, ay, az))
    ):
        raise ValueError(
            f"client {sample.client_id}: non-finite IMU reading at t={sample.timestamp_s:.3f}"
        )

    # exact rotation increment for the mean body rate over dt: q * (c, h)
    theta = rate * dt
    if theta > 0.0:
        s = math.sin(0.5 * theta) / rate
        c, hx, hy, hz = math.cos(0.5 * theta), gx * s, gy * s, gz * s
        q1, q2, q3, q4 = (
            q1 * c - q2 * hx - q3 * hy - q4 * hz,
            q1 * hx + q2 * c + q3 * hz - q4 * hy,
            q1 * hy - q2 * hz + q3 * c + q4 * hx,
            q1 * hz + q2 * hy - q3 * hx + q4 * c,
        )

    if a_norm > 0.0:
        ax, ay, az = ax / a_norm, ay / a_norm, az / a_norm

        # float factors: an int operand would take Python's slower mixed-type
        # multiply, with the same result
        _2q1, _2q2, _2q3, _2q4 = 2.0 * q1, 2.0 * q2, 2.0 * q3, 2.0 * q4
        _4q1, _4q2, _4q3 = 4.0 * q1, 4.0 * q2, 4.0 * q3
        _8q2, _8q3 = 8.0 * q2, 8.0 * q3
        q1q1, q2q2, q3q3, q4q4 = q1 * q1, q2 * q2, q3 * q3, q4 * q4

        # gradient of the gravity alignment objective
        s1 = _4q1 * q3q3 + _2q3 * ax + _4q1 * q2q2 - _2q2 * ay
        s2 = _4q2 * q4q4 - _2q4 * ax + 4.0 * q1q1 * q2 - _2q1 * ay - _4q2 + _8q2 * q2q2 + _8q2 * q3q3 + _4q2 * az
        s3 = 4.0 * q1q1 * q3 + _2q1 * ax + _4q3 * q4q4 - _2q4 * ay - _4q3 + _8q3 * q2q2 + _8q3 * q3q3 + _4q3 * az
        s4 = 4.0 * q2q2 * q4 - _2q2 * ax + 4.0 * q3q3 * q4 - _2q3 * ay
        s_norm = math.sqrt(s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4)
        if s_norm > 1e-12:  # at the objective minimum the gradient vanishes
            step = beta * dt / s_norm
            q1, q2, q3, q4 = q1 - step * s1, q2 - step * s2, q3 - step * s3, q4 - step * s4
    else:
        import logging

        logging.getLogger(__name__).warning(
            "client %d: zero-norm accelerometer at t=%.3f, gyro-only update",
            sample.client_id,
            sample.timestamp_s,
        )

    norm = _unit_norm(q1, q2, q3, q4)
    q = (q1 / norm, q2 / norm, q3 / norm, q4 / norm)
    return ClientMotion(state.client_id, state.velocity_mps, q, sample.timestamp_s)
