"""Calibration, quaternion algebra, velocity integration, and orientation filtering."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack.errors import CalibrationError
from beamtrack.imu import (
    GRAVITY_MPS2,
    ClientMotion,
    ImuSample,
    calibrate,
    gravity_compensate,
    integrate_velocity,
    madgwick_update,
    quat_conjugate,
    quat_from_yaw,
    quat_multiply,
    rotate_by_quat,
    to_global_frame,
    window_readings,
    yaw_from_quat,
)

from oracles import (
    closed_form_velocity,
    gravity_compensate_reference,
    gravity_gradient_fd,
    gravity_objective,
    integrate_velocity_reference,
    madgwick_reference,
)


def _sample(accel, gyro, t=0.0, seq=0, client=0):
    return ImuSample(
        client_id=client,
        seq=seq,
        timestamp_s=t,
        accel_mps2=np.asarray(accel, dtype=float),
        gyro_radps=np.asarray(gyro, dtype=float),
    )


def _quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[math.cos(angle / 2.0)], math.sin(angle / 2.0) * axis])


def test_calibrate_recovers_known_biases():
    rng = np.random.default_rng(0)
    accel_bias = np.array([0.02, -0.01, 0.03])
    gyro_bias = np.array([0.001, 0.002, -0.003])
    samples = []
    for i in range(200):
        accel = np.array([0.0, 0.0, GRAVITY_MPS2]) + accel_bias + rng.normal(0, 0.01, 3)
        gyro = gyro_bias + rng.normal(0, 0.001, 3)
        samples.append(_sample(accel, gyro, t=i * 0.01, seq=i))
    profile = calibrate(samples)
    assert np.allclose(profile.accel_bias, accel_bias, atol=0.005)
    assert np.allclose(profile.gyro_bias, gyro_bias, atol=0.0005)


def test_calibrate_needs_enough_samples():
    samples = [_sample([0, 0, GRAVITY_MPS2], [0, 0, 0]) for _ in range(9)]
    with pytest.raises(CalibrationError):
        calibrate(samples)
    calibrate(samples + samples[:1])  # 10 is enough


def test_calibrate_from_a_window_equals_from_its_readings():
    rng = np.random.default_rng(4)
    for n in (10, 100, 257):
        accel = np.float32(rng.normal([0.02, -0.01, GRAVITY_MPS2], 0.05, (n, 3))).astype(float)
        gyro = np.float32(rng.normal(0.001, 0.002, (n, 3))).astype(float)
        window = ImuSample(1, np.arange(n), np.arange(n) / 100.0, accel, gyro)
        got, want = calibrate(window), calibrate(window_readings(window))
        assert got.accel_bias.tobytes() == want.accel_bias.tobytes()
        assert got.gyro_bias.tobytes() == want.gyro_bias.tobytes()
    window = ImuSample(1, np.arange(9), np.arange(9) / 100.0, accel[:9], gyro[:9])
    with pytest.raises(CalibrationError):
        calibrate(window)


def test_integrate_velocity_trapezoid():
    v = integrate_velocity(np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0]),
                           np.array([4.0, 2.0, 0.0]), 0.5)
    assert np.allclose(v, [2.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        integrate_velocity(np.zeros(3), np.zeros(3), np.zeros(3), -0.1)


def test_integrate_velocity_matches_closed_form_on_piecewise_linear_profile():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_breaks = int(rng.integers(2, 6))
        break_t = np.sort(rng.uniform(0.0, 4.0, n_breaks))
        break_t[0] = 0.0
        break_a = rng.normal(0.0, 3.0, (n_breaks, 3))
        v0 = rng.normal(0.0, 1.0, 3)
        # integrate over a fine grid that includes every breakpoint
        grid = np.unique(np.concatenate([break_t, rng.uniform(0.0, break_t[-1], 40)]))
        v = v0.copy()
        for t0, t1 in zip(grid[:-1], grid[1:]):
            a0 = np.array([np.interp(t0, break_t, break_a[:, k]) for k in range(3)])
            a1 = np.array([np.interp(t1, break_t, break_a[:, k]) for k in range(3)])
            v = integrate_velocity(v, a0, a1, t1 - t0)
        want = closed_form_velocity(break_t, break_a, v0, break_t[-1])
        assert np.allclose(v, want, atol=1e-9)


def test_quaternion_yaw_round_trip():
    for yaw in (-3.0, -1.0, 0.0, 0.5, 2.0, math.pi):
        assert yaw_from_quat(quat_from_yaw(yaw)) == pytest.approx(
            math.atan2(math.sin(yaw), math.cos(yaw)), abs=1e-12
        )


def test_quat_multiply_composes_rotations():
    a = _quat_from_axis_angle([0, 0, 1], 0.7)
    b = _quat_from_axis_angle([1, 0, 0], 0.4)
    v = np.array([0.3, -0.2, 0.5])
    composed = rotate_by_quat(quat_multiply(a, b), v)
    sequential = rotate_by_quat(a, rotate_by_quat(b, v))
    assert np.allclose(composed, sequential, atol=1e-12)


def test_rotate_matches_rotation_matrix():
    q = _quat_from_axis_angle([0.3, -0.5, 0.8], 1.1)
    w, x, y, z = q
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(rotate_by_quat(q, v), R @ v, atol=1e-12)
    assert np.allclose(rotate_by_quat(quat_conjugate(q), v), R.T @ v, atol=1e-12)


def test_to_global_frame_rejects_unnormalized():
    with pytest.raises(ValueError):
        to_global_frame(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.01]))


def test_gravity_compensate_at_rest_is_zero():
    accel = np.array([0.0, 0.0, GRAVITY_MPS2])
    assert np.allclose(gravity_compensate(accel, np.array([1.0, 0, 0, 0])), 0.0)


def test_gravity_compensate_under_yaw():
    # yawed device, body measures gravity plus a forward push
    yaw = 0.9
    q = quat_from_yaw(yaw)
    a_body = np.array([1.0, 0.0, GRAVITY_MPS2])
    a_global = gravity_compensate(a_body, q)
    assert np.allclose(a_global, [math.cos(yaw), math.sin(yaw), 0.0], atol=1e-12)


def test_madgwick_yaw_integration_is_exact():
    # pi/2 rad/s for 1 s at 100 Hz; the gravity term carries no yaw information
    state = ClientMotion(client_id=0)
    rate = math.pi / 2.0
    for i in range(100):
        s = _sample([0.0, 0.0, GRAVITY_MPS2], [0.0, 0.0, rate], t=(i + 1) * 0.01, seq=i)
        state = madgwick_update(state, s, dt=0.01, beta=0.1)
    assert abs(yaw_from_quat(state.orientation) - rate) < math.radians(0.1)


def test_madgwick_survives_whole_turn_in_one_reading():
    # one reading spanning an instant 90 degree turn: the exact increment keeps
    # the full angle (a first-order step would lose (|w|dt)^3/12 ~ 13.5 deg)
    state = ClientMotion(client_id=0)
    s = _sample([0.0, 0.0, GRAVITY_MPS2], [0.0, 0.0, math.pi / 2.0 / 0.01], t=0.01)
    state = madgwick_update(state, s, dt=0.01, beta=0.0)
    assert yaw_from_quat(state.orientation) == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_madgwick_converges_from_tilt_error():
    # 20 degree initial roll error at rest must fall below 1 degree in 2 s
    state = ClientMotion(client_id=0, orientation=_quat_from_axis_angle([1, 0, 0], math.radians(20)))
    down = np.array([0.0, 0.0, -1.0])
    for i in range(200):
        s = _sample([0.0, 0.0, GRAVITY_MPS2], [0.0, 0.0, 0.0], t=(i + 1) * 0.01, seq=i)
        state = madgwick_update(state, s, dt=0.01, beta=0.1)
    body_down = rotate_by_quat(quat_conjugate(state.orientation), down)
    err = math.degrees(math.acos(np.clip(-body_down[2], -1.0, 1.0)))
    assert err < 1.0


def test_madgwick_gradient_matches_finite_differences():
    # the correction step must move along the (tangential) gradient of the
    # gravity-alignment objective; recover the step direction with a tiny beta
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.normal(0.0, 1.0, 4)
        q /= np.linalg.norm(q)
        a = rng.normal(0.0, 1.0, 3)
        a = a / np.linalg.norm(a) * GRAVITY_MPS2
        fd = gravity_gradient_fd(q, a / np.linalg.norm(a))
        if np.linalg.norm(fd) < 1e-6:
            continue
        state = ClientMotion(client_id=0, orientation=q.copy())
        beta = 1e-7
        out = madgwick_update(state, _sample(a, [0, 0, 0]), dt=1.0, beta=beta).orientation
        moved = q - out
        moved -= np.dot(moved, q) * q  # drop the renormalization component
        fd_t = fd - np.dot(fd, q) * q  # compare against the tangential gradient
        cos = np.dot(moved, fd_t) / (np.linalg.norm(moved) * np.linalg.norm(fd_t))
        assert cos > 0.999


def test_madgwick_correction_descends_the_objective():
    rng = np.random.default_rng(13)
    for _ in range(20):
        q = rng.normal(0.0, 1.0, 4)
        q /= np.linalg.norm(q)
        a_unit = np.array([0.0, 0.0, 1.0])
        before = gravity_objective(q, a_unit)
        if before < 1e-9:
            continue
        state = ClientMotion(client_id=0, orientation=q.copy())
        out = madgwick_update(
            state, _sample(a_unit * GRAVITY_MPS2, [0, 0, 0]), dt=0.01, beta=0.1
        ).orientation
        assert gravity_objective(out, a_unit) < before


def test_madgwick_zero_accel_is_gyro_only():
    state = ClientMotion(client_id=0)
    s = _sample([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], t=0.01)
    out = madgwick_update(state, s, dt=0.01, beta=0.1)
    assert yaw_from_quat(out.orientation) == pytest.approx(0.01, abs=1e-12)
    assert np.linalg.norm(out.orientation) == pytest.approx(1.0, abs=1e-12)


def test_madgwick_rejects_bad_dt():
    state = ClientMotion(client_id=0)
    with pytest.raises(ValueError):
        madgwick_update(state, _sample([0, 0, GRAVITY_MPS2], [0, 0, 0]), dt=0.0)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError):
            madgwick_update(state, _sample([0, 0, GRAVITY_MPS2], [0, 0, 1.0]), dt=dt)


def test_madgwick_rejects_non_finite_readings(caplog):
    state = ClientMotion(client_id=0)
    for bad in (math.nan, math.inf, -math.inf):
        for accel, gyro in (([bad, 0.0, GRAVITY_MPS2], [0.0, 0.0, 0.0]),
                            ([0.0, 0.0, GRAVITY_MPS2], [0.0, bad, 0.0])):
            with pytest.raises(ValueError, match="non-finite"):
                madgwick_update(state, _sample(accel, gyro, t=0.01), dt=0.01)
    assert "zero-norm" not in caplog.text


# --- bit-exact equality with the array formulation in tests/oracles.py -------

_coord = st.floats(-40.0, 40.0, allow_nan=False)
_vec3 = st.tuples(_coord, _coord, _coord)
_zero3 = st.just((0.0, 0.0, 0.0))


@st.composite
def _unit_quats(draw):
    q = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)))
    if np.linalg.norm(q) < 1e-3:
        q = np.array([1.0, 0.0, 0.0, 0.0])
    return q / np.linalg.norm(q)


@st.composite
def _revolutions(draw):
    """Body rates that turn 1-3 whole revolutions about some axis in one reading of dt."""
    axis = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([0.0, 0.0, 1.0])
    turns = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([0.01, 0.02, 0.5]))
    return tuple(axis / np.linalg.norm(axis) * (2.0 * math.pi * turns / dt)), dt


@settings(max_examples=400, deadline=None)
@given(
    q=_unit_quats(),
    gyro=st.one_of(_zero3, _vec3),
    accel=st.one_of(_zero3, _vec3),
    dt=st.floats(1e-4, 0.5),
    beta=st.floats(0.0, 1.0),
    revolution=st.one_of(st.none(), _revolutions()),
)
@example(q=np.array([1.0, 0.0, 0.0, 0.0]), gyro=(0.0, 0.0, 0.0), accel=(0.0, 0.0, GRAVITY_MPS2),
         dt=0.01, beta=0.1, revolution=None)
@example(q=np.array([1.0, 0.0, 0.0, 0.0]), gyro=(0.0, 0.0, 1.0), accel=(0.0, 0.0, 0.0),
         dt=0.01, beta=0.1, revolution=None)
@example(q=np.array([1.0, 0.0, 0.0, 0.0]), gyro=(0.0, 0.0, 0.0), accel=(0.0, 0.0, 0.0),
         dt=0.01, beta=0.1, revolution=((0.0, 0.0, 2.0 * math.pi / 0.01), 0.01))
def test_inertial_update_is_bit_identical_to_array_formulation(q, gyro, accel, dt, beta, revolution):
    if revolution is not None:
        gyro, dt = revolution
    gyro, accel = np.array(gyro), np.array(accel)
    v_prev, a_prev = accel[::-1] / 3.0, gyro / 7.0
    results = []
    # the same chain fed tuples of Python floats, then (n,) arrays
    for to_input in (lambda v: tuple(np.asarray(v).tolist()), np.array):
        state = ClientMotion(client_id=0, orientation=to_input(q))
        sample = ImuSample(0, 0, 1.0, to_input(accel), to_input(gyro))
        out = madgwick_update(state, sample, dt=dt, beta=beta).orientation
        assert np.array_equal(out, madgwick_reference(q, gyro, accel, dt, beta))

        a_global = gravity_compensate(to_input(accel), to_input(out))
        assert np.array_equal(a_global, gravity_compensate_reference(accel, out, GRAVITY_MPS2))

        v = integrate_velocity(to_input(v_prev), to_input(a_prev), to_input(a_global), dt)
        assert np.array_equal(v, integrate_velocity_reference(v_prev, a_prev, a_global, dt))
        for vector in (out, a_global, v):
            assert type(vector) is tuple and all(type(x) is float for x in vector)
        results.append(np.array([*out, *a_global, *v]).tobytes())
    assert results[0] == results[1]
