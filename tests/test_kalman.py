"""Constant-velocity Kalman filtering: algebra, smoothing, and the reacquire gate."""

import numpy as np
import pytest

from beamtrack.kalman import KalmanConfig, KalmanState, kf_init, kf_reacquire, kf_step

from oracles import kalman_step_reference


def _is_psd(P, tol=1e-10):
    return bool(np.all(np.linalg.eigvalsh((P + P.T) / 2.0) > -tol))


def test_init_state_and_covariance():
    st = kf_init(np.array([1.0, 2.0]), np.array([0.5, -0.5]), KalmanConfig())
    assert np.allclose(st.x, [1.0, 2.0, 0.5, -0.5])
    assert np.allclose(st.P, np.diag([10.0, 10.0, 4.0, 4.0]))


def test_init_rejects_non_finite():
    with pytest.raises(ValueError):
        kf_init(np.array([np.nan, 0.0]), np.zeros(2), KalmanConfig())


def test_step_matches_hand_computed_reference():
    rng = np.random.default_rng(2)
    cfg = KalmanConfig(sigma_accel_mps2=1.3, sigma_meas_m=0.07)
    st = kf_init(np.array([0.3, -0.1]), np.array([0.9, 0.4]), cfg)
    x_ref = st.x.copy()
    P_ref = st.P.copy()
    for k in range(25):
        z = rng.normal(0.0, 1.0, 2) if k % 5 else None  # every 5th step coasts
        st = kf_step(st, z, 0.5, cfg)
        x_ref, P_ref = kalman_step_reference(x_ref, P_ref, z, 0.5, 1.3, 0.07)
        assert np.allclose(st.x, x_ref, atol=1e-10)
        assert np.allclose(st.P, P_ref, atol=1e-10)


def test_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(7)
    cfg = KalmanConfig()
    st = kf_init(np.zeros(2), np.zeros(2), cfg)
    for k in range(100):
        z = rng.normal(0.0, 5.0, 2) if k % 3 else None
        st = kf_step(st, z, 0.5, cfg)
        assert np.array_equal(st.P, st.P.T)
        assert _is_psd(st.P)


def test_coasting_grows_position_uncertainty():
    cfg = KalmanConfig()
    st = kf_init(np.zeros(2), np.ones(2), cfg)
    st = kf_step(st, np.array([0.5, 0.5]), 0.5, cfg)
    var_before = st.P[0, 0]
    st = kf_step(st, None, 0.5, cfg)
    assert st.P[0, 0] > var_before
    assert np.allclose(st.x[:2], [0.5 + 0.5 * st.x[2], 0.5 + 0.5 * st.x[3]], atol=0.5)


def test_non_finite_measurement_coasts():
    cfg = KalmanConfig()
    st = kf_init(np.zeros(2), np.zeros(2), cfg)
    a = kf_step(st, np.array([np.nan, 1.0]), 0.5, cfg)
    b = kf_step(st, None, 0.5, cfg)
    assert np.allclose(a.x, b.x) and np.allclose(a.P, b.P)


def test_step_advances_time_and_rejects_bad_dt():
    cfg = KalmanConfig()
    st = kf_init(np.zeros(2), np.zeros(2), cfg)
    st = kf_step(st, np.zeros(2), 0.5, cfg)
    with pytest.raises(ValueError):
        kf_step(st, np.zeros(2), 0.0, cfg)


def test_filtering_beats_raw_measurements():
    # one constant-velocity track with sigma 0.1 position noise
    rng = np.random.default_rng(11)
    cfg = KalmanConfig(sigma_accel_mps2=1.0, sigma_meas_m=0.1)
    truth_v = np.array([0.5, -0.3])
    st = kf_init(np.zeros(2), truth_v, cfg)
    raw_err = []
    filt_err = []
    for k in range(1, 80):
        t = 0.5 * k
        truth = truth_v * t
        z = truth + rng.normal(0.0, 0.1, 2)
        st = kf_step(st, z, 0.5, cfg)
        raw_err.append(np.sum((z - truth) ** 2))
        filt_err.append(np.sum((st.x[:2] - truth) ** 2))
    assert np.sqrt(np.mean(filt_err)) < np.sqrt(np.mean(raw_err))


def test_reacquire_gates_on_mahalanobis_distance():
    cfg = KalmanConfig(sigma_accel_mps2=1.0, sigma_meas_m=0.1)
    st = kf_init(np.zeros(2), np.zeros(2), cfg)
    for _ in range(30):  # settle the covariance
        st = kf_step(st, np.zeros(2), 0.5, cfg)
    assert not kf_reacquire(st, np.array([0.01, 0.0]), 0.5, cfg)
    assert kf_reacquire(st, np.array([5.0, 0.0]), 0.5, cfg)


def test_reacquire_threshold_is_exact():
    # with a settled filter the innovation covariance is known; probe both
    # sides of the 3-sigma surface
    cfg = KalmanConfig(sigma_accel_mps2=1.0, sigma_meas_m=0.1)
    st = kf_init(np.zeros(2), np.zeros(2), cfg)
    for _ in range(60):
        st = kf_step(st, np.zeros(2), 0.5, cfg)
    # reproduce the predicted innovation covariance for a zero-motion track
    F = np.array([[1, 0, 0.5, 0], [0, 1, 0, 0.5], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    q4, q3, q2 = 0.5**4 / 4, 0.5**3 / 2, 0.5**2
    Q = np.array([[q4, 0, q3, 0], [0, q4, 0, q3], [q3, 0, q2, 0], [0, q3, 0, q2]])
    P_pred = F @ st.P @ F.T + Q
    S = P_pred[:2, :2] + np.eye(2) * 0.1**2
    sigma_x = np.sqrt(S[0, 0])
    assert not kf_reacquire(st, np.array([2.99 * sigma_x, 0.0]), 0.5, cfg)
    assert kf_reacquire(st, np.array([3.01 * sigma_x, 0.0]), 0.5, cfg)


def test_reacquire_rejects_non_finite():
    cfg = KalmanConfig()
    st = kf_init(np.zeros(2), np.zeros(2), cfg)
    assert kf_reacquire(st, np.array([np.inf, 0.0]), 0.5, cfg)
    with pytest.raises(ValueError):
        kf_reacquire(st, np.zeros(2), -0.5, cfg)


def test_state_is_new_object_each_step():
    cfg = KalmanConfig()
    st0 = kf_init(np.zeros(2), np.zeros(2), cfg)
    x0 = st0.x.copy()
    st1 = kf_step(st0, np.array([1.0, 1.0]), 0.5, cfg)
    assert isinstance(st1, KalmanState)
    assert np.array_equal(st0.x, x0)  # input state untouched
