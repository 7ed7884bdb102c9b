"""Scenario simulator: configs, paths, radar returns, and IMU signals."""

import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import imu_sample_reference, point_cloud_reference, pose_on_path_reference

from beamtrack.errors import ValidationError
from beamtrack.world import (
    BODY_Z_MAX_M,
    BODY_Z_MIN_M,
    ClutterSpec,
    PathSpec,
    ScenarioConfig,
    Scenario,
    build_scenario,
    default_config,
)

U32 = 2**32


def _simple_config(**overrides):
    base = dict(
        frame_time_s=0.5,
        duration_s=4.0,
        radar_pose=(0.0, -2.0, 1.0),
        clients=(
            PathSpec(waypoints=((0.0, 0.0), (2.0, 0.0)), speed_mps=0.5, initial_hold_s=0.5),
            PathSpec(waypoints=((4.0, 0.0), (4.0, 2.0)), speed_mps=0.5, initial_hold_s=1.0),
        ),
        noise_sigma_m=0.0,
        body_radius_m=0.25,
        points_per_client_per_frame=200,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError):
        _simple_config(frame_time_s=0.0).validate()
    with pytest.raises(ValidationError):
        _simple_config(noise_sigma_m=-0.1).validate()
    with pytest.raises(ValidationError):
        _simple_config(radar_rate_hz=2.0).validate()  # < 2 radar instants per frame
    with pytest.raises(ValidationError):
        _simple_config(seed=-1).validate()
    bad_path = PathSpec(waypoints=((0.0, 0.0),), speed_mps=0.5)
    with pytest.raises(ValidationError):
        _simple_config(clients=(bad_path, bad_path)).validate()


def test_radar_instants_per_frame_overflow_names_both_keys():
    # both values are finite, their product is not
    cfg = _simple_config(frame_time_s=1e200, duration_s=1e200, radar_rate_hz=1e200)
    for check in (cfg.validate, cfg.radar_instants_per_frame):
        with pytest.raises(ValidationError, match=r"frame_time_s \* radar_rate_hz overflows"):
            check()
    assert _simple_config(frame_time_s=0.5, radar_rate_hz=10.0).radar_instants_per_frame() == 5
    # a product just inside the float range still rounds to an int
    assert _simple_config(frame_time_s=1e154, radar_rate_hz=1e154).radar_instants_per_frame() > 2


def test_config_round_trips_through_json(tmp_path):
    cfg = default_config(seed=9)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ScenarioConfig.from_file(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        ScenarioConfig.from_dict({"duration_s": 4.0, "frame_rate": 10})
    data = default_config().to_dict()
    data["clients"][0]["pace"] = 1.0
    with pytest.raises(ValidationError):
        ScenarioConfig.from_dict(data)



def _edit(key, value):
    return lambda data: data.update({key: value})


def _edit_entry(*path, value):
    def edit(data):
        for step in path[:-1]:
            data = data[step]
        data[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(_edit("radar_pose", 5), "radar_pose", id="pose-not-a-list"),
        pytest.param(_edit("clients", [5]), r"clients\[0\]", id="client-not-an-object"),
        pytest.param(_edit("clients", 5), "clients", id="clients-not-a-list"),
        pytest.param(_edit("frame_time_s", None), "frame_time_s", id="null-number"),
        pytest.param(_edit("duration_s", "abc"), "duration_s", id="string-number"),
        pytest.param(_edit("duration_s", 10**400), "duration_s", id="int-beyond-float"),
        pytest.param(
            _edit_entry("clutter", 0, "point_count", value="x"),
            r"clutter\[0\]\.point_count",
            id="string-count",
        ),
        pytest.param(_edit("frame_time_s", math.nan), "frame_time_s", id="nan-frame-time"),
        pytest.param(_edit("duration_s", math.inf), "duration_s", id="inf-duration"),
        pytest.param(_edit("noise_sigma_m", math.nan), "noise_sigma_m", id="nan-noise"),
        pytest.param(_edit("body_radius_m", math.nan), "body_radius_m", id="nan-body"),
        pytest.param(
            _edit_entry("radar_pose", 2, value=math.nan), r"radar_pose\[2\]", id="nan-height"
        ),
        pytest.param(
            _edit_entry("clients", 1, "speed_mps", value=math.inf),
            r"clients\[1\]\.speed_mps",
            id="inf-speed",
        ),
        pytest.param(
            _edit_entry("clients", 0, "waypoints", 1, 0, value=-math.inf),
            r"clients\[0\]\.waypoints\[1\]\[0\]",
            id="inf-waypoint",
        ),
        pytest.param(_edit("seed", 1.5), "seed", id="fractional-seed"),
        pytest.param(_edit("seed", True), "seed", id="bool-seed"),
    ],
)
def test_config_from_dict_names_the_malformed_key(edit, key):
    data = json.loads(json.dumps(default_config().to_dict()))
    edit(data)
    with pytest.raises(ValidationError, match=key):
        ScenarioConfig.from_dict(data)


_STILL = ((0.0, 0.0), (2.0, 0.0))


@pytest.mark.parametrize(
    "overrides",
    [
        {"frame_time_s": math.nan},
        {"duration_s": math.inf},
        {"noise_sigma_m": math.nan},
        {"body_radius_m": math.nan},
        {"radar_rate_hz": math.inf},
        {"radar_pose": (0.0, -2.0, math.nan)},
        {"clients": (PathSpec(_STILL, speed_mps=math.inf),) * 2},
        {"clients": (PathSpec(_STILL, speed_mps=0.5, initial_hold_s=math.nan),) * 2},
        {"clients": (PathSpec(((0.0, 0.0), (math.nan, 0.0)), speed_mps=0.5),) * 2},
        {"clutter": (ClutterSpec(position=(0.0, math.inf, 0.5), point_count=10),)},
    ],
    ids=[
        "frame_time_s", "duration_s", "noise_sigma_m", "body_radius_m", "radar_rate_hz",
        "radar_pose", "speed_mps", "initial_hold_s", "waypoints", "clutter_position",
    ],
)
def test_config_validation_rejects_non_finite_numbers(overrides):
    # configs built in code are checked too, not only those read from JSON
    with pytest.raises(ValidationError, match="finite"):
        _simple_config(**overrides).validate()


def test_frame_count_is_floor_of_duration():
    sc = build_scenario(_simple_config(duration_s=4.0))
    assert sc.n_frames == 8
    sc = build_scenario(_simple_config(duration_s=4.2))
    assert sc.n_frames == 8


def test_ground_truth_follows_waypoints():
    sc = build_scenario(_simple_config())
    # client 0 holds for 0.5 s then walks +x at 0.5 m/s
    poses = sc.ground_truth(0.0)
    assert np.allclose(poses[0].position_m, [0.0, 0.0])
    assert np.allclose(poses[0].velocity_mps, [0.0, 0.0])
    assert poses[0].heading_rad == pytest.approx(0.0)  # faces its first segment
    poses = sc.ground_truth(2.5)
    assert np.allclose(poses[0].position_m, [1.0, 0.0])
    assert np.allclose(poses[0].velocity_mps, [0.5, 0.0])
    # client 1 walks +y after its 1.0 s hold
    assert np.allclose(poses[1].position_m, [4.0, 0.75])
    assert poses[1].heading_rad == pytest.approx(math.pi / 2.0)


def test_ground_truth_stops_at_path_end():
    sc = build_scenario(_simple_config(duration_s=8.0, radar_rate_hz=10.0))
    poses = sc.ground_truth(8.0)
    assert np.allclose(poses[0].position_m, [2.0, 0.0])
    assert np.allclose(poses[0].velocity_mps, [0.0, 0.0])
    assert poses[0].heading_rad == pytest.approx(0.0)  # keeps the last heading


def test_waypoint_times_are_when_each_waypoint_is_reached():
    sc = build_scenario(default_config())
    for cid, path in enumerate(sc.config.clients):
        times = sc.waypoint_times(cid)
        assert len(times) == len(path.waypoints) and times[0] == 0.0
        assert times[1] == pytest.approx(path.initial_hold_s + 3.0 / path.speed_mps)
        for t, waypoint in zip(times, path.waypoints):
            pose = sc.ground_truth(t)[cid]
            assert np.max(np.abs(pose.position_m - waypoint)) <= 1e-9
    still = PathSpec(waypoints=((0.0, 0.0), (1.0, 0.0)), speed_mps=0.0, initial_hold_s=2.0)
    sc = build_scenario(_simple_config(clients=(still, still)))
    assert sc.waypoint_times(1) == [0.0]
    with pytest.raises(KeyError):
        sc.waypoint_times(2)


def test_point_cloud_is_deterministic_per_seed():
    cfg = _simple_config(noise_sigma_m=0.05)
    a = build_scenario(cfg).sample_point_cloud(3)
    b = build_scenario(cfg).sample_point_cloud(3)
    assert np.array_equal(a.points, b.points)
    c = build_scenario(_simple_config(noise_sigma_m=0.05, seed=4)).sample_point_cloud(3)
    assert not np.array_equal(a.points, c.points)


def test_point_cloud_timestamp_uses_radar_rate():
    sc = build_scenario(_simple_config())
    f = sc.sample_point_cloud(7)
    assert f.timestamp_s == pytest.approx(0.7)
    assert f.frame_index == 7
    with pytest.raises(ValueError):
        sc.sample_point_cloud(-1)


def test_point_cloud_geometry_and_doppler():
    cfg = _simple_config()
    sc = build_scenario(cfg)
    t = 2.0  # client 0 walking +x at 0.5; client 1 walking +y
    f = sc.sample_point_cloud(20)
    radar = np.array(cfg.radar_pose)
    world = f.points[:, :3] + radar  # points are radar-frame
    truth = sc.ground_truth(t)
    n = cfg.points_per_client_per_frame
    for i, pose in enumerate(truth):
        body = world[i * n : (i + 1) * n]
        d = np.linalg.norm(body[:, :2] - pose.position_m, axis=1)
        assert np.all(d <= cfg.body_radius_m + 1e-9)  # noiseless: on the body arc
        assert np.all((body[:, 2] >= BODY_Z_MIN_M) & (body[:, 2] <= BODY_Z_MAX_M))
        # doppler is the radial component of the true velocity
        rel = f.points[i * n : (i + 1) * n, :3]
        v3 = np.array([pose.velocity_mps[0], pose.velocity_mps[1], 0.0])
        want = rel @ v3 / np.linalg.norm(rel, axis=1)
        assert np.allclose(f.points[i * n : (i + 1) * n, 3], want, atol=1e-9)


def test_points_face_the_radar():
    cfg = _simple_config()
    sc = build_scenario(cfg)
    f = sc.sample_point_cloud(0)
    radar = np.array(cfg.radar_pose)
    world = f.points[:, :3] + radar
    pose = sc.ground_truth(0.0)[0]
    body = world[: cfg.points_per_client_per_frame]
    # every sampled surface point must be on the radar-facing half of the circle
    to_radar = radar[:2] - pose.position_m
    offsets = body[:, :2] - pose.position_m
    assert np.all(offsets @ to_radar > -1e-9)


def test_clutter_is_static_with_zero_doppler():
    cfg = _simple_config()
    cfg2 = default_config(seed=3)
    sc = build_scenario(cfg2)
    a = sc.sample_point_cloud(0)
    b = sc.sample_point_cloud(35)
    n_clutter = sum(c.point_count for c in cfg2.clutter)
    assert n_clutter > 0
    clutter_a = a.points[-n_clutter:]
    clutter_b = b.points[-n_clutter:]
    assert np.array_equal(clutter_a, clutter_b)  # same block every frame
    assert np.all(clutter_a[:, 3] == 0.0)
    assert cfg is not cfg2


def test_imu_at_rest_reads_gravity_only():
    sc = build_scenario(_simple_config())
    s = sc.sample_imu(0, t=0.3, dt=0.01, seq=29)  # still inside the hold
    assert np.allclose(s.accel_mps2, [0.0, 0.0, 9.81], atol=1e-12)
    assert np.allclose(s.gyro_radps, 0.0, atol=1e-12)
    assert s.client_id == 0 and s.seq == 29 and s.timestamp_s == pytest.approx(0.3)


def test_imu_matches_velocity_difference():
    # backward difference: accel integrates the velocity change over dt exactly
    sc = build_scenario(_simple_config())
    t, dt = 0.505, 0.01  # straddles the end of client 0's hold
    s = sc.sample_imu(0, t=t, dt=dt, seq=50)
    v_now = sc.ground_truth(t)[0].velocity_mps
    v_prev = sc.ground_truth(t - dt)[0].velocity_mps
    accel_world = np.array([*(v_now - v_prev) / dt, 0.0])
    # heading is 0 here so body frame == world frame
    want = accel_world + np.array([0.0, 0.0, 9.81])
    assert np.allclose(s.accel_mps2, want, atol=1e-9)


def test_imu_gyro_integrates_heading_change():
    sc = build_scenario(
        _simple_config(
            clients=(
                PathSpec(waypoints=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), speed_mps=0.5),
                PathSpec(waypoints=((4.0, 0.0), (4.0, 2.0)), speed_mps=0.5),
            ),
            duration_s=6.0,
        )
    )
    # the corner at (1,0) is reached at t = 2.0; one sample straddles it
    s = sc.sample_imu(0, t=2.005, dt=0.01, seq=200)
    assert s.gyro_radps[2] * 0.01 == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_imu_noise_is_seeded_and_scaled():
    cfg = _simple_config(noise_sigma_m=0.05)
    sc = build_scenario(cfg)
    a = sc.sample_imu(0, t=0.3, dt=0.01, seq=29)
    b = sc.sample_imu(0, t=0.3, dt=0.01, seq=29)
    assert np.array_equal(a.accel_mps2, b.accel_mps2)
    assert not np.allclose(a.accel_mps2, [0.0, 0.0, 9.81])  # noise present
    quiet = build_scenario(_simple_config()).sample_imu(0, t=0.3, dt=0.01, seq=29)
    assert np.allclose(quiet.accel_mps2, [0.0, 0.0, 9.81])


def test_imu_seq_is_a_required_keyword():
    # a default seq would give every instant the same noise row
    sc = build_scenario(_simple_config(noise_sigma_m=0.05))
    with pytest.raises(TypeError):
        sc.sample_imu(0, t=0.3, dt=0.01)
    with pytest.raises(TypeError):
        sc.sample_imu(0, 0.3, 0.01, 30)


def test_imu_noise_differs_between_instants_with_distinct_seq():
    # both instants fall in the hold, so the true motion is the same and only
    # the noise row that seq picks tells the readings apart
    sc = build_scenario(_simple_config(noise_sigma_m=0.05))
    a = sc.sample_imu(0, t=0.1, dt=0.01, seq=10)
    b = sc.sample_imu(0, t=0.2, dt=0.01, seq=20)
    for x, y in zip(a.accel_mps2 + a.gyro_radps, b.accel_mps2 + b.gyro_radps):
        assert x != y


def test_imu_rejects_out_of_range_queries():
    sc = build_scenario(_simple_config())
    with pytest.raises(ValueError):
        sc.sample_imu(0, t=4.6, seq=460)
    with pytest.raises(KeyError):
        sc.sample_imu(5, t=1.0, seq=100)


def test_default_config_is_valid_and_stable():
    cfg = default_config(seed=42)
    cfg.validate()
    assert cfg.seed == 42
    assert len(cfg.clients) == 2
    assert cfg.frame_time_s == 0.5
    assert cfg.noise_sigma_m == 0.05
    assert cfg.body_radius_m == 0.25
    assert len(cfg.distractors) == 1
    scenario = Scenario(cfg)
    assert scenario.n_frames == 36


def test_sampling_equals_per_call_recomputation():
    # the path tables built once per scenario must give exactly what rebuilding
    # them on every call gives: poses, IMU readings and clouds, bit for bit
    still = PathSpec(waypoints=((1.0, 1.0), (2.0, 1.0)), speed_mps=0.0)
    cfg = dataclasses.replace(default_config(seed=7), distractors=(default_config().distractors[0], still))
    sc = build_scenario(cfg)
    rate = 100.0
    # every waypoint arrival of the clients' paths, plus the regular sample train
    arrivals = [0.0, cfg.duration_s]
    for path in cfg.clients:
        seg = np.diff(np.asarray(path.waypoints), axis=0)
        for d in np.cumsum(np.hypot(seg[:, 0], seg[:, 1])):
            arrivals.append(path.initial_hold_s + d / path.speed_mps)
    times = sorted(set(arrivals) | {i / rate for i in range(int(cfg.duration_s * rate) + 1)})
    for seq, t in enumerate(times):
        truth = sc.ground_truth(t)
        for cid, path in enumerate(cfg.clients):
            pos, vel, heading = pose_on_path_reference(path, t)
            assert np.array_equal(truth[cid].position_m, pos)
            assert np.array_equal(truth[cid].velocity_mps, vel)
            assert truth[cid].heading_rad == heading
            for dt in (1.0 / rate, cfg.frame_time_s):
                s = sc.sample_imu(cid, t, dt=dt, seq=seq)
                accel, gyro = imu_sample_reference(cfg, cid, t, dt, seq)
                assert np.array_equal(s.accel_mps2, accel)
                assert np.array_equal(s.gyro_radps, gyro)
    for k in range(int(cfg.duration_s * cfg.radar_rate_hz) + 1):
        assert np.array_equal(sc.sample_point_cloud(k).points, point_cloud_reference(cfg, k))


def _assert_imu_matches_reference(sc, cid, t, dt=0.01, seq=0):
    s = sc.sample_imu(cid, t, dt=dt, seq=seq)
    accel, gyro = imu_sample_reference(sc.config, cid, t, dt, seq)
    assert np.array_equal(s.accel_mps2, accel), (cid, t, seq)
    assert np.array_equal(s.gyro_radps, gyro), (cid, t, seq)


# the first and last reading of a noise block, the next block, the last u32 seq
EDGE_SEQS = (0, 255, 256, 511, 512, U32 - 1)


def test_imu_noise_for_seeds_beyond_32_bits():
    # a seed of 2**32 or more is two words of the generator's key
    for seed in (U32 - 1, U32, U32 + 5, 2**64 + 1):
        sc = build_scenario(_simple_config(noise_sigma_m=0.05, seed=seed))
        for cid in (0, 1):
            for t in (0.0, 0.01, 0.3, 1.27, 4.0):
                for seq in EDGE_SEQS:
                    _assert_imu_matches_reference(sc, cid, t, seq=seq)


def test_imu_noise_for_instants_beyond_32_bit_microseconds():
    # the noise is keyed by seq, not by the instant: a run past 4,294.967296 s
    # (2**32 microseconds) reads what the oracle reads at its 100 Hz seq
    sc = build_scenario(_simple_config(noise_sigma_m=0.05, duration_s=4300.0))
    for t in (4294.967295, 4294.967296, 4294.97, 4299.99, 4300.0):
        for cid in (0, 1):
            _assert_imu_matches_reference(sc, cid, t, seq=int(round(t * 100)))
            _assert_imu_matches_reference(sc, cid, t, seq=U32 - 1)


def test_imu_noise_is_independent_of_call_order():
    # the same (client, seq) reads the same whatever was drawn before it, on
    # this scenario or on a fresh one
    cfg = _simple_config(noise_sigma_m=0.05, seed=11)
    seqs = dict.fromkeys((*range(250, 262), *EDGE_SEQS, 1000, 3))  # distinct, in this order
    keys = [(cid, seq) for seq in seqs for cid in (0, 1)]
    t = 1.5

    def read(sc, order):
        out = {}
        for cid, seq in order:
            s = sc.sample_imu(cid, t, seq=seq)
            out[cid, seq] = np.concatenate([s.accel_mps2, s.gyro_radps])
        return out

    ascending = read(build_scenario(cfg), sorted(keys, key=lambda k: k[1]))
    shuffled = list(keys)
    np.random.default_rng(0).shuffle(shuffled)
    sc = build_scenario(cfg)
    first = read(sc, shuffled)
    again = read(sc, keys[::-1])  # the same scenario, its blocks already drawn
    other = read(build_scenario(dataclasses.replace(cfg, seed=12)), keys)
    fresh = read(build_scenario(cfg), shuffled[::-1])  # after another seed's blocks
    for key in keys:
        accel, gyro = imu_sample_reference(cfg, key[0], t, 0.01, key[1])
        want = np.concatenate([accel, gyro])
        for got in (ascending, first, again, fresh):
            assert np.array_equal(got[key], want), key
    # distinct seeds, clients and seqs read distinct noise
    assert len({tuple(v) for v in (*ascending.values(), *other.values())}) == 2 * len(keys)


def test_imu_noise_is_exact_under_concurrent_readers():
    # UDP mode samples each client from its own sender thread while calibration
    # samples both: the per-client block cache may be drawn twice, never mixed
    cfg = _simple_config(noise_sigma_m=0.05, seed=5)
    seqs = range(0, 1024, 3)
    want = {
        (cid, seq): build_scenario(cfg).sample_imu(cid, 1.0, seq=seq).accel_mps2
        for cid in (0, 1) for seq in seqs
    }
    sc = build_scenario(cfg)
    bad = []

    def reader(k):
        for seq in (seqs if k % 2 else reversed(seqs)):
            for cid in (k % 2, 1 - k % 2):
                if not np.array_equal(sc.sample_imu(cid, 1.0, seq=seq).accel_mps2, want[cid, seq]):
                    bad.append((k, cid, seq))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_imu_noise_statistics_across_blocks():
    # 4,096 readings of a client standing still (16 noise blocks): each noise
    # channel has the configured scale and no lag-1 or block-period correlation
    sigma = 0.05
    cfg = _simple_config(noise_sigma_m=sigma, seed=2)
    sc = build_scenario(cfg)
    n = 4096
    reads = [sc.sample_imu(0, 0.3, seq=seq) for seq in range(n)]  # inside the 0.5 s hold
    accel = np.array([s.accel_mps2 for s in reads]) - [0.0, 0.0, 9.81]
    gyro = np.array([s.gyro_radps for s in reads])
    for noise, scale in ((accel, 0.4 * sigma), (gyro, 0.002 * sigma)):
        assert abs(noise.std() / scale - 1.0) < 0.05
        for channel in noise.T:
            z = channel - channel.mean()
            for lag in (1, 256):
                r = (z[:-lag] @ z[lag:]) / (z @ z)
                assert abs(r) < 0.05, (lag, r)


def test_noiseless_imu_matches_reference():
    sc = build_scenario(_simple_config(noise_sigma_m=0.0))
    for cid in (0, 1):
        for t in (0.0, 0.5, 0.51, 1.0, 2.37, 4.0):
            _assert_imu_matches_reference(sc, cid, t)


def test_negative_seed_is_rejected_as_before():
    cfg = _simple_config(noise_sigma_m=0.05, seed=-1)
    assert cfg.clutter == ()
    with pytest.raises(ValueError):
        build_scenario(cfg)  # the config's validation, a ValueError
    # a scenario whose config is given a negative seed after it was built
    sc = build_scenario(_simple_config(noise_sigma_m=0.05))
    sc.config.seed = -1
    with pytest.raises(ValueError):
        sc.sample_imu(0, 0.3, seq=30)
    with pytest.raises(ValueError):
        sc.sample_point_cloud(3)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**34),
    cid=st.integers(0, 1),
    t=st.floats(0.0, 4.0, allow_nan=False),
    dt=st.sampled_from([0.01, 0.5]),
    sigma=st.sampled_from([0.0, 1e-3, 0.05, 0.3]),
    seq=st.one_of(st.sampled_from(EDGE_SEQS), st.integers(0, U32 - 1)),
)
def test_imu_sample_equals_reference_property(seed, cid, t, dt, sigma, seq):
    sc = build_scenario(_simple_config(noise_sigma_m=sigma, seed=seed))
    _assert_imu_matches_reference(sc, cid, t, dt, seq)


def _window_equals_readings(sc, cid, seq, dt):
    """A window's rows are, bit for bit, the readings of one call each."""
    seq = np.asarray(seq, dtype=np.int64)
    window = sc.sample_imu(cid, seq / 100.0, dt=dt, seq=seq)
    ones = [sc.sample_imu(cid, q / 100.0, dt=dt, seq=q) for q in seq.tolist()]
    assert window.client_id == cid
    assert window.seq.tolist() == seq.tolist()
    for got, field in ((window.timestamp_s, "timestamp_s"), (window.accel_mps2, "accel_mps2"),
                       (window.gyro_radps, "gyro_radps")):
        want = np.array([getattr(s, field) for s in ones], dtype=float)
        # bytes, not ==, so that -0.0 and 0.0 differ
        assert got.tobytes() == want.tobytes(), (cid, field, seq[0])
    return window


# the default walk: holds of 1 s and 2.5 s, three corners, the end of the
# path at 14.7 s; one client without a hold; every variant with and without noise
WINDOW_CONFIGS = [
    default_config(seed=0),
    default_config(seed=1),
    default_config(seed=2),
    dataclasses.replace(default_config(seed=2), noise_sigma_m=0.0),
    dataclasses.replace(
        default_config(seed=3),
        clients=(dataclasses.replace(default_config().clients[0], initial_hold_s=0.0),
                 default_config().clients[1]),
    ),
    dataclasses.replace(
        default_config(seed=3),
        noise_sigma_m=0.0,
        clients=(dataclasses.replace(default_config().clients[0], initial_hold_s=0.0),
                 default_config().clients[1]),
    ),
]


@pytest.mark.parametrize("cfg", WINDOW_CONFIGS)
def test_imu_window_equals_its_readings(cfg):
    # 1,800 readings per client (the whole 18 s run at 100 Hz) in the inline
    # feed's windows of 50 and in windows of 37, some of which straddle a
    # 256-reading noise block; frame-cadence dt too
    sc = build_scenario(cfg)
    seqs = np.arange(1, 1801)
    for cid in (0, 1):
        for size, dt in ((50, 0.01), (37, 0.01), (37, 0.5)):
            for start in range(0, len(seqs), size):
                _window_equals_readings(sc, cid, seqs[start:start + size], dt)
    straddling = np.arange(250, 262)
    assert len(set((straddling // 256).tolist())) == 2
    _window_equals_readings(build_scenario(cfg), 0, straddling, 0.01)  # neither block drawn yet
    _window_equals_readings(sc, 1, seqs, 0.01)  # one window of all 1,800, eight blocks


def test_imu_window_covers_a_turn_and_the_path_end():
    cfg = _simple_config(
        noise_sigma_m=0.05,
        clients=(
            PathSpec(waypoints=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), speed_mps=0.5),
            PathSpec(waypoints=((4.0, 0.0), (4.0, 2.0)), speed_mps=0.5, initial_hold_s=1.0),
        ),
    )
    sc = build_scenario(cfg)
    # client 0 turns at 2.0 s and stops at 4.0 s, the scenario's last instant
    window = _window_equals_readings(sc, 0, np.arange(195, 401), 0.01)
    turn = window.seq.tolist().index(201)
    assert window.gyro_radps[turn, 2] * 0.01 == pytest.approx(math.pi / 2.0, abs=1e-2)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_imu_window_across_the_heading_wrap_equals_reference(sigma):
    # headings step across +-180 deg both ways (pi to -(pi - 0.0997) and
    # back) and reverse (pi/2 to -pi/2, where the wrapped angle is exactly 0)
    cfg = _simple_config(
        noise_sigma_m=sigma,
        duration_s=6.0,
        clients=(
            PathSpec(waypoints=((2.0, 0.0), (0.0, 0.0), (-1.0, -0.1)), speed_mps=0.5),
            PathSpec(waypoints=((0.0, 2.0), (-2.0, 1.8), (-3.0, 1.8)), speed_mps=0.5),
            PathSpec(waypoints=((5.0, 0.0), (5.0, 2.0), (5.0, 0.0)), speed_mps=0.5),
        ),
    )
    sc = build_scenario(cfg)
    seq = np.arange(601)
    turn = {0: 400, 1: int(math.ceil(math.hypot(2.0, 0.2) / 0.5 * 100)), 2: 400}
    for cid in (0, 1, 2):
        for dt in (0.01, 0.5):
            window = sc.sample_imu(cid, seq / 100.0, dt=dt, seq=seq)
            for k in seq.tolist():
                accel, gyro = imu_sample_reference(cfg, cid, k / 100.0, dt, k)
                assert window.accel_mps2[k].tobytes() == accel.tobytes(), (cid, dt, k)
                assert window.gyro_radps[k].tobytes() == gyro.tobytes(), (cid, dt, k)
        if sigma == 0.0:
            # the reading at the corner turns by the small angle, not by ~2 pi
            yaw = sc.sample_imu(cid, seq / 100.0, dt=0.01, seq=seq).gyro_radps[turn[cid], 2] * 0.01
            assert abs(yaw) == pytest.approx({0: 0.0997, 1: 0.0997, 2: math.pi}[cid], abs=1e-3)


def test_imu_window_raises_the_scalar_errors():
    sc = build_scenario(_simple_config(noise_sigma_m=0.05))
    seq = np.arange(10, 20)
    t = seq / 100.0
    for bad in (4.6, -0.01, math.nan):
        with pytest.raises(ValueError) as one:
            sc.sample_imu(0, bad, seq=19)
        with pytest.raises(ValueError) as window:
            sc.sample_imu(0, np.append(t[:-1], bad), seq=seq)
        assert str(window.value) == str(one.value)
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt must be > 0"):
            sc.sample_imu(0, t, dt=dt, seq=seq)
    for cid in (-1, 2, 5):
        with pytest.raises(KeyError):
            sc.sample_imu(cid, t, seq=seq)
    for times, seqs in ((t, seq[:-1]), (t[:-1], seq), (t, 15), (0.15, seq),
                        (t.reshape(2, 5), seq.reshape(2, 5))):
        with pytest.raises(ValueError, match="equal-length 1-D arrays"):
            sc.sample_imu(0, times, seq=seqs)


def test_empty_imu_window():
    window = build_scenario(_simple_config(noise_sigma_m=0.05)).sample_imu(
        0, np.empty(0), seq=np.empty(0, dtype=np.int64)
    )
    assert window.seq.shape == window.timestamp_s.shape == (0,)
    assert window.accel_mps2.shape == window.gyro_radps.shape == (0, 3)
