"""End-to-end pipeline: binding, gating, capture replay, and scoring."""

import collections
import ctypes
import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import queue
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import inertial_tier_reference, polyline_distance_reference

import beamtrack.pipeline as pipeline_module
from beamtrack.errors import DatagramError, ValidationError
from beamtrack.imu import GRAVITY_MPS2, ImuSample
from beamtrack.telemetry import encode_imu_datagram
from beamtrack.clustering import DbscanParams, dbscan
from beamtrack.kalman import KalmanConfig
from beamtrack.pipeline import (
    CaptureWriter,
    Pipeline,
    PipelineParams,
    _inline_source,
    calibrate_clients,
    compute_rms,
    debias_core,
    frame_record,
    path_distances,
    radar_instant,
    replay_capture,
    run_from_capture,
    run_scenario,
    run_scores,
    surface_bias_m,
)
from beamtrack.world import PointCloudFrame, ScenarioConfig, build_scenario, default_config


def _ring(cx, cy, n=6, r=0.05, doppler=1.0):
    """A tight, symmetric clump whose centroid is exactly (cx, cy)."""
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack(
        [cx + r * np.cos(ang), cy + r * np.sin(ang), np.full(n, 1.0), np.full(n, doppler)]
    )


def _params():
    return PipelineParams(
        frame_time_s=0.5,
        dbscan=DbscanParams(eps_m=0.3, min_pts=4),
        kalman=KalmanConfig(sigma_accel_mps2=1.0, sigma_meas_m=0.02),
        body_radius_m=0.0,
        radar_xy=(0.0, 0.0),
    )


def _short_config(**overrides):
    return dataclasses.replace(default_config(), duration_s=4.0, **overrides)


def test_surface_bias_value():
    # mean of cos(u) over u ~ U(-pi/2, pi/2) is 2/pi
    assert surface_bias_m(0.25) == pytest.approx(0.25 * 2.0 / math.pi)
    assert surface_bias_m(0.0) == 0.0


def test_debias_pushes_core_away_from_radar():
    core = np.array([3.0, 4.0])
    out = debias_core(core, 0.25)
    bias = surface_bias_m(0.25)
    assert np.allclose(out, core * (1.0 + bias / 5.0))
    assert np.linalg.norm(out) == pytest.approx(5.0 + bias)
    # direction is preserved
    assert np.allclose(out / np.linalg.norm(out), core / 5.0)
    # a core at the radar itself cannot be debiased
    assert np.array_equal(debias_core(np.zeros(2), 0.25), np.zeros(2))


def test_params_for_config():
    cfg = _short_config()
    params = PipelineParams.for_config(cfg)
    assert params.frame_time_s == cfg.frame_time_s
    assert params.kalman.sigma_accel_mps2 == 2.0
    assert params.kalman.sigma_meas_m == 0.02
    assert params.radar_xy == (cfg.radar_pose[0], cfg.radar_pose[1])
    assert params.body_radius_m == cfg.body_radius_m


def test_pipeline_requires_two_clients():
    with pytest.raises(ValidationError):
        Pipeline(_params(), {0: 0.0})
    with pytest.raises(ValidationError):
        Pipeline(_params(), {0: 0.0, 1: 0.0, 2: 0.0})


def test_calibration_recovers_small_biases():
    profiles = calibrate_clients(build_scenario(_short_config()))
    assert set(profiles) == {0, 1}
    for profile in profiles.values():
        assert np.all(np.abs(profile.accel_bias) < 0.05)
        assert np.all(np.abs(profile.gyro_bias) < 0.01)


def test_identification_window_then_binding():
    pipe = Pipeline(_params(), {0: 0.0, 1: 0.0})
    pts = np.vstack([_ring(2.0, 1.0), _ring(2.0, -1.0)])
    reports = [pipe.process_frame(k, (k + 1) * 0.5, pts, {}) for k in range(3)]
    # before the window opens nothing is bound and no filter exists
    for rep in reports[:2]:
        assert not rep.identified
        assert all(c.bound_label is None for c in rep.clients)
        assert all(c.kf_position_m is None for c in rep.clients)
        assert all(c.beam is None for c in rep.clients)
    rep = reports[2]
    assert rep.identified and not rep.error_flag
    assert [c.bound_label for c in rep.clients] == [0, 1]
    assert "client 0 bound to cluster 0" in rep.events
    assert "client 1 bound to cluster 1" in rep.events
    # the filter is seeded from the bound cluster's centroid
    assert np.allclose(rep.clients[0].kf_position_m, [2.0, 1.0], atol=1e-9)
    assert np.allclose(rep.clients[1].kf_position_m, [2.0, -1.0], atol=1e-9)
    # both peers sit in each other's beamspace, so sectors are assigned
    assert all(c.beam is not None and c.beam.sector is not None for c in rep.clients)


def test_pipeline_tracks_the_client_ids_it_is_given():
    pipe = Pipeline(_params(), {7: 0.0, 3: 0.0})
    a, b = _ring(2.0, 1.0), _ring(2.0, -1.0)
    batches = {cid: [_imu(cid, 0, 0.1)] for cid in (3, 7)}
    reports = [pipe.process_frame(0, 0.5, np.vstack([a, b]), batches)]
    assert [t.motion.last_update_s for t in pipe.tracks.values()] == [0.1, 0.1]
    for k in range(1, 5):
        pts = a if k == 4 else np.vstack([a, b])  # the second clump vanishes at frame 4
        reports.append(pipe.process_frame(k, (k + 1) * 0.5, pts, {}))
    assert all([c.client_id for c in r.clients] == [3, 7] for r in reports)
    bound = reports[2]
    assert bound.identified
    assert bound.events == ["client 3 bound to cluster 0", "client 7 bound to cluster 1"]
    filtered = reports[3]
    assert [c.bound_label for c in filtered.clients] == [0, 1]
    assert np.allclose(filtered.clients[0].measurement_m, [2.0, 1.0], atol=1e-9)
    assert np.allclose(filtered.clients[1].kf_position_m, [2.0, -1.0], atol=1e-9)
    # each steers at the other from its own heading, which the one gyro
    # reading turned left: client 7 falls just behind client 3's beamspace
    beams = [c.beam for c in filtered.clients]
    turn = math.degrees(filtered.clients[0].heading_rad)
    assert turn > 0 and filtered.clients[1].heading_rad == filtered.clients[0].heading_rad
    assert [beam.bearing_deg for beam in beams] == pytest.approx([-90.0 - turn, 90.0 - turn])
    assert [beam.in_beamspace for beam in beams] == [False, True]
    assert beams[0].sector is None and beams[1].sector is not None
    lost = reports[4]
    assert lost.events == [
        "client 7 binding to cluster 1 lost",
        "identification unavailable: need at least 2 velocity-bearing clusters, got 1",
    ]
    assert lost.clients[1].coasting and lost.clients[0].bound_label == 0


def _imu(cid, seq, t, accel=(0.1, 0.0, 9.81)):
    return ImuSample(client_id=cid, seq=seq, timestamp_s=t,
                     accel_mps2=np.array(accel), gyro_radps=np.array([0.0, 0.0, 0.2]))


def test_inertial_tier_calls_each_stage_once_per_fresh_sample(monkeypatch):
    # the benchmark's imu.* layer metrics wrap these three names where the
    # pipeline looks them up and divide by their call counts
    calls = collections.Counter()
    for name in ("madgwick_update", "gravity_compensate", "integrate_velocity"):
        def counted(*args, _name=name, _fn=getattr(pipeline_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline_module, name, counted)
    pipe = Pipeline(_params(), {0: 0.0, 1: 0.0})
    pts = np.vstack([_ring(2.0, 1.0), _ring(2.0, -1.0)])
    n = 5
    batches = {cid: [_imu(cid, i, 0.1 * (i + 1)) for i in range(n)] for cid in (0, 1)}
    pipe.process_frame(0, 0.5, pts, batches)
    assert calls == {"madgwick_update": 2 * n, "gravity_compensate": 2 * n,
                     "integrate_velocity": 2 * n}
    calls.clear()
    repeat = {cid: [batches[cid][-1]] for cid in (0, 1)}  # already consumed
    pipe.process_frame(1, 1.0, pts, repeat)
    assert not calls
    unusable = {0: [_imu(0, n, 0.6, accel=(math.nan, 0.0, 9.81))]}
    pipe.process_frame(2, 1.5, pts, unusable)
    assert not calls
    assert pipe.tracks[0].motion.last_update_s == 0.1 * n


def _assert_python_floats(vector, n):
    assert type(vector) is tuple and [type(x) for x in vector] == [float] * n, vector


def test_inline_readings_and_inertial_state_are_python_floats():
    # the inertial tier's per-reading cost rests on plain float arithmetic: one
    # numpy scalar in a reading or in the state makes every later step numpy's
    cfg = _short_config()
    scenario = build_scenario(cfg)
    headings = {gt.client_id: gt.heading_rad for gt in scenario.ground_truth(0.0)}
    pipe = Pipeline(PipelineParams.for_config(cfg), headings, calibrate_clients(scenario))
    batches, cloud = next(_inline_source(scenario))
    assert sorted(len(samples) for samples in batches.values()) == [50, 50]
    for samples in batches.values():
        for s in samples:
            _assert_python_floats(s.accel_mps2, 3)
            _assert_python_floats(s.gyro_radps, 3)
    pipe.process_frame(0, cfg.frame_time_s, cloud.points, batches, cloud.timestamp_s)
    for track in pipe.tracks.values():
        assert track.motion.last_update_s == pytest.approx(cfg.frame_time_s)
        _assert_python_floats(track.motion.orientation, 4)
        _assert_python_floats(track.motion.velocity_mps, 3)
        _assert_python_floats(track.prev_accel_global, 3)


def _sparse_radar_reports(edit):
    """Frame reports of the seed-0 demo walks at 200 returns per body, no clutter.

    edit(frame_index, imu_batches) may change each frame's inline IMU feed first.
    """
    cfg = dataclasses.replace(default_config(0), points_per_client_per_frame=200, clutter=())
    scenario = build_scenario(cfg)
    headings = {gt.client_id: gt.heading_rad for gt in scenario.ground_truth(0.0)}
    pipe = Pipeline(PipelineParams.for_config(cfg), headings, calibrate_clients(scenario))
    reports = []
    for k, (batches, cloud) in enumerate(_inline_source(scenario)):
        edit(k, batches)
        reports.append(pipe.process_frame(
            k, (k + 1) * cfg.frame_time_s, cloud.points, batches, measurement_time_s=cloud.timestamp_s
        ))
    return reports


def _drop_counts(reports):
    """(frame, client id, non-finite, stale, future) of every frame where a count is not 0."""
    return [
        (r.frame_index, c.client_id, c.imu_dropped_non_finite, c.imu_dropped_stale,
         c.imu_dropped_future)
        for r in reports for c in r.clients
        if c.imu_dropped_non_finite or c.imu_dropped_stale or c.imu_dropped_future
    ]


def test_non_finite_imu_sample_is_dropped_like_a_missing_one():
    def delete(k, batches):
        if k == 2:
            del batches[0][10]

    deleted = _sparse_radar_reports(delete)
    want = [frame_record(r) for r in deleted]
    assert want[2]["identified"] and len(want) == 36
    assert _drop_counts(deleted) == []
    assert all(r.non_finite_points == 0 for r in deleted)
    non_finite, future = (2, 0, 1, 0, 0), (2, 0, 0, 0, 1)
    # 1e200 and 1e300 are finite, but a step of madgwick_update that large
    # overflows: sin() of an infinite angle, or a renormalisation's square.
    # Applied, a reading at 1e6 s would leave every later one of its client
    # stale, and its IMU velocity frozen for the rest of the run.
    for field, index, bad, drops in (
        ("accel_mps2", 0, math.nan, non_finite), ("gyro_radps", 2, -math.inf, non_finite),
        ("timestamp_s", None, math.nan, non_finite), ("timestamp_s", None, math.inf, non_finite),
        ("gyro_radps", 2, 1e200, non_finite), ("timestamp_s", None, 1e300, non_finite),
        ("timestamp_s", None, 1e6, future),
    ):
        def poison(k, batches):
            if k == 2:
                sample = batches[0][10]
                value = bad
                if index is not None:  # the vectors are tuples: rebuild one
                    value = list(getattr(sample, field))
                    value[index] = bad
                    value = tuple(value)
                batches[0][10] = dataclasses.replace(sample, **{field: value})

        reports = _sparse_radar_reports(poison)
        assert [frame_record(r) for r in reports] == want, (field, bad)
        assert _drop_counts(reports) == [drops], (field, bad)


def test_fused_snapshot_equals_per_reading_reference():
    # the fused velocity and heading, taken once per frame, equal a loop that
    # snapshots after every applied reading at or before the measurement instant
    cfg = dataclasses.replace(default_config(0), points_per_client_per_frame=200, clutter=())
    scenario = build_scenario(cfg)
    calibrations = calibrate_clients(scenario)
    headings = {gt.client_id: gt.heading_rad for gt in scenario.ground_truth(0.0)}
    rng = np.random.default_rng(4)
    source = list(itertools.islice(_inline_source(scenario), 8))
    feeds = []
    for k, (batches, cloud) in enumerate(source):
        instant = cloud.timestamp_s
        readings = list(batches[0])
        last = max(i for i, s in enumerate(readings) if s.timestamp_s <= instant)
        if k == 1:  # a reading of the next window arrives early: applied, it
            # would make the next frame's first five readings stale
            readings.append(source[2][0][0][5])
        elif k == 2:  # the last reading before the instant is non-finite
            readings[last] = dataclasses.replace(
                readings[last], accel_mps2=np.array([math.nan, 0.0, 9.81])
            )
        elif k == 3:  # ... or a duplicate of the one before it
            readings[last] = readings[last - 1]
        elif k == 4:  # no reading falls at or before the instant
            readings = readings[last + 1:]
        elif k == 5:  # the batch arrives unsorted
            readings = [readings[i] for i in rng.permutation(len(readings))]
        elif k == 6:  # only a reading already applied falls at or before the instant
            readings = [feeds[-1][0][0][0]] + readings[last + 1:]
        feeds.append(({0: readings, 1: batches[1]}, instant))

    pipe = Pipeline(PipelineParams.for_config(cfg), headings, calibrations)
    reports = [
        pipe.process_frame(k, (k + 1) * cfg.frame_time_s, np.empty((0, 4)), batches, instant)
        for k, (batches, instant) in enumerate(feeds)
    ]
    for cid in (0, 1):
        cal = calibrations[cid]
        want = inertial_tier_reference(
            headings[cid], cal.accel_bias, cal.gyro_bias,
            [(batches[cid], instant, (k + 1) * cfg.frame_time_s)
             for k, (batches, instant) in enumerate(feeds)],
            0.1, GRAVITY_MPS2,  # madgwick_update's default gain
        )
        for report, (velocity, heading) in zip(reports, want):
            state = report.clients[cid]
            assert np.array_equal(state.imu_velocity_mps, velocity), (report.frame_index, cid)
            assert state.heading_rad == heading, (report.frame_index, cid)
    for k in (4, 6):  # the previous frame's values carry over
        assert reports[k].clients[0].heading_rad == reports[k - 1].clients[0].heading_rad
    assert _drop_counts(reports) == [
        (1, 0, 0, 0, 1), (2, 0, 1, 0, 0), (3, 0, 0, 1, 0), (6, 0, 0, 1, 0)
    ]


def _logged(log):
    """The frame records of a run's log, parsed."""
    return [json.loads(line) for line in log.read_text().splitlines()]


@functools.cache
def _short_demo_feed():
    """Config, headings, calibrations and inline (batches, cloud) feed of a 6-frame demo run."""
    cfg = dataclasses.replace(default_config(0), duration_s=3.0)
    scenario = build_scenario(cfg)
    headings = {gt.client_id: gt.heading_rad for gt in scenario.ground_truth(0.0)}
    calibrations = calibrate_clients(scenario)
    return cfg, headings, calibrations, list(_inline_source(scenario))


def _feed_reports(feed_batches):
    cfg, headings, calibrations, feed = _short_demo_feed()
    pipe = Pipeline(PipelineParams.for_config(cfg), headings, calibrations)
    return [
        pipe.process_frame(k, (k + 1) * cfg.frame_time_s, cloud.points, batches, cloud.timestamp_s)
        for k, (batches, (_, cloud)) in enumerate(zip(feed_batches, feed))
    ]


@functools.cache
def _clean_records():
    feed = _short_demo_feed()[3]
    return [frame_record(r) for r in _feed_reports([batches for batches, _ in feed])]


def _as_arrays(reading):
    return dataclasses.replace(
        reading, accel_mps2=np.array(reading.accel_mps2), gyro_radps=np.array(reading.gyro_radps)
    )


def _poisoned(reading, field, index, value):
    if field == "timestamp_s":
        return dataclasses.replace(reading, timestamp_s=value)
    vector = list(getattr(reading, field))
    vector[index] = value
    vector = tuple(vector) if type(getattr(reading, field)) is tuple else np.array(vector)
    return dataclasses.replace(reading, **{field: vector})


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fused_snapshot_equals_reference_on_mixed_messy_batches(data):
    # per client and frame: some readings missing, some with array vectors in
    # place of float tuples, some non-finite or with a step that overflows,
    # some sent twice, some of the next window's early, all shuffled; the
    # fused velocity and heading stay bit-equal to the array formulation
    cfg, headings, calibrations, feed = _short_demo_feed()
    field = st.sampled_from(["timestamp_s", "accel_mps2", "gyro_radps"])
    bad = st.one_of(
        st.tuples(field, st.integers(0, 2), st.sampled_from([math.nan, math.inf, -math.inf])),
        st.tuples(st.sampled_from(["timestamp_s", "gyro_radps"]), st.integers(0, 2), st.just(1e300)),
    )
    feeds = []
    for k, (batches, cloud) in enumerate(feed):
        out = {}
        for cid, batch in batches.items():
            n = len(batch)
            missing = data.draw(st.sets(st.integers(0, n - 1), max_size=n), f"missing {k} {cid}")
            arrays = data.draw(st.sets(st.integers(0, n - 1)), f"arrays {k} {cid}")
            poison = data.draw(
                st.dictionaries(st.integers(0, n - 1), bad, max_size=3), f"poison {k} {cid}"
            )
            readings = []
            for i, reading in enumerate(batch):
                if i in missing:
                    continue
                if i in arrays:
                    reading = _as_arrays(reading)
                if i in poison:
                    reading = _poisoned(reading, *poison[i])
                readings.append(reading)
            if readings:
                readings += data.draw(st.lists(st.sampled_from(readings), max_size=4), f"dup {k} {cid}")
            if k + 1 < len(feed):  # readings of the next window, early
                early = st.lists(st.sampled_from(feed[k + 1][0][cid]), max_size=3)
                readings += data.draw(early, f"early {k} {cid}")
            order = data.draw(st.permutations(range(len(readings))), f"order {k} {cid}")
            out[cid] = [readings[i] for i in order]
        feeds.append((out, cloud.timestamp_s))

    pipe = Pipeline(PipelineParams.for_config(cfg), headings, calibrations)
    reports = [
        pipe.process_frame(k, (k + 1) * cfg.frame_time_s, np.empty((0, 4)), batches, instant)
        for k, (batches, instant) in enumerate(feeds)
    ]
    for cid, cal in calibrations.items():
        want = inertial_tier_reference(
            headings[cid], cal.accel_bias, cal.gyro_bias,
            [(batches[cid], instant, (k + 1) * cfg.frame_time_s)
             for k, (batches, instant) in enumerate(feeds)],
            0.1, GRAVITY_MPS2,  # madgwick_update's default gain
        )
        for report, (velocity, heading) in zip(reports, want):
            state = report.clients[cid]
            assert state.imu_velocity_mps.tobytes() == velocity.tobytes(), (report.frame_index, cid)
            assert state.heading_rad == heading, (report.frame_index, cid)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_shuffled_duplicated_and_resent_readings_leave_the_frames_unchanged(data):
    # each client's batch arrives shuffled, with some readings twice and some
    # of the previous frame's readings again: every extra reading is stale
    feed = _short_demo_feed()[3]
    messy, extra = [], 0
    for k, (batches, _) in enumerate(feed):
        out = {}
        for cid, batch in batches.items():
            readings = list(batch)
            readings += data.draw(st.lists(st.sampled_from(batch), max_size=4), f"dup {k} {cid}")
            if k:
                previous = feed[k - 1][0][cid]
                readings += data.draw(
                    st.lists(st.sampled_from(previous), max_size=4), f"resend {k} {cid}"
                )
            extra += len(readings) - len(batch)
            order = data.draw(st.permutations(range(len(readings))), f"order {k} {cid}")
            out[cid] = [readings[i] for i in order]
        messy.append(out)
    reports = _feed_reports(messy)
    assert [frame_record(r) for r in reports] == _clean_records()
    assert sum(c.imu_dropped_stale for r in reports for c in r.clients) == extra
    assert all(c.imu_dropped_non_finite == 0 for r in reports for c in r.clients)
    assert any(r.identified for r in reports)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_radar_instant_counts_whole_instants_per_frame(data):
    # frame_time_s m / 100 s and radar_rate_hz a multiple of 100 / gcd(m, 100)
    # make frame_time_s * radar_rate_hz a whole number of instants, per
    m = data.draw(st.integers(1, 200), "m")
    step = 100 // math.gcd(m, 100)
    rate = step * data.draw(st.integers(1, 200 // step + 1), "rate multiple")
    per = m * rate // 100
    if per < 2:
        per, rate = 2 * per, 2 * rate
    config = dataclasses.replace(default_config(0), frame_time_s=m / 100, radar_rate_hz=float(rate))
    config.validate()
    k = data.draw(st.integers(0, 19_999), "k")
    assert radar_instant(config, k) == (k + 1) * per - 1


@pytest.mark.parametrize("frame_time_s", [0.16, 0.25, 0.35])
def test_a_frame_takes_the_last_radar_instant_before_its_window_end(frame_time_s):
    # frame_time_s * radar_rate_hz is 1.6, 2.5 or 3.5 instants: the frame
    # takes the last instant before its window end, as its readings end there
    config = dataclasses.replace(default_config(0), frame_time_s=frame_time_s)
    report = run_scenario(config, mode="both")
    assert len(report.frames) == build_scenario(config).n_frames > 50
    for r in report.frames:
        assert r.timestamp_s - frame_time_s <= r.measurement_time_s < r.timestamp_s, r.frame_index


def test_a_point_too_far_for_the_kd_tree_is_noise(tmp_path):
    # one finite row at 1e200 m: its squared distance to the rest of the frame
    # overflows float64, and the frame completes as it would without the row
    cfg = _short_config()
    scenario = build_scenario(cfg)

    def far():
        for k, (batches, cloud) in enumerate(_inline_source(scenario)):
            if k == 3:
                points = np.vstack([cloud.points, [1e200, 0.0, 1.0, 0.5]])
                cloud = dataclasses.replace(cloud, points=points)
            yield batches, cloud

    report = pipeline_module._run(scenario, "both", tmp_path / "far.jsonl", far())
    run_scenario(cfg, mode="both", log_path=tmp_path / "clean.jsonl")
    clean = _logged(tmp_path / "clean.jsonl")
    clean[3]["n_points"] += 1
    assert _logged(tmp_path / "far.jsonl") == clean
    assert report.non_finite_points == 0


def test_run_report_totals_drops_and_keeps_them_out_of_the_log(tmp_path):
    cfg = _short_config()
    scenario = build_scenario(cfg)
    bad_rows = np.array([[math.nan, 1.0, 1.0, 0.0], [1.0, math.inf, 1.0, 0.0],
                         [1.0, 1.0, 1.0, math.nan]])  # the last has finite x, y, z

    def poisoned():
        for k, (batches, cloud) in enumerate(_inline_source(scenario)):
            if k == 1:
                batches[0][5] = dataclasses.replace(batches[0][5], timestamp_s=math.nan)
                batches[1].append(batches[1][7])
                batches[0][9] = dataclasses.replace(batches[0][9], timestamp_s=1e6)
                cloud = dataclasses.replace(cloud, points=np.vstack([cloud.points, bad_rows]))
            yield batches, cloud

    report = pipeline_module._run(scenario, "algorithm", tmp_path / "poisoned.jsonl", poisoned())
    assert report.imu_dropped_non_finite == {0: 1, 1: 0}
    assert report.imu_dropped_stale == {0: 0, 1: 1}
    assert report.imu_dropped_future == {0: 1, 1: 0}
    assert report.non_finite_points == 2
    assert [r.non_finite_points for r in report.frames] == [0, 2] + [0] * 6
    assert report.non_finite_doppler == 1
    assert [r.non_finite_doppler for r in report.frames] == [0, 1] + [0] * 6
    clean = run_scenario(cfg, mode="algorithm", log_path=tmp_path / "clean.jsonl")
    assert clean.imu_dropped_non_finite == clean.imu_dropped_stale == {0: 0, 1: 0}
    assert clean.imu_dropped_future == {0: 0, 1: 0}
    assert clean.non_finite_points == clean.non_finite_doppler == 0
    # the counts are not part of the frame record, so logs stay as they were
    records = _logged(tmp_path / "poisoned.jsonl")
    clean_records = _logged(tmp_path / "clean.jsonl")
    assert [sorted(r) for r in records] == [sorted(r) for r in clean_records]
    assert [sorted(c) for r in records for c in r["clients"]] == [
        sorted(c) for r in clean_records for c in r["clients"]
    ]


def test_non_finite_doppler_is_counted_and_the_log_stays_json(tmp_path):
    # every 10th row of one demo frame has a NaN doppler: the rows are counted,
    # the cluster means skip them and the frame record is still strict JSON
    cfg = _short_config()
    scenario = build_scenario(cfg)

    def poisoned():
        for k, (batches, cloud) in enumerate(_inline_source(scenario)):
            if k == 3:
                points = cloud.points.copy()
                points[::10, 3] = math.nan
                cloud = dataclasses.replace(cloud, points=points)
            yield batches, cloud

    report = pipeline_module._run(scenario, "both", tmp_path / "poisoned.jsonl", poisoned())
    n_bad = (report.frames[3].n_points + 9) // 10  # rows 0, 10, 20, ...
    assert [r.non_finite_doppler for r in report.frames] == [0, 0, 0, n_bad] + [0] * 4
    assert report.non_finite_doppler == n_bad and report.non_finite_points == 0
    assert report.frames[3].clusters
    records = _logged(tmp_path / "poisoned.jsonl")
    for record in records:
        json.dumps(record, allow_nan=False)
    clean = run_scenario(cfg, mode="both", log_path=tmp_path / "clean.jsonl")
    assert [sorted(r) for r in records] == [sorted(r) for r in _logged(tmp_path / "clean.jsonl")]
    assert report.rms_by_client == clean.rms_by_client


def test_tracking_follows_moving_cluster():
    pipe = Pipeline(_params(), {0: 0.0, 1: 0.0})
    for k in range(8):
        ax = 2.0 + 0.2 * max(0, k - 2)  # client 0's clump starts moving after binding
        pts = np.vstack([_ring(ax, 1.0), _ring(2.0, -1.0)])
        rep = pipe.process_frame(k, (k + 1) * 0.5, pts, {})
    assert [c.bound_label for c in rep.clients] == [0, 1]
    assert not rep.error_flag and not any(c.coasting for c in rep.clients)
    assert np.allclose(rep.clients[0].measurement_m, [3.0, 1.0], atol=1e-9)
    assert np.linalg.norm(rep.clients[0].kf_position_m - [3.0, 1.0]) < 0.1


def test_binding_lost_then_recovered():
    pipe = Pipeline(_params(), {0: 0.0, 1: 0.0})
    a, b = _ring(2.0, 1.0), _ring(2.0, -1.0)
    by_frame = {}
    for k in range(7):
        pts = a if k == 3 else np.vstack([a, b])  # second clump vanishes at frame 3
        by_frame[k] = pipe.process_frame(k, (k + 1) * 0.5, pts, {})
    lost = by_frame[3]
    assert lost.error_flag
    assert "client 1 binding to cluster 1 lost" in lost.events
    assert any(e.startswith("identification unavailable") for e in lost.events)
    assert lost.clients[1].bound_label is None and lost.clients[1].coasting
    assert lost.clients[0].bound_label == 0  # the surviving binding is kept
    # frame 4: the clump is back but brand new, so it has no velocity yet
    assert by_frame[4].error_flag and not by_frame[4].identified
    # frame 5: the new clump has a velocity and identification rebinds to it
    recovered = by_frame[5]
    assert recovered.identified and not recovered.error_flag
    assert [c.bound_label for c in recovered.clients] == [0, 2]
    assert "client 1 bound to cluster 2" in recovered.events


def test_gated_measurements_coast_then_flag():
    pipe = Pipeline(_params(), {0: 0.0, 1: 0.0})
    a = _ring(2.0, 1.0)
    by_frame = {}
    for k in range(16):
        # the second clump runs away 1 m/frame from frame 12 (below the
        # association threshold, far outside the settled filter gate)
        bx = 2.0 + max(0, k - 11) * 1.0
        by_frame[k] = pipe.process_frame(
            k, (k + 1) * 0.5, np.vstack([a, _ring(bx, -1.0)]), {}
        )
    for k in (12, 13, 14):
        assert "client 1 gated measurement from cluster 1" in by_frame[k].events
        assert by_frame[k].clients[1].coasting
        assert not by_frame[k].clients[0].coasting
    assert by_frame[14].error_flag
    assert "client 1 reacquire limit reached" in by_frame[14].events
    assert not by_frame[13].error_flag  # only the third strike raises the flag
    # the error state forces re-identification on the next frame
    assert by_frame[15].identified and not by_frame[15].error_flag


def test_one_prediction_per_filtered_client_frame(monkeypatch):
    # each client-frame with a filter not started this frame predicts once;
    # the gate, if any, and the update or the coast both read that prediction
    calls = []
    for name in ("kf_init", "kf_predict", "kf_reacquire", "kf_step"):

        def counted(*args, _name=name, _fn=getattr(pipeline_module, name)):
            out = _fn(*args)
            calls.append((_name, args[0], out))
            return out

        monkeypatch.setattr(pipeline_module, name, counted)
    pipe = Pipeline(_params(), {0: 0.0, 1: 0.0})
    a = _ring(2.0, 1.0)
    seen = collections.Counter()
    for k in range(20):
        # as in test_gated_measurements_coast_then_flag, then the second clump vanishes
        bx = 2.0 + max(0, k - 11) * 1.0
        clumps = [a] if k >= 17 else [a, _ring(bx, -1.0)]
        calls.clear()
        report = pipe.process_frame(k, (k + 1) * 0.5, np.vstack(clumps), {})
        predicted = {id(out) for name, _, out in calls if name == "kf_predict"}
        started = sum(name == "kf_init" for name, _, _ in calls)
        filtered = sum(c.kf_position_m is not None for c in report.clients)
        assert len(predicted) == filtered - started
        steps = collections.Counter(id(arg) for name, arg, _ in calls if name == "kf_step")
        gates = collections.Counter(id(arg) for name, arg, _ in calls if name == "kf_reacquire")
        assert steps == dict.fromkeys(predicted, 1)
        assert set(gates) <= predicted and max(gates.values(), default=0) <= 1
        seen["gated"] += sum(out is True for name, _, out in calls if name == "kf_reacquire")
        seen["unbound coast"] += sum(c.coasting and c.bound_label is None for c in report.clients)
    assert seen["gated"] >= 3 and seen["unbound coast"] > 0


def test_path_distances_against_dense_sampling():
    rng = np.random.default_rng(11)
    waypoints = [(0.0, 0.0), (2.0, 0.0), (2.0, 3.0), (-1.0, 3.0)]
    pts = rng.uniform(-2.0, 5.0, size=(40, 2))
    got = path_distances(pts, waypoints)
    for p, d in zip(pts, got):
        assert d == pytest.approx(polyline_distance_reference(p, waypoints), abs=2e-4)


def test_path_distances_degenerate_segment():
    waypoints = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]  # zero-length first leg
    d = path_distances(np.array([[0.0, 2.0]]), waypoints)
    assert np.isfinite(d).all()
    assert d[0] == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        path_distances(np.array([[0.0, 0.0]]), [(1.0, 1.0)])


def test_compute_rms():
    waypoints = [(0.0, 0.0), (4.0, 0.0)]
    pts = np.array([[1.0, 0.3], [2.0, -0.4], [3.0, 0.0]])
    expected = math.sqrt((0.09 + 0.16 + 0.0) / 3.0)
    assert compute_rms(pts, waypoints) == pytest.approx(expected)
    with pytest.raises(ValidationError):
        compute_rms(np.empty((0, 2)), waypoints)


def test_short_run_report_texture(tmp_path):
    report = run_scenario(_short_config(), mode="algorithm", log_path=tmp_path / "run.jsonl")
    assert report.mode == "algorithm"
    assert report.identified_at_frame == 2
    assert report.error_frames == 0
    assert set(report.rms_by_client) == {0, 1}
    assert all(v is not None and v < 0.25 for v in report.rms_by_client.values())
    # no baseline ran, so no scan bookkeeping
    assert report.scan_events == [] and report.scan_frames_spent == 0
    assert report.mean_gain_beamscan is None
    assert len(_logged(tmp_path / "run.jsonl")) == len(report.frames) == 8


def test_run_rejects_bad_modes_and_configs():
    cfg = _short_config()
    for mode in ("hold", "beamscan"):
        with pytest.raises(ValidationError, match="unknown mode"):
            run_scenario(cfg, mode=mode)
    for clients in (cfg.clients[:1], cfg.clients + cfg.clients[:1]):
        with pytest.raises(ValidationError, match="exactly two clients"):
            run_scenario(dataclasses.replace(cfg, clients=clients), mode="algorithm")


def test_scan_baseline_bookkeeping(tmp_path):
    report = run_scenario(_short_config(), mode="both", log_path=tmp_path / "run.jsonl")
    assert report.scan_events, "the baseline scans at least once at the start"
    assert {e.client_id for e in report.scan_events} == {0, 1}
    for ev in report.scan_events:
        # sweeping 8 groups of 8 then revisiting the best group member-by-member
        assert ev.frames_spent == 16
        assert 0 <= ev.sector < 64
        assert ev.gain >= 0.0
    assert report.scan_frames_spent == sum(e.frames_spent for e in report.scan_events)
    assert report.mean_gain_algorithm is not None
    assert report.mean_gain_beamscan is not None
    # every log record carries the held baseline sector alongside the live one
    records = _logged(tmp_path / "run.jsonl")
    assert all("beamscan_sector" in c for r in records for c in r["clients"])


@pytest.mark.parametrize("mode", ["algorithm", "both"])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_records_carry_every_score(tmp_path, seed, mode):
    config = default_config(seed)
    log = tmp_path / "run.jsonl"
    report = run_scenario(config, mode=mode, log_path=log)
    assert run_scores(_logged(log), config) == {
        "rms_by_client": report.rms_by_client,
        "mean_gain_algorithm": report.mean_gain_algorithm,
        "mean_gain_beamscan": report.mean_gain_beamscan,
    }
    assert report.mean_gain_algorithm is not None
    assert (report.mean_gain_beamscan is not None) == (mode == "both")


def test_no_true_beam_means_no_scan_and_no_gain(tmp_path):
    # two clients on one path stand on the same spot, so no frame has a true bearing
    path = default_config(0).clients[0]
    config = dataclasses.replace(default_config(0), clients=(path, path), duration_s=6.0)
    report = run_scenario(config, mode="both", log_path=tmp_path / "run.jsonl")
    records = _logged(tmp_path / "run.jsonl")
    assert all(t["bearing_deg"] is None for r in records for t in r["truth"])
    assert any(c["sector"] is not None for r in records for c in r["clients"])
    assert report.scan_events == [] and report.scan_frames_spent == 0
    assert report.mean_gain_algorithm is None and report.mean_gain_beamscan is None


def test_capture_round_trip_is_exact(tmp_path):
    cfg = _short_config(seed=5)
    log_live = tmp_path / "live.jsonl"
    log_replay = tmp_path / "replay.jsonl"
    capture = tmp_path / "frames.capture"
    live = run_scenario(cfg, mode="algorithm", log_path=log_live, capture_path=capture)
    replayed = run_from_capture(cfg, capture, mode="algorithm", log_path=log_replay)
    assert log_live.read_bytes() == log_replay.read_bytes()
    assert replayed.rms_by_client == live.rms_by_client
    assert replayed.identified_at_frame == live.identified_at_frame


def _inline_readings(config):
    """Each configured client's inline readings over a run, in seq order."""
    readings = collections.defaultdict(list)
    for batches, _ in _inline_source(build_scenario(config)):
        for cid, batch in batches.items():
            readings[cid] += batch
    return readings


def _queued(streams, rng):
    """A queue of the streams' readings, interleaved at random, each stream in order."""
    received = queue.SimpleQueue()
    order = rng.permutation(np.repeat(np.arange(len(streams)), [len(s) for s in streams]))
    pending = [iter(s) for s in streams]
    for i in order:
        received.put(next(pending[i]))
    return received


def _stranger(n):
    """n readings from a client id no config holds."""
    return [ImuSample(7, seq, seq / 100.0, (0.0, 0.0, 9.81), (0.0, 0.0, 0.0)) for seq in range(n)]


@pytest.mark.parametrize("seed", range(10))
def test_a_live_feed_of_every_reading_logs_what_the_inline_run_logs(tmp_path, seed):
    # the clients interleaved at random, about one reading in ten twice, and a
    # client the config lacks: the live feed frames the inline windows
    config = dataclasses.replace(default_config(seed), duration_s=1.5)
    rng = np.random.default_rng(seed)
    streams = [
        [s for s in readings for _ in range(1 + (rng.random() < 0.1))]
        for readings in _inline_readings(config).values()
    ]
    received = _queued([*streams, _stranger(200)], rng)
    inline_log, live_log = tmp_path / "inline.jsonl", tmp_path / "live.jsonl"
    run_scenario(config, mode="both", log_path=inline_log)
    start = time.monotonic()
    live = run_scenario(config, mode="both", log_path=live_log, store=received)
    # every frame was cut on its readings: none waited out its frame period
    assert time.monotonic() - start < len(live.frames) * config.frame_time_s
    assert live_log.read_bytes() == inline_log.read_bytes()


def test_readings_arriving_late_still_fall_in_their_frames(tmp_path):
    # each reading reaches the queue 100 ms after its timestamp, as over a
    # slow link: every frame still takes its whole window, so the live log and
    # capture are the inline run's
    config = dataclasses.replace(default_config(2), duration_s=2.0)
    readings = sorted(
        (s for batch in _inline_readings(config).values() for s in batch),
        key=lambda s: (s.timestamp_s, s.client_id),
    )
    received = queue.SimpleQueue()
    start = time.monotonic()

    def feed():
        for s in readings:
            time.sleep(max(0.0, start + s.timestamp_s + 0.1 - time.monotonic()))
            received.put(s)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    live, inline = tmp_path / "live", tmp_path / "inline"
    try:
        run_scenario(config, "both", live.with_suffix(".jsonl"), live.with_suffix(".cap"), received)
    finally:
        feeder.join()
    run_scenario(config, "both", inline.with_suffix(".jsonl"), inline.with_suffix(".cap"))
    for suffix in (".jsonl", ".cap"):
        assert live.with_suffix(suffix).read_bytes() == inline.with_suffix(suffix).read_bytes()


def test_a_silent_client_holds_each_frame_one_period_at_most(tmp_path):
    # client 1 sends nothing: each frame is cut one frame period after its
    # wait began, and client 0's readings still fall in their inline windows
    config = dataclasses.replace(
        default_config(3), duration_s=1.5, points_per_client_per_frame=200, clutter=()
    )
    inline_capture, live_capture = tmp_path / "inline.capture", tmp_path / "live.capture"
    run_scenario(config, capture_path=inline_capture)
    received = _queued([_inline_readings(config)[0], _stranger(200)], np.random.default_rng(3))
    start = time.monotonic()
    run_scenario(config, store=received, capture_path=live_capture)
    elapsed = time.monotonic() - start
    inline = list(replay_capture(inline_capture))
    assert elapsed < (len(inline) + 1) * config.frame_time_s
    for (batches, _), (want, _) in zip(replay_capture(live_capture), inline, strict=True):
        assert set(batches) == {0}
        assert [repr(s) for s in batches[0]] == [repr(s) for s in want[0]]


def test_capture_stream_structure(tmp_path):
    cfg = _short_config()
    capture = tmp_path / "frames.capture"
    report = run_scenario(cfg, mode="algorithm", capture_path=capture)
    frames = list(replay_capture(capture))
    assert len(frames) == len(report.frames)
    per_frame = int(round(cfg.frame_time_s * 100.0))  # device-rate batch per frame
    per_radar = int(round(cfg.frame_time_s * cfg.radar_rate_hz))
    for i, (batches, cloud) in enumerate(frames):
        # clouds are stamped with the radar instant they were sampled at
        assert cloud.frame_index == (i + 1) * per_radar - 1
        assert cloud.timestamp_s == pytest.approx(cloud.frame_index / cfg.radar_rate_hz)
        assert cloud.points.shape[1] == 4
        assert set(batches) == {0, 1}
        for samples in batches.values():
            assert len(samples) == per_frame
            assert all(isinstance(s, ImuSample) for s in samples)


def _tiny_capture(path):
    sample = ImuSample(
        client_id=0,
        seq=0,
        timestamp_s=0.01,
        accel_mps2=np.array([0.0, 0.0, 9.81]),
        gyro_radps=np.zeros(3),
    )
    cloud = PointCloudFrame(
        frame_index=0, timestamp_s=0.4, points=np.arange(8.0).reshape(2, 4)
    )
    with CaptureWriter(path) as writer:
        writer.write_imu(sample)
        writer.write_cloud(cloud)
    return sample, cloud


def test_capture_codec_round_trip(tmp_path):
    path = tmp_path / "tiny.capture"
    sample, cloud = _tiny_capture(path)
    (batches, got), = list(replay_capture(path))
    assert set(batches) == {0} and batches[0][0].seq == sample.seq
    assert got.frame_index == cloud.frame_index
    assert got.timestamp_s == cloud.timestamp_s
    assert np.array_equal(got.points, cloud.points)


def test_capture_rejects_damaged_files(tmp_path):
    path = tmp_path / "tiny.capture"
    _tiny_capture(path)
    blob = path.read_bytes()

    truncated = tmp_path / "truncated.capture"
    truncated.write_bytes(blob[:-3])  # cut into the final record payload
    with pytest.raises(DatagramError):
        list(replay_capture(truncated))

    short_header = tmp_path / "short_header.capture"
    short_header.write_bytes(blob + b"\x07\x00")  # dangling partial header
    with pytest.raises(DatagramError):
        list(replay_capture(short_header))

    unknown_tag = tmp_path / "unknown.capture"
    unknown_tag.write_bytes(blob + bytes([4, 0, 0, 0, 9]) + b"\x00" * 4)
    with pytest.raises(DatagramError):
        list(replay_capture(unknown_tag))

    trailing = tmp_path / "trailing.capture"
    with CaptureWriter(trailing) as writer:
        sample, cloud = _tiny_capture(tmp_path / "scratch.capture")
        writer.write_cloud(cloud)
        writer.write_imu(sample)  # device samples after the last cloud frame
    with pytest.raises(DatagramError):
        list(replay_capture(trailing))

    # a non-finite IMU record, written byte by byte since CaptureWriter refuses it
    sample, cloud = _tiny_capture(tmp_path / "scratch.capture")
    bad = encode_imu_datagram(dataclasses.replace(sample, accel_mps2=(0.0, math.nan, 9.81)))
    non_finite = tmp_path / "non_finite.capture"
    with CaptureWriter(non_finite) as writer:
        writer.write_cloud(cloud)
    cloud_record = non_finite.read_bytes()
    imu_record = struct.pack("<IB", len(bad), pipeline_module.TAG_IMU) + bad
    non_finite.write_bytes(cloud_record + imu_record + cloud_record)
    replay = replay_capture(non_finite)
    assert next(replay)[1].frame_index == cloud.frame_index  # the frame before the damage
    with pytest.raises(DatagramError, match="non-finite"):
        next(replay)

    # a cloud stamped at no finite time >= 0, which replay cannot score
    for stamp in (math.nan, math.inf, -1.0):
        bad_time = tmp_path / "bad_time.capture"
        bad_cloud = struct.pack("<IBIdI", 16, pipeline_module.TAG_CLOUD, 1, stamp, 0)  # no points
        bad_time.write_bytes(blob + bad_cloud)
        replay = replay_capture(bad_time)
        assert next(replay)[1].timestamp_s == cloud.timestamp_s  # the frame before the damage
        with pytest.raises(DatagramError, match="timestamp"):
            next(replay)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e39, -1e39])
def test_capture_writer_refuses_a_sample_replay_would_reject(tmp_path, bad):
    good = tmp_path / "good.capture"
    sample, cloud = _tiny_capture(good)
    path = tmp_path / "refused.capture"
    with CaptureWriter(path) as writer:
        writer.write_imu(sample)
        if math.isfinite(bad):  # beyond float32, the wire's sensor fields
            with pytest.raises(DatagramError, match="beyond float32 range"):
                writer.write_imu(dataclasses.replace(sample, gyro_radps=(0.0, 0.0, bad)))
        else:
            with pytest.raises(DatagramError, match="non-finite"):
                writer.write_imu(dataclasses.replace(sample, gyro_radps=(0.0, 0.0, bad)))
            with pytest.raises(DatagramError, match="non-finite"):
                writer.write_imu(dataclasses.replace(sample, timestamp_s=bad))
        writer.write_cloud(cloud)
    # the refused samples left no byte behind: the file replays whole
    assert path.stat().st_size == good.stat().st_size
    assert path.read_bytes() == good.read_bytes()
    (batches, got), = list(replay_capture(path))
    assert batches[0][0].seq == sample.seq and got.frame_index == cloud.frame_index


@pytest.mark.parametrize(
    "change",
    [
        {"timestamp_s": math.nan},
        {"timestamp_s": math.inf},
        {"timestamp_s": -0.5},
        {"points": np.arange(6.0).reshape(2, 3)},
        {"points": np.arange(8.0)},
        {"points": np.zeros((1, 2, 4))},
        {"frame_index": -1},
        {"frame_index": 2**32},
    ],
    ids=["nan-time", "inf-time", "negative-time", "three-columns", "flat", "three-axes",
         "negative-index", "index-beyond-u32"],
)
def test_capture_writer_refuses_a_cloud_replay_would_reject(tmp_path, change):
    good = tmp_path / "good.capture"
    sample, cloud = _tiny_capture(good)
    path = tmp_path / "refused.capture"
    with CaptureWriter(path) as writer:
        writer.write_imu(sample)
        with pytest.raises(DatagramError):
            writer.write_cloud(dataclasses.replace(cloud, **change))
        writer.write_cloud(cloud)
    # the refused cloud left no byte behind: the file replays whole
    assert path.read_bytes() == good.read_bytes()
    (batches, got), = list(replay_capture(path))
    assert batches[0][0].seq == sample.seq and got.frame_index == cloud.frame_index


# a capture of three frames: two IMU records (5 + 40 bytes each) then one
# cloud record (5 + 16 + 32 bytes per point) per frame
_IMU_RECORD = 45


def _three_frame_capture(path):
    """Write the capture; return its bytes, its frames and each record's (start, end, frame)."""
    frames, records, pos = [], [], 0
    with CaptureWriter(path) as writer:
        for k in range(3):
            samples = [
                ImuSample(i, 2 * k + i, 0.1 * k + 0.01 * i, np.array([0.1 * k, -0.2, 9.8]),
                          np.array([0.01, 0.02 * i, -0.03]))
                for i in range(2)
            ]
            cloud = PointCloudFrame(k, 0.1 * k + 0.05, np.arange(4.0 * (k + 1)).reshape(-1, 4) - k)
            for sample in samples:
                writer.write_imu(sample)
                records.append((pos, pos + _IMU_RECORD, k))
                pos += _IMU_RECORD
            writer.write_cloud(cloud)
            records.append((pos, pos + 21 + 32 * (k + 1), k))
            pos = records[-1][1]
            frames.append(({i: [s] for i, s in enumerate(samples)}, cloud))
    blob = path.read_bytes()
    assert len(blob) == pos
    return blob, [_frame_bytes(f) for f in frames], records


def _frame_bytes(frame):
    batches, cloud = frame
    imu = sorted((cid, [encode_imu_datagram(s) for s in samples]) for cid, samples in batches.items())
    return imu, cloud.frame_index, np.float64(cloud.timestamp_s).tobytes(), cloud.points.tobytes()


def _replay_damaged(path, blob):
    """The frames replay_capture yields from blob and the exception it ends with, if any."""
    path.write_bytes(blob)
    frames = []
    try:
        for frame in replay_capture(path):
            frames.append(_frame_bytes(frame))
    except DatagramError as exc:
        return frames, exc
    return frames, None


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(0, 10**6))
def test_truncated_capture_keeps_the_whole_frames_before_the_cut(tmp_path_factory, cut):
    base = tmp_path_factory.mktemp("capture")
    blob, frames, records = _three_frame_capture(base / "whole.capture")
    cut %= len(blob) + 1
    frame_ends = [end for _, end, _ in records[2::3]]  # every third record is a cloud
    whole = sum(end <= cut for end in frame_ends)
    got, error = _replay_damaged(base / "cut.capture", blob[:cut])
    assert got == frames[:whole]
    assert (error is None) == (cut in (0, *frame_ends))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_garbled_record_header_raises_after_the_frames_before_it(tmp_path_factory, data):
    base = tmp_path_factory.mktemp("capture")
    blob, frames, records = _three_frame_capture(base / "whole.capture")
    start, end, frame = data.draw(st.sampled_from(records))
    old_length, old_tag = pipeline_module._RECORD_HEADER.unpack_from(blob, start)
    if data.draw(st.booleans()):
        value = data.draw(st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1)))
        length, tag = value, old_tag
    else:
        value = data.draw(st.integers(0, 255))
        length, tag = old_length, value
    if (length, tag) == (old_length, old_tag):
        return
    damaged = blob[:start] + pipeline_module._RECORD_HEADER.pack(length, tag) + blob[start + 5:]
    got, error = _replay_damaged(base / "garbled.capture", damaged)
    assert got == frames[:frame]
    assert error is not None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_garbled_capture_bytes_raise_only_datagram_errors(tmp_path_factory, data):
    # any overwritten span, cloud headers included: the frames wholly before
    # it replay unchanged, and replay ends cleanly or with DatagramError
    base = tmp_path_factory.mktemp("capture")
    blob, frames, records = _three_frame_capture(base / "whole.capture")
    start = data.draw(st.integers(0, len(blob) - 1))
    junk = data.draw(st.binary(min_size=1, max_size=24))
    damaged = blob[:start] + junk + blob[start + len(junk):]
    damaged = damaged[: data.draw(st.integers(start, len(damaged)))]
    changed = next((i for i, (a, b) in enumerate(zip(damaged, blob)) if a != b), len(damaged))
    intact = sum(end <= changed for _, end, _ in records[2::3])
    got, _ = _replay_damaged(base / "garbled.capture", damaged)
    assert got[:intact] == frames[:intact]


def _retained_bytes_per_frame(config: ScenarioConfig) -> float:
    """Heap bytes a run's report still holds after the run, per frame (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_scenario(config, mode="both")
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / len(report.frames)


def test_a_frame_keeps_no_per_point_data():
    # a tracked cluster indexes no cloud, so what a run keeps per frame does
    # not grow with the points per body; a list of member rows kept ~190 KB
    # per frame at 1,600 points per body
    base = default_config(0)
    run_scenario(dataclasses.replace(base, duration_s=1.0), mode="both")  # lazy imports, caches
    per_frame = [
        _retained_bytes_per_frame(
            dataclasses.replace(base, duration_s=6.0, points_per_client_per_frame=points)
        )
        for points in (200, 1600)
    ]
    assert all(kept < 16 * 1024 for kept in per_frame), per_frame
    assert abs(per_frame[1] - per_frame[0]) < 4 * 1024, per_frame


def test_a_run_keeps_one_copy_of_each_frame():
    # a frame's log record is scored as it is written and then dropped, so the
    # report keeps ~3.7 KB per frame; a second copy of each frame (its record
    # beside its FrameReport) would keep ~8.5 KB
    base = default_config(0)
    run_scenario(dataclasses.replace(base, duration_s=1.0), mode="both")  # lazy imports, caches
    config = dataclasses.replace(base, duration_s=6.0)  # 12 frames
    per_frame = _retained_bytes_per_frame(config)
    assert per_frame < 6 * 1024, per_frame


def _dbscan_peak_bytes(points, params):
    tracemalloc.start()
    try:
        dbscan(points, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dbscan_buffers_follow_the_largest_body():
    # the demo's bodies lie more than 2 eps apart, so each is queried and
    # labelled as an island of its own: clustering the whole frame takes
    # about what clustering its largest body alone takes (one query over the
    # whole frame took 3x that)
    config = default_config(0)
    params = PipelineParams.for_config(config).dbscan
    cloud = build_scenario(config).sample_point_cloud(radar_instant(config, 10)).points
    clusters, _ = dbscan(cloud, params)  # loads the kd-tree outside the trace
    assert len(clusters) == 3
    largest = max(_dbscan_peak_bytes(cloud[c.member_indices], params) for c in clusters)
    whole = _dbscan_peak_bytes(cloud, params)
    assert whole <= 1.5 * largest, (whole, largest)


def _minor_faults_in_fresh_interpreter(probe, *args):
    """Run probe, which prints a count of minor page faults, in a new interpreter; the count."""
    pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("libc has no mallopt, so the heap keeps its default trim policy")
    src = str(Path(pipeline_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def test_a_freed_block_stays_resident_once_clustering_is_imported():
    # glibc gave a freed 16 MiB block back to the kernel and faulted it in
    # again (~490 pages) on the next allocation of that size; importing the
    # clustering module fixes the thresholds that keep it in the heap
    probe = textwrap.dedent("""
        import resource, numpy as np, beamtrack.clustering
        block = np.ones(2 * 2**20)
        del block
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        block = np.ones(2 * 2**20)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    faults = _minor_faults_in_fresh_interpreter(probe)
    assert faults < 50, faults


def test_the_frame_loop_reuses_its_heap_frame_after_frame():
    # each demo island's DBSCAN temporaries are freed and allocated again in
    # the next: returned to the kernel in between, they cost ~2,000 minor
    # faults per frame in most fresh processes
    probe = textwrap.dedent("""
        import dataclasses, resource, statistics, sys
        import beamtrack.pipeline as pipeline
        from beamtrack.world import default_config
        process_frame, faults = pipeline.Pipeline.process_frame, []
        def counted(self, *args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            report = process_frame(self, *args, **kwargs)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return report
        pipeline.Pipeline.process_frame = counted
        config = dataclasses.replace(default_config(int(sys.argv[1])), duration_s=6.0)
        pipeline.run_scenario(config, mode="both")
        print(statistics.median(faults[1:]))  # frame 0 also faults in the lazy imports
    """)
    per_frame = [_minor_faults_in_fresh_interpreter(probe, str(seed)) for seed in range(3)]
    assert all(faults <= 50 for faults in per_frame), per_frame


# runs the sparse_radar make-up, whose clouds are one island each (so no
# clustering helper starts), for 2 s; prints which of the modules named in
# argv[1:] the run loaded, then imports the scipy.spatial package
_RUN_A_ONE_ISLAND_SCENARIO = """\
import dataclasses, sys
from beamtrack.pipeline import run_scenario
from beamtrack.world import default_config

config = dataclasses.replace(
    default_config(0), points_per_client_per_frame=200, clutter=(), duration_s=2.0
)
assert len(run_scenario(config, mode="both").frames) == 4
print(" ".join(name for name in sys.argv[1:] if name in sys.modules))
extension = sys.modules["scipy.spatial._ckdtree"]
from scipy.spatial import cKDTree
assert cKDTree is extension.cKDTree and sys.modules["scipy.spatial._ckdtree"] is extension
"""


def test_an_inline_run_loads_no_logging_sockets_queues_or_scipy_package_init():
    # no frame logs, opens a socket or waits on a queue, and the kd-tree
    # extension loads without scipy's __init__, which loads scipy's build
    # config and its test utilities (with subprocess and sysconfig): ~1.5 MB
    # of RSS per process. The package imported afterwards reuses the extension.
    unused = ("logging", "socket", "selectors", "queue", "scipy.__config__", "scipy._lib._testutils")
    src = str(Path(pipeline_module.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _RUN_A_ONE_ISLAND_SCENARIO, *unused],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""
