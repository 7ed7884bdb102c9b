"""The benchmark's trace hooks find, wrap and restore the functions it times."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
from beamtrack import pipeline, world  # noqa: E402
from beamtrack.world import default_config  # noqa: E402


def test_every_traced_name_is_defined_where_the_tracer_looks():
    # Tracer.install reads owner.__dict__[attr]: a name that moved, or is only
    # inherited or re-exported elsewhere, would fail the traced benchmark run
    missing = [name for name, owner, attr in spans.TRACED if attr not in owner.__dict__]
    assert missing == []


def test_a_traced_run_records_the_simulator_and_inertial_spans():
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in spans.TRACED]
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = pipeline.run_scenario(dataclasses.replace(default_config(seed=1), duration_s=2.0))
    finally:
        tracer.uninstall()
    assert len(report.frames) == 4
    calls = Counter(name for name, _, _, _ in tracer.spans)
    for name in (
        "world.sample_imu",
        "world.build_scenario",
        "pipeline.calibrate_clients",
        "imu.madgwick_update",
        "imu.gravity_compensate",
        "imu.integrate_velocity",
    ):
        assert calls[name] >= 1, name
    # the readings are simulated a window per client: at set-up and per frame
    assert calls["world.sample_imu"] == 2 + 2 * len(report.frames)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def test_a_traced_run_counts_each_gated_measurement(monkeypatch):
    # client 0's returns shifted 0.6 m for frames 10-12: its filter gates them
    config = dataclasses.replace(default_config(seed=0), duration_s=7.0)
    n = config.points_per_client_per_frame
    shifted_instants = {pipeline.radar_instant(config, k) for k in (10, 11, 12)}
    sample = world.Scenario.sample_point_cloud

    def shifted(self, index):
        cloud = sample(self, index)
        if index in shifted_instants:
            cloud.points[:n, 0] += 0.6
        return cloud

    monkeypatch.setattr(world.Scenario, "sample_point_cloud", shifted)
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = pipeline.run_scenario(config)
    finally:
        tracer.uninstall()
    gated = sum("gated measurement" in e for frame in report.frames for e in frame.events)
    assert gated > 0
    assert sum(counts.get("kalman.gated", 0) for counts in tracer.frame_counts) == gated
