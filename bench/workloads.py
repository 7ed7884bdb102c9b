"""The benchmark's workloads: scenario configs, scenario seeds and the frame feed.

Every workload is a set of scenarios derived from the run's ``--seed``. The
scenarios differ only in their noise seed; the walks, bodies and clutter are
fixed per workload, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import math

from beamtrack.pipeline import INLINE_IMU_RATE_HZ
from beamtrack.telemetry import quantize_imu
from beamtrack.world import PathSpec, ScenarioConfig, build_scenario, default_config

# scenarios per run: 6 x 36 frames gives 216 distinct frames, so at least ten
# frames lie beyond the 95th percentile of decision latency
SCENARIOS_PER_RUN = 6

# crowd: six background walkers, each at least 1.4 m from both clients' paths
# at all times. Walking direction during the identification window (t < 3 s)
# is east, west or south, never north like the clients, so velocity matching
# stays unambiguous; every walk is long enough to keep moving for the whole run.
CROWD_WALKERS = (
    PathSpec(waypoints=((0.0, 5.0), (5.0, 5.0), (0.0, 5.0)), speed_mps=0.4),
    PathSpec(waypoints=((5.5, 6.5), (-0.5, 6.5), (5.5, 6.5)), speed_mps=0.5),
    PathSpec(waypoints=((-1.2, 4.5), (-1.2, -0.5), (-1.2, 4.5)), speed_mps=0.45),
    PathSpec(waypoints=((6.2, 4.5), (6.2, -0.5), (6.2, 4.5)), speed_mps=0.35),
    PathSpec(waypoints=((-2.6, 5.5), (-2.6, -0.5), (-2.6, 5.5)), speed_mps=0.6),
    PathSpec(waypoints=((7.6, 5.5), (7.6, -0.5), (7.6, 5.5)), speed_mps=0.55),
)


def demo(seed: int) -> ScenarioConfig:
    """The acceptance scenario: 2 clients, 1 walker, 2 desks, 800 returns per body."""
    return default_config(seed)


def sparse_radar(seed: int) -> ScenarioConfig:
    """The demo's walks with 200 returns per body and no clutter."""
    return dataclasses.replace(default_config(seed), points_per_client_per_frame=200, clutter=())


def crowd(seed: int) -> ScenarioConfig:
    """The demo's clients and desks among six walkers, 300 returns per body."""
    return dataclasses.replace(
        default_config(seed), points_per_client_per_frame=300, distractors=CROWD_WALKERS
    )


WORKLOADS = {"demo": demo, "sparse_radar": sparse_radar, "crowd": crowd}


def scenario_seeds(seed: int) -> list[int]:
    """The noise seeds of a run's scenarios; disjoint for distinct run seeds."""
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return [seed * SCENARIOS_PER_RUN + i for i in range(SCENARIOS_PER_RUN)]


def configs(workload: str, seed: int) -> list[ScenarioConfig]:
    make = WORKLOADS[workload]
    return [make(s) for s in scenario_seeds(seed)]


@dataclasses.dataclass
class FrameInput:
    """One frame's sensor batch, exactly as ``run_scenario`` feeds it inline."""

    index: int
    t_end_s: float
    measurement_time_s: float
    points: object  # (n, 4) ndarray, radar frame
    imu_batches: dict  # client id -> list[ImuSample]


def frame_inputs(config: ScenarioConfig) -> list[FrameInput]:
    """Every frame's inputs: all wire-quantized device samples plus one cloud.

    Mirrors the inline feed of ``run_scenario``: the IMU samples that fall in
    the frame window and the cloud of the window's penultimate radar instant.
    """
    scenario = build_scenario(config)
    rate = INLINE_IMU_RATE_HZ
    per = int(round(config.radar_rate_hz * config.frame_time_s))
    out = []
    for k in range(scenario.n_frames):
        i0 = int(math.floor(k * config.frame_time_s * rate + 1e-9)) + 1
        i1 = int(math.floor((k + 1) * config.frame_time_s * rate + 1e-9))
        batches = {
            cid: [
                quantize_imu(scenario.sample_imu(cid, i / rate, dt=1.0 / rate, seq=i))
                for i in range(i0, i1 + 1)
            ]
            for cid in range(len(config.clients))
        }
        cloud = scenario.sample_point_cloud((k + 1) * per - 1)
        out.append(
            FrameInput(
                index=k,
                t_end_s=(k + 1) * config.frame_time_s,
                measurement_time_s=cloud.timestamp_s,
                points=cloud.points,
                imu_batches=batches,
            )
        )
    return out
