"""Sensing-aided peer tracking and millimeter-wave beam steering, simulated.

A fixed radar supplies point clouds, two walking clients stream inertial
telemetry, and the pipeline turns both into tracked positions and beam-sector
picks — all deterministic given a scenario config and seed.
"""

from .beams import (
    BeamDecision,
    SectorTable,
    angle_to_sector,
    beam_angle,
    beam_scan_baseline,
    in_beamspace,
    simulate_gain,
    wrap_deg,
)
from .clustering import Cluster, DbscanParams, dbscan, filter_background
from .errors import CalibrationError, DatagramError, IdentificationError, ValidationError
from .identification import identify_clients, should_identify
from .imu import (
    CalibrationProfile,
    ClientMotion,
    ImuSample,
    calibrate,
    gravity_compensate,
    integrate_velocity,
    madgwick_update,
    window_readings,
)
from .kalman import KalmanConfig, KalmanState, kf_init, kf_reacquire, kf_step
from .pipeline import (
    CaptureWriter,
    FrameReport,
    Pipeline,
    PipelineParams,
    RunReport,
    compute_rms,
    path_distances,
    replay_capture,
    run_from_capture,
    run_scenario,
)
from .telemetry import (
    LatestStore,
    TelemetryServer,
    decode_feedback,
    decode_imu_datagram,
    encode_feedback,
    encode_imu_datagram,
    run_sim_client,
)
from .tracking import (
    ClusterFrame,
    Matching,
    ThresholdParams,
    displacement_threshold,
    lex_min_assignment,
    match_clusters,
    update_clusters,
)
from .world import (
    ClutterSpec,
    GroundTruthPose,
    PathSpec,
    PointCloudFrame,
    Scenario,
    ScenarioConfig,
    build_scenario,
    default_config,
)

__version__ = "0.1.0"

__all__ = [
    "BeamDecision",
    "CalibrationError",
    "CalibrationProfile",
    "CaptureWriter",
    "ClientMotion",
    "Cluster",
    "ClusterFrame",
    "ClutterSpec",
    "DatagramError",
    "DbscanParams",
    "FrameReport",
    "GroundTruthPose",
    "IdentificationError",
    "ImuSample",
    "KalmanConfig",
    "KalmanState",
    "LatestStore",
    "Matching",
    "PathSpec",
    "Pipeline",
    "PipelineParams",
    "PointCloudFrame",
    "RunReport",
    "Scenario",
    "ScenarioConfig",
    "SectorTable",
    "TelemetryServer",
    "ThresholdParams",
    "ValidationError",
    "angle_to_sector",
    "beam_angle",
    "beam_scan_baseline",
    "build_scenario",
    "calibrate",
    "compute_rms",
    "dbscan",
    "decode_feedback",
    "decode_imu_datagram",
    "default_config",
    "displacement_threshold",
    "encode_feedback",
    "encode_imu_datagram",
    "filter_background",
    "gravity_compensate",
    "identify_clients",
    "in_beamspace",
    "integrate_velocity",
    "kf_init",
    "kf_reacquire",
    "kf_step",
    "lex_min_assignment",
    "madgwick_update",
    "match_clusters",
    "path_distances",
    "replay_capture",
    "run_from_capture",
    "run_scenario",
    "run_sim_client",
    "should_identify",
    "simulate_gain",
    "update_clusters",
    "window_readings",
    "wrap_deg",
]
