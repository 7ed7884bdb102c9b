"""Frame pipeline: sensors in, tracked positions and beam sectors out.

Each frame covers one wall-clock window of ``frame_time_s``. The pipeline
consumes the window's IMU samples per client and one radar point cloud taken
at the last radar instant before the window's end, then:

1. advances each client's orientation/velocity state sample by sample,
2. clusters the cloud and drops zero-doppler background,
3. carries track labels across frames by min-cost core-point matching,
4. binds clusters to clients by velocity agreement (early window or on error),
5. filters each client's position with a constant-velocity Kalman filter:
   one prediction, the gate of an implausible measurement, then the update
   or the coast,
6. steers each client's beam at its peer: the bearing between the two
   filtered positions, then the beamspace check, then the sector.

The clients are the keys of the initial headings. The link rule, exactly two
clients, each the other's peer, is the pipeline's peer map and is checked
nowhere else.

Fused quantities (velocity, heading) are snapshotted at the radar measurement
instant so estimate-versus-truth comparisons are contemporaneous.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
import time
from collections import Counter
from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from math import inf, isfinite
from operator import attrgetter
from pathlib import Path

import numpy as np

from .beams import (
    BeamDecision,
    SectorTable,
    angle_to_sector,
    beam_angle,
    beam_scan_baseline,
    in_beamspace,
    simulate_gain,
)
from .clustering import Cluster, DbscanParams, dbscan, filter_background, finite_rows
from .errors import DatagramError, IdentificationError, ValidationError
from .identification import identify_clients, should_identify
from .imu import (
    CalibrationProfile,
    ClientMotion,
    ImuSample,
    calibrate,
    gravity_compensate,
    integrate_velocity,
    madgwick_update,
    quat_from_yaw,
    window_readings,
    yaw_from_quat,
)
from .kalman import KalmanConfig, KalmanState, kf_init, kf_predict, kf_reacquire, kf_step
from .telemetry import decode_imu_datagram, encode_imu_datagram, quantize_imu
from .tracking import ClusterFrame, displacement_threshold, update_clusters
from .world import GroundTruthPose, PointCloudFrame, Scenario, ScenarioConfig, build_scenario

# centroid of points sampled uniformly on the sensor-facing half of a circle
# sits 2/pi of the radius toward the sensor
SURFACE_BIAS_FACTOR = 2.0 / math.pi

# simulated client devices report inertial data at this rate
INLINE_IMU_RATE_HZ = 100.0

# rest-window calibration: clamp the window to [0.1 s, 1 s] of device samples
MIN_CALIBRATION_WINDOW_S = 0.1
MAX_CALIBRATION_WINDOW_S = 1.0

# scanning baseline: per-probe gain noise
SCAN_NOISE_SIGMA = 10.0
_STREAM_SCAN = 90

TAG_CLOUD = 1
TAG_IMU = 2
_RECORD_HEADER = struct.Struct("<IB")
_CLOUD_HEADER = struct.Struct("<IdI")
_POINT_BYTES = 32  # 4 little-endian f64 per point

# the clients' antenna sector grid
SECTORS = SectorTable()
# gated measurements in a row that raise the error flag
REACQUIRE_LIMIT = 3

# the order in which a client's readings are applied
_READING_ORDER = attrgetter("timestamp_s", "seq")
# why _inertial_update dropped a reading
_NON_FINITE = "non-finite"
_FUTURE = "future"
_STALE = "stale"
# a reading may lie this far (s) past its frame's window end: at frame_time_s
# 0.35 s, frame 2's last reading (1.05 s) lies one ulp past 3 * 0.35
_WINDOW_END_SLACK_S = 1e-9


def surface_bias_m(body_radius_m: float) -> float:
    """Expected centroid shift toward the radar for an arc-sampled body."""
    return SURFACE_BIAS_FACTOR * body_radius_m


def debias_core(core_xy_radar: np.ndarray, body_radius_m: float) -> np.ndarray:
    """Push a radar-frame core point away from the radar by the surface bias."""
    core = np.asarray(core_xy_radar, dtype=float)
    r = float(np.hypot(core[0], core[1]))
    if r < 1e-9:
        return core.copy()
    return core * (1.0 + surface_bias_m(body_radius_m) / r)


def _steer(own_xy, heading_rad: float, peer_xy) -> BeamDecision | None:
    """The steering rule: bearing to the peer, then the beamspace check, then the sector.

    None when the two positions coincide and so give no bearing.
    """
    try:
        bearing = beam_angle(own_xy, heading_rad, peer_xy)
    except ValueError:
        return None
    reachable = in_beamspace(bearing)
    sector, clamped = angle_to_sector(bearing, SECTORS) if reachable else (None, False)
    return BeamDecision(bearing_deg=bearing, sector=sector, in_beamspace=reachable, clamped=clamped)


@dataclass
class PipelineParams:
    frame_time_s: float = 0.5
    dbscan: DbscanParams = field(default_factory=DbscanParams)
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    body_radius_m: float = 0.25
    radar_xy: tuple[float, float] = (0.0, 0.0)

    @classmethod
    def for_config(cls, config: ScenarioConfig) -> "PipelineParams":
        """Parameters matched to a scenario.

        The filter is tuned to the noise the pipeline actually sees: cluster
        centroids average hundreds of returns, so the measurement sigma is far
        below a single return's, and the process noise is sized so a walking
        turn stays inside the reacquisition gate.
        """
        return cls(
            frame_time_s=config.frame_time_s,
            kalman=KalmanConfig(sigma_accel_mps2=2.0, sigma_meas_m=0.02),
            body_radius_m=config.body_radius_m,
            radar_xy=(config.radar_pose[0], config.radar_pose[1]),
        )


@dataclass
class ClientTrack:
    """Mutable per-client pipeline state."""

    client_id: int
    motion: ClientMotion
    calibration: CalibrationProfile
    prev_accel_global: tuple[float, float, float]  # for the trapezoidal velocity update
    fused_velocity: np.ndarray  # (2,) latest velocity at the measurement instant
    fused_heading: float  # latest yaw at the measurement instant
    bound_label: int | None = None
    kf: KalmanState | None = None
    reacquire_count: int = 0


@dataclass
class ClientFrameState:
    client_id: int
    bound_label: int | None
    measurement_m: np.ndarray | None  # (2,) world frame, bias-corrected
    kf_position_m: np.ndarray | None
    kf_velocity_mps: np.ndarray | None
    imu_velocity_mps: np.ndarray  # (2,)
    heading_rad: float
    coasting: bool
    beam: BeamDecision | None
    imu_dropped_non_finite: int = 0  # a non-finite time or value, or an overflowing step
    imu_dropped_stale: int = 0  # readings not after the last one applied
    imu_dropped_future: int = 0  # readings stamped after the frame's window end


@dataclass
class FrameReport:
    frame_index: int
    timestamp_s: float  # frame window end
    measurement_time_s: float  # radar instant the state refers to
    n_points: int
    n_clusters_raw: int
    clusters: list[Cluster]  # tracked, world-frame cores; they index no cloud
    clients: list[ClientFrameState]
    error_flag: bool
    identified: bool
    events: list[str]
    non_finite_points: int = 0  # radar rows with a non-finite x, y or z
    non_finite_doppler: int = 0  # radar rows with a non-finite doppler


class Pipeline:
    """Stateful tracking and beam-steering pipeline for a linked pair of clients.

    The clients are the keys of ``initial_heading_rad``, kept in ascending id
    order; any number but two raises ValidationError. Calibrations missing from
    ``calibrations`` default to zero biases.
    """

    def __init__(
        self,
        params: PipelineParams,
        initial_heading_rad: dict[int, float],
        calibrations: dict[int, CalibrationProfile] | None = None,
    ) -> None:
        # the link rule: exactly two clients, each the other's peer
        if len(initial_heading_rad) != 2:
            raise ValidationError(
                f"the pipeline tracks exactly two clients, got {len(initial_heading_rad)}"
            )
        a, b = sorted(initial_heading_rad)
        self.peer = {a: b, b: a}
        self.params = params
        self._radar_xy = np.asarray(params.radar_xy, dtype=float)
        self._threshold_m = displacement_threshold(params.frame_time_s)
        self.error_flag = False
        self._frame: ClusterFrame | None = None
        self._next_label = 0
        self.tracks: dict[int, ClientTrack] = {}  # in ascending client id order
        for cid in self.peer:
            heading = float(initial_heading_rad[cid])
            cal = (calibrations or {}).get(cid)
            if cal is None:
                cal = CalibrationProfile(accel_bias=np.zeros(3), gyro_bias=np.zeros(3))
            self.tracks[cid] = ClientTrack(
                client_id=cid,
                motion=ClientMotion(cid, orientation=tuple(quat_from_yaw(heading).tolist())),
                calibration=cal,
                prev_accel_global=(0.0, 0.0, 0.0),
                fused_velocity=np.zeros(2),
                fused_heading=heading,
            )

    def _inertial_update(
        self,
        track: ClientTrack,
        sample: ImuSample,
        accel_bias: list,
        gyro_bias: list,
        until: float,
    ) -> str | None:
        """Advance the track by one reading; why it was dropped, or None if applied.

        A reading stamped after until, the frame's window end, is dropped as if
        it never arrived: applied, it would make every later reading of the
        client stale. The biases are lists of Python floats and an array
        reading is converted once, so no numpy scalar enters the per-reading
        arithmetic.
        """
        t, accel, gyro = sample.timestamp_s, sample.accel_mps2, sample.gyro_radps
        ax, ay, az = accel if type(accel) is tuple else accel.tolist()
        gx, gy, gz = gyro if type(gyro) is tuple else gyro.tolist()
        bx, by, bz = accel_bias
        wx, wy, wz = gyro_bias
        ax, ay, az = ax - bx, ay - by, az - bz
        gx, gy, gz = gx - wx, gy - wy, gz - wz
        dt = t - track.motion.last_update_s
        # madgwick_update turns the orientation through |gyro| * dt and moves it
        # by 0.1 * dt toward gravity. This square of the step is NaN or inf for
        # a non-finite time or gyro value, and for a step so large that sin()
        # of its angle or the renormalisation would overflow.
        step = (gx * gx + gy * gy + gz * gz + 1.0) * (dt * dt)
        if not (step < inf and isfinite(ax) and isfinite(ay) and isfinite(az)):
            return _NON_FINITE  # unusable reading: dropped as if it never arrived
        if t > until:
            return _FUTURE  # stamped past the frame's window end
        if dt <= 0:
            return _STALE  # stale or duplicate reading
        accel, gyro = (ax, ay, az), (gx, gy, gz)
        corrected = ImuSample(sample.client_id, sample.seq, t, accel, gyro)
        motion = madgwick_update(track.motion, corrected, dt)
        a_global = gravity_compensate(accel, motion.orientation)
        motion.velocity_mps = integrate_velocity(
            track.motion.velocity_mps, track.prev_accel_global, a_global, dt
        )
        track.prev_accel_global = a_global
        track.motion = motion
        return None

    def _to_world(self, cluster: Cluster) -> Cluster:
        """The cluster as the tracker keeps it: a debiased world-frame core.

        A tracked cluster indexes no cloud (empty member_indices), so a frame's
        per-point data dies with the frame instead of living on in the reports.
        """
        core = debias_core(cluster.core_point, self.params.body_radius_m)
        return replace(cluster, core_point=core + self._radar_xy, member_indices=[])

    def process_frame(
        self,
        frame_index: int,
        timestamp_s: float,
        points: np.ndarray,
        imu_batches: dict[int, list[ImuSample]],
        measurement_time_s: float | None = None,
    ) -> FrameReport:
        p = self.params
        if measurement_time_s is None:
            measurement_time_s = timestamp_s
        events: list[str] = []

        # inertial tier: per-sample orientation and velocity integration; the
        # fused state is the one after the last applied reading at or before
        # the measurement instant
        dropped = {cid: Counter() for cid in self.tracks}  # reason -> readings
        fused_until = measurement_time_s + 1e-12
        window_end = timestamp_s + _WINDOW_END_SLACK_S
        for cid, track in self.tracks.items():
            accel_bias = np.asarray(track.calibration.accel_bias, dtype=float).tolist()
            gyro_bias = np.asarray(track.calibration.gyro_bias, dtype=float).tolist()
            fused = None
            for sample in sorted(imu_batches.get(cid, ()), key=_READING_ORDER):
                reason = self._inertial_update(track, sample, accel_bias, gyro_bias, window_end)
                if reason is not None:
                    dropped[cid][reason] += 1
                elif sample.timestamp_s <= fused_until:
                    fused = track.motion
            if fused is not None:
                track.fused_velocity = np.array(fused.velocity_mps[:2])
                track.fused_heading = yaw_from_quat(fused.orientation)

        # radar tier: cluster, drop static background, correct surface bias
        finite = finite_rows(points)  # the other rows are noise
        doppler = np.asarray(points, dtype=float).reshape(-1, 4)[:, 3]
        raw_clusters, _ = dbscan(points, p.dbscan, finite)
        moving = filter_background(raw_clusters, points)
        measured = [self._to_world(c) for c in moving]
        self._frame, self._next_label = update_clusters(
            self._frame, measured, self._threshold_m, p.frame_time_s, self._next_label, frame_index
        )
        by_label = self._frame.by_label()

        # a bound cluster that disappeared invalidates the binding
        for cid, track in self.tracks.items():
            if track.bound_label is not None and track.bound_label not in by_label:
                events.append(f"client {cid} binding to cluster {track.bound_label} lost")
                track.bound_label = None
                self.error_flag = True

        # identification: velocity matching inside the early window or on error
        identified = False
        just_bound: set[int] = set()  # clients whose filter starts at this frame's measurement
        need = self.error_flag or any(t.bound_label is None for t in self.tracks.values())
        if need and should_identify(frame_index, self.error_flag):
            cluster_velocities = [
                (c.label, c.velocity_mps)
                for c in self._frame.clusters
                if c.velocity_mps is not None
            ]
            client_velocities = {cid: t.fused_velocity for cid, t in self.tracks.items()}
            try:
                labels = identify_clients(cluster_velocities, client_velocities)
            except IdentificationError as exc:
                events.append(f"identification unavailable: {exc}")
            else:
                identified = True
                for cid, label in labels.items():
                    track = self.tracks[cid]
                    if track.bound_label != label or track.kf is None:
                        c = by_label[label]
                        vel = c.velocity_mps if c.velocity_mps is not None else np.zeros(2)
                        track.kf = kf_init(c.core_point, vel, p.kalman)
                        just_bound.add(cid)
                    track.bound_label = label
                    track.reacquire_count = 0
                    events.append(f"client {cid} bound to cluster {label}")
                self.error_flag = False

        # filtering tier: one prediction per filter not started this frame;
        # the gate and the update, or the coast, all read it
        coasting = dict.fromkeys(self.tracks, False)
        measurement: dict[int, np.ndarray | None] = dict.fromkeys(self.tracks)
        for cid, track in self.tracks.items():
            z = None if track.bound_label is None else by_label[track.bound_label].core_point
            measurement[cid] = z
            if track.kf is None or cid in just_bound:
                continue  # no filter, or one just initialized from this measurement
            predicted = kf_predict(track.kf, p.frame_time_s, p.kalman)
            if z is not None and kf_reacquire(predicted, z, p.kalman):
                z = None
                track.reacquire_count += 1
                events.append(f"client {cid} gated measurement from cluster {track.bound_label}")
                if track.reacquire_count >= REACQUIRE_LIMIT and not self.error_flag:
                    self.error_flag = True
                    events.append(f"client {cid} reacquire limit reached")
            elif z is not None:
                track.reacquire_count = 0
            track.kf = kf_step(predicted, z, p.kalman)
            coasting[cid] = z is None

        # beam tier: steer from the own filtered position and heading at the
        # peer's filtered position
        clients = []
        for cid, track in self.tracks.items():
            peer = self.tracks[self.peer[cid]]
            beam = None
            if track.kf is not None and peer.kf is not None:
                beam = _steer(track.kf.x[:2], track.fused_heading, peer.kf.x[:2])
            z = measurement[cid]
            clients.append(
                ClientFrameState(
                    client_id=cid,
                    bound_label=track.bound_label,
                    measurement_m=None if z is None else z.copy(),
                    kf_position_m=None if track.kf is None else track.kf.x[:2].copy(),
                    kf_velocity_mps=None if track.kf is None else track.kf.x[2:].copy(),
                    imu_velocity_mps=track.fused_velocity.copy(),
                    heading_rad=track.fused_heading,
                    coasting=coasting[cid],
                    beam=beam,
                    imu_dropped_non_finite=dropped[cid][_NON_FINITE],
                    imu_dropped_stale=dropped[cid][_STALE],
                    imu_dropped_future=dropped[cid][_FUTURE],
                )
            )
        return FrameReport(
            frame_index=frame_index,
            timestamp_s=timestamp_s,
            measurement_time_s=measurement_time_s,
            n_points=int(len(points)),
            n_clusters_raw=len(raw_clusters),
            clusters=list(self._frame.clusters),
            clients=clients,
            error_flag=self.error_flag,
            identified=identified,
            events=events,
            non_finite_points=len(points) - len(finite),
            non_finite_doppler=len(doppler) - int(np.count_nonzero(np.isfinite(doppler))),
        )


# --------------------------------------------------------------------------
# scoring helpers


def path_distances(points: np.ndarray, waypoints) -> np.ndarray:
    """Distance from each 2-D point to the nearest segment of a polyline."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    wps = np.asarray(waypoints, dtype=float)
    if len(wps) < 2:
        raise ValidationError("need at least 2 waypoints")
    a, b = wps[:-1], wps[1:]
    d = b - a
    len2 = np.sum(d * d, axis=1)
    len2 = np.where(len2 == 0.0, 1.0, len2)
    diff = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(diff * d[None, :, :], axis=2) / len2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.min(np.linalg.norm(pts[:, None, :] - proj, axis=2), axis=1)


def compute_rms(points: np.ndarray, waypoints) -> float:
    """RMS distance from estimated positions to the walked polyline."""
    dists = path_distances(points, waypoints)
    if dists.size == 0:
        raise ValidationError("no points to score")
    return float(np.sqrt(np.mean(dists * dists)))


def run_scores(records: Iterable[dict], config: ScenarioConfig) -> dict:
    """Every score of a run from its frame records, as ``RunReport`` fields.

    ``records`` is any iterable of frame records, read once, in frame order.
    Each client's path RMS of its ``kf_position``s, and each system's mean gain
    at the true bearing over the client-frames where every system in the
    records holds a sector; None with nothing to score. A run, as it logs each
    record, and ``beamtrack rms`` on the run's log both score by this rule.
    """
    points: dict[int, list] = {}
    gains: tuple[list, list] = ([], [])  # the tracker's, the baseline's
    for rec in records:
        bearings = {t["id"]: t.get("bearing_deg") for t in rec.get("truth", ())}
        for entry in rec.get("clients", ()):
            cid = entry["id"]
            if entry.get("kf_position") is not None:
                points.setdefault(cid, []).append(entry["kf_position"])
            held = [entry.get("sector")]
            if "beamscan_sector" in entry:  # the baseline ran beside the tracker
                held.append(entry["beamscan_sector"])
            if bearings.get(cid) is not None and None not in held:
                for samples, sector in zip(gains, held):
                    samples.append(simulate_gain(sector, bearings[cid], SECTORS))
    rms = {
        cid: compute_rms(points[cid], path.waypoints) if cid in points else None
        for cid, path in enumerate(config.clients)
    }
    alg, scan = (float(np.mean(g)) if g else None for g in gains)
    return {"rms_by_client": rms, "mean_gain_algorithm": alg, "mean_gain_beamscan": scan}


# --------------------------------------------------------------------------
# capture files: [u32 length][u8 tag][payload] records, IMU records then one
# point-cloud record per frame


class CaptureWriter:
    """Write the exact sensor streams a run consumed, for later replay."""

    def __init__(self, path: str | Path) -> None:
        self._fh = open(path, "wb")

    def write_imu(self, sample: ImuSample) -> None:
        """Append a sample; raises DatagramError, writing nothing, if replay would reject it."""
        payload = encode_imu_datagram(sample)
        decode_imu_datagram(payload)
        self._fh.write(_RECORD_HEADER.pack(len(payload), TAG_IMU))
        self._fh.write(payload)

    def write_cloud(self, frame: PointCloudFrame) -> None:
        """Append a cloud; raises DatagramError, writing nothing, if replay would reject it."""
        pts = np.ascontiguousarray(frame.points, dtype="<f8")
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise DatagramError(f"point cloud of shape {pts.shape}, expected (n, 4)")
        if not 0.0 <= frame.timestamp_s < math.inf:
            raise DatagramError(
                f"point-cloud timestamp {frame.timestamp_s} is not a finite time >= 0"
            )
        try:
            payload = _CLOUD_HEADER.pack(frame.frame_index, frame.timestamp_s, pts.shape[0])
            head = _RECORD_HEADER.pack(len(payload) + pts.nbytes, TAG_CLOUD)
        except struct.error as exc:
            raise DatagramError(f"point-cloud frame index {frame.frame_index!r}: {exc}") from exc
        self._fh.write(head)
        self._fh.write(payload)
        self._fh.write(pts.tobytes())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_capture(path: str | Path):
    """Yield (imu_batches, cloud) frames from a capture file in recorded order.

    A damaged file yields the whole frames before the damage, then raises
    DatagramError.
    """
    batches: dict[int, list[ImuSample]] = {}
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        left = st.st_size if stat.S_ISREG(st.st_mode) else math.inf  # bytes not yet read
        while True:
            head = fh.read(_RECORD_HEADER.size)
            if not head:
                break
            if len(head) < _RECORD_HEADER.size:
                raise DatagramError("truncated capture record header")
            length, tag = _RECORD_HEADER.unpack(head)
            left -= len(head) + length
            if left < 0:  # checked first, so a garbled length allocates nothing
                raise DatagramError("truncated capture record")
            payload = fh.read(length)
            if len(payload) < length:
                raise DatagramError("truncated capture record")
            if tag == TAG_IMU:
                sample = decode_imu_datagram(payload)
                batches.setdefault(sample.client_id, []).append(sample)
            elif tag == TAG_CLOUD:
                if len(payload) < _CLOUD_HEADER.size:
                    raise DatagramError("short point-cloud record")
                idx, ts, n = _CLOUD_HEADER.unpack_from(payload, 0)
                if not 0.0 <= ts < math.inf:
                    raise DatagramError(f"point-cloud timestamp {ts} is not a finite time >= 0")
                body = payload[_CLOUD_HEADER.size :]
                if len(body) != n * _POINT_BYTES:
                    raise DatagramError("point-cloud record length mismatch")
                pts = np.frombuffer(body, dtype="<f8").reshape(n, 4).copy()
                yield batches, PointCloudFrame(frame_index=idx, timestamp_s=ts, points=pts)
                batches = {}
            else:
                raise DatagramError(f"unknown capture record tag {tag}")
    if batches:
        raise DatagramError("capture ends with IMU records after the last point cloud")


# --------------------------------------------------------------------------
# run drivers


@dataclass
class ScanEvent:
    client_id: int
    frame_index: int
    waypoint_index: int
    sector: int
    frames_spent: int
    bearing_deg: float
    gain: float


@dataclass
class RunReport:
    mode: str
    frames: list[FrameReport]
    rms_by_client: dict[int, float | None]
    identified_at_frame: int | None
    error_frames: int
    mean_gain_algorithm: float | None
    mean_gain_beamscan: float | None
    scan_frames_spent: int
    scan_events: list[ScanEvent]
    # run totals of the per-frame drop counts (client id -> readings)
    imu_dropped_non_finite: dict[int, int] = field(default_factory=dict)
    imu_dropped_stale: dict[int, int] = field(default_factory=dict)
    imu_dropped_future: dict[int, int] = field(default_factory=dict)
    non_finite_points: int = 0
    non_finite_doppler: int = 0


def _xy(arr) -> list[float]:
    return [float(arr[0]), float(arr[1])]


def frame_record(
    report: FrameReport,
    truth: list[tuple[GroundTruthPose, BeamDecision | None]] | None = None,
    beamscan_sectors: dict[int, int | None] | None = None,
) -> dict:
    """One frame as a plain JSON-serializable dict (stable key set).

    ``truth`` pairs each true pose with the beam steered from it at its peer's
    true pose.
    """
    clusters = [
        {
            "label": c.label,
            "core": _xy(c.core_point),
            "count": int(c.point_count),
            "mean_doppler": None if c.mean_doppler_mps is None else float(c.mean_doppler_mps),
            "velocity": None if c.velocity_mps is None else _xy(c.velocity_mps),
        }
        for c in report.clusters
    ]
    clients = []
    for cs in report.clients:
        beam = cs.beam
        entry = {
            "id": cs.client_id,
            "bound_label": cs.bound_label,
            "measurement": None if cs.measurement_m is None else _xy(cs.measurement_m),
            "kf_position": None if cs.kf_position_m is None else _xy(cs.kf_position_m),
            "kf_velocity": None if cs.kf_velocity_mps is None else _xy(cs.kf_velocity_mps),
            "imu_velocity": _xy(cs.imu_velocity_mps),
            "heading_rad": float(cs.heading_rad),
            "coasting": cs.coasting,
            "bearing_deg": None if beam is None else float(beam.bearing_deg),
            "sector": None if beam is None else beam.sector,
            "in_beamspace": None if beam is None else beam.in_beamspace,
            "clamped": None if beam is None else beam.clamped,
        }
        if beamscan_sectors is not None:
            entry["beamscan_sector"] = beamscan_sectors.get(cs.client_id)
        clients.append(entry)
    rec = {
        "frame": report.frame_index,
        "t": float(report.timestamp_s),
        "t_meas": float(report.measurement_time_s),
        "n_points": report.n_points,
        "n_clusters_raw": report.n_clusters_raw,
        "clusters": clusters,
        "clients": clients,
        "error_flag": report.error_flag,
        "identified": report.identified,
        "events": list(report.events),
    }
    if truth is not None:
        rec["truth"] = [
            {
                "id": pose.client_id,
                "position": _xy(pose.position_m),
                "velocity": _xy(pose.velocity_mps),
                "heading_rad": float(pose.heading_rad),
                "bearing_deg": None if beam is None else float(beam.bearing_deg),
                "sector": None if beam is None else beam.sector,
            }
            for pose, beam in truth
        ]
    return rec


def device_readings(scenario: Scenario, client_id: int, seq):
    """A client device's wire-quantized readings: reading s at time s / INLINE_IMU_RATE_HZ.

    seq is one reading number or a 1-D array of them (a window).
    """
    rate = INLINE_IMU_RATE_HZ
    return quantize_imu(scenario.sample_imu(client_id, seq / rate, dt=1.0 / rate, seq=seq))


def calibrate_clients(scenario: Scenario) -> dict[int, CalibrationProfile]:
    """Rest-window bias calibration from each client's initial device samples."""
    config = scenario.config
    holds = [p.initial_hold_s for p in config.clients]
    window = max(
        MIN_CALIBRATION_WINDOW_S,
        min(MAX_CALIBRATION_WINDOW_S, min(holds) if holds else 0.0),
    )
    seq = np.arange(1, int(round(window * INLINE_IMU_RATE_HZ)) + 1)
    return {
        cid: calibrate(device_readings(scenario, cid, seq)) for cid in range(len(config.clients))
    }


def _last_reading(config: ScenarioConfig, k: int) -> int:
    """Number of frame k's last device reading; frame k takes those after frame k - 1's."""
    return int(math.floor((k + 1) * config.frame_time_s * INLINE_IMU_RATE_HZ + 1e-9))


def radar_instant(config: ScenarioConfig, k: int) -> int:
    """Frame k's radar instant: the last one before its window end (k + 1) * frame_time_s."""
    return math.ceil((k + 1) * config.frame_time_s * config.radar_rate_hz - 1e-9) - 1


def _inline_source(scenario: Scenario):
    """Deterministic device-rate feed: every IMU sample plus one cloud per frame."""
    config = scenario.config
    for k in range(scenario.n_frames):
        seq = np.arange(_last_reading(config, k - 1) + 1, _last_reading(config, k) + 1)
        batches = {
            cid: window_readings(device_readings(scenario, cid, seq))
            for cid in range(len(config.clients))
        }
        yield batches, scenario.sample_point_cloud(radar_instant(config, k))


def _store_source(scenario: Scenario, received):
    """Live feed: each frame takes its inline window of the readings queued on ``received``.

    A frame is cut once every configured client has sent a reading at or past
    its window's end, or, at the latest, half a frame period after that end on
    the feed's clock, which starts before frame 0; a frame past its deadline
    first takes the readings already queued. A reading of a later window waits
    for its frame; one from a client the config lacks is dropped.
    """
    import queue

    config = scenario.config
    later: list[ImuSample] = []  # readings of windows to come
    start = time.monotonic()
    for k in range(scenario.n_frames):
        end_s = _last_reading(config, k) / INLINE_IMU_RATE_HZ
        deadline = start + end_s + config.frame_time_s / 2.0
        batches = {cid: [] for cid in range(len(config.clients))}
        due = set(batches)  # clients yet to reach the window's end
        pending, later = later, []
        while True:
            for s in pending:
                if s.client_id in batches:
                    (later if s.timestamp_s > end_s else batches[s.client_id]).append(s)
                    if s.timestamp_s >= end_s:
                        due.discard(s.client_id)
            if not due:
                break
            wait = deadline - time.monotonic()
            try:
                pending = [received.get(timeout=wait) if wait > 0 else received.get_nowait()]
            except queue.Empty:
                break
        yield batches, scenario.sample_point_cloud(radar_instant(config, k))


def _tee(source, capture: CaptureWriter):
    """Pass a feed's frames on, first writing each: readings by (time, client), then the cloud."""
    for batches, cloud in source:
        readings = [s for batch in batches.values() for s in batch]
        for s in sorted(readings, key=lambda s: (s.timestamp_s, s.client_id)):
            capture.write_imu(s)
        capture.write_cloud(cloud)
        yield batches, cloud


class ScanBaseline:
    """The beam-scanning baseline, stepped frame by frame beside the tracker.

    Each client scans at the start and at each waypoint arrival, at its peer's
    true bearing, and holds the scanned sector until its next scan.
    """

    def __init__(self, scenario: Scenario) -> None:
        config = scenario.config
        self._seed = config.seed
        self._schedule: dict[tuple[int, int], list[int]] = {}  # (frame, client id) -> waypoints
        for cid in range(len(config.clients)):
            for widx, t_arrive in enumerate(scenario.waypoint_times(cid)):
                frame = max(0, int(math.ceil(t_arrive / config.frame_time_s - 1e-9)) - 1)
                if frame < scenario.n_frames:
                    self._schedule.setdefault((frame, cid), []).append(widx)
        self._held: dict[int, int | None] = dict.fromkeys(range(len(config.clients)))
        self.events: list[ScanEvent] = []

    def step(self, k: int, true_beams: dict[int, BeamDecision | None]) -> dict[int, int | None]:
        """Run frame k's due scans; client id -> the sector it then holds."""
        for cid, beam in true_beams.items():
            if beam is None:
                continue  # no true bearing to scan at: the client's due scans are skipped
            for widx in self._schedule.get((k, cid), ()):
                rng = np.random.default_rng([self._seed, _STREAM_SCAN, cid, widx])
                sector, spent = beam_scan_baseline(beam.bearing_deg, SECTORS, SCAN_NOISE_SIGMA, rng)
                self._held[cid] = sector
                gain = simulate_gain(sector, beam.bearing_deg, SECTORS)
                self.events.append(ScanEvent(cid, k, widx, sector, spent, beam.bearing_deg, gain))
        return dict(self._held)


def _run(
    scenario: Scenario,
    mode: str,
    log_path: str | Path | None,
    frame_source,
    feedback=None,
) -> RunReport:
    config = scenario.config
    if mode not in ("algorithm", "both"):
        raise ValidationError(f"unknown mode {mode!r}")
    pipeline = Pipeline(
        PipelineParams.for_config(config),
        initial_heading_rad={gt.client_id: gt.heading_rad for gt in scenario.ground_truth(0.0)},
        calibrations=calibrate_clients(scenario),
    )
    baseline = ScanBaseline(scenario) if mode == "both" else None
    reports: list[FrameReport] = []  # a frame's report is all the run keeps of it

    def records(fh):  # each frame's record, once it is logged
        for k, (imu_batches, cloud) in enumerate(frame_source):
            t_end = (k + 1) * config.frame_time_s
            report = pipeline.process_frame(
                k, t_end, cloud.points, imu_batches, measurement_time_s=cloud.timestamp_s
            )
            t_truth = min(cloud.timestamp_s, config.duration_s)
            poses = {pose.client_id: pose for pose in scenario.ground_truth(t_truth)}
            true_beams = {
                cid: _steer(pose.position_m, pose.heading_rad, poses[pipeline.peer[cid]].position_m)
                for cid, pose in poses.items()
            }
            if feedback is not None:
                for cs in report.clients:
                    if cs.beam is not None:
                        feedback(cs.client_id, k, cs.beam.bearing_deg, cs.beam.sector)
            rec = frame_record(
                report,
                [(pose, true_beams[cid]) for cid, pose in poses.items()],
                beamscan_sectors=None if baseline is None else baseline.step(k, true_beams),
            )
            if fh is not None:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
            reports.append(report)
            yield rec
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as fh:
        scores = run_scores(records(fh), config)
    scan_events = [] if baseline is None else baseline.events
    return RunReport(
        mode=mode,
        frames=reports,
        **scores,
        identified_at_frame=next((r.frame_index for r in reports if r.identified), None),
        error_frames=sum(1 for r in reports if r.error_flag),
        scan_frames_spent=sum(e.frames_spent for e in scan_events),
        scan_events=scan_events,
        imu_dropped_non_finite={
            cid: sum(r.clients[i].imu_dropped_non_finite for r in reports)
            for i, cid in enumerate(pipeline.tracks)
        },
        imu_dropped_stale={
            cid: sum(r.clients[i].imu_dropped_stale for r in reports)
            for i, cid in enumerate(pipeline.tracks)
        },
        imu_dropped_future={
            cid: sum(r.clients[i].imu_dropped_future for r in reports)
            for i, cid in enumerate(pipeline.tracks)
        },
        non_finite_points=sum(r.non_finite_points for r in reports),
        non_finite_doppler=sum(r.non_finite_doppler for r in reports),
    )


def run_scenario(
    config: ScenarioConfig,
    mode: str = "algorithm",
    log_path: str | Path | None = None,
    capture_path: str | Path | None = None,
    store=None,
    feedback=None,
) -> RunReport:
    """Simulate a scenario end to end and run the pipeline over it.

    ``mode`` is "algorithm" (the tracker alone) or "both" (the tracker and the
    beam-scanning baseline, scored on the same frames). By default the pipeline
    consumes a deterministic inline feed (every device sample, wire-quantized),
    so equal configs produce byte-identical logs. ``store``, a queue a
    TelemetryServer puts to, switches to the live feed: the same windows, taken
    as the readings arrive. A capture file records the consumed feed for
    run_from_capture. ``feedback(client_id, frame, bearing, sector)`` is called
    for every beam the tracker steers.
    """
    scenario = build_scenario(config)
    source = _inline_source(scenario) if store is None else _store_source(scenario, store)
    if capture_path is None:
        return _run(scenario, mode, log_path, source, feedback)
    with CaptureWriter(capture_path) as writer:
        return _run(scenario, mode, log_path, _tee(source, writer), feedback)


def run_from_capture(
    config: ScenarioConfig,
    capture_path: str | Path,
    mode: str = "algorithm",
    log_path: str | Path | None = None,
) -> RunReport:
    """Re-run the pipeline over a recorded sensor capture."""
    scenario = build_scenario(config)
    return _run(scenario, mode, log_path, replay_capture(capture_path))
