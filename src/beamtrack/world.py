"""Deterministic walking-scenario simulator.

Produces the two sensor streams a live deployment would provide: radar point
clouds from a fixed imaging radar, and per-client IMU samples. Everything is a
pure function of the config and the sample's key, never of call order, so equal
configs reproduce byte-identical streams. A cloud's noise is keyed by (seed,
radar instant); an IMU reading's noise by (seed, client, seq), drawn in blocks
of 256 readings per generator, so each client's sequence number, rising with
time, picks its noise row.

Geometry: paths, clutter and the radar pose live in a shared world frame.
Point clouds are reported in the radar frame, which is the world frame
translated so the radar sits at the origin (axes stay aligned; the radar pose
carries no rotation).

Radar returns come from the sensor-facing half of a body cylinder: yaw angles
are sampled on the semicircular arc facing the radar, heights inside a torso
band. This reproduces the centroid drift toward the radar that a real
surface-only return exhibits; the downstream tracker has to deal with it.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .imu import GRAVITY_MPS2, ImuSample

# body model for clients and walkers
BODY_Z_MIN_M = 0.8
BODY_Z_MAX_M = 1.4

# static clutter objects scatter their points once within this radius
CLUTTER_SPREAD_M = 0.25

# IMU noise scales off noise_sigma_m so a noiseless config has noiseless sensors.
# The gyro figure models a window-averaged consumer MEMS rate (noise density
# shrinks with averaging), the accel figure a raw torso-mounted accelerometer.
IMU_ACCEL_NOISE_PER_SIGMA = 0.4  # (m/s^2) per meter of noise_sigma_m
IMU_GYRO_NOISE_PER_SIGMA = 0.002  # (rad/s) per meter of noise_sigma_m

# substream ids for per-purpose RNG derivation
_STREAM_CLUTTER = 0
_STREAM_CLOUD = 1
_STREAM_IMU = 2

# IMU readings per noise generator, one row of six standard normals each
IMU_NOISE_BLOCK = 256


def _check_finite(name: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{name} must be finite")


def _number(value, name: str) -> float:
    """A JSON value read as a float; ValidationError naming the key unless a finite number."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):  # NaN fails the <=
        raise ValidationError(f"{name} must be a finite number")
    return float(value)


def _integer(value, name: str) -> int:
    if not _number(value, name).is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _list(value, name: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list")
    return value


def _numbers(value, name: str, n: int) -> tuple[float, ...]:
    if len(_list(value, name)) != n:
        raise ValidationError(f"{name} must be a list of {n} numbers")
    return tuple(_number(v, f"{name}[{i}]") for i, v in enumerate(value))


def _fields(entry, name: str, keys: set[str]) -> None:
    if not isinstance(entry, dict):
        raise ValidationError(f"{name} must be an object")
    extra = set(entry) - keys
    if extra:
        raise ValidationError(f"unknown config key in {name}: {sorted(extra)[0]!r}")


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear waypoint path walked at constant speed after a hold."""

    waypoints: tuple[tuple[float, float], ...]
    speed_mps: float
    initial_hold_s: float = 0.0

    def validate(self, name: str) -> None:
        _check_finite(f"{name}.waypoints", *(c for w in self.waypoints for c in w))
        if len(self.waypoints) < 2:
            raise ValidationError(f"{name}.waypoints needs at least 2 waypoints")
        for k in range(len(self.waypoints) - 1):
            a, b = self.waypoints[k], self.waypoints[k + 1]
            if math.hypot(b[0] - a[0], b[1] - a[1]) == 0.0:
                raise ValidationError(f"{name}.waypoints[{k}] and [{k + 1}] coincide")
        if not 0 <= self.speed_mps < math.inf:  # NaN fails it
            raise ValidationError(f"{name}.speed_mps must be finite and >= 0")
        if not 0 <= self.initial_hold_s < math.inf:
            raise ValidationError(f"{name}.initial_hold_s must be finite and >= 0")


@dataclass(frozen=True)
class ClutterSpec:
    """A static scatterer: a point count scattered around a fixed 3-D position."""

    position: tuple[float, float, float]
    point_count: int


@dataclass
class ScenarioConfig:
    frame_time_s: float = 0.5
    duration_s: float = 10.0
    radar_pose: tuple[float, float, float] = (0.0, 0.0, 1.0)
    clients: tuple[PathSpec, ...] = ()
    clutter: tuple[ClutterSpec, ...] = ()
    distractors: tuple[PathSpec, ...] = ()
    noise_sigma_m: float = 0.05
    body_radius_m: float = 0.25
    points_per_client_per_frame: int = 400
    seed: int = 0
    radar_rate_hz: float = 10.0

    def validate(self) -> None:
        # each range check is written so that NaN fails it
        if not 0 < self.frame_time_s < math.inf:
            raise ValidationError("frame_time_s must be finite and > 0")
        if not self.frame_time_s <= self.duration_s < math.inf:
            raise ValidationError("duration_s must be finite and >= frame_time_s")
        if len(self.radar_pose) != 3:
            raise ValidationError("radar_pose must be (x, y, z)")
        _check_finite("radar_pose", *self.radar_pose)
        if not 0 <= self.noise_sigma_m < math.inf:
            raise ValidationError("noise_sigma_m must be finite and >= 0")
        if not 0 <= self.body_radius_m < math.inf:
            raise ValidationError("body_radius_m must be finite and >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.points_per_client_per_frame < 1:
            raise ValidationError("points_per_client_per_frame must be >= 1")
        if not 0 < self.radar_rate_hz < math.inf:
            raise ValidationError("radar_rate_hz must be finite and > 0")
        if self.radar_instants_per_frame() < 2:
            raise ValidationError(
                "radar_rate_hz too low: need at least 2 radar instants per frame_time_s"
            )
        for i, c in enumerate(self.clients):
            c.validate(f"clients[{i}]")
        for i, d in enumerate(self.distractors):
            d.validate(f"distractors[{i}]")
        for i, cl in enumerate(self.clutter):
            if len(cl.position) != 3:
                raise ValidationError(f"clutter[{i}].position must be (x, y, z)")
            _check_finite(f"clutter[{i}].position", *cl.position)
            if cl.point_count < 1:
                raise ValidationError(f"clutter[{i}].point_count must be >= 1")

    def radar_instants_per_frame(self) -> int:
        """frame_time_s * radar_rate_hz rounded to an integer, the radar instants a frame spans.

        Raises ValidationError naming both keys when the product overflows.
        """
        product = self.frame_time_s * self.radar_rate_hz
        if product == math.inf:
            raise ValidationError(
                "frame_time_s * radar_rate_hz overflows"
                f" ({self.frame_time_s!r} * {self.radar_rate_hz!r})"
            )
        return round(product)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config key: {sorted(unknown)[0]!r}")

        def _path(entry, name: str) -> PathSpec:
            _fields(entry, name, {"waypoints", "speed_mps", "initial_hold_s"})
            if "speed_mps" not in entry:
                raise ValidationError(f"{name}.speed_mps is required")
            wps = enumerate(_list(entry.get("waypoints"), f"{name}.waypoints"))
            return PathSpec(
                waypoints=tuple(_numbers(w, f"{name}.waypoints[{k}]", 2) for k, w in wps),
                speed_mps=_number(entry["speed_mps"], f"{name}.speed_mps"),
                initial_hold_s=_number(entry.get("initial_hold_s", 0.0), f"{name}.initial_hold_s"),
            )

        def _clutter(entry, name: str) -> ClutterSpec:
            _fields(entry, name, {"position", "point_count"})
            return ClutterSpec(
                position=_numbers(entry.get("position"), f"{name}.position", 3),
                point_count=_integer(entry.get("point_count", 0), f"{name}.point_count"),
            )

        kwargs: dict = {}
        for key, value in data.items():
            if key in ("clients", "distractors", "clutter"):
                parse = _clutter if key == "clutter" else _path
                entries = enumerate(_list(value, key))
                kwargs[key] = tuple(parse(v, f"{key}[{i}]") for i, v in entries)
            elif key == "radar_pose":
                kwargs[key] = _numbers(value, key, 3)
            elif key in ("points_per_client_per_frame", "seed"):
                kwargs[key] = _integer(value, key)
            else:
                kwargs[key] = _number(value, key)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as e:  # bad JSON, or bytes that are not UTF-8
                raise ValidationError(f"config file is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ValidationError("config file must contain a JSON object")
        return cls.from_dict(data)


@dataclass
class GroundTruthPose:
    client_id: int
    position_m: np.ndarray  # (2,) world frame
    velocity_mps: np.ndarray  # (2,) world frame
    heading_rad: float  # world frame, walk direction


@dataclass
class PointCloudFrame:
    """One radar measurement instant: rows are (x, y, z, doppler_mps), radar frame."""

    frame_index: int
    timestamp_s: float
    points: np.ndarray  # (n, 4) float64


class _PathTable:
    """A path's segment directions, lengths and arc-length table, built once.

    Per motion state, as states() numbers them (the hold, each segment, the
    path's end), the velocity, heading and world -> body rotation that pose()
    gives there; sample_imu differences the states of two instants.
    """

    def __init__(self, path: PathSpec):
        wps = np.asarray(path.waypoints, dtype=float)
        seg = np.diff(wps, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        dirs = seg / seg_len[:, None]
        self.hold_s = path.initial_hold_s
        self.speed_mps = path.speed_mps
        self.wps = [tuple(w) for w in wps.tolist()]
        self.dirs = [tuple(d) for d in dirs.tolist()]
        self._cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        self.cum = self._cum.tolist()
        self.headings = [math.atan2(dy, dx) for dx, dy in self.dirs]
        speed = self.speed_mps
        headings = [self.headings[0], *self.headings, self.headings[-1]]
        self.state_vx = np.array([0.0, *(dx * speed for dx, _ in self.dirs), 0.0])
        self.state_vy = np.array([0.0, *(dy * speed for _, dy in self.dirs), 0.0])
        self.state_heading = np.array(headings)
        self.state_cos = np.array([math.cos(-h) for h in headings])
        self.state_sin = np.array([math.sin(-h) for h in headings])

    def pose(self, t: float) -> tuple[tuple[float, float], tuple[float, float], float]:
        """Position, velocity and heading along the path at time t.

        Heading holds the upcoming segment direction during the initial hold and
        the last segment direction after the path ends.
        """
        if self.speed_mps == 0.0 or t <= self.hold_s:
            return self.wps[0], (0.0, 0.0), self.headings[0]
        s = (t - self.hold_s) * self.speed_mps
        cum = self.cum
        if s >= cum[-1]:
            return self.wps[-1], (0.0, 0.0), self.headings[-1]
        i = min(bisect.bisect_right(cum, s) - 1, len(self.dirs) - 1)
        (wx, wy), (dx, dy) = self.wps[i], self.dirs[i]
        along = s - cum[i]
        pos = (wx + dx * along, wy + dy * along)
        return pos, (dx * self.speed_mps, dy * self.speed_mps), self.headings[i]

    def states(self, t: np.ndarray) -> np.ndarray:
        """Motion state at each time of a 1-D array, by pose()'s rule.

        0 is the hold, 1 + i segment i and len(dirs) + 1 the end of the path.
        As cum runs from 0 to the path's length, bisect_right(cum, s) is the
        state wherever t > hold.
        """
        if self.speed_mps == 0.0:
            return np.zeros(t.shape, dtype=np.intp)
        state = self._cum.searchsorted((t - self.hold_s) * self.speed_mps, side="right")
        state[t <= self.hold_s] = 0
        return state


class Scenario:
    """A validated, immutable world that can be sampled at any instant."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        # clients first, so a client id indexes its own table
        self._tables = [_PathTable(p) for p in (*config.clients, *config.distractors)]
        self._radar = np.asarray(config.radar_pose, dtype=float)
        self._clutter_points = self._build_clutter()
        # client id -> (block number, its noise rows): per instance, so a new
        # Scenario draws its noise afresh, and one tuple, so threads sampling
        # at once at worst draw a block twice and never pair a number with
        # another block's rows
        self._imu_blocks: dict[int, tuple[int, np.ndarray]] = {}

    def _build_clutter(self) -> np.ndarray:
        """Scatter clutter once; static objects return the same points every frame."""
        rows = []
        rng = np.random.default_rng([self.config.seed, _STREAM_CLUTTER])
        for spec in self.config.clutter:
            center = np.asarray(spec.position, dtype=float)
            offsets = rng.normal(0.0, CLUTTER_SPREAD_M, size=(spec.point_count, 3))
            pts = center + offsets
            rows.append(np.column_stack([pts - self._radar, np.zeros(spec.point_count)]))
        if not rows:
            return np.empty((0, 4))
        return np.vstack(rows)

    @property
    def n_frames(self) -> int:
        return int(math.floor(self.config.duration_s / self.config.frame_time_s + 1e-9))

    def _check_time(self, t: float) -> None:
        if not (0.0 <= t <= self.config.duration_s):
            raise ValueError(f"t={t} outside scenario range [0, {self.config.duration_s}]")

    def _client_table(self, client_id: int) -> _PathTable:
        if not (0 <= client_id < len(self.config.clients)):
            raise KeyError(f"unknown client_id {client_id}")
        return self._tables[client_id]

    def waypoint_times(self, client_id: int) -> list[float]:
        """When a client stands at each waypoint it reaches, in waypoint order.

        The first is 0.0, the start; each later one is the hold plus the arc
        length to that waypoint over the speed. A path walked at zero speed
        never leaves its first waypoint and gives [0.0].
        """
        table = self._client_table(client_id)
        if table.speed_mps == 0.0:
            return [0.0]
        return [0.0, *(table.hold_s + s / table.speed_mps for s in table.cum[1:])]

    def ground_truth(self, t: float) -> list[GroundTruthPose]:
        """True pose of every client (world frame) at time t."""
        self._check_time(t)
        out = []
        for cid in range(len(self.config.clients)):
            pos, vel, heading = self._tables[cid].pose(t)
            out.append(GroundTruthPose(cid, np.array(pos), np.array(vel), heading))
        return out

    def sample_point_cloud(self, frame_index: int) -> PointCloudFrame:
        """Radar return for measurement instant frame_index (radar_rate_hz cadence)."""
        if frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {frame_index}")
        t = frame_index / self.config.radar_rate_hz
        self._check_time(t)
        cfg = self.config
        rng = np.random.default_rng([cfg.seed, _STREAM_CLOUD, frame_index])
        n = cfg.points_per_client_per_frame
        blocks = []
        for table in self._tables:
            pos, vel, _ = table.pose(t)
            pos = np.array(pos)
            if cfg.body_radius_m > 0.0:
                # sample the radar-facing arc of the body circle
                to_radar = math.atan2(self._radar[1] - pos[1], self._radar[0] - pos[0])
                theta = to_radar + rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
                xy = pos + cfg.body_radius_m * np.column_stack([np.cos(theta), np.sin(theta)])
            else:
                xy = np.tile(pos, (n, 1))
            z = rng.uniform(BODY_Z_MIN_M, BODY_Z_MAX_M, n)
            xyz = np.column_stack([xy, z])
            if cfg.noise_sigma_m > 0.0:
                xyz = xyz + rng.normal(0.0, cfg.noise_sigma_m, size=(n, 3))
            rel = xyz - self._radar
            rng_norm = np.linalg.norm(rel, axis=1)
            rng_norm[rng_norm == 0.0] = 1.0
            v3 = np.array([vel[0], vel[1], 0.0])
            doppler = (rel @ v3) / rng_norm
            if cfg.noise_sigma_m > 0.0:
                doppler = doppler + rng.normal(0.0, cfg.noise_sigma_m, n)
            blocks.append(np.column_stack([rel, doppler]))
        blocks.append(self._clutter_points)
        points = np.vstack(blocks) if blocks else np.empty((0, 4))
        return PointCloudFrame(frame_index=frame_index, timestamp_s=t, points=points)

    def sample_imu(
        self, client_id: int, t: float | np.ndarray, dt: float = 0.01, *, seq: int | np.ndarray
    ) -> ImuSample:
        """Inertial readings of one client: one at a time or a window at once.

        With scalar t and seq, one reading whose vectors are tuples of Python
        floats. With t and seq equal-length 1-D arrays, a window: an ImuSample
        whose seq and timestamp_s are the (n,) arrays and whose accel_mps2 and
        gyro_radps are (n, 3) arrays, row k equal bit for bit to the reading
        at (t[k], seq[k]). A scalar call is computed as the window of one.

        Acceleration and angular rate are backward differences of the true
        velocity and heading profiles over dt, expressed in the body frame with
        gravity added, so integrating a regular sample train recovers the true
        motion exactly (the sums telescope). dt is the sensor's report
        interval: 0.01 for a 100 Hz device, or one pipeline frame for
        frame-cadence feeds.

        The noise is a pure function of (seed, client_id, seq): row
        seq % IMU_NOISE_BLOCK of
        default_rng([seed, _STREAM_IMU, client_id, seq // IMU_NOISE_BLOCK])
        .standard_normal((IMU_NOISE_BLOCK, 6)), accel noise first. Callers give
        each reading of a client its own seq, rising with time; the last block
        drawn per client is kept, so a rising seq builds one generator per
        IMU_NOISE_BLOCK readings. seq has no default: one shared value would
        give every instant the same noise row, a constant bias.
        """
        table = self._client_table(client_id)
        window = np.ndim(t) == 1
        times = np.atleast_1d(np.asarray(t, dtype=float))
        seqs = np.atleast_1d(seq)
        if np.ndim(seq) != np.ndim(t) or times.ndim != 1 or seqs.shape != times.shape:
            raise ValueError("t and seq must both be scalars or equal-length 1-D arrays")
        if times.size and not (times.min() >= 0.0 and times.max() <= self.config.duration_s):
            for t_k in times.tolist():
                self._check_time(t_k)
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        now = table.states(times)
        before = table.states(np.maximum(0.0, times - dt))

        # global frame, no vertical motion; the heading change wrapped to (-pi, pi]
        vx, vy, heading = table.state_vx, table.state_vy, table.state_heading
        ax = (vx[now] - vx[before]) / dt
        ay = (vy[now] - vy[before]) / dt
        w = np.fmod(heading[now] - heading[before] + math.pi, 2.0 * math.pi)
        yaw_rate = (np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi) / dt

        # world -> body rotation about z
        c, s = table.state_cos[now], table.state_sin[now]
        accel = np.empty((times.size, 3))
        accel[:, 0] = c * ax - s * ay
        accel[:, 1] = s * ax + c * ay
        accel[:, 2] = GRAVITY_MPS2
        gyro = np.zeros((times.size, 3))
        gyro[:, 2] = yaw_rate

        sigma = self.config.noise_sigma_m
        if sigma > 0.0 and seqs.size:
            z = self._imu_noise(client_id, seqs)
            accel += IMU_ACCEL_NOISE_PER_SIGMA * sigma * z[:, :3]
            gyro += IMU_GYRO_NOISE_PER_SIGMA * sigma * z[:, 3:]
        if window:
            return ImuSample(client_id, seqs, times, accel, gyro)
        (a,), (g,) = accel.tolist(), gyro.tolist()
        return ImuSample(client_id, seq, t, tuple(a), tuple(g))

    def _imu_noise(self, client_id: int, seqs: np.ndarray) -> np.ndarray:
        """(n, 6) standard normals: row seq % IMU_NOISE_BLOCK of each seq's block."""
        numbers = seqs // IMU_NOISE_BLOCK
        rows = seqs % IMU_NOISE_BLOCK
        # runs of one block number: one run for most windows of a rising seq,
        # two where it crosses into the next block
        cuts = [0, *(np.flatnonzero(numbers[1:] != numbers[:-1]) + 1).tolist(), seqs.size]
        z = np.empty((seqs.size, 6))
        for a, b in zip(cuts, cuts[1:]):
            number = int(numbers[a])
            block = self._imu_blocks.get(client_id)
            if block is None or block[0] != number:
                rng = np.random.default_rng([self.config.seed, _STREAM_IMU, client_id, number])
                block = (number, rng.standard_normal((IMU_NOISE_BLOCK, 6)))
                self._imu_blocks[client_id] = block
            z[a:b] = block[1][rows[a:b]]
        return z


def build_scenario(config: ScenarioConfig) -> Scenario:
    return Scenario(config)


def default_config(seed: int = 0) -> ScenarioConfig:
    """Demo scenario: two mirrored P-shaped walks, one background walker, desks.

    The holds are staggered so the two clients have distinct velocities while
    bindings are being established.
    """
    p_left = PathSpec(
        waypoints=((0.8, 0.5), (0.8, 3.5), (1.6, 3.5), (1.6, 2.0), (0.8, 2.0)),
        speed_mps=0.5,
        initial_hold_s=1.0,
    )
    p_right = PathSpec(
        waypoints=((4.2, 0.5), (4.2, 3.5), (3.4, 3.5), (3.4, 2.0), (4.2, 2.0)),
        speed_mps=0.5,
        initial_hold_s=2.5,
    )
    walker = PathSpec(waypoints=((0.0, 5.0), (5.0, 5.0)), speed_mps=0.4, initial_hold_s=0.0)
    return ScenarioConfig(
        frame_time_s=0.5,
        duration_s=18.0,
        radar_pose=(2.5, -2.0, 1.0),
        clients=(p_left, p_right),
        clutter=(
            ClutterSpec(position=(0.0, -0.8, 0.7), point_count=150),
            ClutterSpec(position=(5.0, -0.8, 0.7), point_count=150),
        ),
        distractors=(walker,),
        noise_sigma_m=0.05,
        body_radius_m=0.25,
        points_per_client_per_frame=800,
        seed=seed,
        radar_rate_hz=10.0,
    )
