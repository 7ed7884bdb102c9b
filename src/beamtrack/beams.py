"""Bearing computation, sector mapping and the scanning baseline.

Bearings are degrees in (-180, 180], measured from the client's heading to the
line of sight toward its peer. The antenna can steer inside a rectangular
radiation window (default 60 deg azimuth by 30 deg elevation) split into a
uniform sector grid, row-major over (elevation row, azimuth column). Peers
walk at the same height, so a peer lies at elevation 0: the tracker steers in
the row holding 0 deg and gains are scored at 0 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BEAMSPACE_HALF_DEG = 90.0


def wrap_deg(angle: float) -> float:
    """Wrap an angle in degrees to (-180, 180]."""
    w = math.fmod(angle + 180.0, 360.0)
    if w <= 0.0:
        w += 360.0
    return w - 180.0


@dataclass(frozen=True)
class SectorTable:
    az_span_deg: float = 60.0
    el_span_deg: float = 30.0
    n_az: int = 16
    n_el: int = 4

    def __post_init__(self) -> None:
        if self.az_span_deg <= 0 or self.el_span_deg <= 0:
            raise ValidationError("sector spans must be > 0")
        if self.n_az < 1 or self.n_el < 1:
            raise ValidationError("sector counts must be >= 1")

    @property
    def n_sectors(self) -> int:
        return self.n_az * self.n_el

    @property
    def az_pitch_deg(self) -> float:
        return self.az_span_deg / self.n_az

    @property
    def el_pitch_deg(self) -> float:
        return self.el_span_deg / self.n_el

    def sector_center(self, sector: int) -> tuple[float, float]:
        """(azimuth, elevation) of a sector's center in degrees."""
        if not (0 <= sector < self.n_sectors):
            raise ValueError(f"sector {sector} outside [0, {self.n_sectors})")
        row, col = divmod(sector, self.n_az)
        az = -self.az_span_deg / 2.0 + (col + 0.5) * self.az_pitch_deg
        el = -self.el_span_deg / 2.0 + (row + 0.5) * self.el_pitch_deg
        return az, el


@dataclass
class BeamDecision:
    bearing_deg: float
    sector: int | None  # None when the peer is outside the beamspace
    in_beamspace: bool
    clamped: bool


def beam_angle(self_pos: np.ndarray, self_heading_rad: float, peer_pos: np.ndarray) -> float:
    """Bearing from one client to its peer, relative to the client's heading."""
    dx = float(peer_pos[0] - self_pos[0])
    dy = float(peer_pos[1] - self_pos[1])
    if math.hypot(dx, dy) < 1e-12:
        raise ValueError("bearing undefined: positions coincide")
    return wrap_deg(math.degrees(math.atan2(dy, dx) - self_heading_rad))


def in_beamspace(bearing_deg: float) -> bool:
    """A peer is reachable when it lies in the half-space ahead, |bearing| <= 90."""
    return abs(bearing_deg) <= BEAMSPACE_HALF_DEG


def angle_to_sector(bearing_deg: float, table: SectorTable) -> tuple[int, bool]:
    """Map a bearing to its sector in the row holding 0 deg elevation.

    Bins are uniform with lower-edge-inclusive boundaries, so at an even row
    count 0 deg falls in the upper of the two middle rows. Returns the sector
    index and a flag that is True when the bearing had to be clamped to an
    edge column.
    """
    half_az = table.az_span_deg / 2.0
    clamped = abs(bearing_deg) > half_az
    col = int(math.floor((bearing_deg + half_az) / table.az_pitch_deg))
    row = int(math.floor(table.el_span_deg / 2.0 / table.el_pitch_deg))
    col = min(max(col, 0), table.n_az - 1)
    return row * table.n_az + col, clamped


def simulate_gain(sector: int, true_bearing_deg: float, table: SectorTable) -> float:
    """Link gain proxy for pointing a sector at a peer at a true bearing and 0 deg elevation.

    100 at a perfect hit, quadratic falloff reaching 0 at one sector pitch of
    pointing error (each axis normalized by its own pitch).
    """
    az, el = table.sector_center(sector)
    d = math.hypot((true_bearing_deg - az) / table.az_pitch_deg, el / table.el_pitch_deg)
    return 100.0 * max(0.0, 1.0 - d) ** 2


def beam_scan_baseline(
    true_bearing_deg: float,
    table: SectorTable,
    group_size: int = 8,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[int, int]:
    """Hierarchical sector scan: probe sector groups, then sweep the best group.

    Each probe costs one evaluation frame and reports the group's best member
    gain (plus measurement noise); the winning group is then swept member by
    member. Returns (selected sector, frames spent). With zero noise this finds
    the lowest-numbered sector of highest gain; with noise it mis-selects near group boundaries,
    which is the cost of scanning instead of computing the angle.
    """
    if group_size < 1:
        raise ValidationError("group_size must be >= 1")
    if noise_sigma > 0.0 and rng is None:
        rng = np.random.default_rng(0)

    def noisy(value: float) -> float:
        if noise_sigma > 0.0:
            return value + float(rng.normal(0.0, noise_sigma))
        return value

    groups = [
        list(range(start, min(start + group_size, table.n_sectors)))
        for start in range(0, table.n_sectors, group_size)
    ]
    frames = 0
    best_group = None
    best_score = -np.inf
    for group in groups:
        score = noisy(max(simulate_gain(s, true_bearing_deg, table) for s in group))
        frames += 1
        if score > best_score:
            best_score = score
            best_group = group
    best_sector = None
    best_gain = -np.inf
    for s in best_group:
        gain = noisy(simulate_gain(s, true_bearing_deg, table))
        frames += 1
        if gain > best_gain:
            best_gain = gain
            best_sector = s
    return best_sector, frames
