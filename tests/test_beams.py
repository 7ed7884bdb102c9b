"""Bearing math, sector binning, gain model, and the scanning baseline."""

import math

import numpy as np
import pytest

from beamtrack.beams import (
    BEAMSPACE_HALF_DEG,
    SectorTable,
    angle_to_sector,
    beam_angle,
    beam_scan_baseline,
    in_beamspace,
    simulate_gain,
    wrap_deg,
)
from beamtrack.errors import ValidationError


def test_wrap_deg_convention():
    assert wrap_deg(0.0) == 0.0
    assert wrap_deg(180.0) == 180.0
    assert wrap_deg(-180.0) == 180.0
    assert wrap_deg(181.0) == -179.0
    assert wrap_deg(540.0) == 180.0
    assert wrap_deg(-90.0) == -90.0
    assert wrap_deg(359.0) == pytest.approx(-1.0)


def test_sector_table_defaults():
    t = SectorTable()
    assert t.n_sectors == 64
    assert t.az_pitch_deg == pytest.approx(3.75)
    assert t.el_pitch_deg == pytest.approx(7.5)


def test_sector_table_validation():
    with pytest.raises(ValidationError):
        SectorTable(az_span_deg=0.0)
    with pytest.raises(ValidationError):
        SectorTable(n_az=0)


def test_sector_center_round_trip():
    t = SectorTable()
    for sector in range(t.n_sectors):
        az, _ = t.sector_center(sector)
        # a peer at the same height lies in row 2, whose lower edge is 0 deg
        assert angle_to_sector(az, t) == (2 * t.n_az + sector % t.n_az, False)
    assert t.sector_center(32)[1] - t.el_pitch_deg / 2.0 == 0.0
    with pytest.raises(ValueError):
        t.sector_center(64)


def test_angle_to_sector_frozen_examples():
    t = SectorTable()
    assert angle_to_sector(0.0, t) == (40, False)  # boresight: row 2, col 8
    assert angle_to_sector(-30.0, t) == (32, False)  # left edge: row 2, col 0
    # the row holding 0 deg: the middle one of three, the only one of one
    assert angle_to_sector(0.0, SectorTable(n_el=3)) == (24, False)
    assert angle_to_sector(0.0, SectorTable(n_el=1)) == (8, False)
    # the sector is 32 + the bearing's column: row grid_bin(0 deg) = 2, as the
    # benchmark's sector check assumes
    for b in np.linspace(-89.0, 89.0, 357):
        col = min(max(math.floor((b + 30.0) / 3.75), 0), 15)
        assert angle_to_sector(b, t) == (32 + col, abs(b) > 30.0)


def test_angle_to_sector_clamps_out_of_span():
    t = SectorTable()
    sector, clamped = angle_to_sector(-31.0, t)
    assert clamped and sector % t.n_az == 0
    sector, clamped = angle_to_sector(35.0, t)
    assert clamped and sector % t.n_az == t.n_az - 1
    # the top edge of the span falls past the last lower-inclusive bin and clamps
    sector, clamped = angle_to_sector(30.0, t)
    assert sector % t.n_az == t.n_az - 1


def test_beam_angle_geometry():
    me = np.array([0.0, 0.0])
    peer = np.array([1.0, 1.0])
    assert beam_angle(me, 0.0, peer) == pytest.approx(45.0)
    assert beam_angle(me, math.pi / 2.0, peer) == pytest.approx(-45.0)
    assert beam_angle(me, math.pi, peer) == pytest.approx(-135.0)
    assert beam_angle(peer, 0.0, me) == pytest.approx(-135.0)


def test_beam_angle_rejects_coincident_positions():
    with pytest.raises(ValueError):
        beam_angle(np.array([1.0, 1.0]), 0.0, np.array([1.0, 1.0]))


def test_in_beamspace_boundary():
    assert in_beamspace(90.0)
    assert in_beamspace(-90.0)
    assert not in_beamspace(90.0001)
    assert BEAMSPACE_HALF_DEG == 90.0


def test_simulate_gain_profile():
    # three rows: the middle one is centred on 0 deg, where the peer lies
    t = SectorTable(n_el=3)
    az, el = t.sector_center(24)
    assert el == 0.0
    assert simulate_gain(24, az, t) == pytest.approx(100.0)
    assert simulate_gain(24, az + t.az_pitch_deg, t) == 0.0
    assert simulate_gain(24, az + 10 * t.az_pitch_deg, t) == 0.0
    assert simulate_gain(24, az + t.az_pitch_deg / 2.0, t) == pytest.approx(25.0)
    assert simulate_gain(8, az, t) == 0.0  # one elevation pitch off
    # four rows: 0 deg lies half a pitch from the centres of rows 1 and 2
    t = SectorTable()
    az, _ = t.sector_center(40)
    assert simulate_gain(40, az, t) == pytest.approx(25.0)
    assert simulate_gain(24, az, t) == simulate_gain(40, az, t)
    assert simulate_gain(8, az, t) == simulate_gain(56, az, t) == 0.0


def test_beam_scan_noiseless_finds_true_sector():
    t = SectorTable()
    for col in (0, 7, 8, 15):
        az, _ = t.sector_center(col)
        got, frames = beam_scan_baseline(az, t)
        tracker, _ = angle_to_sector(az, t)
        # rows 1 and 2 tie at 0 deg: the scan keeps row 1, the tracker steers
        # in row 2, and both point equally well
        assert (got, tracker) == (16 + col, 32 + col)
        assert simulate_gain(got, az, t) == simulate_gain(tracker, az, t) > 0.0
        assert frames == 8 + 8  # 8 group probes + 8-member sweep


def test_beam_scan_partial_last_group():
    t = SectorTable(n_az=10, n_el=1)  # 10 sectors in groups of 8 -> groups of 8 and 2
    az, _ = t.sector_center(9)
    got, frames = beam_scan_baseline(az, t, group_size=8)
    assert got == 9
    assert frames == 2 + 2


def test_beam_scan_noise_is_deterministic_per_rng():
    t = SectorTable()
    az, _ = t.sector_center(22)
    a = beam_scan_baseline(az, t, noise_sigma=10.0, rng=np.random.default_rng(5))
    b = beam_scan_baseline(az, t, noise_sigma=10.0, rng=np.random.default_rng(5))
    assert a == b


def test_beam_scan_noise_causes_misses():
    # truth on the edge between columns 8 and 9: sectors 24, 25, 40 and 41
    # have equal gains, so probe noise decides the winner and repeated scans
    # oscillate
    t = SectorTable()
    az, _ = t.sector_center(40)
    az += t.az_pitch_deg / 2.0
    picks = {
        beam_scan_baseline(az, t, noise_sigma=10.0, rng=np.random.default_rng(k))[0]
        for k in range(50)
    }
    assert len(picks) > 1


def test_beam_scan_validates_group_size():
    with pytest.raises(ValidationError):
        beam_scan_baseline(0.0, SectorTable(), group_size=0)
