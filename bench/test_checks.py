"""The benchmark's output checks pass on right outputs and fail on wrong ones."""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from beamtrack.clustering import DbscanParams, dbscan  # noqa: E402


def _cloud(seed=3):
    rng = np.random.default_rng(seed)
    blobs = [rng.normal(c, 0.08, size=(60, 3)) for c in ((0, 0, 1), (1.5, 0, 1), (0, 2, 1))]
    pts = np.vstack(blobs + [rng.uniform(-3, 3, size=(20, 3))])
    return np.column_stack([pts, rng.normal(0, 0.1, len(pts))])


def test_dbscan_partition_passes_on_the_program_and_fails_on_swapped_labels():
    pts = _cloud()
    params = DbscanParams(eps_m=0.3, min_pts=10)
    clusters, noise = dbscan(pts, params)
    assert len(clusters) == 3
    assert checks.check_dbscan_partition(pts, 0.3, 10, clusters, noise) == []

    swapped = copy.deepcopy(clusters)
    swapped[0].label, swapped[1].label = swapped[1].label, swapped[0].label
    assert checks.check_dbscan_partition(pts, 0.3, 10, swapped, noise)

    moved = copy.deepcopy(clusters)
    lost = moved[2].member_indices.pop()
    assert checks.check_dbscan_partition(pts, 0.3, 10, moved, noise + [lost])


def test_brute_force_border_point_goes_to_the_first_cluster():
    # two four-point cores; the point between them reaches one core point of each
    pts = np.array(
        [[0, 0, 0], [-0.05, 0, 0], [-0.05, 0.05, 0], [0, 0.1, 0], [0.25, 0, 0],
         [0.5, 0, 0], [0.55, 0, 0], [0.55, 0.05, 0], [0.5, 0.1, 0]],
        dtype=float,
    )
    pts = np.column_stack([pts, np.zeros(len(pts))])  # zero doppler
    labels = checks.brute_force_dbscan(pts, eps=0.26, min_pts=4)
    assert labels.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1]
    clusters, noise = dbscan(pts, DbscanParams(eps_m=0.26, min_pts=4))
    assert checks.check_dbscan_partition(pts, 0.26, 4, clusters, noise) == []
    clusters[0].member_indices.remove(4)
    clusters[1].member_indices.append(4)
    assert checks.check_dbscan_partition(pts, 0.26, 4, clusters, noise)


def test_polyline_distance_and_rms():
    wps = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0))
    assert checks.point_to_polyline_m((1.0, 0.5), wps) == pytest.approx(0.5)
    assert checks.point_to_polyline_m((3.0, 3.0), wps) == pytest.approx(math.sqrt(2.0))
    assert checks.path_rms_m([(1.0, 0.0), (2.0, 1.0)], wps) == 0.0
    assert checks.check_path_rms({0: 0.01, 1: 0.02}, "ok") == []
    assert checks.check_path_rms({0: 0.01, 1: 1.5}, "off path")
    assert checks.check_path_rms({0: float("nan")}, "nan")


def _record():
    """A two-client frame record as the frame log writes it."""
    return {
        "frame": 35,
        "clusters": [
            {"label": 4, "core": [1.0, 1.0]},
            {"label": 7, "core": [4.0, 1.0]},
            {"label": 9, "core": [2.5, 6.0]},
        ],
        "truth": [{"id": 0, "position": [1.02, 0.98]}, {"id": 1, "position": [3.97, 1.01]}],
        "clients": [
            _client(0, 4, [1.0, 1.0], 0.0, [4.0, 1.0]),
            _client(1, 7, [4.0, 1.0], math.pi - 0.2, [1.0, 1.0]),
        ],
    }


def _client(cid, label, own, heading, peer):
    b = checks.bearing_deg(own, heading, peer)
    reachable = abs(b) <= 90.0
    sector = None
    if reachable:
        sector = checks.grid_bin(0.0, 30.0, 4) * 16 + checks.grid_bin(b, 60.0, 16)
    return {
        "id": cid, "bound_label": label, "kf_position": own, "heading_rad": heading,
        "bearing_deg": b, "sector": sector, "in_beamspace": reachable, "clamped": abs(b) > 30.0,
    }


def test_final_binding_fails_on_swapped_bindings():
    rec = _record()
    assert checks.check_final_binding(rec, "ok") == []
    a, b = rec["clients"]
    a["bound_label"], b["bound_label"] = b["bound_label"], a["bound_label"]
    assert len(checks.check_final_binding(rec, "swapped")) == 2
    b["bound_label"] = None
    assert checks.check_final_binding(rec, "unbound")


def test_sector_check_fails_on_a_sector_off_by_one_and_on_a_wrong_bearing():
    rec = _record()
    # client 1 looks back along the line of sight, 0.2 rad off its heading
    assert rec["clients"][1]["sector"] == 2 * 16 + 11
    assert checks.check_sectors(rec, "ok") == []

    off = copy.deepcopy(rec)
    off["clients"][1]["sector"] += 1
    assert checks.check_sectors(off, "off by one")

    other_row = copy.deepcopy(rec)
    other_row["clients"][1]["sector"] -= 16
    assert checks.check_sectors(other_row, "row off by one")

    bent = copy.deepcopy(rec)
    bent["clients"][1]["bearing_deg"] += 0.5
    assert checks.check_sectors(bent, "bearing")

    behind = copy.deepcopy(rec)
    behind["clients"][0]["heading_rad"] = math.pi  # peer now behind client 0
    assert checks.check_sectors(behind, "out of beamspace")


def test_frame_identity_checks():
    rec = _record()
    run_rec = copy.deepcopy(rec)
    for c in run_rec["clients"]:
        c["beamscan_sector"] = 3
    plain = {k: v for k, v in rec.items() if k != "truth"}
    assert checks.record_digest(checks.pipeline_part(run_rec)) == checks.record_digest(plain)

    want = [checks.record_digest(plain)] * 3
    assert checks.check_same_frames(want, list(want), "same") == []
    changed = copy.deepcopy(plain)
    changed["clients"][0]["kf_position"][0] += 1e-12
    assert checks.check_same_frames(want, want[:2] + [checks.record_digest(changed)], "changed")
    assert checks.check_same_frames(want, want[:2], "short")
