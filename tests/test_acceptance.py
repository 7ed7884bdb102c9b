"""Release gate: nine externally verifiable guarantees, one verdict line each.

Every test prints a single ``acceptance N [...]: PASS/FAIL`` line directly to
the terminal (bypassing capture) so a full ``pytest -v`` run always shows the
per-criterion verdicts, then asserts on the same condition.
"""

import dataclasses
import json
import math
import socket
import threading
import time

import numpy as np
import pytest

from oracles import closed_form_velocity, dbscan_reference, matching_reference

from beamtrack.beams import SectorTable, wrap_deg
from beamtrack.clustering import Cluster, DbscanParams, dbscan
from beamtrack.imu import (
    GRAVITY_MPS2,
    ClientMotion,
    ImuSample,
    integrate_velocity,
    madgwick_update,
    quat_conjugate,
    rotate_by_quat,
    yaw_from_quat,
)
from beamtrack.kalman import KalmanConfig, kf_init, kf_predict, kf_step
from beamtrack.pipeline import run_scenario
from beamtrack.telemetry import LatestStore, TelemetryServer, run_sim_client
from beamtrack.tracking import ClusterFrame, match_clusters
from beamtrack.world import default_config


def _verdict(capsys, number, name, ok, detail):
    line = f"acceptance {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def tracking_runs(tmp_path_factory):
    """Ten seeded two-client walks, tracking pipeline and scan baseline together.

    Each run writes its frame log; the parsed logs come third.
    """
    logs = tmp_path_factory.mktemp("tracking_runs")
    start = time.perf_counter()
    runs = []
    for seed in range(10):
        config = dataclasses.replace(default_config(), seed=seed)
        runs.append(run_scenario(config, mode="both", log_path=logs / f"seed{seed}.jsonl"))
    elapsed = time.perf_counter() - start
    records = [
        [json.loads(line) for line in (logs / f"seed{seed}.jsonl").read_text().splitlines()]
        for seed in range(10)
    ]
    return runs, elapsed, records


def _bare_frame(index, cores):
    clusters = [
        Cluster(label=i, core_point=np.asarray(c, dtype=float), mean_doppler_mps=0.0,
                point_count=5, member_indices=[])
        for i, c in enumerate(cores)
    ]
    return ClusterFrame(index, clusters)


def test_1_matcher_agrees_with_exhaustive_enumeration(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(1000):
        m, n = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        prev = rng.uniform(-5.0, 5.0, (m, 2))
        curr = rng.uniform(-5.0, 5.0, (n, 2))
        got = match_clusters(_bare_frame(0, prev), _bare_frame(1, curr))
        want_pairs, want_cost = matching_reference(prev, curr)
        ok &= got.pairs == [tuple(p) for p in want_pairs]
        ok &= got.total_cost_m == want_cost  # bit-equal, not approximately
        checked += 1
    elapsed = time.perf_counter() - start
    ok &= checked == 1000 and elapsed < 5.0
    assert _verdict(capsys, 1, "matcher optimality", ok,
                    f"1000/1000 instances exact in {elapsed:.2f}s")


def test_2_clustering_agrees_with_quadratic_reference(capsys):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 301))
        parts = [rng.uniform(-3.0, 3.0, (n, 3))]
        for _ in range(int(rng.integers(0, 4))):
            center = rng.uniform(-3.0, 3.0, 3)
            parts.append(center + rng.normal(0.0, 0.15, (max(1, n // 6), 3)))
        xyz = np.vstack(parts)[:n]
        pts = np.column_stack([xyz, rng.normal(0.0, 1.0, len(xyz))])
        eps = float(rng.uniform(0.2, 0.6))
        min_pts = int(rng.integers(2, 12))
        clusters, noise = dbscan(pts, DbscanParams(eps_m=eps, min_pts=min_pts))
        ref_labels, ref_count = dbscan_reference(pts, eps, min_pts)
        got = {frozenset(c.member_indices) for c in clusters}
        want = {frozenset(np.flatnonzero(ref_labels == k).tolist()) for k in range(ref_count)}
        ok &= got == want
        ok &= set(noise) == set(np.flatnonzero(ref_labels == -1).tolist())
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _verdict(capsys, 2, "clustering equivalence", ok,
                    f"200 frames, exact partitions, {elapsed:.2f}s")


def test_3_end_to_end_tracking_accuracy(tracking_runs, capsys):
    runs, elapsed, _ = tracking_runs
    mean_rms = {
        cid: float(np.mean([r.rms_by_client[cid] for r in runs])) for cid in (0, 1)
    }
    ok = all(v <= 0.25 for v in mean_rms.values()) and elapsed < 30.0
    assert _verdict(capsys, 3, "end-to-end rms", ok,
                    f"mean rms {mean_rms[0]:.3f}/{mean_rms[1]:.3f} m over 10 seeds, "
                    f"{elapsed:.1f}s")


def test_4_beam_pointing_beats_scanning(tracking_runs, capsys):
    runs, _, records = tracking_runs
    half_pitch = SectorTable().az_pitch_deg / 2.0
    agree = total = 0
    for run_records in records:
        for rec in run_records:
            truth = {t["id"]: t for t in rec["truth"]}
            ests = {c["id"]: c for c in rec["clients"]}
            # both peers mutually inside the steerable field of view
            if any(truth[c]["sector"] is None for c in (0, 1)):
                continue
            if any(ests[c]["sector"] is None for c in (0, 1)):
                continue
            errors = [
                abs(wrap_deg(ests[c]["bearing_deg"] - truth[c]["bearing_deg"]))
                for c in (0, 1)
            ]
            if max(errors) >= half_pitch:
                continue  # the guarantee is conditioned on sub-half-pitch tracking
            total += 1
            agree += all(ests[c]["sector"] == truth[c]["sector"] for c in (0, 1))
    fraction = agree / total if total else 0.0
    gain_alg = float(np.mean([r.mean_gain_algorithm for r in runs]))
    gain_scan = float(np.mean([r.mean_gain_beamscan for r in runs]))
    spends = [e.frames_spent for r in runs for e in r.scan_events]
    ok = (
        total > 0
        and fraction >= 0.95
        and gain_alg > gain_scan
        and all(s > 1 for s in spends)
    )
    assert _verdict(capsys, 4, "beam pointing", ok,
                    f"sector agreement {100 * fraction:.1f}% of {total} frames, "
                    f"gain {gain_alg:.2f} vs scan {gain_scan:.2f}, "
                    f"scan spends {min(spends)}-{max(spends)} frames/decision")


def test_5_velocity_integration_matches_closed_form(capsys):
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        n_breaks = int(rng.integers(2, 7))
        break_t = np.sort(rng.uniform(0.0, 3.0, n_breaks))
        break_t[0] = 0.0
        break_a = rng.normal(0.0, 4.0, (n_breaks, 3))
        v0 = rng.normal(0.0, 1.0, 3)
        grid = np.unique(
            np.concatenate([break_t, rng.uniform(0.0, break_t[-1], 24)])
        )
        a_grid = np.column_stack(
            [np.interp(grid, break_t, break_a[:, k]) for k in range(3)]
        )
        v = v0.copy()
        for i in range(1, len(grid)):
            v = integrate_velocity(v, a_grid[i - 1], a_grid[i], float(grid[i] - grid[i - 1]))
        want = closed_form_velocity(break_t, break_a, v0, float(break_t[-1]))
        worst = max(worst, float(np.max(np.abs(v - want))))
    ok = worst <= 1e-6
    assert _verdict(capsys, 5, "velocity integration", ok,
                    f"worst |error| {worst:.2e} m/s over 1000 profiles")


def test_6_orientation_filter_convergence_and_yaw(capsys):
    # 20 degree tilt at rest must fall below 1 degree within 2 s at 100 Hz
    tilt = math.radians(20.0)
    q0 = np.array([math.cos(tilt / 2.0), math.sin(tilt / 2.0), 0.0, 0.0])
    state = ClientMotion(client_id=0, orientation=q0)
    for i in range(200):
        s = ImuSample(client_id=0, seq=i, timestamp_s=(i + 1) * 0.01,
                      accel_mps2=np.array([0.0, 0.0, GRAVITY_MPS2]),
                      gyro_radps=np.zeros(3))
        state = madgwick_update(state, s, dt=0.01, beta=0.1)
    body_down = rotate_by_quat(quat_conjugate(state.orientation), np.array([0.0, 0.0, -1.0]))
    tilt_err = math.degrees(math.acos(float(np.clip(-body_down[2], -1.0, 1.0))))

    # a constant pi/2 rad/s turn for 1 s must integrate to 90 degrees of yaw
    state = ClientMotion(client_id=0)
    rate = math.pi / 2.0
    for i in range(100):
        s = ImuSample(client_id=0, seq=i, timestamp_s=(i + 1) * 0.01,
                      accel_mps2=np.array([0.0, 0.0, GRAVITY_MPS2]),
                      gyro_radps=np.array([0.0, 0.0, rate]))
        state = madgwick_update(state, s, dt=0.01, beta=0.1)
    yaw_err = abs(math.degrees(yaw_from_quat(state.orientation)) - 90.0)

    ok = tilt_err < 1.0 and yaw_err < 0.1
    assert _verdict(capsys, 6, "orientation filter", ok,
                    f"tilt error {tilt_err:.3f} deg after 2 s, yaw error {yaw_err:.4f} deg")


def test_7_filter_beats_raw_and_stays_psd(capsys):
    wins = 0
    cov_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cfg = KalmanConfig(sigma_accel_mps2=1.0, sigma_meas_m=0.1)
        x0 = rng.uniform(-5.0, 5.0, 2)
        v = rng.uniform(-1.0, 1.0, 2)
        st = kf_init(x0 + rng.normal(0.0, 0.1, 2), v, cfg)
        raw_sq, filt_sq = [], []
        for k in range(1, 41):
            truth = x0 + v * 0.5 * k
            z = truth + rng.normal(0.0, 0.1, 2)
            st = kf_step(kf_predict(st, 0.5, cfg), z, cfg)
            cov_ok &= bool(np.allclose(st.P, st.P.T, atol=1e-12))
            cov_ok &= bool(np.all(np.linalg.eigvalsh(st.P) > -1e-12))
            raw_sq.append(float(np.sum((z - truth) ** 2)))
            filt_sq.append(float(np.sum((st.x[:2] - truth) ** 2)))
        wins += np.sqrt(np.mean(filt_sq)) < np.sqrt(np.mean(raw_sq))
    ok = wins >= 95 and cov_ok
    assert _verdict(capsys, 7, "kalman filtering", ok,
                    f"filtered beat raw on {wins}/100 tracks, covariance symmetric psd")


def test_8_telemetry_loopback_latest_value_and_rejection(capsys):
    period = 1.0 / 100.0

    def sample_fn(client_id, t, dt, seq):
        # every field is derived from seq so a torn read is detectable
        return ImuSample(
            client_id=client_id,
            seq=seq,
            timestamp_s=t,
            accel_mps2=np.array([float(seq), float(2 * seq), GRAVITY_MPS2]),
            gyro_radps=np.zeros(3),
        )

    store = LatestStore()
    results = {}
    torn = 0
    snapshots = 0
    with TelemetryServer(store, ports=(0, 0)) as server:
        threads = []
        for cid in (0, 1):
            address = ("127.0.0.1", server.ports[cid])
            thread = threading.Thread(
                target=lambda c=cid, a=address: results.__setitem__(
                    c, run_sim_client(sample_fn, c, a, rate_hz=100.0, duration_s=5.0)
                ),
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        while snapshots < 10_000:
            snap = store.snapshot()
            for cid, s in snap.items():
                consistent = (
                    s.client_id == cid
                    and s.accel_mps2[0] == float(s.seq)
                    and s.accel_mps2[1] == float(2 * s.seq)
                    and s.timestamp_s == (s.seq + 1) * period
                )
                torn += int(not consistent)
            snapshots += 1
            if snapshots % 100 == 0:
                time.sleep(0.01)  # stretch the sampling across the live stream
        for thread in threads:
            thread.join()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and server.datagrams_received < 1000:
            time.sleep(0.01)
        runt = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        runt.sendto(b"\x00" * 39, ("127.0.0.1", server.ports[0]))
        runt.close()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and server.datagrams_rejected < 1:
            time.sleep(0.01)
        final = store.snapshot()
        received = server.datagrams_received
        rejected = server.datagrams_rejected

    sent = {cid: results[cid].sent for cid in (0, 1)}
    ok = (
        sent == {0: 500, 1: 500}
        and final[0].seq == 499
        and final[1].seq == 499
        and torn == 0
        and snapshots >= 10_000
        and received == 1000
        and rejected == 1
    )
    assert _verdict(capsys, 8, "udp telemetry", ok,
                    f"final seq {final[0].seq}/{final[1].seq} of 499, "
                    f"{torn} torn reads in {snapshots} snapshots, "
                    f"{rejected} runt datagram rejected")


def test_9_fixed_seed_runs_are_byte_identical(tmp_path, capsys):
    logs = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for log in logs:
        run_scenario(default_config(), mode="algorithm", log_path=log)
    first = logs[0].read_bytes()
    second = logs[1].read_bytes()
    ok = len(first) > 0 and first == second
    assert _verdict(capsys, 9, "determinism", ok,
                    f"two runs, {len(first)} identical log bytes")
