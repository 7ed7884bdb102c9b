"""Wire codecs, the latest-value store, and the UDP server/client pair."""

import errno
import math
import socket
import struct
import threading
import time
import warnings

import numpy as np
import pytest

from beamtrack.errors import DatagramError
from beamtrack.imu import ImuSample, window_readings
from beamtrack.telemetry import (
    FEEDBACK_SIZE,
    IMU_DATAGRAM_SIZE,
    NO_SECTOR,
    LatestStore,
    TelemetryServer,
    decode_feedback,
    decode_imu_datagram,
    encode_feedback,
    encode_imu_datagram,
    quantize_imu,
    run_sim_client,
)
from beamtrack.world import build_scenario, default_config


def _sample(client=1, seq=0, t=0.01, accel=(0.1, -0.2, 9.8), gyro=(0.01, 0.02, -0.03)):
    return ImuSample(
        client_id=client,
        seq=seq,
        timestamp_s=t,
        accel_mps2=np.asarray(accel, dtype=float),
        gyro_radps=np.asarray(gyro, dtype=float),
    )


def test_imu_datagram_layout():
    s = _sample(client=7, seq=42, t=1.5, accel=(1.0, 2.0, 3.0), gyro=(4.0, 5.0, 6.0))
    data = encode_imu_datagram(s)
    assert len(data) == IMU_DATAGRAM_SIZE == 40
    cid, seq, t, ax, ay, az, gx, gy, gz = struct.unpack("<IId6f", data)
    assert (cid, seq, t) == (7, 42, 1.5)
    assert (ax, ay, az, gx, gy, gz) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def test_imu_round_trip_on_wire_domain():
    rng = np.random.default_rng(19)
    for i in range(100):
        s = _sample(
            client=int(rng.integers(0, 4)),
            seq=i,
            t=float(rng.uniform(0.0, 100.0)),
            accel=np.float32(rng.normal(0.0, 10.0, 3)).astype(float),
            gyro=np.float32(rng.normal(0.0, 3.0, 3)).astype(float),
        )
        out = decode_imu_datagram(encode_imu_datagram(s))
        assert out.client_id == s.client_id and out.seq == s.seq
        assert out.timestamp_s == s.timestamp_s
        assert np.array_equal(out.accel_mps2, s.accel_mps2)
        assert np.array_equal(out.gyro_radps, s.gyro_radps)


@pytest.mark.parametrize("offset", [16, 28], ids=["accel", "gyro"])
def test_a_signalling_nan_is_rejected_without_a_warning(offset):
    # float32 bits 0x7f800001: widening a signalling NaN raises numpy's
    # "invalid value" flag, which must not escape as a RuntimeWarning
    data = bytearray(encode_imu_datagram(_sample()))
    struct.pack_into("<I", data, offset, 0x7F800001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatagramError, match="non-finite"):
            decode_imu_datagram(bytes(data))


def test_quantize_is_idempotent():
    s = _sample(accel=(0.1, 0.2, 0.3), gyro=(1e-9, -1e-9, 0.7))
    q1 = quantize_imu(s)
    q2 = quantize_imu(q1)
    assert np.array_equal(q1.accel_mps2, q2.accel_mps2)
    assert np.array_equal(q1.gyro_radps, q2.gyro_radps)


def _assert_codec_packs_field_by_field(s):
    """The codec writes what struct.pack of each field in turn writes, and raises
    DatagramError where struct.pack raises. Decoding raises DatagramError if a wire
    value is not finite, and otherwise gives Python ints, a Python float and tuples
    of three Python floats, bit for bit."""
    sensors = [float(v) for v in s.accel_mps2] + [float(v) for v in s.gyro_radps]
    try:
        want = struct.pack("<IId6f", s.client_id, s.seq, s.timestamp_s, *sensors)
    except (OverflowError, struct.error):
        with pytest.raises(DatagramError):
            encode_imu_datagram(s)
        return
    data = encode_imu_datagram(s)
    assert data == want
    cid, seq, t, *wire = struct.unpack("<IId6f", want)
    if not all(map(math.isfinite, (t, *wire))):
        with pytest.raises(DatagramError, match="non-finite"):
            decode_imu_datagram(data)
        return
    out = decode_imu_datagram(data)
    assert (type(out.client_id), out.client_id) == (int, cid)
    assert (type(out.seq), out.seq) == (int, seq)
    assert type(out.timestamp_s) is float
    assert struct.pack("<d", out.timestamp_s) == struct.pack("<d", t)
    for got, values in ((out.accel_mps2, wire[:3]), (out.gyro_radps, wire[3:])):
        assert type(got) is tuple and [type(v) for v in got] == [float] * 3
        assert struct.pack("<3d", *got) == struct.pack("<3d", *values)


F32_MAX = float(np.finfo(np.float32).max)


def test_imu_codec_packs_field_by_field():
    rng = np.random.default_rng(23)
    for i in range(500):
        scale = 10.0 ** rng.uniform(-40.0, 38.0)
        _assert_codec_packs_field_by_field(
            _sample(
                client=int(rng.integers(0, 2**32)),
                seq=int(rng.integers(0, 2**32)),
                t=float(rng.uniform(0.0, 1e4)),
                accel=rng.normal(0.0, scale, 3),
                gyro=rng.normal(0.0, 1.0, 3),
            )
        )
    # the largest double that still rounds to the f32 maximum, and the midpoint that does not
    below_overflow = float(np.nextafter(F32_MAX + 2.0**103, 0.0))
    special = [
        math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -1e-310, 1.4e-45, 1e-40, 1e-46,
        F32_MAX, -F32_MAX, below_overflow, -below_overflow,
    ]
    for i, v in enumerate(special):
        _assert_codec_packs_field_by_field(_sample(seq=i, accel=(v, 1.0, -v), gyro=(0.5, v, v)))
    for t in (math.nan, math.inf, -0.0, 1, np.float64(2.5)):
        _assert_codec_packs_field_by_field(_sample(t=t))
    # float32 sensor arrays widen exactly, as float() of each element does
    _assert_codec_packs_field_by_field(
        ImuSample(2, 3, 0.5, np.float32([0.1, -2.5, 9.81]), np.float32([1e-8, 0.0, -3.0]))
    )


def test_imu_codec_raises_beyond_the_wire_range():
    for v in (F32_MAX + 2.0**103, -(F32_MAX + 2.0**103), 1e39, 1e300):
        for accel, gyro in (((v, 0.0, 0.0), (0.0, 0.0, 0.0)), ((0.0, 0.0, 0.0), (0.0, 0.0, v))):
            _assert_codec_packs_field_by_field(_sample(accel=accel, gyro=gyro))
            with pytest.raises(DatagramError):
                quantize_imu(_sample(accel=accel, gyro=gyro))
    for client, seq in ((-1, 0), (2**32, 0), (0, -1), (0, 2**32)):
        _assert_codec_packs_field_by_field(_sample(client=client, seq=seq))
        with pytest.raises(DatagramError):
            quantize_imu(_sample(client=client, seq=seq))


def _reading_bytes(s):
    """Every bit of a single reading, -0.0 apart from 0.0 and the vectors at full width."""
    return struct.pack("<qqd6d", s.client_id, s.seq, s.timestamp_s, *s.accel_mps2, *s.gyro_radps)


def test_imu_window_round_trips_as_its_readings():
    sc = build_scenario(default_config(seed=4))
    seqs = np.arange(1, 1801)
    for cid in (0, 1):
        for start in range(0, len(seqs), 37):  # some windows straddle a noise block
            seq = seqs[start:start + 37]
            window = sc.sample_imu(cid, seq / 100.0, dt=0.01, seq=seq)
            readings = window_readings(window)
            assert encode_imu_datagram(window) == b"".join(map(encode_imu_datagram, readings))
            got = window_readings(quantize_imu(window))
            want = [quantize_imu(r) for r in readings]
            assert list(map(_reading_bytes, got)) == list(map(_reading_bytes, want))
            assert all(type(v) is float for r in got for v in (*r.accel_mps2, *r.gyro_radps))


def test_imu_window_codec_edge_values():
    # the special values of the single-datagram test, a float32-typed window,
    # an empty window
    below_overflow = float(np.nextafter(F32_MAX + 2.0**103, 0.0))
    values = [-0.0, 0.0, 5e-324, -1e-310, 1.4e-45, 1e-40, 1e-46, F32_MAX, -below_overflow]
    n = len(values)
    accel = np.column_stack([values, values[::-1], np.full(n, 9.81)])
    gyro = np.column_stack([np.full(n, -0.0), values, np.ones(n)])
    for window in (
        ImuSample(3, np.arange(n) + 2**32 - n, np.linspace(0.0, 1.0, n), accel, gyro),
        ImuSample(3, np.arange(n), np.arange(n) / 7.0, np.float32(accel), np.float32(gyro)),
        ImuSample(3, np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, 3)), np.empty((0, 3))),
    ):
        readings = window_readings(window)
        assert encode_imu_datagram(window) == b"".join(map(encode_imu_datagram, readings))
        got = window_readings(quantize_imu(window))
        want = [quantize_imu(r) for r in readings]
        assert list(map(_reading_bytes, got)) == list(map(_reading_bytes, want))


def test_imu_window_raises_what_one_of_its_readings_raises():
    seq = np.arange(5)
    ok = np.tile([0.1, -0.2, 9.8], (5, 1))
    for bad in (F32_MAX + 2.0**103, -1e39, 1e300):
        accel = ok.copy()
        accel[3, 1] = bad
        window = ImuSample(0, seq, seq / 100.0, accel, ok)
        for codec in (encode_imu_datagram, quantize_imu):
            with pytest.raises(DatagramError, match="beyond float32 range"):
                codec(window)
            with pytest.raises(DatagramError, match="beyond float32 range"):
                codec(window_readings(window)[3])
    for bad in (math.nan, math.inf):
        accel = ok.copy()
        accel[2, 0] = bad
        with pytest.raises(DatagramError, match="non-finite"):
            quantize_imu(ImuSample(0, seq, seq / 100.0, accel, ok))
        with pytest.raises(DatagramError, match="non-finite"):
            quantize_imu(ImuSample(0, seq, np.where(seq == 1, bad, seq / 100.0), ok, ok))
    for client, seqs in ((-1, seq), (2**32, seq), (0, seq - 1), (0, seq + 2**32 - 4),
                         (0, seq.astype(float))):
        for codec in (encode_imu_datagram, quantize_imu):
            with pytest.raises(DatagramError, match="outside u32"):
                codec(ImuSample(client, seqs, seq / 100.0, ok, ok))


def test_non_finite_payload_rejected():
    for bad in (_sample(t=math.nan), _sample(accel=(0.1, math.inf, 9.8)),
                _sample(gyro=(0.0, 0.0, -math.inf))):
        with pytest.raises(DatagramError, match="non-finite"):
            decode_imu_datagram(encode_imu_datagram(bad))


def test_server_rejects_non_finite_datagram_and_keeps_the_store():
    store = LatestStore()
    with TelemetryServer(store, ports=(0,)) as server:
        port = server.ports[0]
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.sendto(encode_imu_datagram(_sample(client=2, seq=1)), ("127.0.0.1", port))
            deadline = time.monotonic() + 2.0
            while server.datagrams_received < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            before = store.snapshot().get(2)
            poisoned = _sample(client=2, seq=2, t=math.nan, accel=(math.inf, 0.0, 9.8))
            sock.sendto(encode_imu_datagram(poisoned), ("127.0.0.1", port))
            while server.datagrams_rejected < 1 and time.monotonic() < deadline + 2.0:
                time.sleep(0.01)
        finally:
            sock.close()
        assert (server.datagrams_received, server.datagrams_rejected) == (1, 1)
        assert before is not None and before.seq == 1
        assert store.snapshot() == {2: before}
        assert store.snapshot()[2] is before


def test_wrong_length_rejected():
    data = encode_imu_datagram(_sample())
    with pytest.raises(DatagramError):
        decode_imu_datagram(data[:39])
    with pytest.raises(DatagramError):
        decode_imu_datagram(data + b"\x00")


def test_feedback_codec():
    data = encode_feedback(3, 17, -42.5, 40)
    assert len(data) == FEEDBACK_SIZE == 16
    assert decode_feedback(data) == (3, 17, -42.5, 40)
    none_data = encode_feedback(3, 17, 10.0, None)
    assert struct.unpack("<IIfI", none_data)[3] == NO_SECTOR
    assert decode_feedback(none_data)[3] is None
    with pytest.raises(DatagramError):
        decode_feedback(data[:15])


def test_store_keeps_latest_by_seq():
    store = LatestStore()
    assert store.snapshot() == {}
    assert store.put(_sample(client=0, seq=5))
    assert not store.put(_sample(client=0, seq=5))  # duplicate dropped
    assert not store.put(_sample(client=0, seq=3))  # stale dropped
    assert store.put(_sample(client=0, seq=6))
    snap = store.snapshot()
    assert set(snap) == {0} and snap[0].seq == 6


def test_store_isolates_clients():
    store = LatestStore()
    store.put(_sample(client=0, seq=9))
    store.put(_sample(client=1, seq=2))
    snap = store.snapshot()
    assert (snap[0].seq, snap[1].seq) == (9, 2)


def test_server_receives_and_counts():
    store = LatestStore()
    with TelemetryServer(store, ports=(0,)) as server:
        port = server.ports[0]
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for seq in range(5):
                sock.sendto(encode_imu_datagram(_sample(client=2, seq=seq)), ("127.0.0.1", port))
            sock.sendto(b"\x00" * 39, ("127.0.0.1", port))  # runt datagram
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if server.datagrams_received >= 5 and server.datagrams_rejected >= 1:
                    break
                time.sleep(0.01)
        finally:
            sock.close()
        assert server.datagrams_received == 5
        assert server.datagrams_rejected == 1
        assert store.snapshot()[2].seq == 4


def test_server_feedback_reaches_last_sender():
    store = LatestStore()
    with TelemetryServer(store, ports=(0,)) as server:
        port = server.ports[0]
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(2.0)
        try:
            sock.sendto(encode_imu_datagram(_sample(client=3, seq=0)), ("127.0.0.1", port))
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and server.datagrams_received < 1:
                time.sleep(0.01)
            assert not server.send_feedback(99, 0, 0.0, None)  # unknown client
            assert server.send_feedback(3, 7, 12.5, 40)
            data, _ = sock.recvfrom(2048)
            assert decode_feedback(data) == (3, 7, 12.5, 40)
        finally:
            sock.close()


def test_sim_client_streams_at_rate():
    store = LatestStore()
    with TelemetryServer(store, ports=(0,)) as server:
        address = ("127.0.0.1", server.ports[0])

        def sample_fn(client_id, t, dt, seq):
            return _sample(client=client_id, seq=seq, t=t)

        stats = run_sim_client(sample_fn, 0, address, rate_hz=100.0, duration_s=0.3)
        assert stats.sent == 30
        assert stats.send_errors == 0
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and server.datagrams_received < 30:
            time.sleep(0.01)
        final = store.snapshot().get(0)
        assert final is not None and final.seq == 29


def test_sim_client_collects_feedback():
    store = LatestStore()
    with TelemetryServer(store, ports=(0,)) as server:
        address = ("127.0.0.1", server.ports[0])

        def feedback_burst():
            # wait for the first datagram so the server knows the return
            # address, then send a handful of feedback frames and go quiet
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and 1 not in store.snapshot():
                time.sleep(0.005)
            for frame in range(5):
                server.send_feedback(1, frame, 1.0, 8)
                time.sleep(0.02)

        thread = threading.Thread(target=feedback_burst, daemon=True)
        thread.start()
        try:
            stats = run_sim_client(
                lambda c, t, dt, seq: _sample(client=c, seq=seq, t=t),
                1,
                address,
                rate_hz=50.0,
                duration_s=0.5,
                collect_feedback=True,
            )
        finally:
            thread.join(timeout=2.0)
        assert stats.feedback  # some feedback datagrams arrived and decoded
        assert all(fb[0] == 1 and fb[3] == 8 for fb in stats.feedback)


def test_snapshot_is_atomic_under_concurrent_writes():
    # writers hammer both slots with internally consistent samples; every
    # snapshot must observe that internal consistency (no torn reads)
    store = LatestStore()
    stop = threading.Event()

    def writer(client_id):
        seq = 0
        while not stop.is_set():
            seq += 1
            store.put(
                _sample(client=client_id, seq=seq, t=seq * 0.01,
                        accel=(float(seq), float(seq), 0.0), gyro=(float(seq), 0.0, 0.0))
            )

    threads = [threading.Thread(target=writer, args=(c,), daemon=True) for c in (0, 1)]
    for th in threads:
        th.start()
    torn = 0
    try:
        for _ in range(2000):
            snap = store.snapshot()
            for cid, s in snap.items():
                ok = (
                    s.client_id == cid
                    and s.timestamp_s == pytest.approx(s.seq * 0.01)
                    and s.accel_mps2[0] == s.seq
                    and s.gyro_radps[0] == s.seq
                )
                torn += int(not ok)
    finally:
        stop.set()
        for th in threads:
            th.join(timeout=1.0)
    assert torn == 0


def test_server_rebinds_and_stop_is_idempotent():
    store = LatestStore()
    server = TelemetryServer(store, ports=(0, 0))
    assert len(server.ports) == 2 and all(p > 0 for p in server.ports)
    server.start()
    server.stop()
    server.stop()
    server.close()
    server.close()


def test_a_failed_bind_releases_the_ports_bound_before_it():
    busy = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    busy.bind(("127.0.0.1", 0))
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    free = probe.getsockname()[1]
    probe.close()
    try:
        with pytest.raises(OSError) as raised:
            TelemetryServer(LatestStore(), ports=(free, busy.getsockname()[1]))
        # the held traceback keeps the half-built server alive: its first port
        # must already be closed, not waiting for the collector
        again = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        again.bind(("127.0.0.1", free))
        again.close()
    finally:
        busy.close()
    assert raised.value.errno == errno.EADDRINUSE
