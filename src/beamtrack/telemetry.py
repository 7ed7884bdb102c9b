"""UDP telemetry: IMU uplink datagrams, feedback downlink, latest-value store.

Wire formats (little-endian, fixed size):

* IMU uplink, 40 bytes: ``u32 client_id, u32 seq, f64 timestamp_s,
  f32 ax, ay, az, gx, gy, gz`` (accelerometer in m/s^2, gyro in rad/s).
* Feedback downlink, 16 bytes: ``u32 client_id, u32 frame_index,
  f32 bearing_deg, u32 sector`` with ``0xFFFFFFFF`` meaning "no sector".

Datagrams of any other length are rejected and counted, never parsed; so are
IMU datagrams holding a non-finite timestamp or sensor value. Encoding raises
DatagramError for a sample the layout cannot hold. The IMU layout is the one
structured dtype IMU_DATAGRAM, for a single datagram and for a window of
readings (see Scenario.sample_imu) alike.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DatagramError
from .imu import ImuSample

# the uplink layout, for one datagram and for a window of them alike
IMU_DATAGRAM = np.dtype(
    [
        ("client_id", "<u4"),
        ("seq", "<u4"),
        ("timestamp_s", "<f8"),
        ("accel_mps2", "<f4", (3,)),
        ("gyro_radps", "<f4", (3,)),
    ]
)
IMU_DATAGRAM_SIZE = IMU_DATAGRAM.itemsize  # 40
FEEDBACK_FORMAT = "<IIfI"
FEEDBACK_SIZE = struct.calcsize(FEEDBACK_FORMAT)  # 16
NO_SECTOR = 0xFFFFFFFF

_SEND_RETRIES = 3
_SEND_BACKOFF_S = 0.001


def _imu_records(sample: ImuSample) -> np.ndarray:
    """The sample's datagrams as IMU_DATAGRAM records: one, or one per reading of a window.

    Raises DatagramError if client_id or a seq is not an integer in
    [0, 2**32), or if a finite sensor value rounds to an infinite float32.
    """
    seq = np.asarray(sample.seq)
    rec = np.empty(seq.size, IMU_DATAGRAM)
    for name, ids in (("client_id", np.asarray(sample.client_id)), ("seq", seq)):
        if ids.dtype.kind not in "iu" or (
            ids.size and (ids.min() < 0 or ids.max() > 0xFFFFFFFF)
        ):
            raise DatagramError(f"IMU datagram {name} outside u32 from client {sample.client_id}")
        rec[name] = ids
    rec["timestamp_s"] = sample.timestamp_s
    for name in ("accel_mps2", "gyro_radps"):
        values = np.asarray(getattr(sample, name), dtype=float)
        with np.errstate(over="ignore"):
            rec[name] = values
        if np.any(np.isinf(rec[name]) & np.isfinite(values)):
            raise DatagramError(
                f"IMU datagram {name} beyond float32 range from client {sample.client_id}"
            )
    return rec


def _sensors(rec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3) accel and gyro of IMU_DATAGRAM records; DatagramError if a value is non-finite."""
    with np.errstate(invalid="ignore"):  # a signalling NaN warns as it widens
        accel = rec["accel_mps2"].astype(float)
        gyro = rec["gyro_radps"].astype(float)
    if not (np.isfinite(rec["timestamp_s"]).all() and np.isfinite(accel).all()
            and np.isfinite(gyro).all()):
        raise DatagramError(f"non-finite IMU datagram payload from client {rec['client_id'][0]}")
    return accel, gyro


def encode_imu_datagram(sample: ImuSample) -> bytes:
    """Pack a sample, or a window of readings as their datagrams back to back.

    A sample's vectors may be float tuples or (3,) arrays. Raises
    DatagramError for an id or seq outside u32 or a finite sensor value
    beyond float32 range.
    """
    return _imu_records(sample).tobytes()


def decode_imu_datagram(data: bytes) -> ImuSample:
    """The sample in an uplink datagram, its vectors as tuples of Python floats.

    Raises DatagramError for a wrong length or a non-finite timestamp, accel
    or gyro value.
    """
    if len(data) != IMU_DATAGRAM_SIZE:
        raise DatagramError(
            f"bad IMU datagram length {len(data)}, expected {IMU_DATAGRAM_SIZE}"
        )
    rec = np.frombuffer(data, IMU_DATAGRAM)
    accel, gyro = _sensors(rec)
    ((cid, seq, t, _, _),), (a,), (g,) = rec.tolist(), accel.tolist(), gyro.tolist()
    return ImuSample(cid, seq, t, tuple(a), tuple(g))


def quantize_imu(sample: ImuSample) -> ImuSample:
    """Round-trip a sample, or a window, through the wire encoding (f32 sensor fields).

    A window (seq a 1-D array, as Scenario.sample_imu gives it) comes back as
    a window of arrays, each reading as it would come back on its own.
    """
    if np.ndim(sample.seq) != 1:
        return decode_imu_datagram(encode_imu_datagram(sample))
    rec = _imu_records(sample)
    accel, gyro = _sensors(rec)
    seq, ts = rec["seq"].astype(np.int64), rec["timestamp_s"].copy()
    return ImuSample(int(sample.client_id), seq, ts, accel, gyro)


def encode_feedback(
    client_id: int, frame_index: int, bearing_deg: float, sector: int | None
) -> bytes:
    return struct.pack(
        FEEDBACK_FORMAT,
        client_id,
        frame_index,
        bearing_deg,
        NO_SECTOR if sector is None else sector,
    )


def decode_feedback(data: bytes) -> tuple[int, int, float, int | None]:
    if len(data) != FEEDBACK_SIZE:
        raise DatagramError(f"bad feedback length {len(data)}, expected {FEEDBACK_SIZE}")
    client_id, frame_index, bearing, sector = struct.unpack(FEEDBACK_FORMAT, data)
    return client_id, frame_index, bearing, None if sector == NO_SECTOR else sector


class LatestStore:
    """Thread-safe latest-sample-per-client store.

    Writers race with the pipeline's snapshot reads, so one lock guards every
    access and samples are replaced whole; a snapshot can never observe a
    half-written sample, and a put that returns True stays stored until a
    newer sample replaces it. Stale or duplicate sequence numbers are dropped.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest: dict[int, ImuSample] = {}

    def put(self, sample: ImuSample) -> bool:
        """Store the sample unless a newer (>= seq) one is already held."""
        with self._lock:
            current = self._latest.get(sample.client_id)
            if current is not None and current.seq >= sample.seq:
                return False
            self._latest[sample.client_id] = sample
            return True

    def snapshot(self) -> dict[int, ImuSample]:
        """Latest sample per client; samples are immutable once stored."""
        with self._lock:
            return dict(self._latest)


class TelemetryServer:
    """Receives IMU datagrams on one UDP socket per port, thread per socket.

    Each decoded sample goes to ``store.put``: a LatestStore, or a queue such
    as the live run drains. Datagrams that do not decode (a bad length or a
    non-finite value) are counted and dropped. The source address of each
    client's most recent datagram is remembered so feedback can be sent back
    without any registration step. Port 0 binds an ephemeral port; read the
    actual ports from :attr:`ports` after construction.
    """

    def __init__(
        self,
        store,
        ports: tuple[int, ...] = (0,),
        host: str = "127.0.0.1",
    ) -> None:
        import socket

        self.store = store
        self._socks: list[socket.socket] = []
        for port in ports:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._socks.append(sock)
            try:
                sock.bind((host, port))
            except OSError:  # release the ports bound so far
                for bound in self._socks:
                    bound.close()
                raise
            sock.settimeout(0.1)
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()  # guards the counters and _last_addr
        self.datagrams_received = 0
        self.datagrams_rejected = 0
        self._last_addr: dict[int, tuple[tuple[str, int], int]] = {}

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(sock.getsockname()[1] for sock in self._socks)

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("server already started")
        self._stop.clear()
        for i, sock in enumerate(self._socks):
            t = threading.Thread(target=self._serve, args=(sock, i), daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=2.0)
        self._threads.clear()

    def close(self) -> None:
        self.stop()
        for sock in self._socks:
            sock.close()
        self._socks.clear()

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _serve(self, sock: socket.socket, sock_index: int) -> None:
        while not self._stop.is_set():
            try:
                data, addr = sock.recvfrom(2048)
            except TimeoutError:  # socket.timeout
                continue
            except OSError:
                break
            try:
                sample = decode_imu_datagram(data)
            except DatagramError as exc:
                with self._lock:
                    self.datagrams_rejected += 1
                import logging

                logging.getLogger(__name__).debug("rejected datagram from %s: %s", addr, exc)
                continue
            with self._lock:
                self.datagrams_received += 1
                self._last_addr[sample.client_id] = (addr, sock_index)
            self.store.put(sample)

    def send_feedback(
        self, client_id: int, frame_index: int, bearing_deg: float, sector: int | None
    ) -> bool:
        """Send a feedback datagram to the client's last-seen address."""
        with self._lock:
            entry = self._last_addr.get(client_id)
        if entry is None:
            return False
        addr, sock_index = entry
        payload = encode_feedback(client_id, frame_index, bearing_deg, sector)
        try:
            self._socks[sock_index].sendto(payload, addr)
        except OSError as exc:
            import logging

            logging.getLogger(__name__).warning("feedback send to %s failed: %s", addr, exc)
            return False
        return True


@dataclass
class ClientRunStats:
    client_id: int
    sent: int = 0
    send_errors: int = 0
    feedback: list = field(default_factory=list)  # decoded feedback tuples


def run_sim_client(
    sample_fn,
    client_id: int,
    address: tuple[str, int],
    rate_hz: float = 100.0,
    duration_s: float = 5.0,
    collect_feedback: bool = False,
) -> ClientRunStats:
    """Stream IMU datagrams to a server at a fixed rate (wall-clock paced).

    ``sample_fn(client_id, t, dt, seq=seq)`` supplies each reading; sequence
    numbers count up from 0. Transient send failures are retried a few times
    with a short backoff, then counted and skipped.
    """
    if rate_hz <= 0 or duration_s < 0:
        raise ValueError("rate_hz must be > 0 and duration_s >= 0")
    period = 1.0 / rate_hz
    n = int(round(duration_s * rate_hz))
    import socket

    stats = ClientRunStats(client_id=client_id)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setblocking(False)
    try:
        start = time.monotonic()
        for seq in range(n):
            t = (seq + 1) * period
            sample = sample_fn(client_id, t, period, seq=seq)
            payload = encode_imu_datagram(sample)
            for attempt in range(_SEND_RETRIES):
                try:
                    sock.sendto(payload, address)
                    stats.sent += 1
                    break
                except (BlockingIOError, InterruptedError, OSError):
                    if attempt == _SEND_RETRIES - 1:
                        stats.send_errors += 1
                    else:
                        time.sleep(_SEND_BACKOFF_S)
            if collect_feedback:
                _drain_feedback(sock, stats)
            deadline = start + (seq + 1) * period
            delay = deadline - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        if collect_feedback:
            sock.settimeout(0.05)
            _drain_feedback(sock, stats)
    finally:
        sock.close()
    return stats


def _drain_feedback(sock: socket.socket, stats: ClientRunStats) -> None:
    while True:
        try:
            data, _ = sock.recvfrom(2048)
        except OSError:  # nothing left (BlockingIOError, socket.timeout) or closed
            return
        try:
            stats.feedback.append(decode_feedback(data))
        except DatagramError:
            continue
