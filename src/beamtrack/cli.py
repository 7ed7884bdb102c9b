"""Command-line entry points: run, replay, rms."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading
from pathlib import Path

from .errors import DatagramError, ValidationError
from .pipeline import INLINE_IMU_RATE_HZ, SECTORS, RunReport, device_readings, run_scores
from .pipeline import run_from_capture, run_scenario
from .telemetry import TelemetryServer, run_sim_client
from .world import ScenarioConfig, build_scenario, default_config, finite_number


def _load_config(path: Path | None, seed: int | None) -> ScenarioConfig:
    config = ScenarioConfig.from_file(path) if path else default_config()
    if seed is not None:
        config.seed = seed
    return config


def _print_rms(rms_by_client: dict[int, float | None]) -> None:
    for cid, rms in sorted(rms_by_client.items()):
        print(f"client {cid} path rms: " + (f"{rms:.3f} m" if rms is not None else "n/a"))


def _print_summary(report: RunReport) -> None:
    print(f"mode: {report.mode}")
    print(f"frames: {len(report.frames)}")
    first = report.identified_at_frame
    print(f"identified at frame: {first if first is not None else 'never'}")
    _print_rms(report.rms_by_client)
    print(f"frames with error flag: {report.error_frames}")
    if report.mean_gain_algorithm is not None:
        print(f"mean gain (tracking): {report.mean_gain_algorithm:.2f}")
    if report.mean_gain_beamscan is not None:
        print(f"mean gain (beam scan): {report.mean_gain_beamscan:.2f}")
        print(f"beam-scan frames spent: {report.scan_frames_spent}")


def _run_udp(config: ScenarioConfig, args) -> RunReport:
    """Run with real UDP telemetry: one simulated sender thread per client."""
    import queue

    received = queue.SimpleQueue()
    ports = tuple(args.ports) if args.ports else (0,) * len(config.clients)
    server = TelemetryServer(received, ports=ports)
    scenario = build_scenario(config)

    def reading(cid, t, dt, seq):  # senders count from 0, the inline feed from 1
        return device_readings(scenario, cid, seq + 1)

    pace = {"rate_hz": INLINE_IMU_RATE_HZ, "duration_s": config.duration_s}
    with server:
        threads = [
            threading.Thread(target=run_sim_client, args=(reading, cid, ("127.0.0.1", port)),
                             kwargs=pace, daemon=True)
            for cid, port in zip(range(len(config.clients)), itertools.cycle(server.ports))
        ]
        for t in threads:
            t.start()
        report = run_scenario(
            config,
            mode=args.mode,
            log_path=args.log,
            capture_path=args.capture,
            store=received,
            feedback=server.send_feedback,
        )
        for t in threads:
            t.join(timeout=2.0)
        print(
            f"telemetry: received {server.datagrams_received} datagrams,"
            f" rejected {server.datagrams_rejected}"
        )
    return report


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    if args.telemetry == "udp":
        report = _run_udp(config, args)
    else:
        report = run_scenario(config, mode=args.mode, log_path=args.log, capture_path=args.capture)
    _print_summary(report)
    return 0


def _cmd_replay(args) -> int:
    config = _load_config(args.config, args.seed)
    report = run_from_capture(config, args.capture, mode=args.mode, log_path=args.log)
    _print_summary(report)
    return 0


def _is_frame_record(rec) -> bool:
    """Whether a parsed log line holds what run_scores reads, each field null or of its type."""
    if type(rec) is not dict or not all(type(rec.get(k, [])) is list for k in ("clients", "truth")):
        return False
    clients, truth = rec.get("clients", []), rec.get("truth", [])
    if not all(type(e) is dict and type(e.get("id")) is int for e in clients + truth):
        return False
    sectors = [c[k] for c in clients for k in ("sector", "beamscan_sector") if c.get(k) is not None]
    pairs = [c["kf_position"] for c in clients if c.get("kf_position") is not None]
    numbers = [t["bearing_deg"] for t in truth if t.get("bearing_deg") is not None]
    return (
        all(type(s) is int and 0 <= s < SECTORS.n_sectors for s in sectors)
        and all(type(p) is list and len(p) == 2 for p in pairs)
        and all(finite_number(x) for x in numbers + [x for p in pairs for x in p])
    )


def _frame_records(log: Path, n_clients: int):
    """Each record of a frame log, checked as it is read, so no more than one is held."""
    with open(log, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:  # a JSON or UTF-8 decoding error
                raise ValidationError(f"{log} line {number}: not JSON") from None
            if not _is_frame_record(rec):
                raise ValidationError(f"{log} line {number}: not a frame record")
            for entry in rec.get("clients", []):
                if not 0 <= entry["id"] < n_clients:  # run_scores would skip it
                    raise ValidationError(
                        f"{log} line {number}: client {entry['id']} is not in the config"
                    )
            yield rec


def _cmd_rms(args) -> int:
    config = _load_config(args.config, None)
    _print_rms(run_scores(_frame_records(args.log, len(config.clients)), config)["rms_by_client"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamtrack",
        description="Radar-plus-IMU peer tracking and beam-sector selection, simulated end to end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments run and replay share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="scenario JSON file (default: built-in two-client demo)")
    common.add_argument("--mode", choices=("algorithm", "both"), default="algorithm",
                        help="run the tracking pipeline alone, or with the scanning baseline")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (a replay must match its recording run)")
    common.add_argument("--log", type=Path, default=None,
                        help="write one JSON record per frame to this file")

    run_p = sub.add_parser("run", parents=[common],
                           help="simulate a scenario and run the pipeline over it")
    run_p.add_argument("--capture", type=Path, default=None,
                       help="record the consumed sensor streams to this file")
    run_p.add_argument("--telemetry", choices=("inline", "udp"), default="inline",
                       help="inline: deterministic in-process feed; udp: real sockets, sender-paced")
    run_p.add_argument("--ports", type=int, nargs="*", default=None,
                       help="UDP ports for the telemetry server (0 = ephemeral; udp mode only;"
                            " default one ephemeral port per client)")
    run_p.set_defaults(func=_cmd_run)

    replay_p = sub.add_parser("replay", parents=[common],
                              help="re-run the pipeline over a recorded capture")
    replay_p.add_argument("--capture", type=Path, required=True, help="capture file to replay")
    replay_p.set_defaults(func=_cmd_replay)

    rms_p = sub.add_parser("rms", help="score a run log against the configured walking paths")
    rms_p.add_argument("--log", type=Path, required=True, help="frame-record log to score")
    rms_p.add_argument("--config", type=Path, default=None,
                       help="scenario JSON with the walked paths (default: demo)")
    rms_p.set_defaults(func=_cmd_rms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DatagramError, OSError) as exc:  # OSError: a path it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
