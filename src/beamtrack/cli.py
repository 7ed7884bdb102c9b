"""Command-line entry points: run, replay, rms."""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

from .errors import DatagramError, ValidationError
from .pipeline import INLINE_IMU_RATE_HZ, RunReport, device_readings, path_rms
from .pipeline import run_from_capture, run_scenario
from .telemetry import LatestStore, TelemetryServer, run_sim_client
from .world import ScenarioConfig, build_scenario, default_config


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
    store = LatestStore()
    ports = tuple(args.ports) if args.ports else (0,) * len(config.clients)
    server = TelemetryServer(store, ports=ports)
    scenario = build_scenario(config)

    def reading(cid, t, dt, seq):  # senders count from 0, the inline feed from 1
        return device_readings(scenario, cid, seq + 1)

    threads = []
    with server:
        for cid in range(len(config.clients)):
            port = server.ports[cid % len(server.ports)]
            t = threading.Thread(
                target=run_sim_client,
                args=(reading, cid, ("127.0.0.1", port)),
                kwargs={"rate_hz": INLINE_IMU_RATE_HZ, "duration_s": config.duration_s},
                daemon=True,
            )
            t.start()
            threads.append(t)
        report = run_scenario(
            config,
            mode=args.mode,
            log_path=args.log,
            capture_path=args.capture,
            store=store,
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
        report = run_scenario(
            config, mode=args.mode, log_path=args.log, capture_path=args.capture
        )
    _print_summary(report)
    return 0


def _cmd_replay(args) -> int:
    config = _load_config(args.config, args.seed)
    report = run_from_capture(config, args.capture, mode=args.mode, log_path=args.log)
    _print_summary(report)
    return 0


def _cmd_rms(args) -> int:
    config = _load_config(args.config, None)
    records = []
    with open(args.log, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(json.loads(line))
                except ValueError:  # a JSON or UTF-8 decoding error
                    raise ValidationError(f"{args.log} line {number}: not JSON") from None
    _print_rms(path_rms(records, config))
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
                       help="inline: deterministic in-process feed; udp: real sockets, wall-clock paced")
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
    except (ValidationError, DatagramError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
