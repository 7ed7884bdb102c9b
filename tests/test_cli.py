"""Command-line behavior: run, replay, rms, and failure exits."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamtrack

from beamtrack import cli
from beamtrack.cli import build_parser, main
from beamtrack.pipeline import _inline_source, run_scenario, run_scores
from beamtrack.telemetry import decode_imu_datagram, encode_imu_datagram
from beamtrack.world import ScenarioConfig, build_scenario, default_config


@pytest.fixture()
def config_file(tmp_path):
    config = dataclasses.replace(default_config(), duration_s=3.0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["run", "--mode", "both", "--seed", "3"])
    assert args.mode == "both" and args.seed == 3 and args.config is None
    with pytest.raises(SystemExit):
        parser.parse_args([])  # a subcommand is required
    for mode in ("sideways", "beamscan"):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--mode", mode])


def test_run_writes_log_and_summary(tmp_path, capsys, config_file):
    log = tmp_path / "run.jsonl"
    code = main(["run", "--config", str(config_file), "--log", str(log)])
    out = capsys.readouterr().out
    assert code == 0
    assert "identified at frame: 2" in out
    assert "client 0 path rms:" in out and "client 1 path rms:" in out
    lines = log.read_text().splitlines()
    assert len(lines) == 6  # 3 s at 0.5 s per frame
    for line in lines:
        record = json.loads(line)
        assert {"frame", "t", "clusters", "clients", "error_flag"} <= set(record)


def test_same_seed_gives_identical_logs(tmp_path, capsys, config_file):
    logs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for log in logs:
        assert main(["run", "--config", str(config_file), "--seed", "7",
                     "--log", str(log)]) == 0
    capsys.readouterr()
    assert logs[0].read_bytes() == logs[1].read_bytes()


def test_replay_matches_live_run(tmp_path, capsys, config_file):
    capture = tmp_path / "frames.capture"
    live_log = tmp_path / "live.jsonl"
    replay_log = tmp_path / "replay.jsonl"
    assert main(["run", "--config", str(config_file), "--log", str(live_log),
                 "--capture", str(capture)]) == 0
    assert main(["replay", "--capture", str(capture), "--config", str(config_file),
                 "--log", str(replay_log)]) == 0
    capsys.readouterr()
    assert live_log.read_bytes() == replay_log.read_bytes()


def test_replay_honors_seed_override(tmp_path, capsys, config_file):
    # calibration and scan noise come from the scenario seed, so a replay
    # must be able to pin the same seed the recording run used
    capture = tmp_path / "frames.capture"
    live_log = tmp_path / "live.jsonl"
    matched = tmp_path / "matched.jsonl"
    mismatched = tmp_path / "mismatched.jsonl"
    assert main(["run", "--config", str(config_file), "--seed", "9",
                 "--log", str(live_log), "--capture", str(capture)]) == 0
    assert main(["replay", "--capture", str(capture), "--config", str(config_file),
                 "--seed", "9", "--log", str(matched)]) == 0
    assert main(["replay", "--capture", str(capture), "--config", str(config_file),
                 "--log", str(mismatched)]) == 0
    capsys.readouterr()
    assert live_log.read_bytes() == matched.read_bytes()
    assert live_log.read_bytes() != mismatched.read_bytes()


def test_rms_scores_a_log(tmp_path, capsys, config_file):
    log = tmp_path / "run.jsonl"
    assert main(["run", "--config", str(config_file), "--log", str(log)]) == 0
    capsys.readouterr()
    assert main(["rms", "--log", str(log), "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    values = []
    for line in out.strip().splitlines():
        assert line.startswith("client ") and line.endswith(" m")
        values.append(float(line.split(":")[1].split()[0]))
    assert len(values) == 2
    assert all(v < 0.25 for v in values)
    # one rule: the log scores exactly as the run that wrote it reported
    config = ScenarioConfig.from_file(config_file)
    report = run_scenario(config, mode="both", log_path=log)
    assert main(["rms", "--log", str(log), "--config", str(config_file)]) == 0
    assert capsys.readouterr().out == "".join(
        f"client {cid} path rms: {rms:.3f} m\n" for cid, rms in report.rms_by_client.items()
    )
    assert run_scores(report.records, config)["rms_by_client"] == report.rms_by_client
    # a client the filter never placed scores None
    for record in report.records:
        record["clients"][1]["kf_position"] = None
    rms = run_scores(report.records, config)["rms_by_client"]
    assert rms == {0: report.rms_by_client[0], 1: None}


@pytest.mark.parametrize(
    "bad_line", [b"not json", b'{"frame": 1', b"\xff\xfe not UTF-8"], ids=["text", "cut", "not-utf8"]
)
def test_rms_on_a_line_that_is_not_json_exits_with_its_line_number(tmp_path, capsys, bad_line):
    log = tmp_path / "run.jsonl"
    log.write_bytes(b'{"frame": 0, "clients": []}\n\n' + bad_line + b"\n")
    assert main(["rms", "--log", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {log} line 3: not JSON\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "bad_line",
    [b"5", b"[]", b'{"clients": [5]}', b'{"clients": [{"id": 0, "kf_position": "x"}]}'],
    ids=["number", "list", "client-not-an-object", "position-not-a-pair"],
)
def test_rms_on_json_that_is_not_a_frame_record_exits_with_its_line_number(
    tmp_path, capsys, bad_line
):
    log = tmp_path / "run.jsonl"
    log.write_bytes(b'{"frame": 0, "clients": []}\n\n' + bad_line + b"\n")
    assert main(["rms", "--log", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {log} line 3: not a frame record\n"
    assert captured.out == ""


def test_missing_files_exit_nonzero(tmp_path, capsys, config_file):
    assert main(["replay", "--capture", str(tmp_path / "nope.capture")]) == 2
    assert main(["rms", "--log", str(tmp_path / "nope.jsonl")]) == 2
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_udp_telemetry_run(tmp_path, capsys):
    config = dataclasses.replace(default_config(), duration_s=1.5)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config.to_dict()))
    code = main(["run", "--config", str(path), "--telemetry", "udp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "telemetry: received" in out
    received = int(out.split("telemetry: received ")[1].split()[0])
    assert received > 0


def test_udp_senders_send_the_inline_readings(monkeypatch):
    # no sockets: capture each sender's reading function, run nothing
    senders = {}

    class Server:
        ports = (0, 0)
        datagrams_received = datagrams_rejected = 0
        send_feedback = None

        def __init__(self, store, ports):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(cli, "TelemetryServer", Server)
    monkeypatch.setattr(cli, "run_sim_client", lambda fn, cid, *a, **kw: senders.update({cid: fn}))
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **kw: None)
    config = default_config()
    cli._run_udp(config, build_parser().parse_args(["run", "--telemetry", "udp"]))
    inline = {0: [], 1: []}
    for batches, _ in _inline_source(build_scenario(config)):
        for cid, readings in batches.items():
            inline[cid].extend(readings)
    # a sender numbers its datagrams from 0, the inline feed its readings from
    # 1; repr tells every float bit apart
    assert sorted(senders) == [0, 1]
    for cid, send in senders.items():
        for seq in range(200):
            sent = send(cid, (seq + 1) / 100.0, 0.01, seq=seq)
            assert repr(decode_imu_datagram(encode_imu_datagram(sent))) == repr(inline[cid][seq])


def test_negative_seed_exits_with_the_validation_message(tmp_path, capsys, config_file):
    log = tmp_path / "run.jsonl"
    assert main(["run", "--config", str(config_file), "--seed", "-1", "--log", str(log)]) == 2
    data = json.loads(config_file.read_text())
    data["seed"] = -1
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps(data))
    assert main(["run", "--config", str(negative)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: seed must be >= 0"] * 2
    assert captured.out == ""


@pytest.mark.parametrize(
    "content",
    [
        b'{"radar_pose": 5}',
        b'{"frame_time_s": NaN}',
        b'{"clients": [5]}',
        b"\xff\xfe not UTF-8",
        b'{"frame_time_s": 1e200, "duration_s": 1e200, "radar_rate_hz": 1e200}',
    ],
    ids=["pose-not-a-list", "nan-frame-time", "client-not-an-object", "not-utf8", "radar-overflow"],
)
def test_malformed_config_exits_with_the_validation_message(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_importing_the_cli_loads_no_scipy_optimize_or_csgraph():
    # the assignment and the cell-graph components are the package's own; only
    # scipy.spatial's kd-tree is loaded, which keeps every process smaller
    src = str(Path(beamtrack.__file__).resolve().parent.parent)
    probe = (
        "import sys, beamtrack.cli; "
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.optimize', 'scipy.sparse.csgraph'))))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
