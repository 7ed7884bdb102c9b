#!/usr/bin/env python3
"""Benchmark of beamtrack: decision latency, run throughput and tracking quality.

Run from the repository root:

    python3 bench/run.py --workload demo --seed 0 --seconds 21 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones of a traced run. README.md in this directory describes the workloads,
the metrics and the checks.

The parent process runs no workload itself. It starts ``WORKERS`` fresh worker
processes of this script one after another, each single-threaded. Worker j

1. calls ``run_scenario(mode="both")`` with a frame log on scenario j of the
   run, for run throughput, peak memory, tracking accuracy and beam gain, and
   checks the log;
2. takes the inputs of every scenario of the run, generated untimed (worker 0
   generates and saves them, later workers load them);
3. times ``Pipeline.process_frame`` over passes of all those frames. Worker 0
   runs as many passes as fit in its share of ``--seconds`` (at least one, at
   most ``MAX_PASSES``); the later workers run as many as worker 0.

Pass r of every worker makes round r, in which each frame is timed once in
each of three processes (which differ in heap state) at times spread over the
run. Per round, the median over frames of each frame's median time gives the
decision latency's median, and the 95th percentile of each frame's fastest
time its 95th percentile; the reported figures are their means over rounds.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKERS = 3
MAX_PASSES = 2  # per worker and kind
RUN_DEADLINE_S = 170.0  # every worker ends before this, counted from the start

# layers timed inside process_frame, reported from the traced passes
FRAME_LAYERS = (
    "clustering.dbscan", "clustering.filter_background", "tracking.update_clusters",
    "identification.identify_clients", "kalman.kf_step", "kalman.kf_reacquire",
    "imu.madgwick_update", "imu.gravity_compensate", "imu.integrate_velocity",
    "beams.beam_angle", "beams.angle_to_sector", "pipeline.process_frame",
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Import beamtrack from this checkout's sources and nowhere else."""
    if not (SRC / "beamtrack" / "__init__.py").is_file():
        _fail(f"no beamtrack sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import beamtrack

    if Path(beamtrack.__file__).resolve().parent != (SRC / "beamtrack").resolve():
        _fail(f"beamtrack imported from {beamtrack.__file__}, not from {SRC}")


def _rusage():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF)


# --------------------------------------------------------------------------
# worker, step 1: run_scenario on the worker's scenario, then check its frame log


def _run_scenario(args, cfg, index: int, tracer) -> dict:
    import checks
    from beamtrack import pipeline

    run = pipeline.run_scenario
    if tracer is not None:
        tracer.install()
        run = tracer.span("pipeline.run", pipeline.run_scenario)
    # a timestamp as each frame enters the pipeline: the loop's frame periods
    entries: list[float] = []
    process_frame = pipeline.Pipeline.process_frame

    def stamped(self, *a, **kw):
        entries.append(time.perf_counter())
        return process_frame(self, *a, **kw)

    pipeline.Pipeline.process_frame = stamped
    log = RESULTS / "logs" / args.workload / f"scenario{index}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    n_frames = int(math.floor(cfg.duration_s / cfg.frame_time_s + 1e-9))
    out = {"attempted": n_frames, "failed": 0, "periods": [], "frames": 0, "gains": [],
           "rms": [], "digests": None, "failures": []}
    try:
        report = run(cfg, mode="both", log_path=log)
    except Exception as exc:  # counted as failed frames, reported on stderr
        print(f"run_scenario seed {cfg.seed} failed: {exc!r}", file=sys.stderr)
        out["failed"] = n_frames
        report = None
    finally:
        pipeline.Pipeline.process_frame = process_frame
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = _rusage().ru_maxrss / 1024.0  # KiB on Linux
    if report is None:
        return out
    out["periods"] = [b - a for a, b in zip(entries, entries[1:])]
    out["frames"] = len(report.frames)

    failures = out["failures"]
    label = f"{args.workload} scenario seed {cfg.seed}"
    with open(log, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    if len(records) != len(report.frames):
        failures.append(f"{label}: {len(records)} log lines for {len(report.frames)} frames")
    own_rms = {}
    for cid, path in enumerate(cfg.clients):
        positions = checks.track_positions(records, cid)
        if not positions:
            failures.append(f"{label}: client {cid} was never tracked")
            continue
        own_rms[cid] = checks.path_rms_m(positions, path.waypoints)
        reported = report.rms_by_client.get(cid)
        if reported is None or abs(reported - own_rms[cid]) > 1e-9 * max(1.0, own_rms[cid]):
            failures.append(f"{label}: client {cid} reported RMS {reported}, own {own_rms[cid]}")
    failures += checks.check_path_rms(own_rms, label)
    failures += checks.check_final_binding(records[-1], label)
    for rec in records:
        failures += checks.check_sectors(rec, f"{label} frame {rec['frame']}")
    if report.mean_gain_algorithm is None:
        failures.append(f"{label}: no frame scored a beam gain")
    else:
        out["gains"] = [report.mean_gain_algorithm]
    out["rms"] = list(own_rms.values())
    out["digests"] = [checks.record_digest(checks.pipeline_part(r)) for r in records]
    return out


def _run_layers(tracer, frames: int) -> dict:
    """Totals of the traced run_scenario calls: the run loop and the simulator."""
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == "pipeline.run"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for times, counts in tracer.per_root(roots):
        for name, t in times.items():
            self_s[name] = self_s.get(name, 0.0) + t
        for name, n in counts.items():
            calls[name] = calls.get(name, 0) + n
    # set-up layers are reported inclusive of their children, as set-up time sees them
    inclusive: dict[str, float] = {}
    for name, start, end, _ in tracer.spans:
        if name in ("world.build_scenario", "pipeline.calibrate_clients"):
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return {"frames": frames, "self_s": self_s, "calls": calls, "inclusive_s": inclusive}


# --------------------------------------------------------------------------
# worker, step 3: time Pipeline.process_frame over passes of every frame


def _untraced():
    """The set-up and record functions as imported, before any tracer is installed."""
    from beamtrack.pipeline import calibrate_clients, frame_record
    from beamtrack.world import build_scenario

    return build_scenario, calibrate_clients, frame_record


def _pass(cfg, frames, fns, tracer=None) -> dict:
    """Set up a fresh pipeline and push the frames of one scenario through it.

    Only ``Pipeline.process_frame`` goes through the tracer: the set-up and
    record functions are the ones bound before the tracer was installed.
    """
    import checks
    from beamtrack.pipeline import Pipeline, PipelineParams

    build_scenario, calibrate_clients, frame_record = fns
    t0 = time.perf_counter()
    scenario = build_scenario(cfg)
    calibrations = calibrate_clients(scenario)
    headings = {gt.client_id: gt.heading_rad for gt in scenario.ground_truth(0.0)}
    pl = Pipeline(PipelineParams.for_config(cfg), headings, calibrations)
    setup_s = time.perf_counter() - t0

    latency, faults, digests, roots = [], [], [], []
    failed = 0
    for f in frames:
        if tracer is not None:
            roots.append(len(tracer.spans))
        f0 = _rusage().ru_minflt
        start = time.perf_counter()
        try:
            report = pl.process_frame(
                f.index, f.t_end_s, f.points, f.imu_batches, measurement_time_s=f.measurement_time_s
            )
        except Exception as exc:  # counted as a failed frame, reported on stderr
            print(f"process_frame {f.index} seed {cfg.seed} failed: {exc!r}", file=sys.stderr)
            failed += 1
            latency.append(math.inf)
            faults.append(_rusage().ru_minflt - f0)
            digests.append(None)
            continue
        end = time.perf_counter()
        faults.append(_rusage().ru_minflt - f0)
        latency.append(1e3 * (end - start))
        digests.append(checks.record_digest(frame_record(report)))
    return {"setup_s": setup_s, "latency_ms": latency, "faults": faults, "digests": digests,
            "failed": failed, "roots": roots}


def _traced_pass(cfgs, inputs, fns, tracer) -> list[dict]:
    tracer.clear()
    tracer.install()
    try:
        results = [_pass(cfg, frames, fns, tracer) for cfg, frames in zip(cfgs, inputs)]
    finally:
        tracer.uninstall()
    counts = iter(tracer.frame_counts)
    for res in results:
        layers = tracer.per_root(res.pop("roots"))
        res["layers"] = [{n: times.get(n, 0.0) for n in FRAME_LAYERS} for times, _ in layers]
        res["calls"] = [{n: calls.get(n, 0) for n in FRAME_LAYERS} for _, calls in layers]
        res["counts"] = [next(counts) for _ in layers]
    return results


def _inputs(args, cfgs) -> list:
    """Every scenario's frame inputs: worker 0 generates and saves them, the rest load."""
    from workloads import frame_inputs

    path = RESULTS / f"inputs_{args.workload}_{args.seed}.pkl"
    if args.worker == 0:
        inputs = [frame_inputs(cfg) for cfg in cfgs]
        RESULTS.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return inputs
    with open(path, "rb") as fh:  # written by worker 0 of this run
        return pickle.load(fh)


def _sample_dbscan_check(cfgs, inputs, seed: int, worker: int) -> list[str]:
    """Brute-force partition check of one frame, picked by the seed and worker."""
    import numpy as np

    import checks
    from beamtrack.clustering import dbscan
    from beamtrack.pipeline import PipelineParams

    rng = np.random.default_rng([seed, worker])
    s = int(rng.integers(len(cfgs)))
    f = inputs[s][int(rng.integers(len(inputs[s])))]
    params = PipelineParams.for_config(cfgs[s]).dbscan
    clusters, noise = dbscan(f.points, params)
    return [
        f"scenario seed {cfgs[s].seed} frame {f.index}: {m}"
        for m in checks.check_dbscan_partition(f.points, params.eps_m, params.min_pts, clusters, noise)
    ]


def _neighbour_pairs(cfgs, inputs) -> int:
    """Point pairs within eps over all frames, counted from the clouds."""
    from scipy.spatial import cKDTree

    from beamtrack.pipeline import PipelineParams

    pairs = 0
    for cfg, frames in zip(cfgs, inputs):
        eps = PipelineParams.for_config(cfg).dbscan.eps_m
        for f in frames:
            tree = cKDTree(f.points[:, :3])
            pairs += (int(tree.count_neighbors(tree, eps)) - len(f.points)) // 2
    return pairs


def role_worker(args) -> dict:
    from workloads import configs

    fns = _untraced()
    cfgs = configs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    run = _run_scenario(args, cfgs[args.worker], args.worker, tracer)
    if tracer is not None:
        run["layers"] = _run_layers(tracer, run["frames"])
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"trace_{args.workload}_run{args.worker}.jsonl.gz")

    # the run_scenario calls above are this process's untimed warm-up
    inputs = _inputs(args, cfgs)
    failures = run.pop("failures") + _sample_dbscan_check(cfgs, inputs, args.seed, args.worker)

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append([_pass(cfg, frames, fns) for cfg, frames in zip(cfgs, inputs)])
        if tracer is not None:
            traced.append(_traced_pass(cfgs, inputs, fns, tracer))
        n = len(plain)
        if args.passes:
            if n == args.passes:
                break
        # stop before a pass that would end past this worker's share of the run
        elif n >= MAX_PASSES or (time.perf_counter() - start) * (n + 1) / n > args.seconds:
            break
    if tracer is not None:
        tracer.write(RESULTS / f"trace_{args.workload}_frames{args.worker}.jsonl.gz")

    # every pass of this worker gives the frames of its first pass
    first = [res["digests"] for res in plain[0]]
    for kind, passes in (("plain", plain), ("traced", traced)):
        for p, results in enumerate(passes):
            for cfg, want, res in zip(cfgs, first, results):
                if res["digests"] != want:
                    failures.append(f"scenario seed {cfg.seed}: {kind} pass {p} differs from pass 0")

    def strip(passes):
        return [[{k: v for k, v in res.items() if k != "digests"} for res in results]
                for results in passes]

    out = {
        "run": run,
        "passes": strip(plain),
        "digests": first,
        "failures": failures,
        "attempted": sum(len(f) for f in inputs) * (len(plain) + len(traced)),
        "failed": sum(res["failed"] for results in plain + traced for res in results),
    }
    if tracer is not None:
        out["traced"] = strip(traced)
        if args.worker == 0:
            out["neighbour_pairs"] = _neighbour_pairs(cfgs, inputs)
    return out


# --------------------------------------------------------------------------
# parent: run the workers one after another and report


def _worker(args, j: int, passes: int, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", "worker", "--worker", str(j),
           "--passes", str(passes), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / WORKERS), "--trace", str(args.trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        _fail(f"no time left for worker {j}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        _fail(f"worker {j} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        _fail(f"worker {j} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_round(workers, key: str, reduce, summarize) -> float:
    """Mean over rounds of a summary over frames of each frame's reduced latency (ms).

    Round r is pass r of every worker, so each frame has one time per worker.
    """
    figures = []
    for r in range(len(workers[0][key])):
        passes = [w[key][r] for w in workers]
        frames = []
        for s in range(len(passes[0])):
            frames += [reduce(ts) for ts in zip(*(results[s]["latency_ms"] for results in passes))]
        figures.append(summarize([x for x in frames if math.isfinite(x)]))
    return statistics.fmean(figures)


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[-1]


def main_parent(args) -> int:
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        workers = [_worker(args, 0, 0, deadline)]
        passes = len(workers[0]["passes"])
        workers += [_worker(args, j, passes, deadline) for j in range(1, WORKERS)]
    finally:
        (RESULTS / f"inputs_{args.workload}_{args.seed}.pkl").unlink(missing_ok=True)

    failures = [m for w in workers for m in w["failures"]]
    # every worker's passes give worker 0's frames, and run_scenario on scenario
    # j gives the frames of driving Pipeline directly
    for j, w in enumerate(workers[1:], start=1):
        for s, (want, got) in enumerate(zip(workers[0]["digests"], w["digests"])):
            failures += checks.check_same_frames(want, got, f"scenario {s}: worker {j} against worker 0")
    for j, w in enumerate(workers):
        if w["run"]["digests"] is not None:
            failures += checks.check_same_frames(
                w["run"]["digests"], workers[0]["digests"][j], f"scenario {j}: Pipeline against run_scenario")

    # the host runs in a fast and a slow state for seconds at a time: a frame's
    # median time lands in the dominant state, its fastest time drops stalls
    p50 = _per_round(workers, "passes", statistics.median, statistics.median)
    runs = [w["run"] for w in workers]
    for j, w in enumerate(workers):
        faults = [x for results in w["passes"] for res in results for x in res["faults"]]
        print(f"worker {j}: {w['run']['frames']} frames of run_scenario, "
              f"peak RSS {w['run']['peak_rss_mb']:.1f} MB, {len(w['passes'])} passes, "
              f"{statistics.fmean(faults):.0f} minor faults/frame", flush=True)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", flush=True)

    if args.trace:
        metrics = _layer_metrics(workers, p50)
    else:
        metrics = {
            "decision_ms.p50": (p50, "ms"),
            "decision_ms.p95": (_per_round(workers, "passes", min, _p95), "ms"),
            "frames_per_s": (1.0 / statistics.median([x for run in runs for x in run["periods"]]), "frames/s"),
            "setup_s": (statistics.median(
                [res["setup_s"] for w in workers for results in w["passes"] for res in results]), "s"),
            "peak_rss_mb": (max(run["peak_rss_mb"] for run in runs), "MB"),
            "rms_m": (statistics.fmean([x for run in runs for x in run["rms"]]), "m"),
            "beam_gain": (statistics.fmean([g for run in runs for g in run["gains"]]), "gain"),
        }
    result = {
        "correct": not failures,
        "attempted": sum(run["attempted"] + w["attempted"] for run, w in zip(runs, workers)),
        "failed": sum(run["failed"] + w["failed"] for run, w in zip(runs, workers)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"last_{args.workload}_trace{args.trace}.json").write_text(line + "\n")
    print(line, flush=True)
    return 0 if not failures else 1


def _layer_metrics(workers, plain_p50: float) -> dict:
    """Per-layer metrics: self times per frame (or per call) and counts."""
    passes = [results for w in workers for results in w["traced"]]
    n_scenarios = len(passes[0])
    frames = sum(len(res["layers"]) for res in passes[0])
    # each frame's fastest self time per layer over the traced passes
    self_s = dict.fromkeys(FRAME_LAYERS, 0.0)
    for s in range(n_scenarios):
        for per_pass in zip(*(results[s]["layers"] for results in passes)):
            for n in FRAME_LAYERS:
                self_s[n] += min(layers[n] for layers in per_pass)
    calls = dict.fromkeys(FRAME_LAYERS, 0)
    for res in passes[0]:
        for c in res["calls"]:
            for n in FRAME_LAYERS:
                calls[n] += c[n]
    counts: dict[str, float] = {}
    for results in passes:
        for res in results:
            for c in res["counts"]:
                for k, v in c.items():
                    counts[k] = counts.get(k, 0.0) + v / len(passes)

    def per_frame(name, scale):
        return scale * self_s[name] / frames

    def per_call(name):
        return 1e6 * self_s[name] / calls[name]

    traced_p50 = _per_round(workers, "traced", statistics.median, statistics.median)
    m = {
        "clustering.dbscan_ms": (per_frame("clustering.dbscan", 1e3), "ms"),
        "clustering.minor_faults": (counts.get("clustering.minor_faults", 0.0) / frames, "count/frame"),
        "clustering.neighbour_pairs": (workers[0]["neighbour_pairs"] / frames, "count/frame"),
        "clustering.clusters": (counts.get("clustering.clusters", 0.0) / frames, "count/frame"),
        "clustering.filter_background_us": (per_frame("clustering.filter_background", 1e6), "us"),
        "tracking.update_clusters_us": (per_frame("tracking.update_clusters", 1e6), "us"),
        "identification.identify_clients_us": (per_frame("identification.identify_clients", 1e6), "us"),
        "identification.calls": (calls["identification.identify_clients"] / n_scenarios, "count/scenario"),
        "kalman.kf_step_us": (per_frame("kalman.kf_step", 1e6), "us"),
        "kalman.kf_reacquire_us": (per_frame("kalman.kf_reacquire", 1e6), "us"),
        "kalman.gated": (counts.get("kalman.gated", 0.0) / n_scenarios, "count/scenario"),
        "imu.madgwick_update_us": (per_call("imu.madgwick_update"), "us/call"),
        "imu.gravity_compensate_us": (per_call("imu.gravity_compensate"), "us/call"),
        "imu.integrate_velocity_us": (per_call("imu.integrate_velocity"), "us/call"),
        "imu.samples": (calls["imu.madgwick_update"] / frames, "count/frame"),
        "beams.beam_angle_us": (per_frame("beams.beam_angle", 1e6), "us"),
        "beams.angle_to_sector_us": (per_frame("beams.angle_to_sector", 1e6), "us"),
        "pipeline.process_frame_self_ms": (per_frame("pipeline.process_frame", 1e3), "ms"),
    }

    # the run_scenario layers, summed over the workers' scenarios
    run_frames = sum(w["run"]["layers"]["frames"] for w in workers)
    run_self: dict[str, float] = {}
    run_calls: dict[str, int] = {}
    run_incl: dict[str, float] = {}
    for w in workers:
        lay = w["run"]["layers"]
        for src, dst in ((lay["self_s"], run_self), (lay["calls"], run_calls),
                         (lay["inclusive_s"], run_incl)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v

    def run_per_frame(name, scale):
        return scale * run_self.get(name, 0.0) / run_frames

    m.update({
        "beams.simulate_gain_us": (run_per_frame("beams.simulate_gain", 1e6), "us"),
        "beams.beam_scan_baseline_us": (run_per_frame("beams.beam_scan_baseline", 1e6), "us"),
        "world.sample_imu_us": (1e6 * run_self["world.sample_imu"] / run_calls["world.sample_imu"], "us/call"),
        "world.sample_point_cloud_ms": (run_per_frame("world.sample_point_cloud", 1e3), "ms"),
        "world.ground_truth_us": (run_per_frame("world.ground_truth", 1e6), "us"),
        "world.build_scenario_ms": (
            1e3 * run_incl["world.build_scenario"] / run_calls["world.build_scenario"], "ms/call"),
        "pipeline.calibrate_clients_ms": (
            1e3 * run_incl["pipeline.calibrate_clients"] / run_calls["pipeline.calibrate_clients"], "ms/call"),
        "telemetry.quantize_imu_us": (run_per_frame("telemetry.quantize_imu", 1e6), "us"),
        "pipeline.frame_record_us": (run_per_frame("pipeline.frame_record", 1e6), "us"),
        "pipeline.run_self_ms": (run_per_frame("pipeline.run", 1e3), "ms"),
        "trace.decision_ms.p50": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - plain_p50, "ms"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "worker"), default="parent", help=argparse.SUPPRESS)
    ap.add_argument("--worker", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--passes", type=int, default=0, help=argparse.SUPPRESS)  # 0: by time
    args = ap.parse_args(argv)
    _import_program()
    if args.role == "parent":
        return main_parent(args)
    print(json.dumps(role_worker(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
