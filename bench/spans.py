"""Spans around the program's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function where its caller looks the
name up (most are imported by name into ``beamtrack.pipeline``; the scenario
samplers and ``Pipeline.process_frame`` are methods) with a wrapper that
records a span: name, start, end and the enclosing span. A few boundaries also
record counts. Spans stay in memory until ``write`` is called at the end of a
run; ``uninstall`` restores the original functions.
"""

from __future__ import annotations

import gzip
import json
import resource
import time
from collections import defaultdict

from beamtrack import pipeline, world

# (span name, module or class holding the looked-up name, attribute)
TRACED = (
    ("imu.madgwick_update", pipeline, "madgwick_update"),
    ("imu.gravity_compensate", pipeline, "gravity_compensate"),
    ("imu.integrate_velocity", pipeline, "integrate_velocity"),
    ("clustering.dbscan", pipeline, "dbscan"),
    ("clustering.filter_background", pipeline, "filter_background"),
    ("tracking.update_clusters", pipeline, "update_clusters"),
    ("identification.identify_clients", pipeline, "identify_clients"),
    ("kalman.kf_step", pipeline, "kf_step"),
    ("kalman.kf_reacquire", pipeline, "kf_reacquire"),
    ("beams.beam_angle", pipeline, "beam_angle"),
    ("beams.angle_to_sector", pipeline, "angle_to_sector"),
    ("beams.simulate_gain", pipeline, "simulate_gain"),
    ("beams.beam_scan_baseline", pipeline, "beam_scan_baseline"),
    ("telemetry.quantize_imu", pipeline, "quantize_imu"),
    ("world.build_scenario", pipeline, "build_scenario"),
    ("world.sample_imu", world.Scenario, "sample_imu"),
    ("world.sample_point_cloud", world.Scenario, "sample_point_cloud"),
    ("world.ground_truth", world.Scenario, "ground_truth"),
    ("pipeline.calibrate_clients", pipeline, "calibrate_clients"),
    ("pipeline.frame_record", pipeline, "frame_record"),
    ("pipeline.process_frame", pipeline.Pipeline, "process_frame"),
)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index), -1 for no parent
        self.counts: dict[str, int] = defaultdict(int)
        self.frame_counts: list[dict[str, int]] = []  # counts per process_frame call
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn):
        """Wrap fn so each call records a span under the innermost open one."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _counting(self, name: str, fn):
        """Counts recorded at a boundary, outside the span's own interval."""
        counts = self.counts
        if name == "clustering.dbscan":

            def counted(*args, **kwargs):
                before = _minflt()
                clusters, noise = fn(*args, **kwargs)
                counts["clustering.minor_faults"] += _minflt() - before
                counts["clustering.clusters"] += len(clusters)
                return clusters, noise

        elif name == "kalman.kf_reacquire":

            def counted(*args, **kwargs):
                gated = fn(*args, **kwargs)
                counts["kalman.gated"] += bool(gated)
                return gated

        elif name == "pipeline.process_frame":
            frame_counts = self.frame_counts

            def counted(*args, **kwargs):
                counts.clear()
                try:
                    return fn(*args, **kwargs)
                finally:
                    frame_counts.append(dict(counts))

        else:
            return fn
        return counted

    def install(self) -> None:
        for name, owner, attr in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrapped = self.span(name, original)
            setattr(owner, attr, self._counting(name, wrapped))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def per_root(self, roots: list[int]) -> list[tuple[dict[str, float], dict[str, int]]]:
        """For each root span, the self seconds and call count of every name beneath it.

        The root itself is included. A span's self time is its duration minus
        its children's durations; children never overlap because the traced
        code is single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        root_of = list(range(len(self.spans)))
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root_of[i] = root_of[parent]
        out = {r: (defaultdict(float), defaultdict(int)) for r in roots}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.get(root_of[i])
            if entry is not None:
                entry[0][name] += (end - start) - child_time[i]
                entry[1][name] += 1
        return [out[r] for r in roots]

    def clear(self) -> None:
        self.spans.clear()
        self.frame_counts.clear()
        self.counts.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: index, name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")
