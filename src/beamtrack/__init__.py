"""Sensing-aided peer tracking and millimeter-wave beam steering, simulated.

A fixed radar supplies point clouds, two walking clients stream inertial
telemetry, and the pipeline turns both into tracked positions and beam-sector
picks — all deterministic given a scenario config and seed.

The package root exports nothing: import each name from the module that
defines it, e.g. ``from beamtrack.pipeline import run_scenario``.
"""
