"""What each per-layer metric should move.

``BENCHMARK.json`` at the repository root is the catalogue of metric names,
units and directions.  Its per-layer entries hold only those keys, so the
end-to-end metric, and the workloads on which a change to the layer should
show, are kept here by name pattern.  The traced run refuses a per-layer
metric that no pattern covers.
"""
from __future__ import annotations

from fnmatch import fnmatchcase

_EXACT = "wall_s and item_ms_tail on pc_suite"
_GRID = "wall_s on grid_solve, less on cli_roundtrip"

# (name pattern, what it should move); the first matching pattern applies
MOVES = (
    ("manifolds.*.b1_us", "wall_s on pc_suite and lab_scan"),
    ("manifolds.*.b10k_us", "wall_s on grid_solve"),
    ("flows.run_exact_pc.*", _EXACT),
    ("flows.pc_velocity.*", _EXACT),
    ("flows.exact.*", _EXACT),
    ("flows.run_regularized.*", _GRID),
    ("flows.regularized.*", _GRID),
    ("flows.run_scalar_tv.s", "wall_s on pc_suite"),
    ("flows.flow_on_geodesic.s", "wall_s on pc_suite"),
    ("curves.*", "wall_s on pc_suite and grid_solve"),
    ("verify.checks_failed", "pass_frac on pc_suite"),
    ("verify.*", "wall_s and pass_frac on pc_suite"),
    ("lab.*", "wall_s on lab_scan"),
    ("io.*", "wall_s and peak_rss_mb on cli_roundtrip; nothing on pc_suite or grid_solve"),
    ("cli.exit_nonzero", "pass_frac on cli_roundtrip"),
    ("cli.*", "wall_s on cli_roundtrip"),
    ("synth.s", "setup_s on every workload"),
    ("layer.*", "wall_s of the workload that runs the layer"),
    ("trace.self_sum_gap_s", "traced wall time minus the sum of layer self times"),
    ("trace.*", "tracing overhead, not a program metric"),
)


def moves(name: str) -> str | None:
    return next((text for pattern, text in MOVES if fnmatchcase(name, pattern)), None)
