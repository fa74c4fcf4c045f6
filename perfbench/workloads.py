"""Workload definitions: the configs the benchmark feeds to the program.

The workload seed is a benchmark argument.  It offsets the base seed of the
workload; the program sees only the resulting config, so ``--seed 0`` runs
each study at its documented default seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# Thresholds of the acceptance study, applied to every rate workload.
SLOPE_MIN = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "converge": one `reflectedsde converge`; "sweep": per-path calls
    base_seed: int
    config: dict
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rate_interval_1d",
            kind="converge",
            base_seed=20240817,
            config={
                "domain": {"name": "interval", "params": {"a": -1.0, "b": 1.0}},
                "coefficients": {
                    "name": "trig",
                    "params": {
                        "offset": [[0.5]],
                        "amplitude": [[0.2]],
                        "frequency": [1.0],
                        "drift_matrix": [[-0.3]],
                    },
                },
                "x0": [0.0],
                "T": 1.0,
                "levels": [4, 5, 6, 7, 8, 9],
                "p_list": [2],
                "M": 2000,
                "fine_margin": 4,
                "substeps_per_knot": 8,
                "workers": 1,
                "thresholds": {"rate_slope_min": SLOPE_MIN, "lyapunov_slope_min": SLOPE_MIN},
            },
            why="The acceptance study end to end: march and Brownian cost dominate, "
            "with cheap clip projection (pushes are rare).",
        ),
        Workload(
            name="rate_annulus_2d",
            kind="converge",
            base_seed=7,
            config={
                "domain": {"name": "annulus", "params": {"r1": 0.5, "r2": 1.0, "dim": 2}},
                "coefficients": {
                    "name": "trig",
                    "params": {
                        "offset": [[0.6, 0.1], [0.1, 0.6]],
                        "amplitude": [[0.3, 0.1], [0.1, 0.3]],
                        "frequency": [1.0, 2.0],
                        "drift_matrix": [[-0.5, 0.0], [0.0, -0.5]],
                    },
                },
                "x0": [0.75, 0.0],
                "T": 1.0,
                "levels": [3, 4, 5, 6, 7],
                "p_list": [2],
                "M": 2000,
                "fine_margin": 4,
                "substeps_per_knot": 8,
                "workers": 1,
                "thresholds": {"rate_slope_min": SLOPE_MIN, "lyapunov_slope_min": SLOPE_MIN},
            },
            why="Non-convex projection with d = m = 2: frequent boundary pushes, so "
            "geometry and 2-d einsum costs show here and hardly on the interval.",
        ),
        Workload(
            name="single_path_ball_2d",
            kind="sweep",
            base_seed=3,
            config={
                "domain": {"name": "ball", "params": {"radius": 1.0, "dim": 2}},
                "coefficients": {
                    "name": "linear",
                    "params": {
                        "A": [[[0.1, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.1, 0.0]]],
                        "B": [[0.4, 0.0], [0.0, 0.4]],
                        "drift_matrix": [[-0.5, 0.0], [0.0, -0.5]],
                    },
                },
                "x0": [0.5, 0.0],
                "T": 1.0,
                "level": 4,
                "fine_level": 8,
                "substeps_per_knot": 8,
                # 1000 calls leave ten samples beyond the 99th percentile.
                "calls": 1000,
            },
            why="Per-path public API at batch size one with substep logs: per-call "
            "overhead dominates, and batch widening should not move it.",
        ),
    )
}


def config_for(workload: Workload, seed: int, **overrides) -> dict:
    """The program's input for one workload seed (overrides shrink tests)."""
    config = json.loads(json.dumps(workload.config))
    config.update(overrides)
    config["seed"] = workload.base_seed + seed
    return config


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
