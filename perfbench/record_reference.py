"""Regenerate ``reference.json``, the recorded outputs the checks compare against.

    python3 perfbench/record_reference.py

For each rate workload it runs `converge` at workload seeds 0..7 and keeps
the per-level estimates pooled over the seeds (mean of the estimates, and
their standard error) together with each report's digest, keyed by the
digest of its config.  For the sweep it runs the batched engine on the
same paths the sweep draws, at 16 times the sweep's path count, and keeps the mean and standard error of the
per-path sup distance and reference regulator variation.

Regenerate only when the program's numbers change on purpose, and say why.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
import time
from pathlib import Path

from checks import REFERENCE_FILE, mean_se, rate_series
from run import DEADLINE_S, ROOT, run_unit
from workloads import WORKLOADS, config_for, digest

SEEDS = range(8)
SWEEP_PATH_FACTOR = 16


def converge_reference(name: str) -> dict:
    workload = WORKLOADS[name]
    series, digests = {}, {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for seed in SEEDS:
            config = config_for(workload, seed)
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            unit = run_unit("run", workload.kind, path, time.monotonic() + DEADLINE_S)
            if unit["exit_code"] != 0:
                raise SystemExit(f"{name} seed {seed}: exit code {unit['exit_code']}")
            report = json.loads(unit["report"])
            for key, (values, stderrs) in rate_series(report).items():
                series.setdefault(key, []).append((values, stderrs))
            digests[digest(config)] = hashlib.sha256(unit["report"].encode()).hexdigest()
    pooled = {}
    for key, runs in series.items():
        n = len(runs)
        pooled[key] = {
            "mean": [sum(v[j] for v, _ in runs) / n for j in range(len(runs[0][0]))],
            "se": [math.sqrt(sum(s[j] ** 2 for _, s in runs)) / n for j in range(len(runs[0][1]))],
        }
    return {"seeds": list(SEEDS), "series": pooled, "digests": digests}


def sweep_reference(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import reflectedsde as rs
    from reflectedsde.harness import run_coupling_stats

    config = config_for(WORKLOADS[name], 0)
    paths = SWEEP_PATH_FACTOR * config["calls"]
    stats = run_coupling_stats(
        rs.make_domain(config["domain"]["name"], **config["domain"]["params"]),
        rs.make_coefficients(config["coefficients"]["name"], **config["coefficients"]["params"]),
        config["x0"],
        config["T"],
        [config["level"]],
        paths,
        config["fine_level"] - config["level"],
        config["substeps_per_knot"],
        config["seed"],
    )
    series = {}
    for key, values in (("sup", stats.sup_dist[:, 0]), ("ref_var", stats.ref_var_final)):
        mean, se = mean_se([float(v) for v in values])
        series[key] = {"mean": [mean], "se": [se]}
    return {"paths": paths, "engine_seed": config["seed"], "series": series}


def main():
    reference = {}
    for name, workload in WORKLOADS.items():
        build = converge_reference if workload.kind == "converge" else sweep_reference
        reference[name] = build(name)
        print(f"recorded {name}", flush=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
