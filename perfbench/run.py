"""Benchmark of reflectedsde: coupled rate studies and the per-path API.

Run from the repository root, one workload at a time:

    python3 perfbench/run.py --workload rate_interval_1d --seed 0 --seconds 20 --trace 0
    for w in rate_interval_1d rate_annulus_2d single_path_ball_2d; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 20 --trace 0
    done

The program is imported from ``src/`` of the checkout; nothing is
installed.  Every measured unit runs in a fresh interpreter (so the
engine's in-process study cache cannot serve a repeated study), with
``workers=1`` and BLAS/OpenMP pinned to one thread.  Units repeat until
``--seconds`` have passed, each preceded by an interpreter that stops at
the first path and times set-up only (at least three such probes).

Times are reported in nominal seconds: each timed piece is rescaled by the
host's speed while it ran, sampled with a fixed kernel (see ``hostspeed``),
because other tenants of a shared host slow it by up to 1.9x for minutes
at a time.  The raw busy seconds of every unit are printed beside the
metrics.

End-to-end metrics (``--trace 0``), medians over the units of a run:

- ``setup_s``: process start to the first path drawn (imports, config
  parse and validation, building the domain and coefficients), over the
  probes and the units.
- ``wall_s``: one `reflectedsde converge`, or the program time of one sweep.
- ``paths_per_s``: coupled paths completed per second of ``wall_s``.
- ``path_ms_p50``, ``path_ms_p99``: on the sweep, per-call latency of
  ``sample_path`` + ``coupled_solve`` (1000 calls, so ten lie beyond the
  99th percentile).  On the rate workloads, amortised milliseconds per path
  of each batch the engine marches.
- ``peak_rss_mb``: peak resident memory of the unit's process.
- ``completed_path_frac``: 1 - failed paths / attempted paths; a unit that
  fails its output check counts all its paths as failed.

With ``--trace 1`` the run adds one traced unit and prints per-layer
metrics instead: self time (raw seconds) and counts of each module's entry
points (see ``unit.LAYER_METRICS``), time outside every top-level span, and
the traced unit's slow-down against the median untraced unit.

The last line of standard output is the result object; the line before it
holds provenance, check details, raw timings and trace coverage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import hostspeed
from checks import check_converge, check_sweep, load_reference
from unit import LAYER_METRICS
from workloads import WORKLOADS, config_for, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# Fewest set-up probes in a run.
SETUP_PROBES = 3
# Every unit must end this long after the run starts.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "paths_per_s": "1/s",
    "path_ms_p50": "ms",
    "path_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "completed_path_frac": "frac",
}
PER_LAYER = {
    name: (
        "frac" if name.endswith("_frac")
        else "s" if name.endswith((".s", "_s"))
        else "count"
    )
    for name in [n for names in LAYER_METRICS.values() for n in names]
    + ["trace.unattributed_s", "trace.overhead_frac"]
}


class UnitError(RuntimeError):
    """A unit's interpreter failed before it could report."""


def run_unit(mode: str, kind: str, config_path: Path, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "unit.py"), mode, kind, str(config_path)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise UnitError(f"{mode} unit did not finish within the run's deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise UnitError(f"{mode} unit exited with {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["setup"] = [spawned, out["first_path_t"],
                    out["first_path_t"] - spawned - out["setup_kernel_s"]]
    return out


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, **overrides) -> dict:
    """Run one workload and return its result object and the details beside it."""
    workload = WORKLOADS[name]
    config = config_for(workload, seed, **overrides)
    deadline = time.monotonic() + DEADLINE_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        # Set-up probes are spread between the units, so that they meet the
        # host in as many different states as the units do.
        probes, units = [], []
        start = time.monotonic()
        while not units or time.monotonic() - start < seconds:
            probes.append(run_unit("probe", workload.kind, config_path, deadline))
            units.append(run_unit("run", workload.kind, config_path, deadline))
        while len(probes) < SETUP_PROBES:
            probes.append(run_unit("probe", workload.kind, config_path, deadline))
        traced = run_unit("trace", workload.kind, config_path, deadline) if trace else None

    reference = load_reference()[name]
    check = check_converge if workload.kind == "converge" else check_sweep
    verdicts = [check(config, u, reference) for u in units + [traced] if u is not None]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    raw_walls = [raw_busy_s(workload.kind, u) for u in units]
    details = {
        "provenance": provenance(name, seed, config),
        "units": len(units),
        "setup_probes": len(probes),
        "raw_busy_s": raw_walls,
        "host_slowdown": [
            statistics.median(d for _, d in u["kernel_samples"]) / hostspeed.NOMINAL_KERNEL_S
            for u in units
        ],
        "checks": {
            "problems": [p for v in verdicts for p in v.problems][:20],
            "report_sha256": sorted({v.report_sha256 for v in verdicts if v.report_sha256}),
            "report_sha256_matches_recorded": [v.sha256_matches for v in verdicts
                                               if v.report_sha256],
        },
    }
    if traced is None:
        metrics = end_to_end(workload.kind, config, probes, units, verdicts)
        units_of = END_TO_END
    else:
        t = traced["trace"]
        metrics = dict(t["metrics"])
        metrics["trace.unattributed_s"] = t["wall_s"] - t["top_level_s"]
        metrics["trace.overhead_frac"] = t["wall_s"] / statistics.median(raw_walls) - 1.0
        details["trace"] = {
            "coverage": t["top_level_s"] / t["wall_s"],
            "traced_wall_s": t["wall_s"],
            "missing_layers": t["missing"],
        }
        units_of = PER_LAYER
    return {
        "result": {
            "correct": all(v.ok for v in verdicts),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        },
        "details": details,
    }


def end_to_end(kind, config, probes, units, verdicts) -> dict:
    """End-to-end metrics at nominal host speed (see ``hostspeed``)."""
    walls, latency = [], []
    for u in units:
        samples = u["kernel_samples"]
        if kind == "converge":
            walls.append(hostspeed.nominal(u["wall"], samples))
            latency += [1e3 * hostspeed.nominal(c, samples) / c[3] for c in u["chunks"]]
        else:
            calls = [1e3 * hostspeed.nominal(c, samples) for c in u["calls"]]
            walls.append(sum(calls) / 1e3)
            latency += calls
    if not latency:  # the engine no longer marches in timed batches
        latency = [1e3 * w / config["M"] for w in walls]
    return {
        "setup_s": statistics.median(hostspeed.nominal(u["setup"], u["kernel_samples"])
                                     for u in probes + units),
        "wall_s": statistics.median(walls),
        "paths_per_s": statistics.median(
            (v.attempted - v.failed) / w for v, w in zip(verdicts, walls)
        ),
        "path_ms_p50": percentile(latency, 50),
        "path_ms_p99": percentile(latency, 99),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in units),
        "completed_path_frac": 1.0 - sum(v.failed for v in verdicts)
        / sum(v.attempted for v in verdicts),
    }


def raw_busy_s(kind, unit) -> float:
    """Busy seconds of one unit as the host gave them."""
    if kind == "converge":
        return unit["wall"][2]
    return sum(busy for _, _, busy in unit["calls"])


def provenance(name: str, seed: int, config: dict) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "workload": name,
        "workload_seed": seed,
        "config_seed": config["seed"],
        "config_sha256": {n: digest(config_for(w, seed)) for n, w in WORKLOADS.items()},
        "pinned_env": THREAD_ENV,
    }


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reflectedsde" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except UnitError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = out["result"]
    print(f"# {args.workload} seed {args.seed}: {out['details']['units']} units, "
          f"correct={result['correct']}, failed {result['failed']} of {result['attempted']}")
    for key, metric in result["metrics"].items():
        print(f"{key:<32} {metric['value']:>18.6f} {metric['unit']}")
    print(json.dumps(out["details"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
