"""Output checks of one measured unit against thresholds and a recorded reference.

``reference.json`` holds, per workload, pooled statistics from many seeds
(see ``record_reference.py``).  A unit's estimate passes when it lies within
``Z_LIMIT`` combined standard errors of the pooled value, so the check holds
for any workload seed while a corrupted level still fails it.  A unit that
fails its check counts every path it attempted as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SLOPE_MIN, digest

Z_LIMIT = 6.0
REFERENCE_FILE = Path(__file__).resolve().with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    report_sha256: str | None = None
    sha256_matches: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _z_problems(label, values, stderrs, ref):
    problems = []
    for j, (v, se, mu, mu_se) in enumerate(zip(values, stderrs, ref["mean"], ref["se"])):
        scale = math.hypot(se, mu_se)
        if not (math.isfinite(v) and abs(v - mu) <= Z_LIMIT * scale):
            problems.append(f"{label}[{j}] = {v:.6g}, reference {mu:.6g} +- {scale:.3g}")
    if len(values) != len(ref["mean"]):
        problems.append(f"{label} has {len(values)} entries, reference {len(ref['mean'])}")
    return problems


def rate_series(report: dict) -> dict:
    """Per-level estimates and standard errors of a `converge` report."""
    rate, lyap = report["rate"], report["lyapunov"]
    return {
        "rate.errors": (rate["errors"], rate["stderrs"]),
        "rate.final_errors": (rate["final_errors"], rate["final_stderrs"]),
        "lyapunov.means": (lyap["means"], lyap["stderrs"]),
    }


def check_converge(config: dict, unit: dict, reference: dict) -> Verdict:
    """Exit code, acceptance slopes and per-level errors of one `converge`."""
    M = config["M"]
    text = unit.get("report", "")
    verdict = Verdict(attempted=M, failed=0)
    verdict.report_sha256 = hashlib.sha256(text.encode()).hexdigest()
    recorded = reference.get("digests", {}).get(digest(config))
    if recorded is not None:
        verdict.sha256_matches = recorded == verdict.report_sha256
    problems = verdict.problems
    if unit.get("error"):
        problems.append(f"converge raised {unit['error']}")
    if unit.get("exit_code") != 0:
        problems.append(f"exit code {unit.get('exit_code')}")
    try:
        report = json.loads(text)
        rate, lyap = report["rate"], report["lyapunov"]
        verdict.failed = int(rate["n_failed"])
        if rate["levels"] != config["levels"] or rate["n_paths"] != M:
            problems.append(f"report covers levels {rate['levels']} with {rate['n_paths']} paths")
        for label, slope in (("rate final_slope", rate["final_slope"]),
                             ("lyapunov slope", lyap["slope"])):
            if slope is None or not slope >= SLOPE_MIN:
                problems.append(f"{label} {slope} below {SLOPE_MIN}")
        for label, (values, stderrs) in rate_series(report).items():
            problems += _z_problems(label, values, stderrs, reference["series"][label])
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    if problems:
        verdict.failed = M
    return verdict


def mean_se(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def check_sweep(config: dict, unit: dict, reference: dict) -> Verdict:
    """Per-call output checks, then coupled statistics against the engine.

    A call that raises is a failed path; a call that returns a wrong
    output fails the check.
    """
    calls = config["calls"]
    verdict = Verdict(attempted=calls, failed=len(unit["raised"]), problems=list(unit["bad"]))
    if len(unit["sup"]) < 2:
        verdict.problems.append("fewer than two calls succeeded")
    else:
        for key in ("sup", "ref_var"):
            mean, se = mean_se(unit[key])
            verdict.problems += _z_problems(f"mean {key}", [mean], [se], reference["series"][key])
    if verdict.problems:
        verdict.failed = calls
    return verdict
