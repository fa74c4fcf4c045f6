"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q

They run the real units with few paths and few calls, so they check the
plumbing, the printed metrics and the output checks, not performance.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
import types

import pytest

import hostspeed
import run
import unit
from checks import check_converge, check_sweep, load_reference
from spans import Tracer
from workloads import WORKLOADS, config_for, digest

SMOKE = {
    "rate_interval_1d": {"M": 64},
    "rate_annulus_2d": {"M": 64},
    "single_path_ball_2d": {"calls": 40},
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_units(tmp_path_factory):
    """One untraced unit per workload, with its config."""
    units = {}
    for name, overrides in SMOKE.items():
        config = config_for(WORKLOADS[name], 0, **overrides)
        path = tmp_path_factory.mktemp(name) / "config.json"
        path.write_text(json.dumps(config))
        units[name] = config, run.run_unit("run", WORKLOADS[name].kind, path,
                                           time.monotonic() + 120)
    return units


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_prints_with_name_and_unit(name, trace, monkeypatch, capsys):
    smoke = functools.partial(run.measure, **SMOKE[name])
    monkeypatch.setattr(run, "measure", smoke)
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    details = json.loads(lines[-2])
    assert details["provenance"]["workload_seed"] == 1
    assert details["provenance"]["pinned_env"]["OMP_NUM_THREADS"] == "1"
    if trace:
        assert details["trace"]["coverage"] >= 0.95
        assert details["trace"]["missing_layers"] == {}
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _scaled_report(text, level, factor):
    report = json.loads(text)
    report["rate"]["errors"][level] *= factor
    return json.dumps(report)


@pytest.mark.parametrize("name", ["rate_interval_1d", "rate_annulus_2d"])
def test_corrupted_report_fails_and_counts_every_path(name, smoke_units):
    config, out = smoke_units[name]
    reference = load_reference()[name]
    assert check_converge(config, out, reference).ok
    corrupted = dict(out, report=_scaled_report(out["report"], 2, 10.0))
    verdict = check_converge(config, corrupted, reference)
    assert not verdict.ok and verdict.failed == config["M"]
    assert check_converge(config, dict(out, exit_code=1), reference).failed == config["M"]


def test_report_digest_is_compared_with_the_recorded_config(smoke_units):
    config, out = smoke_units["rate_interval_1d"]
    reference = load_reference()["rate_interval_1d"]
    assert check_converge(config, out, reference).sha256_matches is None
    full = dict(reference, digests={digest(config): "0" * 64})
    assert check_converge(config, out, full).sha256_matches is False


def test_corrupted_sweep_fails_and_counts_every_call(smoke_units):
    config, out = smoke_units["single_path_ball_2d"]
    reference = load_reference()["single_path_ball_2d"]
    assert check_sweep(config, out, reference).ok
    scaled = dict(out, sup=[10.0 * v for v in out["sup"]])
    verdict = check_sweep(config, scaled, reference)
    assert not verdict.ok and verdict.failed == config["calls"]
    raised = dict(out, raised=["call 3: NonFiniteState()"])
    verdict = check_sweep(config, raised, reference)
    assert verdict.ok and verdict.failed == 1


def test_trace_counts_repeat(tmp_path):
    config = config_for(WORKLOADS["rate_interval_1d"], 0, M=32, levels=[4, 5])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    deadline = time.monotonic() + 120
    first, second = (run.run_unit("trace", "converge", path, deadline)["trace"]["metrics"]
                     for _ in range(2))
    counts = [k for k in first if not k.endswith(".s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["harness.engine.calls"] == 2 and first["harness.engine.computed"] == 1
    assert first["brownian.sample_path.calls"] == 32
    # sigma twice per reference step, once per piecewise-linear step
    steps = first["solvers.reference.path_steps"] + first["solvers.wz.path_steps"]
    assert first["coefficients.sigma.calls"] * 32 == steps + first["solvers.reference.path_steps"]


def test_missing_entry_point_is_reported_not_zero():
    tracer = Tracer()
    tracer.patch("brownian.sample_path", types.SimpleNamespace(), "sample_path")
    tracer.patch("solvers.reference", types.SimpleNamespace(integrate_reference_batch=len),
                 "integrate_reference_batch", unit._reference_steps)
    out = unit.trace_metrics(tracer, 1.0)
    assert set(out["missing"]) == {"brownian.sample_path", "solvers.reference"}
    assert not any(k.startswith(("brownian.sample_path", "solvers.reference"))
                   for k in out["metrics"])
    assert "solvers.wz.s" in out["metrics"]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: (time.sleep(0.01), inner()))
    outer()
    assert 0.02 <= tracer.self_s["inner"] < 0.03
    assert 0.01 <= tracer.self_s["outer"] < 0.02
    assert tracer.top_level_s == pytest.approx(tracer.self_s["inner"] + tracer.self_s["outer"],
                                               abs=1e-3)


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_fails_without_program_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate_interval_1d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_nominal_rescales_by_the_kernel_speed_while_the_piece_ran(monkeypatch):
    monkeypatch.setattr(hostspeed, "WINDOW_S", 1.0)
    k = hostspeed.NOMINAL_KERNEL_S
    samples = [[t * 0.1, 2 * k if t < 50 else k] for t in range(100)]
    assert hostspeed.nominal([1.0, 3.0, 4.0], samples) == pytest.approx(2.0)
    assert hostspeed.nominal([7.0, 9.0, 4.0], samples) == pytest.approx(4.0)
    # a short piece takes the samples of a window around it: 4 slow, 6 fast
    assert hostspeed.nominal([5.0, 5.01, 1.0], samples) == pytest.approx(0.8)


def test_sampler_leaves_its_own_time_out():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        end = time.monotonic() + 0.35
        while time.monotonic() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert sampler.spent == pytest.approx(sum(d for _, d in sampler.samples))
