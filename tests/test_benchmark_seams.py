"""The names the benchmark (``perfbench/``) patches or reads still exist.

The benchmark times each layer by replacing module attributes and
dataclass fields by name; a renamed one drops its layer from the trace.
``pytest perfbench`` catches that only in its slow smoke runs, so this
test traces as the benchmark's units do, in a fresh interpreter (the
patches are process-wide), without running a study.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json

import unit
from spans import Tracer
from workloads import WORKLOADS, config_for

from reflectedsde import cli, harness, make_coefficients, make_domain, solvers

unit._check_source(harness)
tracer = Tracer()
# A converge unit: its patches, then the config's validation, which builds
# the domain and coefficients through the traced factories.
unit._trace_converge(tracer)
for workload in WORKLOADS.values():
    if workload.kind == "converge":
        cli.ExperimentConfig.from_dict(config_for(workload, 0)).validate()
# A sweep unit's patches.
unit._trace_solvers(tracer, solvers)
tracer.patch("coefficients.eval", solvers, "ito_drift_batch")
for name, params in (
    ("interval", {"a": -1.0, "b": 1.0}),
    ("box", {"lo": [0.0, 0.0], "hi": [1.0, 2.0]}),
    ("ball", {"radius": 1.0}),
    ("annulus", {"r1": 0.5, "r2": 1.0}),
):
    unit._traced_domain(tracer, make_domain(name, **params))
for name, params in (
    ("constant", {"sigma": [[0.5]]}),
    ("linear", {"A": [[[0.1]]]}),
    ("trig", {"offset": [[0.5]], "amplitude": [[0.2]], "frequency": [1.0]}),
):
    unit._traced_coefficients(tracer, make_coefficients(name, **params))
# Read by the untraced units.
absent = [n for n in ("_chunk_stats", "run_coupling_stats", "path_seed")
          if not callable(getattr(harness, n, None))]
print(json.dumps({"missing": dict(tracer.missing), "absent": absent}))
"""


def test_every_benchmark_seam_is_traced():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"missing": {}, "absent": []}


SWEEP = r"""
import json

import unit
from spans import Tracer
from workloads import WORKLOADS, config_for

import reflectedsde as rs
from reflectedsde import harness, solvers

# A sweep unit's patches, domain and coefficients, and three of its calls.
config = config_for(WORKLOADS["single_path_ball_2d"], 0)
tracer = Tracer()
unit._trace_solvers(tracer, solvers)
tracer.patch("coefficients.eval", solvers, "ito_drift_batch")
domain = unit._traced_domain(tracer, rs.make_domain(config["domain"]["name"],
                                                    **config["domain"]["params"]))
coeffs = unit._traced_coefficients(tracer, rs.make_coefficients(
    config["coefficients"]["name"], **config["coefficients"]["params"]))
for i in range(3):
    path = rs.sample_path(coeffs.dim_noise, config["T"], config["fine_level"],
                          harness.path_seed(config["seed"], i))
    rs.coupled_solve(domain, coeffs, path, config["level"], config["substeps_per_knot"],
                     config["x0"], [config["T"]], record_substeps=True)
print(json.dumps({"counts": tracer.counts, "entered": sorted(tracer.self_s),
                  "missing": tracer.missing}))
"""


def test_a_traced_sweep_attributes_every_layer():
    # Three calls of the single-path workload (ball, linear, level 4, fine
    # level 8, 8 substeps, one output at T = 1) under the sweep unit's
    # spans: each marches 128 Wong-Zakai steps and 256 reference steps, and
    # the schedule, slope, geometry and coefficient spans are all entered,
    # so no refactor of the single-path route can zero a layer unnoticed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SWEEP],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == {}
    assert result["counts"]["solvers.wz.path_steps"] == 3 * 128
    assert result["counts"]["solvers.reference.path_steps"] == 3 * 256
    for layer in ("solvers.schedule", "brownian.wz_knot_slopes", "geometry.eval",
                  "coefficients.eval"):
        assert layer in result["entered"], layer


def test_a_serial_converge_enters_the_group_march_once(tmp_path, monkeypatch, capsys):
    # The benchmark's per-path latency of a rate workload is the time of
    # each ``harness._chunk_stats`` call, which it wraps through the module
    # attribute, over the rows of the first array it returns.  A serial
    # converge enters it once, with one row per path.
    from reflectedsde import cli, harness

    calls, chunk_stats = [], harness._chunk_stats

    def timed(*args, **kwargs):
        out = chunk_stats(*args, **kwargs)
        calls.append(len(out[0]))
        return out

    monkeypatch.setattr(harness, "_chunk_stats", timed)
    config = {
        "domain": {"name": "interval", "params": {"a": -1.0, "b": 1.0}},
        "coefficients": {"name": "trig", "params": {"offset": [[0.5]], "amplitude": [[0.2]],
                                                    "frequency": [1.0]}},
        "x0": [0.0], "T": 1.0, "levels": [3, 4], "p_list": [2], "M": 150,
        "fine_margin": 2, "substeps_per_knot": 2, "seed": 3, "workers": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["converge", "--config", str(path)]) == 0
    capsys.readouterr()
    assert calls == [150]
