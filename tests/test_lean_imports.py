"""With the native library, the per-path API and a study load no more than
they need.

Importing ``numpy.random`` raises a single path's peak resident memory by
about 2 MB and a study's by more, ``hashlib`` loads OpenSSL's libcrypto
(about 3.5 MB), a study runs in one process, so it never imports
``multiprocessing`` or ``concurrent.futures``, and ``subprocess`` (about
3 ms to import) only builds the library.  With the library loaded, path
seeds and streams are keyed in C and the library's cache key is hashed by
CPython's builtin SHA-256, so a single path, a coupled solve and a serial
``converge`` import none of them, also when its reference refines the fine
grid in several blocks, each on the thread that marches it.  Sampling a
path, or a tile's batch of paths, is one library call that keys, draws
and refines every level.  Each check runs in a fresh interpreter, since
imports are process-wide.  So does the check that the library holds only
what runs: a study, a coupled solve and a refinement call every entry
point its loader declares, but ``inline_ziggurat``, which only tests read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import reflectedsde as rs

SCRIPT = r"""
import contextlib
import io
import json
import sys
import threading

import reflectedsde as rs
from reflectedsde import brownian, cli, cover, harness

lib = brownian._native()
# Per library sampling or refinement, whether the caller's thread made it.
calls = []
for name in ("sample_paths", "refine_levels"):
    setattr(lib, name, lambda *args, _fn=getattr(lib, name): (
        calls.append(threading.current_thread() is threading.main_thread()) or _fn(*args)))

interval = rs.interval(-1.0, 1.0)
wavy = rs.trig([[0.5]], [[0.2]], [1.0], drift_matrix=[[-0.3]])
planar = rs.linear([[[0.1, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.1, 0.0]]],
                   [[0.4, 0.0], [0.0, 0.4]], drift_matrix=[[-0.5, 0.0], [0.0, -0.5]])
refinements = []
for domain, coeffs, x0 in ((interval, wavy, [0.0]), (rs.ball(1.0, dim=2), planar, [0.5, 0.0])):
    calls.clear()
    path = rs.sample_path(coeffs.dim_noise, 1.0, 8, harness.path_seed(3, 0))
    refinements.append(len(calls))
    rs.coupled_solve(domain, coeffs, path, 4, 8, x0, [1.0], record_substeps=True)
covered = cover.native_march(interval, wavy) is not None
# The config's 8 paths at level 3 (72 bytes each) are one tile on one
# thread, as the budget holds 16 paths' path arrays, and its reference
# refines them to level 5 in half the budget, in blocks of two coarse
# intervals: four blocks over T=1.
harness._CHUNK_BYTES = 2 * 8 * 8 * (2 * 4 + 1)
calls.clear()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["converge", "--config", sys.argv[1]])
loaded = [name for name in ("numpy.random", "hashlib", "multiprocessing",
                          "concurrent.futures", "subprocess") if name in sys.modules]
print(json.dumps({"refinements": refinements, "covered": covered, "code": code,
                  "converge_refinements": calls, "loaded": loaded}))
"""

CONFIG = {
    "domain": {"name": "interval", "params": {"a": -1.0, "b": 1.0}},
    "coefficients": {
        "name": "trig",
        "params": {"offset": [[0.5]], "amplitude": [[0.2]], "frequency": [1.0],
                   "drift_matrix": [[-0.3]]},
    },
    "x0": [0.0],
    "T": 1.0,
    "levels": [2, 3],
    "p_list": [2],
    "M": 8,
    "substeps_per_knot": 2,
    "fine_margin": 2,
    "seed": 5,
}


def test_single_paths_and_a_serial_converge_leave_numpy_random_unloaded(native, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    package_root = Path(rs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(config)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # Each single path is one library call.  The converge samples its tile
    # in one call and refines blocks 0 to 3, all on its own thread: one tile
    # of 8 paths on the caller's thread, and no thread per block.
    assert result == {"refinements": [1, 1], "covered": True, "code": 0,
                      "converge_refinements": [True] * 5, "loaded": []}


ENTRY_POINTS_SCRIPT = r"""
import contextlib
import io
import json
import sys

import reflectedsde as rs
from reflectedsde import brownian, cli

lib = brownian._native()
# ctypes keeps each function it has looked up on the library: the loader's
# declared entry points.
declared = sorted(name for name, fn in vars(lib).items() if isinstance(fn, lib._FuncPtr))
called = set()
for name in declared:
    setattr(lib, name, lambda *args, _fn=getattr(lib, name), _name=name: (
        called.add(_name) or _fn(*args)))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["converge", "--config", sys.argv[1]])
path = rs.sample_path(1, 1.0, 6, 3)
rs.coupled_solve(rs.interval(-1.0, 1.0), rs.trig([[0.5]], [[0.2]], [1.0]), path, 4, 8, [0.0],
                 [1.0], record_substeps=True)
rs.refine(path)
print(json.dumps({"code": code, "declared": declared, "called": sorted(called)}))
"""


def test_every_library_entry_point_serves_a_study_a_solve_or_a_refinement(native, tmp_path):
    # An entry point that no converge, coupled solve or refinement calls is
    # dead weight in the library; only the tests read inline_ziggurat.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    package_root = Path(rs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run([sys.executable, "-c", ENTRY_POINTS_SCRIPT, str(config)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0 and "sample_paths" in result["called"]
    assert [n for n in result["declared"] if n not in result["called"]] == ["inline_ziggurat"]


def test_importing_the_cli_leaves_subprocess_unloaded():
    # Only building the native library runs a child process, so only the
    # build imports ``subprocess``.
    package_root = Path(rs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    script = "import sys, reflectedsde.cli; print('subprocess' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


WORKERS_SCRIPT = r"""
import contextlib
import io
import json
import sys

from reflectedsde import brownian, cli

if sys.argv[3] == "numpy":
    brownian._native = lambda: None
reports = []
for config in sys.argv[1:3]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["converge", "--config", config])
    reports.append([code, out.getvalue()])
loaded = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
print(json.dumps({"reports": reports, "loaded": loaded}))
"""


def test_a_config_that_sets_workers_converges_in_one_process(tmp_path, request):
    # Older configs set "workers", the forked processes of a study, which
    # a study no longer has: the key loads and selects nothing, so the
    # report's bytes are those of a config without it, and nothing that
    # forks is imported.  At d = 1 natively where the session has the
    # library, else in numpy.
    plain, legacy = tmp_path / "plain.json", tmp_path / "legacy.json"
    config = dict(CONFIG, M=130)
    plain.write_text(json.dumps(config))
    legacy.write_text(json.dumps(dict(config, workers=2)))
    backend = "numpy" if request.config.getoption("--no-native") else "library"
    package_root = Path(rs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", WORKERS_SCRIPT, str(plain), str(legacy), backend], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    (code, report), legacy_run = result["reports"]
    assert code == 0 and json.loads(report)["rate"]["n_paths"] == 130
    assert legacy_run == [code, report] and result["loaded"] == []
