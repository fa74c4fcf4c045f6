"""The native march against the numpy march, and which studies it covers.

The native march (``_march.c``) runs a one-dimensional box with a built-in
family at d = m = 1 when the native library loads; every other study, and
every study under ``--no-native``, runs the numpy march.  The byte tests
run each march both ways, the second time with the library switched off,
and compare every array they return, NaNs and signed zeros included.
"""

import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import brownian, solvers
from reflectedsde.brownian import FineBlocks
from reflectedsde.coefficients import CoefficientSet
from reflectedsde.solvers import integrate_reference_batch, integrate_wz_batch, wz_schedule

FAMILIES = {
    # Negative sigma: the zero derivative times sigma is a -0.0 product.
    "constant_negative": lambda: rs.constant(
        [[-0.4]], drift_matrix=[[-0.5]], drift_offset=[0.05]
    ),
    # No drift matrix: numpy's dot skips a zero factor for two or more rows.
    "constant_no_drift": lambda: rs.constant([[0.3]]),
    # A -0.0 drift offset keeps a -0.0 drift, so each sign of zero shows.
    "constant_signed_zeros": lambda: rs.constant([[-0.4]], drift_offset=[-0.0]),
    "linear": lambda: rs.linear(
        [[[0.3]]], [[0.4]], drift_matrix=[[-0.2]], drift_offset=[-0.1]
    ),
    "trig": lambda: rs.trig([[0.5]], [[0.2]], [1.0], drift_matrix=[[-0.3]]),
    "trig_phase": lambda: rs.trig(
        [[-0.5]], [[0.3]], [1.5], phase=[[0.7]], drift_matrix=[[-0.4]], drift_offset=[0.2]
    ),
    "trig_zero_frequency": lambda: rs.trig(
        [[0.5]], [[0.2]], [0.0], phase=[[-0.0]], drift_offset=[-0.0]
    ),
}

DOMAINS = {
    "interval": lambda: rs.interval(-1.0, 1.0),
    "box_from_zero": lambda: rs.box([0.0], [0.7]),
    "interval_to_zero": lambda: rs.interval(-0.5, 0.0),
}


def _starts(domain):
    """Starts at both bounds, at signed zeros, inside, and not finite."""
    lo, hi = domain.resolve_batch.clip
    rows = [lo, hi, 0.0, -0.0, 0.5 * (lo + hi), np.nan, np.inf, -np.inf]
    return np.array(rows)[:, None]


def _slopes(B, K, seed):
    """Knot slopes, zero on the first interval as the lagged interpolant's
    are, with rows that overflow: a huge slope drives the state to
    infinity, and the march on to NaN."""
    slopes = np.random.default_rng(seed).normal(0.0, 4.0, (B, K, 1))
    slopes[:, 0] = 0.0
    slopes[::3, K // 2] = 1e308
    slopes[1::4, K // 3] = -1e308
    return slopes


def _arrays(result):
    """Every array of a march result or a ``ReflectedPath``, flattened."""
    if result is None:
        return []
    if isinstance(result, np.ndarray):
        return [(result.dtype.str, result.shape, result.tobytes())]
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return [a for item in result for a in _arrays(item)]
    return [result]


def _both(monkeypatch, run):
    """``run()`` with the native march, then with the numpy march."""
    with np.errstate(all="ignore"):
        native = _arrays(run())
        with monkeypatch.context() as m:
            m.setattr(brownian, "_native", lambda: None)
            numpy = _arrays(run())
    return native, numpy


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_wz_march_gives_the_numpy_bytes(native, monkeypatch, family, domain_name):
    domain, coeffs = DOMAINS[domain_name](), FAMILIES[family]()
    x0 = _starts(domain)
    n, substeps = 3, 3
    times, knot_idx, out_pos = wz_schedule(n, substeps, [0.0, 0.3, 5 / 12, 1.0], 1.0)
    slopes = _slopes(len(x0), 2**n, 7)
    # Every row of the batch, then each row alone with its step log.
    runs = [(x0, slopes, False)] + [(x0[i : i + 1], slopes[i : i + 1], True)
                                    for i in range(len(x0))]
    for start, slope, log in runs:
        native_arrays, numpy_arrays = _both(monkeypatch, lambda: integrate_wz_batch(
            domain, coeffs, start, slope, times, knot_idx, out_pos, log))
        assert native_arrays == numpy_arrays


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reference_march_gives_the_numpy_bytes(native, monkeypatch, family, domain_name):
    domain, coeffs = DOMAINS[domain_name](), FAMILIES[family]()
    x0 = _starts(domain)
    B = len(x0)
    coarse = rs.sample_path(1, 1.0, 3, list(range(B)))
    fine_level = 6
    # Outputs at the start, repeated, and a last one inside a block.
    out_steps = np.array([0, 0, 5, 8, 8, 37])

    def blocks(rows):
        # One coarse interval per block, with a zero first increment and a
        # huge knot that overflows.
        for start, values in FineBlocks(coarse, fine_level, 64, 1).blocks():
            values = values[rows].copy()
            if start == 0:
                values[:, 1] = values[:, 0]
            if start == 16:
                values[:, 3] = 1e308
            yield start, values

    for rows, log in [(slice(None), False)] + [(slice(i, i + 1), True) for i in range(B)]:
        native_arrays, numpy_arrays = _both(monkeypatch, lambda: integrate_reference_batch(
            domain, coeffs, x0[rows], blocks(rows), fine_level, out_steps, log))
        assert native_arrays == numpy_arrays


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_single_path_solves_give_the_numpy_bytes(native, monkeypatch, family):
    coeffs = FAMILIES[family]()
    for domain_name, make in sorted(DOMAINS.items()):
        domain = make()
        x0 = domain.resolve_batch.clip[0]
        path = rs.sample_path(1, 1.0, 8, 21)
        for solve in (
            lambda: rs.solve_wz(domain, coeffs, path, 4, 3, [x0], [0.3, 5 / 12, 1.0], True),
            lambda: rs.solve_reference(domain, coeffs, path, [x0], [0.25, 1.0], True),
            lambda: rs.coupled_solve(domain, coeffs, path, 5, 8, [x0], [1.0], True),
        ):
            native_arrays, numpy_arrays = _both(monkeypatch, solve)
            assert native_arrays == numpy_arrays


@pytest.mark.parametrize("M", [2, 3, 67])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engine_stats_give_the_numpy_bytes(native, monkeypatch, family, M):
    domain, coeffs = DOMAINS["box_from_zero"](), FAMILIES[family]()
    native_arrays, numpy_arrays = _both(monkeypatch, lambda: rs.run_coupling_stats(
        domain, coeffs, [0.0], 0.7, (2, 4), M, 3, 3, seed=8))
    assert native_arrays == numpy_arrays


def test_the_march_covers_each_built_in_family_on_a_1d_box(native):
    for family in FAMILIES.values():
        for domain in [make() for make in DOMAINS.values()] + [
            dataclasses.replace(rs.interval(-1.0, 1.0), name="renamed", c0=0.5)
        ]:
            assert solvers._native_march(domain, family()) is not None


def _wrapped(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)

    return wrapper


def _uncovered():
    """Studies the native march leaves to numpy: ``(domain, coeffs, twin)``
    by name, where a twin is the built-in study whose numbers they repeat."""
    interval, trig = rs.interval(-1.0, 1.0), FAMILIES["trig_phase"]()
    twin = (interval, trig)
    return {
        "replaced sigma": (interval, dataclasses.replace(trig, sigma=lambda y: trig.sigma(y)),
                           twin),
        "replaced b": (interval, dataclasses.replace(trig, b=lambda y: trig.b(y)), twin),
        "replaced grad_sigma": (
            interval, dataclasses.replace(trig, grad_sigma=lambda y: trig.grad_sigma(y)), twin),
        "wrapped b": (interval, dataclasses.replace(trig, b=_wrapped(trig.b)), twin),
        "replaced resolve_batch": (dataclasses.replace(
            interval, resolve_batch=lambda X, V: interval.resolve_batch(X, V)), trig, twin),
        "wrapped resolve_batch": (dataclasses.replace(
            interval, resolve_batch=_wrapped(interval.resolve_batch)), trig, twin),
        "three callables": (interval, CoefficientSet(
            lambda y: trig.sigma(y), lambda y: trig.b(y), lambda y: trig.grad_sigma(y), 1, 1),
            twin),
        "another set's sigma": (
            interval, dataclasses.replace(trig, sigma=FAMILIES["trig"]().sigma), None),
        "m = 2": (interval, rs.trig([[0.5, 0.1]], [[0.2, 0.1]], [1.0], drift_matrix=[[-0.3]]),
                  None),
        "2-d box": (rs.box([0.0, 0.0], [1.0, 1.0]), rs.trig(
            [[0.5, 0.0], [0.0, 0.5]], [[0.2, 0.0], [0.0, 0.2]], [1.0, 0.5]), None),
    }


UNCOVERED = _uncovered()


@pytest.mark.parametrize("case", sorted(UNCOVERED))
def test_uncovered_studies_run_the_numpy_march(monkeypatch, case):
    domain, coeffs, twin = UNCOVERED[case]
    assert solvers._native_march(domain, coeffs) is None

    def stats(domain, coeffs):
        x0 = np.full(domain.dim, 0.25)
        return rs.run_coupling_stats(domain, coeffs, x0, 1.0, (2, 3), 5, 2, 3, seed=4)

    native_arrays, numpy_arrays = _both(monkeypatch, lambda: stats(domain, coeffs))
    assert native_arrays == numpy_arrays
    if twin is not None:
        # The same numbers as the built-in, which the library marches.
        assert native_arrays == _arrays(stats(*twin))


def test_no_native_runs_the_numpy_march(request):
    if not request.config.getoption("--no-native"):
        pytest.skip("the library may run; this checks the --no-native session")
    assert brownian.native_library() is None
    assert solvers._native_march(rs.interval(-1.0, 1.0), FAMILIES["trig"]()) is None


def test_the_library_key_covers_both_sources(monkeypatch, tmp_path):
    key = brownian._library_path()
    for source in brownian._SOURCES:
        copies = []
        for other in brownian._SOURCES:
            copy = tmp_path / other.name
            text = other.read_text()
            copy.write_text(text + "/* changed */\n" if other == source else text)
            copies.append(copy)
        monkeypatch.setattr(brownian, "_SOURCES", copies)
        assert brownian._library_path() != key
        monkeypatch.undo()
    assert brownian._library_path() == key


_SETUP = """
import json
from reflectedsde import brownian, cli
config = cli.ExperimentConfig.from_dict(json.loads({config!r}))
config.validate()
print(brownian._native.cache_info().currsize)
"""


def test_import_and_validation_load_no_library(tmp_path):
    config = {
        "domain": {"name": "interval", "params": {"a": -1.0, "b": 1.0}},
        "coefficients": {"name": "trig", "params": {
            "offset": [[0.5]], "amplitude": [[0.2]], "frequency": [1.0]}},
        "x0": [0.0], "T": 1.0, "levels": [2, 3], "M": 4, "fine_margin": 2,
        "substeps_per_knot": 2, "seed": 1,
    }
    package_root = Path(rs.__file__).resolve().parents[1]
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP.format(config=json.dumps(config))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    assert not (tmp_path / "reflectedsde").exists()


@pytest.mark.parametrize("family", ["trig", "linear"])
def test_both_marches_reject_a_block_that_skips_knots(monkeypatch, family):
    # The second block starts two knots after the first one ends, so the
    # march would read a knot before the block.
    domain, coeffs = DOMAINS["interval"](), FAMILIES[family]()
    values = rs.sample_path(1, 1.0, 4, [1, 2]).values
    blocks = [(0, values[:, :5]), (6, values[:, 6:])]
    for library in (brownian._native, lambda: None):
        monkeypatch.setattr(brownian, "_native", library)
        with pytest.raises(ValueError, match="^each block must hold"):
            integrate_reference_batch(domain, coeffs, np.zeros((2, 1)), blocks, 4, [16])


def test_every_library_source_is_package_data():
    # An installed package without one of the sources cannot build the
    # library, and every stream and march would fall back to numpy.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        package_data = tomllib.load(f)["tool"]["setuptools"]["package-data"]["reflectedsde"]
    assert {source.name for source in brownian._SOURCES} <= set(package_data)


# One study each side of the native march's cover: the interval marches in
# the library where it loads, the 2-d ball always in numpy.
RULE_STUDIES = {
    "interval": lambda: (DOMAINS["interval"](), FAMILIES["trig"]()),
    "ball": lambda: (rs.ball(1.0, dim=2), rs.trig(
        [[0.5, 0.0], [0.0, 0.5]], [[0.2, 0.0], [0.0, 0.2]], [1.0, 0.5])),
}


def _backends(monkeypatch):
    """Runs the loop body with the library as the session has it, then
    switched off."""
    for library in (brownian._native, lambda: None):
        monkeypatch.setattr(brownian, "_native", library)
        yield


@pytest.mark.parametrize("study", sorted(RULE_STUDIES))
def test_both_marches_reject_too_few_blocks(monkeypatch, study):
    # The only block ends at knot 4, and the last output is at knot 16.
    domain, coeffs = RULE_STUDIES[study]()
    values = rs.sample_path(coeffs.dim_noise, 1.0, 4, [1, 2]).values
    x0 = np.zeros((2, domain.dim))
    for _ in _backends(monkeypatch):
        with pytest.raises(ValueError, match="^each block must hold"):
            integrate_reference_batch(domain, coeffs, x0, [(0, values[:, :5])], 4, [0, 16])


@pytest.mark.parametrize("study", sorted(RULE_STUDIES))
def test_both_marches_reject_a_narrower_brownian_batch(monkeypatch, study):
    # Three states and one Brownian row: no march broadcasts the row.
    domain, coeffs = RULE_STUDIES[study]()
    path = rs.sample_path(coeffs.dim_noise, 1.0, 4, 3)
    x0 = np.zeros((3, domain.dim))
    times, knot_idx, out_pos = wz_schedule(2, 2, [1.0], 1.0)
    slopes = rs.wz_knot_slopes(path, 2)[None]
    for _ in _backends(monkeypatch):
        with pytest.raises(ValueError, match="one row per state row"):
            integrate_wz_batch(domain, coeffs, x0, slopes, times, knot_idx, out_pos)
        with pytest.raises(ValueError, match="one row per state row"):
            integrate_reference_batch(domain, coeffs, x0, [(0, path.values[None])], 4, [16])
