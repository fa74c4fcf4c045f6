"""The native march against the numpy march, and which studies it covers.

The native march (``_march.c``) runs a built-in family on a
one-dimensional box at d = m = 1, and on a box, ball or annulus at
d = m = 2, a single path included, when the native library loads; every other
study, and every study under ``--no-native``, runs the numpy march.  The
byte tests run each march both ways, the second time with the library
switched off, and compare every array they return, NaNs and signed zeros
included.
"""

import ctypes
import dataclasses
import functools
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import brownian, coefficients, cover
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
    _, _, (lo, hi) = domain.resolve_batch.native
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
        x0 = domain.resolve_batch.native[2][0]
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
        rs.Study(domain, coeffs, [0.0], 0.7, (2, 4), M, 3, 3, seed=8)))
    assert native_arrays == numpy_arrays


def test_the_march_covers_each_built_in_family_on_a_1d_box(native):
    for family in FAMILIES.values():
        for domain in [make() for make in DOMAINS.values()] + [
            dataclasses.replace(rs.interval(-1.0, 1.0), name="renamed", c0=0.5)
        ]:
            for width in (1, 2, 67):
                assert cover.native_march(domain, family(), width) is not None


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
    }


UNCOVERED = _uncovered()


@pytest.mark.parametrize("case", sorted(UNCOVERED))
def test_uncovered_studies_run_the_numpy_march(monkeypatch, case):
    domain, coeffs, twin = UNCOVERED[case]
    assert cover.native_march(domain, coeffs, 5) is None

    def stats(domain, coeffs):
        x0 = np.full(domain.dim, 0.25)
        return rs.run_coupling_stats(rs.Study(domain, coeffs, x0, 1.0, (2, 3), 5, 2, 3, seed=4))

    native_arrays, numpy_arrays = _both(monkeypatch, lambda: stats(domain, coeffs))
    assert native_arrays == numpy_arrays
    if twin is not None:
        # The same numbers as the built-in, which the library marches.
        assert native_arrays == _arrays(stats(*twin))


def test_no_native_runs_the_numpy_march(request):
    if not request.config.getoption("--no-native"):
        pytest.skip("the library may run; this checks the --no-native session")
    assert brownian.native_library() is None
    assert cover.native_march(rs.interval(-1.0, 1.0), FAMILIES["trig"](), 2) is None
    assert cover.native_march(*_planar_study(), 2) is None


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


# One study of each dimension the native march covers; each rule test runs
# both backends.
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


@pytest.mark.parametrize("study", sorted(RULE_STUDIES))
@pytest.mark.parametrize("positions", [[5, 2], [3, 99], [-1, 2], [[0, 1]], [0.0, 2.0]],
                         ids=["descending", "past_the_end", "negative", "nested", "floats"])
def test_both_marches_reject_output_positions_out_of_order_or_range(
    monkeypatch, study, positions
):
    # A position the march never passes, or passes before an earlier
    # output's, would leave that output unwritten.  The reference marches
    # to its last output, so there a position past the path's end is too
    # few blocks.
    reference_rule = "^each block must hold" if positions == [3, 99] else "^output positions"
    domain, coeffs = RULE_STUDIES[study]()
    path = rs.sample_path(coeffs.dim_noise, 1.0, 4, [1, 2])
    x0 = np.zeros((2, domain.dim))
    times, knot_idx, _ = wz_schedule(2, 2, [1.0], 1.0)
    slopes = rs.wz_knot_slopes(path, 2)
    for _ in _backends(monkeypatch):
        with pytest.raises(ValueError, match="^output positions must be ascending"):
            integrate_wz_batch(domain, coeffs, x0, slopes, times, knot_idx, positions)
        with pytest.raises(ValueError, match=reference_rule):
            integrate_reference_batch(domain, coeffs, x0, [(0, path.values)], 4, positions)


@pytest.mark.parametrize("study", sorted(RULE_STUDIES))
def test_both_marches_reject_a_step_log_of_a_wider_batch(monkeypatch, study):
    # A step log is of one path: a wider batch has no one row to log.
    domain, coeffs = RULE_STUDIES[study]()
    path = rs.sample_path(coeffs.dim_noise, 1.0, 4, [1, 2, 3])
    x0 = np.zeros((3, domain.dim))
    times, knot_idx, out_pos = wz_schedule(3, 2, [0.5, 1.0], 1.0)
    slopes = rs.wz_knot_slopes(path, 3)
    for _ in _backends(monkeypatch):
        with pytest.raises(ValueError, match="^a step log is of one path"):
            integrate_wz_batch(domain, coeffs, x0, slopes, times, knot_idx, out_pos, True)
        with pytest.raises(ValueError, match="^a step log is of one path"):
            integrate_reference_batch(domain, coeffs, x0, [(0, path.values)], 4, [8, 16], True)


# ---------------------------------------------------------------------------
# The planar march: d = m = 2
# ---------------------------------------------------------------------------

_SIGMA = [[0.6, 0.1], [0.1, 0.6]]
_DRIFT = [[-0.5, 0.2], [-0.1, -0.4]]

PLANAR_FAMILIES = {
    # Negative entries: the zero derivative times sigma is a -0.0 product.
    "constant_negative": lambda: rs.constant(
        [[-0.4, -0.1], [-0.1, -0.3]], drift_matrix=_DRIFT, drift_offset=[0.05, -0.0]
    ),
    # No drift matrix: BLAS's gemm of a zero matrix, and -0.0 offsets.
    "constant_no_drift": lambda: rs.constant(_SIGMA, drift_offset=[-0.0, -0.0]),
    "linear": lambda: rs.linear(
        [[[0.3, -0.2], [0.1, 0.0]], [[-0.0, 0.1], [0.25, -0.3]]], [[0.4, 0.0], [-0.1, 0.5]],
        drift_matrix=_DRIFT, drift_offset=[-0.1, 0.2],
    ),
    "trig": lambda: rs.trig(_SIGMA, [[0.3, 0.1], [0.1, 0.3]], [1.0, 2.0], drift_matrix=_DRIFT),
    "trig_two_phases": lambda: rs.trig(
        [[-0.5, 0.1], [0.2, 0.6]], [[0.3, -0.2], [0.1, 0.3]], [1.5, -0.5],
        phase=[[0.7, 0.0], [0.0, 0.7]], drift_matrix=_DRIFT, drift_offset=[0.2, -0.1],
    ),
    # Four distinct phases, a zero frequency and no drift.
    "trig_four_phases": lambda: rs.trig(
        _SIGMA, [[0.3, 0.1], [-0.1, 0.3]], [0.0, 2.0], phase=[[0.3, -0.0], [1.1, -0.6]]
    ),
}

PLANAR_DOMAINS = {
    # Bounds at -0.0, so that a state reaching one at +0.0 takes its sign.
    "box": lambda: rs.box([-0.0, -0.5], [1.0, -0.0]),
    "ball": lambda: rs.ball(1.0, dim=2),
    "annulus": lambda: rs.annulus(0.5, 1.0, dim=2),
}

# Widths either side of geometry.sum_squares's column switch (64 rows) and
# coefficients.COLUMN_MIN_ROWS (512), and one that is no multiple of the
# native march's 64-row tile.
PLANAR_WIDTHS = (2, 63, 64, 65, 200, 511, 512, 513)

# Starts on both annulus spheres (on the ball's sphere and inside the box
# too), at the centre, at -0.0, outside every domain and not finite.
_PLANAR_STARTS = [
    [0.5, 0.0], [0.0, -0.5], [0.6, 0.8], [-1.0, 0.0], [0.0, 0.0], [-0.0, -0.0],
    [-0.0, 0.75], [1.0, -0.0], [0.5, -0.25], [2.0, -3.0], [np.nan, 0.3], [0.3, np.nan],
    [np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf], [np.nan, np.inf],
]


def _planar_starts(width):
    """``width`` starts: the special ones (spread over them when fewer),
    then random points in and around the domains."""
    rows = np.random.default_rng(width).uniform(-1.2, 1.2, (width, 2))
    n = min(width, len(_PLANAR_STARTS))
    pick = np.linspace(0, len(_PLANAR_STARTS) - 1, n).round().astype(int)
    rows[:n] = np.array(_PLANAR_STARTS)[pick]
    return rows


def _fma(a, b, c):
    """``a * b + c`` rounded once, for finite floats."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def _numpy_dot_fuses(one_row):
    """Whether numpy's planar ``np.dot`` rounds as the library spells it on
    finite nonzero rows, each fused multiply-add formed exactly here: from
    two rows on gemv ``fma(y0, f0, y1 * f1)`` and gemm ``fma(y1, A[i, 1],
    y0 * A[i, 0])``, and on a single row (``one_row``) each mirrored."""
    rng = np.random.default_rng(5)
    f, A = rng.normal(size=2), rng.normal(size=(2, 2))
    for width in (1,) * 20 if one_row else (2, 67):
        y = rng.normal(size=(width, 2))
        if one_row:
            gemv = [_fma(y1, f[1], y0 * f[0]) for y0, y1 in y]
            gemm = [[_fma(y0, a0, y1 * a1) for a0, a1 in A] for y0, y1 in y]
        else:
            gemv = [_fma(y0, f[0], y1 * f[1]) for y0, y1 in y]
            gemm = [[_fma(y1, a1, y0 * a0) for a0, a1 in A] for y0, y1 in y]
        if np.dot(y, f).tolist() != gemv or np.dot(y, A.T).tolist() != gemm:
            return False
    return True


def _planar_library(native, one_row):
    """The native library, where its planar ``np.dot`` spellings at that
    width agree with numpy's BLAS; elsewhere such studies march in numpy,
    so this skips.  Where numpy's BLAS rounds as the library spells it, a
    probe that disagrees is the library's fault, and fails."""
    if not cover.planar_dots_agree(one_row):
        if _numpy_dot_fuses(one_row):
            pytest.fail("np.dot fuses as the library spells it, yet the probe disagrees")
        pytest.skip("np.dot's BLAS rounds otherwise here, so these planar studies march in numpy")
    return native


@pytest.fixture
def planar(native):
    """The native library for planar batches of two or more rows."""
    return _planar_library(native, False)


@pytest.fixture
def planar_row(native):
    """The native library for a single planar row."""
    return _planar_library(native, True)


def _without_nan_signs(arrays):
    """``_arrays`` output with every NaN's sign cleared."""
    cleared = []
    for dtype, shape, data in arrays:
        a = np.frombuffer(data, dtype).copy()
        a[np.isnan(a)] = np.nan
        cleared.append((dtype, shape, a.tobytes()))
    return cleared


def _check_planar_bytes(monkeypatch, width, run):
    """The native march gives the numpy march's bytes.  Below
    ``COLUMN_MIN_ROWS`` numpy forms the noise-interaction term with einsum,
    whose choice between two NaNs of different sign follows its vector
    kernel and the batch width (README "Speed"); there alone a NaN's sign
    may differ, and the native bytes must equal numpy's with that term in
    its column form."""
    native_arrays, numpy_arrays = _both(monkeypatch, run)
    if native_arrays == numpy_arrays:
        return
    assert width < coefficients.COLUMN_MIN_ROWS
    assert _without_nan_signs(native_arrays) == _without_nan_signs(numpy_arrays)
    with monkeypatch.context() as m:
        m.setattr(coefficients, "_correction", coefficients._stratonovich_columns)
        assert _both(monkeypatch, run)[1] == native_arrays


@pytest.mark.parametrize("domain_name", sorted(PLANAR_DOMAINS))
@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_planar_wz_march_gives_the_numpy_bytes(planar, monkeypatch, family, domain_name):
    domain, coeffs = PLANAR_DOMAINS[domain_name](), PLANAR_FAMILIES[family]()
    # An output after the first step, which a zero slope leaves on a bound
    # for a start there.
    times, knot_idx, out_pos = wz_schedule(3, 3, [0.0, 1 / 24, 0.3, 5 / 12, 1.0], 1.0)
    for width in PLANAR_WIDTHS:
        assert cover.native_march(domain, coeffs, width) is not None
        x0 = _planar_starts(width)
        slopes = np.random.default_rng(7).normal(0.0, 4.0, (width, 8, 2))
        slopes[:, 0] = 0.0
        slopes[::3, 4] = 1e308
        slopes[1::4, 2, 1] = -1e308
        _check_planar_bytes(monkeypatch, width, lambda: integrate_wz_batch(
            domain, coeffs, x0, slopes, times, knot_idx, out_pos))


@pytest.mark.parametrize("domain_name", sorted(PLANAR_DOMAINS))
@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_planar_reference_march_gives_the_numpy_bytes(planar, monkeypatch, family, domain_name):
    domain, coeffs = PLANAR_DOMAINS[domain_name](), PLANAR_FAMILIES[family]()
    fine_level = 6
    out_steps = np.array([0, 0, 1, 5, 8, 8, 37])
    for width in PLANAR_WIDTHS:
        x0 = _planar_starts(width)
        coarse = rs.sample_path(2, 1.0, 3, list(range(width)))

        def blocks():
            # One coarse interval per block, with a zero first increment,
            # a huge knot that overflows, and a block whose noise axis is
            # not contiguous.
            for start, values in FineBlocks(coarse, fine_level, 64, 1).blocks():
                values = values.copy()
                if start == 0:
                    values[:, 1] = values[:, 0]
                if start == 8:
                    values = np.asfortranarray(values)
                if start == 16:
                    values[::2, 3, 0] = 1e308
                yield start, values

        _check_planar_bytes(monkeypatch, width, lambda: integrate_reference_batch(
            domain, coeffs, x0, blocks(), fine_level, out_steps))


@pytest.mark.parametrize("M", [2, 3, 67, 515])
@pytest.mark.parametrize("domain_name", sorted(PLANAR_DOMAINS))
def test_planar_engine_stats_give_the_numpy_bytes(planar, monkeypatch, domain_name, M):
    domain, coeffs = PLANAR_DOMAINS[domain_name](), PLANAR_FAMILIES["trig_two_phases"]()
    x0 = {"box": [0.5, -0.25], "ball": [0.3, 0.2], "annulus": [0.75, 0.0]}[domain_name]
    native_arrays, numpy_arrays = _both(monkeypatch, lambda: rs.run_coupling_stats(
        rs.Study(domain, coeffs, x0, 1.0, (2, 3), M, 2, 3, seed=8)))
    assert native_arrays == numpy_arrays


@pytest.mark.parametrize("domain_name", sorted(PLANAR_DOMAINS))
@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_planar_single_row_marches_give_the_numpy_bytes(
    planar_row, monkeypatch, family, domain_name
):
    # Each special start alone, with its step log, through both schemes:
    # states, variation and the log's states, dL and |dL|, byte for byte.
    domain, coeffs = PLANAR_DOMAINS[domain_name](), PLANAR_FAMILIES[family]()
    assert cover.native_march(domain, coeffs, 1) is not None
    starts = np.array(_PLANAR_STARTS)
    times, knot_idx, out_pos = wz_schedule(3, 3, [0.0, 1 / 24, 0.3, 5 / 12, 1.0], 1.0)
    slopes = np.random.default_rng(7).normal(0.0, 4.0, (len(starts), 8, 2))
    slopes[:, 0] = 0.0
    slopes[::3, 4] = 1e308
    slopes[1::4, 2, 1] = -1e308
    fine_level, out_steps = 6, np.array([0, 0, 1, 5, 8, 8, 37])
    coarse = rs.sample_path(2, 1.0, 3, list(range(len(starts))))

    def blocks(row):
        # As the wide reference test's, one row at a time.
        for start, values in FineBlocks(coarse, fine_level, 64, 1).blocks():
            values = values[row : row + 1].copy()
            if start == 0:
                values[:, 1] = values[:, 0]
            if start == 8:
                values = np.asfortranarray(values)
            if start == 16 and row % 2 == 0:
                values[:, 3, 0] = 1e308
            yield start, values

    for row in range(len(starts)):
        x0 = starts[row : row + 1]
        for run in (
            lambda: integrate_wz_batch(domain, coeffs, x0, slopes[row : row + 1], times,
                                       knot_idx, out_pos, True),
            lambda: integrate_reference_batch(domain, coeffs, x0, blocks(row), fine_level,
                                              out_steps, True),
        ):
            native_arrays, numpy_arrays = _both(monkeypatch, run)
            assert len(native_arrays) == 6
            assert native_arrays == numpy_arrays


# A start inside each planar domain and one on its boundary.
_PLANAR_PATH_STARTS = {
    "box": ([0.5, -0.25], [1.0, -0.0]),
    "ball": ([0.3, 0.2], [0.6, 0.8]),
    "annulus": ([0.75, 0.0], [0.0, -0.5]),
}


@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_planar_single_path_solves_give_the_numpy_bytes(planar_row, monkeypatch, family):
    coeffs = PLANAR_FAMILIES[family]()
    path = rs.sample_path(2, 1.0, 8, 21)
    for domain_name, make in sorted(PLANAR_DOMAINS.items()):
        domain = make()
        for x0 in _PLANAR_PATH_STARTS[domain_name]:
            for solve in (
                lambda: rs.solve_wz(domain, coeffs, path, 4, 3, x0, [0.3, 5 / 12, 1.0], True),
                lambda: rs.solve_reference(domain, coeffs, path, x0, [0.25, 1.0], True),
                lambda: rs.coupled_solve(domain, coeffs, path, 5, 8, x0, [1.0], True),
            ):
                native_arrays, numpy_arrays = _both(monkeypatch, solve)
                assert native_arrays == numpy_arrays


def _planar_study():
    return PLANAR_DOMAINS["annulus"](), PLANAR_FAMILIES["trig"]()


def test_the_march_covers_each_planar_built_in_at_every_width(planar, planar_row):
    for make_domain in PLANAR_DOMAINS.values():
        for family in PLANAR_FAMILIES.values():
            domain, coeffs = make_domain(), family()
            for width in (1, 2, 3, 2000):
                assert cover.native_march(domain, coeffs, width) is not None


def _planar_uncovered():
    """Planar and spatial studies the native march leaves to numpy."""
    annulus, trig = _planar_study()
    return {
        "(2, 3) trig": (annulus, rs.trig(
            [[0.5, 0.1, 0.0], [0.1, 0.5, 0.1]], [[0.2, 0.1, 0.1], [0.1, 0.2, 0.1]], [1.0, 0.5])),
        "d = 3 ball": (rs.ball(1.0, dim=3), rs.trig(
            np.eye(3) * 0.5, np.eye(3) * 0.2, [1.0, 0.5, -0.5])),
        "d = 3 box": (rs.box([0.0] * 3, [1.0] * 3), rs.constant(np.eye(3) * 0.3)),
        "replaced sigma": (annulus, dataclasses.replace(trig, sigma=lambda y: trig.sigma(y))),
        "wrapped grad_sigma": (annulus, dataclasses.replace(
            trig, grad_sigma=_wrapped(trig.grad_sigma))),
        "wrapped resolve_batch": (dataclasses.replace(
            annulus, resolve_batch=_wrapped(annulus.resolve_batch)), trig),
        "custom set": (annulus, CoefficientSet(
            lambda y: trig.sigma(y), lambda y: trig.b(y), lambda y: trig.grad_sigma(y), 2, 2)),
        "custom domain": (dataclasses.replace(annulus, resolve_batch=None), trig),
    }


@pytest.mark.parametrize("case", sorted(_planar_uncovered()))
def test_uncovered_planar_studies_run_the_numpy_march(native, case):
    domain, coeffs = _planar_uncovered()[case]
    assert cover.native_march(domain, coeffs, 67) is None


def test_a_disagreeing_blas_runs_the_numpy_march_with_the_same_bits(
    planar, planar_row, monkeypatch
):
    from test_golden import CASES, GOLDEN

    for width in (1, 2):
        assert cover.native_march(*_planar_study(), width) is not None
    monkeypatch.setattr(cover, "planar_dots_agree", lambda one_row: False)
    for width in (1, 2):
        assert cover.native_march(*_planar_study(), width) is None
        assert cover.native_march(rs.interval(-1.0, 1.0), FAMILIES["trig"](), width) is not None
    # An engine study and a single path's substep logs.
    for case in ("stats_annulus_trig", "substeps_ball_linear"):
        assert CASES[case]() == GOLDEN[case]


@pytest.mark.parametrize("spelling", ["gemv", "gemm"])
@pytest.mark.parametrize("flipped", ["one_row", "wider"])
def test_each_width_asks_only_its_own_probe(planar, planar_row, monkeypatch, spelling, flipped):
    # A spelling that differs from np.dot on a single row sends a single
    # path to numpy and keeps wider batches native, and the reverse; a
    # march asks only the probe of its own width.
    native, calls = planar, []

    def planar_dots(width, y, f, A, v, mat):
        native.planar_dots(width, y, f, A, v, mat)
        calls.append(width)
        if (width == 1) == (flipped == "one_row"):
            target = v if spelling == "gemv" else mat
            (ctypes.c_uint64 * width).from_address(target)[width - 1] ^= 1

    fake = type("Library", (), {"planar_dots": staticmethod(planar_dots)})
    monkeypatch.setattr(brownian, "_native", lambda: fake)
    monkeypatch.setattr(cover, "planar_dots_agree",
                        functools.cache(cover.planar_dots_agree.__wrapped__))
    assert (cover.native_march(*_planar_study(), 1) is None) == (flipped == "one_row")
    assert set(calls) == {1}
    calls.clear()
    assert (cover.native_march(*_planar_study(), 2) is None) == (flipped == "wider")
    assert calls and min(calls) >= 2


def _check_planar_dots(lib, batches):
    """The library's gemv and gemm spellings against np.dot on each batch,
    with factors holding zeros of both signs."""
    zeros = [-0.0, 0.0]
    for y in batches:
        width = len(y)
        for f, A in [([0.7, -1.3], [[-0.0, 0.4], [1.1, -0.9]]),
                     (zeros, [zeros, zeros]), ([2.0, 0.0], [[0.0, 1.0], [-1.0, 0.0]])]:
            f, A = np.array(f), np.array(A)
            v, mat = np.empty(width), np.empty((width, 2))
            lib.planar_dots(width, y.ctypes.data, f.ctypes.data, A.ctypes.data,
                            v.ctypes.data, mat.ctypes.data)
            with np.errstate(all="ignore"):
                assert v.tobytes() == np.dot(y, f).tobytes()
                assert mat.tobytes() == np.dot(y, A.T).tobytes()


# Rows of zeros of both signs and values that are not finite; the march's
# later sums from +0.0 hide a zero's sign.
_DOT_ROWS = [[-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [np.inf, 0.5], [np.nan, -np.inf],
             [1e308, -1e308]]


def test_the_planar_dots_give_numpy_bits(planar):
    # At every width the byte tests march and the probe compares.
    def batches():
        for width in sorted({*PLANAR_WIDTHS, *cover.PROBE_WIDTHS}):
            y = np.random.default_rng(width).normal(0.0, 2.0, (width, 2))
            y[: min(width, 6)] = _DOT_ROWS[: min(width, 6)]
            yield y

    _check_planar_dots(planar, batches())


def test_the_planar_dots_give_numpy_bits_on_a_single_row(planar_row):
    rows = np.concatenate([_DOT_ROWS, _PLANAR_STARTS,
                           np.random.default_rng(1).normal(0.0, 2.0, (500, 2))])
    _check_planar_dots(planar_row, rows[:, None])


def test_the_blas_probe_compares_each_spelling_with_numpy(planar, planar_row, monkeypatch):
    # The probe fails as soon as either spelling's bits differ from np.dot.
    # From two rows on it compares every batch width's residue modulo 16,
    # where BLAS kernels split blocks and tails; the single-row probe
    # compares batches of one.
    assert {width % 16 for width in cover.PROBE_WIDTHS} == set(range(16))
    native = planar
    for one_row, spelling in itertools.product((False, True), ("gemv", "gemm")):
        calls = []

        def planar_dots(width, y, f, A, v, mat, spelling=spelling):
            native.planar_dots(width, y, f, A, v, mat)
            calls.append(width)
            target = v if spelling == "gemv" else mat
            # Flip the last entry's lowest bit, whatever value it holds.
            (ctypes.c_uint64 * width).from_address(target)[width - 1] ^= 1

        fake = type("Library", (), {"planar_dots": staticmethod(planar_dots)})
        monkeypatch.setattr(brownian, "_native", lambda: fake)
        assert not cover.planar_dots_agree.__wrapped__(one_row)
        assert calls == [1 if one_row else cover.PROBE_WIDTHS[0]]
        monkeypatch.undo()


_GUARDED = """
import ctypes
import mmap
import sys

import numpy as np

import reflectedsde as rs
from reflectedsde import cover, solvers
from test_native_march import (DOMAINS, FAMILIES, PLANAR_DOMAINS, PLANAR_FAMILIES,
                               _PLANAR_PATH_STARTS, _arrays)

libc = ctypes.CDLL(None)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
page, pages = mmap.PAGESIZE, []
covered, march_arrays = cover.native_march, solvers._march_arrays


def at_page_end(a):
    # A copy of a that ends where an unreadable page begins, so a kernel
    # that reads or writes past it faults.
    n = -(-a.nbytes // page) * page
    buf = mmap.mmap(-1, n + page)
    end = ctypes.addressof(ctypes.c_char.from_buffer(buf)) + n
    if libc.mprotect(end, page, 0) != 0:
        sys.exit("mprotect failed")
    pages.append(buf)
    copy = np.ctypeslib.as_array((ctypes.c_double * a.size).from_address(end - a.nbytes))
    copy[:] = a.ravel()
    return copy.reshape(a.shape)


def guarded(domain, coeffs, width):
    lib, kind, par = covered(domain, coeffs, width)
    return lib, kind, at_page_end(par)


def guarded_arrays(*args):
    # Each step log array moved to the end of its own readable page, and
    # the native march pointed at the moved copies.
    (X, var, out, log), at = march_arrays(*args)
    if log is None:
        return (X, var, out, log), at
    log = tuple(at_page_end(a) for a in log)
    return (X, var, out, log), at[:3] + [a.ctypes.data for a in log]


def stats(domain, coeffs, x0):
    return _arrays(rs.run_coupling_stats(rs.Study(domain, coeffs, x0, 1.0, (2, 3), 3, 2, 3, 2)))


def single_path(domain, coeffs, x0):
    path = rs.sample_path(coeffs.dim_noise, 1.0, 6, 3)
    return _arrays(rs.coupled_solve(domain, coeffs, path, 3, 2, x0, [0.5, 1.0], True))


lines = [(make(), family(), [0.0]) for make in DOMAINS.values() for family in FAMILIES.values()]
planes = [(PLANAR_DOMAINS[name](), family(), _PLANAR_PATH_STARTS[name][0])
          for name in PLANAR_DOMAINS for family in PLANAR_FAMILIES.values()]
runs = [(run, study) for run in (stats, single_path) for study in lines]
runs += [(stats, study) for study in planes if cover.planar_dots_agree(False)]
runs += [(single_path, study) for study in planes if cover.planar_dots_agree(True)]
for run, study in runs:
    expected = run(*study)
    cover.native_march, solvers._march_arrays = guarded, guarded_arrays
    assert run(*study) == expected
    cover.native_march, solvers._march_arrays = covered, march_arrays
print(len(runs))
"""


def test_the_kernels_read_no_parameter_past_the_packed_ones(native):
    # Each covered study marches with its packed parameters, and a single
    # path with each of its step log's arrays, at the end of a readable
    # page, in a child process that a read or write past them kills.  The
    # planar studies run at the widths whose BLAS probe agrees.
    if not sys.platform.startswith("linux"):
        pytest.skip("the guard page is set with Linux's mprotect")
    tests_dir = Path(__file__).resolve().parent
    package_root = Path(rs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package_root), str(tests_dir)]))
    proc = subprocess.run([sys.executable, "-c", _GUARDED], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    planes = len(PLANAR_DOMAINS) * len(PLANAR_FAMILIES)
    widths = cover.planar_dots_agree(False) + cover.planar_dots_agree(True)
    assert int(proc.stdout) == 2 * len(DOMAINS) * len(FAMILIES) + widths * planes
