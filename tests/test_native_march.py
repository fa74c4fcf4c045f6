"""The native march against the numpy march, and which studies it covers.

The native march (``_march.c``) runs a built-in family on a
one-dimensional box at d = m = 1, and on a box, ball or annulus at
d = m = 2 and d = m = 3, a single path included, when the native library
loads; every other study, and every study under ``--no-native``, runs the
numpy march.  The byte tests run each march both ways, the second time
with the library switched off, and compare every array they return, NaNs
and signed zeros included; the planar and spatial ones, and a path alone
against its row in a group, compare up to the sign of a NaN
(``_without_nan_signs``).
"""

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reflectedsde as rs
from reflectedsde import brownian, cover
from reflectedsde.brownian import FineBlocks
from reflectedsde.coefficients import CoefficientSet
from reflectedsde.solvers import integrate_reference_batch, integrate_wz_batch, wz_schedule

FAMILIES = {
    # Negative sigma: the zero derivative times sigma is a -0.0 product.
    "constant_negative": lambda: rs.constant(
        [[-0.4]], drift_matrix=[[-0.5]], drift_offset=[0.05]
    ),
    # No drift matrix: a zero drift times an infinite state is NaN.
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


# Batch widths across the native march's 64-row tile and the tail of its
# vector loops: one row, an odd row after a pair, and no multiple of 64.
WIDTHS = (1, 2, 3, 63, 64, 65, 200)


def _spread(special, rows):
    """``rows`` with the ``special`` rows spread through them, the first
    and the last included, or as many of them as fit, spread over the
    list."""
    n = min(len(rows), len(special))
    at = np.linspace(0, len(rows) - 1, n).round().astype(int)
    rows[at] = np.array(special)[np.linspace(0, len(special) - 1, n).round().astype(int)]
    return rows


def _starts(domain, width=8):
    """``width`` starts: at both bounds, at signed zeros, inside and not
    finite, spread through random points in and around the interval."""
    lo, hi = domain.resolve_batch.native[2]
    rows = np.random.default_rng(width).uniform(lo - 0.3, hi + 0.3, (width, 1))
    return _spread([[lo], [hi], [0.0], [-0.0], [0.5 * (lo + hi)], [np.nan], [np.inf], [-np.inf]],
                   rows)


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


def _without_nan_signs(arrays):
    """``_arrays`` output with every NaN made one NaN.  Where two NaNs of
    different sign meet, IEEE 754 leaves open which one a sum keeps, and
    numpy's own loops choose by width and position: with numpy 2.4, ``a +=
    b`` keeps ``b``'s NaN in a one-element array and ``a``'s from two on,
    and ``a + b`` keeps ``b``'s in the tail of a 100-element array and
    ``a``'s before it.  The C compiler likewise orders a sum's operands as
    it likes."""
    cleared = []
    for dtype, shape, data in arrays:
        a = np.frombuffer(data, dtype).copy()
        a[np.isnan(a)] = np.nan
        cleared.append((dtype, shape, a.tobytes()))
    return cleared


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
    # A batch of each width, then each special start alone with its step log.
    runs = [(_starts(domain, w), _slopes(w, 2**n, 7), False) for w in WIDTHS]
    runs += [(x0[i : i + 1], slopes[i : i + 1], True) for i in range(len(x0))]
    for start, slope, log in runs:
        native_arrays, numpy_arrays = _both(monkeypatch, lambda: integrate_wz_batch(
            domain, coeffs, start, slope, times, knot_idx, out_pos, log))
        assert native_arrays == numpy_arrays


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reference_march_gives_the_numpy_bytes(native, monkeypatch, family, domain_name):
    domain, coeffs = DOMAINS[domain_name](), FAMILIES[family]()
    fine_level = 6
    # Outputs at the start, repeated, and a last one inside a block.
    out_steps = np.array([0, 0, 5, 8, 8, 37])

    def blocks(coarse, rows):
        # One coarse interval per block, with a zero first increment and a
        # huge knot that overflows.
        for start, values in FineBlocks(coarse, fine_level, 64, 1).blocks():
            values = values[rows].copy()
            if start == 0:
                values[:, 1] = values[:, 0]
            if start == 16:
                values[:, 3] = 1e308
            yield start, values

    # A batch of each width, then each special start alone with its step log.
    runs = [(_starts(domain, w), slice(None), False) for w in WIDTHS]
    specials = _starts(domain)
    runs += [(specials, slice(i, i + 1), True) for i in range(len(specials))]
    for x0, rows, log in runs:
        coarse = rs.sample_path(1, 1.0, 3, list(range(len(x0))))
        native_arrays, numpy_arrays = _both(monkeypatch, lambda: integrate_reference_batch(
            domain, coeffs, x0[rows], blocks(coarse, rows), fine_level, out_steps, log))
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
            assert cover.native_march(domain, family()) is not None


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
        # The box is the one domain marched at d = 1, so the march folds
        # its domain test there.
        "1-d ball": (rs.ball(1.0, dim=1), FAMILIES["trig"](), None),
        "1-d annulus": (rs.annulus(0.5, 1.0, dim=1), FAMILIES["linear"](), None),
    }


UNCOVERED = _uncovered()


@pytest.mark.parametrize("case", sorted(UNCOVERED))
def test_uncovered_studies_run_the_numpy_march(monkeypatch, case):
    domain, coeffs, twin = UNCOVERED[case]
    assert cover.native_march(domain, coeffs) is None

    def stats(domain, coeffs):
        # 0.25 on the interval and the 1-d ball, 1.0 (the outer end) on the
        # 1-d annulus.
        x0 = domain.interior_anchor + 0.25
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
    assert cover.native_march(rs.interval(-1.0, 1.0), FAMILIES["trig"]()) is None
    assert cover.native_march(*_planar_study()) is None


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


def test_both_sources_compile_without_a_warning(monkeypatch, tmp_path):
    # The library's own build, with every warning of -Wall -Wextra an
    # error; the optimiser runs, so its warnings (-Wmaybe-uninitialized,
    # -Warray-bounds, -Wstringop-overflow) are checked too.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(brownian, "_CFLAGS", [*brownian._CFLAGS, "-Wall", "-Wextra", "-Werror"])
    try:
        brownian._compile(tmp_path / "library.so")
    except subprocess.CalledProcessError as error:
        pytest.fail(error.stderr.decode())


def test_the_march_frames_are_static_and_far_under_a_thread_stack(tmp_path):
    # Each entry point's frame holds its inlined tiles, which grow with
    # D_MAX cubed.  The library's own flags with -fstack-usage: both frames
    # are static (no alloca or variable-length array) and under 64 KiB,
    # far under musl's 128 KiB default thread stack, on which the engine's
    # threads march.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    source = next(s for s in brownian._SOURCES if s.name == "_march.c")
    # The tags cover.native_tag packs are padded to the same D_MAX.
    assert f"\n#define D_MAX {cover.D_MAX}\n" in source.read_text()
    subprocess.run(["cc", *brownian._CFLAGS, "-fstack-usage", "-c", str(source), "-o",
                    str(tmp_path / "march.o")], check=True, capture_output=True)
    (usage,) = tmp_path.glob("*.su")
    frames = {}
    for line in usage.read_text().splitlines():
        where, size, kind = line.split("\t")
        frames[where.rsplit(":", 1)[-1]] = (int(size), kind)
    for entry in ("march_reference", "march_wz"):
        size, kind = frames[entry]
        assert kind == "static" and size < 64 * 1024, (entry, size, kind)


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
    # No drift matrix, and -0.0 offsets.
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

# Starts on both annulus spheres (on the ball's sphere and inside the box
# too), at the centre, at -0.0, outside every domain and not finite.
_PLANAR_STARTS = [
    [0.5, 0.0], [0.0, -0.5], [0.6, 0.8], [-1.0, 0.0], [0.0, 0.0], [-0.0, -0.0],
    [-0.0, 0.75], [1.0, -0.0], [0.5, -0.25], [2.0, -3.0], [np.nan, 0.3], [0.3, np.nan],
    [np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf], [np.nan, np.inf],
]


def _planar_starts(width):
    """``width`` starts: the special ones spread through random points in
    and around the domains."""
    return _spread(_PLANAR_STARTS, np.random.default_rng(width).uniform(-1.2, 1.2, (width, 2)))


def _wz_bytes(monkeypatch, domain, coeffs, starts):
    """The WZ march of ``starts(width)`` at every width, native against
    numpy, up to the sign of a NaN."""
    d = domain.dim
    # An output after the first step, which a zero slope leaves on a bound
    # for a start there.
    times, knot_idx, out_pos = wz_schedule(3, 3, [0.0, 1 / 24, 0.3, 5 / 12, 1.0], 1.0)
    for width in WIDTHS:
        x0 = starts(width)
        slopes = np.random.default_rng(7).normal(0.0, 4.0, (width, 8, d))
        slopes[:, 0] = 0.0
        slopes[::3, 4] = 1e308
        slopes[1::4, 2, 1] = -1e308
        native_arrays, numpy_arrays = _both(monkeypatch, lambda: integrate_wz_batch(
            domain, coeffs, x0, slopes, times, knot_idx, out_pos))
        assert _without_nan_signs(native_arrays) == _without_nan_signs(numpy_arrays)


def _reference_bytes(monkeypatch, domain, coeffs, starts):
    """The reference march of ``starts(width)`` at every width, native
    against numpy, up to the sign of a NaN."""
    fine_level = 6
    out_steps = np.array([0, 0, 1, 5, 8, 8, 37])
    for width in WIDTHS:
        x0 = starts(width)
        coarse = rs.sample_path(domain.dim, 1.0, 3, list(range(width)))

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

        native_arrays, numpy_arrays = _both(monkeypatch, lambda: integrate_reference_batch(
            domain, coeffs, x0, blocks(), fine_level, out_steps))
        assert _without_nan_signs(native_arrays) == _without_nan_signs(numpy_arrays)


@pytest.mark.parametrize("domain_name", sorted(PLANAR_DOMAINS))
@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_planar_wz_march_gives_the_numpy_bytes(native, monkeypatch, family, domain_name):
    _wz_bytes(monkeypatch, PLANAR_DOMAINS[domain_name](), PLANAR_FAMILIES[family](),
              _planar_starts)


@pytest.mark.parametrize("domain_name", sorted(PLANAR_DOMAINS))
@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_planar_reference_march_gives_the_numpy_bytes(native, monkeypatch, family, domain_name):
    _reference_bytes(monkeypatch, PLANAR_DOMAINS[domain_name](), PLANAR_FAMILIES[family](),
                     _planar_starts)


@pytest.mark.parametrize("M", [2, 3, 67, 515])
@pytest.mark.parametrize("domain_name", sorted(PLANAR_DOMAINS))
def test_planar_engine_stats_give_the_numpy_bytes(native, monkeypatch, domain_name, M):
    domain, coeffs = PLANAR_DOMAINS[domain_name](), PLANAR_FAMILIES["trig_two_phases"]()
    x0 = {"box": [0.5, -0.25], "ball": [0.3, 0.2], "annulus": [0.75, 0.0]}[domain_name]
    native_arrays, numpy_arrays = _both(monkeypatch, lambda: rs.run_coupling_stats(
        rs.Study(domain, coeffs, x0, 1.0, (2, 3), M, 2, 3, seed=8)))
    assert native_arrays == numpy_arrays


def _single_row_bytes(monkeypatch, domain, coeffs, starts):
    """Each of ``starts`` alone, with its step log, through both schemes:
    states, variation and the log's states, dL and |dL|, native against
    numpy, byte for byte up to the sign of a NaN."""
    assert cover.native_march(domain, coeffs) is not None
    starts, d = np.array(starts), domain.dim
    times, knot_idx, out_pos = wz_schedule(3, 3, [0.0, 1 / 24, 0.3, 5 / 12, 1.0], 1.0)
    slopes = np.random.default_rng(7).normal(0.0, 4.0, (len(starts), 8, d))
    slopes[:, 0] = 0.0
    slopes[::3, 4] = 1e308
    slopes[1::4, 2, 1] = -1e308
    fine_level, out_steps = 6, np.array([0, 0, 1, 5, 8, 8, 37])
    coarse = rs.sample_path(d, 1.0, 3, list(range(len(starts))))

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
            assert _without_nan_signs(native_arrays) == _without_nan_signs(numpy_arrays)


@pytest.mark.parametrize("domain_name", sorted(PLANAR_DOMAINS))
@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_planar_single_row_marches_give_the_numpy_bytes(
    native, monkeypatch, family, domain_name
):
    _single_row_bytes(monkeypatch, PLANAR_DOMAINS[domain_name](), PLANAR_FAMILIES[family](),
                      _PLANAR_STARTS)


# A start inside each planar domain and one on its boundary.
_PLANAR_PATH_STARTS = {
    "box": ([0.5, -0.25], [1.0, -0.0]),
    "ball": ([0.3, 0.2], [0.6, 0.8]),
    "annulus": ([0.75, 0.0], [0.0, -0.5]),
}


def _single_path_bytes(monkeypatch, domains, coeffs, path_starts):
    """Single-path solves from each of ``path_starts[name]`` on each of
    ``domains``, native against numpy, byte for byte."""
    path = rs.sample_path(coeffs.dim_noise, 1.0, 8, 21)
    for domain_name, make in sorted(domains.items()):
        domain = make()
        for x0 in path_starts[domain_name]:
            for solve in (
                lambda: rs.solve_wz(domain, coeffs, path, 4, 3, x0, [0.3, 5 / 12, 1.0], True),
                lambda: rs.solve_reference(domain, coeffs, path, x0, [0.25, 1.0], True),
                lambda: rs.coupled_solve(domain, coeffs, path, 5, 8, x0, [1.0], True),
            ):
                native_arrays, numpy_arrays = _both(monkeypatch, solve)
                assert native_arrays == numpy_arrays


@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_planar_single_path_solves_give_the_numpy_bytes(native, monkeypatch, family):
    _single_path_bytes(monkeypatch, PLANAR_DOMAINS, PLANAR_FAMILIES[family](),
                       _PLANAR_PATH_STARTS)


# ---------------------------------------------------------------------------
# The spatial march: d = m = 3
# ---------------------------------------------------------------------------

_SPATIAL_DRIFT = [[-0.5, 0.1, 0.0], [0.0, -0.5, 0.1], [0.1, 0.0, -0.5]]

SPATIAL_FAMILIES = {
    # Negative entries, and -0.0 offsets.
    "constant_negative": lambda: rs.constant(
        [[-0.4, -0.1, 0.0], [-0.1, -0.3, 0.1], [0.0, 0.2, -0.5]], drift_matrix=_SPATIAL_DRIFT,
        drift_offset=[0.05, -0.0, -0.0],
    ),
    "constant_no_drift": lambda: rs.constant(np.eye(3) * 0.4 + 0.05),
    "linear": lambda: rs.linear(
        np.arange(27.0).reshape(3, 3, 3) / 40.0 - 0.3, np.eye(3) * 0.4 - 0.0,
        drift_matrix=_SPATIAL_DRIFT, drift_offset=[0.1, -0.0, 0.2],
    ),
    "trig": lambda: rs.trig(np.eye(3) * 0.5 + 0.1, np.full((3, 3), 0.2), [1.0, 2.0, -0.5],
                            drift_matrix=_SPATIAL_DRIFT),
    # Three distinct phases shared unevenly over the nine entries.
    "trig_three_phases": lambda: rs.trig(
        np.eye(3) * 0.5 + 0.1, np.full((3, 3), 0.2), [1.0, -2.0, 0.5],
        phase=[[0.0, 0.0, 0.5], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]],
        drift_matrix=_SPATIAL_DRIFT, drift_offset=[0.2, -0.1, -0.0],
    ),
    # Nine distinct phases, as many as a set has entries, a zero frequency
    # and no drift.
    "trig_nine_phases": lambda: rs.trig(
        np.eye(3) * 0.5, np.full((3, 3), 0.15) - 0.05 * np.eye(3), [0.0, 2.0, -1.0],
        phase=np.arange(9.0).reshape(3, 3) / 7.0 - 0.5,
    ),
}

SPATIAL_DOMAINS = {
    # Bounds at -0.0, so that a state reaching one at +0.0 takes its sign.
    "box": lambda: rs.box([-0.0, -0.5, -0.25], [1.0, -0.0, 0.5]),
    "ball": lambda: rs.ball(1.0, dim=3),
    "annulus": lambda: rs.annulus(0.5, 1.0, dim=3),
}

# Starts on both annulus spheres (on the ball's sphere and on the box's
# faces too), at the centre, at -0.0, outside every domain and not finite.
_SPATIAL_STARTS = [
    [0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [-1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.75, 0.0], [1.0, -0.0, 0.5],
    [0.5, -0.25, 0.1], [2.0, -3.0, 0.5], [np.nan, 0.3, 0.0], [0.3, 0.0, np.nan],
    [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0], [np.inf, -np.inf, 1.0], [np.nan, np.inf, 0.0],
]

# A start inside each spatial domain and one on its boundary.
_SPATIAL_PATH_STARTS = {
    "box": ([0.5, -0.25, 0.1], [1.0, -0.0, 0.5]),
    "ball": ([0.3, 0.2, -0.1], [0.0, 0.6, 0.8]),
    "annulus": ([0.75, 0.0, 0.1], [0.0, 0.0, -0.5]),
}


def _spatial_starts(width):
    """``width`` starts: the special ones spread through random points in
    and around the domains."""
    return _spread(_SPATIAL_STARTS, np.random.default_rng(width).uniform(-1.2, 1.2, (width, 3)))


@pytest.mark.parametrize("domain_name", sorted(SPATIAL_DOMAINS))
@pytest.mark.parametrize("family", sorted(SPATIAL_FAMILIES))
def test_spatial_wz_march_gives_the_numpy_bytes(native, monkeypatch, family, domain_name):
    _wz_bytes(monkeypatch, SPATIAL_DOMAINS[domain_name](), SPATIAL_FAMILIES[family](),
              _spatial_starts)


@pytest.mark.parametrize("domain_name", sorted(SPATIAL_DOMAINS))
@pytest.mark.parametrize("family", sorted(SPATIAL_FAMILIES))
def test_spatial_reference_march_gives_the_numpy_bytes(native, monkeypatch, family,
                                                       domain_name):
    _reference_bytes(monkeypatch, SPATIAL_DOMAINS[domain_name](), SPATIAL_FAMILIES[family](),
                     _spatial_starts)


@pytest.mark.parametrize("domain_name", sorted(SPATIAL_DOMAINS))
@pytest.mark.parametrize("family", sorted(SPATIAL_FAMILIES))
def test_spatial_single_row_marches_give_the_numpy_bytes(
    native, monkeypatch, family, domain_name
):
    _single_row_bytes(monkeypatch, SPATIAL_DOMAINS[domain_name](), SPATIAL_FAMILIES[family](),
                      _SPATIAL_STARTS)


@pytest.mark.parametrize("family", sorted(SPATIAL_FAMILIES))
def test_spatial_single_path_solves_give_the_numpy_bytes(native, monkeypatch, family):
    _single_path_bytes(monkeypatch, SPATIAL_DOMAINS, SPATIAL_FAMILIES[family](),
                       _SPATIAL_PATH_STARTS)


@pytest.mark.parametrize("M", [3, 67, 130])
@pytest.mark.parametrize("domain_name", sorted(SPATIAL_DOMAINS))
def test_spatial_engine_stats_give_the_numpy_bytes(native, monkeypatch, domain_name, M):
    domain, coeffs = SPATIAL_DOMAINS[domain_name](), SPATIAL_FAMILIES["trig_three_phases"]()
    x0 = _SPATIAL_PATH_STARTS[domain_name][0]
    native_arrays, numpy_arrays = _both(monkeypatch, lambda: rs.run_coupling_stats(
        rs.Study(domain, coeffs, x0, 1.0, (2, 3), M, 2, 3, seed=8)))
    assert native_arrays == numpy_arrays


def _planar_study():
    return PLANAR_DOMAINS["annulus"](), PLANAR_FAMILIES["trig"]()


def test_the_march_covers_each_planar_built_in_at_every_width(native):
    # Coverage does not depend on the batch width, which it is not given;
    # every built-in at d = m = 3 is covered too.
    for domains, families in ((PLANAR_DOMAINS, PLANAR_FAMILIES),
                              (SPATIAL_DOMAINS, SPATIAL_FAMILIES)):
        for make_domain in domains.values():
            for family in families.values():
                assert cover.native_march(make_domain(), family()) is not None


def _planar_uncovered():
    """Studies of built-in domains the native march leaves to numpy: m !=
    d, d > 3, the ball at d = 1, and replaced, wrapped or custom callables."""
    annulus, trig = _planar_study()
    return {
        "(2, 3) trig": (annulus, rs.trig(
            [[0.5, 0.1, 0.0], [0.1, 0.5, 0.1]], [[0.2, 0.1, 0.1], [0.1, 0.2, 0.1]], [1.0, 0.5])),
        "(3, 2) trig": (rs.ball(1.0, dim=3), rs.trig(
            [[0.5, 0.1], [0.1, 0.5], [0.0, 0.2]], [[0.2, 0.1], [0.1, 0.2], [0.1, 0.1]],
            [1.0, 0.5, -0.5])),
        "d = 4 ball": (rs.ball(1.0, dim=4), rs.trig(
            np.eye(4) * 0.5, np.eye(4) * 0.2, [1.0, 0.5, -0.5, 0.25])),
        "d = 1 ball": (rs.ball(1.0, dim=1), rs.trig([[0.5]], [[0.2]], [1.0])),
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
    assert cover.native_march(domain, coeffs) is None


# d = 3 studies with diagonal coefficients, beside the full ones the
# covers test above draws.
_SPATIAL_DIAGONAL = {
    "d = 3 ball": lambda: (rs.ball(1.0, dim=3), rs.trig(
        np.eye(3) * 0.5, np.eye(3) * 0.2, [1.0, 0.5, -0.5])),
    "d = 3 box": lambda: (rs.box([0.0] * 3, [1.0] * 3), rs.constant(np.eye(3) * 0.3)),
}


@pytest.mark.parametrize("case", sorted(_SPATIAL_DIAGONAL))
def test_spatial_built_in_studies_run_the_native_march(native, case):
    domain, coeffs = _SPATIAL_DIAGONAL[case]()
    assert cover.native_march(domain, coeffs) is not None


# ---------------------------------------------------------------------------
# A path marched alone and its row in a group
# ---------------------------------------------------------------------------

# d = 3 studies, which march natively where the library loads.
SPATIAL_STUDIES = {
    "ball_trig": lambda: (rs.ball(1.0, dim=3), rs.trig(
        np.full((3, 3), 0.1) + 0.4 * np.eye(3), np.full((3, 3), 0.2), [1.0, -2.0, 0.5],
        phase=[[0.0, 0.0, 0.5], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]],
        drift_matrix=[[-0.5, 0.1, 0.0], [0.0, -0.5, 0.1], [0.1, 0.0, -0.5]])),
    "box_linear": lambda: (rs.box([-0.5, 0.0, -1.0], [0.5, 1.0, -0.0]), rs.linear(
        np.arange(27.0).reshape(3, 3, 3) / 40.0 - 0.3, np.eye(3) * 0.4,
        drift_offset=[0.1, -0.0, 0.2])),
    "annulus_constant": lambda: (rs.annulus(0.5, 1.0, dim=3), rs.constant(
        [[-0.4, -0.1, 0.0], [-0.1, -0.3, 0.1], [0.0, 0.2, -0.5]])),
}

# Every study the property test draws, as (domain, coeffs), by dimension
# and name.
GROUP_STUDIES = {
    **{f"1 {d} {f}": lambda d=d, f=f: (DOMAINS[d](), FAMILIES[f]())
       for d in DOMAINS for f in FAMILIES},
    **{f"2 {d} {f}": lambda d=d, f=f: (PLANAR_DOMAINS[d](), PLANAR_FAMILIES[f]())
       for d in PLANAR_DOMAINS for f in PLANAR_FAMILIES},
    **{f"3 {name}": make for name, make in SPATIAL_STUDIES.items()},
}

_COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.0, np.inf, -np.inf, np.nan]), st.floats(-1.5, 1.5)
)


@st.composite
def _groups(draw):
    """A study, the starts of a group of paths, the rows to march alone,
    the group's first path seed and a scale for its Brownian increments
    (a huge one overflows the march)."""
    name = draw(st.sampled_from(sorted(GROUP_STUDIES)))
    d, width = int(name[0]), draw(st.integers(2, 70))
    starts = draw(st.lists(st.lists(_COORDINATES, min_size=d, max_size=d),
                           min_size=width, max_size=width))
    rows = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=4, unique=True))
    return name, starts, rows, draw(st.integers(0, 2**32)), draw(st.sampled_from([1.0, 1e300]))


def _march_both(domain, coeffs, x0, slopes, values, log):
    """States at the outputs and variation of the WZ march at level 3 and
    of the reference at fine level 5."""
    times, knot_idx, out_pos = wz_schedule(3, 2, [0.25, 0.5, 1.0], 1.0)
    wz = integrate_wz_batch(domain, coeffs, x0, slopes, times, knot_idx, out_pos, log)
    ref = integrate_reference_batch(domain, coeffs, x0, [(0, values)], 5, [8, 16, 32], log)
    return [*wz[:2], *ref[:2]]


@settings(max_examples=60, deadline=None)
@given(group=_groups())
# A zero drift matrix times an infinite state is NaN, alone and in a group.
@example(group=("1 interval constant_no_drift", [[np.inf], [0.0]], [0], 0, 1.0))
# A NaN row ends the first 64-row tile, and a -0.0 row is the next tile's
# only row.
@example(group=("2 annulus trig", [[0.75, 0.0]] * 63 + [[np.nan, 0.3], [-0.0, -0.0]],
                [63, 64], 0, 1.0))
def test_a_path_marched_alone_gives_its_rows_bytes_in_a_group(group):
    # Both schemes, on both backends: each drawn row of a group marched
    # alone with its step log, as a single path is, gives the bytes of its
    # row in the group's march (up to the sign of a NaN), at d = 1, 2 and
    # 3, natively where the library loads.
    name, starts, rows, seed, scale = group
    (domain, coeffs), x0 = GROUP_STUDIES[name](), np.array(starts)
    paths = rs.sample_path(coeffs.dim_noise, 1.0, 5, list(range(seed, seed + len(x0))))
    slopes, values = rs.wz_knot_slopes(paths, 3) * scale, paths.values * scale
    with np.errstate(all="ignore"):
        for library in (brownian._native, lambda: None):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(brownian, "_native", library)
                out, var, ref_out, ref_var = _march_both(domain, coeffs, x0, slopes, values,
                                                         False)
                for b in rows:
                    alone = _march_both(domain, coeffs, x0[b : b + 1], slopes[b : b + 1],
                                        values[b : b + 1], True)
                    row = [out[:, b : b + 1], var[b : b + 1], ref_out[:, b : b + 1],
                           ref_var[b : b + 1]]
                    assert _without_nan_signs(_arrays(alone)) == _without_nan_signs(_arrays(row))


# The d = 3 domains the guard-page child marches.
SPATIAL_GUARDED = ("box", "annulus")

_GUARDED = """
import ctypes
import mmap
import sys

import numpy as np

import reflectedsde as rs
from reflectedsde import cover, solvers
from test_native_march import (DOMAINS, FAMILIES, PLANAR_DOMAINS, PLANAR_FAMILIES,
                               SPATIAL_DOMAINS, SPATIAL_FAMILIES, SPATIAL_GUARDED,
                               _PLANAR_PATH_STARTS, _SPATIAL_PATH_STARTS, _arrays)

libc = ctypes.CDLL(None)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
page, pages = mmap.PAGESIZE, []
covered, march_arrays, noise_batch = cover.native_march, solvers._march_arrays, solvers._noise_batch


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


def guarded(domain, coeffs):
    # Each packed tag moved to the end of its own readable page.
    lib, *tags = covered(domain, coeffs)
    return lib, *(at_page_end(np.frombuffer(tag)).ctypes.data for tag in tags)


def guarded_arrays(*args):
    # The state, the variation, the outputs and each step log array moved
    # to the end of its own readable page, and the native march pointed at
    # the moved copies, the log's at row 1, where step 0 logs.
    (X, var, out, log), at = march_arrays(*args)
    X, var, out = at_page_end(X), at_page_end(var), at_page_end(out)
    at = [X.ctypes.data, var.ctypes.data, out.ctypes.data]
    if log is None:
        return (X, var, out, log), at + [None] * 3
    log = tuple(at_page_end(a) for a in log)
    return (X, var, out, log), at + [a[1:].ctypes.data for a in log]


def guarded_noise(*args):
    # The WZ slopes and the reference's Brownian blocks at a page end.
    return at_page_end(noise_batch(*args))


def stats(domain, coeffs, x0):
    return _arrays(rs.run_coupling_stats(rs.Study(domain, coeffs, x0, 1.0, (2, 3), 3, 2, 3, 2)))


def single_path(domain, coeffs, x0):
    path = rs.sample_path(coeffs.dim_noise, 1.0, 6, 3)
    return _arrays(rs.coupled_solve(domain, coeffs, path, 3, 2, x0, [0.5, 1.0], True))


def batch(domain, coeffs, x0):
    # 65 rows, a full tile and a tile of one, whose row is each array's
    # last, through both schemes.
    x0 = np.tile(np.asarray(x0, float), (65, 1))
    paths = rs.sample_path(coeffs.dim_noise, 1.0, 5, list(range(65)))
    times, knot_idx, out_pos = solvers.wz_schedule(3, 2, [0.5, 1.0], 1.0)
    return _arrays([
        solvers.integrate_wz_batch(domain, coeffs, x0, rs.wz_knot_slopes(paths, 3), times,
                                   knot_idx, out_pos),
        solvers.integrate_reference_batch(domain, coeffs, x0, [(0, paths.values)], 5, [16, 32]),
    ])


lines = [(make(), family(), [0.0]) for make in DOMAINS.values() for family in FAMILIES.values()]
planes = [(PLANAR_DOMAINS[name](), family(), _PLANAR_PATH_STARTS[name][0])
          for name in PLANAR_DOMAINS for family in PLANAR_FAMILIES.values()]
# The d = 3 box fills every slot of its packed domain tag.
spaces = [(SPATIAL_DOMAINS[name](), family(), _SPATIAL_PATH_STARTS[name][0])
          for name in SPATIAL_GUARDED for family in SPATIAL_FAMILIES.values()]
runs = [(run, study) for run in (stats, single_path, batch) for study in lines + planes + spaces]
for run, study in runs:
    expected = run(*study)
    cover.native_march, solvers._march_arrays, solvers._noise_batch = (
        guarded, guarded_arrays, guarded_noise)
    assert run(*study) == expected
    cover.native_march, solvers._march_arrays, solvers._noise_batch = (
        covered, march_arrays, noise_batch)
print(len(runs))
"""


def test_the_kernels_read_no_parameter_past_the_packed_ones(native):
    # Each covered study marches with each of its two packed tags, its
    # state, variation, outputs, WZ slopes and Brownian blocks, and a
    # single path with each of its step log's arrays, zero row included,
    # at the end of a readable page, in a child process that a read or
    # write past them kills; as a group, as a single path and as a batch
    # of 65 rows, whose last tile holds the arrays' last row alone; at
    # d = 1, at d = 2 and, on the box and the annulus, at d = 3.
    if not sys.platform.startswith("linux"):
        pytest.skip("the guard page is set with Linux's mprotect")
    tests_dir = Path(__file__).resolve().parent
    package_root = Path(rs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package_root), str(tests_dir)]))
    proc = subprocess.run([sys.executable, "-c", _GUARDED], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    planes = len(PLANAR_DOMAINS) * len(PLANAR_FAMILIES)
    spaces = len(SPATIAL_GUARDED) * len(SPATIAL_FAMILIES)
    assert int(proc.stdout) == 3 * (len(DOMAINS) * len(FAMILIES) + planes + spaces)
