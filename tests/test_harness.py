import dataclasses
import json
import threading
import tracemalloc

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import brownian, cover, harness
from reflectedsde.coefficients import CoefficientSet
from reflectedsde.errors import DegenerateFit, ExperimentFailed, MismatchedTimes, OutOfDomain
from reflectedsde.harness import (
    default_rate_exponent,
    jackknife_se,
    path_seed,
)
from test_golden import _ball3_problem


# ---------------------------------------------------------------------------
# Rate fitting and standard errors
# ---------------------------------------------------------------------------

def test_fit_rate_geometric_sequence():
    slope, intercept = rs.fit_rate([1, 2, 3], [1.0, 0.5, 0.25])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_half_exponent_template():
    levels = np.arange(4, 10)
    errors = 2.0 ** (-levels / 2.0)
    slope, _ = rs.fit_rate(levels, errors)
    assert slope == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        rs.fit_rate([1, 2, 3], [0.3, 0.3, 0.3])
    with pytest.raises(DegenerateFit):
        rs.fit_rate([1], [0.5])
    with pytest.raises(DegenerateFit):
        rs.fit_rate([1, 2], [0.5, 0.0])
    with pytest.raises(DegenerateFit):
        rs.fit_rate([1, 2], [0.5, -0.1])


def test_jackknife_matches_classic_se(rng):
    x = rng.normal(size=400)
    assert jackknife_se(x) == pytest.approx(float(np.std(x, ddof=1)) / 20.0, rel=1e-10)
    assert jackknife_se(np.array([1.0])) == 0.0


def test_path_seed_derivation_is_stable():
    assert path_seed(7, 0) == path_seed(7, 0)
    assert path_seed(7, 0) != path_seed(7, 1)
    assert path_seed(7, 0) != path_seed(8, 0)


# ---------------------------------------------------------------------------
# Weighted distance functional
# ---------------------------------------------------------------------------

def _coupled_pair(domain, coeffs, n=4, seed=50, T=1.0, x0=(0.0,)):
    path = rs.sample_path(coeffs.dim_noise, T, n + 4, seed=seed)
    return rs.coupled_solve(domain, coeffs, path, n, 8, list(x0), [T])


def test_trace_vanishes_for_identical_paths(unit_interval, wavy_coeffs):
    _, reference = _coupled_pair(unit_interval, wavy_coeffs)
    trace = rs.lyapunov_trace(unit_interval, reference, reference, r=-1.0)
    np.testing.assert_array_equal(trace.f_values, np.zeros_like(trace.f_values))
    assert np.all(trace.g_values > 0.0)


def test_trace_rate_exponent_threshold(thick_annulus, unit_ball):
    # threshold -2 c0 / alpha: -2.0 for this annulus, 0 for the ball.
    states = np.zeros((3, 2))
    times = np.array([0.0, 0.5, 1.0])
    dummy = rs.ReflectedPath(times, states + [1.0, 0.0], states, np.zeros(3), 1)
    rs.lyapunov_trace(thick_annulus, dummy, dummy, r=-2.5)
    with pytest.raises(ValueError):
        rs.lyapunov_trace(thick_annulus, dummy, dummy, r=-1.9)
    rs.lyapunov_trace(unit_ball, dummy, dummy, r=-0.1)
    with pytest.raises(ValueError):
        rs.lyapunov_trace(unit_ball, dummy, dummy, r=0.0)


def test_trace_sandwich_holds_exactly(unit_interval, wavy_coeffs):
    approx, reference = _coupled_pair(unit_interval, wavy_coeffs, seed=77)
    trace = rs.lyapunov_trace(unit_interval, reference, approx, r=-1.0)
    y3 = np.sum((approx.states - reference.states) ** 2, axis=1)
    assert np.all(trace.c1 * y3 <= trace.f_values)
    assert np.all(trace.f_values <= trace.c2 * y3)
    assert trace.c1 == pytest.approx(np.exp(-2.0))
    assert trace.c2 == pytest.approx(1.0)


def test_trace_with_flat_weight_reduces_to_squared_distance(unit_interval, wavy_coeffs):
    flat = dataclasses.replace(
        unit_interval, phi=lambda x: np.full(np.shape(x)[:-1], 0.5), phi_range=(0.5, 0.5)
    )
    approx, reference = _coupled_pair(unit_interval, wavy_coeffs, seed=78)
    trace = rs.lyapunov_trace(flat, reference, approx, r=-1.0)
    y3 = np.sum((approx.states - reference.states) ** 2, axis=1)
    np.testing.assert_allclose(trace.f_values, np.exp(-1.0) * y3, rtol=1e-14)
    assert trace.c1 == trace.c2 == pytest.approx(np.exp(-1.0))


def test_trace_requires_shared_times(unit_interval, wavy_coeffs):
    approx, reference = _coupled_pair(unit_interval, wavy_coeffs)
    shorter = rs.ReflectedPath(
        approx.times[:-1], approx.states[:-1], approx.regulator[:-1],
        approx.variation[:-1], approx.level_meta,
    )
    with pytest.raises(MismatchedTimes):
        rs.lyapunov_trace(unit_interval, reference, shorter, r=-1.0)


def test_default_rate_exponent(unit_ball, thick_annulus):
    assert default_rate_exponent(unit_ball) == -1.0
    assert default_rate_exponent(thick_annulus) == pytest.approx(-2.5)


# ---------------------------------------------------------------------------
# Strong-error estimation
# ---------------------------------------------------------------------------

def test_no_noise_report_is_degenerate(unit_interval):
    # Without noise both solvers integrate the same reflected drift flow
    # exactly, so every per-path error vanishes.
    still = rs.constant([[0.0]], drift_offset=[0.5])
    report = rs.estimate_strong_error(
        rs.Study(unit_interval, still, [0.3], 1.0, [3, 4, 5], 20, 3, 4, seed=1), 2.0
    )
    assert report.degenerate
    assert report.slope is None
    assert all(e == 0.0 for e in report.errors)


def test_additive_noise_errors_match_interpolation_oracle():
    # Interior problem: both solvers are exact, so per-level errors must
    # equal the directly computed interpolant-gap moments.
    wide = rs.interval(-8.0, 8.0)
    sigma = 0.4
    coeffs = rs.constant([[sigma]])
    levels = [3, 4, 5, 6]
    M, margin, seed = 200, 3, 99
    study = rs.Study(wide, coeffs, [0.0], 1.0, levels, M, margin, 4, seed)
    report = rs.estimate_strong_error(study, 2.0)
    assert report.slope is not None and report.slope > 0.7

    fine = max(levels) + margin
    grid_level = max(levels)
    oracle = np.zeros((M, len(levels)))
    for i in range(M):
        path = rs.sample_path(1, 1.0, fine, seed=path_seed(seed, i))
        vals = np.asarray(path.values)[:, 0]
        t_grid = np.arange(2**grid_level + 1) / 2.0**grid_level
        ref = vals[np.round(t_grid * 2**fine).astype(int)]
        for j, n in enumerate(levels):
            k = np.floor(t_grid * 2**n).astype(int)
            stride = 2 ** (fine - n)
            w_k = vals[np.minimum(k * stride, len(vals) - 1)]
            w_prev = vals[np.maximum(k - 1, 0) * stride]
            interp = w_prev + (t_grid * 2**n - k) * (w_k - w_prev)
            oracle[i, j] = np.max(np.abs(sigma * (interp - ref))) ** 2
    np.testing.assert_allclose(report.errors, oracle.mean(axis=0), rtol=1e-9)


def test_error_monotone_in_level(unit_interval, wavy_coeffs):
    report = rs.estimate_strong_error(
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [3, 4, 5, 6, 7], 300, 4, 8, seed=12), 2.0
    )
    for j in range(len(report.levels) - 1):
        slack = 2.0 * float(np.hypot(report.stderrs[j], report.stderrs[j + 1]))
        assert report.errors[j + 1] <= report.errors[j] + slack


def test_reference_bias_under_control(unit_interval, wavy_coeffs):
    # Two extra levels of reference resolution move the errors by < 10%.
    base = rs.estimate_strong_error(
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4, 5, 6], 300, 4, 8, seed=31), 2.0
    )
    finer = rs.estimate_strong_error(
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4, 5, 6], 300, 6, 8, seed=31), 2.0
    )
    for a, b in zip(base.errors, finer.errors):
        assert abs(a - b) / a < 0.10


def test_report_round_trips_and_recomputable_slope(unit_interval, wavy_coeffs):
    report = rs.estimate_strong_error(
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [3, 4, 5], 50, 3, 4, seed=3), 2.0
    )
    blob = json.dumps(report.to_json_dict())
    data = json.loads(blob)
    slope, _ = rs.fit_rate(data["levels"], data["errors"])
    assert slope == pytest.approx(report.slope, rel=1e-12)
    csv_text = report.to_csv_string()
    assert csv_text.splitlines()[0] == "n,error,stderr"
    assert len(csv_text.splitlines()) == 4


def test_determinism_byte_identical(unit_interval, wavy_coeffs):
    def run():
        report = rs.estimate_strong_error(
            rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [3, 4, 5], 60, 3, 8, seed=2718), 2.0
        )
        return json.dumps(report.to_json_dict(), sort_keys=True).encode()

    assert run() == run()


def test_parallel_workers_match_serial(unit_interval, wavy_coeffs, monkeypatch):
    # A study's work is shared among tiles, and gives the bytes of a serial
    # run in one tile (tests/test_slices.py checks the threads).  A budget
    # of 200 paths at level 4: the M=520 study of a custom projection,
    # which has no native march, marches in three numpy tiles of 173 and
    # 174 paths on one thread, within the whole budget.
    default = harness._CHUNK_BYTES
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 200 * 17 * 8)

    def clip_half(X, V):  # a closure, which no pickling could rebuild
        y = X + V
        state = np.clip(y, -0.5, 0.5)
        return state, state - y

    clipped = dataclasses.replace(unit_interval, resolve_batch=clip_half)
    custom = dataclasses.replace(unit_interval, name="custom", resolve_batch=None)
    study = rs.Study(clipped, wavy_coeffs, [0.0], 1.0, (3, 4), 520, 3, 4, 5)
    assert harness._layout(study, harness._plan(study, 4, ())) == (
        1, [range(0, 173), range(173, 346), range(346, 520)], 200 * 17 * 8)
    for domain, M in ((unit_interval, 24), (clipped, 520), (custom, 24)):
        tiled = rs.run_coupling_stats(
            rs.Study(domain, wavy_coeffs, [0.0], 1.0, (3, 4), M, 3, 4, 5))
        # The run in one tile gets a copy named "custom", so nothing keyed
        # by the domain's name can stand in for either run.
        with monkeypatch.context() as m:
            m.setattr(harness, "_CHUNK_BYTES", default)
            whole = rs.run_coupling_stats(rs.Study(
                dataclasses.replace(domain, name="custom"), wavy_coeffs, [0.0], 1.0, (3, 4), M,
                3, 4, 5,
            ))
        np.testing.assert_array_equal(whole.sup_dist, tiled.sup_dist)
        np.testing.assert_array_equal(whole.f_final, tiled.f_final)


def _annulus_problem():
    coeffs = rs.trig(
        offset=[[0.6, 0.1], [0.1, 0.6]],
        amplitude=[[0.3, 0.1], [0.1, 0.3]],
        frequency=[1.0, 2.0],
        drift_matrix=[[-0.5, 0.0], [0.0, -0.5]],
    )
    return rs.annulus(0.5, 1.0, dim=2), coeffs, [0.75, 0.0]


def _layout_outputs(domain, coeffs, x0):
    stats = rs.run_coupling_stats(rs.Study(domain, coeffs, x0, 1.0, (3, 4), 12, 3, 4, 5))
    arrays = [stats.sup_dist, stats.final_dist, stats.f_final, stats.var_final,
              stats.ref_var_final]
    holder = [
        json.dumps(rs.holder_report(
            rs.Study(domain, coeffs, x0, 1.0, [4], 12, 3, 8, 3), [2], grid_level=4,
            reference=reference,
        ).to_json_dict(), sort_keys=True)
        for reference in (True, False)
    ]
    return arrays, holder


def _recording_blocks(monkeypatch):
    """Patch ``FineBlocks.blocks`` to record each call's block count and
    the bytes its block buffer allocates, from any thread."""
    calls = []
    blocks = brownian.FineBlocks.blocks

    def recording(self):
        call = [0, 0]
        calls.append(call)
        for start, values in blocks(self):
            call[0] += 1
            call[1] = max(call[1], _allocated_bytes(values))
            yield start, values

    monkeypatch.setattr(brownian.FineBlocks, "blocks", recording)
    return calls


def test_chunk_layout_is_invisible_in_the_results(unit_interval, wavy_coeffs, monkeypatch):
    calls = _recording_blocks(monkeypatch)
    tiles = _recording_tiles(monkeypatch)
    default = harness._CHUNK_BYTES
    native = brownian._native() is not None
    for domain, coeffs, x0 in ((unit_interval, wavy_coeffs, [0.0]), _annulus_problem()):
        m = coeffs.dim_noise
        # Every study and Holder table here samples its paths at level 4 (17
        # knots per path at T=1) and refines them to fine level 7: 8 fine
        # intervals per coarse one, 16 coarse intervals in all.
        path_bytes = 17 * m * 8
        monkeypatch.setattr(harness, "_CHUNK_BYTES", default)
        tiles.clear()
        expected = _layout_outputs(domain, coeffs, x0)
        assert tiles == [12]
        # (budget, tiles of the M=12 study, reference blocks per numpy tile,
        # and per native tile).  Both marches cut the study into
        # the fewest tiles whose path arrays fit the budget: a native tile
        # holds _TILE_ROWS paths only where that many paths' path arrays
        # fit.  The numpy march's tiles refine in the whole budget, the
        # native march's in half of it, which here is less than a tile's
        # other arrays.  The reference table is cut by the same rule.
        layouts = [
            (1, 12, 16, 16),                        # one-path tiles, one-interval blocks
            (4 * path_bytes, 3, 8, 16),             # four-path tiles, two-interval blocks
            (12 * path_bytes, 1, 8, 16),            # one tile, two-interval blocks
            (24 * path_bytes, 1, 4, 8),             # one tile, four-interval blocks
            (12 * m * 8 * (4 * 8 + 1), 1, 4, 16),   # one tile, four-interval blocks
            (12 * m * 8 * (16 * 8 + 1), 1, 1, 3),   # one tile, one block
        ]
        for budget, n_tiles, n_blocks, tile_blocks in layouts:
            monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
            calls.clear()
            tiles.clear()
            arrays, holder = _layout_outputs(domain, coeffs, x0)
            assert tiles == [12 // n_tiles] * n_tiles
            # The study's and the reference table's tiles, each in its blocks.
            per_run = [tile_blocks if native else n_blocks] * n_tiles
            assert [n for n, _ in calls] == per_run * 2
            for got, want in zip(arrays, expected[0]):
                np.testing.assert_array_equal(got, want)
            assert holder == expected[1]

        # Tiles: a study of 200 paths on one thread.  A tile's arrays but
        # its block buffer take 8 bytes per path for each of the 17 knots
        # sampled and 16 slopes per noise dimension, the reference's and one
        # level's 17 outputs, state and variation, and 17 distances.
        monkeypatch.setattr(harness, "_CHUNK_BYTES", default)
        monkeypatch.setattr(harness, "_cpus", lambda: 1)
        d = domain.dim
        tile_bytes = 8 * ((17 + 16) * m + 2 * (18 * d + 1) + 17)
        study = rs.Study(domain, coeffs, x0, 1.0, (3, 4), 200, 3, 4, 5)
        assert harness._tile_bytes(study, harness._plan(study, 4, ())) == tile_bytes
        wide = _arrays(rs.run_coupling_stats(study))
        # (budget, tile widths of the native march, and of the numpy march):
        # a native tile holds at most _TILE_ROWS paths, so the study takes
        # no fewer tiles than runs of 64 paths, four, however many paths'
        # path arrays the budget holds; a budget of 40 paths' path arrays
        # takes five.  The numpy march's tiles are as wide as their path
        # arrays fit the budget.
        for budget, widths, numpy_widths in (
            (default, [50] * 4, [200]),             # one numpy tile
            (100 * path_bytes, [50] * 4, [100] * 2),
            (40 * path_bytes, [40] * 5, [40] * 5),  # the path arrays bound both
        ):
            monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
            tiles.clear()
            for got, want in zip(_arrays(rs.run_coupling_stats(study)), wide):
                np.testing.assert_array_equal(got, want)
            assert tiles == (widths if native else numpy_widths)


def _arrays(stats):
    """The per-path arrays of a ``CouplingStats``."""
    return [stats.sup_dist, stats.final_dist, stats.f_final, stats.var_final,
            stats.ref_var_final]


def _recording_tiles(monkeypatch):
    """Patch ``harness._tile_stats`` to record the width of each tile
    marched, from any thread."""
    widths, tile_stats = [], harness._tile_stats

    def recording(study, plan, indices, rows, block_bytes):
        widths.append(len(indices))
        return tile_stats(study, plan, indices, rows, block_bytes)

    monkeypatch.setattr(harness, "_tile_stats", recording)
    return widths


def test_a_planar_study_gives_the_same_stats_in_groups_of_one_path(monkeypatch):
    # At d=2 and d=3 a path marched alone gives the bytes of its row in a
    # wider tile, so tiles of a single path leave the stats as they are.
    tiles, default = _recording_tiles(monkeypatch), harness._CHUNK_BYTES
    for domain, coeffs, x0 in (_annulus_problem(), _ball3_problem()):

        def stats(budget):
            # Seed 3: before every contraction had one summation order, a
            # path marched alone here differed by up to 4.4e-16 in sup_dist
            # and ref_var_final from its row in the tile of three.
            monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
            tiles.clear()
            s = rs.run_coupling_stats(rs.Study(domain, coeffs, x0, 1.0, (3, 4), 3, 3, 4, 3))
            return [s.sup_dist, s.final_dist, s.f_final, s.var_final, s.ref_var_final]

        expected = stats(default)
        assert tiles == [3]
        # A budget of one byte: both marches cut the study into tiles of
        # one path each, as no path's path array fits it.
        got = stats(1)
        assert tiles == [1, 1, 1]
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("problem", [_annulus_problem, _ball3_problem])
@pytest.mark.parametrize("M", [16, 600])
def test_stats_do_not_depend_on_the_layout_of_coefficient_outputs(problem, M):
    # The march's contractions are elementwise, so a custom set returning
    # the same values Fortran-ordered or with reversed axes gets the same
    # bits, in narrow and wide groups.
    domain, coeffs, x0 = problem()

    def relaid(layout):
        def wrap(field):
            return lambda y: layout(field(y))

        return dataclasses.replace(
            coeffs, sigma=wrap(coeffs.sigma), grad_sigma=wrap(coeffs.grad_sigma)
        )

    def stats(c):
        s = rs.run_coupling_stats(rs.Study(domain, c, x0, 0.5, (2, 3), M, 3, 4, 5))
        return [s.sup_dist, s.final_dist, s.f_final, s.var_final, s.ref_var_final]

    expected = stats(coeffs)
    for layout in (np.asfortranarray, lambda a: np.ascontiguousarray(a.T).T):
        for a, b in zip(stats(relaid(layout)), expected):
            assert a.tobytes() == b.tobytes()


def _cut(runs, indices) -> list[int]:
    """The widths of ``runs``, once they cover ``indices`` in order with
    widths that differ by at most one."""
    assert [i for run in runs for i in run] == list(indices)
    widths = [len(run) for run in runs]
    assert min(widths) >= 1 and max(widths) - min(widths) <= 1
    return widths


@pytest.mark.parametrize("budget", [1, 10_000, 2**20, 2**40])
def test_chunk_ranges_are_ordered_balanced_and_cover_the_study(budget, monkeypatch):
    # The study's tiles by the native and the numpy rule, for paths at
    # level 6 with d = m = 2.
    monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
    domain, coeffs, x0 = _annulus_problem()
    path_bytes = 65 * 2 * 8  # level 6 at T=1 with two noise dimensions
    for M in (2, 3, 7, 520, 2000):
        study = rs.Study(domain, coeffs, x0, 1.0, [6], M, 2, 1, 0)
        plan = harness._plan(study, 6, ())
        tile_bytes = harness._tile_bytes(study, plan)
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(harness, "_cpus", lambda: cpus)
            # Native: the fewest tiles, a multiple of the thread count or a
            # path each, that each hold at most w paths, w being _TILE_ROWS
            # while their path arrays fit a thread's share, else as many as
            # fit, or one path.  The block buffer holds w paths' other
            # arrays, or half the share if that is less.
            monkeypatch.setattr(cover, "native_march", lambda domain, coeffs: ())
            n, tiles, block_bytes = harness._layout(study, plan)
            assert 1 <= n <= cpus and (n == 1 or M >= 64 * n)
            widths, share = _cut(tiles, range(M)), budget // n
            w = min(64, max(share // path_bytes, 1))
            assert block_bytes == min(share // 2, w * tile_bytes)
            assert len(tiles) % n == 0 or len(tiles) == M
            assert max(widths) <= w and M > (len(tiles) - n) * w
            if max(widths) > 1:
                assert max(widths) * path_bytes <= share
            # Where a tile's arrays fit half its share, they fit it together
            # with its block buffer.
            if max(widths) * tile_bytes <= share // 2:
                assert max(widths) * tile_bytes + block_bytes <= share
            # Numpy: one thread, and the fewest tiles whose path arrays each
            # fit in the budget, or hold one path.
            monkeypatch.setattr(cover, "native_march", lambda domain, coeffs: None)
            n, tiles, block_bytes = harness._layout(study, plan)
            assert n == 1
            widths, width = _cut(tiles, range(M)), max(budget // path_bytes, 1)
            assert block_bytes == budget and max(widths) <= width
            assert M > (len(tiles) - 1) * width
            if width > 1:
                assert max(widths) * path_bytes <= budget


def _allocated_bytes(array):
    while array.base is not None:
        array = array.base
    return array.nbytes


def test_chunks_fit_the_budget_when_the_horizon_is_not_whole(
    unit_interval, wavy_coeffs, monkeypatch
):
    # At T=0.3 the fine grid (level 7) has 39 intervals, ending at 0.3047.
    # Paths are sampled at level 4 over that horizon: 5 intervals are used,
    # but sampling refines the whole unit interval, 17 knots, and the path
    # keeps them alive.
    assert brownian.dyadic_grid(0.3, 7) == (39, 129)
    assert brownian.dyadic_grid(39 / 128, 4) == (5, 17)
    budget = 10 * 17 * 8
    monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
    allocated = []

    def recording_sample_path(*args):
        path = brownian.sample_path(*args)
        allocated.append(_allocated_bytes(path.values))
        return path

    monkeypatch.setattr(harness, "sample_path", recording_sample_path)
    calls = _recording_blocks(monkeypatch)
    rs.run_coupling_stats(rs.Study(unit_interval, wavy_coeffs, [0.0], 0.3, (3, 4), 24, 3, 4, 5))
    for reference in (False, True):
        rs.holder_report(
            rs.Study(unit_interval, wavy_coeffs, [0.0], 0.3, [4], 24, 3, 8, 3), [2],
            grid_level=4, reference=reference,
        )
    # Three tiles of 8 paths per run, on one thread (24 paths make no run
    # of _TILE_ROWS): the budget holds ten paths' path arrays, so neither
    # march takes wider tiles.  Each numpy reference refines its tile in
    # blocks of two coarse intervals (8 x 17 knots): three blocks for five,
    # but the Holder grid ends at 0.25, so that march stops after two.  A
    # native tile refines in half the budget, in blocks of one coarse
    # interval (8 x 9 knots): five blocks, and four to 0.25.
    assert len(allocated) == 9
    native = brownian._native() is not None
    assert [n for n, _ in calls] == ([5] * 3 + [4] * 3 if native else [3] * 3 + [2] * 3)
    assert max(allocated + [nbytes for _, nbytes in calls]) <= budget


@pytest.mark.parametrize("planar", [False, True])
def test_every_array_of_a_native_tile_fits_its_share(planar, native, monkeypatch):
    # T=0.3 as above, with the fine grid at level 9: 154 intervals, ending
    # at 0.3008.  Paths at level 4 keep 17 knots and 5 slopes per noise
    # dimension, and the outputs are the level-4 knots to 0.25 and the
    # horizon, 6 in all.  A tile's arrays but its block buffer take 8 bytes
    # per path for each of those knots and slopes, the reference's and one
    # level's 6 outputs, state and variation, and 6 distances.
    domain, coeffs, x0 = _native_problem(planar)
    m = d = domain.dim
    tile_bytes = 8 * ((17 + 5) * m + 2 * (7 * d + 1) + 6)
    # A study of 142 paths on two threads, as two CPUs allow.  Half of a
    # thread's share holds exactly 70 paths' arrays, and the whole share
    # more than 64 paths' path arrays, so the study is cut into the fewest
    # tiles of at most _TILE_ROWS paths on two threads: four, of 35 and 36
    # paths, two per thread.  A tile's block buffer holds 64 paths' arrays,
    # less than half the share: two of its five coarse intervals.
    share = 2 * 70 * tile_bytes
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 2 * share)
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    study = rs.Study(domain, coeffs, x0, 0.3, (3, 4), 142, 5, 4, 5)
    assert harness._layout(study, harness._plan(study, 4, ())) == (
        2, [range(0, 35), range(35, 71), range(71, 106), range(106, 142)], 64 * tile_bytes)
    tiles = _recording_tile_arrays(monkeypatch)
    rs.run_coupling_stats(study)

    assert sorted(tile.pop("width") for tile in tiles) == [35, 35, 36, 36]
    for tile in tiles:
        # Three reference blocks, one reference march, and two levels that
        # each march, take slopes and measure distances.
        assert [len(tile[name]) for name in ("block", "paths", "reference", "level", "slopes",
                                             "distances")] == [3, 1, 1, 2, 2, 2]
        arrays = sum(max(sizes) for name, sizes in tile.items() if name != "block")
        assert arrays <= share - share // 2 and max(tile["block"]) <= 64 * tile_bytes
        assert arrays + max(tile["block"]) <= share


def test_path_arrays_in_flight_fit_the_budget_on_many_threads(native, monkeypatch):
    # 1024 paths at level 6 over T=1 keep 65 knots each, 520 bytes, on
    # eight threads as eight CPUs allow.  A thread's share holds 20 paths'
    # path arrays, so a tile holds at most 20 paths, not _TILE_ROWS: 56
    # tiles of 18 and 19 paths.
    domain, coeffs, x0 = _native_problem(False)
    path_bytes = 65 * 8
    budget = 8 * 20 * path_bytes
    monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
    monkeypatch.setattr(harness, "_cpus", lambda: 8)
    study = rs.Study(domain, coeffs, x0, 1.0, (5, 6), 1024, 2, 1, 3)
    n, tiles, block_bytes = harness._layout(study, harness._plan(study, 6, ()))
    assert n == 8
    assert len(tiles) == 56 and {len(tile) for tile in tiles} == {18, 19}
    threads, sample = set(), harness.sample_path

    def recording(*args):
        threads.add(threading.current_thread())
        return sample(*args)

    monkeypatch.setattr(harness, "sample_path", recording)
    records = _recording_tile_arrays(monkeypatch)
    rs.run_coupling_stats(study)
    assert len(threads) == n and len(records) == 56
    assert max(size for tile in records for size in tile["paths"]) <= budget // n


def _acceptance_study(levels):
    """The acceptance study (``rate_interval_1d``'s problem, M=2000, fine
    margin 4, 8 substeps) at ``levels``."""
    coeffs = rs.trig([[0.5]], [[0.2]], [1.0], drift_matrix=[[-0.3]])
    return rs.Study(rs.interval(-1.0, 1.0), coeffs, [0.0], 1.0, levels, 2000, 4, 8, 20240817)


def _native_layout(study, cpus, monkeypatch):
    """The native rule's layout of a study at ``cpus`` patched CPUs: the
    thread count, the tile widths and the block bytes."""
    monkeypatch.setattr(cover, "native_march", lambda domain, coeffs: ())
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    plan = harness._plan(study, max(study.levels), ())
    n, tiles, block_bytes = harness._layout(study, plan)
    return n, _cut(tiles, range(study.M)), block_bytes


def test_the_acceptance_study_refines_in_blocks_of_its_tiles_arrays(monkeypatch):
    # Two threads of 1000 paths each, on two CPUs.  A thread's 8 MiB share
    # holds far more than 64 paths' path arrays (513 knots), so each thread
    # marches sixteen tiles of 62 and 63 paths.  A tile's other arrays take
    # 20,544 bytes a path: 513 knots and 512 slopes, two marches' 513
    # outputs with their state and variation, and 513 distances.  The
    # block buffer holds those arrays of 64 paths, well under half the
    # share.
    study = _acceptance_study((4, 5, 6, 7, 8, 9))
    tile_bytes = harness._tile_bytes(study, harness._plan(study, 9, ()))
    assert tile_bytes == 8 * (513 + 512 + 2 * (514 + 1) + 513) == 20544
    n, widths, block_bytes = _native_layout(study, 2, monkeypatch)
    assert (n, len(widths), set(widths)) == (2, 32, {62, 63})
    assert block_bytes == 64 * tile_bytes < harness._CHUNK_BYTES // 4


@pytest.mark.parametrize("cpus, layout", [
    (2, ((2, 32, {62, 63}, 4 * 2**20), (2, 32, {62, 63}, 4 * 2**20))),
    (4, ((4, 32, {62, 63}, 2 * 2**20), (4, 32, {62, 63}, 2 * 2**20))),
    (8, ((8, 72, {27, 28}, 2**20), (8, 32, {62, 63}, 2**20))),
])
def test_long_grids_keep_their_tiles_and_half_share_blocks(cpus, layout, monkeypatch):
    # (threads, tiles, widths, block bytes) of the interval study to level
    # 13 and the rate_annulus_2d study to level 10.  Their tiles already
    # held at most 64 paths, and 64 paths' arrays take more than half a
    # thread's share, so the block buffer gets that half.  At eight CPUs a
    # thread's 2 MiB share holds 31 of the interval's path arrays (8193
    # knots), so it marches nine tiles of 27 and 28 paths.
    domain, coeffs, x0 = _annulus_problem()
    studies = (_acceptance_study(tuple(range(4, 14))),
               rs.Study(domain, coeffs, x0, 1.0, tuple(range(3, 11)), 2000, 4, 8, 7))
    for study, (threads, n_tiles, widths, block_bytes) in zip(studies, layout):
        n, got, block = _native_layout(study, cpus, monkeypatch)
        assert (n, len(got), set(got), block) == (threads, n_tiles, widths, block_bytes)


def test_the_acceptance_study_traces_under_6_mb(native, monkeypatch):
    # The peak of traced allocations of the acceptance study's engine call
    # on two CPUs, result arrays included: about 4.5 MB with tiles of at
    # most 64 paths refined in 64 paths' arrays, against 12.6 MB for tiles
    # of 200 paths refined in half a thread's share.
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    study = _acceptance_study((4, 5, 6, 7, 8, 9))
    tracemalloc.start()
    try:
        rs.run_coupling_stats(study)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("planar", [False, True])
def test_every_array_of_a_native_holder_tile_fits_its_share(planar, reference, native,
                                                            monkeypatch):
    # A Holder table at grid level 4 over T=0.3, with the fine grid at level
    # 9 as above: paths at level 4 keep 17 knots and 5 slopes per noise
    # dimension, and the outputs are the level-4 knots to 0.25, 5 in all.
    # Its tiles are cut by the study's rule, which budgets 8 bytes per path
    # for each of those knots and slopes, two marches' 5 outputs, state and
    # variation, and 5 distances; the table's tile holds one march and
    # writes its states path-major into its rows of the study's array.
    domain, coeffs, x0 = _native_problem(planar)
    m = d = domain.dim
    tile_bytes = 8 * ((17 + 5) * m + 2 * (6 * d + 1) + 5)
    # 142 paths on two threads; half of a thread's share holds exactly 70
    # paths' arrays: four tiles of 35 and 36 paths.  The other half holds
    # the reference's block buffer, two of the four coarse intervals that
    # reach 0.25.
    share = 2 * 70 * tile_bytes
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 2 * share)
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    tiles = _recording_tile_arrays(monkeypatch)
    rs.holder_report(rs.Study(domain, coeffs, x0, 0.3, [4], 142, 5, 4, 5), [2], grid_level=4,
                     reference=reference)

    assert sorted(tile.pop("width") for tile in tiles) == [35, 35, 36, 36]
    march = "reference" if reference else "level"
    for tile in tiles:
        counts = {"block": 2, "paths": 1, "reference": 1} if reference else {
            "paths": 1, "level": 1, "slopes": 1}
        assert {name: len(sizes) for name, sizes in tile.items()} == counts
        # The tile's rows of the states are as large as the march's states.
        arrays = sum(max(sizes) for name, sizes in tile.items() if name != "block")
        arrays += max(tile[march])
        block = max(tile.get("block", [0]))
        assert arrays <= share - share // 2 and block <= share // 2
        assert arrays + block <= share


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_holder_moments_reduce_one_lag_at_a_time_with_the_same_bits(d):
    # 300 paths of 129 grid states with increments of mixed scales, and a
    # few repeated states, whose increments are zero.  The table's moments
    # equal those of every lag's squared norms formed whole, and the
    # reduction holds no more than two (M, n_grid) arrays at once, the
    # states and the buffers numpy takes for strided operands (getbufsize
    # elements each) aside; from eight coordinates, where the increments
    # are formed whole, 2 d + 1: the increments, their squares and their
    # sum.
    rng = np.random.default_rng(d)
    states = rng.standard_normal((300, 129, d)) * 10.0 ** rng.integers(-8, 3, (300, 129, d))
    states[:, 5] = states[:, 4]
    strides, p_list = [1, 2, 4, 8, 16], [2.0, 4.0, 6.0]
    squares = [np.sum((states[:, s:] - states[:, :-s]) ** 2, axis=2) for s in strides]
    whole = [[float(np.mean(sq ** (p / 2.0))) for sq in squares] for p in p_list]
    del squares
    tracemalloc.start()
    try:
        moments = harness._lag_moments(states, strides, p_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert moments.tobytes() == np.asarray(whole).tobytes()
    arrays = 300 * 128 * 8
    buffers = 2 * np.getbufsize() * 8 + 4096
    assert peak <= (2 if d < 8 else 2 * d + 1) * arrays + buffers


def _native_problem(planar):
    """A study problem the native march covers, at d = m = 2 or at d = m = 1."""
    return _annulus_problem() if planar else (
        rs.interval(-1.0, 1.0), rs.trig([[0.5]], [[0.2]], [1.0]), [0.0])


def _recording_tile_arrays(monkeypatch):
    """Patch the engine's array makers to record each tile's arrays, by
    name, on the thread that marches it, from the sampling of its paths
    on; returns the list of per-tile records."""
    tiles, current = [], threading.local()

    def record(name, array):
        current.tile.setdefault(name, []).append(_allocated_bytes(array))

    def recording(name, fn, array=lambda out: out):
        def wrapper(*args):
            if name == "paths":
                current.tile = {"width": len(args[3])}
                tiles.append(current.tile)
            out = fn(*args)
            record(name, array(out))
            return out

        return wrapper

    blocks = brownian.FineBlocks.blocks

    def recording_blocks(self):
        for start, values in blocks(self):
            record("block", values)
            yield start, values

    monkeypatch.setattr(brownian.FineBlocks, "blocks", recording_blocks)
    for name, attr, array in (
        ("paths", "sample_path", lambda out: out.values),
        ("reference", "integrate_reference_batch", lambda out: out[0]),
        ("level", "integrate_wz_batch", lambda out: out[0]),
        ("slopes", "wz_knot_slopes", lambda out: out),
        ("distances", "sum_squares", lambda out: out),
    ):
        monkeypatch.setattr(harness, attr, recording(name, getattr(harness, attr), array))
    return tiles


def test_no_thread_outlives_a_reference_march(unit_interval, wavy_coeffs, monkeypatch):
    # 24 paths at level 4 over T=0.3, refined to level 7 in blocks: three
    # tiles of 8 paths, as the budget holds ten paths' path arrays.
    default = harness._CHUNK_BYTES
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 10 * 17 * 8)
    calls = _recording_blocks(monkeypatch)
    before = threading.active_count()
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 0.3, (3, 4), 24, 3, 4, 5)
    expected = rs.run_coupling_stats(study)
    assert threading.active_count() == before
    # The Holder grid ends at 0.25: each march stops there.  A numpy tile
    # refines in the whole budget, two coarse intervals a block, so it stops
    # inside its second block, before the third is refined; a native tile
    # refines in half the budget, one coarse interval a block: four blocks.
    calls.clear()
    rs.holder_report(dataclasses.replace(study, levels=(4,)), [2], 4, reference=True)
    assert [n for n, _ in calls] == [4 if brownian._native() is not None else 2] * 3
    assert threading.active_count() == before

    # A march that raises: a custom coefficient set marches in numpy and
    # fails in its second block.
    counted = []

    def failing_sigma(y):
        counted.append(1)
        if len(counted) == 20:
            raise RuntimeError("sigma failed")
        return wavy_coeffs.sigma(y)

    with pytest.raises(RuntimeError, match="sigma failed") as failure:
        rs.run_coupling_stats(
            dataclasses.replace(study, coeffs=dataclasses.replace(wavy_coeffs, sigma=failing_sigma))
        )
    # The traceback held here keeps the march's frame, and its blocks, alive.
    assert failure.traceback and threading.active_count() == before
    np.testing.assert_array_equal(rs.run_coupling_stats(study).sup_dist, expected.sup_dist)

    # A study of 200 paths on three threads as three CPUs allow (one
    # thread without the library): each thread is joined when the engine
    # call returns or raises.
    monkeypatch.setattr(harness, "_CHUNK_BYTES", default)
    monkeypatch.setattr(harness, "_cpus", lambda: 3)
    threaded = dataclasses.replace(study, M=200)
    march, marching = harness._march_tile, set()

    def recording(study, paths, process, grid):
        marching.add(threading.current_thread())
        return march(study, paths, process, grid)

    monkeypatch.setattr(harness, "_march_tile", recording)
    threaded_expected = rs.run_coupling_stats(threaded)
    assert len(marching) == (3 if brownian._native() is not None else 1)
    assert threading.active_count() == before

    # The first thread's tile fails at level 4 while the others march.
    def failing_first(study, paths, process, grid):
        if process == 4 and paths.seed[0] == path_seed(study.seed, 0):
            raise RuntimeError("first thread failed")
        return march(study, paths, process, grid)

    monkeypatch.setattr(harness, "_march_tile", failing_first)
    with pytest.raises(RuntimeError, match="first thread failed"):
        rs.run_coupling_stats(threaded)
    assert threading.active_count() == before
    monkeypatch.setattr(harness, "_march_tile", march)
    np.testing.assert_array_equal(rs.run_coupling_stats(threaded).sup_dist, threaded_expected.sup_dist)


def test_chunk_marches_record_states_and_variation_but_no_regulator(unit_interval, wavy_coeffs):
    # A tile's march keeps states at every output, the variation only at the
    # last one (the only row the engine reads), and no regulator.
    seeds = [21, 22, 23]
    coarse = rs.sample_path(1, 1.0, 3, seeds)
    grid = harness.coupled_output_grid(3, [1.0], 1.0)
    # The march reads the start, the coefficients and the substeps of the
    # study, and its schedule from the study's plan, whose outputs are the grid.
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [3], 3, 4, 4, 0)
    plan = harness._plan(study, 3, ("reference", 3))
    np.testing.assert_array_equal(plan.grid, grid)
    for process in ("reference", 3):
        paths = brownian.FineBlocks(coarse, 7, 128, 1) if process == "reference" else coarse
        states, var, log = harness._march_tile(study, paths, process, plan)
        assert log is None
        assert var.shape == (len(seeds),)
        for b, seed in enumerate(seeds):
            path = rs.sample_path(1, 1.0, 7, seed)
            if process == "reference":
                alone = rs.solve_reference(unit_interval, wavy_coeffs, path, [0.0], grid)
            else:
                alone = rs.solve_wz(unit_interval, wavy_coeffs, path, 3, 4, [0.0], grid)
            np.testing.assert_array_equal(states[:, b], alone.states)
            np.testing.assert_array_equal(var[b], alone.variation[-1])


def test_a_tiles_stats_hold_no_march_buffer(unit_interval, wavy_coeffs, monkeypatch):
    # A march's variation is a view of the buffer that holds its outputs
    # too; the tiles write their stats into the study's own arrays, so
    # that no study array keeps a march's outputs alive: in one tile, and
    # in three of four paths, as a budget of four paths' path arrays cuts.
    tiles = _recording_tiles(monkeypatch)
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, (3, 4), 12, 3, 4, 0)
    plan = harness._plan(study, 4, ("reference", 3, 4))
    for budget, widths in ((harness._CHUNK_BYTES, [12]), (4 * 17 * 8, [4, 4, 4])):
        monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
        tiles.clear()
        stats = harness._chunk_stats(study, plan)
        assert tiles == widths and len(stats) == 5
        for array in stats:
            assert array.base is None and len(array) == 12


def test_modified_domain_is_not_served_an_earlier_study(unit_interval, wavy_coeffs):
    args = (wavy_coeffs, [0.0], 1.0, (3, 4), 24, 3, 4, 5)
    rs.run_coupling_stats(rs.Study(unit_interval, *args))
    doubled = dataclasses.replace(unit_interval, phi=lambda x: 2.0 * unit_interval.phi(x))
    after = rs.run_coupling_stats(rs.Study(doubled, *args))
    alone = rs.run_coupling_stats(rs.Study(dataclasses.replace(doubled, name="custom"), *args))
    np.testing.assert_array_equal(after.f_final, alone.f_final)


def test_engine_rejects_a_start_outside_the_domain(unit_interval, wavy_coeffs):
    # Marching would clip the start to the boundary and study another
    # problem; a NaN start would fail every path or give NaN moments.
    # The study record is the one place the engine and holder_report check it.
    for x0 in ([5.0], [np.nan]):
        with pytest.raises(OutOfDomain):
            rs.Study(unit_interval, wavy_coeffs, x0, 1.0, (3, 4), 8, 2, 4, 1)
    with pytest.raises(ValueError, match="shape"):
        rs.Study(unit_interval, wavy_coeffs, [0.0, 0.0], 1.0, (3, 4), 8, 2, 4, 1)
    planar = rs.constant(np.eye(2))
    with pytest.raises(ValueError, match="state dimension"):
        rs.Study(unit_interval, planar, [0.0], 1.0, [2], 8, 4, 8, 1)


def test_failed_paths_abort(unit_interval):
    poisoned = CoefficientSet(
        sigma=lambda y: np.full(np.shape(y) + (1,), np.nan),
        b=lambda y: np.zeros(np.shape(y)),
        grad_sigma=lambda y: np.zeros(np.shape(y) + (1, 1)),
        dim_state=1,
        dim_noise=1,
    )
    with pytest.raises(ExperimentFailed):
        rs.run_coupling_stats(rs.Study(unit_interval, poisoned, [0.0], 1.0, [3], 10, 2, 2, seed=1))


def test_levels_and_margin_validation(unit_interval, wavy_coeffs):
    with pytest.raises(ValueError):
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4, 4], 10, 4, 8, 1)
    with pytest.raises(ValueError):
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [], 10, 4, 8, 1)
    with pytest.raises(ValueError):
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], 1, 4, 8, 1)
    with pytest.raises(ValueError):
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], 10, 1, 8, 1)
    # The engine and holder_report take one checked record, and each error
    # names the field it rejects.
    for substeps in (0, -3):
        with pytest.raises(ValueError, match="^substeps_per_knot"):
            rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], 10, 4, substeps, 1)
    # A boolean is never a level, though it compares equal to 0 or 1.
    for levels in ((-1, 1), (0, 1), (True, 2), (1, np.True_), (None, 2), (np.nan, 2)):
        with pytest.raises(ValueError, match="^levels"):
            rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, levels, 10, 4, 8, 1)
    for M in (0, 1):
        with pytest.raises(ValueError, match="^M"):
            rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], M, 4, 8, 4)
    with pytest.raises(ValueError, match="^fine_margin"):
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], 10, 1, 8, 4)
    for level in (0, 4.5):
        with pytest.raises(ValueError, match="^levels"):
            rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [level], 10, 4, 8, 4)
    # A Holder table marches the study's one level.
    two_levels = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [3, 4], 10, 4, 8, 4)
    for reference in (True, False):
        with pytest.raises(ValueError, match="^levels"):
            rs.holder_report(two_levels, [2], reference=reference)


def test_study_record_holds_the_checked_values(unit_interval, thick_annulus, wavy_coeffs):
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [3.0, 4], 10.0, 4, 8, 7.0)
    assert isinstance(study.x0, np.ndarray) and study.x0.dtype == float
    assert study.levels == (3, 4) and all(type(n) is int for n in study.levels)
    for name in ("M", "fine_margin", "substeps_per_knot", "seed"):
        assert type(getattr(study, name)) is int
    assert study.r == default_rate_exponent(unit_interval)
    planar = rs.constant(np.eye(2))
    assert rs.Study(thick_annulus, planar, [1.0, 0.0], 1.0, [3], 2, 2, 1, 0).r == -2.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        study.M = 20


def test_failed_paths_are_counted_from_the_valid_mask(unit_interval, wavy_coeffs):
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, (3, 4), 8, 2, 4, 1)
    stats = rs.run_coupling_stats(study)
    sup_dist = stats.sup_dist.copy()
    final_dist = stats.final_dist.copy()
    sup_dist[1, 0] = np.nan
    final_dist[5, 1] = np.inf
    final_dist[6] = np.nan
    poisoned = dataclasses.replace(stats, sup_dist=sup_dist, final_dist=final_dist)
    assert stats.n_failed == 0
    assert poisoned.n_failed == 3
    np.testing.assert_array_equal(np.flatnonzero(~poisoned.valid_mask()), [1, 5, 6])
    assert rs.rate_report(poisoned, 2.0, 1).n_failed == 3
    assert rs.lyapunov_report(poisoned, 1).n_failed == 3


def _planar_coeffs():
    return rs.trig(
        offset=[[0.3, 0.0], [0.0, 0.3]],
        amplitude=[[0.1, 0.0], [0.0, 0.1]],
        frequency=[1.0, 0.5],
        drift_matrix=[[-0.2, 0.0], [0.0, -0.2]],
    )


def test_planar_ball_gap_decays(unit_ball):
    stats = rs.run_coupling_stats(
        rs.Study(unit_ball, _planar_coeffs(), [0.0, 0.0], 1.0, [3, 5, 7], 200, 3, 8, seed=41)
    )
    errors = np.mean(stats.sup_dist**2, axis=0)
    assert stats.n_failed == 0
    assert errors[0] > errors[1] > errors[2]
    assert rs.fit_rate([3, 5, 7], errors)[0] > 0.5


def test_nonconvex_ring_gap_decays(thick_annulus):
    stats = rs.run_coupling_stats(
        rs.Study(thick_annulus, _planar_coeffs(), [1.0, 0.0], 1.0, [3, 5, 7], 200, 3, 8, seed=42)
    )
    errors = np.mean(stats.sup_dist**2, axis=0)
    assert stats.n_failed == 0
    assert errors[0] > errors[1] > errors[2]
    assert rs.fit_rate([3, 5, 7], errors)[0] > 0.5
    assert stats.r == pytest.approx(-2.5)
    # Regulator moments stay below the coupled reference moment.
    ref_moment = float(np.mean(stats.ref_var_final**2))
    assert np.all(np.mean(stats.var_final**2, axis=0) <= ref_moment)


# ---------------------------------------------------------------------------
# Calibration on a case with an exact answer
# ---------------------------------------------------------------------------

def test_rate_estimators_on_a_case_with_an_exact_answer():
    # Constant sigma, no drift, and a start that no path carries to the
    # boundary: X = sigma W and X^n = sigma W^n, the lagged interpolant, so
    # final_dist = sigma |W(1 - 2^-n) - W(1)| and E[final_dist^2] = sigma^2 2^-n.
    sigma, levels, seed = 0.5, (4, 5, 6, 7, 8, 9), 11
    study = rs.Study(rs.interval(-20.0, 20.0), rs.constant([[sigma]]), [0.0], 1.0, levels,
                     2000, 4, 8, seed)
    stats = rs.run_coupling_stats(study)
    assert not np.any(stats.ref_var_final) and not np.any(stats.var_final)
    knots = np.arange(2**9 + 1) / 2**9
    for i in range(4):
        path = rs.sample_path(1, 1.0, 9, path_seed(seed, i))
        w = path.values[:, 0]
        for j, n in enumerate(levels):
            w_n = np.array([rs.wz_value(path, n, t)[0] for t in knots])
            assert abs(stats.final_dist[i, j] - sigma * abs(w_n[-1] - w[-1])) <= 1e-12
            assert abs(stats.sup_dist[i, j] - sigma * np.max(np.abs(w_n - w))) <= 1e-12
    report = rs.rate_report(stats, 2, seed)
    for n, error, se in zip(levels, report.final_errors, report.final_stderrs):
        exact = sigma**2 * 2.0**-n
        assert abs(error / exact - 1.0) <= 3.0 * se / exact


# ---------------------------------------------------------------------------
# Decay diagnostic
# ---------------------------------------------------------------------------

def test_decay_check_sandwich_against_moment_report(unit_interval, wavy_coeffs):
    levels = [3, 4, 5]
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, levels, 200, 3, 8, seed=8)
    decay = rs.lyapunov_decay_check(study)
    moments = rs.estimate_strong_error(study, 2.0)
    c1, c2 = np.exp(-2.0), 1.0
    for f_mean, m2 in zip(decay.means, moments.final_errors):
        assert c1 * m2 <= f_mean <= c2 * m2
    assert decay.r == -1.0


def test_decay_check_degenerate_without_noise(unit_interval):
    still = rs.constant([[0.0]])
    decay = rs.lyapunov_decay_check(rs.Study(unit_interval, still, [0.0], 1.0, [3, 4], 20, 4, 8, 2))
    assert decay.degenerate and decay.slope is None
    assert all(m == 0.0 for m in decay.means)


# ---------------------------------------------------------------------------
# Time-regularity diagnostics
# ---------------------------------------------------------------------------

def test_regularity_slope_for_additive_noise():
    # Interior, constant diffusion: squared increments are exactly
    # sigma^2 |W increments|^2, so moments track sigma^2 * lag with slope 1.
    wide = rs.interval(-8.0, 8.0)
    sigma = 0.5
    coeffs = rs.constant([[sigma]])
    report = rs.holder_report(
        rs.Study(wide, coeffs, [0.0], 1.0, [4], 400, 4, 8, seed=4), [2], reference=True
    )
    row = report.rows[0]
    assert row.slope == pytest.approx(1.0, abs=0.1)
    for lag, moment in zip(row.lags, row.moments):
        assert moment == pytest.approx(sigma**2 * lag, rel=0.15)
    assert row.passed and not report.degenerate


def test_regularity_degenerate_flag(unit_interval, wavy_coeffs):
    still = rs.constant([[0.0]])
    report = rs.holder_report(
        rs.Study(unit_interval, still, [0.3], 1.0, [4], 30, 4, 8, seed=4), [2], reference=True
    )
    assert report.degenerate
    # grid_level 1 over T = 1 leaves one lag, too few to fit a slope.
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], 30, 4, 8, seed=4)
    for reference in (True, False):
        report = rs.holder_report(study, [2, 4], grid_level=1, reference=reference)
        assert report.degenerate
        for row in report.rows:
            assert len(row.lags) == 1 and row.slope is None and row.passed


def test_regularity_grid_level_validation(unit_interval, wavy_coeffs):
    with pytest.raises(ValueError, match="grid_level"):
        rs.holder_report(
            rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], 30, 4, 8, seed=4), [2],
            grid_level=0,
        )


def test_regularity_moment_order_validation(unit_interval, wavy_coeffs):
    with pytest.raises(ValueError):
        rs.holder_report(rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], 30, 4, 8, 4), [3])


def test_regularity_reflected_smoke(unit_interval, wavy_coeffs):
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [5], 300, 4, 8, seed=6)
    for reference in (True, False):
        report = rs.holder_report(study, [2, 4], grid_level=5, reference=reference)
        assert not report.degenerate
        for row in report.rows:
            assert row.slope >= row.p / 2.0 - 0.2
            assert row.passed
