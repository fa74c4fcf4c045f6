import dataclasses
import json
import threading

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import brownian, harness
from reflectedsde.coefficients import CoefficientSet
from reflectedsde.errors import DegenerateFit, ExperimentFailed, MismatchedTimes, OutOfDomain
from reflectedsde.harness import (
    _chunk_ranges,
    default_rate_exponent,
    jackknife_se,
    path_seed,
)
from test_brownian import _slow_ahead
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
    # A budget of 200 paths at level 4: the M=520 study spans three groups.
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 200 * 17 * 8)
    assert len(_chunk_ranges(520, 1.0, 4, 1, 2)) == 3

    def clip_half(X, V):  # a closure: workers must inherit it, not rebuild it
        y = X + V
        state = np.clip(y, -0.5, 0.5)
        return state, state - y

    clipped = dataclasses.replace(unit_interval, resolve_batch=clip_half)
    custom = dataclasses.replace(unit_interval, name="custom", resolve_batch=None)
    # The clipped study spans three groups, so group order is checked too.
    for domain, M in ((unit_interval, 24), (clipped, 520), (custom, 24)):
        parallel = rs.run_coupling_stats(
            rs.Study(domain, wavy_coeffs, [0.0], 1.0, (3, 4), M, 3, 4, 5, workers=2)
        )
        # The serial run gets a copy named "custom", so nothing keyed by the
        # domain's name can stand in for either run.
        serial = rs.run_coupling_stats(rs.Study(
            dataclasses.replace(domain, name="custom"), wavy_coeffs, [0.0], 1.0, (3, 4), M,
            3, 4, 5, workers=1,
        ))
        np.testing.assert_array_equal(serial.sup_dist, parallel.sup_dist)
        np.testing.assert_array_equal(serial.f_final, parallel.f_final)

    # holder_report runs its groups through the same loop: two workers (two
    # groups) give the serial report's bytes, for both processes.
    annulus, trig, x0 = _annulus_problem()
    for domain, coeffs, start in ((unit_interval, wavy_coeffs, [0.0]), (annulus, trig, x0)):
        for reference in (True, False):
            serial, parallel = (
                json.dumps(rs.holder_report(
                    rs.Study(domain, coeffs, start, 1.0, [4], 24, 3, 4, 5, workers=workers),
                    [2, 4], grid_level=4, reference=reference,
                ).to_json_dict())
                for workers in (1, 2)
            )
            assert serial == parallel


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
    the bytes its block buffer allocates."""
    calls = []
    blocks = brownian.FineBlocks.blocks

    def recording(self):
        calls.append([0, 0])
        for start, values in blocks(self):
            calls[-1][0] += 1
            calls[-1][1] = max(calls[-1][1], _allocated_bytes(values))
            yield start, values

    monkeypatch.setattr(brownian.FineBlocks, "blocks", recording)
    return calls


def test_chunk_layout_is_invisible_in_the_results(unit_interval, wavy_coeffs, monkeypatch):
    calls = _recording_blocks(monkeypatch)
    default = harness._CHUNK_BYTES
    for domain, coeffs, x0 in ((unit_interval, wavy_coeffs, [0.0]), _annulus_problem()):
        m = coeffs.dim_noise
        # Every study and Holder table here samples its paths at level 4 (17
        # knots per path at T=1) and refines them to fine level 7: 8 fine
        # intervals per coarse one, 16 coarse intervals in all.
        path_bytes = 17 * m * 8
        monkeypatch.setattr(harness, "_CHUNK_BYTES", default)
        expected = _layout_outputs(domain, coeffs, x0)
        assert len(_chunk_ranges(12, 1.0, 4, m)) == 1
        # (budget, groups of the M=12 study, reference blocks per group)
        layouts = [
            (1, 12, 16),                        # one-path groups, one-interval blocks
            (4 * path_bytes, 3, 8),             # four-path groups, two-interval blocks
            (12 * path_bytes, 1, 8),            # one group, two-interval blocks
            (12 * m * 8 * (4 * 8 + 1), 1, 4),   # one group, four-interval blocks
            (12 * m * 8 * (16 * 8 + 1), 1, 1),  # one group, one block
        ]
        for budget, n_groups, n_blocks in layouts:
            monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
            assert len(_chunk_ranges(12, 1.0, 4, m)) == n_groups
            calls.clear()
            arrays, holder = _layout_outputs(domain, coeffs, x0)
            # The study's and the reference table's groups, each in its blocks.
            assert [n for n, _ in calls] == [n_blocks] * (2 * n_groups)
            for got, want in zip(arrays, expected[0]):
                np.testing.assert_array_equal(got, want)
            assert holder == expected[1]


def test_a_planar_study_gives_the_same_stats_in_groups_of_one_path(monkeypatch):
    # At d=2 a path marched alone gives the bytes of its row in a wider
    # group, so groups of a single path leave the stats as they are.
    domain, coeffs, x0 = _annulus_problem()

    def stats(workers):
        # Seed 3: before every contraction had one summation order, a path
        # marched alone here differed by up to 4.4e-16 in sup_dist and
        # ref_var_final from its row in the group of three.
        s = rs.run_coupling_stats(rs.Study(domain, coeffs, x0, 1.0, (3, 4), 3, 3, 4, 3,
                                           workers=workers))
        return [s.sup_dist, s.final_dist, s.f_final, s.var_final, s.ref_var_final]

    expected = stats(1)
    assert [len(c) for c in _chunk_ranges(3, 1.0, 4, 2, 2)] == [1, 2]
    got = [stats(2)]
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 1)
    assert [len(c) for c in _chunk_ranges(3, 1.0, 4, 2)] == [1, 1, 1]
    assert [len(c) for c in _chunk_ranges(5, 1.0, 4, 2)] == [1] * 5
    got.append(stats(1))
    for arrays in got:
        for a, b in zip(arrays, expected):
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


@pytest.mark.parametrize("budget", [1, 10_000, 2**20, 2**40])
def test_chunk_ranges_are_ordered_balanced_and_cover_the_study(budget, monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
    path_bytes = 65 * 2 * 8  # level 6 at T=1 with two noise dimensions
    for M in (2, 3, 7, 520, 2000):
        for workers in (1, 2, 3):
            chunks = _chunk_ranges(M, 1.0, 6, 2, workers)
            assert [i for chunk in chunks for i in chunk] == list(range(M))
            widths = [len(chunk) for chunk in chunks]
            assert min(widths) >= 1 and max(widths) - min(widths) <= 1
            assert len(chunks) >= min(workers, M)
            # The fewest groups that each fit in the budget, or hold one path.
            width = max(budget // path_bytes, 1)
            if width > 1:
                assert max(widths) * path_bytes <= budget
            if workers < len(chunks) < M:
                assert M > (len(chunks) - 1) * width


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
    # Three groups of 8 paths per run; each reference refines its group in
    # blocks of two coarse intervals (8 x 17 knots): three blocks for five,
    # but the Holder grid ends at 0.25, so that march stops after two.
    assert len(allocated) == 9
    assert [n for n, _ in calls] == [3] * 3 + [2] * 3
    assert max(allocated + [nbytes for _, nbytes in calls]) <= budget


def test_no_thread_outlives_a_reference_march(unit_interval, wavy_coeffs, monkeypatch):
    # Groups of 8 paths at level 4 over T=0.3, refined to level 7 in three
    # blocks of two coarse intervals, as in the test above.
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 10 * 17 * 8)
    calls = _recording_blocks(monkeypatch)
    # The helper is still refining when each march below ends.
    refine = brownian._refine
    _slow_ahead(monkeypatch, 0.01)
    before = threading.active_count()
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 0.3, (3, 4), 24, 3, 4, 5)
    expected = rs.run_coupling_stats(study)
    assert threading.active_count() == before
    # The Holder grid ends at 0.25, inside the second block: each march
    # stops there, while the helper refines the third.
    calls.clear()
    rs.holder_report(dataclasses.replace(study, levels=(4,)), [2], 4, reference=True)
    assert [n for n, _ in calls] == [2] * 3
    assert threading.active_count() == before

    # A march that raises while the helper refines its next block: a custom
    # coefficient set marches in numpy and fails in its second block.
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

    # A refinement that fails on the helper's thread reaches the march at
    # the block it would have produced.
    def failing_ahead(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("refinement ahead failed")
        refine(*args)

    monkeypatch.setattr(brownian, "_refine", failing_ahead)
    calls.clear()
    with pytest.raises(RuntimeError, match="refinement ahead failed"):
        rs.run_coupling_stats(study)
    assert [n for n, _ in calls] == [1]
    assert threading.active_count() == before
    monkeypatch.setattr(brownian, "_refine", refine)
    np.testing.assert_array_equal(rs.run_coupling_stats(study).sup_dist, expected.sup_dist)


def test_chunk_marches_record_states_and_variation_but_no_regulator(unit_interval, wavy_coeffs):
    # A group march keeps states at every output, the variation only at the
    # last one (the only row the engine reads), and no regulator.
    seeds = [21, 22, 23]
    coarse = rs.sample_path(1, 1.0, 3, seeds)
    grid = harness.coupled_output_grid(3, [1.0], 1.0)
    # The march reads the start, the coefficients and the substeps of the study.
    study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [3], 3, 4, 4, 0)
    for process in ("reference", 3):
        paths = brownian.FineBlocks(coarse, 7, 128, 1) if process == "reference" else coarse
        states, var, log = harness._march_chunk(study, paths, process, grid)
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
    with pytest.raises(ValueError, match="^workers"):
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [4], 10, 4, 8, 1, workers=0)
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
    for name in ("M", "fine_margin", "substeps_per_knot", "seed", "workers"):
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
