import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reflectedsde as rs
from reflectedsde import brownian, harness, solvers
from reflectedsde.coefficients import CoefficientSet
from reflectedsde.errors import (
    InfeasibleStep,
    LevelTooFine,
    MismatchedTimes,
    NonFiniteState,
    OutOfDomain,
)
from reflectedsde.solvers import integrate_wz_batch, wz_schedule


def _drift_only():
    return rs.constant([[0.0]], drift_offset=[1.0])


def test_reflected_drift_closed_form(unit_interval):
    # Pure unit drift on [-1, 1]: the state rides the boundary after t = 1.
    path = rs.sample_path(1, 2.0, 8, seed=1)
    out = np.linspace(0.0, 2.0, 17)
    for solve in (
        lambda: rs.solve_wz(unit_interval, _drift_only(), path, 5, 8, [0.0], out),
        lambda: rs.solve_reference(unit_interval, _drift_only(), path, [0.0], out),
    ):
        traj = solve()
        np.testing.assert_allclose(traj.states[:, 0], np.minimum(out, 1.0), atol=1e-12)
        np.testing.assert_allclose(traj.regulator[-1], [-1.0], atol=1e-12)
        np.testing.assert_allclose(traj.variation[-1], 1.0, atol=1e-12)


def test_no_dynamics_is_constant(unit_interval):
    still = rs.constant([[0.0]])
    path = rs.sample_path(1, 1.0, 7, seed=2)
    out = np.linspace(0.0, 1.0, 9)
    traj = rs.solve_wz(unit_interval, still, path, 4, 8, [0.3], out)
    np.testing.assert_array_equal(traj.states[:, 0], np.full(9, 0.3))
    assert np.all(traj.variation == 0.0)


def test_additive_noise_exact_at_knots(unit_interval):
    # Constant diffusion, no contact: knot values equal the shifted lagged path.
    sigma = 0.4
    coeffs = rs.constant([[sigma]])
    n = 5
    path = rs.sample_path(1, 0.25, n + 3, seed=3)
    knots = np.arange(int(0.25 * 2**n) + 1) / 2.0**n
    traj = rs.solve_wz(unit_interval, coeffs, path, n, 8, [0.0], knots)
    lagged = np.concatenate([[np.zeros(1)], rs.restrict(path, n).values[:-1]])[:, 0]
    np.testing.assert_allclose(traj.states[:, 0], sigma * lagged, atol=1e-12)
    assert np.all(traj.variation == 0.0)


def test_reference_additive_noise_exact(unit_interval):
    sigma = 0.4
    coeffs = rs.constant([[sigma]])
    path = rs.sample_path(1, 0.25, 8, seed=3)
    knots = np.arange(int(0.25 * 2**8) + 1) / 2.0**8
    traj = rs.solve_reference(unit_interval, coeffs, path, [0.0], knots)
    np.testing.assert_allclose(
        traj.states[:, 0], sigma * np.asarray(path.values)[:, 0], atol=1e-13
    )
    assert np.all(traj.variation == 0.0)


def test_coupled_gap_is_interpolation_gap_for_additive_noise(unit_interval):
    # At the path's own fine level both solvers are exact, so the coupling
    # gap reduces to the interpolant-vs-path gap times sigma.
    sigma = 0.3
    coeffs = rs.constant([[sigma]])
    n = 6
    path = rs.sample_path(1, 0.25, n, seed=9)
    approx, reference = rs.coupled_solve(
        unit_interval, coeffs, path, n, 4, [0.0], [0.25]
    )
    expected = max(
        abs(sigma * (rs.wz_value(path, n, t)[0] - rs.wz_value(path, path.fine_level, t)[0]))
        for t in approx.times
    )
    # wz_value at the fine level lags one fine knot; compare directly instead.
    vals = np.asarray(path.values)[:, 0]
    grid_idx = np.round(approx.times * 2.0**n).astype(int)
    lagged = vals[np.maximum(grid_idx - 1, 0)]
    gap = np.max(np.abs(sigma * lagged - sigma * vals[grid_idx]))
    np.testing.assert_allclose(rs.sup_distance(approx, reference), gap, atol=1e-12)


def test_coupled_identical_without_noise(unit_interval):
    path = rs.sample_path(1, 1.0, 9, seed=5)
    for n in (3, 6):
        approx, reference = rs.coupled_solve(
            unit_interval, _drift_only(), path, n, 8, [0.0], [1.0]
        )
        assert rs.sup_distance(approx, reference) <= 1e-12


def test_gap_shrinks_with_level(unit_interval, wavy_coeffs):
    stats = rs.run_coupling_stats(
        rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [3, 8], 100, 4, 8, seed=771)
    )
    means = np.mean(stats.sup_dist, axis=0)
    assert means[1] < 0.5 * means[0]


def test_trajectory_invariants(unit_ball, rng):
    coeffs = rs.constant([[0.6, 0.0], [0.1, 0.5]], drift_offset=[0.3, 0.0])
    path = rs.sample_path(2, 1.0, 8, seed=17)
    out = np.linspace(0.0, 1.0, 33)
    traj = rs.solve_reference(unit_ball, coeffs, path, [0.9, 0.0], out)
    assert np.max(unit_ball.boundary_distance(traj.states)) <= 1e-10
    assert np.all(np.diff(traj.variation) >= -1e-15)
    for i in range(len(out) - 1):
        jump = np.linalg.norm(traj.regulator[i + 1] - traj.regulator[i])
        assert jump <= traj.variation[i + 1] - traj.variation[i] + 1e-12


def test_substep_log_supports_regulator_checks(unit_interval):
    # Outward drift keeps the trajectory pressed on the boundary.
    pressing = rs.trig([[0.3]], [[0.1]], [1.0], drift_offset=[0.5])
    path = rs.sample_path(1, 1.0, 10, seed=23)
    traj = rs.solve_wz(
        unit_interval, pressing, path, 6, 8, [0.9], [1.0], record_substeps=True
    )
    log = traj.substeps
    assert log is not None and len(log.times) > 0
    pushed = log.var_increments > 0
    assert np.any(pushed)
    # Variation grows only at substeps that end on the boundary.
    assert np.all(log.boundary_distances[pushed] >= -unit_interval.epsilon_b)
    # Every push points into the admissible cone at its contact point.
    for i in np.nonzero(pushed)[0]:
        gens = unit_interval.nu(log.states[i])
        assert rs.cone_angle(gens, log.reg_increments[i]) <= 1e-6
    # Interior substeps leave the regulator untouched.
    interior = log.boundary_distances < -unit_interval.epsilon_b
    assert np.all(log.var_increments[interior] == 0.0)


def _running_sums(traj):
    """The regulator and variation at ``traj``'s outputs, recomputed from its
    step log: cumulative sums from a zero row, taken at each output's step
    position (the steps are even and the outputs on or within 1e-13 of a
    step time)."""
    log = traj.substeps
    positions = np.rint(np.asarray(traj.times) / log.times[0]).astype(int)
    zero = np.zeros((1, traj.dim))
    regulator = np.cumsum(np.concatenate([zero, log.reg_increments]), axis=0)[positions]
    variation = np.cumsum(np.concatenate([[0.0], log.var_increments]))[positions]
    return regulator, variation


@pytest.mark.parametrize("library", ["native", "numpy"])
def test_regulator_and_variation_are_running_sums_of_the_step_log(monkeypatch, library):
    # A first increment of -0.0 (pressed on the bound -0.0 of the interval
    # at the first step, where the lagged slope is zero), an output at t = 0,
    # and two outputs within 1e-13 of each other, which share a step
    # position; on both backends.
    if library == "numpy":
        monkeypatch.setattr(brownian, "_native", lambda: None)
    domain, coeffs = rs.interval(-0.0, 1.0), rs.constant([[0.5]])
    path = rs.sample_path(1, 1.0, 6, seed=3)
    approx, reference = rs.coupled_solve(
        domain, coeffs, path, 3, 2, [0.0], [0.0, 0.5, 1.0], record_substeps=True
    )
    assert np.signbit(approx.substeps.reg_increments[0, 0])
    near = [0.0, 0.5, 0.5 + 1e-14, 1.0]
    alone = [
        rs.solve_wz(domain, coeffs, path, 3, 2, [0.0], near, record_substeps=True),
        rs.solve_reference(domain, coeffs, path, [0.0], near, record_substeps=True),
    ]
    for traj in [approx, reference, *alone]:
        assert traj.times[0] == 0.0
        regulator, variation = _running_sums(traj)
        assert traj.regulator.tobytes() == regulator.tobytes()
        assert traj.variation.tobytes() == variation.tobytes()
    for traj in alone:
        assert len(traj.times) == 4 and traj.states[1].tobytes() == traj.states[2].tobytes()


def test_substep_refinement_stability(unit_interval, wavy_coeffs):
    # Doubling the substep count moves the measured gap far less than the
    # gap itself.
    diffs, base = [], []
    for i in range(100):
        path = rs.sample_path(1, 1.0, 10, seed=500 + i)
        a8, ref = rs.coupled_solve(unit_interval, wavy_coeffs, path, 6, 8, [0.0], [1.0])
        a16, _ = rs.coupled_solve(unit_interval, wavy_coeffs, path, 6, 16, [0.0], [1.0])
        d8 = rs.sup_distance(a8, ref)
        d16 = rs.sup_distance(a16, ref)
        base.append(d8)
        diffs.append(abs(d16 - d8))
    assert np.mean(diffs) < 0.3 * np.mean(base)


def test_non_finite_state_aborts(unit_interval):
    poisoned = CoefficientSet(
        sigma=lambda y: np.full(np.shape(y) + (1,), np.nan),
        b=lambda y: np.zeros(np.shape(y)),
        grad_sigma=lambda y: np.zeros(np.shape(y) + (1, 1)),
        dim_state=1,
        dim_noise=1,
    )
    path = rs.sample_path(1, 1.0, 6, seed=2)
    out = np.linspace(0, 1, 5)
    # Each error names the first output after the start; coupled_solve
    # reports on the level-4 knots as well.
    for solve, t in (
        (lambda: rs.solve_wz(unit_interval, poisoned, path, 4, 2, [0.0], out), "0.25"),
        (lambda: rs.solve_reference(unit_interval, poisoned, path, [0.0], out), "0.25"),
        (lambda: rs.coupled_solve(unit_interval, poisoned, path, 4, 2, [0.0], out), "0.0625"),
    ):
        with pytest.raises(NonFiniteState, match=f"^non-finite state at t={t}$"):
            solve()


def test_start_and_level_validation(unit_interval, wavy_coeffs):
    path = rs.sample_path(1, 1.0, 5, seed=2)
    for x0 in ([1.5], [np.nan]):
        with pytest.raises(OutOfDomain):
            rs.solve_wz(unit_interval, wavy_coeffs, path, 4, 8, x0, [1.0])
        with pytest.raises(OutOfDomain):
            rs.coupled_solve(unit_interval, wavy_coeffs, path, 4, 8, x0, [1.0])
    with pytest.raises(LevelTooFine):
        rs.solve_wz(unit_interval, wavy_coeffs, path, 6, 8, [0.0], [1.0])
    with pytest.raises(ValueError):
        rs.solve_wz(unit_interval, wavy_coeffs, path, 4, 0, [0.0], [1.0])
    with pytest.raises(ValueError):
        rs.solve_wz(unit_interval, wavy_coeffs, path, 4, 8, [0.0], [])
    with pytest.raises(ValueError):
        rs.solve_reference(unit_interval, wavy_coeffs, path, [0.0], [0.001])


def test_boundary_start_is_allowed(unit_interval, wavy_coeffs):
    path = rs.sample_path(1, 1.0, 8, seed=31)
    traj = rs.solve_wz(unit_interval, wavy_coeffs, path, 5, 8, [1.0], [0.5, 1.0])
    assert np.max(unit_interval.boundary_distance(traj.states)) <= 1e-10


def test_sup_distance_requires_shared_grid(unit_interval, wavy_coeffs):
    path = rs.sample_path(1, 1.0, 8, seed=2)
    a = rs.solve_wz(unit_interval, wavy_coeffs, path, 4, 8, [0.0], [0.5, 1.0])
    b = rs.solve_reference(unit_interval, wavy_coeffs, path, [0.0], [1.0])
    with pytest.raises(MismatchedTimes):
        rs.sup_distance(a, b)


def test_csv_and_json_serialization(unit_interval, wavy_coeffs):
    path = rs.sample_path(1, 1.0, 8, seed=41)
    traj = rs.solve_wz(unit_interval, wavy_coeffs, path, 4, 8, [0.0], [0.0, 0.5, 1.0])
    text = traj.to_csv_string()
    lines = text.strip().split("\n")
    assert lines[0] == "t,X_1,L_1,|L|"
    assert len(lines) == 4
    assert "\r" not in text
    obj = traj.to_json_dict()
    assert obj["level"] == 4
    np.testing.assert_allclose(obj["times"], [0.0, 0.5, 1.0])


def test_batched_kernel_matches_per_path_solver(unit_interval, wavy_coeffs):
    # The Monte Carlo engine drives the same kernel with stacked paths; rows
    # must agree with individual solves exactly in one dimension.
    paths = [rs.sample_path(1, 1.0, 9, seed=900 + i) for i in range(3)]
    n, S = 5, 8
    grid = np.linspace(0.0, 1.0, 17)
    slopes = np.stack([rs.wz_knot_slopes(p, n) for p in paths])
    times, knot_idx, out_pos = wz_schedule(n, S, grid, 1.0)
    x0 = np.zeros((3, 1))
    states, var, log = integrate_wz_batch(
        unit_interval, wavy_coeffs, x0, slopes, times, knot_idx, out_pos
    )
    assert log is None
    for i, p in enumerate(paths):
        single = rs.solve_wz(unit_interval, wavy_coeffs, p, n, S, [0.0], grid)
        np.testing.assert_array_equal(states[:, i], single.states)
        np.testing.assert_array_equal(var[i], single.variation[-1])


def test_horizon_shorter_than_one_knot(unit_interval, wavy_coeffs):
    # The level-3 knot spacing (1/8) exceeds the horizon; the driver is zero
    # on the whole run and only the drift acts.
    path = rs.sample_path(1, 0.1, 7, seed=61)
    traj = rs.solve_wz(unit_interval, wavy_coeffs, path, 3, 4, [0.2], [0.05, 0.1])
    assert traj.states.shape == (2, 1)
    assert np.all(np.abs(traj.states[:, 0] - 0.2) < 0.05)


def test_non_dyadic_horizon_is_padded(unit_interval, wavy_coeffs):
    stats = rs.run_coupling_stats(
        rs.Study(unit_interval, wavy_coeffs, [0.0], 0.7, [3, 4], 30, 3, 4, seed=62)
    )
    assert np.all(np.isfinite(stats.sup_dist))
    report = rs.holder_report(
        rs.Study(unit_interval, wavy_coeffs, [0.0], 0.7, [4], 30, 4, 8, seed=62), [2],
        grid_level=4, reference=True,
    )
    assert not report.degenerate


def test_solver_determinism(unit_interval, wavy_coeffs):
    path = rs.sample_path(1, 1.0, 9, seed=311)
    a = rs.solve_wz(unit_interval, wavy_coeffs, path, 5, 8, [0.0], [1.0])
    b = rs.solve_wz(unit_interval, wavy_coeffs, path, 5, 8, [0.0], [1.0])
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.regulator, b.regulator)


def test_per_path_solvers_reject_a_batch(unit_interval, wavy_coeffs):
    batch = rs.sample_path(1, 1.0, 6, [1, 2])
    calls = (
        lambda: rs.solve_wz(unit_interval, wavy_coeffs, batch, 3, 4, [0.0], [1.0]),
        lambda: rs.solve_reference(unit_interval, wavy_coeffs, batch, [0.0], [1.0]),
        lambda: rs.coupled_solve(unit_interval, wavy_coeffs, batch, 3, 4, [0.0], [1.0]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="single path"):
            call()


def test_schedule_outputs_land_on_their_step_times(unit_interval, wavy_coeffs):
    # With substeps that are not a power of two, an output such as 5/12
    # and the substep time it equals differ in their last bit; the union
    # keeps one of them, and the output is that step, not the next one.
    for n in (2, 3, 4):
        for s in (3, 6, 7):
            outputs = np.arange(1, 2**n * s + 1) / (2**n * s)
            times, knot_idx, out_pos = wz_schedule(n, s, outputs, 1.0)
            assert np.all(np.abs(times[out_pos] - outputs) <= 1e-13)
            # Each step moves along the slope of the knot interval it starts in.
            assert np.array_equal(knot_idx, np.floor((times[:-1] + 1e-13) * 2**n).astype(int))
    path = rs.sample_path(1, 1.0, 8, 5)
    for outputs in ([5 / 12], [0.25 - 5e-14, 5 / 12, 0.5]):
        traj = rs.solve_wz(unit_interval, wavy_coeffs, path, 2, 3, [0.0], outputs,
                           record_substeps=True)
        log = traj.substeps
        at = [np.argmin(np.abs(log.times - t)) for t in outputs]
        assert np.all(np.abs(log.times[at] - outputs) <= 1e-13)
        np.testing.assert_array_equal(traj.states, log.states[at])


def test_an_output_just_before_a_knot_keeps_the_knot_slope(unit_interval, wavy_coeffs):
    # 0.25 - 5e-14 takes the place of the knot time 0.25 in the step grid;
    # the step from it still moves along the second knot interval's slope,
    # so the state at the horizon moves only by rounding.
    path = rs.sample_path(1, 1.0, 8, 5)
    near = rs.solve_wz(unit_interval, wavy_coeffs, path, 2, 4, [0.0], [0.25 - 5e-14, 1.0])
    exact = rs.solve_wz(unit_interval, wavy_coeffs, path, 2, 4, [0.0], [0.25, 1.0])
    np.testing.assert_allclose(near.states, exact.states, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_euler_substeps_miss_a_share_of_the_stratonovich_term_at_every_level(n):
    # The substep deficit of the module docstring, on dX = 0.5 X dW from 1
    # far from the walls: the ODE's exact flow along the lagged interpolant
    # is exp(0.5 W^n(t)).  k Euler substeps per knot give the product of
    # k factors (1 + 0.5 s 2^-n / k) per knot slope s, whose error does not
    # shrink with the level and falls about as 1/k.
    domain, coeffs = rs.interval(-50.0, 50.0), rs.linear([[[0.5]]])
    seeds = [harness.path_seed(11, i) for i in range(400)]
    paths = rs.sample_path(1, 1.0, n, seeds)
    slopes = rs.wz_knot_slopes(paths, n)[:, :, 0]
    exact = np.exp(0.5 * rs.wz_value(paths, n, 1.0)[:, 0])
    # Every path alone with the library; a few without it, where a path's
    # march takes a numpy call per step (its rows equal the batch's bits).
    alone = range(400) if brownian._native() is not None else (0, 199, 399)
    rms = {}
    for k in (8, 64):
        product, d = np.ones(400), 2.0**-n / k
        for s in slopes.T:
            for _ in range(k):
                product = product + (0.5 * product * s + 0.0) * d
        times, knot_idx, out_pos = wz_schedule(n, k, [1.0], 1.0)
        batch = integrate_wz_batch(domain, coeffs, np.ones((400, 1)), slopes[:, :, None],
                                   times, knot_idx, out_pos)[0][-1, :, 0]
        assert batch.tobytes() == product.tobytes()
        for i in alone:
            path = rs.sample_path(1, 1.0, n, seeds[i])
            assert rs.solve_wz(domain, coeffs, path, n, k, [1.0], [1.0]).states[-1, 0] == batch[i]
        rms[k] = float(np.sqrt(np.mean((batch - exact) ** 2)))
    assert 1.5e-2 <= rms[8] <= 2.5e-2
    assert 6.0 <= rms[8] / rms[64] <= 10.0


# The three per-path solvers at level 3 on one path at fine level 6, from
# (0.5, 0) in the unit ball, with outputs at 0.5 and 1.0.
SOLVES = {
    "solve_wz": lambda D, C, P, log: rs.solve_wz(D, C, P, 3, 2, [0.5, 0.0], [0.5, 1.0], log),
    "solve_reference": lambda D, C, P, log: rs.solve_reference(D, C, P, [0.5, 0.0], [0.5, 1.0],
                                                               log),
    "coupled_solve": lambda D, C, P, log: rs.coupled_solve(D, C, P, 3, 2, [0.5, 0.0], [0.5, 1.0],
                                                           log),
}


@pytest.mark.parametrize("record_substeps", [False, True])
@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
def test_an_output_outside_the_closure_is_infeasible(solve, record_substeps):
    # A custom resolution that puts every state at (2, 2), outside the unit
    # ball: the outputs after the start lie sqrt(8) - 1 from its boundary.
    ball = rs.ball(1.0, dim=2)
    outside = replace(ball, resolve_batch=lambda X, V: (np.full_like(X, 2.0),
                                                        np.full_like(X, 2.0) - (X + V)))
    path, coeffs = rs.sample_path(2, 1.0, 6, 3), rs.constant([[0.4, 0.0], [0.0, 0.4]])
    worst = float(np.sqrt(8.0) - 1.0)
    message = f"output states outside the domain closure (distance {worst})"
    with pytest.raises(InfeasibleStep) as raised:
        solve(outside, coeffs, path, record_substeps)
    assert str(raised.value) == message


@pytest.mark.parametrize("record_substeps", [False, True])
@pytest.mark.parametrize("solve, t", [(SOLVES["solve_wz"], 0.5), (SOLVES["solve_reference"], 0.5),
                                      (SOLVES["coupled_solve"], 0.125)],
                         ids=SOLVES.keys())
def test_a_non_finite_output_is_named_before_its_distance(solve, t, record_substeps):
    # A NaN state has a NaN distance, so it is outside the closure too, but
    # the first output after the start that is not finite is named first.
    ball = rs.ball(1.0, dim=2)
    lost = replace(ball, resolve_batch=lambda X, V: (np.full_like(X, np.nan),
                                                     np.full_like(X, np.nan)))
    path, coeffs = rs.sample_path(2, 1.0, 6, 3), rs.constant([[0.4, 0.0], [0.0, 0.4]])
    with pytest.raises(NonFiniteState) as raised:
        solve(lost, coeffs, path, record_substeps)
    assert str(raised.value) == f"non-finite state at t={t}"


@pytest.mark.parametrize("record_substeps", [False, True])
def test_a_coupled_solve_takes_one_distance_pass_per_path(record_substeps):
    # One call checks the start (contains), and one per path checks the
    # outputs, over the step log when it is recorded, of which the outputs
    # are rows: the log's distances and the outputs' are one pass.
    ball, calls = rs.ball(1.0, dim=2), []

    def distance(x):
        calls.append(np.shape(x))
        return ball.boundary_distance(x)

    counted = replace(ball, boundary_distance=distance)
    path, coeffs = rs.sample_path(2, 1.0, 6, 3), rs.constant([[0.4, 0.0], [0.0, 0.4]])
    approx, ref = rs.coupled_solve(counted, coeffs, path, 3, 2, [0.5, 0.0], [1.0], record_substeps)
    # x0, then the 17 rows of the Wong-Zakai log (8 knots of 2 substeps)
    # and the 65 of the reference's (fine level 6), or the 9 outputs each.
    assert calls == [(2,), (17, 2), (65, 2)] if record_substeps else [(2,), (9, 2), (9, 2)]
    plain = rs.coupled_solve(ball, coeffs, path, 3, 2, [0.5, 0.0], [1.0], record_substeps)
    for a, b in zip((approx, ref), plain):
        for field in ("states", "regulator", "variation"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        if record_substeps:
            assert (a.substeps.boundary_distances.tobytes()
                    == b.substeps.boundary_distances.tobytes()
                    == ball.boundary_distance(a.substeps.states).tobytes())


# Coupled studies with a start inside each: built-ins at d = 1, 2 and 3,
# which the library marches, and a ball whose resolution is replaced, a
# custom domain, which the numpy march runs.
_BALL = rs.ball(1.0, dim=2)
COUPLED_STUDIES = {
    "interval trig": (rs.interval(-1.0, 1.0), rs.trig([[0.5]], [[0.2]], [1.0],
                                                      drift_matrix=[[-0.3]]), [0.9]),
    "ball linear": (_BALL, rs.linear([[[0.1, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.1, 0.0]]],
                                     [[0.4, 0.0], [0.0, 0.4]], [[-0.5, 0.0], [0.0, -0.5]]),
                    [0.5, 0.0]),
    "d = 3 box constant": (rs.box([0.0] * 3, [1.0] * 3), rs.constant(0.5 * np.eye(3)),
                           [0.1, 0.5, 0.9]),
    "custom ball": (replace(_BALL, resolve_batch=lambda X, V: _BALL.resolve_batch(X, V)),
                    rs.constant([[0.6, 0.0], [0.2, 0.6]]), [0.0, 0.95]),
}


def _fields_bytes(traj):
    """Every array of a ``ReflectedPath`` and of its step log, as bytes."""
    arrays = [traj.times, traj.states, traj.regulator, traj.variation]
    arrays += [getattr(traj.substeps, f.name) for f in fields(traj.substeps)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("library", ["native", "numpy"])
@settings(max_examples=30, deadline=None)
@given(study=st.sampled_from(sorted(COUPLED_STUDIES)), fine_level=st.integers(3, 6),
       level=st.integers(0, 6), substeps=st.integers(1, 5), T=st.sampled_from([1.0, 0.7, 1.3]),
       seed=st.integers(0, 2**32), knots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
# Outputs at 0 and at the horizon; three and five substeps a knot make
# non-dyadic step grids, and each knot, both a step and an output time,
# collapses to one time.
@example(study="ball linear", fine_level=6, level=4, substeps=3, T=1.0, seed=3,
         knots=[0.0, 1.0])
@example(study="custom ball", fine_level=5, level=2, substeps=5, T=0.7, seed=8,
         knots=[0.0, 0.5, 1.0])
def test_a_coupled_solve_gives_each_solvers_bytes_on_the_shared_grid(
        study, fine_level, level, substeps, T, seed, knots, library):
    # coupled_solve against solve_wz and solve_reference on the grid it
    # reports, coupled_output_grid of the level and the outputs: states,
    # regulator, variation and every step log field, byte for byte, with
    # outputs on the path's fine grid (0 and the horizon among them) over a
    # horizon that may not be dyadic; with the library and without it.
    domain, coeffs, x0 = COUPLED_STUDIES[study]
    level = min(level, fine_level)
    with pytest.MonkeyPatch.context() as mp:
        if library == "numpy":
            mp.setattr(brownian, "_native", lambda: None)
        path = rs.sample_path(coeffs.dim_noise, T, fine_level, seed)
        times = np.rint(np.asarray(knots) * path.n_knots) / 2.0**fine_level
        approx, ref = rs.coupled_solve(domain, coeffs, path, level, substeps, x0, times, True)
        grid = solvers.coupled_output_grid(level, times, path.horizon)
        alone = (rs.solve_wz(domain, coeffs, path, level, substeps, x0, grid, True),
                 rs.solve_reference(domain, coeffs, path, x0, grid, True))
    assert approx.times.tobytes() == ref.times.tobytes() == grid.tobytes()
    for coupled, single in zip((approx, ref), alone):
        assert _fields_bytes(coupled) == _fields_bytes(single)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11) or not np.__version__.startswith("2.4."),
    reason="counted on Python 3.11 with numpy 2.4, whose wrappers set the count")
def test_a_single_path_call_stays_within_its_call_count(native):
    # The profiler's Python and builtin calls of one sweep-shaped call
    # (perfbench's single_path_ball_2d), after a warm-up call: a count
    # that no other tenant of the host can move, beside the benchmark's
    # timing.  The ceilings are this code's counts (BENCH_42.json, beside
    # the former code's 87 and 161).
    domain, coeffs, x0 = COUPLED_STUDIES["ball linear"]

    def call():
        path = rs.sample_path(2, 1.0, 8, harness.path_seed(3, 0))
        return rs.coupled_solve(domain, coeffs, path, 4, 8, x0, [1.0], record_substeps=True)

    call()
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    assert counts["call"] <= 81 and counts["c_call"] <= 168, counts
