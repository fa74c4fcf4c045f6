import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde.coefficients import CoefficientSet
from reflectedsde.errors import (
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
        unit_interval, wavy_coeffs, [0.0], 1.0, [3, 8], 100, 4, 8, seed=771,
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
        lipschitz_sigma=0.0,
        lipschitz_b=0.0,
        lipschitz_grad_sigma=0.0,
    )
    path = rs.sample_path(1, 1.0, 6, seed=2)
    with pytest.raises(NonFiniteState):
        rs.solve_wz(unit_interval, poisoned, path, 4, 2, [0.0], np.linspace(0, 1, 5))


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
    states, reg, var, _ = integrate_wz_batch(
        unit_interval, wavy_coeffs, x0, slopes, times, knot_idx, out_pos
    )
    for i, p in enumerate(paths):
        single = rs.solve_wz(unit_interval, wavy_coeffs, p, n, S, [0.0], grid)
        np.testing.assert_array_equal(states[:, i], single.states)
        np.testing.assert_array_equal(reg[:, i], single.regulator)
        np.testing.assert_array_equal(var[:, i], single.variation)


def test_horizon_shorter_than_one_knot(unit_interval, wavy_coeffs):
    # The level-3 knot spacing (1/8) exceeds the horizon; the driver is zero
    # on the whole run and only the drift acts.
    path = rs.sample_path(1, 0.1, 7, seed=61)
    traj = rs.solve_wz(unit_interval, wavy_coeffs, path, 3, 4, [0.2], [0.05, 0.1])
    assert traj.states.shape == (2, 1)
    assert np.all(np.abs(traj.states[:, 0] - 0.2) < 0.05)


def test_non_dyadic_horizon_is_padded(unit_interval, wavy_coeffs):
    stats = rs.run_coupling_stats(
        unit_interval, wavy_coeffs, [0.0], 0.7, [3, 4], 30, 3, 4, seed=62,
    )
    assert np.all(np.isfinite(stats.sup_dist))
    report = rs.holder_report(
        unit_interval, wavy_coeffs, [0.0], 0.7, "reference", [2], 30, seed=62,
        grid_level=4,
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
