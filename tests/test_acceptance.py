"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run ``pytest tests/test_acceptance.py
-v -s`` to see them live).  The heavy coupled study runs once, as a
module-scoped fixture, and criteria 1 and 2 reduce that one engine run; all
realized values are deterministic for the pinned seeds.
"""

import json

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde.harness import jackknife_se, path_seed

SEED = 20240817

LEVELS = (4, 5, 6, 7, 8, 9)
M_PATHS = 2000
FINE_MARGIN = 4
SUBSTEPS = 8


def _verdict(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def problem():
    domain = rs.interval(-1.0, 1.0)
    coeffs = rs.trig([[0.5]], [[0.2]], [1.0], drift_matrix=[[-0.3]])
    return domain, coeffs


@pytest.fixture(scope="module")
def coupling_stats(problem):
    domain, coeffs = problem
    return rs.run_coupling_stats(
        rs.Study(domain, coeffs, [0.0], 1.0, LEVELS, M_PATHS, FINE_MARGIN, SUBSTEPS, SEED)
    )


@pytest.fixture(scope="module")
def rate_report(coupling_stats):
    return rs.rate_report(coupling_stats, 2.0, SEED)


def test_criterion_01_weighted_decay_rate(coupling_stats):
    decay = rs.lyapunov_report(coupling_stats, SEED)
    ok = decay.slope is not None and decay.slope >= 0.4
    _verdict(1, ok, f"weighted-distance decay slope {decay.slope:.3f} >= 0.4")


def test_criterion_02_strong_error_decay(rate_report):
    report = rate_report
    gaps_ok = all(
        report.errors[j + 1]
        < report.errors[j] - 2.0 * float(np.hypot(report.stderrs[j], report.stderrs[j + 1]))
        for j in range(len(LEVELS) - 1)
    )
    slope_ok = report.final_slope is not None and report.final_slope >= 0.4
    _verdict(
        2,
        gaps_ok and slope_ok,
        f"sup errors strictly decreasing beyond 2 SE ({gaps_ok}), "
        f"horizon slope {report.final_slope:.3f} >= 0.4",
    )


def test_criterion_03_time_regularity_exponents(problem):
    domain, coeffs = problem
    results = []
    study = rs.Study(domain, coeffs, [0.0], 1.0, [6], M_PATHS, FINE_MARGIN, SUBSTEPS, SEED)
    for reference in (True, False):
        report = rs.holder_report(study, [2, 4], grid_level=6, reference=reference)
        for row in report.rows:
            results.append((report.process, row.p, row.slope, row.slope >= row.p / 2 - 0.2))
    ok = all(item[3] for item in results)
    detail = "; ".join(f"{proc} p={p:g} slope {s:.3f}" for proc, p, s, _ in results)
    _verdict(3, ok, detail + " (all >= p/2 - 0.2)")


def test_criterion_04_additive_noise_exactness():
    domain = rs.interval(-1.0, 1.0)
    coeffs = rs.constant([[0.4]])
    n, T = 5, 0.25
    knots = np.arange(int(T * 2**n) + 1) / 2.0**n
    worst = 0.0
    contact_free = True
    for i in range(100):
        path = rs.sample_path(1, T, n + 2, seed=path_seed(SEED, i))
        traj = rs.solve_wz(domain, coeffs, path, n, SUBSTEPS, [0.0], knots,
                           record_substeps=True)
        lagged = np.concatenate([[np.zeros(1)], rs.restrict(path, n).values[:-1]])[:, 0]
        worst = max(worst, float(np.max(np.abs(traj.states[:, 0] - 0.4 * lagged))))
        if np.max(np.abs(traj.substeps.states)) >= 1.0 or traj.variation[-1] != 0.0:
            contact_free = False
    ok = contact_free and worst <= 1e-12
    _verdict(
        4,
        ok,
        f"knot values match shifted lagged path (worst {worst:.2e} <= 1e-12), "
        f"no boundary contact, regulator zero on 100 paths",
    )


def test_criterion_05_constraint_step_oracle():
    domain = rs.box([0.0, 0.0], [1.0, 1.0])
    rng = np.random.default_rng(SEED)
    X = rng.uniform(0.0, 1.0, (10_000, 2))
    V = rng.uniform(-0.6, 0.6, (10_000, 2))
    worst = 0.0
    for x, v in zip(X, V):
        res = rs.skorokhod_step(domain, x, v)
        clipped = np.clip(x + v, 0.0, 1.0)
        worst = max(
            worst,
            float(np.max(np.abs(res.state - clipped))),
            float(np.max(np.abs(res.regulator_increment - (clipped - x - v)))),
        )
    _verdict(5, worst <= 1e-14, f"constraint step equals coordinate clip (worst {worst:.2e})")


def test_criterion_06_noise_interaction_drift():
    rng = np.random.default_rng(SEED + 1)
    builtins = [
        rs.constant([[0.7, -0.2], [0.0, 0.3]], drift_offset=[0.1, -0.4]),
        rs.linear(
            A=[[[0.5, 0.1], [-0.2, 0.0]], [[0.0, 0.3], [0.4, -0.1]]],
            B=[[0.2, 0.0], [0.1, 0.5]],
        ),
        rs.trig([[0.5]], [[0.2]], [1.0], drift_matrix=[[-0.3]]),
    ]
    worst_rel = 0.0
    for coeffs in builtins:
        for _ in range(100):
            y = rng.uniform(-1.0, 1.0, coeffs.dim_state)
            analytic = rs.stratonovich_correction(coeffs, y)
            numeric = rs.finite_difference_correction(coeffs, y, step=1e-5)
            scale = max(1e-12, float(np.max(np.abs(numeric))))
            worst_rel = max(worst_rel, float(np.max(np.abs(analytic - numeric))) / scale)
    fd_ok = worst_rel <= 1e-4

    flat = float(np.max(np.abs(rs.stratonovich_correction(builtins[0], [0.3, -0.2]))))
    prop = rs.stratonovich_correction(rs.linear(A=[[[1.0]]]), [0.3])
    canceling = rs.trig(
        offset=[[0.0, 0.0]], amplitude=[[1.0, 1.0]], frequency=[1.0],
        phase=[[0.0, np.pi / 2]],
    )
    cancel = float(np.max(np.abs(rs.stratonovich_correction(canceling, [0.7]))))
    closed_ok = flat <= 1e-12 and abs(prop[0] - 0.3) <= 1e-12 and cancel <= 1e-12
    _verdict(
        6,
        fd_ok and closed_ok,
        f"finite-difference agreement (worst rel {worst_rel:.2e} <= 1e-4), "
        f"closed forms exact to 1e-12",
    )


def test_criterion_07_domain_certificates():
    ball = rs.ball(1.0, dim=2)
    interval = rs.interval(-1.0, 1.0)
    ring = rs.annulus(0.5, 1.5, dim=2)
    c0_ball = rs.check_d1(ball, 400, 4000, SEED).c0_hat
    a_ball = rs.check_d2(ball, 400, SEED).alpha_hat
    c0_int = rs.check_d1(interval, 400, 4000, SEED).c0_hat
    a_int = rs.check_d2(interval, 400, SEED).alpha_hat
    c0_ring = rs.check_d1(ring, 400, 4000, SEED).c0_hat
    a_ring = rs.check_d2(ring, 400, SEED).alpha_hat
    ok = (
        c0_ball == 0.0
        and abs(a_ball - 2.0) <= 1e-9
        and c0_int == 0.0
        and abs(a_int - 2.0) <= 1e-9
        and abs(c0_ring - 1.0) <= 0.02
        and abs(a_ring - 1.0) <= 0.02
    )
    _verdict(
        7,
        ok,
        f"ball ({c0_ball:.3f}, {a_ball:.3f}), interval ({c0_int:.3f}, {a_int:.3f}), "
        f"ring ({c0_ring:.4f}, {a_ring:.4f})",
    )


def test_criterion_08_regulator_invariants(problem):
    domain, coeffs = problem
    eps_b = domain.epsilon_b

    support_ok = True
    direction_ok = True
    for i in range(500):
        path = rs.sample_path(1, 1.0, 6, seed=path_seed(SEED, i))
        traj = rs.solve_wz(domain, coeffs, path, 6, SUBSTEPS, [0.0], [1.0],
                           record_substeps=True)
        log = traj.substeps
        pushed = np.nonzero(log.var_increments > 0.0)[0]
        if np.any(log.boundary_distances[pushed] < -eps_b):
            support_ok = False
        for j in pushed:
            if rs.cone_angle(domain.nu(log.states[j]), log.reg_increments[j]) > 1e-6:
                direction_ok = False

    # Uniform bound: the approximation regulator moment never exceeds the
    # coupled reference regulator moment beyond paired noise.  (The sequence
    # increases toward that limit, so a no-increase reading would be wrong;
    # the cited bound is finiteness of the supremum.)
    stats = rs.run_coupling_stats(
        rs.Study(domain, coeffs, [0.0], 1.0, (3, 4, 5, 6, 7, 8), 500, FINE_MARGIN, SUBSTEPS, SEED)
    )
    ref_sq = stats.ref_var_final**2
    bounded = True
    means = []
    for j in range(len(stats.levels)):
        diff = ref_sq - stats.var_final[:, j] ** 2
        means.append(float(np.mean(stats.var_final[:, j] ** 2)))
        if np.mean(diff) < -2.0 * jackknife_se(diff):
            bounded = False
    levels = np.asarray(stats.levels, float)
    trend = float(np.polyfit(levels, means, 1)[0])
    ok = support_ok and direction_ok and bounded
    _verdict(
        8,
        ok,
        f"pushes on boundary ({support_ok}), directions admissible ({direction_ok}), "
        f"moments uniformly dominated by reference {np.mean(ref_sq):.5f} "
        f"({bounded}; per-level {[f'{m:.5f}' for m in means]}, trend {trend:+.6f}/level)",
    )


def test_criterion_09_weight_sandwich(problem):
    domain, coeffs = problem
    ok = True
    for i in range(100):
        path = rs.sample_path(1, 1.0, 9, seed=path_seed(SEED + 7, i))
        approx, reference = rs.coupled_solve(domain, coeffs, path, 5, SUBSTEPS, [0.0], [1.0])
        trace = rs.lyapunov_trace(domain, reference, approx, r=-1.0)
        y3 = np.sum((approx.states - reference.states) ** 2, axis=1)
        if not (np.all(trace.c1 * y3 <= trace.f_values) and np.all(trace.f_values <= trace.c2 * y3)):
            ok = False
    _verdict(9, ok, "pathwise c1*|gap|^2 <= f <= c2*|gap|^2 exact on 100 paths")


def test_criterion_10_byte_identical_reports(problem):
    domain, coeffs = problem

    def run() -> bytes:
        report = rs.estimate_strong_error(
            rs.Study(domain, coeffs, [0.0], 1.0, [4, 5, 6], 50, 3, SUBSTEPS, SEED, workers=1), 2.0
        )
        return json.dumps(report.to_json_dict(), sort_keys=True).encode()

    first, second = run(), run()
    _verdict(10, first == second, f"repeated runs byte-identical ({len(first)} bytes)")
