"""Each input rule has one definition, and every entry point applies it.

A count is a whole number and never a boolean; a seed is a whole number of
any sign and never a boolean; a per-path level lies in ``0..fine_level``; a
point has the domain's dimension.  A bad input raises a
``ValueError`` whose message starts with the argument's name.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde.errors import InvalidHorizon, LevelTooFine

SRC = Path(__file__).resolve().parent.parent / "src" / "reflectedsde"

def _pair(D, C, P):
    """A coupled pair on path ``P``, for ``lyapunov_trace``."""
    return rs.coupled_solve(D, C, P, 3, 2, [0.0], [1.0])


# A cone cover of the unit ball's boundary (2-d), for ``check_d3``.
_COVER = rs.ConeCoverCertificate(
    centers=[[1.0, 0.0]], radius=0.5, directions=[[-1.0, 0.0]], lam=0.5
)

# (argument name, call); each call gets the unit interval, the standard 1-d
# coefficients and a path at fine level 5 over T = 1.
BAD_INPUTS = {
    "solve_wz level -1": ("n", lambda D, C, P: rs.solve_wz(D, C, P, -1, 4, [0.0], [1.0])),
    "solve_wz level True": ("n", lambda D, C, P: rs.solve_wz(D, C, P, True, 4, [0.0], [1.0])),
    "solve_wz substeps 2.5": (
        "substeps_per_knot", lambda D, C, P: rs.solve_wz(D, C, P, 3, 2.5, [0.0], [1.0])),
    "solve_wz substeps True": (
        "substeps_per_knot", lambda D, C, P: rs.solve_wz(D, C, P, 3, True, [0.0], [1.0])),
    "coupled_solve level -1": (
        "n", lambda D, C, P: rs.coupled_solve(D, C, P, -1, 4, [0.0], [1.0])),
    "coupled_solve level True": (
        "n", lambda D, C, P: rs.coupled_solve(D, C, P, True, 4, [0.0], [1.0])),
    "coupled_solve substeps 2.5": (
        "substeps_per_knot", lambda D, C, P: rs.coupled_solve(D, C, P, 3, 2.5, [0.0], [1.0])),
    "coupled_solve substeps True": (
        "substeps_per_knot", lambda D, C, P: rs.coupled_solve(D, C, P, 3, True, [0.0], [1.0])),
    "run_coupling_stats substeps 2.5": (
        "substeps_per_knot",
        lambda D, C, P: rs.run_coupling_stats(rs.Study(D, C, [0.0], 1.0, [2, 3], 8, 2, 2.5, 1))),
    "run_coupling_stats M 20.5": (
        "M",
        lambda D, C, P: rs.run_coupling_stats(rs.Study(D, C, [0.0], 1.0, [2, 3], 20.5, 2, 4, 1))),
    "run_coupling_stats workers 1.5": (
        "workers",
        lambda D, C, P: rs.run_coupling_stats(
            rs.Study(D, C, [0.0], 1.0, [2, 3], 8, 2, 4, 1, workers=1.5)),
    ),
    "run_coupling_stats T inf": (
        "T",
        lambda D, C, P: rs.run_coupling_stats(
            rs.Study(D, C, [0.0], float("inf"), [2, 3], 8, 2, 4, 1))),
    "holder_report grid_level 2.5": (
        "grid_level",
        lambda D, C, P: rs.holder_report(
            rs.Study(D, C, [0.0], 1.0, [2], 8, 4, 8, 1), [2], grid_level=2.5, reference=True),
    ),
    # A seed is a whole number of any sign, and never a boolean.
    "sample_path seed 1.9": ("seed", lambda D, C, P: rs.sample_path(1, 1.0, 5, 1.9)),
    "sample_path seed True": ("seed", lambda D, C, P: rs.sample_path(1, 1.0, 5, True)),
    "sample_path batch seed True": ("seed", lambda D, C, P: rs.sample_path(1, 1.0, 5, [1, True])),
    "sample_path batch seed None": ("seed", lambda D, C, P: rs.sample_path(1, 1.0, 5, [None, 1])),
    "Study seed 1.5": ("seed", lambda D, C, P: rs.Study(D, C, [0.0], 1.0, [2, 3], 8, 2, 4, 1.5)),
    "Study seed '3'": ("seed", lambda D, C, P: rs.Study(D, C, [0.0], 1.0, [2, 3], 8, 2, 4, "3")),
    "Study seed None": ("seed", lambda D, C, P: rs.Study(D, C, [0.0], 1.0, [2, 3], 8, 2, 4, None)),
    "Study seed True": ("seed", lambda D, C, P: rs.Study(D, C, [0.0], 1.0, [2, 3], 8, 2, 4, True)),
    "skorokhod_step short v": (
        "v", lambda D, C, P: rs.skorokhod_step(rs.ball(1.0, dim=2), [0.0, 0.0], [0.5])),
    "skorokhod_step short x": (
        "x", lambda D, C, P: rs.skorokhod_step(rs.ball(1.0, dim=2), [0.0], [0.5, 0.5])),
    "project_to_closure short y": (
        "y", lambda D, C, P: rs.project_to_closure(rs.ball(1.0, dim=2), [0.5])),
    "contains short x": ("x", lambda D, C, P: rs.box([0, 0], [1, 1]).contains([0.5])),
    "stratonovich_correction long y": (
        "y", lambda D, C, P: rs.stratonovich_correction(C, [0.1, 0.2], domain=D)),
    "ito_drift scalar y": ("y", lambda D, C, P: rs.ito_drift(C, 0.5, domain=D)),
    "restrict level -1": ("n", lambda D, C, P: rs.restrict(P, -1)),
    "wz_value level -1": ("n", lambda D, C, P: rs.wz_value(P, -1, 0.5)),
    "wz_slope level -1": ("n", lambda D, C, P: rs.wz_slope(P, -1, 0.5)),
    "wz_knot_slopes level -1": ("n", lambda D, C, P: rs.wz_knot_slopes(P, -1)),
    "sample_path fine_level True": (
        "fine_level", lambda D, C, P: rs.sample_path(1, 1.0, True, 0)),
    "sample_path m True": ("m", lambda D, C, P: rs.sample_path(True, 1.0, 4, 0)),
    "run_coupling_stats r NaN": (
        "r",
        lambda D, C, P: rs.run_coupling_stats(
            rs.Study(D, C, [0.0], 1.0, [2, 3], 8, 2, 4, 1, r=float("nan"))),
    ),
    "run_coupling_stats r -inf": (
        "r",
        lambda D, C, P: rs.run_coupling_stats(
            rs.Study(D, C, [0.0], 1.0, [2, 3], 8, 2, 4, 1, r=-float("inf"))),
    ),
    "lyapunov_trace r NaN": (
        "r", lambda D, C, P: rs.lyapunov_trace(D, *_pair(D, C, P), r=float("nan"))),
    "lyapunov_trace r -inf": (
        "r", lambda D, C, P: rs.lyapunov_trace(D, *_pair(D, C, P), r=-float("inf"))),
    "holder_report p_list inf": (
        "p_list",
        lambda D, C, P: rs.holder_report(
            rs.Study(D, C, [0.0], 1.0, [2], 8, 4, 8, 1), [float("inf")], reference=True),
    ),
    "holder_report p_list 3": (
        "p_list",
        lambda D, C, P: rs.holder_report(
            rs.Study(D, C, [0.0], 1.0, [2], 8, 4, 8, 1), [3], reference=True)),
    "check_d1 n_interior 2.5": (
        "n_interior", lambda D, C, P: rs.check_d1(rs.ball(1.0), 10, 2.5, 0)),
    "check_d1 n_boundary True": (
        "n_boundary", lambda D, C, P: rs.check_d1(rs.ball(1.0), True, 10, 0)),
    "check_d2 n_boundary 2.5": ("n_boundary", lambda D, C, P: rs.check_d2(rs.ball(1.0), 2.5, 0)),
    "check_d2 n_boundary True": (
        "n_boundary", lambda D, C, P: rs.check_d2(rs.ball(1.0), True, 0)),
    "check_d1 seed True": ("seed", lambda D, C, P: rs.check_d1(rs.ball(1.0), 10, 10, True)),
    "check_d2 seed 1.5": ("seed", lambda D, C, P: rs.check_d2(rs.ball(1.0), 10, 1.5)),
    "check_d3 n_boundary 2.5": (
        "n_boundary", lambda D, C, P: rs.check_d3(rs.ball(1.0), _COVER, 2.5, 0)),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_naming_the_argument(case, unit_interval, wavy_coeffs):
    name, call = BAD_INPUTS[case]
    path = rs.sample_path(1, 1.0, 5, seed=3)
    with pytest.raises(ValueError, match=f"^{name} "):
        call(unit_interval, wavy_coeffs, path)


def test_level_rule_admits_zero_and_rejects_above_the_path(unit_interval, wavy_coeffs):
    path = rs.sample_path(1, 1.0, 5, seed=3)
    assert rs.restrict(path, 0).n_knots == 1
    traj = rs.solve_wz(unit_interval, wavy_coeffs, path, 0, 2, [0.0], [1.0])
    assert type(traj.level_meta) is int and traj.level_meta == 0
    # A whole float level is that level, and the result is labelled with an int.
    traj = rs.solve_wz(unit_interval, wavy_coeffs, path, 3.0, 2, [0.0], [1.0])
    assert type(traj.level_meta) is int and traj.level_meta == 3
    for call in (
        lambda: rs.restrict(path, 6),
        lambda: rs.wz_value(path, 6, 0.5),
        lambda: rs.wz_knot_slopes(path, 6),
        lambda: rs.solve_wz(unit_interval, wavy_coeffs, path, 6, 2, [0.0], [1.0]),
    ):
        with pytest.raises(LevelTooFine):
            call()


def test_seed_rule_admits_any_whole_number(unit_interval, wavy_coeffs):
    # Seeds below zero or from 2^63 stay valid; streams mask them to 63 bits.
    for seed in (-1, 2**64 + 3, np.int64(-5), 3.0):
        study = rs.Study(unit_interval, wavy_coeffs, [0.0], 1.0, [2], 2, 2, 1, seed)
        assert type(study.seed) is int and study.seed == seed
    np.testing.assert_array_equal(
        rs.sample_path(1, 1.0, 3, 3.0).values, rs.sample_path(1, 1.0, 3, 3).values
    )


@pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf")])
def test_sample_path_rejects_a_horizon_that_is_not_positive_and_finite(T):
    with pytest.raises(InvalidHorizon):
        rs.sample_path(1, T, 4, 0)


def _raising_functions(error: str) -> set:
    """Names of the functions in ``src`` whose own body raises ``error``."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == error:
                    found.add(owner)
            visit(child, owner)

    for source in sorted(SRC.glob("*.py")):
        visit(ast.parse(source.read_text()), source.stem)
    return found


@pytest.mark.parametrize("error, owner", [
    ("LevelTooFine", "brownian.check_level"),
    ("InfeasibleStep", "geometry.check_feasible"),
    ("NonFiniteState", "solvers._reflected_path"),
    ("MismatchedTimes", "solvers.check_shared_times"),
])
def test_each_rule_error_is_raised_from_one_function(error, owner):
    assert _raising_functions(error) == {owner}


def test_no_function_takes_the_study_values_one_by_one():
    # ``fine_margin`` belongs to ``harness.Study`` alone: a function that
    # needs the study's values takes the record.
    takers = set()
    for source in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if "fine_margin" in {p.arg for p in params if p is not None}:
                    takers.add(f"{source.stem}.{node.name}")
    assert takers == set()


# Bad ``coupled_solve`` inputs, each with the error type and message the
# solver gave when ``solve_wz`` and ``solve_reference`` each checked the
# inputs again; the last few hold two faults and pin which is named first.
# Each overrides the good call below: the unit ball, a planar linear family
# and one path at fine level 6 over T = 1.
COUPLED_SOLVE_ERRORS = [
    ("level_above_fine", {"n": 7}, "LevelTooFine", "level 7 exceeds the path's fine level 6"),
    ("negative_level", {"n": -1}, "ValueError", "n must be an integer >= 0, got -1"),
    ("fractional_level", {"n": 2.5}, "ValueError", "n must be an integer >= 0, got 2.5"),
    ("boolean_level", {"n": True}, "ValueError", "n must be an integer >= 0, got True"),
    ("string_times", {"output_times": ["a"]}, "ValueError",
     "could not convert string to float: 'a'"),
    ("batch_path", {"path": "batch"}, "ValueError", "path must be a single path, not a batch"),
    ("noise_dimension", {"path": "one_noise_path"}, "ValueError",
     "path has noise dimension 1, coeffs 2"),
    ("time_after_horizon", {"output_times": [2.0]}, "ValueError",
     "output_times must be nonempty and lie within [0, 1.0]"),
    ("negative_time", {"output_times": [-0.5]}, "ValueError",
     "output_times must be nonempty and lie within [0, 1.0]"),
    ("infinite_time", {"output_times": [np.inf]}, "ValueError",
     "output_times must be nonempty and lie within [0, 1.0]"),
    # The caller's times are checked before they join the knots, which
    # would hide an empty list and drop a NaN.
    ("empty_times", {"output_times": []}, "ValueError",
     "output_times must be nonempty and lie within [0, 1.0]"),
    ("nan_time", {"output_times": [np.nan]}, "ValueError",
     "output_times must be nonempty and lie within [0, 1.0]"),
    ("nan_among_times", {"output_times": [0.5, np.nan, 1.0]}, "ValueError",
     "output_times must be nonempty and lie within [0, 1.0]"),
    ("x0_shape", {"x0": [0.5]}, "ValueError", "x0 must have shape (2,), got (1,)"),
    ("x0_outside", {"x0": [2.0, 0.0]}, "OutOfDomain", "x0 [2. 0.] is outside the domain closure"),
    ("x0_nan", {"x0": [np.nan, 0.0]}, "OutOfDomain",
     "x0 [nan  0.] is outside the domain closure"),
    ("x0_string", {"x0": "a"}, "ValueError", "could not convert string to float: 'a'"),
    ("state_dimension", {"domain": "interval", "x0": [0.0]}, "ValueError",
     "coeffs state dimension 2 != domain dim 1"),
    ("zero_substeps", {"substeps_per_knot": 0}, "ValueError",
     "substeps_per_knot must be an integer >= 1, got 0"),
    ("fractional_substeps", {"substeps_per_knot": 1.5}, "ValueError",
     "substeps_per_knot must be an integer >= 1, got 1.5"),
    ("off_fine_grid", {"output_times": [0.3]}, "ValueError",
     "output times must lie on the path's fine dyadic grid"),
    ("level_before_x0", {"n": 7, "x0": [2.0, 0.0]}, "LevelTooFine",
     "level 7 exceeds the path's fine level 6"),
    ("batch_before_x0", {"path": "batch", "x0": [2.0, 0.0]}, "ValueError",
     "path must be a single path, not a batch"),
    ("times_before_x0", {"output_times": [2.0], "x0": [2.0, 0.0]}, "ValueError",
     "output_times must be nonempty and lie within [0, 1.0]"),
    ("x0_before_substeps", {"x0": [2.0, 0.0], "substeps_per_knot": 0}, "OutOfDomain",
     "x0 [2. 0.] is outside the domain closure"),
    ("substeps_before_grid", {"substeps_per_knot": 0, "output_times": [0.3]}, "ValueError",
     "substeps_per_knot must be an integer >= 1, got 0"),
    ("coeffs_before_outside",
     {"coeffs": "one_noise_coeffs", "path": "one_noise_path", "x0": [2.0, 0.0]},
     "ValueError", "coeffs state dimension 1 != domain dim 2"),
]


@pytest.mark.parametrize("name, bad, error, message", COUPLED_SOLVE_ERRORS,
                         ids=[case[0] for case in COUPLED_SOLVE_ERRORS])
def test_coupled_solve_names_the_first_bad_input_as_before(name, bad, error, message):
    planar = rs.linear([[[0.1, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.1, 0.0]]],
                       [[0.4, 0.0], [0.0, 0.4]], drift_matrix=[[-0.5, 0.0], [0.0, -0.5]])
    named = {
        "batch": rs.sample_path(2, 1.0, 6, [3, 4]),
        "one_noise_path": rs.sample_path(1, 1.0, 6, 3),
        "one_noise_coeffs": rs.constant([[0.5]]),
        "interval": rs.interval(-1.0, 1.0),
    }
    args = {"domain": rs.ball(1.0, dim=2), "coeffs": planar, "path": rs.sample_path(2, 1.0, 6, 3),
            "n": 3, "substeps_per_knot": 2, "x0": [0.5, 0.0], "output_times": [0.5, 1.0]}
    # A string names one of the objects above; "a" stays a string.
    args.update({key: named.get(v, v) if isinstance(v, str) else v for key, v in bad.items()})
    with pytest.raises(Exception) as raised:
        rs.coupled_solve(**args)
    assert (type(raised.value).__name__, str(raised.value)) == (error, message)


@pytest.mark.parametrize("solve", [
    lambda D, C, P, t: rs.coupled_solve(D, C, P, 4, 8, [0.5, 0.0], t, True),
    lambda D, C, P, t: (rs.solve_wz(D, C, P, 4, 8, [0.5, 0.0], t, True),),
    lambda D, C, P, t: (rs.solve_reference(D, C, P, [0.5, 0.0], t, True),),
], ids=["coupled_solve", "solve_wz", "solve_reference"])
def test_a_scalar_output_time_is_one_output(solve):
    D, C = rs.ball(1.0, dim=2), rs.constant([[0.4, 0.0], [0.0, 0.4]])
    P = rs.sample_path(2, 1.0, 8, 3)

    def arrays(paths):
        return [(f, np.asarray(getattr(p, f)).tobytes()) for p in paths
                for f in ("times", "states", "regulator", "variation")]

    assert arrays(solve(D, C, P, 1.0)) == arrays(solve(D, C, P, [1.0]))
