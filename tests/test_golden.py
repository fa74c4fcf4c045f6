"""Golden digests: the engine's numbers must not move under refactoring.

Each case hashes the exact bytes of what the engine or a solver returns
(shape, dtype and contents of every array, or the JSON bytes of a report).
A digest changes only when some number changes in its last bit, so a change
that is meant to be bit-identical is checked here.  When a change is meant
to move numbers, regenerate the digests with ``python tests/test_golden.py``
and record why in CHANGES.md.
"""

import hashlib
import json

import numpy as np

import reflectedsde as rs

STUDY = dict(T=1.0, levels=(3, 4, 5), M=64, fine_margin=3, substeps_per_knot=8, seed=97)


def _interval_problem():
    coeffs = rs.trig([[0.5]], [[0.2]], [1.0], drift_matrix=[[-0.3]])
    return rs.interval(-1.0, 1.0), coeffs, [0.0]


def _annulus_problem():
    coeffs = rs.trig(
        offset=[[0.6, 0.1], [0.1, 0.6]],
        amplitude=[[0.3, 0.1], [0.1, 0.3]],
        frequency=[1.0, 2.0],
        drift_matrix=[[-0.5, 0.0], [0.0, -0.5]],
    )
    return rs.annulus(0.5, 1.0, dim=2), coeffs, [0.75, 0.0]


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _stats_digest(problem) -> str:
    domain, coeffs, x0 = problem()
    s = STUDY
    stats = rs.run_coupling_stats(
        domain, coeffs, x0, s["T"], s["levels"], s["M"], s["fine_margin"],
        s["substeps_per_knot"], s["seed"],
    )
    return _array_digest(
        stats.sup_dist, stats.final_dist, stats.f_final, stats.var_final, stats.ref_var_final
    )


def _holder_digest(process) -> str:
    domain, coeffs, x0 = _interval_problem()
    report = rs.holder_report(
        domain, coeffs, x0, 1.0, process, [2, 4], 64, seed=11, grid_level=5, fine_margin=3
    )
    return hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()


def _substep_digest() -> str:
    domain = rs.ball(1.0, dim=2)
    coeffs = rs.linear(
        A=[[[0.1, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.1, 0.0]]],
        B=[[0.4, 0.0], [0.0, 0.4]],
        drift_matrix=[[-0.5, 0.0], [0.0, -0.5]],
    )
    path = rs.sample_path(2, 1.0, 7, seed=3)
    approx, reference = rs.coupled_solve(
        domain, coeffs, path, 4, 8, [0.9, 0.0], [1.0], record_substeps=True
    )
    arrays = []
    for traj in (approx, reference):
        log = traj.substeps
        arrays += [
            log.times, log.states, log.reg_increments, log.var_increments,
            log.boundary_distances,
        ]
    return _array_digest(*arrays)


CASES = {
    "stats_interval_trig": lambda: _stats_digest(_interval_problem),
    "stats_annulus_trig": lambda: _stats_digest(_annulus_problem),
    "holder_reference": lambda: _holder_digest("reference"),
    "holder_level_4": lambda: _holder_digest(4),
    "substeps_ball_linear": _substep_digest,
}

GOLDEN = {
    "stats_interval_trig": "bc81bd3143ce9cc286c76403080031982065f79cbbc3e98369bc2b9b52abdf17",
    "stats_annulus_trig": "c44d76c3d6c2bc92e4ed2277267d3364265c93b1e0b4948b09630269b0e40fc2",
    "holder_reference": "a317d719277a95fec161598f2eec323be484cc2e9af24a1fd1b0d4f55c46a747",
    "holder_level_4": "ad446c4436fce4c715b1b4b6a7e8a11ee6f652a20f304b70482c2796c58cf1ae",
    "substeps_ball_linear": "0a8a4ae950c7f60be3d859868222577c1b95ca59e1de60e9fb0acd1b82b2cfeb",
}


def test_golden_digests():
    assert {name: case() for name, case in CASES.items()} == GOLDEN


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f'    "{name}": "{case()}",')
