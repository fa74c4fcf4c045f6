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
import tempfile
from pathlib import Path

import numpy as np

import reflectedsde as rs
from reflectedsde.cli import main

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


def _ball3_problem():
    # Three distinct phases shared unevenly over the nine entries: the
    # batch-axis sine and the three-term column sums both meet their d = 3
    # case.
    coeffs = rs.trig(
        offset=[[0.5, 0.1, 0.0], [0.1, 0.5, 0.1], [0.0, 0.1, 0.5]],
        amplitude=[[0.2, 0.1, 0.1], [0.1, 0.2, 0.1], [0.1, 0.1, 0.2]],
        frequency=[1.0, -2.0, 0.5],
        phase=[[0.0, 0.0, 0.5], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]],
        drift_matrix=[[-0.5, 0.1, 0.0], [0.0, -0.5, 0.1], [0.1, 0.0, -0.5]],
    )
    return rs.ball(1.0, dim=3), coeffs, [0.6, 0.0, 0.2]


def _planar_trig_2x3_problem():
    # d = 2, m = 3: the noise term sums three columns, and the noise-
    # interaction term six, which the native march (d = m only) does not run.
    coeffs = rs.trig(
        offset=[[0.5, 0.1, -0.1], [0.0, 0.4, 0.2]],
        amplitude=[[0.2, 0.1, 0.1], [0.1, 0.2, 0.1]],
        frequency=[1.0, -1.5],
        phase=[[0.0, 0.5, 0.0], [0.5, 0.0, 1.0]],
        drift_matrix=[[-0.5, 0.1], [0.0, -0.5]],
    )
    return rs.annulus(0.5, 1.0, dim=2), coeffs, [0.75, 0.0]


def _ball_constant_negative_problem():
    # Every sigma entry negative: the zero derivative times sigma, and sigma
    # times the first knot interval's zero slope, are -0.0 products, whose
    # sums are -0.0.
    coeffs = rs.constant([[-0.4, -0.1], [-0.1, -0.3]], drift_matrix=[[-0.5, 0.0], [0.0, -0.5]])
    return rs.ball(1.0, dim=2), coeffs, [0.5, -0.3]


def _interval_constant_negative_problem():
    # d = 1 with negative sigma: the zero derivative times sigma, and sigma
    # times the first knot interval's zero slope, are -0.0 products.
    coeffs = rs.constant([[-0.4]], drift_matrix=[[-0.5]], drift_offset=[0.05])
    return rs.interval(-0.6, 0.6), coeffs, [0.3]


def _interval_linear_problem():
    coeffs = rs.linear(A=[[[0.3]]], B=[[0.4]], drift_matrix=[[-0.2]], drift_offset=[-0.1])
    return rs.interval(-0.5, 0.7), coeffs, [-0.2]


def _box1_trig_phase_problem():
    # A 1-d box built as a box, with a nonzero phase and a drift offset.
    coeffs = rs.trig(
        [[-0.5]], [[0.3]], [1.5], phase=[[0.7]], drift_matrix=[[-0.4]], drift_offset=[0.2]
    )
    return rs.box([-0.4], [0.3]), coeffs, [0.1]


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _stats_digest(problem, **changes) -> str:
    domain, coeffs, x0 = problem()
    s = dict(STUDY, **changes)
    stats = rs.run_coupling_stats(rs.Study(
        domain, coeffs, x0, s["T"], s["levels"], s["M"], s["fine_margin"],
        s["substeps_per_knot"], s["seed"],
    ))
    return _array_digest(
        stats.sup_dist, stats.final_dist, stats.f_final, stats.var_final, stats.ref_var_final
    )


def _holder_digest(reference: bool) -> str:
    domain, coeffs, x0 = _interval_problem()
    report = rs.holder_report(
        rs.Study(domain, coeffs, x0, 1.0, [4], 64, 3, 8, seed=11), [2, 4], grid_level=5,
        reference=reference,
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


def _converge_digest() -> str:
    """The ``converge`` report text of the interval study: the JSON, then
    the CSV and its ``.lyapunov.csv``, as the command writes them."""
    config = {
        "domain": {"name": "interval", "params": {"a": -1.0, "b": 1.0}},
        "coefficients": {
            "name": "trig",
            "params": {
                "offset": [[0.5]], "amplitude": [[0.2]], "frequency": [1.0],
                "drift_matrix": [[-0.3]],
            },
        },
        "x0": [0.0],
        "levels": list(STUDY["levels"]),
        **{k: STUDY[k] for k in ("T", "M", "fine_margin", "substeps_per_knot", "seed")},
    }
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        for fmt in ("json", "csv"):
            out = Path(tmp, f"report.{fmt}")
            assert main(["converge", "--config", str(path), "--format", fmt, "--out", str(out)]) == 0
        for name in ("report.json", "report.csv", "report.csv.lyapunov.csv"):
            h.update(name.encode())
            h.update(Path(tmp, name).read_bytes())
    return h.hexdigest()


def _cli_digest(*argv) -> str:
    """The exit code and report bytes of one CLI command."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "report")
        code = main([*argv, "--out", str(out)])
        h.update(f"{code}\n".encode())
        h.update(out.read_bytes())
    return h.hexdigest()


def _certify_digest(*flags) -> str:
    return _cli_digest("certify", "--seed", "7", *flags)


def _certify_cover_digest() -> str:
    """``certify`` of an interval with a cone cover of its two endpoints."""
    cert = rs.ConeCoverCertificate(
        centers=[[-0.3], [0.4]], radius=0.1, directions=[[1.0], [-1.0]], lam=0.5
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cover.json")
        path.write_text(cert.to_json())
        return _certify_digest("--domain", "interval", "--a=-0.3", "--b=0.4", "--cover", str(path))


def _simulate_digest() -> str:
    """The ``simulate`` CSV of the interval problem at level 4."""
    config = {
        "domain": {"name": "interval", "params": {"a": -0.3, "b": 0.4}},
        "coefficients": {
            "name": "trig",
            "params": {
                "offset": [[0.5]], "amplitude": [[0.2]], "frequency": [1.0],
                "drift_matrix": [[-0.3]],
            },
        },
        "x0": [0.1],
        "levels": [4],
        "fine_margin": 3,
        "substeps_per_knot": 8,
        "seed": 5,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        return _cli_digest("simulate", "--config", str(path))


CASES = {
    "stats_interval_trig": lambda: _stats_digest(_interval_problem),
    "stats_annulus_trig": lambda: _stats_digest(_annulus_problem),
    "stats_ball3_trig_phases": lambda: _stats_digest(_ball3_problem),
    # A horizon off the dyadic grid: the fine grid (level 8) pads T=0.3 to
    # 0.30078, the level-5 grid to 0.3125; outputs keep the fine padding.
    "stats_interval_trig_T0.3": lambda: _stats_digest(_interval_problem, T=0.3),
    # Groups of 512 paths: the d = m = 2 ball marches natively where the
    # library loads, the (2, 3) annulus in numpy.
    "stats_annulus_trig_2x3": lambda: _stats_digest(_planar_trig_2x3_problem, M=512),
    "stats_ball_constant_neg": lambda: _stats_digest(_ball_constant_negative_problem, M=512),
    # d = 1 studies of each built-in family, as the interval and as a box.
    "stats_interval_constant_neg": lambda: _stats_digest(_interval_constant_negative_problem),
    "stats_interval_linear": lambda: _stats_digest(_interval_linear_problem),
    "stats_box1_trig_phase": lambda: _stats_digest(_box1_trig_phase_problem),
    "holder_reference": lambda: _holder_digest(True),
    "holder_level_4": lambda: _holder_digest(False),
    "substeps_ball_linear": _substep_digest,
    "converge_interval_trig": _converge_digest,
    # CLI report bytes: `certify` of each built-in domain (the interval both
    # as `interval` and as the 1-d `box`), and `simulate`'s CSV.
    "certify_ball": lambda: _certify_digest("--domain", "ball", "--radius", "1"),
    "certify_annulus": lambda: _certify_digest(
        "--domain", "annulus", "--r1", "0.5", "--r2", "1.5"
    ),
    "certify_interval": lambda: _certify_digest("--domain", "interval", "--a=-0.3", "--b=0.4"),
    "certify_box_2d": lambda: _certify_digest("--domain", "box", "--lo=0,0", "--hi=2,1"),
    "certify_box_1d": lambda: _certify_digest("--domain", "box", "--lo=-0.3", "--hi=0.4"),
    "certify_ball_3d": lambda: _certify_digest("--domain", "ball", "--radius", "1", "--dim", "3"),
    "certify_annulus_3d": lambda: _certify_digest(
        "--domain", "annulus", "--r1", "0.5", "--r2", "1.5", "--dim", "3"
    ),
    "certify_interval_cover": _certify_cover_digest,
    "simulate_interval_trig": _simulate_digest,
}

GOLDEN = {
    "stats_interval_trig": "bc81bd3143ce9cc286c76403080031982065f79cbbc3e98369bc2b9b52abdf17",
    "stats_annulus_trig": "7da61789f5436ad9af8d3e0e7a4a22def10c20da63c7b23f49f1123901ce63d4",
    "stats_ball3_trig_phases": "d6ba7169b7031b12d85399c6db8f8ac3acd81b0127bc8d110c3568e7d4bc7568",
    "stats_interval_trig_T0.3": "41f9dbdf3caaab1685dc381f893547e910ff3e9acb32a19ce186e7636acf66bf",
    "stats_annulus_trig_2x3": "3702df90114c5ca9d4d97134eaaf98376bb5b53735824dc836b90e44eb7bee44",
    "stats_ball_constant_neg": "b451106655e58bc0e52fcedc7550184af2011d634ee5e1706142986475437636",
    "stats_interval_constant_neg": "4050b7f1b5223536aee76245ad715421c4186b94814bb211963a8c947071416e",
    "stats_interval_linear": "f291870f548836bca7ca8cf4d4b9461ddb173471c08dc69154bddb340fb31e6c",
    "stats_box1_trig_phase": "573cc2243d9f51960a59aab5daf7c7d217eb4328d7210c99b4d7a85e3defe189",
    "holder_reference": "a317d719277a95fec161598f2eec323be484cc2e9af24a1fd1b0d4f55c46a747",
    "holder_level_4": "ad446c4436fce4c715b1b4b6a7e8a11ee6f652a20f304b70482c2796c58cf1ae",
    "substeps_ball_linear": "0a8a4ae950c7f60be3d859868222577c1b95ca59e1de60e9fb0acd1b82b2cfeb",
    "converge_interval_trig": "59526de73dd4fd05084f3592f6edf9b5e27b128ee1b56d2439498e426b61ae54",
    "certify_ball": "5d2df16ded146e9aa05d8d0aa0d0c5264a7d137dab900e43f0f66287680cad9b",
    "certify_annulus": "8880af3269d9a969539bb096ec427b3cfd45228bdeefb5f3cd4e09b6555bbdcc",
    "certify_interval": "dc67acb9617d3a715e01457d65277d6dd3bee881a3a6bbd7581c7e2be53dc9c8",
    "certify_box_2d": "72dee2611c6f206fe8e33ff639ac2cd1577b7215ab76669e4ccc46dca562cead",
    "certify_box_1d": "caf4a9b6668455279e12db09ec526ca6a6846b4ac3b3fac8a56da41e3153f365",
    "certify_ball_3d": "3cd7f851a0b7c3c29968bf98c1a168c5f067e37b4c5ecab022790a43cd1a5df1",
    "certify_annulus_3d": "3684315b66979d7151957ef362acd2710bd881cf5be2fbe919bf3c701630ec37",
    "certify_interval_cover": "3f2519c56aaf36ba1df816db114f134add2526c609a70d9137deb1c86fb3833a",
    "simulate_interval_trig": "73ee0926322c44eb4f58d670942db01d17b9badea7563b4322f3eadf40177aea",
}


def test_golden_digests():
    assert {name: case() for name, case in CASES.items()} == GOLDEN


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f'    "{name}": "{case()}",')
