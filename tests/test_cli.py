import json

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import harness
from reflectedsde.cli import ExperimentConfig, main
from reflectedsde.errors import ConfigError


def _write_config(tmp_path, name="config.json", **overrides):
    data = {
        "domain": {"name": "interval", "params": {"a": -1.0, "b": 1.0}},
        "coefficients": {
            "name": "trig",
            "params": {
                "offset": [[0.5]],
                "amplitude": [[0.2]],
                "frequency": [1.0],
                "drift_matrix": [[-0.3]],
            },
        },
        "x0": [0.0],
        "T": 1.0,
        "levels": [3, 4, 5],
        "p_list": [2],
        "M": 60,
        "substeps_per_knot": 4,
        "fine_margin": 3,
        "seed": 319,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    path = _write_config(tmp_path)
    config = ExperimentConfig.from_file(str(path))
    again = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert config == again


def test_unknown_key_is_reported():
    with pytest.raises(ConfigError, match="config"):
        ExperimentConfig.from_dict({"domain": {"name": "ball"}, "sigma": 1})


def test_legacy_reduction_key_is_accepted_and_ignored(tmp_path):
    plain = ExperimentConfig.from_file(str(_write_config(tmp_path)))
    legacy = ExperimentConfig.from_file(
        str(_write_config(tmp_path, "legacy.json", deterministic_reduction=False))
    )
    assert legacy == plain and "deterministic_reduction" not in legacy.to_dict()


def test_missing_domain_is_reported():
    with pytest.raises(ConfigError, match="domain"):
        ExperimentConfig.from_dict({"T": 1.0})


def test_validation_reports_field_names(tmp_path):
    config = ExperimentConfig.from_file(str(_write_config(tmp_path, x0=[3.0])))
    with pytest.raises(ConfigError, match="x0"):
        config.validate()
    config = ExperimentConfig.from_file(str(_write_config(tmp_path, levels=[5, 4])))
    with pytest.raises(ConfigError, match="levels"):
        config.validate()
    config = ExperimentConfig.from_file(str(_write_config(tmp_path, p_list=[3])))
    with pytest.raises(ConfigError, match="p_list"):
        config.validate()


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["converge", "--config", str(bad)]) == 2
    assert "config" in capsys.readouterr().err


def test_config_file_not_mutated(tmp_path):
    path = _write_config(tmp_path)
    before = path.read_bytes()
    main(["certify", "--config", str(path), "--seed", "9"])
    assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_ball_flags(capsys):
    code = main(["certify", "--domain", "ball", "--radius", "1", "--seed", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["c0_hat"] == 0.0
    assert out["alpha_hat"] == pytest.approx(2.0, abs=1e-9)
    assert out["violations"] == []


def test_certify_annulus_flags(capsys):
    code = main(
        ["certify", "--domain", "annulus", "--r1", "0.5", "--r2", "1.5", "--seed", "7"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["c0_hat"] == pytest.approx(1.0, rel=0.02)
    assert out["alpha_hat"] == pytest.approx(1.0, abs=1e-9)


def test_certify_with_cover_certificate(tmp_path, capsys):
    angles = np.arange(8) * (2 * np.pi / 8)
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def write(lam):
        cert = rs.ConeCoverCertificate(centers=centers, radius=0.5,
                                       directions=-centers, lam=lam)
        p = tmp_path / f"cover_{lam}.json"
        p.write_text(cert.to_json())
        return str(p)

    ok = main(["certify", "--domain", "ball", "--radius", "1",
               "--cover", write(0.45), "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert ok == 0 and out["d3"]["passed"]

    bad = main(["certify", "--domain", "ball", "--radius", "1",
                "--cover", write(0.7), "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert bad == 1 and not out["d3"]["passed"] and "d3" in out["violations"]


def test_certify_requires_domain_or_config(capsys):
    assert main(["certify", "--seed", "1"]) == 2


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_meets_thresholds(tmp_path, capsys):
    path = _write_config(
        tmp_path, thresholds={"rate_slope_min": 0.3, "lyapunov_slope_min": 0.3}
    )
    code = main(["converge", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["rate"]["final_slope"] > 0.3
    assert out["lyapunov"]["slope"] > 0.3


def test_converge_threshold_miss_exits_1(tmp_path, capsys):
    path = _write_config(tmp_path, thresholds={"rate_slope_min": 5.0})
    assert main(["converge", "--config", str(path)]) == 1


def test_converge_single_level_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, levels=[4])
    assert main(["converge", "--config", str(path)]) == 2


def test_converge_degenerate_exits_0(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        coefficients={"name": "constant", "params": {"sigma": [[0.0]]}},
        M=10,
    )
    code = main(["converge", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["rate"]["degenerate"]


def test_converge_csv_output(tmp_path):
    path = _write_config(tmp_path, M=20)
    out_file = tmp_path / "rate.csv"
    code = main(["converge", "--config", str(path), "--format", "csv",
                 "--out", str(out_file)])
    assert code == 0
    text = out_file.read_bytes().decode()
    assert text.splitlines()[0] == "n,error,stderr"
    assert "\r" not in text
    assert (tmp_path / "rate.csv.lyapunov.csv").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic_bytes(tmp_path):
    path = _write_config(tmp_path, levels=[4])
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(path), "--out", str(f1)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().splitlines()[0].split(",")
    assert header == ["t", "X_1", "Xn_1", "L_1", "Ln_1", "|L|", "|Ln|", "f_n"]


def test_simulate_reflected_drift_reaches_unit_variation(tmp_path):
    path = _write_config(
        tmp_path,
        coefficients={
            "name": "constant",
            "params": {"sigma": [[0.0]], "drift_offset": [1.0]},
        },
        T=2.0,
        levels=[5],
    )
    out_file = tmp_path / "drift.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out_file)]) == 0
    rows = out_file.read_text().strip().splitlines()
    header = rows[0].split(",")
    last = dict(zip(header, rows[-1].split(",")))
    assert float(last["|L|"]) == pytest.approx(1.0, abs=1e-12)
    assert float(last["|Ln|"]) == pytest.approx(1.0, abs=1e-12)
    f_col = header.index("f_n")
    assert all(float(r.split(",")[f_col]) >= 0.0 for r in rows[1:])


def test_simulate_needs_single_level(tmp_path):
    path = _write_config(tmp_path, levels=[4, 5])
    assert main(["simulate", "--config", str(path)]) == 2


# ---------------------------------------------------------------------------
# holder
# ---------------------------------------------------------------------------

def test_holder_passes_on_standard_problem(tmp_path, capsys):
    path = _write_config(tmp_path, levels=[5], M=200, grid_level=5)
    code = main(["holder", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out) == {"reference", "wz-5"}
    for rep in out.values():
        for row in rep["rows"]:
            assert row["slope"] >= row["p"] / 2 - 0.2


def test_holder_rejects_odd_moment(tmp_path, capsys):
    path = _write_config(tmp_path, levels=[5], p_list=[3])
    assert main(["holder", "--config", str(path)]) == 2


def test_holder_csv_output(tmp_path):
    path = _write_config(tmp_path, levels=[4], M=40, grid_level=4)
    out_file = tmp_path / "holder.csv"
    code = main(["holder", "--config", str(path), "--format", "csv",
                 "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "process,p,lag,moment"
    assert any(line.startswith("reference,") for line in lines[1:])
    assert any(line.startswith("wz-4,") for line in lines[1:])


def test_holder_degenerate_exits_0(tmp_path):
    path = _write_config(
        tmp_path,
        levels=[4],
        M=10,
        coefficients={"name": "constant", "params": {"sigma": [[0.0]]}},
    )
    assert main(["holder", "--config", str(path)]) == 0


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_holder_single_lag_is_degenerate_json(tmp_path, capsys):
    # grid_level 1 over T = 1 leaves one lag: no slope to fit, and no NaN.
    path = _write_config(tmp_path, levels=[4], M=20, grid_level=1)
    assert main(["holder", "--config", str(path)]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert set(out) == {"reference", "wz-4"}
    for rep in out.values():
        assert rep["degenerate"]
        assert all(len(row["lags"]) == 1 and row["slope"] is None for row in rep["rows"])


def test_holder_grid_level_below_one_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, levels=[4], M=20, grid_level=0)
    assert main(["holder", "--config", str(path)]) == 2
    assert "grid_level" in capsys.readouterr().err


def test_holder_workers_print_the_same_bytes(tmp_path, capsys, monkeypatch):
    run_groups, seen = harness._run_groups, []

    def spy(march, chunks, workers):
        seen.append((len(chunks), workers))
        return run_groups(march, chunks, workers)

    monkeypatch.setattr(harness, "_run_groups", spy)
    path = _write_config(tmp_path, levels=[4], M=24, grid_level=4)
    outputs = []
    for workers in ("1", "2"):
        assert main(["holder", "--config", str(path), "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # Both processes ran one group serially, then two over two workers.
    assert seen == [(1, 1), (1, 1), (2, 2), (2, 2)]


def test_flag_overrides_win(tmp_path, capsys):
    path = _write_config(tmp_path)
    main(["certify", "--config", str(path), "--seed", "11", "--domain", "ball",
          "--radius", "2.0"])
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 11
    assert out["alpha_hat"] == pytest.approx(4.0, abs=1e-9)
    assert out["domain"]["params"]["radius"] == 2.0
