"""Experiment runner: config parsing, seeding, command dispatch, emission.

Commands: ``certify`` (domain condition checks), ``converge`` (coupled rate
study), ``simulate`` (single coupled trajectory dump), ``holder``
(time-regularity exponents).  Configuration comes from a JSON file with
flag overrides; flags win.  Exit codes are a stable contract: 0 success,
1 acceptance-threshold miss, 2 config error, 3 runtime failure.

All randomness derives from the single config seed: per-path seeds are
derived from (seed, path index), per-level streams from (path seed, level),
and stream row k feeds knot k.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from . import harness
from .coefficients import make_coefficients
from .errors import (
    ConfigError,
    DegenerateFit,
    ExperimentFailed,
    OutOfDomain,
    ReflectedSDEError,
)
from .brownian import sample_path
from .geometry import (
    ConeCoverCertificate,
    check_d1,
    check_d2,
    check_d3,
    make_domain,
)
from .solvers import coupled_solve

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# The keys of ``thresholds``: the least rate and decay slopes ``converge`` accepts.
_THRESHOLD_KEYS = ("rate_slope_min", "lyapunov_slope_min")

# The JSON values each annotated type admits (a float takes an int), named.
_JSON_TYPES = {
    float: ((int, float), "a number"), int: ((int,), "an integer"), str: ((str,), "a string"),
    list: ((list,), "a list"), dict: ((dict,), "an object"), type(None): ((type(None),), "null"),
}


def _check_type(key: str, value, annotation):
    """``ConfigError`` under ``key`` unless ``value`` is a JSON value of the
    annotated type (``X | None`` admits null); a boolean is never a number."""
    types = [_JSON_TYPES[t] for t in get_args(annotation) or (annotation,)]
    if isinstance(value, bool) or not any(isinstance(value, kinds) for kinds, _ in types):
        wanted = " or ".join(name for _, name in types)
        raise ConfigError(f"must be {wanted}, got {value!r}", field=key)


@dataclass
class ExperimentConfig:
    """Declarative experiment description; round-trips through JSON."""

    domain: dict
    coefficients: dict | None = None
    x0: list = field(default_factory=lambda: [0.0])
    T: float = 1.0
    levels: list = field(default_factory=lambda: [4, 5, 6])
    p_list: list = field(default_factory=lambda: [2])
    M: int = 100
    substeps_per_knot: int = 8
    fine_margin: int = 4
    seed: int = 0
    out: str | None = None
    format: str = "json"
    thresholds: dict = field(default_factory=dict)
    grid_level: int = 6
    r: float | None = None
    cover_certificate: str | None = None
    n_boundary: int = 400
    n_interior: int = 2000

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        names = [f.name for f in fields(cls)]
        # "deterministic_reduction" and "workers" still parse so older
        # config files load; they select nothing, as reduction is always in
        # path-index order and a study always runs in one process.
        unknown = set(data) - set(names) - {"deterministic_reduction", "workers"}
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)}", field="config")
        if "domain" not in data:
            raise ConfigError("missing required key", field="domain")
        values = {k: data[k] for k in names if k in data}
        hints = get_type_hints(cls)
        for key, value in values.items():
            _check_type(key, value, hints[key])
        for key, value in values.get("thresholds", {}).items():
            if key not in _THRESHOLD_KEYS:
                known = list(_THRESHOLD_KEYS)
                raise ConfigError(f"unknown key {key!r}; known: {known}", field="thresholds")
            _check_type(f"thresholds.{key}", value, float)
        return cls(**values)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(str(exc), field="config")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", field="config")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def build(self, key: str, factory):
        """``factory(name, **params)`` from the ``{"name", "params"}`` object
        at config key ``key``, with its errors reported under ``key``."""
        spec = getattr(self, key)
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError("must be an object with a 'name' key", field=key)
        try:
            return factory(spec["name"], **spec.get("params", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc), field=key)

    def validate(self) -> harness.Study:
        """The study this config describes: the CLI's own keys are checked
        here, the study's inputs by constructing ``harness.Study``."""
        # Module globals, read at call time: a replacement set on the module is used.
        domain = self.build("domain", make_domain)
        coeffs = self.build("coefficients", make_coefficients)
        try:
            harness.check_moments(self.p_list)
        except ValueError as exc:
            raise ConfigError(str(exc).removeprefix("p_list "), field="p_list")
        if self.format not in ("json", "csv"):
            raise ConfigError("must be 'json' or 'csv'", field="format")
        try:
            return harness.Study(
                domain, coeffs, self.x0, self.T, self.levels, self.M, self.fine_margin,
                self.substeps_per_knot, self.seed, self.r,
            )
        except (ValueError, OutOfDomain) as exc:
            raise ConfigError(str(exc))


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_certify(config: ExperimentConfig) -> int:
    """Run the domain condition checks and compare with declared constants."""
    domain = config.build("domain", make_domain)
    for key in ("n_boundary", "n_interior"):
        if getattr(config, key) < 1:
            raise ConfigError("sample counts must be positive", field=key)
    d1 = check_d1(domain, config.n_boundary, config.n_interior, config.seed)
    d2 = check_d2(domain, config.n_boundary, config.seed)
    report = {
        "domain": config.domain,
        "certificate": domain.certificate_dict(),
        "c0_hat": d1.c0_hat,
        "alpha_hat": d2.alpha_hat,
        "n_boundary": config.n_boundary,
        "n_interior": config.n_interior,
        "seed": config.seed,
    }
    violations = []
    if d1.c0_hat > domain.c0 * 1.01 + 1e-9:
        violations.append("c0")
    if d2.alpha_hat < domain.alpha - max(0.01 * domain.alpha, 1e-9):
        violations.append("alpha")
    if config.cover_certificate:
        try:
            with open(config.cover_certificate) as fh:
                cover = ConeCoverCertificate.from_json(fh.read())
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise ConfigError(str(exc), field="cover_certificate")
        d3 = check_d3(domain, cover, config.n_boundary, config.seed)
        margin = d3.worst_direction_margin
        report["d3"] = {
            "passed": d3.passed,
            "cover_ok": d3.cover_ok,
            "directions_ok": d3.directions_ok,
            "worst_cover_distance": d3.worst_cover_distance,
            "worst_direction_margin": margin if np.isfinite(margin) else None,
        }
        if not d3.passed:
            violations.append("d3")
    report["violations"] = violations
    _emit(_json_text(report), config.out)
    return EXIT_OK if not violations else EXIT_THRESHOLD


def cmd_converge(config: ExperimentConfig) -> int:
    """Coupled rate study: strong-error report plus the decay diagnostic."""
    study = config.validate()
    if len(study.levels) < 2:
        raise DegenerateFit("rate fitting needs at least two levels")
    if config.format == "csv" and not config.out:
        raise ConfigError("csv writes one table per file, so it needs a file", field="out")
    p = float(config.p_list[0]) if config.p_list else 2.0
    stats = harness.run_coupling_stats(study)
    rate = harness.rate_report(stats, p, study.seed)
    decay = harness.lyapunov_report(stats, study.seed)
    if config.format == "csv":
        _emit(rate.to_csv_string(), config.out)
        _emit(decay.to_csv_string(), config.out + ".lyapunov.csv")
    else:
        _emit(
            _json_text({"rate": rate.to_json_dict(), "lyapunov": decay.to_json_dict()}),
            config.out,
        )
    if rate.degenerate or decay.degenerate:
        return EXIT_OK
    slope_min, lyap_min = (config.thresholds.get(key) for key in _THRESHOLD_KEYS)
    if slope_min is not None and rate.final_slope < slope_min:
        return EXIT_THRESHOLD
    if lyap_min is not None and decay.slope < lyap_min:
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_simulate(config: ExperimentConfig) -> int:
    """One coupled trajectory pair dumped as CSV."""
    study = config.validate()
    if len(study.levels) != 1:
        raise ConfigError("simulate needs exactly one level", field="levels")
    (n,) = study.levels
    path = sample_path(
        study.coeffs.dim_noise, study.T, n + study.fine_margin, harness.path_seed(study.seed, 0)
    )
    approx, reference = coupled_solve(
        study.domain, study.coeffs, path, n, study.substeps_per_knot, study.x0, [path.horizon]
    )
    trace = harness.lyapunov_trace(study.domain, reference, approx, study.r)
    columns = [
        f"{name}_{i+1}" for name in ("X", "Xn", "L", "Ln") for i in range(study.domain.dim)
    ]
    lines = [",".join(["t", *columns, "|L|", "|Ln|", "f_n"])]
    for i, t in enumerate(reference.times):
        row = (
            [t]
            + list(reference.states[i])
            + list(approx.states[i])
            + list(reference.regulator[i])
            + list(approx.regulator[i])
            + [reference.variation[i], approx.variation[i], trace.f_values[i]]
        )
        lines.append(",".join(format(v, ".17g") for v in row))
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def cmd_holder(config: ExperimentConfig) -> int:
    """Time-regularity slopes for the reference and one approximation level."""
    study = config.validate()
    reports = [
        harness.holder_report(study, config.p_list, config.grid_level, reference)
        for reference in (True, False)
    ]
    if config.format == "csv":
        lines = reports[0].to_csv_string().splitlines()
        for rep in reports[1:]:
            lines += rep.to_csv_string().splitlines()[1:]
        _emit("\n".join(lines) + "\n", config.out)
    else:
        _emit(_json_text({rep.process: rep.to_json_dict() for rep in reports}), config.out)
    if any(rep.degenerate for rep in reports):
        return EXIT_OK
    return EXIT_OK if all(rep.all_passed() for rep in reports) else EXIT_THRESHOLD


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _corner(text: str) -> list:
    """comma-separated corner"""
    return [float(v) for v in text.split(",")]


# ``certify``'s domain flags and the converters of their text, applied when
# the domain is built, so a bad value is a config error like any other.
_DOMAIN_FLAGS = {
    "radius": float, "dim": int, "r1": float, "r2": float, "a": float, "b": float,
    "lo": _corner, "hi": _corner,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectedsde",
        description="Reflected SDE simulation and convergence experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("certify", cmd_certify),
        ("converge", cmd_converge),
        ("simulate", cmd_simulate),
        ("holder", cmd_holder),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=["json", "csv"])
        if name == "certify":
            p.add_argument("--domain", help="built-in domain name")
            for flag, convert in _DOMAIN_FLAGS.items():
                p.add_argument(f"--{flag}", help=_corner.__doc__ if convert is _corner else None)
            p.add_argument("--cover", help="cone cover certificate JSON file")
    return parser


def _domain_from_flags(args) -> dict | None:
    if not args.domain:
        return None
    params = {
        flag: convert(getattr(args, flag))
        for flag, convert in _DOMAIN_FLAGS.items()
        if getattr(args, flag) is not None
    }
    return {"name": args.domain, "params": params}


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config) if args.config else None
    domain = _domain_from_flags(args) if hasattr(args, "domain") else None
    if config is None and domain is None:
        raise ConfigError("either --config or --domain is required", field="config")
    if config is None:
        config = ExperimentConfig(domain=domain)
    elif domain is not None:
        config.domain = domain
    if hasattr(args, "domain") and args.cover is not None:
        config.cover_certificate = args.cover
    for key in ("seed", "out", "format"):
        if getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        return args.func(config)
    except (ConfigError, DegenerateFit, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExperimentFailed as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ReflectedSDEError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
