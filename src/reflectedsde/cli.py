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

import numpy as np

from . import harness
from .coefficients import CoefficientSet, make_coefficients
from .errors import (
    ConfigError,
    DegenerateFit,
    ExperimentFailed,
    ReflectedSDEError,
)
from .brownian import sample_path
from .geometry import (
    ConeCoverCertificate,
    DomainSpec,
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
    workers: int = 1
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
        # "deterministic_reduction" still parses so older config files load;
        # it selects nothing, as reduction is always in path-index order.
        unknown = set(data) - set(names) - {"deterministic_reduction"}
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)}", field="config")
        if "domain" not in data:
            raise ConfigError("missing required key", field="domain")
        return cls(**{k: data[k] for k in names if k in data})

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
        return {k: v for k, v in asdict(self).items()}

    def build_domain(self) -> DomainSpec:
        if not isinstance(self.domain, dict) or "name" not in self.domain:
            raise ConfigError("must be an object with a 'name' key", field="domain")
        try:
            return make_domain(self.domain["name"], **self.domain.get("params", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc), field="domain")

    def build_coefficients(self) -> CoefficientSet:
        if self.coefficients is None:
            raise ConfigError("missing required key", field="coefficients")
        if not isinstance(self.coefficients, dict) or "name" not in self.coefficients:
            raise ConfigError("must be an object with a 'name' key", field="coefficients")
        try:
            return make_coefficients(
                self.coefficients["name"], **self.coefficients.get("params", {})
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc), field="coefficients")

    def validate(self, need_coefficients: bool = True):
        domain = self.build_domain()
        if self.T <= 0:
            raise ConfigError("horizon must be positive", field="T")
        if self.M < 1:
            raise ConfigError("path count must be at least 1", field="M")
        levels = list(self.levels)
        if not levels or levels != sorted(set(int(n) for n in levels)):
            raise ConfigError("must be nonempty and strictly increasing", field="levels")
        if any(int(p) != p or int(p) not in (2, 4, 6) for p in self.p_list):
            raise ConfigError("only even moments 2, 4, 6 are supported", field="p_list")
        if self.format not in ("json", "csv"):
            raise ConfigError("must be 'json' or 'csv'", field="format")
        if self.substeps_per_knot < 1:
            raise ConfigError("must be at least 1", field="substeps_per_knot")
        if self.workers < 1:
            raise ConfigError("must be at least 1", field="workers")
        x0 = np.asarray(self.x0, float)
        if x0.shape != (domain.dim,):
            raise ConfigError(f"must have dimension {domain.dim}", field="x0")
        if not domain.contains(x0):
            raise ConfigError(f"{self.x0} is outside the domain closure", field="x0")
        coeffs = None
        if need_coefficients or self.coefficients is not None:
            coeffs = self.build_coefficients()
            if coeffs.dim_state != domain.dim:
                raise ConfigError(
                    "state dimension does not match the domain", field="coefficients"
                )
        return domain, coeffs


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
    domain = config.build_domain()
    if config.n_boundary < 1 or config.n_interior < 1:
        raise ConfigError("sample counts must be positive", field="n_boundary")
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
    domain, coeffs = config.validate()
    if len(config.levels) < 2:
        raise DegenerateFit("rate fitting needs at least two levels")
    p = float(config.p_list[0]) if config.p_list else 2.0
    stats = harness.run_coupling_stats(
        domain, coeffs, config.x0, config.T, config.levels, config.M,
        config.fine_margin, config.substeps_per_knot, config.seed,
        r=config.r, workers=config.workers,
    )
    rate = harness.rate_report(stats, p, config.seed)
    decay = harness.lyapunov_report(stats, config.seed)
    if config.format == "csv":
        _emit(rate.to_csv_string(), config.out)
        if config.out:
            _emit(decay.to_csv_string(), config.out + ".lyapunov.csv")
    else:
        _emit(
            _json_text({"rate": rate.to_json_dict(), "lyapunov": decay.to_json_dict()}),
            config.out,
        )
    if rate.degenerate or decay.degenerate:
        return EXIT_OK
    slope_min = config.thresholds.get("rate_slope_min")
    lyap_min = config.thresholds.get("lyapunov_slope_min")
    if slope_min is not None and rate.final_slope < slope_min:
        return EXIT_THRESHOLD
    if lyap_min is not None and decay.slope < lyap_min:
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_simulate(config: ExperimentConfig) -> int:
    """One coupled trajectory pair dumped as CSV."""
    domain, coeffs = config.validate()
    if len(config.levels) != 1:
        raise ConfigError("simulate needs exactly one level", field="levels")
    n = int(config.levels[0])
    path = sample_path(
        coeffs.dim_noise, config.T, n + config.fine_margin,
        harness.path_seed(config.seed, 0),
    )
    approx, reference = coupled_solve(
        domain, coeffs, path, n, config.substeps_per_knot, config.x0, [path.horizon]
    )
    r = config.r if config.r is not None else harness.default_rate_exponent(domain)
    trace = harness.lyapunov_trace(domain, reference, approx, r)
    d = domain.dim
    header = (
        ["t"]
        + [f"X_{i+1}" for i in range(d)]
        + [f"Xn_{i+1}" for i in range(d)]
        + [f"L_{i+1}" for i in range(d)]
        + [f"Ln_{i+1}" for i in range(d)]
        + ["|L|", "|Ln|", "f_n"]
    )
    lines = [",".join(header)]
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
    domain, coeffs = config.validate()
    if len(config.levels) != 1:
        raise ConfigError("holder needs exactly one level", field="levels")
    n = int(config.levels[0])
    reports = [
        harness.holder_report(
            domain, coeffs, config.x0, config.T, process, config.p_list,
            config.M, config.seed, grid_level=config.grid_level,
            fine_margin=config.fine_margin,
            substeps_per_knot=config.substeps_per_knot, workers=config.workers,
        )
        for process in ("reference", n)
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
        p.add_argument("--workers", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=["json", "csv"])
        if name == "certify":
            p.add_argument("--domain", help="built-in domain name")
            p.add_argument("--radius", type=float)
            p.add_argument("--dim", type=int)
            p.add_argument("--r1", type=float)
            p.add_argument("--r2", type=float)
            p.add_argument("--a", type=float)
            p.add_argument("--b", type=float)
            p.add_argument("--lo", help="comma-separated lower corner")
            p.add_argument("--hi", help="comma-separated upper corner")
            p.add_argument("--cover", help="cone cover certificate JSON file")
    return parser


def _domain_from_flags(args) -> dict | None:
    if not args.domain:
        return None
    params = {}
    if args.radius is not None:
        params["radius"] = args.radius
    if args.dim is not None:
        params["dim"] = args.dim
    if args.r1 is not None:
        params["r1"] = args.r1
    if args.r2 is not None:
        params["r2"] = args.r2
    if args.a is not None:
        params["a"] = args.a
    if args.b is not None:
        params["b"] = args.b
    if args.lo is not None:
        params["lo"] = [float(v) for v in args.lo.split(",")]
    if args.hi is not None:
        params["hi"] = [float(v) for v in args.hi.split(",")]
    return {"name": args.domain, "params": params}


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
    else:
        domain = _domain_from_flags(args) if hasattr(args, "domain") else None
        if domain is None:
            raise ConfigError("either --config or --domain is required", field="config")
        config = ExperimentConfig(domain=domain)
    if hasattr(args, "domain"):
        flag_domain = _domain_from_flags(args)
        if flag_domain is not None:
            config.domain = flag_domain
        if args.cover is not None:
            config.cover_certificate = args.cover
    if args.seed is not None:
        config.seed = args.seed
    if args.workers is not None:
        config.workers = args.workers
    if args.out is not None:
        config.out = args.out
    if args.format is not None:
        config.format = args.format
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
