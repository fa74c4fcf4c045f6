"""Monte Carlo estimation of strong coupling errors and convergence rates.

One Brownian path per Monte Carlo draw drives the fine-level reference once
and the piecewise-linear-noise approximation at every requested level, so
per-level errors are coupled through common increments.
``run_coupling_stats`` is the one engine call: a study runs once, and
``rate_report`` and ``lyapunov_report`` reduce its ``CouplingStats``.  Paths
are marched in chunks; with several workers the chunks run in forked
processes that inherit the domain and coefficient objects themselves, so
any domain, built-in, modified or custom, runs in parallel.  Per-path stats
are reduced in path-index order, which makes every report bit-reproducible
for a fixed configuration regardless of worker count.

The decay diagnostic uses the weighted squared distance
``exp(r (phi(X) + phi(X^n))) |X^n - X|^2`` with ``r`` strictly below
``-2 c0 / alpha``; on a bounded domain this is sandwiched between constant
multiples of the squared distance, so its decay certifies the strong rate.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import ceil
from typing import Sequence

import numpy as np

from .brownian import sample_path, wz_knot_slopes
from .coefficients import CoefficientSet
from .errors import DegenerateFit, ExperimentFailed, MismatchedTimes
from .geometry import DomainSpec
from .solvers import (
    ReflectedPath,
    coupled_output_grid,
    fine_grid_positions,
    integrate_reference_batch,
    integrate_wz_batch,
    wz_schedule,
)

_CHUNK = 256


def path_seed(seed: int, index: int) -> int:
    """Per-path seed derived from the experiment seed and the path index."""
    ss = np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF, 0x5EED, index])
    return int(ss.generate_state(1, np.uint64)[0])


def default_rate_exponent(domain: DomainSpec) -> float:
    """Default weight exponent: strictly below ``-2 c0 / alpha`` with margin."""
    if domain.c0 > 0:
        return -2.0 * domain.c0 / domain.alpha - 0.5
    return -1.0


def jackknife_se(samples: np.ndarray) -> float:
    """Leave-one-out standard error of the sample mean."""
    n = len(samples)
    if n < 2:
        return 0.0
    total = np.sum(samples)
    loo = (total - samples) / (n - 1)
    return float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateReport:
    """Per-level strong errors with fitted dyadic decay slopes.

    ``errors`` are the grid-sup moments; ``final_errors`` the fixed-time
    (horizon) moments.  Slopes are positive decay rates of the base-2 log
    per level, recomputable from the stored arrays; the intercept is the
    fitted log2 error at the first level.
    """

    levels: tuple
    errors: tuple
    stderrs: tuple
    final_errors: tuple
    final_stderrs: tuple
    p: float
    slope: float | None
    intercept: float | None
    final_slope: float | None
    final_intercept: float | None
    n_paths: int
    n_failed: int
    seed: int
    degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "errors": list(self.errors),
            "stderrs": list(self.stderrs),
            "final_errors": list(self.final_errors),
            "final_stderrs": list(self.final_stderrs),
            "p": self.p,
            "slope": self.slope,
            "intercept": self.intercept,
            "final_slope": self.final_slope,
            "final_intercept": self.final_intercept,
            "n_paths": self.n_paths,
            "n_failed": self.n_failed,
            "seed": self.seed,
            "degenerate": self.degenerate,
        }

    def to_csv_string(self) -> str:
        lines = ["n,error,stderr"]
        for n, e, s in zip(self.levels, self.errors, self.stderrs):
            lines.append(f"{n},{e:.17g},{s:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LyapunovDecayReport:
    """Per-level means of the weighted squared distance at the horizon."""

    levels: tuple
    means: tuple
    stderrs: tuple
    slope: float | None
    intercept: float | None
    r: float
    n_paths: int
    n_failed: int
    seed: int
    degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "means": list(self.means),
            "stderrs": list(self.stderrs),
            "slope": self.slope,
            "intercept": self.intercept,
            "r": self.r,
            "n_paths": self.n_paths,
            "n_failed": self.n_failed,
            "seed": self.seed,
            "degenerate": self.degenerate,
        }

    def to_csv_string(self) -> str:
        lines = ["n,mean,stderr"]
        for n, e, s in zip(self.levels, self.means, self.stderrs):
            lines.append(f"{n},{e:.17g},{s:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LyapunovTrace:
    """Pathwise weighted distance functional along a coupled trajectory pair."""

    r: float
    times: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray
    c1: float
    c2: float


@dataclass(frozen=True)
class HolderRow:
    p: float
    lags: tuple
    moments: tuple
    slope: float | None
    passed: bool


@dataclass(frozen=True)
class HolderReport:
    """Dyadic-lag moment table with fitted time-regularity exponents."""

    process: str
    rows: tuple
    n_paths: int
    seed: int
    degenerate: bool

    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "process": self.process,
            "rows": [
                {
                    "p": row.p,
                    "lags": list(row.lags),
                    "moments": list(row.moments),
                    "slope": row.slope,
                    "passed": row.passed,
                }
                for row in self.rows
            ],
            "n_paths": self.n_paths,
            "seed": self.seed,
            "degenerate": self.degenerate,
        }

    def to_csv_string(self) -> str:
        lines = ["process,p,lag,moment"]
        for row in self.rows:
            for lag, moment in zip(row.lags, row.moments):
                lines.append(f"{self.process},{row.p:g},{lag:.17g},{moment:.17g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------

def fit_rate(levels, errors) -> tuple[float, float]:
    """Least squares of log2(error) on the level; slope is the decay rate.

    The intercept is reported as the fitted log2 error at the first level.
    """
    levels = np.asarray(levels, float)
    errors = np.asarray(errors, float)
    if len(errors) < 2:
        raise DegenerateFit("need at least two error values")
    if np.any(~np.isfinite(errors)) or np.any(errors <= 0.0):
        raise DegenerateFit("errors must be finite and positive")
    if np.all(errors == errors[0]):
        raise DegenerateFit("errors are all equal")
    y = np.log2(errors)
    nbar = np.mean(levels)
    b = float(np.sum((levels - nbar) * (y - np.mean(y))) / np.sum((levels - nbar) ** 2))
    intercept = float(np.mean(y) + b * (levels[0] - nbar))
    return -b, intercept


# ---------------------------------------------------------------------------
# Coupled Monte Carlo engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingStats:
    """Per-path, per-level coupled statistics (NaN rows mark failed paths)."""

    levels: tuple
    r: float
    sup_dist: np.ndarray
    final_dist: np.ndarray
    f_final: np.ndarray
    var_final: np.ndarray
    ref_var_final: np.ndarray
    n_failed: int

    def valid_mask(self) -> np.ndarray:
        return np.all(np.isfinite(self.sup_dist), axis=1) & np.all(
            np.isfinite(self.final_dist), axis=1
        )


def _chunk_paths(coeffs, T, fine_level, seed, indices):
    return [sample_path(coeffs.dim_noise, T, fine_level, path_seed(seed, i)) for i in indices]


def _march_chunk(domain, coeffs, x0, paths, process, grid, substeps):
    """Outputs at ``grid`` of the reference (``process="reference"``) or the
    level-``process`` approximation, marched over one chunk of paths."""
    x0_batch = np.broadcast_to(np.asarray(x0, float), (len(paths), domain.dim)).copy()
    if process == "reference":
        increments = np.stack([np.asarray(p.increments) for p in paths])
        out_steps = fine_grid_positions(paths[0], grid)
        return integrate_reference_batch(
            domain, coeffs, x0_batch, increments, paths[0].fine_level, out_steps
        )
    slopes = np.stack([wz_knot_slopes(p, process) for p in paths])
    times, knot_idx, out_pos = wz_schedule(process, substeps, grid, paths[0].horizon)
    return integrate_wz_batch(domain, coeffs, x0_batch, slopes, times, knot_idx, out_pos)


def _chunk_stats(domain, coeffs, x0, T, levels, fine_margin, substeps, seed, r, indices):
    """Coupled stats for one chunk of path indices (arrays ordered by index)."""
    paths = _chunk_paths(coeffs, T, max(levels) + fine_margin, seed, indices)
    B = len(paths)
    # Stats at the padded horizon keep every output on the fine grid even
    # when the requested horizon is not dyadic.
    horizon = paths[0].horizon
    grid = coupled_output_grid(max(levels), [horizon], horizon)
    ref_states, _, ref_var, _ = _march_chunk(
        domain, coeffs, x0, paths, "reference", grid, substeps
    )

    n_lev = len(levels)
    sup_dist = np.empty((B, n_lev))
    final_dist = np.empty((B, n_lev))
    f_final = np.empty((B, n_lev))
    var_final = np.empty((B, n_lev))
    phi_ref_final = domain.phi(ref_states[-1])

    for j, n in enumerate(levels):
        wz_states, _, wz_var, _ = _march_chunk(domain, coeffs, x0, paths, n, grid, substeps)
        dist = np.linalg.norm(wz_states - ref_states, axis=2)
        with np.errstate(invalid="ignore"):
            sup_dist[:, j] = np.max(dist, axis=0)
            final_dist[:, j] = dist[-1]
            weight = np.exp(r * (phi_ref_final + domain.phi(wz_states[-1])))
            f_final[:, j] = weight * dist[-1] ** 2
            var_final[:, j] = wz_var[-1]
    return sup_dist, final_dist, f_final, var_final, ref_var[-1]


# The study a forked pool worker marches; set only inside pool workers.
_WORKER_STUDY = None


def _adopt_study(study):
    global _WORKER_STUDY
    _WORKER_STUDY = study


def _worker_chunk(indices):
    return _chunk_stats(*_WORKER_STUDY, indices)


def run_coupling_stats(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    x0,
    T: float,
    levels: Sequence[int],
    M: int,
    fine_margin: int,
    substeps_per_knot: int,
    seed: int,
    r: float | None = None,
    workers: int = 1,
) -> CouplingStats:
    """Coupled per-path statistics for all levels on common Brownian paths.

    Paths are marched in chunks of ``_CHUNK``; with ``workers > 1`` the
    chunks are spread over forked processes where the platform can fork,
    and the stats are bit-identical to a serial run either way.
    """
    levels = tuple(int(n) for n in levels)
    if not levels or list(levels) != sorted(set(levels)):
        raise ValueError("levels must be nonempty and strictly increasing")
    if M < 2:
        raise ValueError("M must be at least 2")
    if fine_margin < 2:
        raise ValueError("fine_margin must be at least 2")
    if r is None:
        r = default_rate_exponent(domain)
    threshold = -2.0 * domain.c0 / domain.alpha
    if r >= threshold:
        raise ValueError(f"rate exponent r={r} must be strictly below {threshold}")

    study = (
        domain, coeffs, np.asarray(x0, float), T, levels, fine_margin, substeps_per_knot, seed, r
    )
    chunks = [range(i, min(i + _CHUNK, M)) for i in range(0, M, _CHUNK)]
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        # Forked workers inherit the study's objects instead of unpickling
        # them, so any domain, modified or custom, runs as it does serially.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            workers, mp_context=fork, initializer=_adopt_study, initargs=(study,)
        ) as pool:
            results = list(pool.map(_worker_chunk, chunks))
    else:
        results = [_chunk_stats(*study, chunk) for chunk in chunks]

    sup_dist, final_dist, f_final, var_final, ref_var_final = (
        np.concatenate(parts) for parts in zip(*results)
    )
    valid = np.all(np.isfinite(sup_dist), axis=1) & np.all(np.isfinite(final_dist), axis=1)
    n_failed = int(M - np.sum(valid))
    if n_failed > 0.01 * M:
        raise ExperimentFailed(f"{n_failed} of {M} paths failed")
    return CouplingStats(
        levels, r, sup_dist, final_dist, f_final, var_final, ref_var_final, n_failed
    )


def rate_report(stats: CouplingStats, p: float, seed: int) -> RateReport:
    """Per-level coupled p-th moment errors of one study, with fitted decay rates.

    Grid-sup errors are reported as the headline numbers; fixed-time errors
    at the horizon are reported alongside, and only the fixed-time slope is
    held to the theoretical exponent by the acceptance checks.
    """
    valid = stats.valid_mask()
    sup_p = stats.sup_dist[valid] ** p
    fin_p = stats.final_dist[valid] ** p
    errors = np.mean(sup_p, axis=0)
    stderrs = np.asarray([jackknife_se(sup_p[:, j]) for j in range(len(stats.levels))])
    final_errors = np.mean(fin_p, axis=0)
    final_stderrs = np.asarray([jackknife_se(fin_p[:, j]) for j in range(len(stats.levels))])

    degenerate = bool(np.any(errors <= 0.0) or np.any(final_errors <= 0.0))
    slope = intercept = final_slope = final_intercept = None
    if not degenerate:
        try:
            slope, intercept = fit_rate(stats.levels, errors)
            final_slope, final_intercept = fit_rate(stats.levels, final_errors)
        except DegenerateFit:
            degenerate = True
            slope = intercept = final_slope = final_intercept = None
    return RateReport(
        levels=stats.levels,
        errors=tuple(float(e) for e in errors),
        stderrs=tuple(float(s) for s in stderrs),
        final_errors=tuple(float(e) for e in final_errors),
        final_stderrs=tuple(float(s) for s in final_stderrs),
        p=float(p),
        slope=slope,
        intercept=intercept,
        final_slope=final_slope,
        final_intercept=final_intercept,
        n_paths=len(stats.sup_dist),
        n_failed=stats.n_failed,
        seed=seed,
        degenerate=degenerate,
    )


def lyapunov_report(stats: CouplingStats, seed: int) -> LyapunovDecayReport:
    """Per-level means of the weighted squared distance at the horizon of one study."""
    valid = stats.valid_mask()
    f_vals = stats.f_final[valid]
    means = np.mean(f_vals, axis=0)
    stderrs = np.asarray([jackknife_se(f_vals[:, j]) for j in range(len(stats.levels))])
    degenerate = bool(np.any(means <= 0.0))
    slope = intercept = None
    if not degenerate:
        try:
            slope, intercept = fit_rate(stats.levels, means)
        except DegenerateFit:
            degenerate = True
    return LyapunovDecayReport(
        levels=stats.levels,
        means=tuple(float(e) for e in means),
        stderrs=tuple(float(s) for s in stderrs),
        slope=slope,
        intercept=intercept,
        r=stats.r,
        n_paths=len(stats.sup_dist),
        n_failed=stats.n_failed,
        seed=seed,
        degenerate=degenerate,
    )


def estimate_strong_error(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    x0,
    T: float,
    levels: Sequence[int],
    p: float,
    M: int,
    fine_margin: int,
    substeps_per_knot: int,
    seed: int,
    workers: int = 1,
) -> RateReport:
    """Run one coupled study and reduce it with ``rate_report``."""
    stats = run_coupling_stats(
        domain, coeffs, x0, T, levels, M, fine_margin, substeps_per_knot, seed,
        workers=workers,
    )
    return rate_report(stats, p, seed)


def lyapunov_decay_check(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    x0,
    T: float,
    levels: Sequence[int],
    M: int,
    seed: int,
    r: float | None = None,
    fine_margin: int = 4,
    substeps_per_knot: int = 8,
    workers: int = 1,
) -> LyapunovDecayReport:
    """Run one coupled study and reduce it with ``lyapunov_report``."""
    stats = run_coupling_stats(
        domain, coeffs, x0, T, levels, M, fine_margin, substeps_per_knot, seed,
        r=r, workers=workers,
    )
    return lyapunov_report(stats, seed)


def lyapunov_trace(domain: DomainSpec, X: ReflectedPath, Xn: ReflectedPath, r: float) -> LyapunovTrace:
    """Weighted squared distance along a coupled pair sharing output times."""
    if X.times.shape != Xn.times.shape or not np.allclose(X.times, Xn.times, atol=1e-12):
        raise MismatchedTimes("trajectories do not share output times")
    threshold = -2.0 * domain.c0 / domain.alpha
    if r >= threshold:
        raise ValueError(f"rate exponent r={r} must be strictly below {threshold}")
    phi_sum = domain.phi(X.states) + domain.phi(Xn.states)
    g = np.exp(r * phi_sum)
    y3 = np.sum((Xn.states - X.states) ** 2, axis=1)
    phi_min, phi_max = domain.phi_range
    c1 = float(np.exp(2.0 * r * phi_max))
    c2 = float(np.exp(2.0 * r * phi_min))
    return LyapunovTrace(r, np.asarray(X.times), g * y3, g, c1, c2)


# ---------------------------------------------------------------------------
# Time-regularity (Holder) diagnostics
# ---------------------------------------------------------------------------

def holder_report(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    x0,
    T: float,
    n_or_reference,
    p_list: Sequence[float],
    M: int,
    seed: int,
    grid_level: int = 6,
    fine_margin: int = 4,
    substeps_per_knot: int = 8,
    n_lags: int = 5,
) -> HolderReport:
    """Empirical moment growth of increments over dyadic lags.

    For each even moment order the table holds the mean p-th moment of
    state increments per dyadic lag (averaged over anchor times and paths)
    and the fitted log-log slope, which should be at least ``p/2 - 0.2``.
    """
    p_list = [float(p) for p in p_list]
    if any(p not in (2.0, 4.0, 6.0) for p in p_list):
        raise ValueError("p_list entries must be even moments in {2, 4, 6}")
    if n_or_reference == "reference":
        process = "reference"
        fine_level = grid_level + fine_margin
        label = "reference"
    else:
        process = int(n_or_reference)
        fine_level = process + fine_margin
        label = f"wz-{process}"

    # Grid knots must sit on the fine grid of the padded horizon.
    horizon = ceil(T * 2.0**fine_level - 1e-9) / 2.0**fine_level
    n_grid = int(np.floor(horizon * 2.0**grid_level + 1e-9))
    grid = np.arange(n_grid + 1) / 2.0**grid_level
    states = np.empty((M, len(grid), domain.dim))
    for start in range(0, M, _CHUNK):
        paths = _chunk_paths(coeffs, T, fine_level, seed, range(start, min(start + _CHUNK, M)))
        out = _march_chunk(domain, coeffs, x0, paths, process, grid, substeps_per_knot)[0]
        states[start : start + len(paths)] = np.swapaxes(out, 0, 1)

    strides = [2**j for j in range(n_lags) if 2**j < n_grid]
    lags = [s / 2.0**grid_level for s in strides]
    rows = []
    degenerate = True
    for p in p_list:
        moments = []
        for stride in strides:
            diff = states[:, stride:, :] - states[:, :-stride, :]
            moments.append(float(np.mean(np.sum(diff**2, axis=2) ** (p / 2.0))))
        moments = np.asarray(moments)
        if np.all(moments > 1e-300):
            degenerate = False
            lx = np.log(np.asarray(lags))
            ly = np.log(moments)
            slope = float(
                np.sum((lx - lx.mean()) * (ly - ly.mean())) / np.sum((lx - lx.mean()) ** 2)
            )
            rows.append(
                HolderRow(p, tuple(lags), tuple(moments), slope, bool(slope >= p / 2.0 - 0.2))
            )
        else:
            rows.append(HolderRow(p, tuple(lags), tuple(moments), None, True))
    return HolderReport(label, tuple(rows), M, seed, degenerate)
