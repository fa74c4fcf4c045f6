"""Monte Carlo estimation of strong coupling errors and convergence rates.

One Brownian path per Monte Carlo draw drives the fine-level reference once
and the piecewise-linear-noise approximation at every requested level, so
per-level errors are coupled through common increments.  A study is one
checked ``Study`` record; ``run_coupling_stats`` is the one engine call: a
study runs once, and ``rate_report`` and ``lyapunov_report`` reduce its
``CouplingStats``.

Paths are marched in groups of lockstep batches, usually one group per
study.  A group's Brownian paths are sampled once, as one ``(B, K + 1, m)``
array of knot values at the finest approximation level; every level's
march reads its slopes from that array.  The reference march needs the
fine grid, which it reads in time order: ``brownian.FineBlocks`` refines
the fine knots from the group's knots one time block at a time, with each
(path, level) stream resuming where the previous block stopped, so the
fine grid is never held whole.  A helper thread refines the next block
into a second buffer while the march runs through the current one.
Groups are sized by bytes: the study is split into the fewest balanced
groups whose path arrays, as ``sample_path`` allocates them, each stay
within ``_CHUNK_BYTES``, never into fewer groups than workers, and never
into groups of one path.  A block spans as many whole coarse intervals
as fit in the same budget.  With several workers the groups run in forked
processes that inherit the domain and coefficient objects themselves, so
any domain, built-in, modified or custom, runs in parallel.  Per-path
stats are reduced in path-index order, which makes every report
bit-reproducible for a fixed configuration regardless of group and block
layout or worker count.

The decay diagnostic uses the weighted squared distance
``exp(r (phi(X) + phi(X^n))) |X^n - X|^2`` with ``r`` strictly below
``-2 c0 / alpha``; on a bounded domain this is sandwiched between constant
multiples of the squared distance, so its decay certifies the strong rate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from math import ceil
from typing import Sequence

import numpy as np

from .brownian import FineBlocks, check_whole, dyadic_grid, path_seeds, sample_path, wz_knot_slopes
from .coefficients import CoefficientSet
from .errors import DegenerateFit, ExperimentFailed
from .geometry import DomainSpec, sum_squares
from .solvers import (
    ReflectedPath,
    _check_start,
    check_shared_times,
    coupled_output_grid,
    fine_grid_positions,
    integrate_reference_batch,
    integrate_wz_batch,
    wz_schedule,
)

# Budget for each of a group's three Brownian arrays: its path array at the
# finest approximation level, as ``sample_path`` allocates it, and the
# reference's two buffers of fine knots (the block the march reads and the
# one refined ahead).  Wider groups spend less Python time per path, larger
# blocks less per resumed (path, level) stream.  The march outputs come on
# top; README "Memory" has the measured peaks.
_CHUNK_BYTES = 16 * 2**20


def path_seed(seed: int, index: int) -> int:
    """Per-path seed derived from the experiment seed and the path index (``path_seeds``)."""
    return path_seeds(seed, index, 1)[0]


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

def _json_fields(report) -> dict:
    """A report's fields by name, with tuples as lists and nested reports
    (``HolderRow``) as dicts."""

    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return _json_fields(value) if is_dataclass(value) else value

    return {f.name: plain(getattr(report, f.name)) for f in fields(report)}


def _level_csv(column: str, levels, values, stderrs) -> str:
    """One ``n,<column>,stderr`` row per level."""
    lines = [f"n,{column},stderr"]
    for n, v, s in zip(levels, values, stderrs):
        lines.append(f"{n},{v:.17g},{s:.17g}")
    return "\n".join(lines) + "\n"


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
        return _json_fields(self)

    def to_csv_string(self) -> str:
        return _level_csv("error", self.levels, self.errors, self.stderrs)


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
        return _json_fields(self)

    def to_csv_string(self) -> str:
        return _level_csv("mean", self.levels, self.means, self.stderrs)


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
        return _json_fields(self)

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
    b = _lsq_slope(levels, y)
    intercept = float(np.mean(y) + b * (levels[0] - np.mean(levels)))
    return -b, intercept


def _lsq_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of ``y`` on ``x``."""
    xbar = np.mean(x)
    return float(np.sum((x - xbar) * (y - np.mean(y))) / np.sum((x - xbar) ** 2))


def _fit(levels, values):
    """``fit_rate(levels, values)``, or ``(None, None)`` when it is degenerate."""
    try:
        return fit_rate(levels, values)
    except DegenerateFit:
        return None, None


def _level_moments(samples: np.ndarray) -> tuple[tuple, tuple]:
    """Per-level (column) means of ``samples`` and their jackknife standard
    errors, as tuples of floats."""
    means = np.mean(samples, axis=0)
    stderrs = [jackknife_se(samples[:, j]) for j in range(samples.shape[1])]
    return tuple(float(v) for v in means), tuple(float(v) for v in stderrs)


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

    def valid_mask(self) -> np.ndarray:
        return np.all(np.isfinite(self.sup_dist), axis=1) & np.all(
            np.isfinite(self.final_dist), axis=1
        )

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(~self.valid_mask()))


def _check_rate_exponent(domain: DomainSpec, r: float):
    threshold = -2.0 * domain.c0 / domain.alpha
    if not -np.inf < r < threshold:
        raise ValueError(f"r must be finite and strictly below -2 c0 / alpha = {threshold}, "
                         f"got {r}")


def check_moments(p_list: Sequence[float]) -> list[float]:
    """``p_list`` as floats, once each is an even moment order 2, 4 or 6 (a
    whole number, never a boolean); otherwise a ``ValueError`` whose message
    starts with ``p_list``.  ``holder_report`` and the CLI check through this."""
    moments = [check_whole("p_list", p, 2) for p in p_list]
    if any(p not in (2, 4, 6) for p in moments):
        raise ValueError(f"p_list entries must be even moments in {{2, 4, 6}}, got {list(p_list)}")
    return [float(p) for p in moments]


@dataclass(frozen=True, eq=False)
class Study:
    """One coupled study, checked: constructing it applies every rule of a
    valid study.  A violation raises a ``ValueError`` whose message starts
    with the field's name, or ``OutOfDomain`` for a start outside the
    closure.  ``x0`` is kept as a float array, the counts, ``levels`` (a
    tuple) and ``seed`` as ints, and ``r=None`` as
    ``default_rate_exponent(domain)``.  A seed is a whole number of any sign
    and never a boolean; it is masked to 63 bits where streams are keyed.
    The engine, ``holder_report`` and the CLI take this record.
    ``dataclasses.replace`` keeps the stored ``r``: give ``r=None`` with a
    new domain to get that domain's default."""

    domain: DomainSpec
    coeffs: CoefficientSet
    x0: np.ndarray
    T: float
    levels: tuple
    M: int
    fine_margin: int
    substeps_per_knot: int
    seed: int
    r: float | None = None
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        levels = tuple(check_whole("levels", n, 1) for n in self.levels)
        if not levels or list(levels) != sorted(set(levels)):
            raise ValueError(f"levels must be nonempty and strictly increasing, got {levels}")
        checked = {"levels": levels}
        for name, least in (
            ("M", 2), ("fine_margin", 2), ("substeps_per_knot", 1), ("workers", 1), ("seed", None),
        ):
            checked[name] = check_whole(name, getattr(self, name), least)
        checked["r"] = default_rate_exponent(self.domain) if self.r is None else self.r
        _check_rate_exponent(self.domain, checked["r"])
        checked["x0"] = _check_start(self.domain, self.coeffs, self.x0)
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def _chunk_ranges(M: int, T: float, level: int, dim_noise: int, workers: int = 1):
    """Path-index ranges of the groups of an ``M``-path study, in order.

    The fewest groups whose path arrays at ``level``, as ``sample_path``
    allocates them over ``T`` (``dyadic_grid`` knots per path), each fit in
    ``_CHUNK_BYTES``, at least ``workers`` of them, with widths that differ
    by at most one path, and no more groups than paths.  Balanced widths
    leave no small trailing group.
    """
    path_bytes = dyadic_grid(T, level)[1] * dim_noise * 8
    width = max(_CHUNK_BYTES // path_bytes, 1)
    n_chunks = min(max(ceil(M / width), workers), M)
    bounds = [M * i // n_chunks for i in range(n_chunks + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _fine_grid(T: float, fine_level: int) -> tuple[int, float]:
    """Knot intervals and padded horizon of the fine grid covering ``T``."""
    n_fine = dyadic_grid(T, fine_level)[0]
    return n_fine, n_fine / 2.0**fine_level


def _chunk_paths(study: Study, horizon, level, indices):
    """The group's Brownian paths at ``level`` over ``horizon``, sampled as
    one batch."""
    seeds = path_seeds(study.seed, indices.start, len(indices))
    return sample_path(study.coeffs.dim_noise, horizon, level, seeds)


def _march_chunk(study: Study, paths, process, grid):
    """States at ``grid`` and the variation at ``grid[-1]`` over one group of paths.

    ``process="reference"`` marches the reference over ``paths``, a
    ``FineBlocks``; a level ``process`` marches that level's approximation
    over ``paths``, a batch at that level or finer, up to ``grid[-1]``.
    Returns as ``solvers.integrate_wz_batch``, without a step log.
    """
    domain, coeffs = study.domain, study.coeffs
    if process == "reference":
        x0_batch = np.broadcast_to(study.x0, (len(paths.coarse.values), domain.dim))
        out_steps = fine_grid_positions(paths, grid)
        return integrate_reference_batch(
            domain, coeffs, x0_batch, paths.blocks(), paths.fine_level, out_steps
        )
    x0_batch = np.broadcast_to(study.x0, (len(paths.values), domain.dim))
    slopes = wz_knot_slopes(paths, process)
    times, knot_idx, out_pos = wz_schedule(process, study.substeps_per_knot, grid, grid[-1])
    return integrate_wz_batch(domain, coeffs, x0_batch, slopes, times, knot_idx, out_pos)


def _chunk_stats(study: Study, indices):
    """Coupled stats for one group of path indices (arrays ordered by index).

    The group's paths are sampled once at the finest approximation level;
    the reference refines them block by block to the fine level, and every
    level marches from them.
    """
    domain, levels = study.domain, study.levels
    level = max(levels)
    fine_level = level + study.fine_margin
    # Stats at the fine grid's padded horizon keep every output on that
    # grid even when the requested horizon is not dyadic.
    n_fine, horizon = _fine_grid(study.T, fine_level)
    paths = _chunk_paths(study, horizon, level, indices)
    B = len(indices)
    grid = coupled_output_grid(level, [horizon], horizon)
    fine = FineBlocks(paths, fine_level, n_fine, _CHUNK_BYTES)
    ref_states, ref_var, _ = _march_chunk(study, fine, "reference", grid)

    n_lev = len(levels)
    sup_dist = np.empty((B, n_lev))
    final_dist = np.empty((B, n_lev))
    f_final = np.empty((B, n_lev))
    var_final = np.empty((B, n_lev))
    phi_ref_final = domain.phi(ref_states[-1])

    for j, n in enumerate(levels):
        wz_states, wz_var, _ = _march_chunk(study, paths, n, grid)
        with np.errstate(invalid="ignore"):
            weight = np.exp(study.r * (phi_ref_final + domain.phi(wz_states[-1])))
            # np.linalg.norm(wz_states - ref_states, axis=2), bit for bit:
            # the difference is formed in the march's output, and its
            # squares are summed over the state axis at batch width.
            diff = np.subtract(wz_states, ref_states, out=wz_states)
            dist = sum_squares(diff)
            np.sqrt(dist, out=dist)
            sup_dist[:, j] = np.max(dist, axis=0)
            final_dist[:, j] = dist[-1]
            f_final[:, j] = weight * dist[-1] ** 2
            var_final[:, j] = wz_var
        # Free this level's arrays before the next level's march allocates.
        del wz_states, wz_var, diff, dist
    return sup_dist, final_dist, f_final, var_final, ref_var


# The group march a forked pool worker runs; set only inside pool workers.
_WORKER_MARCH = None


def _adopt_march(march):
    global _WORKER_MARCH
    _WORKER_MARCH = march


def _worker_group(indices):
    return _WORKER_MARCH(indices)


def _run_groups(march, chunks, workers: int) -> list:
    """``march(chunk)`` per group, in order; over forked ``workers`` if any."""
    if len(chunks) > 1 and workers > 1:
        import multiprocessing  # here, so that a serial study does not load it
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods():
            # Forked workers inherit the march and the study objects it
            # holds instead of unpickling them, so any domain, modified or
            # custom, runs as it does serially.
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                workers, mp_context=fork, initializer=_adopt_march, initargs=(march,)
            ) as pool:
                return list(pool.map(_worker_group, chunks))
    return [march(chunk) for chunk in chunks]


def run_coupling_stats(study: Study) -> CouplingStats:
    """Coupled per-path statistics for all levels on common Brownian paths.

    Paths are marched in balanced groups sized by ``_CHUNK_BYTES``, the
    memory budget of a group's Brownian path array at level ``max(levels)``
    (``8 N m`` bytes per path, ``N`` from ``brownian.dyadic_grid``) and of
    each of the two buffers of fine knots the reference refines into; with
    ``workers > 1`` there are at least ``workers`` groups of two or more
    paths, spread over forked processes where the platform can fork.  Each
    process runs up to two threads during a reference march: the march and
    the helper refining its next block.  The stats are bit-identical
    whatever the group and block layout or worker count.
    """
    level = max(study.levels)
    horizon = _fine_grid(study.T, level + study.fine_margin)[1]
    chunks = _chunk_ranges(study.M, horizon, level, study.coeffs.dim_noise, study.workers)
    # Read at call time, so that a wrapper set on the module is what runs.
    results = _run_groups(partial(_chunk_stats, study), chunks, study.workers)
    stats = CouplingStats(study.levels, study.r, *(np.concatenate(p) for p in zip(*results)))
    if stats.n_failed > 0.01 * study.M:
        raise ExperimentFailed(f"{stats.n_failed} of {study.M} paths failed")
    return stats


def rate_report(stats: CouplingStats, p: float, seed: int) -> RateReport:
    """Per-level coupled p-th moment errors of one study, with fitted decay rates.

    Grid-sup errors are reported as the headline numbers; fixed-time errors
    at the horizon are reported alongside, and only the fixed-time slope is
    held to the theoretical exponent by the acceptance checks.
    """
    valid = stats.valid_mask()
    errors, stderrs = _level_moments(stats.sup_dist[valid] ** p)
    final_errors, final_stderrs = _level_moments(stats.final_dist[valid] ** p)
    fits = [_fit(stats.levels, errors), _fit(stats.levels, final_errors)]
    if (None, None) in fits:
        fits = [(None, None)] * 2
    (slope, intercept), (final_slope, final_intercept) = fits
    return RateReport(
        levels=stats.levels,
        errors=errors,
        stderrs=stderrs,
        final_errors=final_errors,
        final_stderrs=final_stderrs,
        p=float(p),
        slope=slope,
        intercept=intercept,
        final_slope=final_slope,
        final_intercept=final_intercept,
        n_paths=len(stats.sup_dist),
        n_failed=stats.n_failed,
        seed=seed,
        degenerate=slope is None,
    )


def lyapunov_report(stats: CouplingStats, seed: int) -> LyapunovDecayReport:
    """Per-level means of the weighted squared distance at the horizon of one study."""
    means, stderrs = _level_moments(stats.f_final[stats.valid_mask()])
    slope, intercept = _fit(stats.levels, means)
    return LyapunovDecayReport(
        levels=stats.levels,
        means=means,
        stderrs=stderrs,
        slope=slope,
        intercept=intercept,
        r=stats.r,
        n_paths=len(stats.sup_dist),
        n_failed=stats.n_failed,
        seed=seed,
        degenerate=slope is None,
    )


def estimate_strong_error(study: Study, p: float) -> RateReport:
    """Run one coupled study and reduce it with ``rate_report``."""
    return rate_report(run_coupling_stats(study), p, study.seed)


def lyapunov_decay_check(study: Study) -> LyapunovDecayReport:
    """Run one coupled study and reduce it with ``lyapunov_report``."""
    return lyapunov_report(run_coupling_stats(study), study.seed)


def lyapunov_trace(domain: DomainSpec, X: ReflectedPath, Xn: ReflectedPath, r: float) -> LyapunovTrace:
    """Weighted squared distance along a coupled pair sharing output times."""
    check_shared_times(X, Xn, "trajectories")
    _check_rate_exponent(domain, r)
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
    study: Study, p_list: Sequence[float], grid_level: int = 6, reference: bool = False
) -> HolderReport:
    """Empirical moment growth of increments over dyadic lags.

    Marches the study's one level, or with ``reference`` the reference at
    fine level ``grid_level + fine_margin``.  For each even moment order
    the table holds the mean p-th moment of state increments per dyadic
    lag (up to five lags, averaged over anchor times and paths) and the
    fitted log-log slope, which should be at least ``p/2 - 0.2``; it is
    ``None`` with fewer than two lags or a zero moment.  Paths run in
    groups over ``workers`` as in ``run_coupling_stats``.
    """
    p_list = check_moments(p_list)
    grid_level = check_whole("grid_level", grid_level, 1)
    if len(study.levels) != 1:
        raise ValueError(f"levels must hold one level for a Holder table, got {study.levels}")
    level = grid_level if reference else study.levels[0]
    process, label = ("reference", "reference") if reference else (level, f"wz-{level}")
    fine_level = level + study.fine_margin

    # Grid knots must sit on the fine grid of the padded horizon.
    n_fine, horizon = _fine_grid(study.T, fine_level)
    n_grid = int(np.floor(horizon * 2.0**grid_level + 1e-9))
    grid = np.arange(n_grid + 1) / 2.0**grid_level

    def group_states(chunk):
        paths = _chunk_paths(study, horizon, level, chunk)
        if reference:
            paths = FineBlocks(paths, fine_level, n_fine, _CHUNK_BYTES)
        out = _march_chunk(study, paths, process, grid)[0]
        return np.ascontiguousarray(np.swapaxes(out, 0, 1))

    chunks = _chunk_ranges(study.M, horizon, level, study.coeffs.dim_noise, study.workers)
    states = np.concatenate(_run_groups(group_states, chunks, study.workers))

    strides = [2**j for j in range(5) if 2**j < n_grid]
    lags = [s / 2.0**grid_level for s in strides]
    # Squared increment norms per lag, shared by every moment order.
    squares = [np.sum((states[:, s:] - states[:, :-s]) ** 2, axis=2) for s in strides]
    rows = []
    for p in p_list:
        moments = np.asarray([float(np.mean(sq ** (p / 2.0))) for sq in squares])
        slope = None
        if len(strides) >= 2 and np.all(moments > 1e-300):
            slope = _lsq_slope(np.log(np.asarray(lags)), np.log(moments))
        passed = slope is None or bool(slope >= p / 2.0 - 0.2)
        rows.append(HolderRow(p, tuple(lags), tuple(moments), slope, passed))
    degenerate = all(row.slope is None for row in rows)
    return HolderReport(label, tuple(rows), study.M, study.seed, degenerate)
