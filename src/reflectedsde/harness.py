"""Monte Carlo estimation of strong coupling errors and convergence rates.

One Brownian path per Monte Carlo draw drives the fine-level reference once
and the piecewise-linear-noise approximation at every requested level, so
per-level errors are coupled through common increments.  A study is one
checked ``Study`` record; ``run_coupling_stats`` is the one engine call: a
study runs once, and ``rate_report`` and ``lyapunov_report`` reduce its
``CouplingStats``.

Paths are marched in lockstep batches, the tiles below.  A tile's
Brownian paths are sampled once, as one ``(B, K + 1, m)`` array of knot
values at the finest approximation level; every level's march reads its
slopes from that array.  The reference march needs the fine grid, which
it reads in time order: ``brownian.FineBlocks`` refines the fine knots
from the tile's knots one time block at a time, with each (path, level)
stream resuming where the previous block stopped, so the fine grid is
never held whole: each block is refined into one buffer when the march
asks for it.

A study runs in one process.  Its result arrays are allocated once, and
its paths are cut into tiles by one rule, ``_layout``, which also sets the
threads and the bytes of each tile's block buffer.  Each thread marches a
contiguous run of tiles, the first run on the caller's thread, and each
tile samples, refines, marches and reduces its own paths and writes its
rows of the study's arrays; a block spans as many whole coarse intervals
as fit in its buffer's budget.  A Holder table is cut and marched the same
way.  The output grid, each level's schedule and the reference's output
positions depend only on the study, and are built once per engine or
Holder call.  Per-path stats are reduced in path-index order, which makes
every report bit-reproducible for a fixed configuration regardless of
tile, thread and block layout or CPU count.

The decay diagnostic uses the weighted squared distance
``exp(r (phi(X) + phi(X^n))) |X^n - X|^2`` with ``r`` strictly below
``-2 c0 / alpha``; on a bounded domain this is sandwiched between constant
multiples of the squared distance, so its decay certifies the strong rate.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from math import ceil
from typing import Sequence

import numpy as np

from . import cover
from .brownian import (
    FineBlocks,
    check_whole,
    dyadic_grid,
    path_seeds,
    sample_path,
    wz_knot_slopes,
)
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

# The memory budget of a process's tiles in flight, one per thread;
# ``_layout`` states how it is shared out.  The measured peaks are in
# ``BENCH_32.json``, and those of 64-path tiles, which have no BENCH file,
# in the CHANGES.md entry that introduced them.
_CHUNK_BYTES = 16 * 2**20
# Paths per native tile while their path arrays fit a thread's share, and
# fewest per thread (``_layout``); ``_march.c``'s ``TILE_ROWS``.
_TILE_ROWS = 64


def path_seed(seed: int, index: int) -> int:
    """Per-path seed derived from the experiment seed and the path index (``path_seeds``)."""
    return path_seeds(seed, index, 1).item(0)


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

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        levels = tuple(check_whole("levels", n, 1) for n in self.levels)
        if not levels or list(levels) != sorted(set(levels)):
            raise ValueError(f"levels must be nonempty and strictly increasing, got {levels}")
        checked = {"levels": levels}
        for name, least in (
            ("M", 2), ("fine_margin", 2), ("substeps_per_knot", 1), ("seed", None),
        ):
            checked[name] = check_whole(name, getattr(self, name), least)
        checked["r"] = default_rate_exponent(self.domain) if self.r is None else self.r
        _check_rate_exponent(self.domain, checked["r"])
        checked["x0"] = _check_start(self.domain, self.coeffs, self.x0)
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def _balanced(indices: range, n: int) -> list[range]:
    """``indices`` cut into ``n`` runs of consecutive indices, in order,
    with widths that differ by at most one."""
    bounds = [indices.start + len(indices) * i // n for i in range(n + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True, eq=False)
class _Plan:
    """What every tile of one engine or Holder call marches on besides its
    paths, which depends only on the study, so it is built once per call.

    Paths are sampled at ``level`` over ``horizon``, the padded horizon of
    the fine grid (``n_fine`` intervals at ``fine_level``).  ``grid`` holds
    the output times, and ``schedules`` maps each process to what its march
    takes: ``"reference"`` to the outputs' fine-knot indices, a level to
    its ``wz_schedule`` up to ``grid[-1]``.
    """

    level: int
    fine_level: int
    n_fine: int
    horizon: float
    grid: np.ndarray
    schedules: dict


def _plan(study: Study, level: int, processes, grid_level: int | None = None) -> _Plan:
    """The ``_Plan`` of ``processes`` on paths sampled at ``level``: its
    outputs are the level-``level`` knots and the horizon, or with
    ``grid_level`` that level's knots within the horizon."""
    fine_level = level + study.fine_margin
    # The fine grid's knot intervals covering T, and its padded horizon.
    n_fine = dyadic_grid(study.T, fine_level)[0]
    horizon = n_fine / 2.0**fine_level
    if grid_level is None:
        # Stats at the fine grid's padded horizon keep every output on that
        # grid even when the requested horizon is not dyadic.
        grid = coupled_output_grid(level, [horizon], horizon)
    else:
        # Grid knots must sit on the fine grid of the padded horizon.
        grid = coupled_output_grid(grid_level, [], horizon)
    schedules = {
        process: fine_grid_positions(fine_level, n_fine, grid) if process == "reference"
        else wz_schedule(process, study.substeps_per_knot, grid, grid[-1])
        for process in processes
    }
    return _Plan(level, fine_level, n_fine, horizon, grid, schedules)


def _tile_paths(study: Study, plan: _Plan, indices):
    """The Brownian paths of ``indices`` at ``plan.level`` over
    ``plan.horizon``, sampled as one batch."""
    seeds = path_seeds(study.seed, indices.start, len(indices))
    return sample_path(study.coeffs.dim_noise, plan.horizon, plan.level, seeds)


def _cpus() -> int:
    """CPUs this process may run on, read at each call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _tile_bytes(study: Study, plan: _Plan) -> int:
    """Bytes per path of a tile's arrays but its block buffer: the path
    array as ``sample_path`` allocates it, the top level's slopes, the
    reference's and one level's march arrays (state, variation and
    outputs) and that level's distances at the outputs."""
    m, d, n_out = study.coeffs.dim_noise, study.domain.dim, len(plan.grid)
    n_knots, n_held = dyadic_grid(plan.horizon, plan.level)
    return 8 * ((n_held + n_knots) * m + 2 * ((n_out + 1) * d + 1) + n_out)


def _layout(study: Study, plan: _Plan) -> tuple[int, list[range], int]:
    """The threads that march a study's paths, its tiles in path order, and
    the bytes of each tile's block buffer: the one tile rule.

    Native: ``n`` threads, one per CPU, but no more than runs of
    ``_TILE_ROWS`` paths, each with a share of ``_CHUNK_BYTES // n``.  The
    study's ``M`` paths are cut into ``n ceil(M / (n w))`` balanced tiles,
    or into ``M`` tiles of one path if that is fewer, ``w`` being
    ``_TILE_ROWS`` while that many paths' path arrays, as ``sample_path``
    allocates them, fit the share, else as many as fit, or one path.  The
    block buffer gets ``w`` paths' other arrays (``_tile_bytes``), but no
    more than half the share.  Numpy, whose march holds the GIL and costs
    per numpy call, not per path: one thread, and the fewest balanced
    tiles whose path arrays fit in ``_CHUNK_BYTES``, or of one path; the
    block buffer gets all of it.
    Asking ``cover.native_march`` loads the library on the calling thread.
    """
    M = study.M
    path_bytes = dyadic_grid(plan.horizon, plan.level)[1] * study.coeffs.dim_noise * 8
    if cover.native_march(study.domain, study.coeffs) is None:
        width = max(_CHUNK_BYTES // path_bytes, 1)
        return 1, _balanced(range(M), ceil(M / width)), _CHUNK_BYTES
    n = max(1, min(_cpus(), M // _TILE_ROWS))
    share = _CHUNK_BYTES // n
    width = min(_TILE_ROWS, max(share // path_bytes, 1))
    block_bytes = min(share // 2, width * _tile_bytes(study, plan))
    return n, _balanced(range(M), min(M, n * ceil(M / (n * width)))), block_bytes


def _in_tiles(study: Study, plan: _Plan, march, out: tuple) -> tuple:
    """``march(tile, rows, block_bytes)`` over the tiles of the study's
    paths (``_layout``), where ``rows`` are the views of the tile's rows of
    ``out``, a tuple of path-major arrays, one row per path, that the march
    writes; returns ``out``.

    Each thread marches a contiguous run of tiles, one after another: the
    first run on the caller's thread, each other one on its own under the
    caller's numpy error handling, since a thread starts with numpy's
    default.  Per-path numbers do not depend on the batch width, and the
    native march and refinement release the GIL, so the threads run side
    by side with the bits of one march.  All are joined before this
    returns or raises; the lowest-index failed run's error is raised.
    """
    # _layout loads the library on this thread before any other starts:
    # functools.cache has no lock, so two threads loading it at once could
    # both build it.
    n, tiles, block_bytes = _layout(study, plan)
    runs, errors = _balanced(range(len(tiles)), n), np.geterr()
    failures, threads = [None] * n, []

    def run(i):
        try:
            with np.errstate(**errors):
                for tile in (tiles[t] for t in runs[i]):
                    rows = tuple(array[tile.start:tile.stop] for array in out)
                    march(tile, rows, block_bytes)
        except BaseException as error:  # re-raised on the caller's thread below
            failures[i] = error

    try:
        for i in range(1, n):
            threads.append(threading.Thread(target=run, args=(i,)))
            threads[-1].start()
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for failure in failures:
        if failure is not None:
            raise failure
    return out


def _march_tile(study: Study, paths, process, plan: _Plan):
    """States at ``plan.grid`` and the variation at its last time over one
    tile of paths.

    ``process="reference"`` marches the reference over ``paths``, a
    ``FineBlocks``; a level ``process`` marches that level's approximation
    over ``paths``, a batch at that level or finer.  Each takes its
    schedule from ``plan``.  Returns as ``solvers.integrate_wz_batch``,
    without a step log.
    """
    domain, coeffs, schedule = study.domain, study.coeffs, plan.schedules[process]
    if process == "reference":
        x0_batch = np.broadcast_to(study.x0, (len(paths.coarse.values), domain.dim))
        return integrate_reference_batch(
            domain, coeffs, x0_batch, paths.blocks(), paths.fine_level, schedule
        )
    x0_batch = np.broadcast_to(study.x0, (len(paths.values), domain.dim))
    slopes = wz_knot_slopes(paths, process)
    return integrate_wz_batch(domain, coeffs, x0_batch, slopes, *schedule)


def _chunk_stats(study: Study, plan: _Plan):
    """Coupled stats of the study's paths (arrays ordered by path index),
    allocated once and written tile by tile (``_in_tiles``)."""
    per_level = [np.empty((study.M, len(study.levels))) for _ in range(4)]
    out = (*per_level, np.empty(study.M))
    return _in_tiles(study, plan, partial(_tile_stats, study, plan), out)


def _tile_stats(study: Study, plan: _Plan, indices, rows, block_bytes):
    """Write the coupled stats of one tile of path indices into ``rows``,
    its rows of the study's arrays.

    The tile's paths are sampled once at the finest approximation level;
    the reference refines them block by block to the fine level, within
    ``block_bytes`` for its one buffer, and every level marches from them.
    """
    domain = study.domain
    sup_dist, final_dist, f_final, var_final, ref_var_final = rows
    paths = _tile_paths(study, plan, indices)
    fine = FineBlocks(paths, plan.fine_level, plan.n_fine, block_bytes)
    ref_states, ref_var_final[:], _ = _march_tile(study, fine, "reference", plan)
    phi_ref_final = domain.phi(ref_states[-1])

    for j, n in enumerate(study.levels):
        wz_states, var_final[:, j], _ = _march_tile(study, paths, n, plan)
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
        # Free this level's arrays before the next level's march allocates.
        del wz_states, diff, dist


def run_coupling_stats(study: Study) -> CouplingStats:
    """Coupled per-path statistics for all levels on common Brownian paths.

    The study's arrays are allocated once, and its threads march its tiles,
    each writing its rows (``_layout``, ``_in_tiles``).  The output grid and
    every march's schedule are built once, here.  The stats are
    bit-identical whatever the tile, thread and block layout or CPU count.
    """
    plan = _plan(study, max(study.levels), ("reference", *study.levels))
    # Read at call time, so that a wrapper set on the module is what runs.
    stats = CouplingStats(study.levels, study.r, *_chunk_stats(study, plan))
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

def _lag_moments(states: np.ndarray, strides, p_list) -> np.ndarray:
    """Mean ``p``-th moments of the increment norms of ``states``, an ``(M,
    n_grid + 1, d)`` array, over each stride of grid steps, averaged over
    anchor times and paths: one row per moment order, one column per
    stride.

    One stride is reduced at a time, every moment order from its squared
    norms, so no more than two ``(M, n_grid)`` arrays are held at once.
    The squared norms are ``geometry.sum_squares`` of the increments, bit
    for bit, formed one coordinate at a time; from eight coordinates numpy
    adds in pairs, so there the increments are formed whole.
    """
    moments = np.empty((len(p_list), len(strides)))
    for k, s in enumerate(strides):
        if states.shape[2] >= 8:
            squares = sum_squares(states[:, s:] - states[:, :-s])
        else:
            squares = None
            for i in range(states.shape[2]):
                step = np.subtract(states[:, s:, i], states[:, :-s, i])
                step *= step
                squares = step if squares is None else np.add(squares, step, out=squares)
                del step
        for j, p in enumerate(p_list):
            moments[j, k] = np.mean(squares ** (p / 2.0))
        del squares
    return moments


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
    tiles on threads, by the rule of ``run_coupling_stats``; the table's
    states at the grid, every path's, come on top of the budget.
    """
    p_list = check_moments(p_list)
    grid_level = check_whole("grid_level", grid_level, 1)
    if len(study.levels) != 1:
        raise ValueError(f"levels must hold one level for a Holder table, got {study.levels}")
    level = grid_level if reference else study.levels[0]
    process, label = ("reference", "reference") if reference else (level, f"wz-{level}")
    plan = _plan(study, level, (process,), grid_level)

    def tile_states(indices, rows, block_bytes):
        paths = _tile_paths(study, plan, indices)
        if reference:
            paths = FineBlocks(paths, plan.fine_level, plan.n_fine, block_bytes)
        rows[0][:] = np.swapaxes(_march_tile(study, paths, process, plan)[0], 0, 1)

    out = (np.empty((study.M, len(plan.grid), study.domain.dim)),)
    states = _in_tiles(study, plan, tile_states, out)[0]

    n_grid = len(plan.grid) - 1
    strides = [2**j for j in range(5) if 2**j < n_grid]
    lags = [s / 2.0**grid_level for s in strides]
    rows = []
    for p, moments in zip(p_list, _lag_moments(states, strides, p_list)):
        slope = None
        if len(strides) >= 2 and np.all(moments > 1e-300):
            slope = _lsq_slope(np.log(np.asarray(lags)), np.log(moments))
        passed = slope is None or bool(slope >= p / 2.0 - 0.2)
        rows.append(HolderRow(p, tuple(lags), tuple(moments), slope, passed))
    degenerate = all(row.slope is None for row in rows)
    return HolderReport(label, tuple(rows), study.M, study.seed, degenerate)
