"""Coupled constrained integrators: piecewise-linear-noise ODE and Ito reference.

Two solvers driven by one Brownian path.  The first integrates the random
ODE whose driver is the lagged piecewise-linear interpolant: the driver
slope is constant on each knot interval, so explicit Euler substeps with a
per-substep constraint resolution realize it.  Its integration error comes
from state dependence of the diffusion, and substepping does not remove
it: over a knot interval the ODE's exact flow carries the term
``1/2 sigma' sigma dW^2``, of which k Euler substeps keep only ``(1 - 1/k)``.
That deficit does not shrink with the level, so for a fixed k the march
converges to an SDE whose Stratonovich correction is scaled by ``1 - 1/k``
(2.0e-2 RMS at k = 8 against the closed form of ``linear([[[0.5]]])``,
at every level from 5 to 11).  A study that goes past level 9 should set
``substeps_per_knot`` to at least 64.  The second is the projected
Euler-Maruyama scheme at the path's fine level with the Ito-corrected
drift, the strong-order-half reference.

Both are one scheme, an unconstrained step followed by the discrete
Skorokhod map; they differ only in the displacement rule and the step
grid.  Each has one driver, which checks the inputs, lays out what the
march fills as views of one buffer, walks the reference's blocks and
assembles the result; the backend only runs a span of steps.  That is the
native march (``_march.c``) when the library loads and
``cover.native_march`` covers the study: a built-in family on a
one-dimensional box at d = m = 1, or on a box, ball or annulus at d = m =
2, at any batch width.  Otherwise it is the numpy ``_march``, on the same
contract and with the same bits.  ``coupled_solve`` checks its inputs once
and then runs both drivers.

The march operates on a batch of paths in lockstep and does the same work
for every caller: it keeps the states at the outputs and the variation
after the last step.  The public per-path operations call it with batch
size one and a step log, whose running sums give the regulator and
variation at each output; the Monte Carlo harness calls it with groups of
paths.  Every array operation of a step is elementwise across the batch:
each contraction of the coefficients is a column sum in ascending index
order (``coefficients``), on both backends.  So a path marched alone gives
the same bits as its row in a batch of any width, at every dimension,
NaNs and infinities included.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import accumulate
from math import ceil, prod
from typing import Sequence

import numpy as np

from . import cover
from .brownian import BrownianPath, _ptr, check_level, check_whole, wz_knot_slopes
from .coefficients import CoefficientSet, ito_drift_batch, noise_term
from .errors import MismatchedTimes, NonFiniteState, OutOfDomain
from .geometry import DomainSpec, _resolver, check_feasible, check_point, sum_squares


@dataclass(frozen=True)
class SubstepLog:
    """Per-substep diagnostics for regulator checks (single-path runs only)."""

    times: np.ndarray
    states: np.ndarray
    reg_increments: np.ndarray
    var_increments: np.ndarray
    boundary_distances: np.ndarray


@dataclass(frozen=True)
class ReflectedPath:
    """Constrained trajectory with cumulative regulator and its variation."""

    times: np.ndarray
    states: np.ndarray
    regulator: np.ndarray
    variation: np.ndarray
    level_meta: int
    substeps: SubstepLog | None = None

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def to_csv(self, fileobj) -> None:
        d = self.dim
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(
            ["t"] + [f"X_{i+1}" for i in range(d)] + [f"L_{i+1}" for i in range(d)] + ["|L|"]
        )
        for i, t in enumerate(self.times):
            row = [t] + list(self.states[i]) + list(self.regulator[i]) + [self.variation[i]]
            writer.writerow([format(v, ".17g") for v in row])

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "states": self.states.tolist(),
            "regulator": self.regulator.tolist(),
            "variation": self.variation.tolist(),
            "level": self.level_meta,
        }


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

# Times closer than this to the time before them are one time.
_COLLAPSE_TOL = 1e-13


def _union_times(parts: list[np.ndarray]) -> np.ndarray:
    """The sorted times of ``parts`` but those within ``_COLLAPSE_TOL`` of the
    time before them: repeats, and near-repeats of non-dyadic substeps."""
    merged = np.sort(np.concatenate(parts))
    with np.errstate(invalid="ignore"):  # a repeated infinity
        return merged[np.concatenate(([True], merged[1:] - merged[:-1] > _COLLAPSE_TOL))]


def wz_schedule(n: int, substeps_per_knot: int, output_times: np.ndarray, horizon: float):
    """Step times, per-step knot index, and output positions for the ODE solver.

    The step grid is the union of the regular substep grid and the requested
    output times, so outputs are hit exactly; knot boundaries are always step
    boundaries, keeping the driver slope constant within each step.  Times
    within ``_COLLAPSE_TOL`` of each other are one step time, the smallest:
    an output or a knot start just after it is that step time.
    """
    n_knots = ceil(horizon * 2.0**n - 1e-9)
    knot_starts = np.arange(n_knots) / 2.0**n
    sub = (np.arange(substeps_per_knot) / substeps_per_knot) / 2.0**n
    base = (knot_starts[:, None] + sub[None, :]).ravel()
    output_times = np.asarray(output_times, float)
    times = _union_times([base, output_times, np.asarray([0.0, horizon])])
    times = times[(times >= 0.0) & (times <= horizon + 1e-12)]
    knot_idx = np.searchsorted(knot_starts, times[:-1] + _COLLAPSE_TOL, "right") - 1
    out_pos = np.searchsorted(times, output_times + _COLLAPSE_TOL, "right") - 1
    return times, knot_idx, out_pos


# ---------------------------------------------------------------------------
# Kernels (batched over paths)
# ---------------------------------------------------------------------------

def _march_arrays(domain: DomainSpec, x0, n_out: int, n_steps: int, log_steps: bool):
    """What a march fills in place on either backend, as views of one
    buffer: the state ``(B, d)`` from ``x0``, the variation, the outputs
    ``(n_out, B, d)`` and, with ``log_steps`` (batch size one), a log of
    each step's state, ``dL`` and ``|dL|`` (else ``None``); then their six
    addresses for the native march, the buffer's plus offsets."""
    x0 = np.asarray(x0, float)
    if x0.ndim != 2 or x0.shape[1] != domain.dim:
        raise ValueError(f"x0 must have shape (B, {domain.dim}), got {x0.shape}")
    B, d = x0.shape
    if log_steps and B != 1:
        raise ValueError(f"a step log is of one path, so x0 must have one row, got {B}")
    shapes = [(B, d), (B,), (n_out, B, d)]
    shapes += [(n_steps, d), (n_steps, d), (n_steps,)] if log_steps else []
    ends = list(accumulate(map(prod, shapes), initial=0))
    buffer = np.empty(ends[-1])
    views = [buffer[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]
    views[0][...], views[1][...] = x0, 0.0
    at = _ptr(buffer)
    addresses = [at + 8 * lo for lo in ends[:-1]] + (6 - len(shapes)) * [None]
    return (*views[:3], tuple(views[3:]) or None), addresses


def _output_positions(out_pos, n_steps: int | None = None) -> np.ndarray:
    """``out_pos`` as contiguous int64 once it holds ascending whole step
    positions from 0 (to ``n_steps`` when given): the march records each
    output when it passes the output's position, so any other position
    would leave the output unwritten."""
    pos = np.asarray(out_pos)
    if pos.ndim != 1 or (len(pos) and not (
        pos.dtype.kind in "iu"
        and pos[0] >= 0
        and (n_steps is None or pos[-1] <= n_steps)
        and (pos[1:] >= pos[:-1]).all()
    )):
        within = "from 0" if n_steps is None else f"within 0..{n_steps}"
        raise ValueError(f"output positions must be ascending step positions {within}")
    return np.ascontiguousarray(pos, np.int64)


def _march_result(times, arrays):
    """The drivers' states at the outputs (leading output axis), variation
    after the last step, and step log with each step's end time first."""
    _, var, out, log = arrays
    return out, var, None if log is None else (np.array(times[1:]), *log)


def _noise_batch(X: np.ndarray, coeffs: CoefficientSet, noise) -> np.ndarray:
    """Brownian knot values or slopes as floats, once they have one row per
    state row and the coefficients' noise dimension."""
    noise = np.asarray(noise, float)
    if noise.ndim != 3 or noise.shape[::2] != (len(X), coeffs.dim_noise):
        raise ValueError(f"Brownian values must have shape ({len(X)}, k, {coeffs.dim_noise}), "
                         f"one row per state row, got {noise.shape}")
    return noise


def _march(resolve, arrays, out_pos, j, first, n, displacement):
    """Steps ``first .. first + n - 1`` of the discrete Skorokhod march, in
    numpy, over ``_march_arrays`` and on the native march's contract.

    Step ``i`` adds ``displacement(i, state)`` to the batch state, resolves
    it against the closure and adds ``|dL|`` to the variation.  Outputs
    from ``j`` are recorded at their step positions ``out_pos`` (ascending),
    at ``first`` and after each step; returns the next output's index.
    """
    X, var, out, log = arrays
    state, n_out = X, len(out_pos)

    # Output ``j`` is due at step position ``next_pos``, a Python int, so
    # that a step compares no numpy scalar.
    def record(pos, j):
        while j < n_out and out_pos[j] == pos:
            out[j] = state
            j += 1
        return j, int(out_pos[j]) if j < n_out else -1

    j, next_pos = record(first, j)
    for i in range(first, first + n):
        state, d_l = resolve(state, displacement(i, state))
        # np.linalg.norm(d_l, axis=1), bit for bit, without its dispatch.
        d_var = np.sqrt(sum_squares(d_l))
        var += d_var
        if i + 1 == next_pos:
            j, next_pos = record(i + 1, j)
        if log is not None:
            log[0][i], log[1][i], log[2][i] = state[0], d_l[0], d_var[0]
    X[...] = state
    return j


def integrate_wz_batch(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    x0: np.ndarray,
    slopes: np.ndarray,
    times: np.ndarray,
    knot_idx: np.ndarray,
    out_pos: np.ndarray,
    log_steps: bool = False,
):
    """Drive the constrained ODE for a batch of paths over one schedule.

    ``slopes`` has shape ``(B, K_n, m)``; each step moves along the
    interpolant's slope on its knot interval.  Returns as ``_march_result``
    at the step positions ``out_pos``, from one native call where
    ``cover.native_march`` covers the study.
    """
    dts = np.diff(np.asarray(times, float))
    out_pos = _output_positions(out_pos, len(dts))
    arrays, at = _march_arrays(domain, x0, len(out_pos), len(dts), log_steps)
    slopes = _noise_batch(arrays[0], coeffs, np.ascontiguousarray(slopes, float))
    knot_idx = np.ascontiguousarray(knot_idx[: len(dts)], np.int64)
    # A negative index, read as unsigned, lies past every knot interval.
    if len(knot_idx) != len(dts) or (knot_idx.view(np.uint64) >= slopes.shape[1]).any():
        raise ValueError("knot_idx must give every step a knot interval of slopes")
    native = cover.native_march(domain, coeffs)
    if native is not None:
        lib, kind, par = native
        lib.march_wz(
            _ptr(kind), _ptr(par), len(arrays[0]), *at[:2], _ptr(slopes), slopes.shape[1],
            _ptr(dts), _ptr(knot_idx), len(dts), _ptr(out_pos), len(out_pos), *at[2:],
        )
    else:
        knot, s = -1, None

        def displacement(i, X):
            nonlocal knot, s
            if knot_idx[i] != knot:
                # One contiguous (B, m) copy per knot: the noise term reads a
                # strided (B, K_n, m) slice about three times slower, and its
                # elementwise bits do not depend on the layout.
                knot = knot_idx[i]
                s = np.ascontiguousarray(slopes[:, knot, :])
            return (noise_term(coeffs.sigma(X), s) + coeffs.b(X)) * dts[i]

        _march(_resolver(domain), arrays, out_pos, 0, 0, len(dts), displacement)
    return _march_result(times, arrays)


_BLOCK_RULE = "each block must hold every row's knots from the march's position on"


def integrate_reference_batch(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    x0: np.ndarray,
    blocks,
    fine_level: int,
    out_steps: np.ndarray,
    log_steps: bool = False,
):
    """Projected Euler-Maruyama over the fine grid for a batch of paths.

    ``blocks`` yields ``(start, values)`` in time order: ``values`` are the
    Brownian knot values from fine knot ``start`` on, shape ``(B, k + 1, m)``,
    and each block starts at the last knot of the one before, as
    ``brownian.FineBlocks.blocks()`` draws them; a single array of knot
    values is the block ``(0, values)``.  Each step forms its own
    increment, so no increments array is held.  ``out_steps`` are fine-knot
    indices at which to record, and the march stops at the last of them.
    ``sigma`` is evaluated once per step.  Returns as ``_march_result``, from
    one native call per block where ``cover.native_march`` covers the
    study.  However the march ends, it closes ``blocks`` if it has a
    ``close``: ``FineBlocks.blocks()`` then joins the helper thread that
    refines ahead, even when the march stops before the last block.
    """
    h = 2.0 ** (-fine_level)
    out_steps = _output_positions(out_steps)
    last = int(out_steps[-1]) if len(out_steps) else 0
    arrays, at = _march_arrays(domain, x0, len(out_steps), last, log_steps)
    native = cover.native_march(domain, coeffs)
    if native is not None:
        lib, kind, par = native
        # The arguments every block's call shares, each address taken once.
        head, outputs = (_ptr(kind), _ptr(par), len(arrays[0]), *at[:2]), _ptr(out_steps)

        def march(start, values, pos, n, j):
            # The block from knot pos on, and its row, knot and noise steps.
            block = (None, 0, 0, 0) if values is None else (
                _ptr(values) + (pos - start) * values.strides[1],
                *(step // values.itemsize for step in values.strides),
            )
            return lib.march_reference(
                *head, *block, pos, n, h, outputs, len(out_steps), j, *at[2:],
            )
    else:
        resolve = _resolver(domain)

        def march(start, values, pos, n, j):
            def displacement(k, X):
                sig = coeffs.sigma(X)
                dw = values[:, k + 1 - start] - values[:, k - start]
                return noise_term(sig, dw) + ito_drift_batch(coeffs, X, sig) * h

            return _march(resolve, arrays, out_steps, j, pos, n, displacement)

    # Each span records the outputs due at its first knot, so only a march
    # of no steps needs a span of no steps for the outputs at knot 0.
    pos, j, blocks = 0, 0 if last else march(0, None, 0, 0, 0), iter(blocks)
    try:
        while pos < last:
            start, values = next(blocks, (None, None))
            if values is not None:
                values = _noise_batch(arrays[0], coeffs, values)
                n = min(start + values.shape[1] - 1, last) - pos
            if values is None or not (start <= pos and n > 0):
                raise ValueError(_BLOCK_RULE)
            j = march(start, values, pos, n, j)
            pos += n
    finally:
        # A generator stopped early is closed now, not when it is collected,
        # so that FineBlocks' helper thread is joined as the march ends.
        getattr(blocks, "close", lambda: None)()
    return _march_result(np.arange(last + 1) * h, arrays)


# ---------------------------------------------------------------------------
# Public per-path operations
# ---------------------------------------------------------------------------

def _check_start(domain: DomainSpec, coeffs: CoefficientSet, x0) -> np.ndarray:
    """``x0`` as a float array, checked to be a closure point of ``domain``'s
    dimension for coefficients of that state dimension."""
    x0 = check_point(domain, x0, "x0")
    if coeffs.dim_state != domain.dim:
        raise ValueError(f"coeffs state dimension {coeffs.dim_state} != domain dim {domain.dim}")
    if not domain.contains(x0):
        raise OutOfDomain(f"x0 {x0} is outside the domain closure")
    return x0


def _check_path_inputs(domain, coeffs, path: BrownianPath, x0, output_times):
    """``(x0, output_times)`` as float arrays, the times sorted without
    repeats, once ``path`` is one path of the coefficients' noise dimension,
    ``x0`` a valid start and the times a nonempty subset of the horizon."""
    if np.ndim(path.values) != 2:
        raise ValueError("path must be a single path, not a batch")
    if coeffs.dim_noise != path.dim_noise:
        raise ValueError(f"path has noise dimension {path.dim_noise}, coeffs {coeffs.dim_noise}")
    times = np.unique(np.asarray(output_times, float))
    if not (len(times) and 0 <= times[0] and times[-1] <= path.horizon + 1e-12):
        raise ValueError(f"output_times must be nonempty and lie within [0, {path.horizon}]")
    return _check_start(domain, coeffs, x0), times


def _reflected_path(domain, output_times, level, out_pos, march, record_substeps):
    """The ``ReflectedPath`` of ``march``, the kernel's ``(states, variation,
    step log)`` for one path with outputs at step positions ``out_pos``.

    The regulator and variation at each output are running sums of the
    step log, added in the kernel's order.  ``NonFiniteState`` names the
    first output whose state is not finite; ``InfeasibleStep`` follows for
    an output outside the closure.
    """
    states, _, (times, log_states, d_l, d_var) = march
    states = states[:, 0]
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise NonFiniteState(f"non-finite state at t={times[out_pos[np.argmin(finite)] - 1]}")
    check_feasible(domain, states, "output states")
    regulator = np.cumsum(np.concatenate([np.zeros((1, domain.dim)), d_l]), axis=0)[out_pos]
    variation = np.cumsum(np.concatenate([[0.0], d_var]))[out_pos]
    substeps = None
    if record_substeps:
        distances = np.asarray(domain.boundary_distance(log_states), float)
        substeps = SubstepLog(times, log_states, d_l, d_var, distances)
    return ReflectedPath(output_times, states, regulator, variation, level, substeps)


def solve_wz(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    path: BrownianPath,
    n: int,
    substeps_per_knot: int,
    x0,
    output_times: Sequence[float],
    record_substeps: bool = False,
) -> ReflectedPath:
    """Integrate the piecewise-linear-noise reflected ODE along one path."""
    x0, output_times = _check_path_inputs(domain, coeffs, path, x0, output_times)
    n = check_level(path, n)
    substeps_per_knot = check_whole("substeps_per_knot", substeps_per_knot, 1)
    return _solve_wz(domain, coeffs, path, n, substeps_per_knot, x0, output_times, record_substeps)


def _solve_wz(domain, coeffs, path, n, substeps_per_knot, x0, output_times, record_substeps):
    """``solve_wz`` on checked inputs."""
    slopes = wz_knot_slopes(path, n)[None]
    times, knot_idx, out_pos = wz_schedule(n, substeps_per_knot, output_times, path.horizon)
    march = integrate_wz_batch(domain, coeffs, x0[None], slopes, times, knot_idx, out_pos, True)
    return _reflected_path(domain, output_times, n, out_pos, march, record_substeps)


def solve_reference(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    path: BrownianPath,
    x0,
    output_times: Sequence[float],
    record_substeps: bool = False,
) -> ReflectedPath:
    """Projected Euler-Maruyama reference solution along one path."""
    x0, output_times = _check_path_inputs(domain, coeffs, path, x0, output_times)
    return _solve_reference(domain, coeffs, path, x0, output_times, record_substeps)


def _solve_reference(domain, coeffs, path, x0, output_times, record_substeps):
    """``solve_reference`` on checked inputs, but for the fine grid's."""
    out_steps = fine_grid_positions(path, output_times)
    blocks = [(0, path.values[None])]
    march = integrate_reference_batch(
        domain, coeffs, x0[None], blocks, path.fine_level, out_steps, True
    )
    return _reflected_path(domain, output_times, path.fine_level, out_steps, march, record_substeps)


def fine_grid_positions(path: BrownianPath, output_times: np.ndarray) -> np.ndarray:
    """Fine-knot indices of output times; they must sit on the fine grid."""
    scaled = np.asarray(output_times, float) * 2.0**path.fine_level
    pos = np.rint(scaled).astype(np.intp)
    if (np.abs(scaled - pos) > 1e-9).any() or not (
            0 <= pos.min(initial=0) and pos.max(initial=0) <= path.n_knots):
        raise ValueError("output times must lie on the path's fine dyadic grid")
    return pos


def coupled_output_grid(n: int, output_times, horizon: float) -> np.ndarray:
    """Level-``n`` knots joined with the requested output times."""
    knots = np.arange(ceil(horizon * 2.0**n - 1e-9) + 1) / 2.0**n
    knots = knots[knots <= horizon + 1e-12]
    return _union_times([knots, np.asarray(output_times, float)])


def coupled_solve(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    path: BrownianPath,
    n: int,
    substeps_per_knot: int,
    x0,
    output_times: Sequence[float],
    record_substeps: bool = False,
) -> tuple[ReflectedPath, ReflectedPath]:
    """Both processes on one Brownian path, reported on a shared time grid;
    the inputs are checked once, in the order of ``solve_wz`` then
    ``solve_reference``."""
    n = check_level(path, n)
    grid = coupled_output_grid(n, output_times, path.horizon)
    x0, grid = _check_path_inputs(domain, coeffs, path, x0, grid)
    substeps_per_knot = check_whole("substeps_per_knot", substeps_per_knot, 1)
    approx = _solve_wz(domain, coeffs, path, n, substeps_per_knot, x0, grid, record_substeps)
    return approx, _solve_reference(domain, coeffs, path, x0, grid, record_substeps)


def check_shared_times(a: ReflectedPath, b: ReflectedPath, what: str) -> None:
    """``MismatchedTimes`` naming ``what`` unless ``a`` and ``b`` share output times."""
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times, atol=1e-12):
        raise MismatchedTimes(f"{what} do not share output times")


def sup_distance(a: ReflectedPath, b: ReflectedPath) -> float:
    """Largest pointwise state distance over the shared output grid."""
    check_shared_times(a, b, "paths")
    return float(np.max(np.linalg.norm(a.states - b.states, axis=1)))
