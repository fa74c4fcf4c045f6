"""Coupled constrained integrators: piecewise-linear-noise ODE and Ito reference.

Two solvers driven by one Brownian path.  The first integrates the random
ODE whose driver is the lagged piecewise-linear interpolant: the driver
slope is constant on each knot interval, so explicit Euler substeps with a
per-substep constraint resolution realize it; the only integration error
comes from state dependence of the diffusion, controlled by substepping.
The second is the projected Euler-Maruyama scheme at the path's fine level
with the Ito-corrected drift, the strong-order-half reference.

Both are one scheme, an unconstrained step followed by the discrete
Skorokhod map, and share one march kernel; they differ only in the
displacement rule and the step grid.  The march operates on a batch of
paths in lockstep; the public per-path operations call it with batch size
one, and the Monte Carlo harness calls it with whole chunks.  Per-row
results are identical either way because every array operation is
elementwise across the batch.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import ceil
from typing import Sequence

import numpy as np

from .brownian import BrownianPath, wz_knot_slopes
from .coefficients import CoefficientSet, ito_drift_batch
from .errors import (
    InfeasibleStep,
    LevelTooFine,
    MismatchedTimes,
    NonFiniteState,
    OutOfDomain,
)
from .geometry import MEMBERSHIP_TOL, DomainSpec, _resolve_single


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

def _union_times(parts: list[np.ndarray]) -> np.ndarray:
    merged = np.unique(np.concatenate(parts))
    # Collapse float near-duplicates produced by non-dyadic substep counts.
    if len(merged) > 1:
        keep = np.ones(len(merged), bool)
        keep[1:] = np.diff(merged) > 1e-13
        merged = merged[keep]
    return merged


def wz_schedule(n: int, substeps_per_knot: int, output_times: np.ndarray, horizon: float):
    """Step times, per-step knot index, and output positions for the ODE solver.

    The step grid is the union of the regular substep grid and the requested
    output times, so outputs are hit exactly; knot boundaries are always step
    boundaries, keeping the driver slope constant within each step.
    """
    n_knots = ceil(horizon * 2.0**n - 1e-9)
    knot_starts = np.arange(n_knots) / 2.0**n
    sub = (np.arange(substeps_per_knot) / substeps_per_knot) / 2.0**n
    base = (knot_starts[:, None] + sub[None, :]).ravel()
    times = _union_times([base, np.asarray(output_times, float), np.asarray([0.0, horizon])])
    times = times[(times >= 0.0) & (times <= horizon + 1e-12)]
    knot_idx = np.searchsorted(knot_starts, times[:-1], side="right") - 1
    out_pos = np.searchsorted(times, np.asarray(output_times, float))
    return times, knot_idx.astype(np.intp), out_pos.astype(np.intp)


# ---------------------------------------------------------------------------
# Kernels (batched over paths)
# ---------------------------------------------------------------------------

def _batch_resolver(domain: DomainSpec):
    if domain.resolve_batch is not None:
        return domain.resolve_batch

    def resolve(X, V):
        states = np.empty_like(X)
        d_l = np.empty_like(X)
        for r in range(X.shape[0]):
            states[r], d_l[r] = _resolve_single(domain, X[r], V[r])
        return states, d_l

    return resolve


def _march(domain: DomainSpec, x0: np.ndarray, times, out_pos, displacement, record_substeps):
    """The discrete Skorokhod march both solvers share.

    Step ``i`` (from ``times[i]`` to ``times[i + 1]``) adds
    ``displacement(i, X)`` to the batch state ``X``, resolves the result
    against the closure, and accumulates the regulator and its variation.
    Returns states, cumulative regulator, and cumulative variation at the
    step positions ``out_pos``, each with a leading output axis, plus an
    optional substep log (batch size one only).
    """
    B, d = x0.shape
    X = np.array(x0, float)
    L = np.zeros((B, d))
    var = np.zeros(B)
    resolve = _batch_resolver(domain)

    n_out = len(out_pos)
    out_states = np.empty((n_out, B, d))
    out_reg = np.empty((n_out, B, d))
    out_var = np.empty((n_out, B))
    record_at = np.full(len(times), -1, np.intp)
    record_at[out_pos] = np.arange(n_out)

    n_steps = len(times) - 1
    if record_substeps:
        sub_states = np.empty((n_steps, d))
        sub_dl = np.empty((n_steps, d))
        sub_dvar = np.empty(n_steps)
    abort_check = B == 1

    if record_at[0] >= 0:
        out_states[record_at[0]] = X
        out_reg[record_at[0]] = L
        out_var[record_at[0]] = var

    for i in range(n_steps):
        X, d_l = resolve(X, displacement(i, X))
        d_var = np.linalg.norm(d_l, axis=1)
        L = L + d_l
        var = var + d_var
        j = record_at[i + 1]
        if j >= 0:
            if abort_check and not np.all(np.isfinite(X)):
                raise NonFiniteState(f"non-finite state at t={times[i + 1]}")
            out_states[j] = X
            out_reg[j] = L
            out_var[j] = var
        if record_substeps:
            sub_states[i] = X[0]
            sub_dl[i] = d_l[0]
            sub_dvar[i] = d_var[0]

    substeps = None
    if record_substeps:
        sub_bd = np.asarray(domain.boundary_distance(sub_states), float)
        substeps = SubstepLog(np.array(times[1:]), sub_states, sub_dl, sub_dvar, sub_bd)
    return out_states, out_reg, out_var, substeps


def integrate_wz_batch(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    x0: np.ndarray,
    slopes: np.ndarray,
    times: np.ndarray,
    knot_idx: np.ndarray,
    out_pos: np.ndarray,
    record_substeps: bool = False,
):
    """Drive the constrained ODE for a batch of paths over one schedule.

    ``slopes`` has shape ``(B, K_n, m)``; each step moves along the
    interpolant's slope on its knot interval.  Returns as ``_march``.
    """

    def displacement(i, X):
        dt = times[i + 1] - times[i]
        s = slopes[:, knot_idx[i], :]
        return (np.einsum("bij,bj->bi", coeffs.sigma_batch(X), s) + coeffs.b_batch(X)) * dt

    return _march(domain, x0, times, out_pos, displacement, record_substeps)


def integrate_reference_batch(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    x0: np.ndarray,
    increments: np.ndarray,
    fine_level: int,
    out_steps: np.ndarray,
    record_substeps: bool = False,
):
    """Projected Euler-Maruyama over the fine grid for a batch of paths.

    ``increments`` has shape ``(B, K, m)``; ``out_steps`` are fine-knot
    indices at which to record, and the march stops at the last of them.
    """
    h = 2.0 ** (-fine_level)
    last = int(np.max(out_steps)) if len(out_steps) else 0

    def displacement(k, X):
        sig = coeffs.sigma_batch(X)
        return np.einsum("bij,bj->bi", sig, increments[:, k, :]) + ito_drift_batch(coeffs, X) * h

    return _march(domain, x0, np.arange(last + 1) * h, out_steps, displacement, record_substeps)


# ---------------------------------------------------------------------------
# Public per-path operations
# ---------------------------------------------------------------------------

def _validate_start(domain: DomainSpec, coeffs: CoefficientSet, path: BrownianPath, x0):
    x0 = np.asarray(x0, float)
    if x0.shape != (domain.dim,):
        raise ValueError(f"x0 must have shape ({domain.dim},), got {x0.shape}")
    if coeffs.dim_state != domain.dim:
        raise ValueError("coefficient state dimension does not match the domain")
    if coeffs.dim_noise != path.dim_noise:
        raise ValueError("coefficient noise dimension does not match the path")
    if float(domain.boundary_distance(x0)) > MEMBERSHIP_TOL * max(1.0, domain.diameter):
        raise OutOfDomain(f"x0 {x0} is outside the domain closure")
    return x0


def _check_outputs_feasible(domain: DomainSpec, states: np.ndarray):
    worst = float(np.max(domain.boundary_distance(states)))
    if not np.isfinite(worst) or worst > MEMBERSHIP_TOL * max(1.0, domain.diameter):
        raise InfeasibleStep(f"constraint violation at output states (distance {worst})")


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
    x0 = _validate_start(domain, coeffs, path, x0)
    if n > path.fine_level:
        raise LevelTooFine(f"level {n} exceeds the path's fine level {path.fine_level}")
    if substeps_per_knot < 1:
        raise ValueError("substeps_per_knot must be at least 1")
    output_times = np.unique(np.asarray(output_times, float))
    if len(output_times) == 0:
        raise ValueError("output_times must be nonempty")
    if output_times[0] < 0 or output_times[-1] > path.horizon + 1e-12:
        raise ValueError("output_times must lie within [0, horizon]")

    slopes = wz_knot_slopes(path, n)[None]
    times, knot_idx, out_pos = wz_schedule(n, substeps_per_knot, output_times, path.horizon)
    states, reg, var, sub = integrate_wz_batch(
        domain, coeffs, x0[None], slopes, times, knot_idx, out_pos, record_substeps
    )
    result = ReflectedPath(output_times, states[:, 0], reg[:, 0], var[:, 0], n, sub)
    _check_outputs_feasible(domain, result.states)
    return result


def solve_reference(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    path: BrownianPath,
    x0,
    output_times: Sequence[float],
    record_substeps: bool = False,
) -> ReflectedPath:
    """Projected Euler-Maruyama reference solution along one path."""
    x0 = _validate_start(domain, coeffs, path, x0)
    output_times = np.unique(np.asarray(output_times, float))
    if len(output_times) == 0:
        raise ValueError("output_times must be nonempty")
    out_steps = fine_grid_positions(path, output_times)
    states, reg, var, sub = integrate_reference_batch(
        domain,
        coeffs,
        x0[None],
        np.asarray(path.increments)[None],
        path.fine_level,
        out_steps,
        record_substeps,
    )
    result = ReflectedPath(output_times, states[:, 0], reg[:, 0], var[:, 0], path.fine_level, sub)
    _check_outputs_feasible(domain, result.states)
    return result


def fine_grid_positions(path: BrownianPath, output_times: np.ndarray) -> np.ndarray:
    """Fine-knot indices of output times; they must sit on the fine grid."""
    scaled = np.asarray(output_times, float) * 2.0**path.fine_level
    pos = np.rint(scaled).astype(np.intp)
    if np.any(np.abs(scaled - pos) > 1e-9) or np.any(pos < 0) or np.any(pos > path.n_knots):
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
    """Both processes on one Brownian path, reported on a shared time grid."""
    grid = coupled_output_grid(n, output_times, path.horizon)
    approx = solve_wz(
        domain, coeffs, path, n, substeps_per_knot, x0, grid, record_substeps
    )
    reference = solve_reference(domain, coeffs, path, x0, grid, record_substeps)
    return approx, reference


def sup_distance(a: ReflectedPath, b: ReflectedPath) -> float:
    """Largest pointwise state distance over the shared output grid."""
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times, atol=1e-12):
        raise MismatchedTimes("paths do not share output times")
    return float(np.max(np.linalg.norm(a.states - b.states, axis=1)))
