"""Diffusion and drift coefficient fields and the noise-interaction drift term.

A coefficient set bundles the diffusion matrix field, the drift field, and
the derivative of the diffusion, with the state and noise dimensions.  All
built-in fields are defined on the whole space and restricted to the domain
closure by the solvers, which always evaluate at constrained points.

Every coefficient callable, built-in or custom, is batch-aware: it accepts
a single point of shape ``(d,)`` or a batch ``(B, d)`` and returns
``(d, m)`` / ``(B, d, m)`` accordingly (one extra leading axis everywhere).

The march's two contractions, the noise term ``sigma @ dW`` (``noise_term``)
and the noise-interaction term, run as products of batch columns for a
planar state with planar noise (d = m = 2) from ``COLUMN_MIN_ROWS`` rows
on, which reproduces ``np.einsum``'s bits; every other shape and width
keeps the einsum, on C-ordered operands, since its summation order follows
their memory layout.  The affine drift likewise adds its offset to a wide
planar batch one column at a time; ``trig`` spreads its parameters one
(i, j) entry at a time over the whole batch, at every shape and width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfDomain
from .geometry import DomainSpec, check_points


@dataclass(frozen=True)
class CoefficientSet:
    """Diffusion matrix, drift vector, diffusion derivative, and dimensions.

    ``grad_sigma(y)[i, j, k]`` is the derivative of entry ``(i, j)`` of the
    diffusion matrix in state direction ``k``.

    Every callable, built-in or custom, must be batch-aware: given a point
    ``(d,)`` it returns ``(d, m)`` / ``(d,)`` / ``(d, m, d)``, and given a
    batch ``(B, d)`` the same shapes with a leading ``B`` axis.  The solvers
    evaluate whole batches of paths in one call.
    """

    sigma: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    grad_sigma: Callable[[np.ndarray], np.ndarray]
    dim_state: int
    dim_noise: int


def _checked(domain: DomainSpec | None, y) -> np.ndarray:
    y = np.asarray(y, float)
    if domain is not None and not domain.contains(check_points(domain, y, "y")):
        raise OutOfDomain(f"evaluation point {y} lies outside the domain closure")
    return y


def stratonovich_correction(coeffs: CoefficientSet, y,
                            domain: DomainSpec | None = None) -> np.ndarray:
    """Noise-interaction drift vector: sum_{j,k} d(sigma_ij)/dy_k * sigma_kj.

    This is the vector whose half converts the pathwise (Stratonovich)
    equation into its Ito form, at a point ``(d,)`` or a batch ``(B, d)``.
    Passing a domain enforces that ``y`` lies in its closure.
    """
    y = _checked(domain, y)
    return _correction(coeffs.grad_sigma(y), coeffs.sigma(y))


def ito_drift(coeffs: CoefficientSet, y, domain: DomainSpec | None = None) -> np.ndarray:
    """Effective Ito drift at a point or batch: ``b(y)`` plus half the noise-interaction term."""
    return ito_drift_batch(coeffs, _checked(domain, y))


def ito_drift_batch(
    coeffs: CoefficientSet, Y: np.ndarray, sig: np.ndarray | None = None
) -> np.ndarray:
    """``ito_drift`` without the domain check; ``sig`` reuses ``sigma(Y)`` if the caller has it."""
    sig = coeffs.sigma(Y) if sig is None else sig
    return coeffs.b(Y) + 0.5 * _correction(coeffs.grad_sigma(Y), sig)


def noise_term(sig: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """The march's noise term ``np.einsum('bij,bj->bi', sig, dw)``."""
    if len(sig) >= COLUMN_MIN_ROWS and sig.shape[1:] == (2, 2):
        return _noise_columns(sig, dw)
    return np.einsum("bij,bj->bi", np.ascontiguousarray(sig), dw)


# ---------------------------------------------------------------------------
# The planar contractions along the batch axis
# ---------------------------------------------------------------------------

# From this many rows on, at d = m = 2, a step's column forms together cost
# less than the numpy calls they replace (README "Speed"): einsum and
# broadcasting against a (d,) or (d, m) operand run one short loop per row,
# a column form a fixed number of batch-wide calls.  The noise-interaction
# term gains from 256 rows on; trig's fields alone break even near 512.
COLUMN_MIN_ROWS = 512

# At d = m = 2 (numpy 2.4, B >= 2) 'bij,bj->bi' adds its two products in
# order, and 'bijk,bkj->bi' adds per-k sums over j, then the two partial
# sums; both start from +0.0, so a sum of -0.0 products is +0.0.  On a
# single row 'bij,bj->bi' adds as on a batch, but 'bijk,bkj->bi' adds
# per-j sums over k, (P00 + P01) + (P10 + P11) with P_jk = sig[k, j] *
# grad[i, j, k].  Where two NaNs of different sign meet, the noise term
# keeps the earlier term's and dw's, which the column form follows; the
# noise-interaction term's choice follows its vector kernel and the batch
# width, so there the column form gives the same bits up to the sign of a
# NaN.  Other shapes sum in other orders (the noise term at m = 3, the
# noise-interaction term at d = 3).  The native planar march (_march.c)
# takes the column forms from two rows on and the one-row order on one.


def _noise_columns(sig: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """``'bij,bj->bi'`` at d = m = 2, one product per ``(i, j)`` over the batch."""
    out = np.empty((len(sig), 2))
    for i in range(2):
        o = out[:, i]
        np.multiply(dw[:, 0], sig[:, i, 0], out=o)
        o += dw[:, 1] * sig[:, i, 1]
    out += 0.0  # einsum's sums start from +0.0
    return out


def _correction(grad: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """``np.einsum('...ijk,...kj->...i')`` on C-ordered operands, at a point
    or a batch: the noise-interaction term."""
    if len(sig) >= COLUMN_MIN_ROWS and sig.shape[1:] == (2, 2):
        return _stratonovich_columns(grad, sig)
    return np.einsum("...ijk,...kj->...i", np.ascontiguousarray(grad), np.ascontiguousarray(sig))


def _stratonovich_columns(grad: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """``'bijk,bkj->bi'`` at d = m = 2: per-k sums over j, then their sum."""
    out = np.empty((len(sig), 2))
    part = np.empty(len(sig))
    for i in range(2):
        o = out[:, i]
        for k, acc in ((0, o), (1, part)):
            np.multiply(sig[:, k, 0], grad[:, i, 0, k], out=acc)
            acc += sig[:, k, 1] * grad[:, i, 1, k]
        o += part
    out += 0.0  # einsum's sums start from +0.0
    return out


def finite_difference_correction(
    coeffs: CoefficientSet, y, step: float = 1e-5
) -> np.ndarray:
    """Correction assembled from central finite differences of sigma.

    Independent of ``grad_sigma``; used to cross-check the analytic term.
    """
    y = np.asarray(y, float)
    d, m = coeffs.dim_state, coeffs.dim_noise
    grad = np.empty((d, m, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        grad[:, :, k] = (coeffs.sigma(y + e) - coeffs.sigma(y - e)) / (2.0 * step)
    return _correction(grad, coeffs.sigma(y))


# ---------------------------------------------------------------------------
# Built-in coefficient families
# ---------------------------------------------------------------------------

def _built_in(coeffs: CoefficientSet, family: str, *params) -> CoefficientSet:
    """``coeffs``, with its three callables tagged for the native march when
    d = m = 1 or d = m = 2.

    The tag, ``(d, family, values)``, is one object set on ``sigma``, ``b``
    and ``grad_sigma``: ``values`` holds the drift's matrix and offset, then
    the family's ``params``, each raveled in C order.  ``cover`` marches
    a set natively only while all three callables carry that same tag, so a
    set with any callable replaced or wrapped runs the numpy march.
    """
    d, m = coeffs.dim_state, coeffs.dim_noise
    if d == m and d <= 2:
        tag = (d, family, tuple(float(v) for p in params for v in np.ravel(p)))
        for fn in (coeffs.sigma, coeffs.b, coeffs.grad_sigma):
            fn.native = tag
    return coeffs


def _drift_field(drift_matrix, drift_offset, d: int):
    """The affine drift ``b(y) = A y + c``, then ``A`` and ``c``."""
    A = np.zeros((d, d)) if drift_matrix is None else np.asarray(drift_matrix, float)
    c = np.zeros(d) if drift_offset is None else np.asarray(drift_offset, float)
    if A.shape != (d, d) or c.shape != (d,):
        raise ValueError("drift parameters must have shapes (d, d) and (d,)")

    columns = d == 2

    def b(y):
        y = np.asarray(y, float)
        # np.dot, not @: bit-identical here, without @'s dispatch overhead
        # on narrow operands (6 us against 1.5 us for a (667, 1) batch).
        r = np.dot(y, A.T)
        if columns and len(y) >= COLUMN_MIN_ROWS:
            for k in range(d):
                r[:, k] += c[k]
            return r
        return r + c

    return b, A, c


def constant(sigma, drift_matrix=None, drift_offset=None) -> CoefficientSet:
    """Constant diffusion matrix with affine drift."""
    sig = np.asarray(sigma, float)
    if sig.ndim != 2:
        raise ValueError("sigma must be a (d, m) matrix")
    d, m = sig.shape
    b, drift_a, drift_c = _drift_field(drift_matrix, drift_offset, d)

    def sigma_f(y):
        y = np.asarray(y, float)
        if y.ndim == 1:
            return sig.copy()
        return sig[None].repeat(len(y), 0)

    def grad_f(y):
        y = np.asarray(y, float)
        shape = (d, m, d) if y.ndim == 1 else (len(y), d, m, d)
        return np.zeros(shape)

    return _built_in(CoefficientSet(sigma_f, b, grad_f, d, m), "constant", drift_a, drift_c, sig)


def linear(A, B=None, drift_matrix=None, drift_offset=None) -> CoefficientSet:
    """Matrix-affine diffusion: sigma_ij(y) = sum_k A[i,j,k] y_k + B[i,j]."""
    A = np.asarray(A, float)
    if A.ndim != 3:
        raise ValueError("A must have shape (d, m, d)")
    d, m, d2 = A.shape
    if d2 != d:
        raise ValueError("A must have shape (d, m, d)")
    B = np.zeros((d, m)) if B is None else np.asarray(B, float)
    b, drift_a, drift_c = _drift_field(drift_matrix, drift_offset, d)

    def sigma_f(y):
        y = np.asarray(y, float)
        return np.einsum("ijk,...k->...ij", A, y) + B

    def grad_f(y):
        y = np.asarray(y, float)
        if y.ndim == 1:
            return A.copy()
        return A[None].repeat(len(y), 0)

    return _built_in(CoefficientSet(sigma_f, b, grad_f, d, m), "linear", drift_a, drift_c, A, B)


def trig(
    offset,
    amplitude,
    frequency,
    phase=None,
    drift_matrix=None,
    drift_offset=None,
) -> CoefficientSet:
    """Sinusoidal diffusion: sigma_ij(y) = offset_ij + amp_ij sin(freq . y + phase_ij)."""
    offset = np.asarray(offset, float)
    amplitude = np.asarray(amplitude, float)
    frequency = np.asarray(frequency, float)
    if offset.ndim != 2 or offset.shape != amplitude.shape:
        raise ValueError("offset and amplitude must be matching (d, m) matrices")
    d, m = offset.shape
    if frequency.shape != (d,):
        raise ValueError("frequency must have shape (d,)")
    phase = np.zeros((d, m)) if phase is None else np.asarray(phase, float)
    if phase.shape != (d, m):
        raise ValueError("phase must have shape (d, m)")
    b, drift_a, drift_c = _drift_field(drift_matrix, drift_offset, d)
    # sin and cos run once per distinct phase value (``uphase``), then each
    # (i, j) entry takes ``amp_ij * t`` (and ``offset_ij +`` that) over the
    # batch: the same argument freq . y + phase_ij and the same two IEEE
    # operations as the entrywise spelling, C-ordered as it returns them
    # (einsum's summation order follows its operands' memory layout).
    uphase, spread = np.unique(phase, return_inverse=True)
    spread = spread.reshape(d, m)
    entries = [
        (i, j, spread[i, j], amplitude[i, j], offset[i, j]) for i in range(d) for j in range(m)
    ]

    def spread_entries(fn, y, add_offset):
        y = np.asarray(y, float)
        # np.dot for the same reason as in _drift_field.
        t = fn(np.dot(y, frequency)[..., None] + uphase)
        out = np.empty(y.shape[:-1] + (d, m))
        for i, j, p, amp, off in entries:
            o = out[..., i, j]
            np.multiply(amp, t[..., p], out=o)
            if add_offset:
                np.add(off, o, out=o)
        return out

    def sigma_f(y):
        return spread_entries(np.sin, y, True)

    def grad_f(y):
        # amp * cos(freq . y + phase) times frequency, one product over the
        # whole batch per state direction instead of one loop of length d
        # per entry.
        c = spread_entries(np.cos, y, False)
        out = np.empty(c.shape + (d,))
        for k in range(d):
            np.multiply(c, frequency[k], out=out[..., k])
        return out

    coeffs = CoefficientSet(sigma_f, b, grad_f, d, m)
    return _built_in(
        coeffs, "trig", drift_a, drift_c, offset, amplitude, frequency, spread, uphase
    )


_COEFF_FACTORIES = {
    "constant": constant,
    "linear": linear,
    "trig": trig,
}


def make_coefficients(name: str, **params) -> CoefficientSet:
    """Build a built-in coefficient set by config name."""
    try:
        factory = _COEFF_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown coefficient set {name!r}; known: {sorted(_COEFF_FACTORIES)}")
    return factory(**params)
