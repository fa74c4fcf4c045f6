"""Diffusion and drift coefficient fields and the noise-interaction drift term.

A coefficient set bundles the diffusion matrix field, the drift field, and
the derivative of the diffusion, with the state and noise dimensions.  All
built-in fields are defined on the whole space and restricted to the domain
closure by the solvers, which always evaluate at constrained points.

Every coefficient callable, built-in or custom, is batch-aware: it accepts
a single point of shape ``(d,)`` or a batch ``(B, d)`` and returns
``(d, m)`` / ``(B, d, m)`` accordingly (one extra leading axis everywhere).

Every contraction the march makes is a column sum in ascending index
order, one elementwise operation over the batch per term: the affine drift
``A y + c``, ``linear``'s ``sigma``, ``trig``'s argument ``f . y``, the
noise term ``sigma dW`` (``noise_term``) and the noise-interaction term
(``stratonovich_correction``).  A sum starts from its first product and
adds the others in ascending index order, so a row's bits do not depend
on the batch's width or memory layout, and the native march (``_march.c``)
runs the same additions with the same roundings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cover import D_MAX, native_tag
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


def _column_sums(y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``y @ M.T`` for states ``y`` of shape ``(..., n)`` and a matrix ``M``
    ``(r, n)``: entry ``i`` is ``y_0 M[i, 0] + y_1 M[i, 1] + ...``, added in
    ascending order, one product and one sum over the batch per term."""
    out = y[..., 0, None] * M[:, 0]
    for k in range(1, M.shape[1]):
        out += y[..., k, None] * M[:, k]
    return out


def noise_term(sig: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """The march's noise term ``sum_j sigma_ij dW_j``, in ascending ``j``."""
    out = sig[..., 0] * dw[..., 0, None]
    for j in range(1, sig.shape[-1]):
        out += sig[..., j] * dw[..., j, None]
    return out


def _correction(grad: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """The noise-interaction term ``sum_{j,k} grad_ijk sigma_kj`` at a point
    or a batch, in ascending ``j``, and within it ascending ``k``."""
    d, m = sig.shape[-2:]
    out = grad[..., 0, 0] * sig[..., 0, 0, None]
    # Plain ranges: building an np.ndindex costs more than a d = m = 1 term.
    for j in range(m):
        for k in range(d):
            if j or k:
                out += grad[..., j, k] * sig[..., k, j, None]
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
    d = m <= ``cover.D_MAX``.

    The tag, ``cover.native_tag(d, family, values)``, is one object set on
    ``sigma``, ``b`` and ``grad_sigma``: ``values`` holds the drift's matrix
    and offset, then the family's ``params``, each raveled in C order.  ``cover`` marches
    a set natively only while all three callables carry that same tag, so a
    set with any callable replaced or wrapped runs the numpy march.
    """
    d, m = coeffs.dim_state, coeffs.dim_noise
    if d == m <= D_MAX:
        tag = native_tag(d, family, tuple(float(v) for p in params for v in np.ravel(p)))
        for fn in (coeffs.sigma, coeffs.b, coeffs.grad_sigma):
            fn.native = tag
    return coeffs


def _drift_field(drift_matrix, drift_offset, d: int):
    """The affine drift ``b(y) = A y + c``, then ``A`` and ``c``."""
    A = np.zeros((d, d)) if drift_matrix is None else np.asarray(drift_matrix, float)
    c = np.zeros(d) if drift_offset is None else np.asarray(drift_offset, float)
    if A.shape != (d, d) or c.shape != (d,):
        raise ValueError("drift parameters must have shapes (d, d) and (d,)")

    def b(y):
        r = _column_sums(np.asarray(y, float), A)
        r += c
        return r

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
    rows, flat_B = A.reshape(d * m, d), B.ravel()

    def sigma_f(y):
        y = np.asarray(y, float)
        return (_column_sums(y, rows) + flat_B).reshape(y.shape[:-1] + (d, m))

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
    # operations as the entrywise spelling.
    uphase, spread = np.unique(phase, return_inverse=True)
    spread = spread.reshape(d, m)
    entries = [
        (i, j, spread[i, j], amplitude[i, j], offset[i, j]) for i in range(d) for j in range(m)
    ]

    def spread_entries(fn, y, add_offset):
        y = np.asarray(y, float)
        t = fn(_column_sums(y, frequency[None]) + uphase)
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
