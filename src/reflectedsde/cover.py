"""Which studies the native march (``_march.c``) covers, and what it reads.

``native_march`` is the one place that decides whether a study marches in
C and that packs the parameters the C kernels read; ``_march.c``'s header
gives their layout.  It covers a built-in family on a one-dimensional box
at d = m = 1, and on a box, ball or annulus at d = m = 2, a single path
included, where ``planar_dots_agree`` has found that the library repeats
numpy's ``np.dot`` at the batch's width.  ``solvers`` runs every other
study with the numpy march, with the same bits.
"""

from __future__ import annotations

import functools

import numpy as np

from . import brownian
from .brownian import _ptr
from .coefficients import CoefficientSet
from .geometry import DomainSpec

DOMAINS = ("box", "ball", "annulus")
FAMILIES = ("constant", "linear", "trig")


def native_march(domain: DomainSpec, coeffs: CoefficientSet, width: int):
    """``(library, kind, parameters)`` of the native march when it covers
    the study at batch width ``width``, else ``None``.

    It covers a built-in domain with a built-in family at any width, at
    d = m = 1 (the one-dimensional box) and at d = m = 2 (the box, the ball
    or the annulus), marched through that domain's and that set's own
    callables: the domain factories tag ``resolve_batch`` with their bounds
    or radii, and each family factory tags ``sigma``, ``b`` and
    ``grad_sigma`` with one shared ``(d, family, values)``
    (``coefficients._built_in``).  A replaced, wrapped or custom callable,
    any other dimension, no library (see ``brownian.native_library``), or
    at d = 2 a BLAS whose ``np.dot`` the library does not repeat at the
    batch's width (``planar_dots_agree`` of a single row or of wider
    batches) runs the numpy march, with the same bits.  The parameters are
    four slots of the domain's bounds or radii, then the family's values.
    """
    shape = getattr(domain.resolve_batch, "native", None)
    tag = getattr(coeffs.sigma, "native", None)
    fields = (domain.resolve_batch, coeffs.sigma, coeffs.b, coeffs.grad_sigma)
    d = domain.dim
    if (
        shape is None
        or tag is None
        or (shape[0], tag[0], coeffs.dim_state, coeffs.dim_noise) != (d,) * 4
        or any(getattr(fn, "native", None) is not tag for fn in fields[2:])
        or any(hasattr(fn, "__wrapped__") for fn in fields)
    ):
        return None
    lib = brownian._native()
    if lib is None or (d == 2 and not planar_dots_agree(width == 1)):
        return None
    (_, name, bounds), (_, family, values) = shape, tag
    kind = np.array([d, DOMAINS.index(name), FAMILIES.index(family)], np.int64)
    return lib, kind, np.array((*bounds, *(0.0,) * (4 - len(bounds)), *values))


# Batch widths at which planar_dots_agree compares the library with np.dot
# from two rows on: every residue modulo 8 and 16, where BLAS kernels split
# a batch into blocks and a tail, from a few rows, a tile (64),
# COLUMN_MIN_ROWS (512) and an engine group (2000) on.
PROBE_WIDTHS = (*range(2, 18), *range(64, 72), *range(512, 520), *range(2000, 2008))

# Rows of zeros of both signs and values that are not finite, which the
# probe puts at the head and the tail of every batch it compares, and
# compares alone for a single row.
PROBE_ROWS = ((-0.0, 0.0), (-0.0, 1.5), (np.inf, 0.5), (np.nan, -np.inf), (1e308, -1e308))

# Rows the probe of a single row compares after PROBE_ROWS, each as a
# batch of one.
ONE_ROW_PROBES = 32


def _probe_batches(one_row: bool):
    """The batches ``planar_dots_agree`` compares: each of ``PROBE_ROWS``
    and ``ONE_ROW_PROBES`` rows of full-width mantissas alone, or a batch
    of each of ``PROBE_WIDTHS`` with the special rows at its head and tail.
    The rows are sines, not draws: ``numpy.random`` costs a single path
    2 MB of resident memory to import."""
    special = np.array(PROBE_ROWS)
    n = ONE_ROW_PROBES if one_row else max(PROBE_WIDTHS)
    y = 3.0 * np.sin(np.arange(1.0, 2.0 * n + 1.0)).reshape(n, 2)
    if one_row:
        yield from np.concatenate([special, y])[:, None]
        return
    for width in PROBE_WIDTHS:
        rows = y[:width].copy()
        n = min(width, len(special))
        rows[:n], rows[width - n :] = special[:n], special[::-1][:n]
        yield rows


@functools.cache
def planar_dots_agree(one_row: bool) -> bool:
    """Whether the library's two spellings of a planar ``np.dot``
    (``planar_dots``: OpenBLAS's gemv and gemm as one fused multiply-add
    each, the products in mirrored order on a single row) give numpy's bits
    on fixed batches, zeros of both signs and values that are not finite
    included: with ``one_row`` on single rows, else at each of
    ``PROBE_WIDTHS``.  OpenBLAS picks its kernels by processor at run time,
    so each is asked once per process, and only by a march of that width;
    where they differ, planar studies of that width run the numpy march."""
    lib = brownian._native()
    f, A = np.array([0.7, -1.3]), np.array([[-0.0, 0.4], [1.1, -0.9]])
    for rows in _probe_batches(one_row):
        width = len(rows)
        v, mat = np.empty(width), np.empty((width, 2))
        lib.planar_dots(width, _ptr(rows), _ptr(f), _ptr(A), _ptr(v), _ptr(mat))
        with np.errstate(all="ignore"):
            if v.tobytes() != np.dot(rows, f).tobytes() or (
                mat.tobytes() != np.dot(rows, A.T).tobytes()
            ):
                return False
    return True
