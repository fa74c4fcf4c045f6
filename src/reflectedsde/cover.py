"""Which studies the native march (``_march.c``) covers, and what it reads.

``native_march`` is the one place that decides whether a study marches in
C, and ``native_tag`` the one place that packs the parameters the C march
reads; ``_march.c``'s header gives their layout once, in terms of d.  The
C file holds one march, written over d and inlined for d = 1, 2 and 3.  It
covers a built-in family on a one-dimensional box at d = m = 1, and on a
box, ball or annulus at d = m = 2 and d = m = 3, at every batch width, a
single path included.  ``solvers`` runs every other study (m != d, d >= 4,
a custom domain or set) with the numpy march, with the same bits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import brownian

if TYPE_CHECKING:
    from .coefficients import CoefficientSet
    from .geometry import DomainSpec

DOMAINS = ("box", "ball", "annulus")
FAMILIES = ("constant", "linear", "trig")
# The largest d = m the native march covers, ``_march.c``'s ``D_MAX``.
D_MAX = 3


def native_tag(d: int, name: str, values: tuple) -> tuple:
    """The read-only tag ``(d, name, values, packed)`` that a built-in
    factory sets on its callables.  ``packed`` is the bytes the native
    march reads: for a domain ``d``, its index in ``DOMAINS`` and
    ``2 * D_MAX`` slots, its bounds or radii then zeros, so that a box of
    any covered d fills them at most; for a family its index in
    ``FAMILIES`` and its values."""
    if name in DOMAINS:
        head = (d, DOMAINS.index(name), *values, *(0.0,) * (2 * D_MAX - len(values)))
    else:
        head = (FAMILIES.index(name), *values)
    return d, name, values, np.array(head, float).tobytes()


def native_march(domain: DomainSpec, coeffs: CoefficientSet):
    """``(library, domain's packed tag, family's packed tag)`` of the
    native march when it covers the study, else ``None``.

    It covers a built-in domain with a built-in family at d = m = 1 (the
    one-dimensional box) and at d = m = 2 and d = m = 3 (the box, the ball
    or the annulus), marched through that domain's and that set's own
    callables: the domain factories tag ``resolve_batch`` with their bounds
    or radii, and each family factory tags ``sigma``, ``b`` and
    ``grad_sigma`` with one shared tag (``coefficients._built_in``).  A
    replaced, wrapped or custom callable, any other dimension or no
    library (see ``brownian.native_library``) runs the numpy march, with
    the same bits.
    """
    shape = getattr(domain.resolve_batch, "native", None)
    tag = getattr(coeffs.sigma, "native", None)
    d = domain.dim
    if (
        shape is None
        or tag is None
        or (shape[0], tag[0], coeffs.dim_state, coeffs.dim_noise) != (d,) * 4
        or getattr(coeffs.b, "native", None) is not tag
        or getattr(coeffs.grad_sigma, "native", None) is not tag
        or hasattr(domain.resolve_batch, "__wrapped__")
        or hasattr(coeffs.sigma, "__wrapped__")
        or hasattr(coeffs.b, "__wrapped__")
        or hasattr(coeffs.grad_sigma, "__wrapped__")
    ):
        return None
    lib = brownian._native()
    return None if lib is None else (lib, shape[3], tag[3])
