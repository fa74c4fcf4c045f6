"""Which studies the native march (``_march.c``) covers, and what it reads.

``native_march`` is the one place that decides whether a study marches in
C and that packs the parameters the C kernels read; ``_march.c``'s header
gives their layout.  It covers a built-in family on a one-dimensional box
at d = m = 1, and on a box, ball or annulus at d = m = 2, at every batch
width, a single path included.  ``solvers`` runs every other study with
the numpy march, with the same bits.
"""

from __future__ import annotations

import numpy as np

from . import brownian
from .coefficients import CoefficientSet
from .geometry import DomainSpec

DOMAINS = ("box", "ball", "annulus")
FAMILIES = ("constant", "linear", "trig")


def native_march(domain: DomainSpec, coeffs: CoefficientSet):
    """``(library, kind, parameters)`` of the native march when it covers
    the study, else ``None``.

    It covers a built-in domain with a built-in family at d = m = 1 (the
    one-dimensional box) and at d = m = 2 (the box, the ball or the
    annulus), marched through that domain's and that set's own
    callables: the domain factories tag ``resolve_batch`` with their bounds
    or radii, and each family factory tags ``sigma``, ``b`` and
    ``grad_sigma`` with one shared ``(d, family, values)``
    (``coefficients._built_in``).  A replaced, wrapped or custom callable,
    any other dimension or no library (see ``brownian.native_library``)
    runs the numpy march, with the same bits.  The parameters are four
    slots of the domain's bounds or radii, then the family's values.
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
    if lib is None:
        return None
    (_, name, bounds), (_, family, values) = shape, tag
    kind = np.array([d, DOMAINS.index(name), FAMILIES.index(family)], np.int64)
    return lib, kind, np.array((*bounds, *(0.0,) * (4 - len(bounds)), *values))

