"""Bounded domains with reflection directions and discrete constraint resolution.

A domain carries its boundary geometry (signed distance, closest-point
projection), a set-valued map of admissible reflection directions on the
boundary, and the certificate constants used by the admissibility checks:
the interior-cone constant, the uniform test function with its lower
gradient bound, and an optional finite cone cover.

Built-in domains: axis-aligned box (the interval is its d = 1 case), ball,
annulus.  The annulus is the non-convex representative (its inner sphere
forces a positive interior-cone constant) while keeping closed-form projections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .brownian import _SEED_MASK, check_whole
from .cover import D_MAX, native_tag
from .errors import (
    InfeasibleStep,
    NoBoundarySamples,
    OutOfDomain,
    ProjectionDiverged,
)

# Tolerances, fixed package-wide.
UNIT_NORM_TOL = 1e-12
MEMBERSHIP_TOL = 1e-10      # per unit of diameter; see closure_tol
CHECK_SLACK = 1e-9          # slack for the certificate inequalities
_BISECTION_ITERS = 200


@dataclass(frozen=True)
class DomainSpec:
    """Immutable description of a bounded domain with reflection data.

    ``boundary_distance`` is a signed distance-like function (negative
    inside, zero on the boundary, positive outside), so the open domain is
    where it is negative.  ``nu`` maps a boundary point to the unit
    generators of the admissible reflection cone.  ``c0`` and ``alpha`` are
    the certified interior-cone and gradient-bound constants; ``phi`` is the
    certified test function with its gradient oracle ``grad_phi``.

    ``boundary_distance`` and ``phi`` must accept batched points (an extra
    leading axis); ``nu`` and ``grad_phi`` are pointwise.  Instances are
    immutable and safe to share across concurrent simulations.

    ``resolve_batch(X, V)`` is the domain's one projection: for a batch of
    closure points ``X`` and displacements ``V``, both ``(B, d)``, it returns
    the resolved states and the regulator increments ``dL = state - (X + V)``.
    Every built-in domain defines it in closed form.  Without it, rows whose
    ``boundary_distance`` is at most ``closure_tol(domain)`` pass through and
    every other row bisects along the segment from ``interior_anchor``, which
    yields a feasible boundary point rather than the closest one.

    A point is in the closure when its ``boundary_distance`` is at most
    ``closure_tol(domain)``; ``contains``, the start checks and the
    resolution checks all use that one tolerance.
    """

    dim: int
    boundary_distance: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    nu: Callable[[np.ndarray], np.ndarray]
    c0: float
    alpha: float
    phi_name: str
    phi_range: tuple[float, float]
    diameter: float
    interior_anchor: np.ndarray
    name: str = "custom"
    sample_boundary: Callable[[int, np.random.Generator], np.ndarray] | None = None
    sample_interior: Callable[[int, np.random.Generator], np.ndarray] | None = None
    resolve_batch: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def epsilon_b(self) -> float:
        """Numeric thickening of the boundary for regulator-support tests."""
        return 1e-9 * self.diameter

    def contains(self, x) -> bool:
        """Whether every point of ``x``, shape ``(dim,)`` or ``(..., dim)``, is in the closure."""
        distances = np.asarray(self.boundary_distance(check_points(self, x, "x")), float)
        return bool(np.maximum.reduce(distances, None, initial=-math.inf) <= closure_tol(self))

    def certificate_dict(self) -> dict:
        return {"c0": self.c0, "alpha": self.alpha, "phi_name": self.phi_name}


@dataclass(frozen=True)
class SkorokhodStepResult:
    """Outcome of one constrained step: new state plus regulator increments."""

    state: np.ndarray
    regulator_increment: np.ndarray
    variation_increment: float


@dataclass(frozen=True)
class ConeCoverCertificate:
    """Finite cover of the boundary by balls with per-ball cone directions."""

    centers: np.ndarray
    radius: float
    directions: np.ndarray
    lam: float

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, float))
        directions = np.atleast_2d(np.asarray(self.directions, float))
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "directions", directions)
        if centers.shape != directions.shape:
            raise ValueError("centers and directions must have matching shapes")
        if self.radius <= 0 or self.lam <= 0:
            raise ValueError("radius and lambda must be positive")
        norms = np.linalg.norm(directions, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise ValueError("cone directions must be unit vectors")

    def to_json(self) -> str:
        return json.dumps({"centers": self.centers.tolist(), "radius": self.radius,
                           "directions": self.directions.tolist(), "lambda": self.lam})

    @classmethod
    def from_json(cls, text: str) -> "ConeCoverCertificate":
        obj = json.loads(text)
        return cls(np.asarray(obj["centers"], float), float(obj["radius"]),
                   np.asarray(obj["directions"], float), float(obj["lambda"]))


@dataclass(frozen=True)
class D1Report:
    """Estimated interior-cone constant with the attaining sample pair."""

    c0_hat: float
    worst_boundary_point: np.ndarray
    worst_interior_point: np.ndarray
    n_boundary: int
    n_interior: int


@dataclass(frozen=True)
class D2Report:
    """Estimated gradient lower bound with the attaining boundary point."""

    alpha_hat: float
    worst_point: np.ndarray
    n_boundary: int


@dataclass(frozen=True)
class D3Report:
    """Cover/direction verification of a cone cover certificate."""

    passed: bool
    cover_ok: bool
    directions_ok: bool
    worst_cover_distance: float
    worst_direction_margin: float
    n_boundary: int


# ---------------------------------------------------------------------------
# Constraint resolution
# ---------------------------------------------------------------------------

def closure_tol(domain: DomainSpec) -> float:
    """Largest ``boundary_distance`` of a closure point, scaled by the domain's size."""
    return MEMBERSHIP_TOL * max(1.0, domain.diameter)


def check_point(domain: DomainSpec, x, name: str) -> np.ndarray:
    """``x`` as a float array of shape ``(dim,)``, or a ``ValueError`` naming ``name``."""
    x = np.asarray(x, float)
    if x.shape != (domain.dim,):
        raise ValueError(f"{name} must have shape ({domain.dim},), got {x.shape}")
    return x


def check_points(domain: DomainSpec, x, name: str) -> np.ndarray:
    """``x`` as a float array of shape ``(..., dim)``, or a ``ValueError`` naming ``name``."""
    x = np.asarray(x, float)
    if x.shape[-1:] != (domain.dim,):
        raise ValueError(f"{name} must have shape (..., {domain.dim}), got {x.shape}")
    return x


def check_feasible(domain: DomainSpec, states, what: str, distances=None) -> None:
    """``InfeasibleStep`` naming ``what`` unless all ``states`` are finite closure
    points; a caller that found them finite may pass their ``distances``."""
    given = distances is not None
    worst = float(np.maximum.reduce(distances if given else domain.boundary_distance(states), None))
    if not (-math.inf < worst <= closure_tol(domain) and (given or np.isfinite(states).all())):
        raise InfeasibleStep(f"{what} outside the domain closure (distance {worst})")


def sum_squares(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a * a, axis=-1)``, bit for bit up to the sign of a
    NaN, in one order at every batch width.

    numpy reduces a short last axis with one inner loop per row, so a
    ``(B, 2)`` batch costs ``B`` loops of length two.  Up to seven terms
    that loop adds sequentially, which the column sum ``a0*a0 + a1*a1 + ...``
    reproduces with a handful of operations over the whole batch, as the
    native march adds them.  From eight terms numpy's loop adds in pairs,
    so there the reduction is used as is.  On a row holding two NaNs of
    different sign the reduction and the column sum may keep different
    ones: numpy's vector loops pick their operands in different orders.
    """
    d = a.shape[-1]
    if d >= 8:
        return np.add.reduce(a * a, axis=-1)
    # np.square(x) is x * x, from one view of the column.
    total = np.square(a[..., 0])
    for k in range(1, d):
        total += np.square(a[..., k])
    return total


def skorokhod_step(domain: DomainSpec, x, v) -> SkorokhodStepResult:
    """Resolve one unconstrained displacement against the domain closure.

    Returns the feasible state ``x + v + dL`` where ``dL`` is zero when
    ``x + v`` already lies in the closure, and otherwise points into the
    admissible reflection cone at the contact point.  The variation
    increment is the Euclidean norm of ``dL``.
    """
    x, v = check_point(domain, x, "x"), check_point(domain, v, "v")
    if not domain.contains(x):
        raise OutOfDomain(f"start point {x} is outside the domain closure")
    (state,), (d_l,) = _resolver(domain)(x[None, :], v[None, :])
    check_feasible(domain, state, "resolved state")
    return SkorokhodStepResult(state, d_l, float(np.linalg.norm(d_l)))


def project_to_closure(domain: DomainSpec, y) -> np.ndarray:
    """Closest point of the closure for built-ins; idempotent on the closure.

    Domains without ``resolve_batch`` fall back to bisection along the
    segment from a certified interior anchor, which yields a feasible
    boundary point rather than the true closest point.  Raises
    ``ProjectionDiverged`` where the projection is not finite (the centre
    of an annulus).
    """
    y = check_point(domain, y, "y")
    state = _resolver(domain)(y[None, :], np.zeros((1, len(y))))[0][0]
    if not np.all(np.isfinite(state)):
        raise ProjectionDiverged(f"no closest point of the closure for {y}")
    return state


def _resolver(domain: DomainSpec):
    """The batched resolution ``(X, V) -> (state, dL)`` of ``domain``."""
    if domain.resolve_batch is not None:
        return domain.resolve_batch
    return partial(_bisection_resolve, domain)


def _bisection_resolve(domain: DomainSpec, X: np.ndarray, V: np.ndarray):
    Y = X + V
    state = Y.copy()
    # Rows whose distance is not known to be within tolerance (NaN too) bisect.
    outside = ~(domain.boundary_distance(Y) <= closure_tol(domain))
    if np.any(outside):
        anchor = np.asarray(domain.interior_anchor, float)
        if domain.boundary_distance(anchor) >= 0:
            raise ProjectionDiverged("interior anchor is not strictly inside the domain")
        seg = Y[outside] - anchor
        lo = np.zeros(len(seg))
        hi = np.ones(len(seg))
        for _ in range(_BISECTION_ITERS):
            mid = 0.5 * (lo + hi)
            inside = domain.boundary_distance(anchor + mid[:, None] * seg) <= 0.0
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        points = anchor + lo[:, None] * seg
        diverged = domain.boundary_distance(points) > closure_tol(domain)
        if np.any(diverged):
            y = Y[outside][np.argmax(diverged)]
            raise ProjectionDiverged(f"bisection failed to reach the closure from {y}")
        state[outside] = points
    return state, state - Y


def cone_angle(generators: np.ndarray, vector: np.ndarray) -> float:
    """Angle in radians between a vector and the convex cone of generators."""
    # scipy costs about half a second and 50 MB at import, and only this
    # function needs it, so the engine path never loads it.
    from scipy.optimize import nnls

    vector = np.asarray(vector, float)
    generators = np.atleast_2d(np.asarray(generators, float))
    norm_v = np.linalg.norm(vector)
    if norm_v == 0.0:
        return 0.0
    if generators.shape[0] == 1:
        cos = float(generators[0] @ vector) / (norm_v * np.linalg.norm(generators[0]))
        return float(np.arccos(np.clip(cos, -1.0, 1.0)))
    weights, _ = nnls(generators.T, vector)
    proj = generators.T @ weights
    norm_p = np.linalg.norm(proj)
    if norm_p < 1e-300:
        cos = float(np.max(generators @ vector)) / norm_v
        return float(np.arccos(np.clip(cos, -1.0, 1.0)))
    cos = float(vector @ proj) / (norm_v * norm_p)
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# Certificate checks
# ---------------------------------------------------------------------------

def _samples(domain: DomainSpec, where: str, n, seed: int, stream: int) -> np.ndarray:
    """``n`` points of ``domain``'s ``where`` sampler ("boundary" or
    "interior"), drawn from stream ``stream`` of ``seed``.  ``n`` is a whole
    number (a ``ValueError`` naming ``n_<where>`` otherwise); fewer than one
    point, asked for or drawn, is ``NoBoundarySamples``."""
    n = check_whole(f"n_{where}", n, 0)
    if n < 1:
        raise NoBoundarySamples(f"n_{where} must be at least 1")
    sampler = {"boundary": domain.sample_boundary, "interior": domain.sample_interior}[where]
    if sampler is None:
        raise NoBoundarySamples(f"domain {domain.name!r} has no {where} sampler")
    seed = check_whole("seed", seed, None) & _SEED_MASK
    pts = sampler(n, np.random.default_rng(np.random.SeedSequence([seed, stream])))
    if len(pts) == 0:
        raise NoBoundarySamples(f"{where} sampler returned no points")
    return pts


def check_d1(domain: DomainSpec, n_boundary: int, n_interior: int, seed: int) -> D1Report:
    """Estimate the smallest interior-cone constant over sampled pairs.

    Maximizes ``-(x' - x) . nu / |x - x'|^2`` over sampled boundary points
    (with every admissible direction) and interior points; clamped at zero.
    """
    boundary = _samples(domain, "boundary", n_boundary, seed, 1)
    interior = _samples(domain, "interior", n_interior, seed, 2)

    best = 0.0
    worst_b = boundary[0]
    worst_i = interior[0]
    for x in boundary:
        diff = interior - x                      # (n_i, d)
        sq = np.einsum("ij,ij->i", diff, diff)
        sq = np.where(sq < 1e-300, np.inf, sq)
        for direction in np.atleast_2d(domain.nu(x)):
            ratio = -(diff @ direction) / sq
            j = int(np.argmax(ratio))
            if ratio[j] > best:
                best = float(ratio[j])
                worst_b, worst_i = x, interior[j]
    return D1Report(best, worst_b, worst_i, n_boundary, n_interior)


def check_d2(domain: DomainSpec, n_boundary: int, seed: int) -> D2Report:
    """Estimate the uniform lower bound of ``grad(phi) . nu`` on the boundary."""
    boundary = _samples(domain, "boundary", n_boundary, seed, 3)
    alpha_hat = np.inf
    worst = boundary[0]
    for x in boundary:
        grad = domain.grad_phi(x)
        for direction in np.atleast_2d(domain.nu(x)):
            val = float(grad @ direction)
            if val < alpha_hat:
                alpha_hat = val
                worst = x
    return D2Report(float(alpha_hat), worst, n_boundary)


def check_d3(
    domain: DomainSpec,
    cert: ConeCoverCertificate,
    n_boundary: int,
    seed: int,
) -> D3Report:
    """Verify both clauses of a supplied cone cover certificate on samples.

    Clause one: every sampled boundary point lies within the cover radius of
    some center.  Clause two: within twice the radius of a center, every
    admissible direction has inner product at least lambda with that
    center's cone direction.
    """
    boundary = _samples(domain, "boundary", n_boundary, seed, 4)

    worst_cover = 0.0
    worst_margin = np.inf
    for x in boundary:
        dists = np.linalg.norm(cert.centers - x, axis=1)
        worst_cover = max(worst_cover, float(np.min(dists)))
        near = np.nonzero(dists <= 2.0 * cert.radius + CHECK_SLACK)[0]
        if len(near) == 0:
            continue
        directions = np.atleast_2d(domain.nu(x))
        margins = directions @ cert.directions[near].T - cert.lam
        worst_margin = min(worst_margin, float(np.min(margins)))
    cover_ok = worst_cover <= cert.radius + CHECK_SLACK
    directions_ok = bool(worst_margin >= -CHECK_SLACK)
    return D3Report(cover_ok and directions_ok, cover_ok, directions_ok, worst_cover,
                    float(worst_margin), n_boundary)


# ---------------------------------------------------------------------------
# Built-in domains
# ---------------------------------------------------------------------------

def _unit_directions(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` uniformly random unit vectors in ``R^d``: normalised Gaussian rows."""
    z = rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def _check_finite(**sizes) -> None:
    """A ``ValueError`` naming the first of ``sizes`` with an entry that is
    not finite."""
    for name, value in sizes.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")


def interval(a: float, b: float) -> DomainSpec:
    """Open interval (a, b): the one-dimensional ``box``, inward normals at a and b."""
    _check_finite(a=a, b=b)
    if not b > a:
        raise ValueError("interval requires b > a")
    return replace(box([a], [b]), name="interval", phi_name="endpoint-product")


def box(lo, hi) -> DomainSpec:
    """Axis-aligned open box with normal-cone reflection on faces and corners."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    _check_finite(lo=lo, hi=hi)
    if lo.ndim != 1 or lo.shape != hi.shape or not np.all(hi > lo):
        raise ValueError("box requires 1-d lo < hi componentwise")
    d = len(lo)
    widths = hi - lo

    def bdist(x):
        x = np.asarray(x, float)
        return np.max(np.maximum(lo - x, x - hi), axis=-1)

    def nu(x):
        x = np.asarray(x, float)
        tol = 1e-9 * float(np.max(widths))
        gens = []
        for i in range(d):
            if abs(x[i] - lo[i]) <= tol:
                e = np.zeros(d)
                e[i] = 1.0
                gens.append(e)
            if abs(x[i] - hi[i]) <= tol:
                e = np.zeros(d)
                e[i] = -1.0
                gens.append(e)
        if not gens:
            raise OutOfDomain(f"{x} is not a boundary point of the box")
        return np.asarray(gens)

    def sample_boundary(n, rng):
        pts = rng.uniform(lo, hi, (n, d))
        faces = rng.integers(0, d, n)
        sides = rng.integers(0, 2, n)
        pts[np.arange(n), faces] = np.where(sides == 0, lo[faces], hi[faces])
        return pts

    # Scalar bounds at d = 1 broadcast at less cost per call.
    lo_b, hi_b = (float(lo[0]), float(hi[0])) if d == 1 else (lo, hi)

    def resolve_batch(X, V):
        y = X + V
        # np.clip's values at half its cost (NaN too); a tie with a bound takes the bound's bits.
        state = np.minimum(np.maximum(y, lo_b), hi_b)
        return state, state - y

    if d <= D_MAX:
        # The bounds the native march clips to (cover.native_march).
        resolve_batch.native = native_tag(d, "box", (*lo.tolist(), *hi.tolist()))

    def phi(x):
        x = np.asarray(x, float)
        return np.sum((x - lo) * (hi - x), axis=-1)

    return DomainSpec(
        dim=d,
        boundary_distance=bdist,
        phi=phi,
        grad_phi=lambda x: lo + hi - 2.0 * np.asarray(x, float),
        nu=nu,
        c0=0.0,
        alpha=float(np.min(widths)),
        phi_name="face-product-sum",
        phi_range=(0.0, float(np.sum((0.5 * widths) ** 2))),
        diameter=float(np.linalg.norm(widths)),
        interior_anchor=0.5 * (lo + hi),
        name="box",
        sample_boundary=sample_boundary,
        sample_interior=lambda n, rng: rng.uniform(lo, hi, (n, d)),
        resolve_batch=resolve_batch,
    )


def ball(radius: float, dim: int = 2) -> DomainSpec:
    """Open ball of given radius centered at the origin, inward normals."""
    _check_finite(radius=radius)
    if radius <= 0:
        raise ValueError("ball requires a positive radius")
    radius = float(radius)
    d = check_whole("dim", dim, 1)

    def bdist(x):
        # np.linalg.norm(x, axis=-1), bit for bit.
        return np.sqrt(sum_squares(np.asarray(x, float))) - radius

    def nu(x):
        x = np.asarray(x, float)
        r = np.linalg.norm(x)
        if abs(r - radius) > 1e-6 * radius:
            raise OutOfDomain(f"{x} is not on the sphere of radius {radius}")
        return (-x / r)[None, :]

    def sample_boundary(n, rng):
        return radius * _unit_directions(n, d, rng)

    def sample_interior(n, rng):
        z = _unit_directions(n, d, rng)
        r = radius * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / d)
        return r * z

    def resolve_batch(X, V):
        y = X + V
        # np.linalg.norm(y, axis=1), bit for bit.
        r = np.sqrt(sum_squares(y))
        # Only the pushed rows are scaled; NaN rows compare False and pass.
        out = (r > radius).nonzero()[0]
        state = y.copy()
        if len(out):
            state[out] = y[out] * (radius / r[out])[:, None]
        return state, state - y

    if 2 <= d <= D_MAX:
        # The radius the native march pushes to (cover.native_march).
        resolve_batch.native = native_tag(d, "ball", (radius,))

    return DomainSpec(
        dim=d,
        boundary_distance=bdist,
        phi=lambda x: radius**2 - np.sum(np.asarray(x, float) ** 2, axis=-1),
        grad_phi=lambda x: -2.0 * np.asarray(x, float),
        nu=nu,
        c0=0.0,
        alpha=2.0 * radius,
        phi_name="radius-squared-gap",
        phi_range=(0.0, radius**2),
        diameter=2.0 * radius,
        interior_anchor=np.zeros(d),
        name="ball",
        sample_boundary=sample_boundary,
        sample_interior=sample_interior,
        resolve_batch=resolve_batch,
    )


def annulus(r1: float, r2: float, dim: int = 2) -> DomainSpec:
    """Open annulus r1 < |x| < r2; non-convex, inner sphere pushes outward."""
    _check_finite(r1=r1, r2=r2)
    if not 0 < r1 < r2:
        raise ValueError("annulus requires 0 < r1 < r2")
    r1, r2 = float(r1), float(r2)
    d = check_whole("dim", dim, 1)
    rm = 0.5 * (r1 + r2)

    def bdist(x):
        # np.linalg.norm(x, axis=-1), bit for bit.
        r = np.sqrt(sum_squares(np.asarray(x, float)))
        return np.maximum(r1 - r, r - r2)

    def nu(x):
        x = np.asarray(x, float)
        r = np.linalg.norm(x)
        tol = 1e-6 * r2
        if abs(r - r2) <= tol:
            return (-x / r)[None, :]
        if abs(r - r1) <= tol:
            return (x / r)[None, :]
        raise OutOfDomain(f"{x} is not on either sphere of the annulus")

    def sample_boundary(n, rng):
        z = _unit_directions(n, d, rng)
        w_inner = r1 ** (d - 1)
        w_outer = r2 ** (d - 1)
        inner = rng.uniform(0.0, 1.0, n) < w_inner / (w_inner + w_outer)
        return np.where(inner[:, None], r1 * z, r2 * z)

    def sample_interior(n, rng):
        z = _unit_directions(n, d, rng)
        u = rng.uniform(0.0, 1.0, (n, 1))
        r = (r1**d + u * (r2**d - r1**d)) ** (1.0 / d)
        return r * z

    def phi(x):
        x = np.asarray(x, float)
        return -((np.linalg.norm(x, axis=-1) - rm) ** 2)

    def grad_phi(x):
        x = np.asarray(x, float)
        r = np.linalg.norm(x)
        return -2.0 * (r - rm) * x / r

    def resolve_batch(X, V):
        y = X + V
        # np.linalg.norm(y, axis=1), bit for bit.
        r = np.sqrt(sum_squares(y))
        # Only the pushed rows are scaled; NaN rows compare False and pass,
        # and the centre (r == 0) has no closest point, so it becomes NaN.
        out = ((r < r1) | (r > r2)).nonzero()[0]
        state = y.copy()
        if len(out):
            ro = r[out]
            scale = np.where(ro < r1, r1, r2) / np.where(ro == 0.0, np.nan, ro)
            state[out] = y[out] * scale[:, None]
        return state, state - y

    if 2 <= d <= D_MAX:
        # The radii the native march pushes to (cover.native_march).
        resolve_batch.native = native_tag(d, "annulus", (r1, r2))

    return DomainSpec(
        dim=d,
        boundary_distance=bdist,
        phi=phi,
        grad_phi=grad_phi,
        nu=nu,
        c0=1.0 / (2.0 * r1),
        alpha=r2 - r1,
        phi_name="midradius-gap-squared",
        phi_range=(-((0.5 * (r2 - r1)) ** 2), 0.0),
        diameter=2.0 * r2,
        interior_anchor=np.concatenate([[rm], np.zeros(d - 1)]),
        name="annulus",
        sample_boundary=sample_boundary,
        sample_interior=sample_interior,
        resolve_batch=resolve_batch,
    )


_DOMAIN_FACTORIES = {
    "interval": interval,
    "box": box,
    "ball": ball,
    "annulus": annulus,
}


def make_domain(name: str, **params) -> DomainSpec:
    """Build a built-in domain by config name."""
    try:
        factory = _DOMAIN_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown domain {name!r}; known: {sorted(_DOMAIN_FACTORIES)}")
    return factory(**params)
