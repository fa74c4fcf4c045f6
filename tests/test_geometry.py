import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflectedsde as rs
from reflectedsde.errors import (
    InfeasibleStep,
    NoBoundarySamples,
    OutOfDomain,
    ProjectionDiverged,
)
from reflectedsde.geometry import (
    MEMBERSHIP_TOL,
    _resolver,
    check_feasible,
    closure_tol,
    sum_squares,
)


# ---------------------------------------------------------------------------
# Constraint step
# ---------------------------------------------------------------------------

def test_interior_move_no_contact(unit_box):
    res = rs.skorokhod_step(unit_box, [0.5, 0.5], [0.2, 0.1])
    np.testing.assert_allclose(res.state, [0.7, 0.6], atol=1e-15)
    assert np.all(res.regulator_increment == 0.0)
    assert res.variation_increment == 0.0


def test_box_step_is_coordinate_clipping(unit_box):
    res = rs.skorokhod_step(unit_box, [0.9, 0.5], [0.3, 0.0])
    np.testing.assert_allclose(res.state, [1.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(res.regulator_increment, [-0.2, 0.0], atol=1e-15)


def test_interval_step_clips(unit_interval):
    res = rs.skorokhod_step(unit_interval, [0.95], [0.1])
    assert res.state[0] == 1.0
    np.testing.assert_allclose(res.regulator_increment, [-0.05], atol=1e-15)
    np.testing.assert_allclose(res.variation_increment, 0.05, atol=1e-15)


def test_interval_resolution_equals_clipping(unit_interval, rng):
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, 1.0, -1.0 - 1e-16, 1.0 + 1e-16]
    for B in (1, 2, 7, 667, 2000):
        y = rng.standard_normal((B, 1)) * 1.5
        y[: min(B, len(specials)), 0] = specials[:B]
        # Adding -0.0 leaves every value, -0.0 included, as it is.
        state, dl = unit_interval.resolve_batch(y, np.full_like(y, -0.0))
        clipped = np.clip(y, -1.0, 1.0)
        # Bytes, so NaN and the sign of zero count too.
        assert state.tobytes() == clipped.tobytes()
        with np.errstate(invalid="ignore"):
            assert dl.tobytes() == (clipped - y).tobytes()


@pytest.mark.parametrize(
    "lo, hi",
    [
        ([-0.0], [1.0]), ([-1.0], [0.0]), ([0.0], [1.0]), ([-1.0], [-0.0]),
        ([-0.0, -1.0], [1.0, 0.0]), ([0.0, -1.0], [1.0, -0.0]), ([-1.0, -1.0], [1.0, 1.0]),
    ],
)
def test_box_resolution_equals_clipping(lo, hi, rng):
    """The box resolves to ``np.clip``'s values, and where a coordinate equals
    a bound (a zero of either sign against a signed-zero bound) it takes the
    bound's bits.  ``np.clip`` itself keeps the coordinate's zero at d = 1 and
    takes the bound's at d = 2, so its bytes are no reference at those ties."""
    domain = rs.box(lo, hi)
    lo, hi = np.asarray(lo), np.asarray(hi)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, 1.0, -1.0 - 1e-16, 1.0 + 1e-16]
    for B in (1, 2, 7, 64, 667, 2000):
        y = rng.standard_normal((B, domain.dim)) * 1.5
        for k in range(domain.dim):
            column = np.roll(specials, 2 * k)[:B]
            y[: len(column), k] = column
        state, dl = domain.resolve_batch(y, np.full_like(y, -0.0))
        with np.errstate(invalid="ignore"):
            expected = np.where(y <= lo, lo, np.where(y >= hi, hi, y))
            assert dl.tobytes() == (expected - y).tobytes()
        assert state.tobytes() == expected.tobytes()
        assert np.array_equal(state, np.clip(y, lo, hi), equal_nan=True)


def test_interval_is_the_one_dimensional_box():
    a, b = -0.3, 0.4
    interval, box = rs.interval(a, b), rs.box([a], [b])
    grid = np.concatenate([np.linspace(-1.0, 1.0, 201), [a, b, -0.0, np.nan, np.inf, -np.inf]])
    grid = grid[:, None]
    with np.errstate(invalid="ignore"):
        for name in ("boundary_distance", "phi"):
            assert getattr(interval, name)(grid).tobytes() == getattr(box, name)(grid).tobytes()
        for x in grid:
            assert interval.grad_phi(x).tobytes() == box.grad_phi(x).tobytes()
        steps = np.full_like(grid, 0.25)
        for got, want in zip(interval.resolve_batch(grid, steps), box.resolve_batch(grid, steps)):
            assert got.tobytes() == want.tobytes()
    for x in ([a], [b]):
        assert interval.nu(x).tobytes() == box.nu(x).tobytes()
    for domain in (interval, box):
        with pytest.raises(OutOfDomain, match="the box"):
            domain.nu([0.0])
    for name in ("sample_boundary", "sample_interior"):
        draws = [getattr(d, name)(50, np.random.default_rng(4)) for d in (interval, box)]
        assert draws[0].tobytes() == draws[1].tobytes()
    assert interval.interior_anchor.tobytes() == box.interior_anchor.tobytes()
    assert dataclasses.replace(
        interval, name="box", phi_name="face-product-sum"
    ).certificate_dict() == box.certificate_dict()
    assert (interval.dim, interval.c0, interval.alpha, interval.phi_range, interval.diameter) == (
        box.dim, box.c0, box.alpha, box.phi_range, box.diameter
    )
    assert (interval.name, interval.phi_name) == ("interval", "endpoint-product")


def test_box_oracle_dense_grid(unit_box):
    # Exhaustive clip-oracle comparison on a grid of starting points and moves.
    pts = np.linspace(0.0, 1.0, 6)
    moves = np.linspace(-0.45, 0.45, 7)
    for x1 in pts:
        for x2 in pts:
            for v1 in moves:
                for v2 in moves:
                    x = np.array([x1, x2])
                    v = np.array([v1, v2])
                    res = rs.skorokhod_step(unit_box, x, v)
                    clipped = np.clip(x + v, 0.0, 1.0)
                    assert np.max(np.abs(res.state - clipped)) <= 1e-14
                    assert np.max(np.abs(res.regulator_increment - (clipped - x - v))) <= 1e-14


def test_box_oracle_random_cases(unit_box, rng):
    X = rng.uniform(0.0, 1.0, (10_000, 2))
    V = rng.uniform(-0.5, 0.5, (10_000, 2))
    for x, v in zip(X, V):
        res = rs.skorokhod_step(unit_box, x, v)
        clipped = np.clip(x + v, 0.0, 1.0)
        assert np.max(np.abs(res.state - clipped)) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(
    x1=st.floats(0.0, 1.0),
    x2=st.floats(0.0, 1.0),
    v1=st.floats(-0.5, 0.5),
    v2=st.floats(-0.5, 0.5),
)
def test_box_clip_equivalence_property(x1, x2, v1, v2):
    domain = rs.box([0.0, 0.0], [1.0, 1.0])
    x = np.array([x1, x2])
    v = np.array([v1, v2])
    res = rs.skorokhod_step(domain, x, v)
    np.testing.assert_array_equal(res.state, np.clip(x + v, 0.0, 1.0))


def test_step_result_invariants(unit_ball, rng):
    for _ in range(300):
        x = unit_ball.sample_interior(1, rng)[0]
        v = rng.normal(0.0, 0.4, 2)
        res = rs.skorokhod_step(unit_ball, x, v)
        assert float(unit_ball.boundary_distance(res.state)) <= 1e-10
        assert res.variation_increment >= np.linalg.norm(res.regulator_increment) - 1e-12
        if res.variation_increment == 0.0:
            assert np.all(res.regulator_increment == 0.0)
        else:
            assert np.any(res.regulator_increment != 0.0)


@pytest.mark.parametrize("name", ["interval", "box", "ball", "annulus"])
def test_push_direction_in_cone(name, rng):
    domain = _builtin(name)
    # A displacement scale per domain, small against its width.
    reach = {"interval": 1.0, "box": 0.5, "ball": 1.0, "annulus": 0.25}[name]
    pushed = 0
    for _ in range(500):
        x = domain.sample_interior(1, rng)[0]
        v = rng.normal(0.0, 0.3 * domain.diameter, domain.dim)
        v = np.clip(v, -reach, reach)
        res = rs.skorokhod_step(domain, x, v)
        if res.variation_increment > 0:
            pushed += 1
            gens = domain.nu(res.state)
            assert rs.cone_angle(gens, res.regulator_increment) <= 1e-6
    assert pushed > 10


def test_out_of_domain_start(unit_ball):
    for x in ([2.0, 0.0], [np.nan, 0.0]):
        with pytest.raises(OutOfDomain):
            rs.skorokhod_step(unit_ball, x, [0.0, 0.0])


def test_regulator_nullity_along_trajectory(unit_interval, rng):
    x = np.array([0.0])
    for _ in range(400):
        res = rs.skorokhod_step(unit_interval, x, rng.normal(0.0, 0.3, 1))
        if res.variation_increment > 0:
            assert float(unit_interval.boundary_distance(res.state)) >= -unit_interval.epsilon_b
        x = res.state


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_projection_examples(unit_ball, thick_annulus, unit_box):
    np.testing.assert_allclose(rs.project_to_closure(unit_ball, [2.0, 0.0]), [1.0, 0.0])
    np.testing.assert_allclose(rs.project_to_closure(thick_annulus, [0.2, 0.0]), [0.5, 0.0])
    np.testing.assert_allclose(rs.project_to_closure(unit_box, [1.3, -0.2]), [1.0, 0.0])


def test_projection_idempotent(unit_ball, rng):
    pts = unit_ball.sample_interior(50, rng)
    for x in pts:
        np.testing.assert_array_equal(rs.project_to_closure(unit_ball, x), x)


def test_generic_bisection_fallback(unit_ball):
    # Strip the closed-form projection; the fallback must still land on the closure.
    stripped = dataclasses.replace(unit_ball, resolve_batch=None)
    p = rs.project_to_closure(stripped, np.array([1.5, 0.9]))
    assert abs(float(stripped.boundary_distance(p))) <= 1e-9
    res = rs.skorokhod_step(stripped, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    assert float(stripped.boundary_distance(res.state)) <= 1e-9


# The fields README lists for a custom domain: the required ones, then the
# optional ones (``resolve_batch`` aside).
_REQUIRED_FIELDS = (
    "dim", "boundary_distance", "phi", "grad_phi", "nu", "c0", "alpha",
    "phi_name", "phi_range", "diameter", "interior_anchor",
)
_OPTIONAL_FIELDS = ("name", "sample_boundary", "sample_interior")


def test_custom_domain_from_the_documented_fields(unit_ball):
    required = {
        f.name for f in dataclasses.fields(rs.DomainSpec)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    assert required == set(_REQUIRED_FIELDS)
    custom = rs.DomainSpec(
        **{key: getattr(unit_ball, key) for key in _REQUIRED_FIELDS + _OPTIONAL_FIELDS}
    )
    stripped = dataclasses.replace(unit_ball, resolve_batch=None)
    coeffs = rs.trig(
        offset=[[0.6, 0.1], [0.1, 0.6]],
        amplitude=[[0.3, 0.1], [0.1, 0.3]],
        frequency=[1.0, 2.0],
        drift_matrix=[[-0.5, 0.0], [0.0, -0.5]],
    )
    args = (coeffs, [0.5, 0.0], 1.0, (3, 4), 8, 3, 4, 5)
    ours = rs.run_coupling_stats(rs.Study(custom, *args))
    theirs = rs.run_coupling_stats(rs.Study(stripped, *args))
    assert np.any(ours.var_final > 0.0)  # the bisection ran
    for name in ("sup_dist", "final_dist", "f_final", "var_final", "ref_var_final"):
        np.testing.assert_array_equal(getattr(ours, name), getattr(theirs, name))
    for check, n in ((rs.check_d1, (100, 300)), (rs.check_d2, (100,))):
        ours, theirs = check(custom, *n, seed=7), check(stripped, *n, seed=7)
        for f in dataclasses.fields(ours):
            np.testing.assert_array_equal(getattr(ours, f.name), getattr(theirs, f.name))


def test_projection_diverges_at_annulus_center(thick_annulus):
    with pytest.raises(ProjectionDiverged):
        rs.project_to_closure(thick_annulus, np.zeros(2))


@pytest.mark.parametrize("stripped", [False, True], ids=["closed-form", "bisection"])
@pytest.mark.parametrize("name", ["interval", "box", "ball", "annulus"])
def test_batched_resolution_matches_row_by_row(name, stripped, rng):
    domain = _builtin(name)
    if stripped:
        domain = dataclasses.replace(domain, resolve_batch=None)
    X = domain.sample_interior(64, rng)
    V = rng.normal(0.0, 0.4 * domain.diameter, X.shape)
    outside = domain.boundary_distance(X + V) > 0.0
    assert 0 < np.count_nonzero(outside) < len(X)

    resolve = _resolver(domain)
    state, d_l = resolve(X, V)
    for i in range(len(X)):
        row_state, row_d_l = resolve(X[i : i + 1], V[i : i + 1])
        np.testing.assert_array_equal(state[i], row_state[0])
        np.testing.assert_array_equal(d_l[i], row_d_l[0])
    assert np.all(domain.boundary_distance(state) <= MEMBERSHIP_TOL)
    np.testing.assert_array_equal(d_l[~outside], 0.0)
    assert np.all(np.any(d_l[outside] != 0.0, axis=1))


def _same_bits(a, b):
    """Equal shapes, NaN at the same places and every other element bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


@pytest.mark.parametrize("d", range(1, 10))
def test_sum_squares_is_the_reduction_bit_for_bit(d):
    # numpy adds up to seven terms of a short axis sequentially and from
    # eight in pairs; the column sum must match both regimes.
    rng = np.random.default_rng(d)
    for shape in ((2000, d), (5, 300, d), (1, d)):
        a = rng.standard_normal(shape)
        flat = a.reshape(-1)
        flat[rng.choice(flat.size, min(flat.size, 40), replace=False)] = np.resize(
            [np.nan, np.inf, -np.inf, -0.0, 0.0], min(flat.size, 40)
        )
        with np.errstate(invalid="ignore"):
            assert _same_bits(sum_squares(a), np.add.reduce(a * a, axis=-1))


def _ball_where(radius):
    """The ball's projection spelled with np.where over every row: the reference."""

    def resolve(X, V):
        y = X + V
        r = np.linalg.norm(y, axis=1)
        outside = r > radius
        scale = np.where(outside, radius / np.where(r == 0.0, 1.0, r), 1.0)
        state = np.where(outside[:, None], y * scale[:, None], y)
        return state, state - y

    return resolve


def _annulus_where(r1, r2):
    """The annulus's projection spelled with np.where over every row: the reference."""

    def resolve(X, V):
        y = X + V
        r = np.linalg.norm(y, axis=1)
        safe = np.where(r == 0.0, np.nan, r)
        scale = np.where(r < r1, r1 / safe, np.where(r > r2, r2 / safe, 1.0))
        violated = (r < r1) | (r > r2)
        state = np.where(violated[:, None], y * scale[:, None], y)
        return state, state - y

    return resolve


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", ["ball", "annulus"])
def test_pushed_row_projection_equals_the_where_spelling(name, dim, rng):
    if name == "ball":
        domain, old = rs.ball(1.3, dim=dim), _ball_where(1.3)
        radii = [1.3]
    else:
        domain, old = rs.annulus(0.5, 1.5, dim=dim), _annulus_where(0.5, 1.5)
        radii = [0.5, 1.5]
    e = np.eye(dim)
    special = [np.zeros(dim), np.full(dim, np.nan), np.r_[np.nan, np.ones(dim - 1)],
               np.r_[np.inf, np.zeros(dim - 1)], -0.0 * e[0]]
    special += [s * r * e[k] for r in radii for k in range(dim) for s in (1.0, -1.0)]
    on_sphere = rng.standard_normal((8, dim))
    on_sphere *= (radii[-1] / np.linalg.norm(on_sphere, axis=1))[:, None]
    mixed = rng.uniform(-2.0, 2.0, (500, dim))
    inside = domain.sample_interior(50, rng)
    batches = [np.vstack([special, on_sphere, mixed]), inside, mixed[:1], inside[:1]]
    batches += [row[None] for row in special]
    for Y in batches:
        X, V = np.zeros_like(Y), Y
        with np.errstate(invalid="ignore"):
            state, d_l = domain.resolve_batch(X, V)
            old_state, old_d_l = old(X, V)
        assert _same_bits(state, old_state)
        assert _same_bits(d_l, old_d_l)
    state, d_l = domain.resolve_batch(np.zeros_like(inside), inside)
    assert np.array_equal(state, inside) and not np.any(d_l)


def _norm_checks(domain, radii):
    """The ball's or the annulus's distance, membership and feasibility
    check spelled with np.linalg.norm: the reference."""

    def distance(x):
        r = np.linalg.norm(np.asarray(x, float), axis=-1)
        return r - radii[0] if len(radii) == 1 else np.maximum(radii[0] - r, r - radii[1])

    def contains(x):
        return bool(np.all(distance(x) <= closure_tol(domain)))

    def feasible(states):
        worst = float(np.max(distance(states)))
        ok = np.isfinite(worst) and worst <= closure_tol(domain) and np.all(np.isfinite(states))
        return None if ok else f"states outside the domain closure (distance {worst})"

    return distance, contains, feasible


def _feasible(domain, states):
    try:
        check_feasible(domain, states, "states")
    except InfeasibleStep as error:
        return str(error)
    return None


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", ["ball", "annulus"])
def test_distances_and_closure_checks_equal_the_norm_spelling(name, dim, rng):
    # boundary_distance, contains and check_feasible give np.linalg.norm's
    # bits (up to the sign of a NaN) on random rows, rows on the spheres
    # and rows that hold infinities, NaNs or values whose squares overflow,
    # one row at a time and in batches of one and two leading axes.
    radii = [1.3] if name == "ball" else [0.5, 1.5]
    domain = rs.ball(1.3, dim=dim) if name == "ball" else rs.annulus(0.5, 1.5, dim=dim)
    distance, contains, feasible = _norm_checks(domain, radii)
    e, pad = np.eye(dim), np.zeros(dim - 2)
    special = [np.zeros(dim), -0.0 * e[0], np.full(dim, np.nan), np.r_[np.nan, 1.0, pad],
               np.r_[np.inf, 0.0, pad], np.r_[-np.inf, np.nan, pad], np.r_[np.inf, -np.inf, pad],
               np.full(dim, 1e200), np.r_[1e200, -1e-200, pad], 1e154 * e[-1]]
    special += [s * r * e[k] for r in radii for k in range(dim) for s in (1.0, -1.0)]
    on_spheres = rng.standard_normal((16, dim))
    on_spheres *= (np.resize(radii, 16) / np.linalg.norm(on_spheres, axis=1))[:, None]
    inside = domain.sample_interior(50, rng)
    rows = np.vstack([special, on_spheres, inside, rng.uniform(-2.0, 2.0, (200, dim))])
    batches = [rows, rows.reshape(-1, 2, dim), inside, on_spheres, *rows]
    with np.errstate(over="ignore", invalid="ignore"):
        for x in batches:
            assert _same_bits(domain.boundary_distance(x), distance(x))
            assert domain.contains(x) == contains(x)
            assert _feasible(domain, x) == feasible(x)


def test_bisection_agrees_with_closed_form_on_the_ball(unit_ball, rng):
    # The ball's anchor is its centre, so bisection runs along the radius.
    stripped = dataclasses.replace(unit_ball, resolve_batch=None)
    X = unit_ball.sample_interior(200, rng)
    V = rng.normal(0.0, 0.8, X.shape)
    exact, exact_d_l = unit_ball.resolve_batch(X, V)
    state, d_l = _resolver(stripped)(X, V)
    np.testing.assert_allclose(state, exact, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(d_l, exact_d_l, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

def _builtin(name):
    return {
        "interval": rs.interval(-1.0, 1.0),
        "box": rs.box([0.0, 0.0], [1.0, 1.0]),
        "ball": rs.ball(1.0, dim=2),
        "annulus": rs.annulus(0.5, 1.5, dim=2),
    }[name]


@pytest.mark.parametrize("name", ["interval", "box", "ball", "annulus"])
def test_membership_is_the_open_domain(name, rng):
    # The open domain is where the signed distance is negative.
    domain = _builtin(name)
    for x in domain.sample_interior(50, rng):
        assert float(domain.boundary_distance(x)) < 0.0
    for x in domain.sample_boundary(50, rng):
        assert abs(float(domain.boundary_distance(x))) <= 1e-12 * domain.diameter
    far = domain.interior_anchor + 10.0 * domain.diameter
    assert float(domain.boundary_distance(far)) > 0.0


def test_gradient_bound_for_uneven_box(rng):
    domain = rs.box([0.0, 0.0], [2.0, 1.0])
    assert domain.alpha == 1.0
    for x in domain.sample_boundary(200, rng):
        for direction in np.atleast_2d(domain.nu(x)):
            assert float(domain.grad_phi(x) @ direction) >= domain.alpha - 1e-9


@pytest.mark.parametrize("name", ["interval", "box", "ball", "annulus"])
def test_boundary_directions_are_unit(name, rng):
    domain = _builtin(name)
    for x in domain.sample_boundary(200, rng):
        gens = np.atleast_2d(domain.nu(x))
        assert len(gens) >= 1
        np.testing.assert_allclose(np.linalg.norm(gens, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("name", ["interval", "box", "ball", "annulus"])
def test_interior_cone_inequality_on_samples(name, rng):
    domain = _builtin(name)
    boundary = domain.sample_boundary(100, rng)
    inner = domain.sample_interior(200, rng)
    for x in boundary:
        diff = inner - x
        sq = np.einsum("ij,ij->i", diff, diff)
        for direction in np.atleast_2d(domain.nu(x)):
            vals = diff @ direction + domain.c0 * sq
            assert np.min(vals) >= -1e-9


@pytest.mark.parametrize("name", ["interval", "box", "ball", "annulus"])
def test_gradient_bound_on_samples(name, rng):
    domain = _builtin(name)
    for x in domain.sample_boundary(200, rng):
        grad = domain.grad_phi(x)
        for direction in np.atleast_2d(domain.nu(x)):
            assert float(grad @ direction) >= domain.alpha - 1e-9


def test_cone_constant_convex_domains(unit_ball, unit_box):
    assert rs.check_d1(unit_ball, 200, 500, seed=5).c0_hat == 0.0
    assert rs.check_d1(unit_box, 200, 500, seed=5).c0_hat == 0.0


def test_cone_constant_annulus_matches_chord_oracle(thick_annulus):
    # Independent oracle: dense chord pairs on the inner sphere.  For a
    # boundary point x with outward push direction x/|x| and a nearby
    # interior point at radius rho, the binding ratio tends to 1/(2 r1).
    r1 = 0.5
    thetas = np.linspace(1e-3, np.pi, 2000)
    rho = r1 + 1e-6
    ratios = (r1 - rho * np.cos(thetas)) / (
        rho**2 - 2 * rho * r1 * np.cos(thetas) + r1**2
    )
    oracle = float(np.max(ratios))
    np.testing.assert_allclose(oracle, 1.0 / (2 * r1), rtol=1e-4)

    report = rs.check_d1(thick_annulus, 400, 4000, seed=11)
    np.testing.assert_allclose(report.c0_hat, 1.0 / (2 * r1), rtol=0.02)
    # The binding pair sits on/near the inner sphere.
    assert np.linalg.norm(report.worst_boundary_point) < 0.5 + 1e-9
    assert np.linalg.norm(report.worst_interior_point) < 0.75


def test_gradient_bound_estimates(unit_ball, unit_interval, thick_annulus):
    assert abs(rs.check_d2(unit_ball, 300, seed=3).alpha_hat - 2.0) <= 1e-9
    assert abs(rs.check_d2(unit_interval, 50, seed=3).alpha_hat - 2.0) <= 1e-12
    np.testing.assert_allclose(
        rs.check_d2(thick_annulus, 300, seed=3).alpha_hat, 1.0, atol=1e-9
    )


def test_estimates_match_stored_constants(thick_annulus, unit_ball):
    d1 = rs.check_d1(thick_annulus, 400, 4000, seed=21)
    assert abs(d1.c0_hat - thick_annulus.c0) <= 0.01 * thick_annulus.c0
    d2 = rs.check_d2(thick_annulus, 300, seed=21)
    assert abs(d2.alpha_hat - thick_annulus.alpha) <= 0.01 * thick_annulus.alpha
    assert rs.check_d1(unit_ball, 300, 2000, seed=21).c0_hat <= unit_ball.c0 + 1e-12


def test_cover_check_interval(unit_interval):
    cert = rs.ConeCoverCertificate(
        centers=[[-1.0], [1.0]], radius=0.5, directions=[[1.0], [-1.0]], lam=1.0
    )
    report = rs.check_d3(unit_interval, cert, 100, seed=9)
    assert report.passed
    assert report.worst_cover_distance <= 1e-12
    assert report.worst_direction_margin >= -1e-12


def _octagon_cover(lam):
    angles = np.arange(8) * (2 * np.pi / 8)
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return rs.ConeCoverCertificate(
        centers=centers, radius=0.5, directions=-centers, lam=lam
    )


def test_cover_check_circle_with_exact_margin(unit_ball):
    # Exact angular oracle: a boundary point within distance 2K of a center
    # subtends angle at most 2 asin(K) at the origin, so the worst inner
    # product with the center's inward direction is cos(2 asin(K)) = 0.5.
    worst = np.cos(2 * np.arcsin(0.5))
    np.testing.assert_allclose(worst, 0.5, atol=1e-12)

    report = rs.check_d3(unit_ball, _octagon_cover(lam=0.45), 2000, seed=17)
    assert report.passed
    # Cover oracle: arc midpoints sit 2 sin(pi/8 / 2) from the closest center.
    assert report.worst_cover_distance <= 2 * np.sin(np.pi / 16) + 1e-9

    strict = rs.check_d3(unit_ball, _octagon_cover(lam=0.7), 2000, seed=17)
    assert not strict.passed and not strict.directions_ok and strict.cover_ok


def test_cover_check_single_center_fails(unit_ball):
    cert = rs.ConeCoverCertificate(
        centers=[[1.0, 0.0]], radius=0.5, directions=[[-1.0, 0.0]], lam=0.5
    )
    report = rs.check_d3(unit_ball, cert, 500, seed=13)
    assert not report.passed and not report.cover_ok


def test_check_sample_count_validation(unit_ball):
    cert = rs.ConeCoverCertificate(
        centers=[[1.0, 0.0]], radius=0.5, directions=[[-1.0, 0.0]], lam=0.5
    )
    with pytest.raises(NoBoundarySamples):
        rs.check_d1(unit_ball, 0, 10, seed=1)
    with pytest.raises(NoBoundarySamples):
        rs.check_d2(unit_ball, 0, seed=1)
    with pytest.raises(NoBoundarySamples):
        rs.check_d3(unit_ball, cert, 0, seed=1)


def test_checks_deterministic(thick_annulus):
    a = rs.check_d1(thick_annulus, 200, 1000, seed=77)
    b = rs.check_d1(thick_annulus, 200, 1000, seed=77)
    assert a.c0_hat == b.c0_hat
    np.testing.assert_array_equal(a.worst_boundary_point, b.worst_boundary_point)


# ---------------------------------------------------------------------------
# Certificates and registry
# ---------------------------------------------------------------------------

def test_cone_cover_json_round_trip():
    cert = _octagon_cover(0.45)
    restored = rs.ConeCoverCertificate.from_json(cert.to_json())
    np.testing.assert_array_equal(cert.centers, restored.centers)
    np.testing.assert_array_equal(cert.directions, restored.directions)
    assert cert.radius == restored.radius and cert.lam == restored.lam


def test_cone_cover_validation():
    with pytest.raises(ValueError):
        rs.ConeCoverCertificate(centers=[[1.0, 0.0]], radius=0.5, directions=[[-2.0, 0.0]], lam=0.5)
    with pytest.raises(ValueError):
        rs.ConeCoverCertificate(centers=[[1.0, 0.0]], radius=-1.0, directions=[[-1.0, 0.0]], lam=0.5)


def test_domain_certificate_dict(unit_ball):
    cert = unit_ball.certificate_dict()
    assert json.loads(json.dumps(cert)) == cert
    assert cert["c0"] == 0.0 and cert["alpha"] == 2.0


def test_make_domain_registry():
    d = rs.make_domain("annulus", r1=0.5, r2=1.5)
    assert d.name == "annulus" and d.c0 == 1.0
    with pytest.raises(ValueError):
        rs.make_domain("polygon")


# (parameter named in the error, build); every size must be finite, and a
# dimension a whole number from 1.
BAD_SIZES = {
    "interval a -inf": ("a", lambda: rs.interval(-np.inf, 1.0)),
    "interval b nan": ("b", lambda: rs.interval(0.0, np.nan)),
    "box lo -inf": ("lo", lambda: rs.box([0.0, -np.inf], [1.0, 1.0])),
    "box hi inf": ("hi", lambda: rs.box([0.0, 0.0], [1.0, np.inf])),
    "ball radius nan": ("radius", lambda: rs.ball(np.nan)),
    "ball radius inf": ("radius", lambda: rs.ball(np.inf)),
    "ball dim 0": ("dim", lambda: rs.ball(1.0, dim=0)),
    "annulus r1 nan": ("r1", lambda: rs.annulus(np.nan, 1.0)),
    "annulus r2 inf": ("r2", lambda: rs.annulus(0.5, np.inf)),
    "annulus dim 0": ("dim", lambda: rs.annulus(0.5, 1.0, dim=0)),
}


@pytest.mark.parametrize("case", sorted(BAD_SIZES))
def test_domain_factories_reject_sizes_that_are_not_finite(case):
    name, build = BAD_SIZES[case]
    with pytest.raises(ValueError, match=f"^{name} "):
        build()


def test_one_closure_tolerance_at_every_entry_point(wavy_coeffs):
    # The tolerance scales with the diameter: 2e-7 on an interval of width 2000.
    wide = rs.interval(-1000.0, 1000.0)
    assert closure_tol(wide) == pytest.approx(2e-7)
    near, far = [1000.0 + 1e-8], [1000.0 + 1e-6]
    assert wide.contains(near) and not wide.contains(far)
    stats = rs.run_coupling_stats(rs.Study(wide, wavy_coeffs, near, 1.0, (2, 3), 4, 2, 4, 1))
    assert stats.n_failed == 0
    with pytest.raises(OutOfDomain):
        rs.Study(wide, wavy_coeffs, far, 1.0, (2, 3), 4, 2, 4, 1)
    rs.skorokhod_step(wide, near, [0.0])
    with pytest.raises(OutOfDomain):
        rs.skorokhod_step(wide, far, [0.0])
    # Without a closed-form projection, a closure point passes through untouched.
    bisected = dataclasses.replace(wide, resolve_batch=None)
    state, d_l = _resolver(bisected)(np.zeros((2, 1)), np.array([near, far]))
    assert state[0, 0] == near[0] and d_l[0, 0] == 0.0
    assert float(wide.boundary_distance(state[1])) <= closure_tol(wide) and d_l[1, 0] < 0.0


def test_engine_path_does_not_import_scipy():
    package_root = Path(rs.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import reflectedsde.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'\n"
        "from reflectedsde import box, cone_angle\n"
        "corner = np.array([1.0, 1.0])\n"
        "print(cone_angle(box([0.0, 0.0], [1.0, 1.0]).nu(corner), np.array([-0.3, -0.7])))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 1e-12


def test_cone_angle_corner_membership():
    gens = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert rs.cone_angle(gens, np.array([0.3, 0.7])) <= 1e-12
    assert rs.cone_angle(gens, np.array([1.0, 0.0])) <= 1e-12
    assert rs.cone_angle(gens, np.array([-1.0, 0.0])) >= np.pi / 2 - 1e-9
    assert rs.cone_angle(np.array([[0.0, 1.0]]), np.array([1.0, 1.0])) == pytest.approx(
        np.pi / 4
    )
