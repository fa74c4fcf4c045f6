from functools import reduce
from operator import add

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde.coefficients import (
    finite_difference_correction,
    ito_drift_batch,
    noise_term,
    stratonovich_correction,
)
from reflectedsde.errors import OutOfDomain

BUILTINS = {
    "constant": rs.constant([[0.7, -0.2], [0.0, 0.3]], drift_offset=[0.1, -0.4]),
    "linear": rs.linear(
        A=[[[0.5, 0.1], [-0.2, 0.0]], [[0.0, 0.3], [0.4, -0.1]]],
        B=[[0.2, 0.0], [0.1, 0.5]],
        drift_matrix=[[-0.3, 0.0], [0.1, -0.2]],
    ),
    "trig": rs.trig(
        offset=[[0.5, 0.1]],
        amplitude=[[0.2, -0.3]],
        frequency=[0.8],
        phase=[[0.0, 1.2]],
        drift_matrix=[[-0.3]],
    ),
}


def test_constant_correction_is_zero():
    coeffs = BUILTINS["constant"]
    y = np.array([0.3, -0.2])
    np.testing.assert_allclose(rs.stratonovich_correction(coeffs, y), 0.0, atol=1e-12)


def test_scalar_linear_correction_closed_form():
    # sigma(y) = y in one dimension: the correction is sigma' sigma = y.
    coeffs = rs.linear(A=[[[1.0]]])
    val = rs.stratonovich_correction(coeffs, np.array([0.3]))
    np.testing.assert_allclose(val, [0.3], atol=1e-12)


def test_two_noise_cancellation_closed_form():
    # sigma(y) = (sin y, cos y): cos*sin + (-sin)*cos = 0.
    coeffs = rs.trig(
        offset=[[0.0, 0.0]],
        amplitude=[[1.0, 1.0]],
        frequency=[1.0],
        phase=[[0.0, np.pi / 2]],
    )
    val = rs.stratonovich_correction(coeffs, np.array([0.7]))
    np.testing.assert_allclose(val, [0.0], atol=1e-12)
    sig = coeffs.sigma(np.array([0.7]))
    np.testing.assert_allclose(sig, [[np.sin(0.7), np.cos(0.7)]], atol=1e-12)


def test_ito_drift_examples():
    coeffs = rs.linear(A=[[[1.0]]])
    np.testing.assert_allclose(rs.ito_drift(coeffs, [0.3]), [0.15], atol=1e-12)

    flat = rs.constant([[0.5]], drift_matrix=[[-1.0]])
    np.testing.assert_allclose(rs.ito_drift(flat, [0.4]), [-0.4], atol=1e-12)

    zero_drift = rs.constant([[0.7, -0.2], [0.0, 0.3]])
    np.testing.assert_allclose(rs.ito_drift(zero_drift, [0.1, 0.2]), 0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_correction_matches_finite_differences(name, rng):
    coeffs = BUILTINS[name]
    for _ in range(100):
        y = rng.uniform(-1.0, 1.0, coeffs.dim_state)
        analytic = rs.stratonovich_correction(coeffs, y)
        numeric = finite_difference_correction(coeffs, y, step=1e-5)
        scale = max(1e-12, float(np.max(np.abs(numeric))))
        assert np.max(np.abs(analytic - numeric)) / scale <= 1e-4


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_grad_sigma_matches_finite_differences(name, rng):
    coeffs = BUILTINS[name]
    d = coeffs.dim_state
    for _ in range(100):
        y = rng.uniform(-1.0, 1.0, d)
        grad = coeffs.grad_sigma(y)
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1e-5
            numeric = (coeffs.sigma(y + e) - coeffs.sigma(y - e)) / 2e-5
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert np.max(np.abs(grad[:, :, k] - numeric)) / scale <= 1e-6


def test_zero_gradient_means_zero_correction(rng):
    coeffs = rs.constant(rng.normal(size=(3, 2)), drift_offset=rng.normal(size=3))
    for _ in range(50):
        y = rng.normal(size=3)
        np.testing.assert_array_equal(rs.stratonovich_correction(coeffs, y), np.zeros(3))


def test_out_of_domain_enforced(unit_interval):
    coeffs = rs.linear(A=[[[1.0]]])
    with pytest.raises(OutOfDomain):
        rs.stratonovich_correction(coeffs, [1.5], domain=unit_interval)
    with pytest.raises(OutOfDomain):
        rs.ito_drift(coeffs, [-2.0], domain=unit_interval)
    rs.ito_drift(coeffs, [1.0], domain=unit_interval)  # closure is allowed


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_batch_evaluation_matches_pointwise(name, rng):
    coeffs = BUILTINS[name]
    Y = rng.uniform(-1.0, 1.0, (17, coeffs.dim_state))
    sig = coeffs.sigma(Y)
    bb = coeffs.b(Y)
    grad = coeffs.grad_sigma(Y)
    corr = stratonovich_correction(coeffs, Y)
    drift = ito_drift_batch(coeffs, Y)
    for i, y in enumerate(Y):
        np.testing.assert_array_equal(sig[i], coeffs.sigma(y))
        np.testing.assert_array_equal(bb[i], coeffs.b(y))
        np.testing.assert_array_equal(grad[i], coeffs.grad_sigma(y))
        np.testing.assert_array_equal(corr[i], rs.stratonovich_correction(coeffs, y))
        np.testing.assert_array_equal(drift[i], rs.ito_drift(coeffs, y))


def test_registry_round_trip():
    params = dict(
        offset=[[0.5, 0.1]],
        amplitude=[[0.2, -0.3]],
        frequency=[0.8],
        phase=[[0.0, 1.2]],
        drift_matrix=[[-0.3]],
    )
    coeffs = rs.trig(**params)
    rebuilt = rs.make_coefficients("trig", **params)
    y = np.array([0.37])
    np.testing.assert_array_equal(rebuilt.sigma(y), coeffs.sigma(y))
    np.testing.assert_array_equal(rebuilt.b(y), coeffs.b(y))
    with pytest.raises(ValueError):
        rs.make_coefficients("rational")


def test_shape_validation():
    with pytest.raises(ValueError):
        rs.constant([0.5])
    with pytest.raises(ValueError):
        rs.linear(A=[[[1.0, 0.0]]])
    with pytest.raises(ValueError):
        rs.trig(offset=[[0.5]], amplitude=[[0.2, 0.1]], frequency=[1.0])


def _ascending(terms):
    """The sum of ``terms`` added in their order: the order of every
    contraction of the fields and the march."""
    return reduce(add, terms)


def _argument(y, frequency):
    """``trig``'s argument ``f . y``, spelled as the fields add it."""
    return _ascending([y[..., k] * frequency[k] for k in range(len(frequency))])


def _phases(kind, d, m):
    n = np.arange(d * m, dtype=float).reshape(d, m)
    return {
        "zero": np.zeros((d, m)),
        "equal": np.full((d, m), 0.7),
        "partly-equal": 0.5 * (n % 2),
        "distinct": 0.37 * n - 0.5,
    }[kind]


@pytest.mark.parametrize("kind", ["zero", "equal", "partly-equal", "distinct"])
@pytest.mark.parametrize("d, m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)])
def test_trig_per_phase_evaluation_equals_the_entrywise_spelling(d, m, kind):
    # trig takes sin and cos once per distinct phase and spreads them over
    # the entries; every entry must equal the entrywise spelling bit for bit,
    # in C-ordered arrays.
    rng = np.random.default_rng(10 * d + m)
    offset, amplitude = rng.standard_normal((d, m)), rng.standard_normal((d, m))
    frequency, phase = rng.standard_normal(d), _phases(kind, d, m)
    coeffs = rs.trig(offset, amplitude, frequency, phase)
    for B in (1, 2, 7, 2000):
        Y = rng.uniform(-3.0, 3.0, (B, d))
        for y in (Y, Y[0]):
            arg = _argument(y, frequency)[..., None, None] + phase
            sig, grad = coeffs.sigma(y), coeffs.grad_sigma(y)
            assert sig.flags.c_contiguous and grad.flags.c_contiguous
            assert sig.shape == y.shape[:-1] + (d, m)
            assert sig.tobytes() == (offset + amplitude * np.sin(arg)).tobytes()
            assert grad.shape == y.shape[:-1] + (d, m, d)
            old_grad = (amplitude * np.cos(arg))[..., None] * frequency
            assert grad.tobytes() == old_grad.tobytes()


def test_constant_fields_are_fresh_writable_batches():
    rng = np.random.default_rng(5)
    sig, A = rng.standard_normal((2, 3)), rng.standard_normal((2, 3, 2))
    for coeffs, field, value in (
        (rs.constant(sig), "sigma", sig),
        (rs.linear(A), "grad_sigma", A),
    ):
        for B in (1, 2, 7):
            out = getattr(coeffs, field)(np.zeros((B, 2)))
            np.testing.assert_array_equal(out, np.broadcast_to(value, (B,) + value.shape))
            assert out.flags.c_contiguous and out.flags.writeable
            out[0] += 1.0
            np.testing.assert_array_equal(getattr(coeffs, field)(np.zeros((B, 2)))[0], value)


# ---------------------------------------------------------------------------
# The contractions: one summation order at every batch width
# ---------------------------------------------------------------------------

def _draw(rng, shape, special):
    """Standard normals; with ``special``, a fifth of them +-NaN, +-inf or +-0.0."""
    a = rng.standard_normal(shape)
    if special:
        flat = a.reshape(-1)
        pick = rng.choice(flat.size, flat.size // 5, replace=False)
        flat[pick] = rng.choice([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0], len(pick))
    return a


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_bytes_but_nan_signs(a, b):
    # Which of two NaNs a sum keeps is left open by IEEE 754, and numpy's
    # loops choose by width and position.
    return _same_bytes(np.where(np.isnan(a), np.nan, a), np.where(np.isnan(b), np.nan, b))


@pytest.mark.parametrize("d, m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)])
def test_contractions_are_near_einsum_and_the_same_bytes_at_every_width(d, m):
    # Each contraction is a column sum in ascending index order: within the
    # rounding bound of a sum of n products, 2 n eps times the sum of their
    # magnitudes, of einsum's (or BLAS's) order, and each row's bytes do
    # not depend on how many rows share the call.
    rng = np.random.default_rng(500 + 10 * d + m)
    A, c, frequency = rng.standard_normal((d, d)), rng.standard_normal(d), rng.standard_normal(d)
    L, LB = rng.standard_normal((d, m, d)), rng.standard_normal((d, m))
    trig = rs.trig(rng.standard_normal((d, m)), rng.standard_normal((d, m)), frequency,
                   rng.standard_normal((d, m)), A, c)
    linear = rs.linear(L, LB, A, c)
    Y, dW = rng.standard_normal((2000, d)), rng.standard_normal((2000, m))
    sig, grad = trig.sigma(Y), trig.grad_sigma(Y)
    # (contraction of rows, einsum's value, the magnitudes' einsum, terms)
    contractions = [
        (lambda r: trig.b(Y[r]), np.einsum("ik,bk->bi", A, Y) + c,
         np.einsum("ik,bk->bi", abs(A), abs(Y)) + abs(c), d + 1),
        (lambda r: linear.sigma(Y[r]), np.einsum("ijk,bk->bij", L, Y) + LB,
         np.einsum("ijk,bk->bij", abs(L), abs(Y)) + abs(LB), d + 1),
        (lambda r: _argument(Y[r], frequency), Y @ frequency, abs(Y) @ abs(frequency), d),
        (lambda r: noise_term(sig[r], dW[r]), np.einsum("bij,bj->bi", sig, dW),
         np.einsum("bij,bj->bi", abs(sig), abs(dW)), m),
        (lambda r: stratonovich_correction(trig, Y[r]), np.einsum("bijk,bkj->bi", grad, sig),
         np.einsum("bijk,bkj->bi", abs(grad), abs(sig)), d * m),
    ]
    eps = np.finfo(float).eps
    for contract, expected, magnitude, n in contractions:
        full = contract(slice(None))
        assert np.all(abs(full - expected) <= 2 * n * eps * magnitude)
        for width in range(1, 2001):
            assert _same_bytes(contract(slice(0, width)), full[:width])
        assert _same_bytes(np.concatenate([contract([b]) for b in range(0, 2000, 97)]),
                           full[::97])


def test_the_noise_term_does_not_depend_on_the_slope_row_layout():
    # The WZ march hands the noise term a contiguous copy of each knot's
    # slopes instead of the strided (B, K, m) slice.
    rng = np.random.default_rng(300)
    for d, m in ((1, 1), (2, 2), (3, 2)):
        sig, slopes = rng.standard_normal((64, d, m)), rng.standard_normal((64, 9, m))
        for k in (0, 4, 8):
            row = slopes[:, k, :]
            assert _same_bytes(noise_term(sig, np.ascontiguousarray(row)), noise_term(sig, row))


def test_sums_of_negative_zero_products_are_negative_zero():
    # A sum starts from its first product, not from +0.0, so -0.0 products
    # sum to -0.0, in numpy as in the native march.
    sig = -np.abs(np.random.default_rng(4).standard_normal((5, 2, 2))) - 0.5
    for out in (rs.stratonovich_correction(rs.constant(sig[0]), np.ones((5, 2))),
                noise_term(sig, np.zeros((5, 2)))):
        assert out.shape == (5, 2)
        assert np.all(np.signbit(out)) and not np.any(out)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_planar_fields_equal_their_broadcast_spelling_on_special_values(m):
    # b and trig's sigma and grad_sigma against their broadcast spellings,
    # each term over the whole batch in ascending order, with NaN, inf and
    # signed zeros in the state and signed zeros in the parameters.
    rng = np.random.default_rng(400 + m)
    d = 2
    A, c = rng.standard_normal((d, d)), np.array([-0.0, 0.3])
    offset, amplitude = rng.standard_normal((d, m)), rng.standard_normal((d, m))
    offset[0, 0], amplitude[-1, -1] = -0.0, 0.0
    frequency, phase = rng.standard_normal(d), _phases("partly-equal", d, m)
    trig = rs.trig(offset, amplitude, frequency, phase, A, c)
    with np.errstate(invalid="ignore"):
        for B in (1, 2, 7, 2000):
            for special in (False, True):
                y = _draw(rng, (B, d), special)
                if not special:
                    y[: B // 4] = 0.0
                    y[B // 4 : B // 2] = -0.0
                arg = _argument(y, frequency)[..., None, None] + phase
                drift = _ascending([y[:, k, None] * A[:, k] for k in range(d)]) + c
                assert _same_bytes_but_nan_signs(trig.b(y), drift)
                sig = offset + amplitude * np.sin(arg)
                assert _same_bytes_but_nan_signs(trig.sigma(y), sig)
                grad = (amplitude * np.cos(arg))[..., None] * frequency
                assert _same_bytes_but_nan_signs(trig.grad_sigma(y), grad)
