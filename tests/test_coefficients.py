import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde.coefficients import (
    finite_difference_correction,
    ito_drift_batch,
    stratonovich_correction_batch,
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


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_lipschitz_metadata_not_exceeded(name, rng):
    coeffs = BUILTINS[name]
    d = coeffs.dim_state
    Y1 = rng.uniform(-1.0, 1.0, (300, d))
    Y2 = rng.uniform(-1.0, 1.0, (300, d))
    for y1, y2 in zip(Y1, Y2):
        gap = np.linalg.norm(y1 - y2)
        if gap < 1e-9:
            continue
        ratio_sigma = np.linalg.norm(coeffs.sigma(y1) - coeffs.sigma(y2)) / gap
        ratio_b = np.linalg.norm(coeffs.b(y1) - coeffs.b(y2)) / gap
        ratio_grad = np.linalg.norm(coeffs.grad_sigma(y1) - coeffs.grad_sigma(y2)) / gap
        assert ratio_sigma <= coeffs.lipschitz_sigma * 1.01 + 1e-12
        assert ratio_b <= coeffs.lipschitz_b * 1.01 + 1e-12
        assert ratio_grad <= coeffs.lipschitz_grad_sigma * 1.01 + 1e-12


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
    corr = stratonovich_correction_batch(coeffs, Y)
    drift = ito_drift_batch(coeffs, Y)
    for i, y in enumerate(Y):
        np.testing.assert_array_equal(sig[i], coeffs.sigma(y))
        np.testing.assert_allclose(bb[i], coeffs.b(y), rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(grad[i], coeffs.grad_sigma(y))
        np.testing.assert_allclose(corr[i], rs.stratonovich_correction(coeffs, y), atol=1e-14)
        np.testing.assert_allclose(drift[i], rs.ito_drift(coeffs, y), atol=1e-14)


def test_registry_round_trip():
    coeffs = BUILTINS["trig"]
    rebuilt = rs.make_coefficients(coeffs.name, **coeffs.params)
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_built_in_fields_equal_their_matmul_spelling(d):
    # The fields contract with np.dot; it must agree bit for bit with the
    # @ spelling, which goes through the same BLAS kernels for two or more
    # rows and through a plain loop for one.
    rng = np.random.default_rng(d)
    A, c = rng.standard_normal((d, d)), rng.standard_normal(d)
    offset, amplitude = rng.standard_normal((d, 2)), rng.standard_normal((d, 2))
    frequency, phase = rng.standard_normal(d), rng.standard_normal((d, 2))
    fields = [
        (rs.trig(offset, amplitude, frequency, phase, A, c), A, c),
        (rs.linear(rng.standard_normal((d, 2, d)), drift_matrix=A, drift_offset=c), A, c),
        (rs.constant(offset, drift_matrix=A, drift_offset=c), A, c),
    ]
    for B in (1, 2, 7, 667, 1000, 2000):
        for _ in range(5):
            Y = rng.standard_normal((B, d))
            for y in (Y, Y[0]):
                arg = (y @ frequency)[..., None, None] + phase
                trig = fields[0][0]
                np.testing.assert_array_equal(
                    trig.sigma(y), offset + amplitude * np.sin(arg)
                )
                np.testing.assert_array_equal(
                    trig.grad_sigma(y), (amplitude * np.cos(arg))[..., None] * frequency
                )
                for coeffs, A_, c_ in fields:
                    np.testing.assert_array_equal(coeffs.b(y), y @ A_.T + c_)


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
    # and the arrays must stay C-ordered, since einsum's summation order
    # follows its operands' layout.
    rng = np.random.default_rng(10 * d + m)
    offset, amplitude = rng.standard_normal((d, m)), rng.standard_normal((d, m))
    frequency, phase = rng.standard_normal(d), _phases(kind, d, m)
    coeffs = rs.trig(offset, amplitude, frequency, phase)
    for B in (1, 2, 7, 2000):
        Y = rng.uniform(-3.0, 3.0, (B, d))
        for y in (Y, Y[0]):
            arg = np.dot(y, frequency)[..., None, None] + phase
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
