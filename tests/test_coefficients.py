import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import coefficients
from reflectedsde.coefficients import (
    COLUMN_MIN_ROWS,
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
        np.testing.assert_allclose(bb[i], coeffs.b(y), rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(grad[i], coeffs.grad_sigma(y))
        np.testing.assert_allclose(corr[i], rs.stratonovich_correction(coeffs, y), atol=1e-14)
        np.testing.assert_allclose(drift[i], rs.ito_drift(coeffs, y), atol=1e-14)


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


# ---------------------------------------------------------------------------
# Column forms of the planar march: byte-equal to the spellings they replace
# ---------------------------------------------------------------------------

# Around the crossover and at the benchmark's width; the column functions
# themselves are exact from two rows on, whatever the crossover.
WIDTHS = (63, 64, 65, COLUMN_MIN_ROWS - 1, COLUMN_MIN_ROWS, COLUMN_MIN_ROWS + 1, 2000)


def _draw(rng, shape, special):
    """Standard normals; with ``special``, a fifth of them +-NaN, +-inf or +-0.0."""
    a = rng.standard_normal(shape)
    if special:
        flat = a.reshape(-1)
        pick = rng.choice(flat.size, flat.size // 5, replace=False)
        flat[pick] = rng.choice([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0], len(pick))
    return a


def _increments(rng, B, m, special):
    """``(B, m)`` increments in the layouts the marches pass them in."""
    slopes = _draw(rng, (B, 5, m), special)
    block = _draw(rng, (4, B, m), special).transpose(1, 0, 2)  # time-major fine knots
    return [
        slopes[:, 2, :],  # a strided knot row of the WZ slopes
        np.ascontiguousarray(slopes[:, 2, :]),  # the copy the WZ march takes per knot
        block[:, 1],  # a time-major block row
        block[:, 2] - block[:, 1],  # the reference's increment
    ]


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_bytes_but_nan_signs(a, b):
    # Which of two NaNs a product or sum keeps is left open by IEEE 754;
    # einsum's choice in the noise-interaction term follows its vector
    # kernel and the batch width.
    return _same_bytes(np.where(np.isnan(a), np.nan, a), np.where(np.isnan(b), np.nan, b))


def test_noise_columns_equal_einsum_bytes():
    rng = np.random.default_rng(122)
    with np.errstate(invalid="ignore"):
        for B in WIDTHS:
            for special in (False, True):
                sig = _draw(rng, (B, 2, 2), special)
                for dw in _increments(rng, B, 2, special):
                    expected = np.einsum("bij,bj->bi", sig, dw)
                    assert _same_bytes(coefficients._noise_columns(sig, dw), expected)
                    assert _same_bytes(noise_term(sig, dw), expected)


def test_stratonovich_columns_equal_einsum_bytes():
    rng = np.random.default_rng(222)
    with np.errstate(invalid="ignore"):
        for B in WIDTHS:
            for special in (False, True):
                grad, sig = _draw(rng, (B, 2, 2, 2), special), _draw(rng, (B, 2, 2), special)
                expected = np.einsum("bijk,bkj->bi", grad, sig)
                got = coefficients._stratonovich_columns(grad, sig)
                assert _same_bytes_but_nan_signs(got, expected)
                if not special:
                    assert _same_bytes(got, expected)


def test_sums_of_negative_zero_products_are_positive_zero():
    # einsum starts each sum from +0.0; a plain column sum of -0.0 products
    # would be -0.0.
    B = COLUMN_MIN_ROWS
    sig = -np.abs(np.random.default_rng(4).standard_normal((B, 2, 2))) - 0.5
    for out in (
        coefficients._stratonovich_columns(np.zeros((B, 2, 2, 2)), sig),
        coefficients._noise_columns(sig, np.zeros((B, 2))),
    ):
        assert out.shape == (B, 2)
        assert not np.any(np.signbit(out)) and not np.any(out)


@pytest.mark.parametrize("d, m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)])
def test_contractions_are_columns_only_for_wide_planar_batches(d, m, monkeypatch):
    # Every shape gives einsum's bytes; only d = m = 2 from COLUMN_MIN_ROWS
    # rows on reaches the column forms, so d = 3 and m = 3 keep the einsum.
    calls = []
    for name in ("_noise_columns", "_stratonovich_columns"):
        form = getattr(coefficients, name)
        monkeypatch.setattr(
            coefficients, name, lambda a, b, form=form, name=name: calls.append(name) or form(a, b)
        )
    rng = np.random.default_rng(500 + 10 * d + m)
    coeffs = rs.trig(
        rng.standard_normal((d, m)), rng.standard_normal((d, m)), rng.standard_normal(d),
        rng.standard_normal((d, m)), rng.standard_normal((d, d)),
    )
    for B in (1, 2) + WIDTHS:
        Y, dw = rng.standard_normal((B, d)), rng.standard_normal((B, m))
        sig, grad = coeffs.sigma(Y), coeffs.grad_sigma(Y)
        calls.clear()
        assert _same_bytes(noise_term(sig, dw), np.einsum("bij,bj->bi", sig, dw))
        assert _same_bytes(
            stratonovich_correction(coeffs, Y), np.einsum("bijk,bkj->bi", grad, sig)
        )
        wide = (d, m) == (2, 2) and B >= COLUMN_MIN_ROWS
        assert calls == (["_noise_columns", "_stratonovich_columns"] if wide else [])


@pytest.mark.parametrize("d, m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)])
def test_einsum_bits_do_not_depend_on_the_slope_row_layout(d, m):
    # The WZ march hands the noise contraction a contiguous copy of each
    # knot's slopes instead of the strided (B, K, m) slice.
    rng = np.random.default_rng(300 + 10 * d + m)
    for B in (1, 2, 7, 64, COLUMN_MIN_ROWS, 2000):
        sig, slopes = rng.standard_normal((B, d, m)), rng.standard_normal((B, 9, m))
        for k in (0, 4, 8):
            row = slopes[:, k, :]
            assert _same_bytes(
                np.einsum("bij,bj->bi", sig, np.ascontiguousarray(row)),
                np.einsum("bij,bj->bi", sig, row),
            )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_planar_fields_equal_their_broadcast_spelling_on_special_values(m):
    # The wide planar forms of b and trig's sigma and grad_sigma against the
    # one-call spellings, with NaN, inf and signed zeros in the state and
    # signed zeros in the parameters.
    rng = np.random.default_rng(400 + m)
    d = 2
    A, c = rng.standard_normal((d, d)), np.array([-0.0, 0.3])
    offset, amplitude = rng.standard_normal((d, m)), rng.standard_normal((d, m))
    offset[0, 0], amplitude[-1, -1] = -0.0, 0.0
    frequency, phase = rng.standard_normal(d), _phases("partly-equal", d, m)
    trig = rs.trig(offset, amplitude, frequency, phase, A, c)
    with np.errstate(invalid="ignore"):
        for B in (2, COLUMN_MIN_ROWS - 1, COLUMN_MIN_ROWS, 2000):
            for special in (False, True):
                y = _draw(rng, (B, d), special)
                if not special:
                    y[: B // 4] = 0.0
                    y[B // 4 : B // 2] = -0.0
                arg = np.dot(y, frequency)[..., None, None] + phase
                assert _same_bytes(trig.b(y), np.dot(y, A.T) + c)
                assert _same_bytes(trig.sigma(y), offset + amplitude * np.sin(arg))
                grad = (amplitude * np.cos(arg))[..., None] * frequency
                assert _same_bytes(trig.grad_sigma(y), grad)
