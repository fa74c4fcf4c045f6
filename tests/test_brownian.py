import io
import sys
import threading
import time
from math import ceil

import numpy as np
import pytest
from scipy import stats as sstats

import reflectedsde as rs
from reflectedsde import brownian
from reflectedsde.brownian import dyadic_grid, stream_keys
from reflectedsde.errors import InvalidHorizon, LevelTooFine


def test_shape_and_determinism():
    a = rs.sample_path(1, 1.0, 3, seed=42)
    b = rs.sample_path(1, 1.0, 3, seed=42)
    assert a.increments.shape == (8, 1)
    np.testing.assert_array_equal(np.asarray(a.values), np.asarray(b.values))
    c = rs.sample_path(1, 1.0, 3, seed=43)
    assert np.any(np.asarray(a.values) != np.asarray(c.values))


def test_cumulative_reconstruction():
    path = rs.sample_path(3, 2.0, 6, seed=7)
    rebuilt = np.vstack([np.zeros((1, 3)), np.cumsum(path.increments, axis=0)])
    np.testing.assert_allclose(rebuilt, np.asarray(path.values), atol=1e-14)
    assert np.all(np.asarray(path.values)[0] == 0.0)


def test_horizon_padding():
    path = rs.sample_path(1, 0.3, 3, seed=1)
    assert path.horizon == pytest.approx(3 / 8)
    assert path.n_knots == 3
    with pytest.raises(InvalidHorizon):
        rs.sample_path(1, 0.0, 3, seed=1)


@pytest.mark.parametrize("T", [0.01, 0.3, 1.0, 1.5])
def test_dyadic_grid_counts_the_sampled_knots(T):
    n_fine, n_held = dyadic_grid(T, 5)
    for seed in (4, [4, 5]):
        values = rs.sample_path(2, T, 5, seed).values
        assert values.shape[-2] == n_fine + 1
        base = values
        while base.base is not None:
            base = base.base
        assert base.shape[-2] == n_held == ceil(T) * 32 + 1


def test_refine_preserves_knots_exactly():
    path = rs.sample_path(2, 1.0, 5, seed=11)
    fine = rs.refine(path)
    np.testing.assert_array_equal(np.asarray(fine.values)[::2], np.asarray(path.values))
    back = rs.restrict(fine, 5)
    np.testing.assert_array_equal(np.asarray(back.values), np.asarray(path.values))
    np.testing.assert_array_equal(back.increments, path.increments)


def test_refine_deterministic():
    path = rs.sample_path(1, 1.0, 4, seed=3)
    np.testing.assert_array_equal(
        np.asarray(rs.refine(path).values), np.asarray(rs.refine(path).values)
    )


def test_direct_sampling_equals_repeated_refinement():
    # The canonical construction makes the two routes byte-identical.
    coarse = rs.sample_path(2, 1.0, 3, seed=21)
    refined = rs.refine(rs.refine(rs.refine(coarse)))
    direct = rs.sample_path(2, 1.0, 6, seed=21)
    np.testing.assert_array_equal(np.asarray(refined.values), np.asarray(direct.values))


@pytest.mark.parametrize("T", [0.3, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_batched_sampling_matches_single_paths(m, T):
    seeds = [3, 2**64 - 5, 0, 41]
    batch = rs.sample_path(m, T, 6, seeds)
    assert batch.seed == tuple(seeds)
    for b, seed in enumerate(seeds):
        alone = rs.sample_path(m, T, 6, seed)
        assert batch.horizon == alone.horizon and batch.n_knots == alone.n_knots
        np.testing.assert_array_equal(np.asarray(batch.values)[b], np.asarray(alone.values))
        for n in range(7):
            np.testing.assert_array_equal(
                rs.wz_knot_slopes(batch, n)[b], rs.wz_knot_slopes(alone, n)
            )
            np.testing.assert_array_equal(
                rs.restrict(batch, n).values[b], rs.restrict(alone, n).values
            )


def test_batched_refine_then_restrict_returns_the_knots():
    seeds = [8, 9, 10]
    batch = rs.sample_path(2, 1.5, 4, seeds)
    fine = rs.refine(batch)
    values = np.asarray(fine.values)
    np.testing.assert_array_equal(np.asarray(rs.restrict(fine, 4).values), np.asarray(batch.values))
    np.testing.assert_array_equal(values, np.asarray(rs.sample_path(2, 1.5, 5, seeds).values))
    for b, seed in enumerate(seeds):
        alone = rs.refine(rs.sample_path(2, 1.5, 4, seed))
        np.testing.assert_array_equal(values[b], np.asarray(alone.values))


# ---------------------------------------------------------------------------
# Stream keys: the canonical construction with one SeedSequence per stream
# ---------------------------------------------------------------------------

_MASK = 2**63 - 1
_ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63 + 5, 2**64 - 1, -1, -(2**40), 2**70 + 3]


def _oracle_stream(seed, level):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed & _MASK, level])))


def _oracle_midpoints(left, right, seed, level):
    xi = _oracle_stream(seed, level).standard_normal(left.shape)
    return 0.5 * (left + right) + xi * 2.0 ** (-0.5 * (level + 1))


def _oracle_path(m, T, fine_level, seed):
    """Knot values of one path, each stream from its own freshly seeded generator."""
    n_fine, n_held = dyadic_grid(T, fine_level)
    stride = 2**fine_level
    values = np.zeros((n_held, m))
    draws = _oracle_stream(seed, 0).standard_normal(((n_held - 1) // stride, m))
    values[stride::stride] = np.cumsum(draws, axis=0)
    for level in range(1, fine_level + 1):
        values[stride // 2 :: stride] = _oracle_midpoints(
            values[0:-1:stride], values[stride::stride], seed, level
        )
        stride //= 2
    return values[: n_fine + 1]


def _oracle_refine(values, fine_level, seed):
    fine = np.empty((2 * len(values) - 1, values.shape[1]))
    fine[::2] = values
    fine[1::2] = _oracle_midpoints(values[:-1], values[1:], seed, fine_level + 1)
    return fine


@pytest.mark.parametrize("fine_level", [1, 5, 8])
@pytest.mark.parametrize("T", [0.3, 1.0, 1.5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sampling_matches_one_seedsequence_generator_per_stream(m, T, fine_level):
    batch = rs.sample_path(m, T, fine_level, _ORACLE_SEEDS)
    refined = np.asarray(rs.refine(batch).values)
    for b, seed in enumerate(_ORACLE_SEEDS):
        expected = _oracle_path(m, T, fine_level, seed)
        alone = rs.sample_path(m, T, fine_level, seed)
        np.testing.assert_array_equal(np.asarray(batch.values)[b], expected)
        np.testing.assert_array_equal(np.asarray(alone.values), expected)
        expected_fine = _oracle_refine(expected, fine_level, seed)
        np.testing.assert_array_equal(refined[b], expected_fine)
        np.testing.assert_array_equal(np.asarray(rs.refine(alone).values), expected_fine)


def test_stream_keys_match_seedsequence():
    rng = np.random.default_rng(2024)
    drawn = rng.integers(0, 2**64 - 1, 300, np.uint64, endpoint=True)
    seeds = _ORACLE_SEEDS + [int(s) for s in drawn]
    keys = stream_keys(seeds, range(21))
    assert keys.shape == (21, len(seeds), 2) and keys.dtype == np.uint64
    for level in range(21):
        for b, seed in enumerate(seeds):
            expected = np.random.SeedSequence([seed & _MASK, level]).generate_state(2, np.uint64)
            np.testing.assert_array_equal(keys[level, b], expected)
    # An integer array is masked as one array, to the same words.
    np.testing.assert_array_equal(stream_keys(drawn, range(21)), keys[:, len(_ORACLE_SEEDS):])
    signed = np.array([-1, -(2**40), 0, 2**63 - 1], np.int64)
    np.testing.assert_array_equal(stream_keys(signed, [3]), stream_keys(signed.tolist(), [3]))


def test_an_integer_seed_array_is_checked_once(monkeypatch):
    seeds = [3, -4, 2**63 + 5, 0]
    expected = rs.sample_path(2, 1.0, 5, seeds)
    checked, check = [], brownian.check_whole
    monkeypatch.setattr(
        brownian, "check_whole", lambda name, *args: checked.append(name) or check(name, *args)
    )
    # A negative seed's two's complement as uint64 keys the same streams.
    for array in (np.array(seeds[:2] + [5, 0], np.int64),
                  np.array([s % 2**64 for s in seeds], np.uint64)):
        checked.clear()
        batch = rs.sample_path(2, 1.0, 5, array)
        assert checked == ["fine_level", "m"]
        # The batch keeps its own read-only copy of the seeds.
        array[0] = 99
        assert batch.seed[0] != 99 and not batch.seed.flags.writeable
        n = 2 if array.dtype == np.int64 else 4
        np.testing.assert_array_equal(batch.values[:n], expected.values[:n])
        np.testing.assert_array_equal(rs.refine(batch).values[:n], rs.refine(expected).values[:n])


# ---------------------------------------------------------------------------
# Fine knots refined block by block from coarse knots
# ---------------------------------------------------------------------------

def test_a_resumed_stream_draws_what_one_draw_gives(monkeypatch):
    # In numpy, the one backend that draws through ``_Streams`` (the
    # library's resumed draws are in test_native_streams): a stream's first
    # draw re-keys a shared Philox and each later one runs the stream's own
    # generator.
    monkeypatch.setattr(brownian, "_native", lambda: None)
    seeds = [5, -7, 2**63 + 1]
    whole = brownian._Streams(seeds, 3, 4).draw
    pieces = brownian._Streams(seeds, 3, 4).draw
    for b in range(len(seeds)):
        expected = np.empty(1000)
        whole(4, b, expected)
        got = np.empty(1000)
        pieces(4, b, got[:333])
        pieces(3, b, np.empty(17))  # another stream in between
        pieces(4, b, got[333:500])
        pieces(4, b, got[500:])
        np.testing.assert_array_equal(got, expected)


def test_draws_refuse_a_strided_output(monkeypatch):
    # In numpy, whose standard_normal refuses it, as ``_Streams.draw`` runs.
    monkeypatch.setattr(brownian, "_native", lambda: None)
    streams = brownian._Streams([5], 0, 0)
    with pytest.raises(ValueError):
        streams.draw(0, 0, np.empty((4, 2))[:, 0])


def _block_budgets(B, m, intervals, stride):
    """Budgets giving blocks of one coarse interval, of a few, and of all."""
    per_interval = B * m * 8 * stride
    return [1, B * m * 8 * (3 * stride + 1), per_interval * intervals + B * m * 8, 2**40]


@pytest.mark.parametrize("T", [0.3, 1.0, 1.5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fine_blocks_equal_sampling_at_the_fine_level(m, T):
    coarse_level, fine_level = 4, 7
    stride = 2 ** (fine_level - coarse_level)
    fine = rs.sample_path(m, T, fine_level, _ORACLE_SEEDS)
    expected = np.asarray(fine.values)
    coarse = rs.sample_path(m, fine.horizon, coarse_level, _ORACLE_SEEDS)
    B, n_fine = len(_ORACLE_SEEDS), fine.n_knots
    n_coarse = ceil(n_fine / stride)
    for budget in _block_budgets(B, m, n_coarse, stride):
        source = brownian.FineBlocks(coarse, fine_level, n_fine, budget)
        starts = []
        for start, values in source.blocks():
            starts.append(start)
            # Aligned to coarse knots, within the budget when a coarse
            # interval fits in it, and equal to the sampled fine knots.
            assert start % stride == 0 and (values.shape[1] - 1) % stride == 0
            if budget >= B * m * 8 * (stride + 1):
                assert values.nbytes <= budget
            n = min(values.shape[1], n_fine + 1 - start)
            np.testing.assert_array_equal(values[:, :n], expected[:, start : start + n])
        width = starts[1] if len(starts) > 1 else n_coarse * stride
        assert starts == list(range(0, n_coarse * stride, width))
        if budget == 1:
            assert width == stride
        if budget == 2**40:
            assert len(starts) == 1
    for b, seed in enumerate(_ORACLE_SEEDS[:3]):
        np.testing.assert_array_equal(expected[b], _oracle_path(m, T, fine_level, seed))


def test_fine_blocks_reject_a_horizon_beyond_the_coarse_path():
    coarse = rs.sample_path(1, 0.5, 3, [1, 2])
    with pytest.raises(ValueError):
        brownian.FineBlocks(coarse, 6, 33, 2**20)
    with pytest.raises(ValueError):
        brownian.FineBlocks(coarse, 2, 2, 2**20)
    with pytest.raises(ValueError):
        brownian.FineBlocks(rs.sample_path(1, 0.5, 3, 1), 6, 32, 2**20)


def _one_interval_blocks(m=2, seeds=(3, -4, 2**63 + 5)):
    """``FineBlocks`` refining a batch from level 3 to 6 over T=1 in eight
    blocks of one coarse interval, and the batch sampled at level 6."""
    coarse = rs.sample_path(m, 1.0, 3, list(seeds))
    expected = np.asarray(rs.sample_path(m, 1.0, 6, list(seeds)).values)
    return brownian.FineBlocks(coarse, 6, 64, 1), expected


def _recording_refinements(monkeypatch, fail_at=None):
    """Record the thread of each refinement from here on; the one numbered
    ``fail_at`` (from 0) raises instead."""
    refine, threads = brownian._refine, []

    def recording(*args):
        threads.append(threading.current_thread())
        if len(threads) - 1 == fail_at:
            raise RuntimeError(f"refinement of block {fail_at} failed")
        refine(*args)

    monkeypatch.setattr(brownian, "_refine", recording)
    return threads


def test_every_block_is_refined_on_the_callers_thread_into_one_buffer(monkeypatch):
    # On both backends each block is refined on the caller's thread when it
    # is asked for, into the buffer that held the block before it, and the
    # blocks keep their bits.
    source, expected = _one_interval_blocks()
    threads = _recording_refinements(monkeypatch)
    before = threading.active_count()
    for backend in ("session", "numpy"):
        if backend == "numpy":
            monkeypatch.setattr(brownian, "_native", lambda: None)
        threads.clear()
        first = None
        for start, values in source.blocks():
            first = values if first is None else first
            assert len(threads) == start // 8 + 1
            assert threading.active_count() == before
            assert np.shares_memory(values, first)
            np.testing.assert_array_equal(values, expected[:, start : start + 9])
        assert threads == [threading.current_thread()] * 8


def test_a_failed_block_refinement_reaches_the_caller_at_its_block(monkeypatch):
    source, expected = _one_interval_blocks()
    threads = _recording_refinements(monkeypatch, fail_at=1)
    before = threading.active_count()
    for backend in ("session", "numpy"):
        if backend == "numpy":
            monkeypatch.setattr(brownian, "_native", lambda: None)
        threads.clear()
        blocks = source.blocks()
        start, values = next(blocks)
        np.testing.assert_array_equal(values, expected[:, :9])
        with pytest.raises(RuntimeError, match="block 1 failed"):
            next(blocks)
        assert threading.active_count() == before
        # Blocks 0 and 1 are both refined on the caller's thread.
        assert threads == [threading.current_thread()] * 2
        with pytest.raises(StopIteration):
            next(blocks)


def test_fine_blocks_read_by_more_consumers_than_cores_stay_intact(monkeypatch):
    # Each consumer holds every block a while, then checks it again: a
    # refinement that wrote into the held buffer before the next block was
    # asked for, or streams drawn out of block order, would change it.
    # Under a short switch interval the GIL passes between the consumers
    # and their refinements, in the library or in numpy, often.
    results = {}

    def consume(k):
        source, expected = _one_interval_blocks(m=1 + k % 2, seeds=(k, 7 * k + 1))
        for start, values in source.blocks():
            held = values.copy()
            time.sleep(1e-3)
            results[k, start] = np.array_equal(values, held) and np.array_equal(
                values, expected[:, start : start + 9])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for backend in ("session", "numpy"):
            if backend == "numpy":
                monkeypatch.setattr(brownian, "_native", lambda: None)
            results.clear()
            consumers = [threading.Thread(target=consume, args=(k,)) for k in range(5)]
            for consumer in consumers:
                consumer.start()
            for consumer in consumers:
                consumer.join(timeout=60)
                assert not consumer.is_alive()
            assert len(results) == 5 * 8 and all(results.values())
    finally:
        sys.setswitchinterval(interval)


def test_restriction_to_finer_level_rejected():
    path = rs.sample_path(1, 1.0, 3, seed=5)
    with pytest.raises(LevelTooFine):
        rs.restrict(path, 4)


def test_terminal_moments_aggregate():
    n_paths = 100_000
    w1 = np.empty(n_paths)
    for i in range(n_paths):
        w1[i] = rs.sample_path(1, 1.0, 3, seed=i).values[-1, 0]
    assert abs(float(np.mean(w1))) <= 0.01
    assert abs(float(np.var(w1)) - 1.0) <= 0.02


def test_midpoint_residual_variance():
    path = rs.sample_path(1, 1.0, 17, seed=99)
    fine = rs.refine(path)
    coarse_vals = np.asarray(path.values)[:, 0]
    resid = np.asarray(fine.values)[1::2, 0] - 0.5 * (coarse_vals[:-1] + coarse_vals[1:])
    target = 2.0 ** -(17 + 2)
    assert abs(float(np.var(resid)) / target - 1.0) <= 0.02


def test_bridge_consistency_in_distribution():
    # Terminal values of directly sampled paths vs paths refined from three
    # levels coarser, over disjoint seed ranges.
    n = 10_000
    direct = np.empty(n)
    refined = np.empty(n)
    for i in range(n):
        direct[i] = rs.sample_path(1, 1.0, 6, seed=i).values[-1, 0]
        path = rs.sample_path(1, 1.0, 3, seed=1_000_000 + i)
        refined[i] = rs.refine(rs.refine(rs.refine(path))).values[-1, 0]
    result = sstats.ks_2samp(direct, refined)
    assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# Lagged interpolant
# ---------------------------------------------------------------------------

def _interp_reference(path, n, t):
    """Independent re-implementation of the lagged interpolation formula."""
    k = int(np.floor(t * 2**n))
    w = lambda j: np.asarray(path.values)[max(j, 0) * 2 ** (path.fine_level - n)]
    return w(k - 1) + 2**n * (t - k / 2**n) * (w(k) - w(k - 1))


def test_interpolant_zero_on_first_interval():
    path = rs.sample_path(2, 1.0, 8, seed=2)
    for t in [0.0, 0.01, 2.0**-5 - 1e-9]:
        np.testing.assert_array_equal(rs.wz_value(path, 5, t), np.zeros(2))
        np.testing.assert_array_equal(rs.wz_slope(path, 5, t), np.zeros(2))


def test_interpolant_knot_lag_identity():
    path = rs.sample_path(1, 1.0, 9, seed=8)
    n = 4
    knots = rs.restrict(path, n).values
    for k in range(1, 17):
        np.testing.assert_array_equal(rs.wz_value(path, n, k / 2**n), knots[k - 1])


def test_interpolant_midpoint_average():
    path = rs.sample_path(1, 1.0, 9, seed=8)
    n = 4
    knots = rs.restrict(path, n).values
    for k in range(1, 16):
        t = (k + 0.5) / 2**n
        expected = 0.5 * knots[k - 1] + 0.5 * knots[k]
        np.testing.assert_allclose(rs.wz_value(path, n, t), expected, atol=1e-15)


def test_interpolant_matches_reference_formula(rng):
    path = rs.sample_path(2, 1.0, 10, seed=31)
    for n in (3, 6, 10):
        for t in rng.uniform(0.0, 1.0, 50):
            np.testing.assert_allclose(
                rs.wz_value(path, n, t), _interp_reference(path, n, t), atol=1e-13
            )


def test_slope_constant_within_interval():
    path = rs.sample_path(1, 1.0, 8, seed=4)
    n = 4
    for k in range(16):
        base = rs.wz_slope(path, n, k / 2**n)
        for eps in (1e-6, 2.0 ** -(n + 1)):
            np.testing.assert_array_equal(rs.wz_slope(path, n, k / 2**n + eps), base)


def test_value_is_integral_of_slope():
    path = rs.sample_path(1, 1.0, 8, seed=14)
    n = 4
    h = 2.0**-n
    for t in [0.2, 0.55, 0.8125, 1.0]:
        k = int(np.floor(t * 2**n - 1e-12))
        integral = np.zeros(1)
        for j in range(k):
            integral += rs.wz_slope(path, n, (j + 0.5) * h) * h
        integral += rs.wz_slope(path, n, (k + 1e-12) * h if t > k * h else t) * (t - k * h)
        np.testing.assert_allclose(rs.wz_value(path, n, t), integral, atol=1e-12)


def test_interpolant_is_adapted():
    # Zeroing increments after the current knot must not change the value.
    path = rs.sample_path(1, 1.0, 8, seed=6)
    n, t = 3, 0.47
    k = int(np.floor(t * 2**n))
    cutoff = k * 2 ** (path.fine_level - n)
    frozen_vals = np.asarray(path.values).copy()
    frozen_vals[cutoff + 1 :] = frozen_vals[cutoff]
    frozen = rs.BrownianPath(1, 1.0, 8, 6, frozen_vals)
    np.testing.assert_array_equal(rs.wz_value(path, n, t), rs.wz_value(frozen, n, t))
    np.testing.assert_array_equal(rs.wz_slope(path, n, t), rs.wz_slope(frozen, n, t))


def test_sup_gap_decays_like_square_root():
    n_paths, fine = 1000, 11
    levels = np.arange(4, 10)
    sups = np.zeros((n_paths, len(levels)))
    for i in range(n_paths):
        path = rs.sample_path(1, 1.0, fine, seed=10_000 + i)
        vals = np.asarray(path.values)[:, 0]
        tfine = np.arange(len(vals)) / 2.0**fine
        for j, n in enumerate(levels):
            k = np.floor(tfine * 2**n).astype(int)
            stride = 2 ** (fine - n)
            w_k = vals[np.minimum(k * stride, len(vals) - 1)]
            w_prev = vals[np.maximum(k - 1, 0) * stride]
            interp = w_prev + (tfine * 2**n - k) * (w_k - w_prev)
            sups[i, j] = np.max(np.abs(interp - vals))
    slope = -np.polyfit(levels, np.log2(np.mean(sups, axis=0)), 1)[0]
    assert abs(slope - 0.5) <= 0.15


def test_knot_slopes_match_pointwise_slope():
    path = rs.sample_path(2, 1.0, 7, seed=44)
    n = 5
    slopes = rs.wz_knot_slopes(path, n)
    assert slopes.shape == (32, 2)
    np.testing.assert_array_equal(slopes[0], np.zeros(2))
    for k in range(32):
        np.testing.assert_array_equal(slopes[k], rs.wz_slope(path, n, (k + 0.5) / 2**n))


def test_level_too_fine_rejected():
    path = rs.sample_path(1, 1.0, 4, seed=12)
    with pytest.raises(LevelTooFine):
        rs.wz_value(path, 5, 0.3)
    with pytest.raises(LevelTooFine):
        rs.wz_slope(path, 5, 0.3)


def test_interpolant_of_a_batch_is_one_row_per_path():
    seeds = [3, 4, 5]
    batch = rs.sample_path(2, 1.0, 6, seeds)
    alone = [rs.sample_path(2, 1.0, 6, seed) for seed in seeds]
    for n in (0, 3, 6):
        for t in (0.0, 0.01, 0.3, 0.5, 1.0):
            value, slope = rs.wz_value(batch, n, t), rs.wz_slope(batch, n, t)
            assert value.shape == slope.shape == (3, 2)
            for b, path in enumerate(alone):
                np.testing.assert_array_equal(value[b], rs.wz_value(path, n, t))
                np.testing.assert_array_equal(slope[b], rs.wz_slope(path, n, t))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_binary_dump_round_trip():
    path = rs.sample_path(3, 1.5, 5, seed=77)
    buf = io.BytesIO()
    rs.dump_increments(path, buf)
    buf.seek(0)
    loaded = rs.load_increments(buf)
    assert loaded.dim_noise == 3
    assert loaded.fine_level == 5
    assert loaded.horizon == path.horizon
    assert loaded.seed == 77
    np.testing.assert_allclose(loaded.increments, path.increments, atol=1e-15)
    np.testing.assert_allclose(np.asarray(loaded.values), np.asarray(path.values), atol=1e-13)


def test_dump_increments_rejects_a_batch():
    with pytest.raises(ValueError, match="batch"):
        rs.dump_increments(rs.sample_path(1, 1.0, 3, [1, 2]), io.BytesIO())


def test_ptr_is_each_arrays_data_address():
    # brownian._ptr reads the data pointer off the array object: it must be
    # a.ctypes.data for every kind of array the march is handed, a path's
    # read-only values, strided and offset views and empty arrays among them.
    path = rs.sample_path(2, 1.0, 4, seed=1)
    base = np.arange(24.0).reshape(4, 6)
    arrays = [path.values, path.values[None], path.values[3:], base, base[1:, 2:], base[:, ::2],
              base.T, base[2], np.empty(0), base[:0], np.arange(5, dtype=np.int64)[2:],
              np.zeros((1, 3, 2))[:, 1]]
    assert not path.values.flags.writeable
    for a in arrays:
        assert brownian._ptr(a) == a.ctypes.data
