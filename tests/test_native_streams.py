"""The stream library against the numpy streams, and its build and fallback.

Every test here compares the bytes of what the library draws with what the
numpy path draws for the same configuration, or checks that a failed build
or load leaves the numpy path running with the same bits.
"""

import hashlib
import os
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import brownian, cover
from reflectedsde.brownian import FineBlocks, dyadic_grid, path_seeds, stream_keys
from reflectedsde.harness import path_seed

_STUDY_SEEDS = [path_seed(97, i) for i in range(64)]
_HOLDER_SEEDS = [path_seed(11, i) for i in range(64)]


# (m, T, seeds, coarse level, fine level, FineBlocks budget in bytes).
CASES = {
    # The Brownian inputs of the golden cases: each study samples its paths
    # at level 5 and its reference refines them to level 8 in blocks.
    "golden_interval": (1, 1.0, _STUDY_SEEDS, 5, 8, 32 * 2**20),
    "golden_interval_T0.3": (1, 0.3, _STUDY_SEEDS, 5, 8, 32 * 2**20),
    "golden_annulus": (2, 1.0, _STUDY_SEEDS, 5, 8, 32 * 2**20),
    "golden_ball3": (3, 1.0, _STUDY_SEEDS, 5, 8, 32 * 2**20),
    "golden_holder": (1, 1.0, _HOLDER_SEEDS, 5, 8, 32 * 2**20),
    "golden_substeps": (2, 1.0, [3], 4, 7, 32 * 2**20),
    # One path, negative or wide seeds, horizons off the unit grid, and
    # blocks of one coarse interval.
    "one_negative_seed": (1, 1.5, [-5], 2, 6, 1),
    "wide_seeds_T0.3": (2, 0.3, [2**63 + 7, -1, 2**64 - 1], 3, 7, 1),
    "mixed_seeds_m3_T1.5": (3, 1.5, [0, 2**63 - 1, -(2**40), 2**70 + 3], 1, 5, 1),
}


def _stream_digest(m, T, seeds, coarse_level, fine_level, budget) -> str:
    """SHA-256 of the keys, a sampled batch, its refinement, its first path
    sampled alone, and every block of fine knots refined from the batch."""
    h = hashlib.sha256()
    coarse = rs.sample_path(m, T, coarse_level, seeds)
    alone = rs.sample_path(m, T, coarse_level, seeds[0])
    for a in (stream_keys(seeds, range(fine_level + 1)), coarse.values,
              rs.refine(coarse).values, alone.values, rs.refine(alone).values):
        h.update(np.ascontiguousarray(a).tobytes())
    n_fine = dyadic_grid(T, fine_level)[0]
    for start, values in FineBlocks(coarse, fine_level, n_fine, budget).blocks():
        h.update(np.int64(start).tobytes() + np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_native_streams_draw_the_numpy_bytes(native, monkeypatch, case):
    drawn = _stream_digest(*CASES[case])
    monkeypatch.setattr(brownian, "_native", lambda: None)
    assert _stream_digest(*CASES[case]) == drawn


# Seeds that a single library call masks to 63 bits as stream_keys does:
# negative ones, 2^63 and above, 2^64 and above.
_WIDE_SEEDS = [-5, 0, 2**63, 2**63 + 9, 2**64 + 3, -(2**40), 12345]
# numpy's ziggurat_nor_r: a draw beyond it in absolute value comes from the
# ziggurat's tail, which numpy's function draws, never the inline path.
_TAIL = 3.6541528853610088


def _one_call_batches(fine_level):
    """Batches of width 1 as an int, a tuple and a uint64 array and, below
    level 16, of width 70 as a tuple of wide seeds, as the same seeds'
    uint64 words and as ``path_seeds``'s array."""
    batches = [_WIDE_SEEDS[0], (2**63 + 9,), np.array([2**64 - 5], np.uint64)]
    if fine_level < 16:
        wide = _WIDE_SEEDS + [path_seed(23, i) for i in range(70 - len(_WIDE_SEEDS))]
        batches += [tuple(wide), np.array([s % 2**64 for s in wide], np.uint64),
                    path_seeds(23, 0, 70)]
    return batches


def _sampled(m, T, fine_level):
    return [rs.sample_path(m, T, fine_level, seeds).values.tobytes()
            for seeds in _one_call_batches(fine_level)]


@pytest.mark.parametrize("fine_level", [1, 9, 16])
@pytest.mark.parametrize("T", [1.0, 0.7, 2.5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sampling_in_one_library_call_gives_the_numpy_bytes(native, monkeypatch, m, T,
                                                            fine_level):
    # The library keys, draws level 0, sums and refines every level in one
    # call; the numpy branch keys with SeedSequence, sums with
    # np.add.accumulate and refines level by level.
    drawn = _sampled(m, T, fine_level)
    monkeypatch.setattr(brownian, "_native", lambda: None)
    assert _sampled(m, T, fine_level) == drawn


def test_a_level_16_stream_reaches_the_ziggurat_tail():
    # So the level-16 cases above draw tail normals, which numpy's function
    # draws in the library too.
    (key,) = stream_keys([_WIDE_SEEDS[0]], [16])[0]
    z = np.random.Generator(np.random.Philox(key=key)).standard_normal(2**15)
    assert np.count_nonzero(np.abs(z) > _TAIL) > 0


# Seeds and path indices at the edges of SeedSequence's word counts: one
# entropy word below 2^32, two from there, so that seed and index together
# give up to five words, more than the pool's four.
_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, -5, 2**64 + 3]
_EDGE_INDICES = [0, 2**32 - 1, 2**32, 2**40 + 7]


@pytest.mark.parametrize("backend", ["session", "numpy"])
def test_path_seeds_are_seedsequence_states(monkeypatch, backend):
    if backend == "numpy":
        monkeypatch.setattr(brownian, "_native", lambda: None)
    for seed in _EDGE_SEEDS:
        for index in _EDGE_INDICES:
            entropy = [seed & (2**63 - 1), 0x5EED, index]
            expected = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
            assert path_seed(seed, index) == expected, (seed, index)
        # Indices across the word boundary in one call, as the engine draws them.
        first = 2**32 - 3
        seeds = path_seeds(seed, first, 6)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [path_seed(seed, first + i) for i in range(6)]
    assert path_seeds(7, 5, 0).tolist() == []
    with pytest.raises(ValueError, match="expected non-negative integer"):
        path_seed(5, -1)


# Refinement bytes taken with numpy's per-level refinement before the
# library refined every level in one call: (m, T, B, coarse level, fine
# level, block width in coarse intervals).  The blocks refine time-major
# knots with midpoint counts that the library's runs (64 normals per path)
# do not divide, and the batches straddle its tiles of 256 paths.
REFINEMENT_CASES = {
    "B1_m1": (1, 1.0, 1, 3, 7, 3),
    "B255_m2_T1.3": (2, 1.3, 255, 1, 7, 3),
    "B256_m3_T0.7": (3, 0.7, 256, 1, 6, 2),
    "B257_m1_T2.6": (1, 2.6, 257, 2, 9, 5),
    "B2001_m2_T1.3": (2, 1.3, 2001, 1, 6, 3),
}
REFINEMENT_DIGESTS = {
    "B1_m1": "ec261e6726d348409aed47b93c16d5b90c4e90b8621df94c9e213f9de19f8324",
    "B255_m2_T1.3": "918537e0a56d35e687bda445fbbe9a4012ffdead7e26b9f097f8b45f64fff7f0",
    "B256_m3_T0.7": "13dbf6c909a2eba53235c92fae1ef83a3f8b1d777de7741fe92d8f2e11a89bd5",
    "B257_m1_T2.6": "0476070f2a78c08cf08dc365198006d29147b619c96e9402007eba0ef7af8c49",
    "B2001_m2_T1.3": "ab5d7dd4402d0a3d5880b397849fbdc7826bf41e296bb4a16125498e9ce665e9",
}


def _refinement_digest(m, T, B, coarse_level, fine_level, width) -> str:
    """SHA-256 of a batch sampled at the coarse and the fine level, the
    batch and its last path refined once, and the blocks of fine knots
    refined from the batch ``width`` coarse intervals at a time."""
    seeds = [7 * i - 300 for i in range(B)]
    h = hashlib.sha256()
    coarse = rs.sample_path(m, T, coarse_level, seeds)
    last = rs.sample_path(m, T, coarse_level, seeds[-1])
    for a in (coarse.values, rs.sample_path(m, T, fine_level, seeds).values,
              rs.refine(coarse).values, rs.refine(last).values):
        h.update(np.ascontiguousarray(a).tobytes())
    budget = B * m * 8 * (width * 2 ** (fine_level - coarse_level) + 1)
    n_fine = dyadic_grid(T, fine_level)[0]
    for start, values in FineBlocks(coarse, fine_level, n_fine, budget).blocks():
        h.update(np.int64(start).tobytes() + np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("backend", ["session", "numpy"])
@pytest.mark.parametrize("case", sorted(REFINEMENT_CASES))
def test_refining_every_level_at_once_gives_the_per_level_bytes(monkeypatch, backend, case):
    if backend == "numpy":
        monkeypatch.setattr(brownian, "_native", lambda: None)
    assert _refinement_digest(*REFINEMENT_CASES[case]) == REFINEMENT_DIGESTS[case]


def test_threads_refining_at_once_give_the_serial_bytes(native):
    # ctypes lets go of the GIL for each library call, so other threads run
    # numpy meanwhile; the churning thread takes every small block numpy
    # frees and overwrites it, so an array the library still reads but that
    # nothing holds would change the bytes.
    cases = ["B1_m1", "B255_m2_T1.3", "B257_m1_T2.6"] * 3
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            for k in range(1, 33):
                np.full(k, np.nan)

    churner = threading.Thread(target=churn)
    churner.start()
    try:
        with ThreadPoolExecutor(3) as pool:
            digests = list(pool.map(lambda c: _refinement_digest(*REFINEMENT_CASES[c]), cases))
    finally:
        stop.set()
        churner.join()
    assert digests == [REFINEMENT_DIGESTS[c] for c in cases]


def _fail_compile(error):
    def compile_(target):
        raise error

    return compile_


@pytest.mark.parametrize("failure", ["compiler error", "no compiler", "corrupt cache"])
def test_a_failed_build_or_load_runs_the_numpy_path(native, monkeypatch, tmp_path, failure):
    case = CASES["wide_seeds_T0.3"]
    expected = _stream_digest(*case)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if failure == "compiler error":
        error = subprocess.CalledProcessError(1, "cc")
        monkeypatch.setattr(brownian, "_compile", _fail_compile(error))
    elif failure == "no compiler":
        monkeypatch.setattr(brownian, "_compile", _fail_compile(FileNotFoundError("cc")))
    else:
        target = brownian._library_path()
        target.parent.mkdir(parents=True)
        target.write_bytes(b"not a shared library")
    brownian._native.cache_clear()
    try:
        assert brownian.native_library() is None
        assert cover.native_march(rs.interval(-1.0, 1.0), rs.constant([[0.5]])) is None
        assert _stream_digest(*case) == expected
    finally:
        brownian._native.cache_clear()


_CHILD = """
import hashlib
from reflectedsde import brownian, sample_path
path = sample_path(2, 1.5, 6, [-3, 2**63 + 1])
print(brownian.native_library())
print(hashlib.sha256(path.values.tobytes()).hexdigest())
"""


def test_two_processes_building_into_one_empty_cache_agree(native, tmp_path):
    package_root = Path(rs.__file__).resolve().parents[1]
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(package_root))
    children = [
        subprocess.Popen([sys.executable, "-c", _CHILD], env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        outputs.append(out.split())
    (lib_a, digest_a), (lib_b, digest_b) = outputs
    expected = hashlib.sha256(rs.sample_path(2, 1.5, 6, [-3, 2**63 + 1]).values.tobytes())
    assert digest_a == digest_b == expected.hexdigest()
    # One library, named by its cache key, and no build left behind.
    cache = tmp_path / "reflectedsde"
    assert lib_a == lib_b and [str(p) for p in cache.iterdir()] == [lib_a]
    assert Path(lib_a).suffix == ".so" and len(Path(lib_a).stem) == 64


def test_a_study_on_native_streams_equals_one_on_numpy_streams(native, monkeypatch):
    coeffs = rs.trig([[0.5, 0.1], [0.1, 0.4]], [[0.2, 0.0], [0.0, 0.2]], [1.0, -1.0],
                     drift_matrix=[[-0.3, 0.0], [0.0, -0.3]])

    def stats():
        s = rs.run_coupling_stats(rs.Study(
            rs.ball(1.0, dim=2), coeffs, [0.2, 0.1], 1.0, (3, 4), 24, 3, 4, 5
        ))
        return [s.sup_dist, s.final_dist, s.f_final, s.var_final, s.ref_var_final]

    native_streams = stats()
    monkeypatch.setattr(brownian, "_native", lambda: None)
    for got, want in zip(native_streams, stats()):
        np.testing.assert_array_equal(got, want)


def test_batched_sampling_builds_one_philox_and_no_seedsequence(native, monkeypatch):
    built = Counter()
    for name in ("Philox", "SeedSequence"):
        def counting(*args, _cls=getattr(np.random, name), _name=name, **kwargs):
            built[_name] += 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    batch = rs.sample_path(2, 1.5, 6, list(range(20)))
    assert built["SeedSequence"] == 0 and built["Philox"] <= 1
    built.clear()
    rs.refine(batch)
    assert built["SeedSequence"] == 0 and built["Philox"] <= 1


# Uneven pieces, so that draws resume at every position of a Philox block.
_PIECES = [1, 2, 3, 5, 17, 4093, 65539, 262147]


def test_the_inline_ziggurat_passes_its_check(native):
    assert native.inline_ziggurat() == 1


# One level's scale for _refined_normals: 1, so that a midpoint is its normal.
_UNIT_SCALE = np.ones(1)


def _refined_normals(streams, level, count, time_major):
    """``count`` normals of each stream of ``level``, as ``refine_levels``
    draws them into the midpoints of knots of ``-0.0`` at scale 1: a
    midpoint ``((-0.0 + -0.0) * 0.5) + (z * 1.0)`` is ``z``'s bytes, signed
    zeros included.  Time-major knots are refined a tile of streams at a
    time, each drawing runs into a scratch; path-major ones stream by
    stream."""
    B = streams.keys.shape[1]
    knots = np.full((2 * count + 1, B, 1) if time_major else (B, 2 * count + 1, 1), -0.0)
    values = knots.transpose(1, 0, 2) if time_major else knots
    steps = [step // values.itemsize for step in values.strides]
    streams.lib.refine_levels(*streams.addresses(level), B, knots.ctypes.data, *steps, count, 1,
                              _UNIT_SCALE.ctypes.data, 1)
    return values[:, 1::2, 0]


def test_long_streams_drawn_in_pieces_give_numpys_bytes_tail_included(native):
    """More than ten million normals from eight ``(seed, level)`` streams,
    drawn through ``refine_levels`` in uneven pieces, time-major and
    path-major by turns, against each stream's own numpy generator.  About
    1% of the words leave the inline fast path for numpy's wedge and tail,
    the path that every word takes when the inline check fails."""
    seeds, first, last = [0, 41, -7, 2**63 + 5], 3, 4
    streams = brownian._Streams(seeds, first, last)
    numpy_normal = {
        (level, b): np.random.Generator(
            np.random.Philox(key=streams.keys[level - first, b])).standard_normal
        for level in range(first, last + 1) for b in range(len(seeds))
    }
    drawn, tail = Counter(), Counter()
    for turn in range(5):
        for count in _PIECES:
            for level in range(first, last + 1):
                out = _refined_normals(streams, level, count, time_major=turn % 2 == 0)
                for b in range(len(seeds)):
                    want = numpy_normal[level, b](count)
                    assert out[b].tobytes() == want.tobytes(), (level, b, turn, count)
                    drawn[level, b] += count
                    tail[level, b] += int(np.count_nonzero(np.abs(want) > _TAIL))
    assert sum(drawn.values()) >= 10_000_000
    assert all(tail[stream] > 0 for stream in numpy_normal), tail
