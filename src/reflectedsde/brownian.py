"""Dyadic Brownian paths and their lagged piecewise-linear interpolation.

Paths are built canonically by midpoint refinement from the unit grid: the
level-0 increments and every level's midpoint perturbations come from
independent counter-based streams keyed by ``(seed, level)``, with stream
row ``k`` feeding knot ``k``.  As a result refinement is reproducible
independent of call order, ``refine`` then restrict returns the original
knot values byte-exactly, and sampling directly at a fine level equals
repeated refinement of a coarser path.

Each stream is the Philox generator that ``SeedSequence([seed, level])``
keys (the seed masked to 63 bits), started at counter zero; the draws are
exactly those of ``Generator(Philox(SeedSequence([seed, level])))``.  The
stream library, ``_streams.c``, holds SeedSequence's hash (for the
``(levels, paths)`` key table of a sampling call, ``stream_keys``, and the
per-path seeds of a range of path indices, ``path_seeds``), Philox4x64-10
and numpy's ziggurat.  It refines every level of a batch, or of a time
block, in one call.  The ziggurat's one-word fast path runs inline with
numpy's tables, which the library reads back from numpy's own
``random_standard_normal`` (in numpy's ``libnpyrandom.a``) when it loads
and checks against it; the wedge and the tail call that function.  If the
check fails, that function draws every normal.

The same library holds the native march of ``solvers`` (``_march.c``),
which marches the built-in families' studies at d = m = 1 and, on the
built-in domains, at d = m = 2.  It is
compiled on first use with ``cc`` and ``_CFLAGS`` into
``$XDG_CACHE_HOME/reflectedsde/<key>.so`` (``~/.cache`` when
``XDG_CACHE_HOME`` is unset), where the key is the SHA-256 of both C
sources, the flags, the numpy version, the operating system and the
machine type; it is built in a temporary directory and renamed into place.
When it cannot be compiled or loaded, sampling falls back to numpy, level
by level: SeedSequence itself for keys and seeds, and one numpy Philox
re-keyed to a stream's key and saved state before each of its draws, with
the same bits; the march falls back to its numpy loop.  With the library,
nothing here imports ``numpy.random``.  The tests compare both paths byte
for byte.  ``native_library()`` tells which path runs.

The interpolant is the lagged one: on the knot interval starting at
``k / 2^n`` it interpolates the path over the PREVIOUS knot interval, which
makes its slope depend only on already-observed increments.  Values at
negative times are the value at zero.  This differs from the common
current-interval interpolation on purpose.

A path may also be a batch: ``sample_path`` given a sequence of seeds
returns one ``BrownianPath`` whose ``values`` has a leading path axis,
``(B, K + 1, m)``, with row ``b`` equal bit for bit to the path sampled
alone from seed ``b``.  ``refine``, ``restrict`` and ``wz_knot_slopes`` work
over that axis.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import struct
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from math import ceil
from pathlib import Path

import numpy as np

from .errors import InvalidHorizon, LevelTooFine

_HEADER = struct.Struct("<IIdQ")


_SEED_MASK = 2**63 - 1
# Size of the buffer that midpoint insertion on the numpy path draws normals into.
_SCRATCH_BYTES = 2**20

_SOURCES = [Path(__file__).with_name(name) for name in ("_streams.c", "_march.c")]
# -ffp-contract=off: no multiply and add may fuse, so every rounding is
# numpy's.  -fno-math-errno: errno is never read, and without it the march's
# sqrt and its loops around libm calls compile to slower code (same values).
_CFLAGS = ["-O3", "-fno-math-errno", "-ffp-contract=off", "-fPIC", "-shared"]


def _library_path() -> Path:
    """Cache path of the native library for these C sources and flags, numpy
    and platform."""
    # Imported here: the engine's import path does not load it otherwise.
    import hashlib

    tag = hashlib.sha256(b"".join(source.read_bytes() for source in _SOURCES))
    tag.update(f"{_CFLAGS} {np.__version__} {sys.platform} {platform.machine()}".encode())
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(cache, "reflectedsde", tag.hexdigest() + ".so")


def _compile(target: Path) -> None:
    """Build the native library at ``target`` with the system C compiler,
    linking numpy's own sampler (``libnpyrandom.a``)."""
    include = Path(np.get_include())
    library = include.parent.parent / "random" / "lib" / "libnpyrandom.a"
    subprocess.run(
        ["cc", *_CFLAGS, "-I", str(include), *map(str, _SOURCES), str(library), "-lm",
         "-o", str(target)],
        check=True, capture_output=True,
    )


@functools.cache
def _native():
    """The native library, built on first use; ``None`` when it cannot be
    built or loaded, so that the numpy paths run instead."""
    try:
        target = _library_path()
        if not target.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            # Built aside and renamed into place, so that a concurrent
            # process never loads a half-written file.
            with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
                built = Path(tmp, target.name)
                _compile(built)
                os.replace(built, target)
        lib = ctypes.CDLL(str(target))
        ptr, i64, u64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double
        for name, args, result in (
            ("stream_keys", [ptr, i64, ptr, i64, ptr], None),
            ("path_seeds", [u64, u64, i64, ptr], None),
            ("fill_streams", [ptr, ptr, i64, i64, ptr], None),
            ("refine_levels", [ptr, ptr, i64, ptr, i64, i64, i64, i64, i64, ptr, i64], None),
            # Not 20 arguments: CPython 3.11 caches every freed 20-tuple and
            # reuses none, so each call with 20 would keep its argument
            # tuple, up to 2000 of them (0.4 MB).
            ("march_reference",
             [ptr, ptr, i64, ptr, ptr, ptr, i64, i64, i64, i64, i64, f64, ptr, i64, i64,
              ptr, ptr, ptr, ptr], i64),
            ("march_wz", [ptr, ptr, i64, ptr, ptr, ptr, i64, ptr, ptr, i64, ptr, i64, ptr, ptr,
                          ptr, ptr], None),
            ("inline_ziggurat", [], ctypes.c_int),
        ):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = args, result
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    return lib


def native_library() -> str | None:
    """Path of the native library, or ``None`` when the numpy paths run.

    The library draws every Brownian stream and marches the studies it
    covers (``cover.native_march``: a built-in family on a
    one-dimensional box at d = m = 1, or on a box, ball or annulus at
    d = m = 2, a single path included); without it, sampling and every
    march run numpy, with the same bits.
    """
    lib = _native()
    return None if lib is None else lib._name


def _ptr(a: np.ndarray) -> int:
    return a.ctypes.data


def _draws_ptr(out: np.ndarray) -> int:
    """Address of ``out``, checked to be an array the library may fill."""
    if out.dtype != np.float64 or not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("normals are drawn into a writeable C-contiguous float64 array")
    return _ptr(out)


def stream_keys(seeds, levels) -> np.ndarray:
    """Philox keys of the ``(seed, level)`` streams, shape ``(L, B, 2)``.

    Row ``[j, b]`` is ``SeedSequence([seeds[b] & (2**63 - 1),
    levels[j]]).generate_state(2, np.uint64)``: SeedSequence's pool-4 hash
    in the stream library, or SeedSequence itself without it.  Seeds are
    masked as Python ints, so negative seeds and seeds of 2^63 and above
    are accepted.
    """
    masked = [int(s) & _SEED_MASK for s in seeds]
    levels = [int(n) for n in levels]
    keys = np.empty((len(levels), len(masked), 2), np.uint64)
    lib = _native()
    if lib is None:
        for j, level in enumerate(levels):
            for b, seed in enumerate(masked):
                keys[j, b] = np.random.SeedSequence([seed, level]).generate_state(2, np.uint64)
        return keys
    seed_words, level_words = np.array(masked, np.uint64), np.array(levels, np.uint32)
    lib.stream_keys(_ptr(seed_words), len(masked), _ptr(level_words), len(levels), _ptr(keys))
    return keys


def path_seeds(seed: int, first: int, n: int) -> list[int]:
    """``SeedSequence([seed & (2**63 - 1), 0x5EED, i]).generate_state(1,
    np.uint64)[0]`` for the ``n`` path indices ``i`` from ``first`` on: in
    one library call, or by SeedSequence itself without the library or for
    an index outside ``0 .. 2**64 - 1`` (a negative one raises)."""
    seed, lib, indices = int(seed & _SEED_MASK), _native(), range(first, first + n)
    if lib is None or indices.start < 0 or indices.stop > 2**64:
        return [int(np.random.SeedSequence([seed, 0x5EED, i]).generate_state(1, np.uint64)[0])
                for i in indices]
    out = np.empty(len(indices), np.uint64)
    lib.path_seeds(seed, indices.start, len(out), _ptr(out))
    return out.tolist()


class _Streams:
    """The standard normal streams of a batch at levels ``first`` to ``last``.

    Stream ``(level, b)`` is the Philox stream keyed
    ``stream_keys(seeds, [level])[0, b]``, started at counter zero.  Each
    stream's state is saved after every draw and its next draw resumes
    there, so a stream drawn in pieces gives the values it gives in one
    draw.  Draws run in the stream library, or through one numpy Philox set
    to the stream's key and saved state before each draw, with the same
    bits.
    """

    def __init__(self, seeds, first: int, last: int):
        self.first, self.last = first, last
        self.keys = stream_keys(seeds, range(first, last + 1))
        # Per stream: counter (4 words), buffer (4 words), buffer position.
        # Normal draws never leave a spare 32-bit half, so that is all.
        self.saved = np.zeros(self.keys.shape[:2] + (9,), np.uint64)
        self.saved[..., 8] = 4
        self.lib = _native()
        if self.lib is not None:
            self._keys_at, self._saved_at = _ptr(self.keys), _ptr(self.saved)
            return
        self._bitgen = np.random.Philox(key=0)
        self._normal = np.random.Generator(self._bitgen).standard_normal

    def addresses(self, level: int, b: int = 0):
        """Addresses of the key and saved state of stream ``(level, b)``, for
        the library."""
        j = level - self.first
        return (
            self._keys_at + j * self.keys.strides[0] + b * self.keys.strides[1],
            self._saved_at + j * self.saved.strides[0] + b * self.saved.strides[1],
        )

    def draw(self, level: int, b: int, out: np.ndarray) -> None:
        """Fill the C-contiguous ``out`` from stream ``(level, b)``."""
        if self.lib is not None:
            self.lib.fill_streams(*self.addresses(level, b), 1, out.size, _draws_ptr(out))
            return
        j = level - self.first
        row = self.saved[j, b]
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": row[:4], "key": self.keys[j, b]},
            "buffer": row[4:8],
            "buffer_pos": int(row[8]),
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._normal(out=out)
        after = self._bitgen.state
        row[:4] = after["state"]["counter"]
        row[4:8] = after["buffer"]
        row[8] = after["buffer_pos"]

    def fill(self, level: int, out: np.ndarray) -> None:
        """Fill row ``b`` of the C-contiguous ``out`` from stream ``(level, b)``."""
        if self.lib is None:
            for b in range(len(out)):
                self.draw(level, b, out[b])
            return
        count = out.size // len(out) if len(out) else 0
        self.lib.fill_streams(*self.addresses(level), len(out), count, _draws_ptr(out))


@dataclass(frozen=True)
class BrownianPath:
    """Brownian knot values on a dyadic grid of spacing ``2^-fine_level``.

    ``values`` has shape ``(K + 1, dim_noise)`` with ``values[0] = 0``; the
    horizon is ``K / 2^fine_level`` (the requested horizon padded up to a
    dyadic multiple).  A batch of ``B`` paths has ``values`` of shape
    ``(B, K + 1, dim_noise)`` and a tuple of ``B`` seeds.  Immutable;
    ``refine`` returns a new path.
    """

    dim_noise: int
    horizon: float
    fine_level: int
    seed: int | tuple
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def increments(self) -> np.ndarray:
        """Per-knot increments, shape (K, dim_noise) (leading path axis kept)."""
        return np.diff(self.values, axis=-2)

    @property
    def n_knots(self) -> int:
        return self.values.shape[-2] - 1


def check_whole(name: str, value, least: int | None) -> int:
    """``value`` as an int, once it is a whole number of at least ``least``
    (of any size with ``least=None``); otherwise a ``ValueError`` whose
    message starts with ``name``.  numpy counts no boolean as a number, so
    ``True`` is not 1."""
    whole = np.issubdtype(type(value), np.integer) or (
        np.issubdtype(type(value), np.floating) and float(value).is_integer()
    )
    if not (whole and (least is None or value >= least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_level(path: BrownianPath, n) -> int:
    """``n`` as an int, once it is a level of ``path``: a whole number from 0,
    with ``LevelTooFine`` above ``path.fine_level``."""
    n = check_whole("n", n, 0)
    if n > path.fine_level:
        raise LevelTooFine(f"level {n} exceeds the path's fine level {path.fine_level}")
    return n


def dyadic_grid(T: float, fine_level: int) -> tuple[int, int]:
    """``(K, N)`` for a path sampled over ``T`` at ``fine_level``.

    ``K / 2^fine_level`` is the padded horizon and ``N`` the knots per path
    that ``sample_path`` allocates.  Sampling refines the whole unit grid
    covering the horizon, so ``N = ceil(K / 2^fine_level) 2^fine_level + 1``
    exceeds ``K + 1`` when ``T`` is not a whole number; the path's
    ``values`` is a view of the first ``K + 1`` knots that keeps all ``N``
    alive.
    """
    n_fine = ceil(T * 2.0**fine_level - 1e-9)
    units = ceil(n_fine / 2.0**fine_level - 1e-12)
    return n_fine, units * 2**fine_level + 1


def sample_path(m: int, T: float, fine_level: int, seed) -> BrownianPath:
    """Sample a Brownian path on the dyadic grid, canonically refined.

    Deterministic given ``(seed, m, T, fine_level)``.  The horizon is padded
    up to the next multiple of the grid spacing when needed.  ``seed`` is
    a whole number of any sign (never a boolean), or a sequence of them for
    a batch of paths sampled into one ``(B, K + 1, m)`` array.
    """
    if not 0 < T < np.inf:
        raise InvalidHorizon(f"horizon must be positive and finite, got {T}")
    fine_level, m = check_whole("fine_level", fine_level, 1), check_whole("m", m, 1)
    single = np.ndim(seed) == 0
    seeds = tuple(check_whole("seed", s, None) for s in ([seed] if single else seed))
    n_fine, n_held = dyadic_grid(T, fine_level)

    # The final array is allocated once; level 0 fills every 2^fine_level-th
    # knot and each finer level fills the midpoints between filled knots.
    stride = 2**fine_level
    values = np.empty((len(seeds), n_held, m))
    values[:, 0] = 0.0
    draws = np.empty((len(seeds), (n_held - 1) // stride, m))
    streams = _Streams(seeds, 0, fine_level)
    streams.fill(0, draws)
    np.cumsum(draws, axis=1, out=values[:, stride::stride])
    _refine(values, stride, streams, 1)
    values = values[:, : n_fine + 1]
    return BrownianPath(
        m, n_fine / 2.0**fine_level, fine_level, seeds[0] if single else seeds,
        values[0] if single else values,
    )


def _refine(values: np.ndarray, gap: int, streams: _Streams, first: int) -> None:
    """Fill, in place, the midpoints of levels ``first`` to ``streams.last``,
    the first level's between knots ``gap`` apart, each next level's between
    the knots the last one left.

    ``values`` is ``(B, N, m)`` with ``N - 1`` a multiple of ``gap``; row
    ``b`` draws from stream ``(level, b)`` in knot-major, component-minor
    order.  Each midpoint is ``((left + right) * 0.5) + (z * scale)``,
    rounded in that order: every level in one library call for the whole
    batch, or level by level in numpy calls a scratch of rows at a time.
    """
    levels = range(first, streams.last + 1)
    # Held here, so that the array outlives the library call that reads it.
    scales = np.array([2.0 ** (-0.5 * (level + 1)) for level in levels])
    B, N, m = values.shape
    if streams.lib is not None:
        path_step, knot_step, comp_step = (s // values.itemsize for s in values.strides)
        streams.lib.refine_levels(
            *streams.addresses(first), B, _ptr(values), path_step, knot_step * (gap // 2),
            comp_step, (N - 1) // gap, m, _ptr(scales), len(scales),
        )
        return
    for level, scale in zip(levels, scales):
        mid = values[:, gap // 2 :: gap]
        np.add(values[:, 0:-1:gap], values[:, gap::gap], out=mid)
        mid *= 0.5
        # Rows are drawn into a scratch of about _SCRATCH_BYTES, then scaled
        # and added a scratch at a time, with two numpy calls per scratch,
        # not per row.
        rows = min(B, max(1, _SCRATCH_BYTES // mid[0].nbytes))
        xi = np.empty((rows,) + mid.shape[1:])
        for lo in range(0, B, rows):
            part = xi[: B - lo]
            for j in range(len(part)):
                streams.draw(level, lo + j, part[j])
            part *= scale
            mid[lo : lo + rows] += part
        gap //= 2


class _Ahead:
    """``fn(*args)`` run on a helper thread.  ``result()`` joins it and
    returns its value, or raises its exception; ``join()`` only waits."""

    def __init__(self, fn, *args):
        self._value = self._error = None
        self._thread = threading.Thread(target=self._run, args=(fn, *args))
        self._thread.start()

    def _run(self, fn, *args):
        try:
            self._value = fn(*args)
        except BaseException as error:  # re-raised on the caller's thread by result()
            self._error = error

    def join(self) -> None:
        self._thread.join()

    def result(self):
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._value


@dataclass(frozen=True)
class FineBlocks:
    """Fine knots of a batch of paths, refined from its coarse knots one
    time block at a time.

    ``coarse`` is a batch sampled at level ``coarse.fine_level``, at most
    ``fine_level``; ``n_knots`` fine intervals (the padded horizon) must lie
    within it.  ``blocks()`` yields ``(start, values)``: ``values`` is
    ``(B, n + 1, m)``, the fine knots ``start`` to ``start + n``, equal bit
    for bit to the same knots of ``sample_path`` at ``fine_level``.  A block
    spans whole coarse intervals, as many as fit in ``max_bytes`` (at least
    one); consecutive blocks share their boundary knot, and the last ends at
    the coarse knot at or after the horizon.  Each (path, level) stream
    resumes where the previous block stopped.

    The blocks alternate between two buffers of at most ``max_bytes`` each.
    While the caller holds block ``k``, one helper thread refines block
    ``k + 1`` into the other buffer.  The library's refinement releases the
    GIL, so it runs beside a march that releases it too, such as the native
    march; numpy refinement and a numpy march take turns.  Asking for block
    ``k + 1`` starts the helper on ``k + 2`` in ``k``'s buffer, so a block
    is valid until the next is drawn.  The blocks are refined one after the
    other, in order, so every stream draws what it draws serially.  An
    exception in the helper is raised where its block would be yielded;
    closing the generator waits for the helper.
    """

    coarse: BrownianPath
    fine_level: int
    n_knots: int
    max_bytes: int

    def __post_init__(self):
        if np.ndim(self.coarse.values) != 3:
            raise ValueError("FineBlocks takes a batch of paths")
        if self.fine_level < self.coarse.fine_level:
            raise ValueError("the fine level must not lie above the coarse path's level")
        if self.n_knots > self.coarse.n_knots * self._stride:
            raise ValueError("the fine horizon exceeds the coarse path")

    @property
    def _stride(self) -> int:
        return 2 ** (self.fine_level - self.coarse.fine_level)

    def blocks(self):
        coarse = self.coarse.values
        B, _, m = coarse.shape
        stride = self._stride
        n_coarse = -(-self.n_knots // stride)
        width = max(1, (self.max_bytes // (B * m * 8) - 1) // stride)
        width = min(width, n_coarse)
        starts = range(0, n_coarse, width)
        # Time-major, so that each step of a march reads contiguous rows.
        buffers = [np.empty((width * stride + 1, B, m)).transpose(1, 0, 2)
                   for _ in range(min(2, len(starts)))]
        first = self.coarse.fine_level + 1
        streams = _Streams(self.coarse.seed, first, self.fine_level)

        def refined(k):
            lo = starts[k]
            hi = min(lo + width, n_coarse)
            values = buffers[k % 2][:, : (hi - lo) * stride + 1]
            values[:, ::stride] = coarse[:, lo : hi + 1]
            _refine(values, stride, streams, first)
            return values

        ahead = None
        try:
            values = refined(0)
            for k, lo in enumerate(starts):
                ahead = _Ahead(refined, k + 1) if k + 1 < len(starts) else None
                yield lo * stride, values
                if ahead is not None:
                    values = ahead.result()
        finally:
            if ahead is not None:
                ahead.join()


def refine(path: BrownianPath) -> BrownianPath:
    """One level of midpoint insertion; existing knot values are kept exactly."""
    old = np.asarray(path.values)
    values = np.empty(old.shape[:-2] + (2 * old.shape[-2] - 1, old.shape[-1]))
    values[..., ::2, :] = old
    level = path.fine_level + 1
    seeds = path.seed if values.ndim == 3 else (path.seed,)
    streams = _Streams(seeds, level, level)
    _refine(values.reshape((len(seeds),) + values.shape[-2:]), 2, streams, level)
    return BrownianPath(path.dim_noise, path.horizon, path.fine_level + 1, path.seed, values)


def restrict(path: BrownianPath, n: int) -> BrownianPath:
    """Restriction to the coarser level ``n`` (knot values shared byte-exactly)."""
    n = check_level(path, n)
    stride = 2 ** (path.fine_level - n)
    return BrownianPath(
        path.dim_noise, path.horizon, n, path.seed,
        np.asarray(path.values)[..., ::stride, :],
    )


def _lagged_knots(path: BrownianPath, n: int, t: float):
    """Level-``n`` knot values ``k - 1`` and ``k`` (clamped to the path) of the
    interval ``[k/2^n, (k+1)/2^n)`` holding ``t``, and the fraction ``t 2^n - k``."""
    n = check_level(path, n)
    if t < 0 or t > path.horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {path.horizon}]")
    scaled = t * 2.0**n
    k = int(np.floor(scaled))
    stride = 2 ** (path.fine_level - n)
    values = np.asarray(path.values)
    w_k = values[..., min(k * stride, path.n_knots), :]
    w_prev = values[..., max(k - 1, 0) * stride, :]
    return w_prev, w_k, scaled - k


def wz_value(path: BrownianPath, n: int, t: float) -> np.ndarray:
    """Lagged piecewise-linear interpolant at time ``t``.

    On ``[k/2^n, (k+1)/2^n)`` the value runs linearly from the knot value at
    ``(k-1)/2^n`` to the one at ``k/2^n``; values at negative times are zero.
    A batch of ``B`` paths gives one ``(B, dim_noise)`` row per path.
    """
    w_prev, w_k, frac = _lagged_knots(path, n, t)
    return w_prev + frac * (w_k - w_prev)


def wz_slope(path: BrownianPath, n: int, t: float) -> np.ndarray:
    """Right-continuous derivative of the lagged interpolant at time ``t``
    (one row per path for a batch, as ``wz_value``)."""
    w_prev, w_k, _ = _lagged_knots(path, n, t)
    return 2.0**n * (w_k - w_prev)


def wz_knot_slopes(path: BrownianPath, n: int) -> np.ndarray:
    """Interpolant slope per knot interval covering the horizon.

    Row ``k`` is the constant slope on ``[k/2^n, (k+1)/2^n)``: ``2^n`` times
    the previous knot increment, zero on the first interval.  The number of
    rows is the number of level-``n`` intervals needed to cover the horizon
    (at least one, even for horizons shorter than a knot).  A batch of
    paths gives ``(B, rows, dim_noise)``.
    """
    coarse = restrict(path, n)
    n, knots = coarse.fine_level, coarse.values
    stride = 2 ** (path.fine_level - n)
    n_int = max(1, -(-path.n_knots // stride))
    slopes = np.zeros(knots.shape[:-2] + (n_int, path.dim_noise))
    lagged = 2.0**n * np.diff(knots, axis=-2)
    take = min(lagged.shape[-2], n_int - 1)
    slopes[..., 1 : 1 + take, :] = lagged[..., :take, :]
    return slopes


def dump_increments(path: BrownianPath, fileobj) -> None:
    """Binary dump: little-endian header (m, fine_level, horizon, seed) then increments.

    The format holds one path; a batch raises ``ValueError``.
    """
    if np.ndim(path.values) != 2:
        raise ValueError("dump_increments takes a single path, not a batch")
    fileobj.write(
        _HEADER.pack(
            path.dim_noise,
            path.fine_level,
            path.horizon,
            path.seed & 0xFFFFFFFFFFFFFFFF,
        )
    )
    fileobj.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def load_increments(fileobj) -> BrownianPath:
    """Rebuild a path from a binary dump (knot values to floating-point precision)."""
    m, fine_level, horizon, seed = _HEADER.unpack(fileobj.read(_HEADER.size))
    raw = np.frombuffer(fileobj.read(), dtype="<f8").reshape(-1, m)
    values = np.zeros((raw.shape[0] + 1, m))
    np.cumsum(raw, axis=0, out=values[1:])
    return BrownianPath(m, horizon, fine_level, seed, values)
