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
exactly those of ``Generator(Philox(SeedSequence([seed, level])))``.  A
sampling call computes the whole ``(levels, paths)`` key table at once
(``stream_keys``) and draws the streams through the stream library,
``_streams.c``: Philox4x64-10 and SeedSequence's hash in C, with numpy's
own ziggurat (``random_standard_normal`` from numpy's ``libnpyrandom.a``)
for the normals, one call per level (or per level and time block) for a
whole batch.

The library is compiled on first use with ``cc -O2 -fPIC -shared
-ffp-contract=off`` into ``$XDG_CACHE_HOME/reflectedsde/<key>.so``
(``~/.cache`` when ``XDG_CACHE_HOME`` is unset), where the key is the
SHA-256 of the C source, the numpy version, the operating system and the
machine type; it is built in a temporary directory and renamed into place.
When it cannot be compiled or loaded, sampling falls back to numpy: one
``SeedSequence`` per stream for the keys, and one numpy Philox re-keyed to
a stream's key and saved state before each of its draws, with the same
bits; the tests compare the two paths byte for byte.
``native_library()`` tells which path runs.

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
from dataclasses import dataclass
from math import ceil
from pathlib import Path

import numpy as np

from .errors import InvalidHorizon, LevelTooFine

_HEADER = struct.Struct("<IIdQ")


_SEED_MASK = 2**63 - 1
# Size of the buffer that midpoint insertion on the numpy path draws normals into.
_SCRATCH_BYTES = 2**20

_SOURCE = Path(__file__).with_name("_streams.c")


def _library_path() -> Path:
    """Cache path of the stream library for this C source, numpy and platform."""
    # Imported here: the engine's import path does not load it otherwise.
    import hashlib

    tag = hashlib.sha256(_SOURCE.read_bytes())
    tag.update(f"{np.__version__} {sys.platform} {platform.machine()}".encode())
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(cache, "reflectedsde", tag.hexdigest() + ".so")


def _compile(target: Path) -> None:
    """Build the stream library at ``target`` with the system C compiler,
    linking numpy's own sampler (``libnpyrandom.a``)."""
    include = Path(np.get_include())
    library = include.parent.parent / "random" / "lib" / "libnpyrandom.a"
    subprocess.run(
        ["cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-I", str(include),
         str(_SOURCE), str(library), "-lm", "-o", str(target)],
        check=True, capture_output=True,
    )


@functools.cache
def _native():
    """The stream library, built on first use; ``None`` when it cannot be
    built or loaded, so that the numpy path runs instead."""
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
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        for name, args in (
            ("stream_keys", [ptr, i64, ptr, i64, ptr]),
            ("fill_streams", [ptr, ptr, i64, i64, ptr]),
            ("refine_level", [ptr, ptr, i64, ptr, i64, i64, i64, i64, i64, ctypes.c_double]),
        ):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = args, None
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    return lib


def native_library() -> str | None:
    """Path of the stream library that sampling uses, or ``None`` when the
    numpy path runs."""
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
        self.first = first
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
    an int, or a sequence of ints for a batch of paths sampled into one
    ``(B, K + 1, m)`` array.
    """
    if T <= 0:
        raise InvalidHorizon(f"horizon must be positive, got {T}")
    if fine_level < 1:
        raise ValueError("fine_level must be at least 1")
    if m < 1:
        raise ValueError("dim_noise must be at least 1")
    single = np.ndim(seed) == 0
    seeds = (int(seed),) if single else tuple(int(s) for s in seed)
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
    for level in range(1, fine_level + 1):
        _insert_midpoints(values, stride, streams, level)
        stride //= 2
    values = values[:, : n_fine + 1]
    return BrownianPath(
        m, n_fine / 2.0**fine_level, fine_level, seeds[0] if single else seeds,
        values[0] if single else values,
    )


def _insert_midpoints(values: np.ndarray, stride: int, streams: _Streams, level: int) -> None:
    """Fill, in place, the level-``level`` midpoints of knots ``stride`` apart.

    ``values`` is ``(B, N, m)`` with ``N - 1`` a multiple of ``stride``; row
    ``b`` draws from stream ``(level, b)`` in knot-major, component-minor
    order.  Each midpoint is ``((left + right) * 0.5) + (z * scale)``,
    rounded in that order, in one library call for the whole batch or in
    numpy calls a scratch of rows at a time.
    """
    scale = 2.0 ** (-0.5 * (level + 1))
    if streams.lib is not None:
        B, N, m = values.shape
        path_step, knot_step, comp_step = (s // values.itemsize for s in values.strides)
        streams.lib.refine_level(
            *streams.addresses(level), B, _ptr(values), path_step, knot_step * (stride // 2),
            comp_step, (N - 1) // stride, m, scale,
        )
        return
    mid = values[:, stride // 2 :: stride]
    np.add(values[:, 0:-1:stride], values[:, stride::stride], out=mid)
    mid *= 0.5
    # Rows are drawn into a scratch of about _SCRATCH_BYTES, then scaled and
    # added a scratch at a time, with two numpy calls per scratch, not per row.
    B, n, m = mid.shape
    rows = min(B, max(1, _SCRATCH_BYTES // mid[0].nbytes))
    xi = np.empty((rows, n, m))
    for lo in range(0, B, rows):
        part = xi[: B - lo]
        for j in range(len(part)):
            streams.draw(level, lo + j, part[j])
        part *= scale
        mid[lo : lo + rows] += part


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
    resumes where the previous block stopped.  Every block is a view of one
    buffer, valid until the next is drawn.
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
        # Time-major, so that each step of a march reads contiguous rows.
        buffer = np.empty((width * stride + 1, B, m)).transpose(1, 0, 2)
        first = self.coarse.fine_level + 1
        streams = _Streams(self.coarse.seed, first, self.fine_level)
        for lo in range(0, n_coarse, width):
            hi = min(lo + width, n_coarse)
            values = buffer[:, : (hi - lo) * stride + 1]
            values[:, ::stride] = coarse[:, lo : hi + 1]
            gap = stride
            for level in range(first, self.fine_level + 1):
                _insert_midpoints(values, gap, streams, level)
                gap //= 2
            yield lo * stride, values


def refine(path: BrownianPath) -> BrownianPath:
    """One level of midpoint insertion; existing knot values are kept exactly."""
    old = np.asarray(path.values)
    values = np.empty(old.shape[:-2] + (2 * old.shape[-2] - 1, old.shape[-1]))
    values[..., ::2, :] = old
    level = path.fine_level + 1
    seeds = path.seed if values.ndim == 3 else (path.seed,)
    streams = _Streams(seeds, level, level)
    _insert_midpoints(values.reshape((len(seeds),) + values.shape[-2:]), 2, streams, level)
    return BrownianPath(path.dim_noise, path.horizon, path.fine_level + 1, path.seed, values)


def restrict(path: BrownianPath, level: int) -> BrownianPath:
    """Restriction to a coarser dyadic grid (knot values shared byte-exactly)."""
    if level > path.fine_level:
        raise LevelTooFine(f"cannot restrict level {path.fine_level} to finer level {level}")
    stride = 2 ** (path.fine_level - level)
    return BrownianPath(
        path.dim_noise, path.horizon, level, path.seed,
        np.asarray(path.values)[..., ::stride, :],
    )


def _lagged_knots(path: BrownianPath, n: int, t: float):
    """Level-``n`` knot values ``k - 1`` and ``k`` (clamped to the path) of the
    interval ``[k/2^n, (k+1)/2^n)`` holding ``t``, and the fraction ``t 2^n - k``."""
    if n > path.fine_level:
        raise LevelTooFine(f"level {n} exceeds the path's fine level {path.fine_level}")
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
    knots = restrict(path, n).values
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
