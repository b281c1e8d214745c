"""Simulation configs, per-path streams, and the ensemble container.

Reproducibility contract: outputs depend on the config and the master seed,
not on the chunk size.  Every path owns private RNG streams derived from
``SeedSequence([master_seed, path_id])``, split into three fixed roles:
``gauss`` (Gaussian increments), ``counts`` (each step's row of uniform
planes) and ``sizes`` (every uniform whose number varies from step to
step).  A role's index is its spawn key, so roles are only ever removed from
the end; the engine fixes the draw order within each stream.

The ``sizes`` uniforms reach the engine through a `VariatePool`.  Within a
step a path consumes them in this order: its near-absorbing cells, type
after type, two each (the Poisson count and the gamma sum); then its jumps,
type after type, each type's jump sizes before its jump times (times only
when jumps are logged); then the spine's discrete immigrant sizes.  Every
step draws from the streams in that order, so how the pool is batched, and
how paths are chunked, moves no draw.

The stream of role ``r`` is the ``PCG64`` that
``SeedSequence(entropy=[master_seed, path_id], spawn_key=(r,))`` seeds, but
its seed words are computed for a whole chunk of paths at once: building a
`SeedSequence` per path and role costs about 25 microseconds of Python-level
entropy coercion and hashing, ten times what building the generator from
its words costs.  `_stream_seed_words` replays numpy's stream-stable seeding
hash (the ``hashmix``/``mix`` rounds of ``SeedSequence.mix_entropy`` over
the uint32 entropy ``[master words..., path word, zero pad to 4, role]``,
then ``generate_state(4, uint64)``) on uint32 arrays with one row per path.
The entropy, the constants and the order of the rounds are numpy's, so the
words are the ones `SeedSequence` would hand to ``PCG64``; each generator
takes them through `_SeedWords` and draws exactly what the `SeedSequence`
construction draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "SimConfig",
    "SpineConfig",
    "Ensemble",
    "check_x0",
    "path_streams",
    "VariatePool",
    "CHUNK_PATHS",
]

# Fixed path-chunk size of the vectorized engines; it bounds the memory of a
# chunk's pre-drawn planes and must never depend on the machine.
CHUNK_PATHS = 4096

_STREAM_ROLES = ("gauss", "counts", "sizes")
_ROLE_INDEX = {role: i for i, role in enumerate(_STREAM_ROLES)}

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _uint32_words(n: int) -> list:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence coerces it."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


class _HashMix:
    """``hashmix`` with its running hash constant, over uint32 arrays."""

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> _XSHIFT)


def _entropy_seed_words(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words of every stream role, one row of entropy per path.

    ``entropy`` is ``(paths, L)`` uint32 (master then path words); the role
    word comes after a zero pad to the pool size.  Returns
    ``(paths, roles, 4)`` uint64.
    """
    if entropy.shape[1] < _POOL_SIZE:
        pad = np.zeros((len(entropy), _POOL_SIZE - entropy.shape[1]), dtype=np.uint32)
        entropy = np.concatenate([entropy, pad], axis=1)
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(entropy[:, i_src]))
    # the role (spawn key) is the last entropy word: one column per role
    roles = np.arange(len(_STREAM_ROLES), dtype=np.uint32)[None, :]
    for i_dst in range(_POOL_SIZE):
        pool[i_dst] = _mix(pool[i_dst][:, None], hashmix(roles))
    # generate_state(4, uint64): eight uint32 words cycling over the pool
    hashmix = _HashMix(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([state[2 * i] | (state[2 * i + 1] << 32) for i in range(4)], axis=-1)


def _stream_seed_words(master_seed: int, path_ids) -> np.ndarray:
    """``(paths, roles, 4)`` uint64 seed words of every path's streams."""
    master = _uint32_words(int(master_seed))
    pids = np.asarray(path_ids, dtype=np.int64)
    if ((pids < 0) | (pids > _MASK32)).any():
        raise ValueError("path ids must lie in [0, 2**32)")
    cols = [np.full(len(pids), w, dtype=np.uint32) for w in master]
    return _entropy_seed_words(np.stack(cols + [pids.astype(np.uint32)], axis=1))


class _SeedWords(ISeedSequence):
    """Hands precomputed PCG64 seed words to the bit generator."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("precomputed seed words serve PCG64 only")
        return self._words


class PathStreams:
    """Named generators for a block of paths, seeded for the whole block at once.

    ``streams[j, role]`` is path ``path_ids[j]``'s generator for ``role``,
    built on first use and kept; `fresh` builds one that is not kept, for
    roles drawn from only once.  Each role maps to a fixed spawn key of
    ``SeedSequence([master, path])``, so which roles a run touches (and in
    what order) never changes the draws of any other role.
    """

    __slots__ = ("_words", "_gens")

    def __init__(self, master_seed: int, path_ids):
        self._words = _stream_seed_words(master_seed, path_ids)
        self._gens = {}

    def __getitem__(self, key) -> np.random.Generator:
        gen = self._gens.get(key)
        if gen is None:
            gen = self._gens[key] = self.fresh(*key)
        return gen

    def fresh(self, j: int, role: str) -> np.random.Generator:
        words = self._words[j, _ROLE_INDEX[role]]
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))


class VariatePool:
    """The ``sizes`` uniforms of a block of paths, each path in its own stream order.

    ``take(need)`` hands path ``j`` its next ``need[j]`` uniforms, for every
    path at once, as one flat array that holds path 0's values, then path
    1's, and so on.  Over all calls, path ``j`` receives exactly what one
    call ``streams[j, "sizes"].random(total_j)`` returns.  Each path keeps a
    buffer of ``batch`` slots, refilled from its own stream a whole batch at
    a time once it is used up; the buffers are allocated at the first
    request.
    """

    __slots__ = ("_streams", "_batch", "_buf", "_rows", "_pos")

    def __init__(self, streams: PathStreams, batch: int):
        self._streams = streams
        self._batch = batch
        self._buf = None  # (paths, batch)
        self._rows = None  # the rows of _buf, one view per path
        self._pos = None  # per path, the first slot not yet handed out

    def take(self, need: np.ndarray) -> np.ndarray:
        need = np.asarray(need, dtype=np.int64)
        paths = np.flatnonzero(need)  # the paths that draw, and how many each
        count = need[paths]
        out = np.empty(int(count.sum()))
        if not len(out):
            return out
        b = self._batch
        if self._buf is None:
            self._buf = np.empty((len(need), b))
            self._rows = list(self._buf)
            self._pos = np.full(len(need), b)
        pos = self._pos[paths]
        dest = np.cumsum(count) - count  # where each path's values start in out
        # first what the buffers hold
        give = np.minimum(count, b - pos)
        self._gather(out, paths, give, dest, pos)
        pos += give
        short = np.flatnonzero(count > give)
        if len(short):
            # then the paths whose buffers ran dry: refilled a whole batch at
            # a time, batches beyond the last going straight to out
            left = count[short] - give[short]
            dest = dest[short] + give[short]
            for q, (j, m, o) in enumerate(zip(paths[short].tolist(), left.tolist(), dest.tolist())):
                draw = self._streams[j, "sizes"].random
                while m > b:
                    draw(out=out[o : o + b])
                    o += b
                    m -= b
                    left[q], dest[q] = m, o
                draw(out=self._rows[j])
            self._gather(out, paths[short], left, dest, np.zeros_like(left))
            pos[short] = left
        self._pos[paths] = pos
        return out

    def _gather(self, out, paths, count, dest, start):
        """``out[dest + i] = buffer[paths, start + i]`` for ``i < count``, per path."""
        n = int(count.sum())
        if not n:
            return
        step = np.arange(n)
        first = np.cumsum(count) - count
        src = np.repeat(paths * self._batch + start - first, count) + step
        if n == len(out):  # the values fill out in order
            out[:] = self._buf.reshape(-1)[src]
        else:
            out[np.repeat(dest - first, count) + step] = self._buf.reshape(-1)[src]


def path_streams(master_seed: int, path_ids) -> PathStreams:
    """Named generators (lazy) for the paths ``path_ids``."""
    return PathStreams(master_seed, path_ids)


def check_x0(x0, d: int) -> np.ndarray:
    """``x0`` as ``d`` finite masses ``>= 0`` with a positive sum, or ``ValueError``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,) or not np.isfinite(x0).all() or (x0 < 0).any() or x0.sum() <= 0:
        raise ValueError(f"x0 must be {d} finite masses >= 0 with a sum > 0, got {x0.tolist()}")
    return x0


@dataclass(frozen=True)
class SimConfig:
    """Controls one CSBP run.

    ``epsilon`` is the small/large jump split; ``None`` asks the engine to
    pick it so that the expected number of large jumps per step stays small.
    """

    dt: float
    horizon: float
    paths: int
    master_seed: int
    epsilon: float | None = None
    record_stride: int = 1
    log_jumps: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if self.dt > 0.01 * self.horizon + 1e-15:
            raise ValueError("dt must be <= 0.01 * horizon")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.paths < 1 or self.record_stride < 1:
            raise ValueError("paths and record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class SpineConfig(SimConfig):
    """CSBP config plus the two spine approximation quanta.

    ``delta`` is the initial mass of one continuum immigrant (the excursion
    measure is approximated by rate ``alpha/delta`` immigrants of mass
    ``delta``); ``delta_floor`` truncates discrete immigrants below it.
    """

    delta: float = 1e-3
    delta_floor: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.delta <= 0.01):
            raise ValueError("delta must lie in (0, 0.01]")
        if not (0 < self.delta_floor <= 0.01):
            raise ValueError("delta_floor must lie in (0, 0.01]")


@dataclass
class Ensemble:
    """Column-stacked records of many paths on one shared grid.

    ``jumps`` (None when not logged) has one row ``path_id, t, type, size``
    per logged jump, ``type`` 0-based, sorted by path then time, ties in
    draw order: the table of ``jumps.csv`` with the types one lower.
    """

    times: np.ndarray
    M: np.ndarray  # (paths, n_times)
    masses: np.ndarray  # (paths, n_times, d)
    lam: float
    phi: np.ndarray
    clipped: np.ndarray = field(default=None)
    flagged: np.ndarray = field(default=None)
    jumps: np.ndarray | None = None  # (n_jumps, 4)

    @property
    def n_paths(self) -> int:
        return self.M.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def select(self, rows: slice) -> "Ensemble":
        """The paths in ``rows``, a slice of step 1, with their jump rows renumbered from 0."""

        def take(a):
            return None if a is None else a[rows]

        start, stop, step = rows.indices(self.n_paths)
        if step != 1:
            raise ValueError(f"select takes a slice of step 1, got step {step}")
        jumps = self.jumps
        if jumps is not None:
            jumps = jumps[(jumps[:, 0] >= start) & (jumps[:, 0] < stop)] - [start, 0, 0, 0]
        return replace(
            self,
            M=self.M[rows],
            masses=self.masses[rows],
            clipped=take(self.clipped),
            flagged=take(self.flagged),
            jumps=jumps,
        )
