"""Simulation configs, per-path records, and ensemble containers.

Reproducibility contract: outputs depend on the config and the master seed,
not on the chunk size.  Every path owns private RNG streams derived from
``SeedSequence([master_seed, path_id])``, split into fixed roles (gaussians,
event counts, event sizes, near-absorption draws, spine motion), and the
engine fixes the draw order within each stream.  One exception: with four or
more types, a chunk of exactly one path has numpy take ``x @ prop`` and
``x @ var_map`` as matrix-vector products, which sum in another order, so
that path's masses may differ in the last bits (up to 2e-15 relative).  The
near-absorption role keeps the name ``reject``, from a step-rejection redo
the engine no longer has, and its index, so the roles after it keep their
seeds.

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

from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "SimConfig",
    "SpineConfig",
    "PathRecord",
    "Ensemble",
    "path_streams",
    "estimate_Minfty",
    "CHUNK_PATHS",
]

# Fixed path-chunk size of the vectorized engines; it bounds the memory of a
# chunk's pre-drawn planes and must never depend on the machine.
CHUNK_PATHS = 4096

_STREAM_ROLES = ("gauss", "counts", "sizes", "reject", "spine")
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
        if n_words != 4 or np.dtype(dtype) != np.uint64:
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


def path_streams(master_seed: int, path_ids) -> PathStreams:
    """Named generators (lazy) for the paths ``path_ids``."""
    return PathStreams(master_seed, path_ids)


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


@dataclass(frozen=True)
class PathRecord:
    """One recorded path: time grid, masses, martingale values, jump log."""

    times: np.ndarray
    masses: np.ndarray
    M: np.ndarray
    jumps: np.ndarray  # rows (time, type, size), possibly empty
    lam: float
    phi: np.ndarray
    clipped: float = 0.0
    flagged: bool = False

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


@dataclass
class Ensemble:
    """Column-stacked records of many paths on one shared grid."""

    times: np.ndarray
    M: np.ndarray  # (paths, n_times)
    masses: np.ndarray | None  # (paths, n_times, d) or None
    lam: float
    phi: np.ndarray
    clipped: np.ndarray = field(default=None)
    flagged: np.ndarray = field(default=None)
    jumps: list | None = None  # per path (time, type, size) arrays

    @property
    def n_paths(self) -> int:
        return self.M.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def path(self, i: int) -> PathRecord:
        return PathRecord(
            times=self.times,
            masses=self.masses[i] if self.masses is not None else None,
            M=self.M[i],
            jumps=self.jumps[i] if self.jumps is not None else np.empty((0, 3)),
            lam=self.lam,
            phi=self.phi,
            clipped=float(self.clipped[i]) if self.clipped is not None else 0.0,
            flagged=bool(self.flagged[i]) if self.flagged is not None else False,
        )


def estimate_Minfty(path) -> float:
    """Proxy for the martingale limit: the last recorded M value.

    Rate fits must only consume times up to half the horizon so that the
    proxy bias stays below the decay being measured.
    """
    return float(np.asarray(path.M)[..., -1])
