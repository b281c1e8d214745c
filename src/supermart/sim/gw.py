"""Galton-Watson path generation with exact offspring sums.

For bounded offspring laws one generation is a single multinomial draw.  For
zeta-tailed laws one value-binned sampler serves every population, one parent
or many: a multinomial over exact head bins 1..K and dyadic tail blocks with
Hurwitz-zeta probabilities, each non-empty block's values filled in by
rejection against a uniform proposal.  The head holds at most 4096 values,
so a generation costs O(bins) only while few parents land in the tail: of
``n`` parents, of the order of ``n 4096^-alpha`` fall in the tail blocks,
each drawn by rejection, and from about 1e10 parents on the cost grows
linearly with the population (about 1 s per generation at 1e12 parents for
alpha 1.2).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import zeta as _hzeta

from ..model import GWModel
from .records import CHUNK_PATHS, Ensemble, path_streams

__all__ = ["simulate_gw"]

_INT_CAP = 2**63 - 1
_BLOCK_CAP = 2**62
_BATCH = 2**19  # most accepted draws one rejection round asks for (it proposes twice that)


@lru_cache(maxsize=32)
def _zeta_plan(alpha: float, head: int):
    """Binned pmf for the zeta(1+alpha) law: head values and dyadic blocks."""
    s = 1.0 + alpha
    z = float(_hzeta(s, 1))
    ks = np.arange(1, head + 1, dtype=float)
    head_p = ks**-s / z
    blocks = []
    lo = head + 1
    while lo <= _BLOCK_CAP:
        hi = min(2 * (lo - 1), _BLOCK_CAP)
        p = (float(_hzeta(s, lo)) - float(_hzeta(s, hi + 1))) / z
        blocks.append((lo, hi, p))
        lo = hi + 1
    pvals = np.concatenate([head_p, [b[2] for b in blocks]])
    pvals = pvals / pvals.sum()
    return ks.astype(np.int64), blocks, pvals


def _block_sum(lo: int, hi: int, n: int, s: float, rng: np.random.Generator) -> int:
    """Exact sum of n draws from pmf ~ k^-s restricted to [lo, hi], by rejection.

    At most ``_BATCH`` draws are wanted per rejection round, so memory stays
    bounded however large ``n`` grows; a block with ``n <= _BATCH`` draws
    exactly what an unbatched sampler would.
    """
    total = 0
    while n > 0:
        want = min(n, _BATCH)
        m = max(16, 2 * want)
        k = rng.integers(lo, hi + 1, size=m)
        accept = rng.random(m) < (k / lo) ** (-s)
        k = k[accept][:want]
        # int64 sums are exact below the cap; beyond it, sum Python ints
        total += int(k.sum()) if hi < _INT_CAP // m else int(k.astype(object).sum())
        n -= len(k)
    return total


def _powerlaw_generation(n_parents: int, alpha: float, rng: np.random.Generator) -> int:
    """Exact total offspring of ``n_parents`` zeta(1+alpha) individuals.

    One multinomial over the head values and the dyadic tail blocks, then an
    exact rejection sum inside each non-empty block, one draw per tail value
    (see the module docstring for the cost).  Returns the overflow cap directly
    for populations so large that the int64 accumulation could wrap.
    """
    if n_parents > _INT_CAP // 4096:
        return _INT_CAP
    # pick the head size balancing multinomial cost against tail draws
    head = int(min(4096, max(64, round(n_parents ** (1.0 / (1.0 + alpha))))))
    head = 1 << int(math.ceil(math.log2(head)))
    ks, blocks, pvals = _zeta_plan(alpha, head)
    counts = rng.multinomial(n_parents, pvals)
    total = int(np.dot(ks, counts[: len(ks)]))
    s = 1.0 + alpha
    tail = counts[len(ks) :]
    for b in np.flatnonzero(tail):
        lo, hi, _ = blocks[b]
        total += _block_sum(lo, hi, int(tail[b]), s, rng)
    return total if 0 <= total <= _INT_CAP else _INT_CAP


def simulate_gw(gw: GWModel, generations: int, paths: int, seed: int) -> Ensemble:
    """Per-path trajectories of ``W_k = Z_k / m^k``, absorbing at 0, overflow-flagged.

    The result is an ordinary one-type `Ensemble`: times ``0..generations``,
    ``M = W``, masses ``W``, ``lam = log m`` and ``phi = 1``.

    Populations are capped at ``2**63 - 1``; a capped path is flagged and
    should be excluded from estimates.
    """
    m = gw.mean()
    pmf = np.asarray(gw.pmf, dtype=float) if gw.pmf is not None else None
    if pmf is not None:
        pmf = pmf / pmf.sum()
        values = np.arange(len(pmf))
        cap = _INT_CAP // max(len(pmf) - 1, 1)  # largest population that cannot overflow
    w = np.empty((paths, generations + 1))
    flagged = np.zeros(paths, dtype=bool)
    norms = m ** -np.arange(generations + 1, dtype=float)
    for start in range(0, paths, CHUNK_PATHS):
        pids = range(start, min(start + CHUNK_PATHS, paths))
        streams = path_streams(seed, pids)
        for j, pid in enumerate(pids):
            rng = streams.fresh(j, "counts")  # not kept: one generator alive at a time
            z = 1
            w[pid, 0] = 1.0
            for gen in range(1, generations + 1):
                if z > 0:
                    if pmf is None:
                        z_next = _powerlaw_generation(z, gw.alpha, rng)
                    elif z > cap:
                        z_next = _INT_CAP
                    else:
                        z_next = int(np.dot(values, rng.multinomial(z, pmf)))
                    if z_next >= _INT_CAP:
                        z_next = _INT_CAP
                        flagged[pid] = True
                    z = z_next
                w[pid, gen] = z * norms[gen]
    return Ensemble(
        times=np.arange(generations + 1, dtype=float),
        M=w,
        masses=w[..., None],
        lam=math.log(m),
        phi=np.ones(1),
        flagged=flagged,
    )
