"""Multitype CSBP paths via jump-split Euler stepping.

Scheme per step of size ``h`` from state ``X`` (one row per path):

* deterministic part: the exact one-step mean map ``X @ expm(h (Q + diag b))``
  (this, together with compensating large jumps at the start-of-step state,
  makes the scheme's ensemble mean exact, not just first-order accurate);
* small jumps (size <= epsilon) and continuous branching: per type one
  increment with the step's own end-of-step variance ``X @ var_map``, where
  ``var_map[k, j] = sum_i int_0^h P_s[k, i] c_i P_{h-s}[i, j]^2 ds`` with
  ``P_s = expm(s (Q + diag b))`` and ``c_i = alpha_diff_i + int_0^eps r^2 pi_i``:
  the diagonal of the covariance of the noise born in type ``i`` during the
  step and carried to type ``j`` by the mean map;
* large jumps: per type a Poisson count with mean ``X_i h int_eps^inf pi_i``,
  sizes from the normalized tail (the kernel's ``tail_quantile`` of the
  path's pooled ``sizes`` uniforms), compensated by
  ``- X_i h int_eps^inf r pi_i`` (folded into the deterministic part, so the
  compensator can never push a coordinate negative on its own);
* negative coordinates are clipped to 0 (0 is absorbing for the true
  process); the clipped mass is accounted per path and flags the path when
  it exceeds the accuracy budget.

Where the Gaussian scale rivals the mass itself (deterministic part below
six standard deviations) a Gaussian step would be clipped so often that the
accounting budget could not hold, so the increment switches to a compound
Poisson-exponential draw matched to the same mean and variance.  That
distribution is the exact quadratic-branching transition shape: nonnegative,
with a genuine atom at 0, so absorption emerges without clipping; for one
type without jumps it is the exact Feller transition.  A near-absorbing cell
takes two uniforms: the first gives the Poisson count ``n``, the second the
``Gamma(n, theta)`` sum by inverse CDF, so a cell costs the same whatever
its count.

Every draw whose number varies from step to step (near-absorption
uniforms, jump sizes and times, the spine's immigrant sizes) comes from the
path's pooled ``sizes`` uniforms (`VariatePool`), so a step makes no Python
call per cell; the records module gives the order in which a path consumes
them.  A path whose mass leaves the floating-point range stops there, and
once every chunk has run, `NumericalError` names all such paths and the
first record that holds a non-finite mass.

The variance has to be the end-of-step one.  A type that is empty at the
start of a step but fed by the motion has a positive mean and, under the
start-of-step Euler variance ``c_i X_i h``, no noise at all: it would always
come out positive, the types would take turns dying, and joint extinction
would come out far too rare.  With the step's own variance the inflow can
die within the same step.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg
from scipy.special import gammaincinv, ndtri, pdtr, pdtrik

from ..errors import NumericalError
from ..model import Model
from ..spectral import Eigentriple, generator_matrix
from .records import CHUNK_PATHS, Ensemble, SimConfig, VariatePool, check_x0, path_streams

__all__ = ["simulate_csbp", "auto_epsilon"]

_CLIP_BUDGET = 1e-6
_SMALL_Z2 = 36.0  # Gaussian branch needs mean >= 6 sigma to keep clipping negligible
# Poisson means up to the near-absorption bound 2 * _SMALL_Z2 are inverted by
# a search on pdtr; larger ones by scipy's quantile formula
_POIS_SEARCH_CAP = 2.0 * _SMALL_Z2
# uniforms a path draws at a time: two per near-absorbing cell and a few
# jump sizes per step
_SIZES_BATCH = 32


def auto_epsilon(
    model: Model, eig: Eigentriple, x0: np.ndarray, dt: float, horizon: float
) -> float:
    """Split level so the expected large jumps per step stay near 0.1.

    Each kernel's ``split_level`` solves ``pi((eps, inf)) * max_mass * dt = 0.1``
    with ``max_mass`` the mean total mass at the horizon (times a safety
    factor), and the largest wins.  When no kernel needs a split (finitely
    many jumps), the level is half the smallest jump, which makes every jump
    a logged large jump, or 1.0 for a model without jumps.
    """
    try:
        max_mass = 2.0 * float(np.sum(x0)) * math.exp(max(eig.lam, 0.0) * horizon)
    except OverflowError:
        raise NumericalError(
            f"the mean mass e^(lambda T) overflows at lambda = {eig.lam:g}, horizon T = {horizon:g}"
        ) from None
    rate_cap = 0.1 / (max_mass * dt)
    eps = max(k.split_level(rate_cap) for k in model.kernels)
    if eps == 0.0:
        smallest = min(k.smallest_jump() for k in model.kernels)
        eps = 0.5 * smallest if smallest < math.inf else 1.0
    return eps


def _poisson_quantile(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Poisson inverse CDF by ``scipy.stats.poisson``'s own quantile formula.

    ``ceil(pdtrik(u, mu))``, stepped down by one where the CDF one below
    already reaches ``u``: the values ``poisson.ppf`` gives for ``u`` in
    (0, 1) without its per-call wrapper cost.  ``u == 0`` gives 0, the
    smallest count, where ``ppf`` gives -1.
    """
    k = np.ceil(pdtrik(u, mu))
    below = np.maximum(k - 1.0, 0.0)
    k = np.where(pdtr(below, mu) >= u, below, k)
    return np.where(u > 0.0, k, 0.0).astype(np.int64)


def _poisson_search(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Smallest ``k >= 0`` with ``pdtr(k, mu) >= u``, from a Cornish-Fisher guess.

    The guess ``mu + sqrt(mu) z + (z^2 - 1) / 6`` with ``z = ndtri(u)`` (and
    a continuity half step) is within a count or two of the answer for the
    means this serves; the walks up and down then touch only the cells not
    yet settled, with one ``pdtr`` call per step.
    """
    z = ndtri(u)
    k = np.maximum(np.ceil(mu + np.sqrt(mu) * z + (z * z - 1.0) / 6.0 - 0.5), 0.0)
    low = pdtr(k, mu) < u
    up = np.flatnonzero(low)
    while up.size:
        k[up] += 1.0
        up = up[pdtr(k[up], mu[up]) < u[up]]
    # a cell that walked up already has pdtr(k - 1) < u
    down = np.flatnonzero(~low & (k > 0.0))
    while down.size:
        down = down[pdtr(k[down] - 1.0, mu[down]) >= u[down]]
        k[down] -= 1.0
        down = down[k[down] > 0.0]
    return k.astype(np.int64)


def _poisson_nonzero(u: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells with a positive count ``poisson.ppf(u, mu)``: flat indices and counts.

    One pass settles every cell with ``u <= exp(-mu)`` (count 0, most cells
    when means are small); the rest go to `_poisson_search` up to
    ``_POIS_SEARCH_CAP`` and to `_poisson_quantile` above it.
    """
    u = np.ascontiguousarray(u).reshape(-1)
    mu = np.ascontiguousarray(mu).reshape(-1)
    live = np.flatnonzero(u > np.exp(-mu))
    ul, ml = u[live], mu[live]
    big = ml > _POIS_SEARCH_CAP
    if big.any():
        k = np.empty(live.shape, dtype=np.int64)
        k[big] = _poisson_quantile(ul[big], ml[big])
        k[~big] = _poisson_search(ul[~big], ml[~big])
    else:
        k = _poisson_search(ul, ml)
    # pdtr(0, mu) may lie an ulp above exp(-mu)
    pos = np.flatnonzero(k)
    return live[pos], k[pos]


def _poisson_counts(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Poisson inverse CDF at uniforms ``u``: ``poisson.ppf(u, mu)``, 0 at ``u = 0``."""
    out = np.zeros(np.shape(u), dtype=np.int64)
    cells, k = _poisson_nonzero(u, mu)
    out.reshape(-1)[cells] = k
    return out


def _near_absorption(det: np.ndarray, var: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The compound Poisson-exponential draw with mean ``det`` and variance ``var`` per cell.

    A Poisson count with mean ``2 det^2 / var`` (0 where ``det <= 0``) at the
    cell's first uniform ``u[:, 0]``, then ``Gamma(count, var / (2 det))`` by
    inverse CDF at its second ``u[:, 1]``.
    """
    lam = np.where(det > 0.0, 2.0 * det * det / np.maximum(var, 1e-300), 0.0)
    hit, n = _poisson_nonzero(u[:, 0], lam)
    out = np.zeros(len(det))
    out[hit] = var[hit] / (2.0 * det[hit]) * gammaincinv(n, u[hit, 1])
    return out


def _per_path(p: np.ndarray, n: np.ndarray, paths: int) -> np.ndarray:
    """Per path the sum of the counts ``n`` of its cells, the paths of the cells in ``p``."""
    return np.bincount(p, weights=n, minlength=paths).astype(np.int64)


def _by_type(quantiles, types: np.ndarray, level: float, u: np.ndarray) -> np.ndarray:
    """``quantiles[i](level, u)`` applied to the uniforms of ``u`` whose type is ``i``."""
    out = np.empty_like(u)
    for i in np.unique(types):
        sel = types == i
        out[sel] = quantiles[i](level, u[sel])
    return out


def _row_product(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``x @ mat`` with one summation order whatever the number of rows.

    numpy takes a one-row product as a vector-matrix product, which from
    four types on sums in another order than the matrix product of a larger
    chunk; a one-row chunk therefore takes the product of its row twice.
    """
    if len(x) == 1:
        return (np.concatenate([x, x]) @ mat)[:1]
    return x @ mat


def simulate_csbp(
    model: Model,
    eig: Eigentriple,
    cfg: SimConfig,
    x0: np.ndarray | None = None,
    *,
    immigration=None,
    threads: int = 1,
) -> Ensemble:
    """Simulate ``cfg.paths`` CSBP paths; see module docstring for the scheme.

    ``x0`` defaults to ``nu`` (so ``<phi, X_0> = 1`` and ``M_0 = 1``); any
    other must pass `check_x0`.

    ``immigration`` is the spine sampler's hook; the plain process passes
    None.  It provides ``extra_uniform_planes``, the number of uniform
    planes per step it reads; ``prepare_chunk(pids)``, which returns an
    opaque context for the chunk of paths ``pids``; and ``step_mass(k, x,
    u_imm, sizes, ctx)``, the mass added in step ``k`` given the
    start-of-step state, its planes and the chunk's ``sizes`` pool, which
    the step's near-absorbing cells and jumps have already drawn from.  Each
    step a path draws its uniforms from its ``counts`` stream in one row:
    ``d`` large-jump planes when the model jumps, then the hook's ``u_imm``,
    the last ``extra_uniform_planes`` of the row.  A near-absorbing cell
    takes its two uniforms from the ``sizes`` pool instead.

    The paths run in fixed chunks of ``CHUNK_PATHS``, one after the other.
    ``threads`` is accepted for callers that still pass it, and only as 1.
    Raises `NumericalError` when a mass leaves the floating-point range.
    """
    d = model.d
    x0 = eig.nu.copy() if x0 is None else check_x0(x0, d)
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}: the engine runs its chunks in order")
    h = cfg.dt
    n_steps = cfg.n_steps
    eps = cfg.epsilon
    if eps is None:
        eps = auto_epsilon(model, eig, x0, h, cfg.horizon)

    kernels = model.kernels
    tail_quantiles = [k.tail_quantile for k in kernels]
    rate_large = np.array([k.partial_moment(0.0, eps, math.inf) for k in kernels])
    m1_large = np.array([k.partial_moment(1.0, eps, math.inf) for k in kernels])
    m2_small = np.array([k.partial_moment(2.0, 0.0, eps) for k in kernels])
    diff_coef = model.alpha_diff + m2_small
    rate_h = rate_large * h
    m1_h = m1_large * h
    has_jumps = bool((rate_large > 0).any())

    gen = generator_matrix(model)
    prop = linalg.expm(h * gen)
    # var_map of the module docstring by 8-node Gauss-Legendre, exact to
    # round-off where h |gen| is small; the nodes are symmetric, so the
    # flows at h - s are the flows at s reversed
    nodes, weights = np.polynomial.legendre.leggauss(8)
    flows = linalg.expm((0.5 * h * (nodes + 1.0))[:, None, None] * gen)
    var_map = 0.5 * h * np.einsum("n,nki,i,nij->kj", weights, flows, diff_coef, flows[::-1] ** 2)

    rec_idx = list(range(0, n_steps + 1, cfg.record_stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    rec_pos = {step: j for j, step in enumerate(rec_idx)}
    n_rec = len(rec_idx)
    times = np.array(rec_idx, dtype=float) * h

    masses = np.empty((cfg.paths, n_rec, d))
    m_out = np.empty((cfg.paths, n_rec))
    clipped = np.zeros(cfg.paths)
    bad_step = np.full(cfg.paths, n_steps)  # first step with a non-finite mass
    jump_blocks = [np.empty((0, 4))]  # rows path_id, t, type, size
    total0 = float(np.sum(x0))

    # uniform plane layout per step: large-jump counts (only when the model
    # jumps), then the hook's own planes
    imm_lo = d if has_jumps else 0
    extra = immigration.extra_uniform_planes if immigration is not None else 0
    n_planes = imm_lo + extra
    decay = np.exp(-eig.lam * times)[None, :]

    for start in range(0, cfg.paths, CHUNK_PATHS):
        pids = range(start, min(start + CHUNK_PATHS, cfg.paths))
        c = len(pids)
        streams = path_streams(cfg.master_seed, pids)
        g = np.empty((c, n_steps, d))
        u = np.empty((c, n_steps, n_planes))
        for j in range(c):  # each drawn from once: not kept
            streams.fresh(j, "gauss").standard_normal(out=g[j])
            streams.fresh(j, "counts").random(out=u[j])
        imm_ctx = immigration.prepare_chunk(pids) if immigration is not None else None
        sizes = VariatePool(streams, _SIZES_BATCH)
        # per-type rates as (paths, types) arrays: products with them need no broadcast
        m1_hc = np.tile(m1_h, (c, 1))
        rate_hc = np.tile(rate_h, (c, 1))

        # views of this chunk's rows of the outputs, filled in place
        mass_rec = masses[start : pids.stop]
        clip_acc = clipped[start : pids.stop]
        first_bad = bad_step[start : pids.stop]
        x = np.tile(x0, (c, 1))
        mass_rec[:, 0, :] = x

        for k in range(n_steps):
            # deterministic mean part with the large-jump compensator folded in
            det = _row_product(x, prop)
            if has_jumps:
                det = det - x * m1_hc
            var = _row_product(x, var_map)
            small = det * det < _SMALL_Z2 * var
            x_new = det + np.sqrt(var) * g[:, k, :]
            # cells (path, type) are flat indices into these (paths, types) arrays
            x_flat = x_new.reshape(-1)

            # near-absorption branch: matched compound Poisson-exponential
            if small.any():
                cells = np.flatnonzero(small)
                p = cells // d
                det_c = det.reshape(-1)[cells]
                clip_acc -= np.bincount(p, weights=np.minimum(det_c, 0.0), minlength=c)
                # two uniforms per cell; the cells come in path order, types
                # in order within a path
                vals = sizes.take(2 * small.sum(axis=1)).reshape(-1, 2)
                x_flat[cells] = _near_absorption(det_c, var.reshape(-1)[cells], vals)

            if has_jumps:
                cells, n = _poisson_nonzero(u[:, k, :d], x * rate_hc)
                if len(cells):
                    # each cell takes its n sizes, then its n times when jumps are logged
                    p, i = np.divmod(cells, d)
                    per = 2 if cfg.log_jumps else 1
                    vals = sizes.take(_per_path(p, per * n, c))
                    jump_cell = np.repeat(np.arange(len(n)), n)
                    first = np.cumsum(n) - n
                    at = np.arange(len(jump_cell)) + (per - 1) * first[jump_cell]
                    r = _by_type(tail_quantiles, i[jump_cell], eps, vals[at])
                    x_flat[cells] += np.add.reduceat(r, first)
                    if cfg.log_jumps:
                        t_jump = k * h + h * vals[at + n[jump_cell]]
                        jump_blocks.append(
                            np.column_stack([start + p[jump_cell], t_jump, i[jump_cell], r])
                        )

            if immigration is not None:
                x_new = x_new + immigration.step_mass(k, x, u[:, k, imm_lo:], sizes, imm_ctx)
            finite = np.isfinite(x_new).all(axis=1)
            if not finite.all():
                # an overflowing path goes on from 0, so its non-finite mass
                # cannot reach the next steps' draws; the run fails after
                # every chunk has run
                first_bad[~finite] = np.minimum(first_bad[~finite], k)
                x_new[~finite] = 0.0
            neg = x_new < 0
            if neg.any():
                clip_acc -= np.where(neg, x_new, 0.0).sum(axis=1)
                x = np.maximum(x_new, 0.0)
            else:
                x = x_new
            pos = rec_pos.get(k + 1)
            if pos is not None:
                mass_rec[:, pos, :] = x

        m_out[start : pids.stop] = decay * (mass_rec @ eig.phi)
        # free this chunk's planes and pools before the next chunk draws its own
        del g, u, imm_ctx, sizes

    bad = np.flatnonzero(bad_step < n_steps)
    if len(bad):
        t_bad = float(times[np.searchsorted(rec_idx, bad_step[bad].min() + 1)])
        ids = ", ".join(str(pid) for pid in bad[:10]) + (", ..." if len(bad) > 10 else "")
        raise NumericalError(
            f"mass overflow: {len(bad)} path(s) of {cfg.paths} reach a non-finite mass, the "
            f"first at the record t = {t_bad:g} (path ids {ids})"
        )
    flagged = clipped > _CLIP_BUDGET * total0 * cfg.horizon
    log = np.concatenate(jump_blocks)
    # by path, then by time; lexsort is stable, so ties keep their draw order
    jumps = log[np.lexsort((log[:, 1], log[:, 0]))] if cfg.log_jumps else None
    return Ensemble(
        times=times,
        M=m_out,
        masses=masses,
        lam=eig.lam,
        phi=eig.phi,
        clipped=clipped,
        flagged=flagged,
        jumps=jumps,
    )
