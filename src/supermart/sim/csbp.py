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
  sizes drawn from the normalized tail, compensated by
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
type without jumps it is the exact Feller transition.

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
from scipy.special import pdtr, pdtrik

from ..model import Model
from ..spectral import Eigentriple, generator_matrix
from .records import CHUNK_PATHS, Ensemble, SimConfig, path_streams

__all__ = ["simulate_csbp", "auto_epsilon"]

_CLIP_BUDGET = 1e-6
_POIS_VECTOR_CAP = 25.0
_SMALL_Z2 = 36.0  # Gaussian branch needs mean >= 6 sigma to keep clipping negligible


def auto_epsilon(
    model: Model, eig: Eigentriple, x0: np.ndarray, dt: float, horizon: float
) -> float:
    """Split level so the expected large jumps per step stay near 0.1.

    Each kernel's ``split_level`` solves ``tail(eps) * max_mass * dt = 0.1``
    with ``max_mass`` the mean total mass at the horizon (times a safety
    factor), and the largest wins.  When no kernel needs a split (finitely
    many jumps), the level is half the smallest jump, which makes every jump
    a logged large jump, or 1.0 for a model without jumps.
    """
    max_mass = 2.0 * float(np.sum(x0)) * math.exp(max(eig.lam, 0.0) * horizon)
    rate_cap = 0.1 / (max_mass * dt)
    eps = max(k.split_level(rate_cap) for k in model.mech.kernels)
    if eps == 0.0:
        smallest = min(k.smallest_jump() for k in model.mech.kernels)
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


def _poisson_counts(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Poisson inverse CDF, vectorized for small means with a quantile fallback."""
    out = np.zeros(u.shape, dtype=np.int64)
    big = mu > _POIS_VECTOR_CAP
    small = ~big & (mu > 0)
    if small.any():
        us, ms = u[small], mu[small]
        res = np.zeros(us.shape, dtype=np.int64)
        p = np.exp(-ms)
        cdf = p.copy()
        active = us > cdf
        k = 0
        k_cap = int(_POIS_VECTOR_CAP + 12 * math.sqrt(_POIS_VECTOR_CAP) + 30)
        while active.any() and k < k_cap:
            k += 1
            p = p * ms / k
            cdf = cdf + p
            res[active & (us <= cdf)] = k
            active &= us > cdf
        if active.any():  # u in the far numerical tail
            res[active] = _poisson_quantile(us[active], ms[active])
        out[small] = res
    if big.any():
        out[big] = _poisson_quantile(u[big], mu[big])
    return out


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

    ``x0`` defaults to ``nu`` (so ``<phi, X_0> = 1`` and ``M_0 = 1``).

    ``immigration`` is the spine sampler's hook; the plain process passes
    None.  It provides ``extra_uniform_planes``, the number of uniform
    planes per step it reads; ``prepare_chunk(pids, streams)``, which returns
    an opaque per-chunk context; and ``step_mass(k, x, u_extra, streams,
    ctx)``, the mass added in step ``k`` given the start-of-step state and
    its uniform planes.

    The paths run in fixed chunks of ``CHUNK_PATHS``, one after the other.
    ``threads`` is accepted for callers that still pass it, and only as 1.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}: the engine runs its chunks in order")
    d = model.d
    x0 = eig.nu.copy() if x0 is None else np.asarray(x0, dtype=float)
    h = cfg.dt
    n_steps = cfg.n_steps
    eps = cfg.epsilon
    if eps is None:
        eps = auto_epsilon(model, eig, x0, h, cfg.horizon)

    kernels = model.mech.kernels
    rate_large = np.array([k.tail(eps) for k in kernels])
    m1_large = np.array([k.partial_moment(1.0, eps, math.inf) for k in kernels])
    m2_small = np.array([k.partial_moment(2.0, 0.0, eps) for k in kernels])
    diff_coef = model.mech.alpha_diff + m2_small
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
    prop_scalar = float(prop[0, 0]) if d == 1 else None
    var_scalar = float(var_map[0, 0]) if d == 1 else None

    rec_idx = list(range(0, n_steps + 1, cfg.record_stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    rec_pos = {step: j for j, step in enumerate(rec_idx)}
    n_rec = len(rec_idx)
    times = np.array(rec_idx, dtype=float) * h

    masses = np.empty((cfg.paths, n_rec, d))
    m_out = np.empty((cfg.paths, n_rec))
    clipped = np.zeros(cfg.paths)
    jumps: list | None = [None] * cfg.paths if cfg.log_jumps else None
    total0 = float(np.sum(x0))

    # uniform plane layout per step: large-jump counts (only when the model
    # jumps), then near-absorption counts, then immigration counts
    n_jump_planes = d if has_jumps else 0
    small_lo = n_jump_planes
    extra = immigration.extra_uniform_planes if immigration is not None else 0
    n_planes = n_jump_planes + d + extra
    decay = np.exp(-eig.lam * times)[None, :]

    for start in range(0, cfg.paths, CHUNK_PATHS):
        pids = range(start, min(start + CHUNK_PATHS, cfg.paths))
        c = len(pids)
        streams = path_streams(cfg.master_seed, pids)
        g = np.empty((c, n_steps, d))
        u = np.empty((c, n_steps, n_planes))
        for j in range(c):  # each drawn from once: not kept
            g[j] = streams.fresh(j, "gauss").standard_normal((n_steps, d))
            u[j] = streams.fresh(j, "counts").random((n_steps, n_planes))
        imm_ctx = immigration.prepare_chunk(pids, streams) if immigration is not None else None

        # views of this chunk's rows of the outputs, filled in place
        mass_rec = masses[start : pids.stop]
        clip_acc = clipped[start : pids.stop]
        jump_logs = [[] for _ in range(c)] if cfg.log_jumps else None
        x = np.tile(x0, (c, 1))
        mass_rec[:, 0, :] = x

        for k in range(n_steps):
            # deterministic mean part with the large-jump compensator folded in
            det = x * prop_scalar if prop_scalar is not None else x @ prop
            if has_jumps:
                det = det - x * m1_h
            var = x * var_scalar if var_scalar is not None else x @ var_map
            small = det * det < _SMALL_Z2 * var
            x_new = det + np.sqrt(var) * g[:, k, :]

            # near-absorption branch: matched compound Poisson-exponential
            if small.any():
                rows = np.nonzero(small.any(axis=1))[0]
                small_s = small[rows]
                det_s = det[rows]
                var_s = var[rows]
                me = np.where(small_s, det_s, 0.0)
                lam_s = np.where(
                    small_s & (me > 0.0), 2.0 * me * me / np.maximum(var_s, 1e-300), 0.0
                )
                n_exp = _poisson_counts(u[rows, k, small_lo : small_lo + d], lam_s)
                xn_s = x_new[rows]
                xn_s[small_s] = 0.0
                clip_acc[rows] -= np.where(small_s, np.minimum(det_s, 0.0), 0.0).sum(axis=1)
                for jj, i in zip(*np.nonzero(n_exp)):
                    j = rows[jj]
                    xn_s[jj, i] = streams[j, "reject"].gamma(
                        n_exp[jj, i], var_s[jj, i] / (2.0 * det_s[jj, i])
                    )
                x_new[rows] = xn_s

            if has_jumps:
                counts = _poisson_counts(u[:, k, :d], x * rate_h)
                if counts.any():
                    t_left = k * h
                    for j, i in zip(*np.nonzero(counts)):
                        n = int(counts[j, i])
                        rng = streams[j, "sizes"]
                        sizes = kernels[i].sample_tail_many(eps, n, rng)
                        x_new[j, i] += sizes.sum()
                        if cfg.log_jumps:
                            t_jump = t_left + h * rng.random(n)
                            for tt, rr in zip(t_jump, sizes):
                                jump_logs[j].append((tt, i, rr))

            if immigration is not None:
                x_new = x_new + immigration.step_mass(k, x, u[:, k, d:], streams, imm_ctx)
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
        if cfg.log_jumps:
            for pid, log in zip(pids, jump_logs):
                arr = np.array(log, dtype=float).reshape(-1, 3)
                jumps[pid] = arr[np.argsort(arr[:, 0], kind="stable")]
        # free this chunk's planes before the next chunk draws its own
        del g, u, imm_ctx

    flagged = clipped > _CLIP_BUDGET * total0 * cfg.horizon
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
