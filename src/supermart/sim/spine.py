"""Size-biased path sampler built from the spine decomposition.

Under the size-biased change of measure the process equals (in law) an
independent copy from the original initial mass, plus mass immigrating along
an immortal tilted particle (the spine):

* the spine moves by the Doob-transformed motion with rates
  ``q_ij phi_j / phi_i`` and starts from the ``phi``-biased initial law;
* continuum immigration is approximated by Poisson(``alpha(xi)/delta``) rate
  immigrants, each a CSBP copy started from mass ``delta`` at the spine's
  type (this matches the excursion measure's first moment exactly for any
  ``delta``; smaller ``delta`` refines higher moments);
* discrete immigration arrives at rate ``int_{delta_floor}^inf y pi(xi, dy)``
  with size-biased initial masses (the kernel's
  ``size_biased_tail_quantile`` of the path's pooled ``sizes`` uniforms,
  taken after the step's jumps); the part below ``delta_floor`` is dropped
  and its accuracy cost is monitored.

Because independent copies of a branching process superpose into one copy
started from the summed mass, all immigrants are folded into a single state
that evolves with the ordinary CSBP engine; no per-immigrant simulation is
required.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..model import Model
from ..spectral import Eigentriple
from .csbp import _by_type, _poisson_counts, simulate_csbp
from .records import Ensemble, SpineConfig, check_x0

__all__ = ["tilted_generator", "simulate_spine", "SpineResult"]


def tilted_generator(model: Model, eig: Eigentriple) -> np.ndarray:
    """Spine CTMC rates ``q_ij phi_j / phi_i`` with a conservative diagonal.

    The stationary law of this chain is ``(nu_i phi_i)_i``.
    """
    phi = eig.phi
    q = model.q * (phi[None, :] / phi[:, None])
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


@dataclass
class SpineResult:
    """Size-biased ensemble plus per-path spine occupation fractions."""

    ensemble: Ensemble
    occupation: np.ndarray  # (paths, d) fraction of time the spine spends per type


class _SpineImmigration:
    """Immigration hook driven by per-path spine trajectories."""

    extra_uniform_planes = 2  # continuum counts, discrete counts

    def __init__(self, model: Model, eig: Eigentriple, cfg: SpineConfig, x0: np.ndarray):
        self.eig = eig
        self.cfg = cfg
        self.d = model.d
        self.n_steps = cfg.n_steps
        tilted = tilted_generator(model, eig)
        init_w = eig.phi * x0
        self.init_cdf = np.cumsum(init_w / init_w.sum()).tolist()
        # per state: mean holding time and jump CDF, None where it absorbs
        rates = -np.diag(tilted)
        off = tilted.copy()
        np.fill_diagonal(off, 0.0)
        self.exit_scale = [1.0 / r if r > 0 else None for r in rates]
        self.jump_cdf = [
            np.cumsum(w / w.sum()).tolist() if r > 0 else None for w, r in zip(off, rates)
        ]
        self.disc_rate = np.array(
            [k.partial_moment(1.0, cfg.delta_floor, math.inf) for k in model.kernels]
        )
        self.cont_rate = model.alpha_diff / cfg.delta
        self.size_quantiles = [k.size_biased_tail_quantile for k in model.kernels]
        self.occupation = np.empty((cfg.paths, self.d))

    def _simulate_spine_path(self, rng) -> np.ndarray:
        """Type index at the start of each step, via the embedded chain."""
        h = self.cfg.dt
        horizon = self.cfg.horizon
        state = bisect_left(self.init_cdf, rng.random())
        out = np.empty(self.n_steps, dtype=np.int8)
        t = 0.0
        pos = 0
        while t < horizon and pos < self.n_steps:
            scale = self.exit_scale[state]
            if scale is None:
                out[pos:] = state
                break
            stay = rng.exponential(scale)
            until = min(self.n_steps, int(math.ceil((t + stay) / h - 1e-12)))
            out[pos:until] = state
            pos = until
            t += stay
            state = bisect_left(self.jump_cdf[state], rng.random())
        return out

    def prepare_chunk(self, pids, streams):
        """Spine type per step of each path in ``pids``; fills their ``occupation`` rows."""
        types = np.empty((len(pids), self.n_steps), dtype=np.int8)
        for j in range(len(pids)):
            types[j] = self._simulate_spine_path(streams.fresh(j, "spine"))
        for i in range(self.d):
            self.occupation[pids.start : pids.stop, i] = (types == i).mean(axis=1)
        return types

    def step_mass(self, k, x_chunk, u_extra, sizes, ctx):
        """Mass added this step; ``u_extra`` holds the two immigration planes.

        Each path's discrete immigrants take their sizes from the ``sizes``
        pool, after the step's jumps, and are summed in draw order.
        """
        cfg = self.cfg
        h = cfg.dt
        xi = ctx[:, k]
        add = np.zeros_like(x_chunk)
        # each path's cell at the spine's type, as a flat index into add
        at = np.arange(0, add.size, self.d) + xi
        add_flat = add.reshape(-1)

        cont_counts = _poisson_counts(u_extra[:, 0], self.cont_rate[xi] * h)
        add_flat[at] = cont_counts * cfg.delta

        disc_counts = _poisson_counts(u_extra[:, 1], self.disc_rate[xi] * h)
        hit = np.flatnonzero(disc_counts)
        if len(hit):
            n = disc_counts[hit]
            types = np.repeat(xi[hit], n)
            r = _by_type(self.size_quantiles, types, cfg.delta_floor, sizes.take(disc_counts))
            add_flat[at[hit]] += np.add.reduceat(r, np.cumsum(n) - n)
        return add


def _truncation_budget(model: Model, delta_floor: float) -> float:
    """Dropped share of the small-immigrant mass influx.

    The dropped influx is ``int_0^{delta_floor} y^2 pi(dy)`` (rate times mean
    initial mass); it is compared against the influx from all sub-unit
    immigrants, which is finite for every admissible kernel.  (The raw first
    moment diverges near 0 for stable kernels, so a ratio of first moments
    would be meaningless there.)
    """
    worst = 0.0
    for kern in model.kernels:
        dropped = kern.partial_moment(2.0, 0.0, delta_floor)
        kept = kern.partial_moment(2.0, 0.0, 1.0)
        if kept > 0:
            worst = max(worst, dropped / kept)
    return worst


def simulate_spine(
    model: Model,
    eig: Eigentriple,
    cfg: SpineConfig,
    x0: np.ndarray | None = None,
    *,
    threads: int = 1,
) -> SpineResult:
    """Simulate the size-biased process; see the module docstring.

    Warns when the discrete-immigration truncation drops more than 1% of the
    small-immigrant mass influx.  ``threads`` is as in `simulate_csbp`.
    """
    x0 = eig.nu.copy() if x0 is None else check_x0(x0, model.d)
    budget = _truncation_budget(model, cfg.delta_floor)
    if budget > 0.01:
        warnings.warn(
            f"discrete-immigration truncation drops {budget:.1%} of the small-immigrant "
            "mass influx; lower delta_floor",
            stacklevel=2,
        )
    imm = _SpineImmigration(model, eig, cfg, x0)
    ens = simulate_csbp(model, eig, cfg, x0=x0, immigration=imm, threads=threads)
    return SpineResult(ensemble=ens, occupation=imm.occupation)
