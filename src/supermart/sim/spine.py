"""Size-biased path sampler built from the spine decomposition.

Under the size-biased change of measure the process equals (in law) an
independent copy from the original initial mass, plus mass immigrating along
an immortal tilted particle (the spine):

* the spine moves by the Doob-transformed motion with rates
  ``q_ij phi_j / phi_i`` and starts from the ``phi``-biased initial law.
  The engine needs its type only at the start of each step, and on the
  step grid the spine is the Markov chain with transition matrix
  ``P_h = expm(h * tilted_generator)``: each step draws the next type from
  the row of ``P_h`` at the current one, by inverse CDF at the step's
  move uniform, for all paths at once;
* continuum immigration is approximated by Poisson(``alpha(xi)/delta``) rate
  immigrants, each a CSBP copy started from mass ``delta`` at the spine's
  type (this matches the excursion measure's first moment exactly for any
  ``delta``; smaller ``delta`` refines higher moments);
* discrete immigration arrives at rate ``int_{delta_floor}^inf y pi(xi, dy)``
  with size-biased initial masses (the kernel's
  ``size_biased_tail_quantile`` of the path's pooled ``sizes`` uniforms,
  taken after the step's near-absorption and jump draws); the part below
  ``delta_floor`` is dropped and its accuracy cost is monitored.

Because independent copies of a branching process superpose into one copy
started from the summed mass, all immigrants are folded into a single state
that evolves with the ordinary CSBP engine; no per-immigrant simulation is
required.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg

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
    occupation: np.ndarray  # (paths, d) fraction of steps the spine starts at each type


@dataclass
class _Chunk:
    rows: np.ndarray  # the chunk's rows of the hook's visits
    xi: np.ndarray | None = None  # each path's type in the last step moved


class _SpineImmigration:
    """Immigration hook that moves each path's spine on the step grid.

    Each step `step_mass` moves the spine's type, counts the visit in
    ``visits`` and adds the immigrants at that type.
    """

    extra_uniform_planes = 3  # spine move, continuum counts, discrete counts

    def __init__(self, model: Model, eig: Eigentriple, cfg: SpineConfig, x0: np.ndarray):
        self.cfg = cfg
        self.d = model.d
        init_w = eig.phi * x0
        self.init_cdf = np.cumsum(init_w / init_w.sum())
        # row i: the CDF of the spine's type one step after type i
        self.step_cdf = np.cumsum(linalg.expm(cfg.dt * tilted_generator(model, eig)), axis=1)
        # u < 1 must land in the last type despite round-off in the sums
        self.init_cdf[-1] = 1.0
        self.step_cdf[:, -1] = 1.0
        self.disc_rate = np.array(
            [k.partial_moment(1.0, cfg.delta_floor, math.inf) for k in model.kernels]
        )
        self.cont_rate = model.alpha_diff / cfg.delta
        self.size_quantiles = [k.size_biased_tail_quantile for k in model.kernels]
        self.visits = np.zeros((cfg.paths, self.d), dtype=np.int64)

    def prepare_chunk(self, pids):
        """The chunk's spine state: its rows of ``visits``, no type drawn yet."""
        return _Chunk(rows=np.arange(pids.start, pids.stop))

    def move(self, k, u_move, ctx) -> np.ndarray:
        """Each path's type at the start of step ``k``, by inverse CDF at ``u_move``.

        Step 0 draws from the ``phi x0`` law; a later step from the row of
        ``expm(dt * tilted)`` at the type of step ``k - 1``.
        """
        cdf = self.init_cdf if k == 0 else self.step_cdf[ctx.xi]
        ctx.xi = (u_move[:, None] > cdf).sum(axis=1)
        self.visits[ctx.rows, ctx.xi] += 1
        return ctx.xi

    def step_mass(self, k, x_chunk, u_imm, sizes, ctx):
        """Mass added this step; ``u_imm`` holds the move and the two immigration planes.

        Each path's discrete immigrants take their sizes from the ``sizes``
        pool, after the step's other draws, and are summed in draw order.
        """
        cfg = self.cfg
        h = cfg.dt
        xi = self.move(k, u_imm[:, 0], ctx)
        add = np.zeros_like(x_chunk)
        # each path's cell at the spine's type, as a flat index into add
        at = np.arange(0, add.size, self.d) + xi
        add_flat = add.reshape(-1)

        cont_counts = _poisson_counts(u_imm[:, 1], self.cont_rate[xi] * h)
        add_flat[at] = cont_counts * cfg.delta

        disc_counts = _poisson_counts(u_imm[:, 2], self.disc_rate[xi] * h)
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
    return SpineResult(ensemble=ens, occupation=imm.visits / cfg.n_steps)
