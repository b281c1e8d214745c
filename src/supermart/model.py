"""Finite-type branching models: spatial motion and per-type branching.

A `Model` is one flat record of ``d`` types (``1..d``, stored
``0``-indexed): the conservative rate matrix ``q`` of the spatial motion, and
per type the drift ``beta``, the diffusion coefficient ``alpha_diff`` and a
jump kernel in ``kernels``.  A `Model` is valid by construction: its
``__post_init__`` is the one place that checks the standing assumptions of
the rate theorems.  Two kernel families are supported:

* ``StablePowerLaw(gamma, alpha)`` -- density ``gamma * r**(-1-alpha)`` on
  ``(0, inf)`` with ``alpha`` in ``(1, 2)``; every moment integral used by the
  moment criteria has a closed form.
* ``AtomList(atoms)`` -- finitely many atoms ``(r_k, w_k)``; integrals are
  finite sums, which makes atom kernels exact oracles for the transform
  identities.

Divergent integrals return ``math.inf`` rather than raising: divergence is a
meaningful verdict for the rate criteria downstream.

Kernel protocol: callers use only these nine methods, never a kernel's class.
``partial_moment(k, lo, hi)`` (``0 <= lo < hi``) and ``log_moment(g)``
integrate ``pi``; ``phi_image(phi_i)`` is the kernel of ``pi^phi``, the image
of ``pi`` under ``r -> phi_i r``, so every ``pi^phi`` integral is a ``pi``
integral of ``phi_image(phi_i)``.  ``tail_quantile(eps, u)`` and
``size_biased_tail_quantile(eps, u)`` are the inverse CDFs of ``pi`` and of
``r pi(dr)`` restricted to ``(eps, inf)`` and normalized, applied to an
array of uniforms ``u``; the engine feeds them from its per-path pools, so
a kernel never sees a generator.  Both raise ``ModelValidationError`` on an
empty tail.  ``split_level`` and ``smallest_jump`` set the engine's jump
split; ``to_json`` and ``from_json`` complete it.  A new family is one class
and one ``KERNELS`` entry (``"kind": Class``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta

from .errors import ModelValidationError

__all__ = [
    "StablePowerLaw",
    "AtomList",
    "KERNELS",
    "Model",
    "GWModel",
    "seed_set",
    "model_to_json",
    "model_from_json",
    "gw_to_json",
    "gw_from_json",
]

_ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class StablePowerLaw:
    """Kernel ``pi(dr) = gamma * r**(-1-alpha) dr`` on ``(0, inf)``."""

    gamma: float
    alpha: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ModelValidationError("stable kernel needs gamma >= 0")
        if not (1.0 < self.alpha < 2.0):
            raise ModelValidationError("stable kernel needs alpha in (1, 2)")

    def partial_moment(self, k: float, lo: float, hi: float) -> float:
        """``integral_lo^hi r**k pi(dr)``; ``inf`` on divergence."""
        if not (0.0 <= lo < hi):
            raise ValueError("need 0 <= lo < hi")
        if self.gamma == 0.0:
            return 0.0
        s = k - self.alpha  # integrand r**(s-1)
        if hi == math.inf:
            if s >= 0.0 or lo == 0.0:
                return math.inf
            return self.gamma * lo**s / (-s)
        if lo == 0.0:
            if s <= 0.0:
                return math.inf
            return self.gamma * hi**s / s
        if s == 0.0:
            return self.gamma * math.log(hi / lo)
        return self.gamma * (hi**s - lo**s) / s

    def log_moment(self, g: float) -> float:
        """``integral_1^inf r (log r)**(g+1) pi(dr)``."""
        return self.gamma * math.gamma(g + 2.0) / (self.alpha - 1.0) ** (g + 2.0)

    def phi_image(self, phi_i: float) -> "StablePowerLaw":
        """``pi^phi``, the image under ``r -> phi_i r``: density ``gamma phi_i**alpha r**(-1-alpha)``."""
        return StablePowerLaw(gamma=self.gamma * phi_i**self.alpha, alpha=self.alpha)

    def split_level(self, rate_cap: float) -> float:
        """The ``eps`` with ``pi((eps, inf)) == rate_cap``: infinitely many small jumps
        force a split that holds the large-jump rate down.  0 without jumps."""
        return (self.gamma / (self.alpha * rate_cap)) ** (1.0 / self.alpha)

    def smallest_jump(self) -> float:
        """Infimum of the jump sizes; ``inf`` without jumps."""
        return math.inf if self.gamma == 0.0 else 0.0

    def to_json(self) -> dict:
        return {"kind": "stable", "gamma": self.gamma, "alpha": self.alpha}

    @classmethod
    def from_json(cls, obj: dict) -> "StablePowerLaw":
        return cls(gamma=obj["gamma"], alpha=obj["alpha"])

    def tail_quantile(self, eps: float, u: np.ndarray) -> np.ndarray:
        """Inverse CDF of ``pi`` restricted to ``(eps, inf)``, normalized, at ``u``."""
        if self.gamma == 0.0:
            raise ModelValidationError(f"empty tail: no kernel mass above {eps}")
        return eps * (1.0 - u) ** (-1.0 / self.alpha)

    def size_biased_tail_quantile(self, eps: float, u: np.ndarray) -> np.ndarray:
        """Inverse CDF of ``r pi(dr)`` restricted to ``(eps, inf)``, normalized, at ``u``.

        Density ``propto r**(-alpha)`` there, so the tail index is ``alpha-1``.
        """
        if self.gamma == 0.0:
            raise ModelValidationError(f"empty tail: no kernel mass above {eps}")
        return eps * (1.0 - u) ** (-1.0 / (self.alpha - 1.0))


@dataclass(frozen=True)
class AtomList:
    """Kernel ``pi = sum_k w_k * delta_{r_k}`` with finitely many atoms."""

    atoms: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(r), float(w)) for r, w in self.atoms)
        for r, w in atoms:
            if r <= 0 or w <= 0:
                raise ModelValidationError("atoms need r > 0 and w > 0")
        object.__setattr__(self, "atoms", atoms)

    def partial_moment(self, k: float, lo: float, hi: float) -> float:
        if not (0.0 <= lo < hi):
            raise ValueError("need 0 <= lo < hi")
        return sum(w * r**k for r, w in self.atoms if lo < r <= hi)

    def log_moment(self, g: float) -> float:
        return sum(w * r * math.log(r) ** (g + 1.0) for r, w in self.atoms if r > 1.0)

    def phi_image(self, phi_i: float) -> "AtomList":
        return AtomList(atoms=tuple((r * phi_i, w) for r, w in self.atoms))

    def split_level(self, rate_cap: float) -> float:
        """0: finitely many jumps need no split to bound their rate."""
        return 0.0

    def smallest_jump(self) -> float:
        return min((r for r, _ in self.atoms), default=math.inf)

    def to_json(self) -> dict:
        return {"kind": "atoms", "atoms": [[r, w] for r, w in self.atoms]}

    @classmethod
    def from_json(cls, obj: dict) -> "AtomList":
        return cls(atoms=tuple((r, w) for r, w in obj["atoms"]))

    def _inverse_cdf(self, eps: float, u: np.ndarray, size_biased: bool) -> np.ndarray:
        """Atom picked by each uniform in ``u`` from ``pi`` (or ``r pi``) above ``eps``."""
        rs, cum = _atom_table(self.atoms, eps, size_biased)
        return rs[np.minimum(np.searchsorted(cum, u * cum[-1], side="left"), len(rs) - 1)]

    def tail_quantile(self, eps: float, u: np.ndarray) -> np.ndarray:
        return self._inverse_cdf(eps, u, size_biased=False)

    def size_biased_tail_quantile(self, eps: float, u: np.ndarray) -> np.ndarray:
        return self._inverse_cdf(eps, u, size_biased=True)


@lru_cache(maxsize=64)
def _atom_table(atoms: tuple, eps: float, size_biased: bool):
    """Sizes and cumulative weights of the atoms above ``eps`` (read-only)."""
    live = [(r, w * r if size_biased else w) for r, w in atoms if r > eps]
    if not live:
        raise ModelValidationError(f"empty tail: no atoms above {eps}")
    rs = np.array([r for r, _ in live])
    cum = np.cumsum([w for _, w in live])
    rs.setflags(write=False)
    cum.setflags(write=False)
    return rs, cum


KERNELS = {"stable": StablePowerLaw, "atoms": AtomList}


@dataclass(frozen=True)
class Model:
    """A finite-type model: motion rates ``q`` and per-type branching data.

    ``q`` is the ``(d, d)`` rate matrix of the motion; ``beta``,
    ``alpha_diff`` and ``kernels`` hold one drift, diffusion coefficient and
    jump kernel per type.  The arrays are stored read-only.

    Construction refuses a model the rate theorems do not cover, naming every
    fault in one `ModelValidationError`: bad shapes first, then non-finite
    numbers, non-conservative or reducible motion, a negative off-diagonal
    rate, ``alpha_diff < 0`` and a divergent ``integral (r wedge r^2) pi_i(dr)``.
    Supercriticality (``lambda > 0``) is left to the spectral layer.
    """

    q: np.ndarray
    beta: np.ndarray
    alpha_diff: np.ndarray
    kernels: tuple

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ModelValidationError("rate matrix must be square")
        if len(q) < 1:
            raise ModelValidationError("type space needs d >= 1")
        beta = np.asarray(self.beta, dtype=float)
        alpha_diff = np.asarray(self.alpha_diff, dtype=float)
        kernels = tuple(self.kernels)
        if len(kernels) != len(q):
            raise ModelValidationError("dimension mismatch between motion and mechanism")
        if len(beta) != len(q) or len(alpha_diff) != len(q):
            raise ModelValidationError("beta/alpha_diff length must equal d")
        for name, arr in (("q", q), ("beta", beta), ("alpha_diff", alpha_diff)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "kernels", kernels)
        arrays = {"Q": q, "beta": beta, "alpha_diff": alpha_diff}
        failures = [f"non-finite {k}: {v.tolist()}" for k, v in arrays.items() if not np.isfinite(v).all()]
        defects = q.sum(axis=1)
        if np.max(np.abs(defects)) > _ROW_SUM_TOL:
            failures.append(f"non-conservative motion: row sums {defects.tolist()}")
        if (q - np.diag(np.diag(q)) < -_ROW_SUM_TOL).any():
            failures.append("negative off-diagonal motion rate")
        if not self.is_irreducible():
            failures.append("reducible motion: Perron triple is not unique")
        if (alpha_diff < 0).any():
            failures.append("alpha_diff must be >= 0")
        for i, kern in enumerate(kernels):
            obj = kern.to_json()
            bad = [key for key, p in obj.items() if key != "kind" and not np.isfinite(p).all()]
            rmin_r2 = kern.partial_moment(2.0, 0.0, 1.0) + kern.partial_moment(1.0, 1.0, math.inf)
            if bad:
                failures.append(f"type {i}: non-finite kernel {', '.join(bad)}: {obj}")
            elif not math.isfinite(rmin_r2):
                failures.append(f"type {i}: (r wedge r^2) integral diverges")
        if failures:
            raise ModelValidationError("; ".join(failures))

    @property
    def d(self) -> int:
        return len(self.q)

    def is_irreducible(self) -> bool:
        """Strong connectivity of the off-diagonal support graph of ``q``."""
        from scipy.sparse import csgraph, csr_matrix

        if self.d == 1:
            return True
        support = (self.q > 0).astype(np.int8)
        np.fill_diagonal(support, 0)
        n, _ = csgraph.connected_components(csr_matrix(support), connection="strong")
        return n == 1


@dataclass(frozen=True)
class GWModel:
    """Galton-Watson offspring law: finite pmf or zeta-tailed power law.

    ``pmf`` holds ``(p_0, ..., p_K)``.  The power-law variant has
    ``P(Z=k) = k**(-1-alpha) / zeta(1+alpha)`` for ``k >= 1``.
    """

    pmf: tuple | None = None
    alpha: float | None = None

    def __post_init__(self):
        if (self.pmf is None) == (self.alpha is None):
            raise ModelValidationError("give exactly one of pmf or alpha")
        if self.pmf is not None:
            pmf = tuple(float(p) for p in self.pmf)
            if any(p < 0 for p in pmf):
                raise ModelValidationError("offspring probabilities must be >= 0")
            if abs(sum(pmf) - 1.0) > 1e-12:
                raise ModelValidationError("offspring pmf must sum to 1 within 1e-12")
            object.__setattr__(self, "pmf", pmf)
        else:
            if not (1.0 < self.alpha < 2.0):
                raise ModelValidationError("power-law offspring needs alpha in (1, 2)")
        if self.mean() <= 1.0:
            raise ModelValidationError("offspring mean must exceed 1 (supercritical)")

    def mean(self) -> float:
        if self.pmf is not None:
            return sum(k * p for k, p in enumerate(self.pmf))
        return float(zeta(self.alpha) / zeta(1.0 + self.alpha))

    def moment(self, p: float) -> float:
        """``E[Z^p]``; ``inf`` for power-law offspring with ``p >= alpha``."""
        if self.pmf is not None:
            return sum((k**p) * w for k, w in enumerate(self.pmf) if k > 0)
        if p >= self.alpha:
            return math.inf
        return float(zeta(1.0 + self.alpha - p) / zeta(1.0 + self.alpha))

    def log_moment(self, g: float) -> float:
        """``E[Z (log Z)^(1+g)]`` (finite for every supported law)."""
        if self.pmf is not None:
            return sum(k * math.log(k) ** (1.0 + g) * w for k, w in enumerate(self.pmf) if k > 1)
        # sum k^-alpha (log k)^(1+g) / zeta(1+alpha): a partial sum plus an
        # integral estimate of the rest
        a = self.alpha
        terms = 200000
        k = np.arange(2, terms, dtype=float)
        s = float(np.sum(k ** (-a) * np.log(k) ** (1.0 + g)))
        tail = terms ** (1.0 - a) / (a - 1.0) * math.log(terms) ** (1.0 + g)
        return (s + tail) / float(zeta(1.0 + a))


def seed_set(f_set, d: int) -> list:
    """Sorted distinct type indices of a seed set ``F`` of a ``d``-type model.

    Raises ``ValueError`` for an empty set and for an index outside
    ``[0, d)``; a negative index would otherwise wrap to another type.
    """
    f_idx = sorted(set(int(i) for i in f_set))
    if not f_idx:
        raise ValueError("F must be nonempty")
    bad = [i for i in f_idx if not 0 <= i < d]
    if bad:
        raise ValueError(f"F index {bad[0]} is outside [0, {d}) for a model with d = {d} types")
    return f_idx


# ---------------------------------------------------------------------------
# JSON wire format (bit-exact keys)


def model_to_json(model: Model) -> dict:
    return {
        "types": model.d,
        "Q": model.q.tolist(),
        "beta": model.beta.tolist(),
        "alpha": model.alpha_diff.tolist(),
        "kernels": [k.to_json() for k in model.kernels],
    }


def model_from_json(obj: dict | str) -> Model:
    if isinstance(obj, str):
        obj = json.loads(obj)
    d = int(obj["types"])
    unknown = [k.get("kind") for k in obj["kernels"] if k.get("kind") not in KERNELS]
    if unknown:
        raise ModelValidationError(f"unknown kernel kind: {unknown[0]!r}")
    model = Model(
        q=obj["Q"],
        beta=obj["beta"],
        alpha_diff=obj["alpha"],
        kernels=[KERNELS[k["kind"]].from_json(k) for k in obj["kernels"]],
    )
    if model.d != d:
        raise ModelValidationError(f"dimension mismatch: types is {d} but Q is {model.d} x {model.d}")
    return model


def gw_to_json(gw: GWModel) -> dict:
    if gw.pmf is not None:
        return {"kind": "gw", "pmf": list(gw.pmf)}
    return {"kind": "gw_powerlaw", "alpha": gw.alpha}


def gw_from_json(obj: dict | str) -> GWModel:
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("kind")
    if kind == "gw":
        return GWModel(pmf=tuple(obj["pmf"]))
    if kind == "gw_powerlaw":
        return GWModel(alpha=float(obj["alpha"]))
    raise ModelValidationError(f"unknown GW kind: {kind!r}")
