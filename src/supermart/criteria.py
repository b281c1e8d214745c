"""Moment criteria and theorem-level predictions for a model + eigentriple.

Every criterion is an integral against ``pi^phi``, the image of each type's
kernel under ``r -> phi_i r``, averaged over the left eigenmeasure ``nu``: a
``partial_moment`` or ``log_moment`` of the kernel ``phi_image(phi_i)``, in
closed form for both families; ``math.inf`` is a first-class verdict and
propagates through reports.

The criteria evaluated here, with the downstream prediction each one drives:

* ``llogl``            -- L log L integral; finite iff the martingale limit
                          is nondegenerate.
* ``p_moment(p)``      -- p-th moment tail, p in (1, 2]; finite implies the
                          L^p and almost-sure rates exp(-lambda t / q),
                          1/p + 1/q = 1.
* ``log_moment(g)``    -- r (log r)^(g+1) integral; finite implies the
                          polynomial rate t^(-g), the series criterion and
                          the borderline o((log t)^-g) condition, whose
                          product (log r - log t)(log t)^g <= (log r)^(g+1)
                          is bounded by the moment's vanishing tail.
* ``uniform_tail_B``   -- uniform upper bound on per-type tails; under it an
                          infinite p-moment makes the exponential rate fail.
* ``lower_bound_b``    -- uniform lower bound on first-moment tails over a
                          seed set F; under it an infinite log-moment makes
                          the series criterion fail.

``B`` and ``b`` are read off one ``(grid, types)`` table of tails, built from
the kernels' own scalar closed forms.  Row maxima, minima and ratios are
vectorized (division and comparison are exact), but each row's denominator
``sum_y nu_y tail_y(t)`` stays one ``nu @ row`` dot product: a matrix-vector
product ``table @ nu`` or a Python sum rounds differently in some rows, and
so would numpy's vectorized ``power`` in place of the scalar kernel powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import GWModel, Model, seed_set
from .spectral import Eigentriple

__all__ = [
    "CriteriaReport",
    "Predictions",
    "llogl",
    "p_moment",
    "log_moment",
    "uniform_tail_B",
    "lower_bound_b",
    "evaluate_criteria",
    "gw_predictions",
    "conjugate",
]

_GRID_PER_DECADE = 60
_GRID_HI = 1e6


def conjugate(p: float) -> float:
    """Conjugate exponent ``q`` with ``1/p + 1/q = 1``."""
    if p <= 1.0:
        raise ValueError("conjugate needs p > 1")
    return p / (p - 1.0)


def _nu_average(model: Model, eig: Eigentriple, integral) -> float:
    """``sum_i nu_i integral(pi^phi_i)``, with ``pi^phi_i`` the kernel ``phi_image(phi_i)``."""
    total = 0.0
    for i in range(model.d):
        v = integral(model.kernels[i].phi_image(float(eig.phi[i])))
        if math.isinf(v):
            return math.inf
        total += float(eig.nu[i]) * v
    return total


# ---------------------------------------------------------------------------
# criteria


def llogl(model: Model, eig: Eigentriple) -> float:
    """``integral nu(dy) integral_1^inf r log r pi^phi(y, dr)``."""
    return _nu_average(model, eig, lambda k: k.log_moment(0.0))


def p_moment(model: Model, eig: Eigentriple, p: float) -> float:
    """``integral nu(dy) integral_1^inf r^p pi^phi(y, dr)`` for p in (1, 2]."""
    if not (1.0 < p <= 2.0):
        raise ValueError("p must lie in (1, 2]")
    return _nu_average(model, eig, lambda k: k.partial_moment(p, 1.0, math.inf))


def log_moment(model: Model, eig: Eigentriple, gamma: float) -> float:
    """``integral nu(dx) integral_1^inf r (log r)^(gamma+1) pi^phi(x, dr)``."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return _nu_average(model, eig, lambda k: k.log_moment(gamma))


def _tail_table(eig: Eigentriple, t_lo: float, name: str, k: float, columns):
    """``kernel.partial_moment(k, t / s, inf)`` for each ``(kernel, s)`` of ``columns``
    on the log grid over ``(t_lo, 1e6]``.

    Returns the ``(grid, types)`` table and each row's ``nu``-average.  The
    entries come from scalar closed forms at Python-float times, and every
    average is its own dot product, so both match a per-t loop bit for bit.
    """
    if not (0.0 < t_lo < _GRID_HI):
        raise ValueError(f"{name} must lie in (0, {_GRID_HI:g}), got {t_lo!r}")
    if (eig.phi <= 0).any():
        raise ValueError("phi must be strictly positive")
    n = max(2, int(math.ceil(math.log10(_GRID_HI / t_lo) * _GRID_PER_DECADE)))
    grid = np.geomspace(t_lo * (1.0 + 1e-9), _GRID_HI, n).tolist()
    table = np.array([[kern.partial_moment(k, t / s, math.inf) for kern, s in columns] for t in grid])
    dens = np.array([float(eig.nu @ row) for row in table])
    return table, dens


def uniform_tail_B(model: Model, eig: Eigentriple, t0: float = 10.0) -> float:
    """Best constant in the uniform tail bound, taken as a sup over a log grid.

    ``B(t) = sup_x [(1/phi_x) * tail^phi_x(t)] / [sum_y nu_y tail^phi_y(t)]``;
    the reported value is ``sup_{t in (t0, 1e6]} B(t)``.  For a pure stable
    model the ratio is t-independent.  Returns ``inf`` when the denominator
    vanishes while some numerator does not (the bound fails).
    """
    # on pi at t / phi_i: the image's gamma phi^alpha t^-alpha / alpha rounds differently
    tails, dens = _tail_table(eig, t0, "t0", 0.0, list(zip(model.kernels, eig.phi.tolist())))
    nums = np.max(tails / eig.phi, axis=1)
    live = dens > 0.0
    if (nums[~live] > 0.0).any():
        return math.inf
    return float(np.max(nums[live] / dens[live], initial=0.0))


def lower_bound_b(model: Model, eig: Eigentriple, f_set, t1: float = 10.0) -> float:
    """Best constant in the lower first-moment-tail bound over the set ``f_set``.

    ``b(t) = inf_{x in F} [(1/phi_x) integral_t^inf r pi^phi_x] /
    [sum_y nu_y integral_t^inf r pi^phi_y]``; reported as the inf over the
    log grid.  Returns 0 when the bound collapses (condition fails).  Raises
    ``ValueError`` for an empty ``F`` or an index outside ``[0, d)``.
    """
    f_idx = seed_set(f_set, model.d)
    if float(sum(eig.nu[i] for i in f_idx)) <= 0.0:
        raise ValueError("nu(F) must be positive")
    images = [(k.phi_image(p), 1.0) for k, p in zip(model.kernels, eig.phi.tolist())]
    tails, dens = _tail_table(eig, t1, "t1", 1.0, images)
    nums = np.min(tails[:, f_idx] / eig.phi[f_idx], axis=1)
    # a row with no tail mass anywhere holds vacuously and is skipped
    live = dens > 0.0
    best = float(np.min(nums[live] / dens[live], initial=math.inf))
    return 0.0 if math.isinf(best) else best


# ---------------------------------------------------------------------------
# reports and predictions


@dataclass
class Predictions:
    """Theorem-level verdicts derived from a criteria report."""

    nondegenerate: bool
    per_p: list = field(default_factory=list)
    per_gamma: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "nondegenerate": self.nondegenerate,
            "per_p": self.per_p,
            "per_gamma": self.per_gamma,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Predictions":
        """Read back the ``predictions`` block of a ``criteria.json`` document."""
        doc = doc["predictions"]
        return cls(
            nondegenerate=doc["nondegenerate"],
            per_p=[{**row, "p": float(row["p"])} for row in doc.get("per_p", [])],
            per_gamma=doc.get("per_gamma", []),
        )


@dataclass
class CriteriaReport:
    """Numeric values and finiteness verdicts for every moment condition."""

    llogl: float
    p_moments: dict
    log_moments: dict
    B: float
    b: float
    lam: float
    predictions: Predictions

    def as_dict(self) -> dict:
        return {
            "llogl": self.llogl,
            "p_moments": {str(k): v for k, v in self.p_moments.items()},
            "log_moments": {str(k): v for k, v in self.log_moments.items()},
            "B": self.B,
            "b": self.b,
            "lambda": self.lam,
            "predictions": self.predictions.as_dict(),
        }


def _p_row(p: float, lam: float, mom: float, bound_holds: bool) -> dict:
    """Verdicts for one ``p``: the L^p-norm decay exponent is ``lam / q`` (the
    boundary of the o(exp(-lam t / a*)) family over a < p), the almost-sure rate
    ``exp(-lam t / q)`` holds iff the p-moment is finite, and its failure is
    expected when it is not and ``bound_holds``."""
    q = conjugate(p)
    finite = math.isfinite(mom)
    return {
        "p": p,
        "q": q,
        "p_moment": mom,
        "lp_rate_exponent": lam / q,
        "as_rate_holds": finite,
        "as_rate_fails_expected": (not finite) and bound_holds,
    }


def evaluate_criteria(
    model: Model,
    eig: Eigentriple,
    p_values=(),
    gamma_values=(),
    f_set=None,
    t0: float = 10.0,
    t1: float = 10.0,
) -> CriteriaReport:
    """Evaluate every requested criterion and the rate verdicts it predicts.

    Each ``p`` gets a `_p_row`, whose failure branch needs a finite uniform
    tail bound ``B``.  For each ``gamma`` the polynomial rate ``t^-gamma``, the
    series criterion and the borderline condition hold when the log moment is
    finite; with a positive lower bound ``b`` an infinite one breaks the series.
    """
    f_set = list(range(model.d)) if f_set is None else f_set
    log_moments = {g: log_moment(model, eig, g) for g in gamma_values}
    ll = llogl(model, eig)
    p_moments = {p: p_moment(model, eig, p) for p in p_values}
    B = uniform_tail_B(model, eig, t0)
    b = lower_bound_b(model, eig, f_set, t1)
    per_gamma = [
        {
            "gamma": g,
            "log_moment": mom,
            "poly_rate_holds": math.isfinite(mom),
            "series_fails_expected": not math.isfinite(mom) and b > 0.0,
        }
        for g, mom in log_moments.items()
    ]
    predictions = Predictions(
        nondegenerate=math.isfinite(ll),
        per_p=[_p_row(p, eig.lam, mom, math.isfinite(B)) for p, mom in p_moments.items()],
        per_gamma=per_gamma,
    )
    return CriteriaReport(ll, p_moments, log_moments, B, b, eig.lam, predictions)


def gw_predictions(gw: GWModel, p_values=(), gamma_values=()) -> Predictions:
    """Discrete-time analogue of `evaluate_criteria`'s predictions for Galton-Watson.

    The role of ``lambda`` is played by ``log m``; the p-moment condition is
    ``E[Z^p] < infty`` and the log-moment condition ``E[Z (log Z)^(1+g)]``.
    """
    lam = math.log(gw.mean())
    per_p = [_p_row(p, lam, gw.moment(p), True) for p in p_values]
    per_gamma = []
    for g in gamma_values:
        mom = gw.log_moment(g)
        per_gamma.append({"gamma": g, "log_moment": mom, "poly_rate_holds": math.isfinite(mom)})
    nondegenerate = math.isfinite(gw.log_moment(0.0))
    return Predictions(nondegenerate=nondegenerate, per_p=per_p, per_gamma=per_gamma)
