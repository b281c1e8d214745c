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
* ``lower_bound_b``    -- uniform lower bound on first-moment tails over a
                          seed set F; under it an infinite log-moment makes
                          the series criterion fail.

The uniform upper tail bound ``B``, under which an infinite p-moment makes
the almost-sure rate fail, is finite here and is not computed: irreducible
motion on finitely many types gives every ``nu_x > 0``, so ``tail^phi_x(t) /
phi_x <= sum_y nu_y tail^phi_y(t) / (phi_x nu_x)`` and ``B <= max_x 1/(phi_x nu_x)``.

``b`` is read off one ``(grid, types)`` table of first-moment tails from the
kernels' scalar closed forms.  Row minima and ratios are vectorized (division
and comparison are exact), but each row's denominator ``sum_y nu_y tail_y(t)``
stays one ``nu @ row`` dot product: ``table @ nu``, a Python sum or numpy's
vectorized ``power`` would round differently in some rows.
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


def lower_bound_b(model: Model, eig: Eigentriple, f_set, t1: float = 10.0) -> float:
    """Best constant in the lower first-moment-tail bound over the set ``f_set``.

    ``b(t) = inf_{x in F} [(1/phi_x) integral_t^inf r pi^phi_x] /
    [sum_y nu_y integral_t^inf r pi^phi_y]``; reported as the inf over the
    log grid on ``(t1, 1e6]``.  Returns 0 when the bound collapses (condition
    fails).  Raises ``ValueError`` for an empty ``F`` or an index outside ``[0, d)``.
    """
    f_idx = seed_set(f_set, model.d)
    if float(sum(eig.nu[i] for i in f_idx)) <= 0.0:
        raise ValueError("nu(F) must be positive")
    if not (0.0 < t1 < _GRID_HI):
        raise ValueError(f"t1 must lie in (0, {_GRID_HI:g}), got {t1!r}")
    if (eig.phi <= 0).any():
        raise ValueError("phi must be strictly positive")
    n = max(2, int(math.ceil(math.log10(_GRID_HI / t1) * _GRID_PER_DECADE)))
    grid = np.geomspace(t1 * (1.0 + 1e-9), _GRID_HI, n).tolist()
    images = [k.phi_image(p) for k, p in zip(model.kernels, eig.phi.tolist())]
    tails = np.array([[img.partial_moment(1.0, t, math.inf) for img in images] for t in grid])
    dens = np.array([float(eig.nu @ row) for row in tails])
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
    b: float
    lam: float
    predictions: Predictions

    def as_dict(self) -> dict:
        return {
            "llogl": self.llogl,
            "p_moments": {str(k): v for k, v in self.p_moments.items()},
            "log_moments": {str(k): v for k, v in self.log_moments.items()},
            "b": self.b,
            "lambda": self.lam,
            "predictions": self.predictions.as_dict(),
        }


def _p_row(p: float, lam: float, mom: float) -> dict:
    """Verdicts for one ``p``: the L^p-norm decay exponent is ``lam / q`` (the
    boundary of the o(exp(-lam t / a*)) family over a < p), and the almost-sure
    rate ``exp(-lam t / q)`` holds iff the p-moment is finite (it fails when it
    is not, since the uniform tail bound is finite)."""
    q = conjugate(p)
    return {
        "p": p,
        "q": q,
        "p_moment": mom,
        "lp_rate_exponent": lam / q,
        "as_rate_holds": math.isfinite(mom),
    }


def _gamma_row(g: float, mom: float, b: float) -> dict:
    """Verdicts for one ``gamma``: the polynomial rate ``t^-g``, the series
    criterion and the borderline condition hold when the log moment is finite;
    with a positive lower bound ``b`` an infinite one breaks the series."""
    finite = math.isfinite(mom)
    return {
        "gamma": g,
        "log_moment": mom,
        "poly_rate_holds": finite,
        "series_fails_expected": not finite and b > 0.0,
    }


def evaluate_criteria(
    model: Model,
    eig: Eigentriple,
    p_values=(),
    gamma_values=(),
    f_set=None,
    t1: float = 10.0,
) -> CriteriaReport:
    """Evaluate every requested criterion and the rate verdicts it predicts.

    Each ``p`` gets a `_p_row` and each ``gamma`` a `_gamma_row`.
    """
    f_set = list(range(model.d)) if f_set is None else f_set
    log_moments = {g: log_moment(model, eig, g) for g in gamma_values}
    ll = llogl(model, eig)
    p_moments = {p: p_moment(model, eig, p) for p in p_values}
    b = lower_bound_b(model, eig, f_set, t1)
    predictions = Predictions(
        nondegenerate=math.isfinite(ll),
        per_p=[_p_row(p, eig.lam, mom) for p, mom in p_moments.items()],
        per_gamma=[_gamma_row(g, mom, b) for g, mom in log_moments.items()],
    )
    return CriteriaReport(ll, p_moments, log_moments, b, eig.lam, predictions)


def gw_predictions(gw: GWModel, p_values=(), gamma_values=()) -> Predictions:
    """Discrete-time analogue of `evaluate_criteria`'s predictions for Galton-Watson.

    The role of ``lambda`` is played by ``log m``; the p-moment condition is
    ``E[Z^p] < infty`` and the log-moment condition ``E[Z (log Z)^(1+g)]``.
    With one type ``b`` is 1, so an infinite log moment breaks the series.
    """
    lam = math.log(gw.mean())
    return Predictions(
        nondegenerate=math.isfinite(gw.log_moment(0.0)),
        per_p=[_p_row(p, lam, gw.moment(p)) for p in p_values],
        per_gamma=[_gamma_row(g, gw.log_moment(g), 1.0) for g in gamma_values],
    )
