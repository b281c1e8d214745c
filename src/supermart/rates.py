"""Ensemble statistics: L^p decay curves, rate fits, and theorem verdicts.

Every verdict compares an empirical quantity against a prediction produced
by the criteria module; no expected exponent is hardcoded here.  The
martingale-limit proxy is the last recorded value, so every statistic is
restricted to times at or below half the horizon, where the proxy bias sits
far below the decay being measured.

Little-o rate statements are upper bounds: a curve decaying *faster* than
the predicted envelope is consistent with the theorem, so a fit's
``bound_verdict`` is one-sided and only a slower decay is ``inconsistent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import seed_set

__all__ = [
    "RateFit",
    "lp_curve",
    "fit_exponential",
    "fit_power",
    "as_rate_check",
    "poly_rate_check",
    "window_law_check",
]

_R2_FLOOR = 0.8
_HOLD_FRACTION = 0.95
_FAIL_FRACTION = 0.05
_BOOT_CELLS = 2**16  # most resample counts one bootstrap block holds


@dataclass
class RateFit:
    kind: str
    exponent: float
    stderr: float
    window: tuple
    n_paths: int
    predicted: float | None
    r_squared: float
    bound_verdict: str | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "exponent": self.exponent,
            "stderr": self.stderr,
            "window": list(self.window),
            "n_paths": self.n_paths,
            "predicted": self.predicted,
            "r_squared": self.r_squared,
            "bound_verdict": self.bound_verdict,
        }


def _live_M(ensemble):
    """M matrix with overflow-flagged paths dropped."""
    m = np.asarray(ensemble.M, dtype=float)
    if ensemble.flagged is not None and np.any(ensemble.flagged):
        m = m[~ensemble.flagged]
    return m


def _grid_mask(ensemble, grid):
    times = np.asarray(ensemble.times)
    t_cap = 0.5 * ensemble.horizon + 1e-9
    if grid is None:
        sel = times <= t_cap
        if not sel.any():
            raise ValueError("no recorded times at or below horizon/2")
        return times[sel], np.nonzero(sel)[0]
    grid = np.asarray(grid, dtype=float)
    if grid.max() > t_cap:
        raise ValueError("analysis grid exceeds horizon/2 (limit proxy bias)")
    idx = np.searchsorted(times, grid)
    idx = np.clip(idx, 0, len(times) - 1)
    if not np.allclose(times[idx], grid, atol=1e-9):
        raise ValueError("requested grid times are not on the recorded grid")
    return times[idx], idx


def lp_curve(ensemble, p: float, grid=None, n_boot: int = 200, boot_seed: int = 0) -> dict:
    """Empirical ``||Minf - M_t||_p`` over the grid with bootstrap stderr."""
    if not (1.0 < p <= 2.0):
        raise ValueError("p must lie in (1, 2]")
    m = _live_M(ensemble)
    t_sel, idx = _grid_mask(ensemble, grid)
    minf = m[:, -1]
    dev = np.abs(minf[:, None] - m[:, idx]) ** p
    value = np.mean(dev, axis=0) ** (1.0 / p)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([boot_seed, 7])))
    n = dev.shape[0]
    boots = np.empty((n_boot, dev.shape[1]))
    # a resample's mean is its row counts times dev / n: one product per block
    # of resamples, a block's counts capped at _BOOT_CELLS so that peak memory
    # does not grow with n_boot.  einsum, not @: a BLAS product large enough to
    # run threaded leaves its worker threads spinning on the other cores
    block = max(1, min(n_boot, _BOOT_CELLS // max(n, 1)))
    counts = np.empty((block, n))
    for b0 in range(0, n_boot, block):
        k = min(block, n_boot - b0)
        for i in range(k):
            counts[i] = np.bincount(rng.integers(0, n, n), minlength=n)
        boots[b0 : b0 + k] = (np.einsum("kn,nt->kt", counts[:k], dev) / n) ** (1.0 / p)
    stderr = boots.std(axis=0, ddof=1)
    return {"t": t_sel, "value": value, "stderr": stderr, "p": p, "n_paths": n}


def _ols_line(x: np.ndarray, y: np.ndarray):
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    dof = max(n - 2, 1)
    se = float(math.sqrt(np.sum(resid**2) / dof / sxx))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, se, r2


def _bound_verdict(slope: float, se: float, r2: float, predicted: float | None) -> str | None:
    if r2 < _R2_FLOOR:
        return "inconclusive"
    if predicted is None:
        return None
    # one-sided: an o(.) bound only requires decay at least this fast
    tol = max(2.0 * se, 0.15 * abs(predicted))
    return "consistent" if slope <= predicted + tol else "inconsistent"


def fit_exponential(curve: dict, predicted: float | None = None) -> RateFit:
    """Least squares on ``(t, log value)``; ``predicted`` is the signed slope."""
    return _fit(curve, predicted, "exponential", log_t=False)


def fit_power(curve: dict, predicted: float | None = None) -> RateFit:
    """Least squares on ``(log t, log value)`` for polynomial decay."""
    return _fit(curve, predicted, "polynomial", log_t=True)


def _fit(curve: dict, predicted: float | None, kind: str, log_t: bool) -> RateFit:
    """Least squares of ``log value`` on ``t``, or on ``log t`` when ``log_t``."""
    t = np.asarray(curve["t"], dtype=float)
    v = np.asarray(curve["value"], dtype=float)
    if (v <= 0).any() or (log_t and (t <= 0).any()):
        raise ValueError(f"{kind} fit needs positive {'times and ' if log_t else ''}curve values")
    slope, _, se, r2 = _ols_line(np.log(t) if log_t else t, np.log(v))
    return RateFit(
        kind=kind,
        exponent=slope,
        stderr=se,
        window=(float(t[0]), float(t[-1])),
        n_paths=int(curve.get("n_paths", 0)),
        predicted=predicted,
        r_squared=r2,
        bound_verdict=_bound_verdict(slope, se, r2, predicted),
    )


def _sup_stat(ensemble, weight_fn, t_lo: float):
    """Per-path sup over [t_lo, horizon/2] of weight(t) |Minf - M_t|."""
    m = _live_M(ensemble)
    times = np.asarray(ensemble.times)
    sel = (times >= t_lo - 1e-12) & (times <= 0.5 * ensemble.horizon + 1e-9)
    if not sel.any():
        raise ValueError("empty analysis window")
    w = weight_fn(times[sel])
    dev = np.abs(m[:, -1][:, None] - m[:, sel])
    return np.max(w[None, :] * dev, axis=1)


def _default_t_lo(ensemble):
    half = 0.5 * ensemble.horizon
    return (0.25 * half, 0.5 * half)


def _exceedance(ensemble, weight_fn, thresholds, t_lo_list, holds_also: bool = True) -> dict:
    """Exceedance fractions of the weighted sup statistic and their verdict.

    For each start time T the statistic is ``sup_{t in [T, horizon/2]}
    weight(t) |Minf - M_t|``.  Verdict "holds" when the fraction of paths
    within the largest threshold reaches 0.95 for every T (and
    ``holds_also``); "fails-consistent" when at least 5% of paths exceed
    every threshold at every T; otherwise "inconclusive".
    """
    if t_lo_list is None:
        t_lo_list = _default_t_lo(ensemble)
    fractions = {}
    for t_lo in t_lo_list:
        stat = _sup_stat(ensemble, weight_fn, t_lo)
        fractions[t_lo] = {c: float(np.mean(stat <= c)) for c in thresholds}
    top = thresholds[-1]
    if holds_also and all(f[top] >= _HOLD_FRACTION for f in fractions.values()):
        verdict = "holds"
    elif all(1.0 - f[c] >= _FAIL_FRACTION for f in fractions.values() for c in thresholds):
        verdict = "fails-consistent"
    else:
        verdict = "inconclusive"
    return {"fractions": fractions, "verdict": verdict, "thresholds": thresholds}


def as_rate_check(
    ensemble,
    q: float,
    lam: float,
    thresholds=(0.5, 1.0, 2.0, 4.0, 8.0),
    t_lo_list=None,
) -> dict:
    """Exceedance analysis (see `_exceedance`) for the rate ``exp(-lam t / q)``."""
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    return _exceedance(ensemble, lambda t: np.exp(lam * t / q), sorted(thresholds), t_lo_list)


def poly_rate_check(
    ensemble,
    gamma: float,
    thresholds=(0.5, 1.0, 2.0, 4.0, 8.0),
    t_lo_list=None,
) -> dict:
    """Exceedance analysis for ``t^gamma |Minf - M_t|`` plus a series test.

    The series functional ``C_t(gamma)`` is Cauchy-tested: its increment
    between horizon/4 and horizon/2 is compared per path against the same
    threshold schedule, and "holds" also needs it within the largest
    threshold on 95% of paths.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    thresholds = sorted(thresholds)

    # Cauchy increment of C_t(gamma) = int s^{gamma-1}(Minf - M_s) ds
    m = _live_M(ensemble)
    times = np.asarray(ensemble.times)
    t_hi = 0.5 * ensemble.horizon
    sel = (times >= 0.25 * ensemble.horizon - 1e-12) & (times <= t_hi + 1e-9)
    ts = times[sel]
    integrand = ts ** (gamma - 1.0) * (m[:, -1][:, None] - m[:, sel])
    cauchy = np.abs(
        np.sum(0.5 * (integrand[:, 1:] + integrand[:, :-1]) * np.diff(ts)[None, :], axis=1)
    )
    cauchy_frac = {c: float(np.mean(cauchy <= c)) for c in thresholds}
    out = _exceedance(
        ensemble,
        lambda t: t**gamma,
        thresholds,
        t_lo_list,
        holds_also=cauchy_frac[thresholds[-1]] >= _HOLD_FRACTION,
    )
    return {**out, "cauchy_fractions": cauchy_frac}


def window_law_check(ensemble, f_idx, eig, n_values=None) -> dict:
    """Window-average law: ``window_avg(n, F) / Minf -> <phi 1_F, nu>``.

    Overflow-flagged paths are dropped and extinct paths (zero limit proxy)
    skipped; reports the median absolute deviation from the target per window
    index and the survival fraction of the unflagged paths.  Raises
    ``ValueError`` for an empty ``f_idx`` or an index outside ``[0, d)``.
    """
    from .functionals import window_average

    f_idx = seed_set(f_idx, eig.d)
    target = float(np.sum(eig.nu[f_idx] * eig.phi[f_idx]))
    if n_values is None:
        n_values = list(range(1, int(math.floor(0.5 * ensemble.horizon)) + 1))
    minf = np.asarray(ensemble.M)[:, -1]
    live = np.ones(len(minf), bool) if ensemble.flagged is None else ~ensemble.flagged
    alive = live & (minf > 0)
    n_live = np.count_nonzero(live)
    mads = {}
    for n in n_values:
        devs = np.abs(window_average(ensemble, n, f_idx)[alive] / minf[alive] - target)
        mads[n] = float(np.median(devs)) if devs.size else math.nan
    return {
        "target": target,
        "mad": mads,
        "survival_fraction": np.count_nonzero(alive) / n_live if n_live else math.nan,
        "n_values": list(n_values),
    }
