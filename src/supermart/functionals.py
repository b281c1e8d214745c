"""Pathwise functionals of the martingale and their exact identities.

Everything here is a deterministic transform of an `Ensemble`, one row per
path in and one row per path out: weighted time integrals of ``Minf - M_s``
(trapezoid on the recorded grid) and weighted Stieltjes integrals against
``dM_s`` (left-point sums, with logged jumps placed exactly at their times).
A row depends on its own path only.  Two identities tie the functionals
together and serve as discretization diagnostics:

* ``A_T(q) = (q/lam) Atilde_T(p) + (q/lam) e^{lam T / q}(Minf - M_T)
  - (q/lam)(Minf - M_0)``  with 1/p + 1/q = 1;
* ``gamma C_T(gamma) = Ctilde_T(gamma) + T^gamma (Minf - M_T)``.

Both residuals are invariant in the constant used for ``Minf`` (the
derivative of each side in the constant cancels), so they measure pure
discretization error and must shrink linearly in the step size.  ``minf``
is one value per path, or one value for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FunctionalCurve",
    "a_functional",
    "a_tilde_functional",
    "c_functionals",
    "window_average",
    "lemma_A_residual",
    "lemma_C_residual",
]


@dataclass(frozen=True)
class FunctionalCurve:
    grid: np.ndarray
    values: np.ndarray  # (paths, n_times)
    kind: str

    def final(self) -> np.ndarray:
        return self.values[:, -1]


def _column(minf) -> np.ndarray:
    return np.asarray(minf, dtype=float).reshape(-1, 1)


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros(y.shape)
    out[:, 1:] = np.cumsum(0.5 * (y[:, 1:] + y[:, :-1]) * np.diff(t), axis=1)
    return out


def a_functional(ens, minf, a_star: float) -> FunctionalCurve:
    """``A_t(a*) = int_0^t e^{lam s / a*} (Minf - M_s) ds`` by trapezoid."""
    if a_star <= 1.0:
        raise ValueError("a_star must exceed 1")
    t = ens.times
    integrand = np.exp(ens.lam * t / a_star) * (_column(minf) - ens.M)
    return FunctionalCurve(grid=t, values=_cumtrapz(integrand, t), kind=f"A({a_star:g})")


def _stieltjes_with_jumps(ens, weight) -> np.ndarray:
    """Left-point sum of ``weight(s) dM_s`` with logged jumps placed exactly.

    Each recorded increment is split into its logged-jump part (weighted at
    the true jump times) and the remainder (weighted at the left endpoint).
    The rows ``path_id, t, type, size`` of ``ens.jumps`` are placed by one
    scatter over ``(path, index)`` pairs.
    """
    t = ens.times
    w_left = weight(t[:-1])
    contrib = w_left * np.diff(ens.M, axis=1)
    if ens.jumps is not None:
        row, tau, ty, size = ens.jumps.T
        dm_jump = np.exp(-ens.lam * tau) * ens.phi[ty.astype(int)] * size
        # a jump in [t_k, t_{k+1}) lands in the increment M_{k+1} - M_k
        idx = np.clip(np.searchsorted(t, tau, side="right") - 1, 0, len(t) - 2)
        cells = (row.astype(int), idx)
        np.subtract.at(contrib, cells, w_left[idx] * dm_jump)
        np.add.at(contrib, cells, weight(tau) * dm_jump)
    out = np.zeros(ens.M.shape)
    out[:, 1:] = np.cumsum(contrib, axis=1)
    return out


def a_tilde_functional(ens, p: float) -> FunctionalCurve:
    """``Atilde_t(p) = int_0^t e^{lam s / q} dM_s`` with ``1/p + 1/q = 1``."""
    if not (1.0 < p <= 2.0):
        raise ValueError("p must lie in (1, 2]")
    q = p / (p - 1.0)
    vals = _stieltjes_with_jumps(ens, lambda s: np.exp(ens.lam * s / q))
    return FunctionalCurve(grid=ens.times, values=vals, kind=f"Atilde({p:g})")


def c_functionals(ens, minf, gamma: float):
    """``C_t(gamma)`` and ``Ctilde_t(gamma)`` on the path grid.

    ``C_t = int_0^t s^{gamma-1}(Minf - M_s) ds`` (for gamma < 1 the first
    cell is integrated with the exact power weight, the integrand being
    otherwise singular at 0); ``Ctilde_t = int_0^t s^gamma dM_s``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    t = ens.times
    resid = _column(minf) - ens.M
    if gamma >= 1.0:
        integrand = np.where(t > 0, t ** (gamma - 1.0), 0.0 if gamma > 1.0 else 1.0)
        c_vals = _cumtrapz(integrand * resid, t)
    else:
        c_vals = np.zeros(resid.shape)
        if len(t) > 1:
            c_vals[:, 1] = resid[:, 0] * t[1] ** gamma / gamma
            inner = 0.5 * (
                t[1:-1] ** (gamma - 1.0) * resid[:, 1:-1] + t[2:] ** (gamma - 1.0) * resid[:, 2:]
            )
            c_vals[:, 2:] = c_vals[:, 1:2] + np.cumsum(inner * np.diff(t[1:]), axis=1)
    ct_vals = _stieltjes_with_jumps(ens, lambda s: s**gamma)
    return (
        FunctionalCurve(grid=t, values=c_vals, kind=f"C({gamma:g})"),
        FunctionalCurve(grid=t, values=ct_vals, kind=f"Ctilde({gamma:g})"),
    )


def window_average(ens, n: int, f_idx) -> np.ndarray:
    """``int_n^{n+1} e^{-lam s} <phi 1_F, X_s> ds`` by trapezoid, one value per path.

    Needs a grid covering ``[n, n+1]``; reads only the window's columns (and
    one neighbour past an edge that falls between grid points, for the
    linear end correction).
    """
    t = ens.times
    lo, hi = float(n), float(n + 1)
    if hi > t[-1] + 1e-12 or lo < t[0] - 1e-12:
        raise ValueError("window extends past the recorded grid")
    f_idx = sorted(set(int(i) for i in f_idx))
    proj = np.zeros(len(ens.phi))
    proj[f_idx] = ens.phi[f_idx]
    # grid points in [lo, hi], each edge within 1e-12
    first = int(np.searchsorted(t, lo - 1e-12))
    stop = int(np.searchsorted(t, hi + 1e-12, side="right"))
    pre = bool(first == stop or t[first] > lo + 1e-12)
    post = bool(first == stop or t[stop - 1] < hi - 1e-12)
    a, b = first - pre, stop + post
    ts, vals = t[a:b], np.exp(-ens.lam * t[a:b]) * (ens.masses[:, a:b] @ proj)

    def edge(j, x):
        # np.interp's formula between columns j and j + 1, on every row
        slope = (vals[:, j + 1] - vals[:, j]) / (ts[j + 1] - ts[j])
        return (slope * (x - ts[j]) + vals[:, j])[:, None]

    inner = slice(pre, len(ts) - post)
    ts_w, vs_w = ts[inner], vals[:, inner]
    if pre:
        ts_w, vs_w = np.concatenate([[lo], ts_w]), np.concatenate([edge(0, lo), vs_w], axis=1)
    if post:
        ts_w = np.concatenate([ts_w, [hi]])
        vs_w = np.concatenate([vs_w, edge(len(ts) - 2, hi)], axis=1)
    # rows stay C-contiguous, so each row sums in the order of a 1-D trapezoid
    return np.trapezoid(vs_w, ts_w, axis=1)


def lemma_A_residual(ens, minf, p: float) -> np.ndarray:
    """Residual of the A / Atilde identity at the final recorded time, per path."""
    q = p / (p - 1.0)
    t_end = float(ens.times[-1])
    a_val = a_functional(ens, minf, q).final()
    at_val = a_tilde_functional(ens, p).final()
    m_end = ens.M[:, -1]
    m0 = ens.M[:, 0]
    lam = ens.lam
    return np.abs(
        a_val
        - (q / lam) * at_val
        - (q / lam) * math.exp(lam * t_end / q) * (minf - m_end)
        + (q / lam) * (minf - m0)
    )


def lemma_C_residual(ens, minf, gamma: float) -> np.ndarray:
    """Residual of the C / Ctilde identity at the final recorded time, per path."""
    c_curve, ct_curve = c_functionals(ens, minf, gamma)
    t_end = float(ens.times[-1])
    m_end = ens.M[:, -1]
    return np.abs(gamma * c_curve.final() - ct_curve.final() - t_end**gamma * (minf - m_end))
