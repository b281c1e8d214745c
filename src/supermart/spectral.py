"""Mean semigroup, Perron eigentriple, and the uniform-convergence curve.

On a finite type space the mean semigroup of the branching process is the
matrix exponential ``exp(t * (Q + diag(beta)))``.  Its Perron data
``(lambda, phi, nu)`` is normalized so that ``sum(nu) = 1`` and
``sum(nu * phi) = 1``; that normalization is assumed everywhere downstream.

``c_of_t`` quantifies how fast ``P_t f / (e^{lambda t} phi nu(f))`` flattens
to 1.  The supremum over nonnegative ``nu``-integrable ``f`` is attained on
the coordinate basis: writing ``P_t e_j(x) = e^{lambda t} phi(x) nu_j (1 +
C_j(x))``, a general ``f >= 0`` has deviation ``sum_j [f_j nu_j / nu(f)] *
C_j(x)``, a convex combination of the basis deviations.  The reduction is
property-tested rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import SpectralError
from .model import Model

__all__ = [
    "Eigentriple",
    "CtCurve",
    "generator_matrix",
    "semigroup_apply",
    "principal_eigentriple",
    "spectral_gap",
    "c_of_t",
    "assumption2_report",
]

_EIG_TOL = 1e-10


def generator_matrix(model: Model) -> np.ndarray:
    """``Q + diag(beta)``, the generator of the mean semigroup."""
    return model.q + np.diag(model.beta)


@dataclass(frozen=True)
class Eigentriple:
    """Perron data ``(lambda, phi, nu)`` with ``sum(nu)=1`` and ``nu.phi=1``."""

    lam: float
    phi: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "nu", nu)
        self.phi.setflags(write=False)
        self.nu.setflags(write=False)

    @property
    def d(self) -> int:
        return len(self.phi)

    def residuals(self, model: Model) -> tuple[float, float]:
        """Sup-norm eigen residuals for (phi, nu), relative to the vector norms."""
        a = generator_matrix(model)
        r_phi = np.max(np.abs(a @ self.phi - self.lam * self.phi)) / np.max(np.abs(self.phi))
        r_nu = np.max(np.abs(self.nu @ a - self.lam * self.nu)) / np.max(np.abs(self.nu))
        return float(r_phi), float(r_nu)


@dataclass(frozen=True)
class CtCurve:
    """Sampled Assumption-2 curve ``t -> c_t``."""

    grid: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "c", c)


def semigroup_apply(model: Model, t: float, f: np.ndarray) -> np.ndarray:
    """``exp(t (Q + diag beta)) @ f`` via scaling-and-squaring."""
    if t < 0:
        raise ValueError("semigroup time must be >= 0")
    f = np.asarray(f, dtype=float)
    if t == 0.0:
        return f.copy()
    return linalg.expm(t * generator_matrix(model)) @ f


def _normalize(lam: float, phi: np.ndarray, nu: np.ndarray) -> "Eigentriple":
    nu = nu / nu.sum()
    phi = phi / (nu @ phi)
    return Eigentriple(lam=lam, phi=phi, nu=nu)


def principal_eigentriple(model: Model) -> Eigentriple:
    """Perron triple of ``Q + diag(beta)`` with the two-sided normalization.

    Dense eigendecomposition picks the eigenvalue of maximal real part; one
    inverse-iteration polish step refines both eigenvectors before the
    residual check.  Raises for ``lambda <= 0``; reducible motion never gets
    here, since `Model` construction refuses it.
    """
    a = generator_matrix(model)
    w, vl, vr = linalg.eig(a, left=True, right=True)
    i = int(np.argmax(w.real))
    lam = float(w[i].real)
    phi = np.real(vr[:, i])
    nu = np.real(vl[:, i])
    # Perron vectors have one sign; flip to positive and verify positivity.
    if phi.sum() < 0:
        phi = -phi
    if nu.sum() < 0:
        nu = -nu
    if (phi <= 0).any() or (nu <= 0).any():
        raise SpectralError("Perron vectors not strictly positive (reducible model?)")

    phi, nu, lam = _polish(a, lam, phi, nu)
    trip = _normalize(lam, phi, nu)
    r_phi, r_nu = trip.residuals(model)
    if max(r_phi, r_nu) > _EIG_TOL:
        raise SpectralError(f"eigen residual {max(r_phi, r_nu):.3e} above {_EIG_TOL}")
    if trip.lam <= 0:
        raise SpectralError(
            f"subcritical/critical model: principal eigenvalue {trip.lam:.6g} <= 0; "
            "increase beta until lambda > 0"
        )
    return trip


def _polish(a: np.ndarray, lam: float, phi: np.ndarray, nu: np.ndarray):
    """One inverse-iteration step on both sides plus a Rayleigh update."""
    d = a.shape[0]
    shift = lam + 1e-11 * max(1.0, abs(lam))
    try:
        m = a - shift * np.eye(d)
        phi_new = np.linalg.solve(m, phi)
        nu_new = np.linalg.solve(m.T, nu)
        phi_new = phi_new / np.max(np.abs(phi_new)) * np.sign(phi_new.sum())
        nu_new = nu_new / np.max(np.abs(nu_new)) * np.sign(nu_new.sum())
        if (phi_new > 0).all() and (nu_new > 0).all():
            lam_new = float((nu_new @ a @ phi_new) / (nu_new @ phi_new))
            res_old = np.max(np.abs(a @ phi - lam * phi)) / np.max(np.abs(phi))
            res_new = np.max(np.abs(a @ phi_new - lam_new * phi_new)) / np.max(np.abs(phi_new))
            if res_new <= res_old:
                return phi_new, nu_new, lam_new
    except np.linalg.LinAlgError:
        pass
    lam = float((nu @ a @ phi) / (nu @ phi))
    return phi, nu, lam


def spectral_gap(model: Model) -> float:
    """``lambda - max Re(other eigenvalues)`` of the generator."""
    w = np.linalg.eigvals(generator_matrix(model))
    order = np.argsort(w.real)[::-1]
    if len(w) == 1:
        return float("inf")
    return float(w[order[0]].real - w[order[1]].real)


def c_of_t(model: Model, eig: Eigentriple, t):
    """Worst relative deviation of ``P_t`` from its Perron profile at time t.

    ``max_{x,j} |P_t e_j(x) / (e^{lambda t} phi(x) nu_j) - 1|``, which equals
    the supremum over all f in L1+(nu) on a finite type space.

    ``t`` may be a scalar (a float is returned) or an array of times (an
    array of the same shape is returned); every time must be positive.  An
    array takes one ``scipy.linalg.expm`` call on the stack ``t * A``, which
    runs the same scaling-and-squaring Pade algorithm slice by slice, so each
    value equals the scalar call's bit for bit.  The curve deliberately stays
    on ``expm`` rather than one eigendecomposition ``V exp(t w) V^-1``: that
    is faster but was off by up to about 1e-11 absolute on random models and
    is ill-conditioned for non-normal generators.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0):
        raise ValueError("c_of_t needs t > 0")
    ts = t_arr.reshape(-1)
    e_t = linalg.expm(ts[:, None, None] * generator_matrix(model))
    profile = np.exp(eig.lam * ts)[:, None, None] * np.outer(eig.phi, eig.nu)
    c = np.max(np.abs(e_t / profile - 1.0), axis=(1, 2))
    return float(c[0]) if t_arr.ndim == 0 else c.reshape(t_arr.shape)


def assumption2_report(
    model: Model,
    eig: Eigentriple,
    target: float,
    *,
    t_min: float = 1e-3,
    horizon: float | None = None,
    points_per_decade: int = 60,
) -> dict:
    """Find the first grid time with ``c_t <= target`` and a decreasing tail.

    The returned ``t_star`` is the natural unit for rescaling time so the
    uniform-convergence threshold sits at 1.  Raises when the target is not
    reached on the configured grid.
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target must lie in (0, 1), got {target!r}")
    gap = spectral_gap(model)
    if horizon is None:
        horizon = 40.0 / gap if np.isfinite(gap) and gap > 0 else 50.0
    n = max(2, int(np.ceil(np.log10(horizon / t_min) * points_per_decade)))
    grid = np.geomspace(t_min, horizon, n)
    c = c_of_t(model, eig, grid)
    curve = CtCurve(grid=grid, c=c)
    tol = 1e-12
    # the curve decreases from grid point i on when every later step does,
    # up to round-off; the last point's empty tail counts as decreasing
    steps_ok = np.diff(c) <= tol * np.maximum(c[:-1], 1.0)
    tail_ok = np.append(np.logical_and.accumulate(steps_ok[::-1])[::-1], True)
    hits = np.flatnonzero((c <= target) & tail_ok)
    if hits.size:
        return {"t_star": float(grid[hits[0]]), "curve": curve}
    raise SpectralError(f"c_t did not settle below {target} within horizon {horizon:.3g}")
