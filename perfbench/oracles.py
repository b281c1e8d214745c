"""Reference values the benchmark checks the program against.

Nothing here imports ``supermart``: every value comes from a closed form, a
fixed-point iteration or an adaptive quadrature written from the textbook
definition.

* First and second moments of a multitype CSBP with generator
  ``A = Q + diag(beta)`` and per-type variance coefficient
  ``sigma2_i = alpha_i + int r^2 pi_i(dr)`` (Li, *Measure-Valued Branching
  Markov Processes*, 2011): ``E_x <f, X_t> = x e^{tA} f`` and
  ``Var_x <f, X_t> = int_0^t (x e^{sA}) . (sigma2 (e^{(t-s)A} f)^2) ds``.
* Galton-Watson: the extinction probability is the smallest fixed point of
  the offspring generating function, and ``W_n = Z_n / m^n`` has mean 1 and
  variance ``sigma^2 (1 - m^-n) / (m (m - 1))``.
* Kernel integrals ``int_1^inf f(r) pi^phi(dr)`` of the stable kernel
  ``gamma r^{-1-a}`` seen through the ``phi`` scaling ``r -> phi r``, by
  quadrature in ``u = log r``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, linalg, special

# ---------------------------------------------------------------------------
# spectral data


def perron_triple(a: np.ndarray):
    """``(lambda, phi, nu)`` of ``a`` with ``sum(nu) = 1`` and ``nu . phi = 1``."""
    w, vr = np.linalg.eig(a)
    i = int(np.argmax(w.real))
    wl, vl = np.linalg.eig(a.T)
    j = int(np.argmax(wl.real))
    phi = np.real(vr[:, i])
    nu = np.real(vl[:, j])
    phi = phi * np.sign(phi.sum())
    nu = nu * np.sign(nu.sum())
    nu = nu / nu.sum()
    phi = phi / (nu @ phi)
    return float(w[i].real), phi, nu


def spectral_gap(a: np.ndarray) -> float:
    """``lambda`` minus the second largest real part of the spectrum of ``a``."""
    re = np.sort(np.linalg.eigvals(a).real)[::-1]
    return float(re[0] - re[1]) if len(re) > 1 else math.inf


def c_of_t(a: np.ndarray, lam: float, phi: np.ndarray, nu: np.ndarray, t: float) -> float:
    """``max_{x,j} |e^{tA}_{xj} / (e^{lambda t} phi_x nu_j) - 1|``."""
    profile = math.exp(lam * t) * np.outer(phi, nu)
    return float(np.max(np.abs(linalg.expm(t * a) / profile - 1.0)))


# ---------------------------------------------------------------------------
# CSBP moments


def csbp_mean(a: np.ndarray, x0: np.ndarray, f: np.ndarray, t: float) -> float:
    """``E_{x0} <f, X_t> = x0 e^{tA} f``."""
    return float(x0 @ linalg.expm(t * a) @ f)


def csbp_variance(a: np.ndarray, sigma2: np.ndarray, x0: np.ndarray, f: np.ndarray, t: float) -> float:
    """``Var_{x0} <f, X_t>`` by quadrature of the second-moment formula."""

    def integrand(s):
        occupation = x0 @ linalg.expm(s * a)
        carried = linalg.expm((t - s) * a) @ f
        return float(occupation @ (sigma2 * carried**2))

    return integrate.quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-11, limit=200)[0]


# ---------------------------------------------------------------------------
# Galton-Watson


def gw_mean_variance(pmf) -> tuple[float, float]:
    """Offspring mean ``m`` and variance ``sigma^2`` of a finite pmf."""
    k = np.arange(len(pmf), dtype=float)
    p = np.asarray(pmf, dtype=float)
    m = float(k @ p)
    return m, float((k * k) @ p - m * m)


def gw_extinction(pmf, tol: float = 1e-15, max_iter: int = 100_000) -> float:
    """Smallest fixed point of ``f(s) = sum_k p_k s^k`` on ``[0, 1]``.

    The iteration ``s <- f(s)`` from 0 increases monotonically to it.
    """
    coeffs = np.asarray(pmf, dtype=float)[::-1]
    s = 0.0
    for _ in range(max_iter):
        nxt = float(np.polyval(coeffs, s))
        if abs(nxt - s) <= tol:
            return nxt
        s = nxt
    raise RuntimeError("extinction iteration did not converge")


def gw_w_variance(pmf, n: int) -> float:
    """``Var W_n = sigma^2 (1 - m^-n) / (m (m - 1))``."""
    m, var = gw_mean_variance(pmf)
    return var * (1.0 - m ** (-n)) / (m * (m - 1.0))


def zeta_law_p1(alpha: float) -> float:
    """``P(Z = 1) = 1 / zeta(1 + alpha)`` for the law ``k^{-1-alpha} / zeta(1 + alpha)``."""
    return 1.0 / float(special.zeta(1.0 + alpha))


def zeta_law_mean(alpha: float) -> float:
    """``zeta(alpha) / zeta(1 + alpha)``."""
    return float(special.zeta(alpha) / special.zeta(1.0 + alpha))


# ---------------------------------------------------------------------------
# kernel integrals


def stable_phi_integral(k: float, j: float, gamma: float, a: float, phi: float = 1.0) -> float:
    """``int_1^inf r^k (log r)^j pi^phi(dr)`` for ``pi = gamma r^{-1-a} dr``.

    ``pi^phi`` is the image of ``pi`` under ``r -> phi r``, with density
    ``gamma phi^a r^{-1-a}``.  In ``u = log r`` the integrand is
    ``u^j e^{(k - a) u}``; the integral diverges when ``k >= a``.
    """
    if k >= a:
        return math.inf
    val = integrate.quad(
        lambda u: u**j * math.exp((k - a) * u), 0.0, math.inf,
        epsabs=1e-13, epsrel=1e-11, limit=400,
    )[0]
    return gamma * phi**a * val


def stable_p_moment(gamma: float, a: float, p: float, phi: float = 1.0) -> float:
    """``int_1^inf r^p pi^phi(dr)`` by quadrature; ``inf`` when ``p >= a``."""
    return stable_phi_integral(p, 0.0, gamma, a, phi)


def stable_llogl(gamma: float, a: float, phi: float = 1.0) -> float:
    """``int_1^inf r log r pi^phi(dr)`` by quadrature."""
    return stable_phi_integral(1.0, 1.0, gamma, a, phi)


def stable_log_moment(gamma: float, a: float, g: float, phi: float = 1.0) -> float:
    """``int_1^inf r (log r)^{g+1} pi^phi(dr)`` by quadrature."""
    return stable_phi_integral(1.0, g + 1.0, gamma, a, phi)


def atom_phi_integral(f, atoms, phi: float) -> float:
    """``sum_k w_k f(phi r_k)`` over the atoms with ``phi r_k > 1``."""
    return sum(w * f(phi * r) for r, w in atoms if phi * r > 1.0)


def kernel_criteria(kernels, phi, nu, p_values, gamma_values) -> dict:
    """``nu``-averaged llogl, p-moments and log-moments of the ``phi``-scaled kernels.

    ``kernels`` holds the model JSON kernel objects.  A divergent integral on
    any type with ``nu_i > 0`` makes the average ``inf``.
    """

    def average(stable_fn, atom_fn):
        total = 0.0
        for kern, ph, n in zip(kernels, phi, nu):
            if kern["kind"] == "stable":
                v = stable_fn(kern["gamma"], kern["alpha"], ph) if kern["gamma"] > 0 else 0.0
            else:
                v = atom_phi_integral(atom_fn, kern["atoms"], ph)
            if math.isinf(v):
                return math.inf
            total += n * v
        return total

    return {
        "llogl": average(stable_llogl, lambda r: r * math.log(r)),
        "p_moments": {
            p: average(lambda g, a, ph: stable_p_moment(g, a, p, ph), lambda r: r**p)
            for p in p_values
        },
        "log_moments": {
            g: average(
                lambda gm, a, ph: stable_log_moment(gm, a, g, ph),
                lambda r: r * math.log(r) ** (g + 1.0),
            )
            for g in gamma_values
        },
    }
