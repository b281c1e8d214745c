"""Textbook cases for the benchmark's oracles.

Run with ``python3 -m pytest perfbench/test_oracles.py`` from the repository
root.  The repository's own suite does not collect this file (its
``testpaths`` is ``tests``).
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def feller_variance(beta, sigma2, t):
    """``Var X_t = sigma2 e^{beta t} (e^{beta t} - 1) / beta`` from ``X_0 = 1``."""
    return sigma2 * math.exp(beta * t) * math.expm1(beta * t) / beta


def test_feller_variance():
    # beta = 1, variance coefficient 2, t = 1: Var X_1 = 2 (e^2 - e)
    v = oracles.csbp_variance(
        np.array([[1.0]]), np.array([2.0]), np.array([1.0]), np.array([1.0]), 1.0
    )
    assert v == pytest.approx(2.0 * (math.e**2 - math.e), rel=1e-10)


def test_multitype_variance_of_identical_types_is_one_type():
    # two types with equal drift and variance, mixed by Q: <1, X> is a
    # one-type Feller diffusion with the same coefficients
    a = np.array([[-1.0, 1.0], [1.0, -1.0]]) + 0.7 * np.eye(2)
    v = oracles.csbp_variance(a, np.array([1.5, 1.5]), np.array([0.3, 0.7]), np.ones(2), 2.0)
    assert v == pytest.approx(feller_variance(0.7, 1.5, 2.0), rel=1e-10)


def test_mean_is_exponential_of_lambda_on_phi():
    a = np.array([[-1.0, 1.0], [1.0, -1.0]]) + np.diag([1.2, 0.8])
    lam, phi, nu = oracles.perron_triple(a)
    assert oracles.csbp_mean(a, nu, phi, 1.5) == pytest.approx(math.exp(1.5 * lam), rel=1e-12)
    assert nu.sum() == pytest.approx(1.0, abs=1e-15)
    assert nu @ phi == pytest.approx(1.0, abs=1e-14)


def test_gw_extinction_bounded_law():
    # f(s) = 1/4 + 3/4 s^2 has fixed points 1/3 and 1
    assert oracles.gw_extinction((0.25, 0.0, 0.75)) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_gw_extinction_no_zero_mass():
    assert oracles.gw_extinction((0.0, 0.5, 0.5)) == 0.0


def test_gw_w_variance_bounded_law():
    # m = 3/2, sigma^2 = 3/4, so sigma^2 / (m (m - 1)) = 1
    m, var = oracles.gw_mean_variance((0.25, 0.0, 0.75))
    assert (m, var) == (1.5, 0.75)
    assert oracles.gw_w_variance((0.25, 0.0, 0.75), 10) == pytest.approx(1.0 - 1.5**-10, rel=1e-14)


def test_zeta_law():
    s = sum(k**-2.3 for k in range(1, 200_000))
    assert oracles.zeta_law_p1(1.3) == pytest.approx(1.0 / s, rel=1e-4)
    assert oracles.zeta_law_mean(1.3) > 1.0


@pytest.mark.parametrize("a", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("p", [1.05, 1.2, 1.4])
def test_stable_p_moment_against_closed_form(a, p):
    gamma = 0.45
    if p >= a:
        assert oracles.stable_p_moment(gamma, a, p) == math.inf
    else:
        assert oracles.stable_p_moment(gamma, a, p) == pytest.approx(gamma / (a - p), rel=1e-9)


def test_stable_p_moment_diverges_at_and_above_a():
    assert oracles.stable_p_moment(0.45, 1.5, 1.5) == math.inf
    assert oracles.stable_p_moment(0.45, 1.5, 1.8) == math.inf


def test_stable_phi_scaling_and_log_moments():
    gamma, a, phi = 0.7, 1.4, 1.3
    assert oracles.stable_p_moment(gamma, a, 1.2, phi) == pytest.approx(
        gamma * phi**a / (a - 1.2), rel=1e-9
    )
    assert oracles.stable_llogl(gamma, a) == pytest.approx(gamma / (a - 1.0) ** 2, rel=1e-9)
    g = 0.5
    assert oracles.stable_log_moment(gamma, a, g) == pytest.approx(
        gamma * math.gamma(g + 2.0) / (a - 1.0) ** (g + 2.0), rel=1e-9
    )


def test_stable_integral_against_direct_quadrature_in_r():
    gamma, a, p = 0.45, 1.5, 1.2
    direct = integrate.quad(lambda r: r**p * gamma * r ** (-1.0 - a), 1.0, math.inf)[0]
    assert oracles.stable_p_moment(gamma, a, p) == pytest.approx(direct, rel=1e-7)


def test_kernel_criteria_mixes_stable_and_atoms():
    kernels = [
        {"kind": "stable", "gamma": 0.45, "alpha": 1.5},
        {"kind": "atoms", "atoms": [[2.0, 0.3], [0.5, 0.8]]},
    ]
    phi = np.array([1.0, 1.0])
    nu = np.array([0.25, 0.75])
    out = oracles.kernel_criteria(kernels, phi, nu, (1.2, 1.8), (1.0,))
    assert out["p_moments"][1.2] == pytest.approx(0.25 * 0.45 / 0.3 + 0.75 * 0.3 * 2.0**1.2)
    assert out["p_moments"][1.8] == math.inf
    assert out["llogl"] == pytest.approx(0.25 * 0.45 / 0.25 + 0.75 * 0.3 * 2.0 * math.log(2.0))


def test_c_of_t_two_type_symmetric_motion():
    # Q + I has eigenvalues 1 (vector 1) and -1 (vector (1, -1)), so every
    # entry of e^{tA} / (e^t phi nu^T) is 1 +- e^{-2t}
    a = np.array([[-1.0, 1.0], [1.0, -1.0]]) + np.eye(2)
    lam, phi, nu = oracles.perron_triple(a)
    assert lam == pytest.approx(1.0)
    assert oracles.spectral_gap(a) == pytest.approx(2.0)
    c = oracles.c_of_t(a, lam, phi, nu, 5.0)
    assert c == pytest.approx(math.exp(-2.0 * 5.0), rel=1e-6)
