import numpy as np
import pytest

import supermart as sm
from supermart.rates import (
    as_rate_check,
    fit_exponential,
    fit_power,
    lp_curve,
    poly_rate_check,
    window_law_check,
)
from supermart.sim import Ensemble


def synthetic_ensemble(times, m_matrix, lam=1.0, phi=None, masses=None):
    m_matrix = np.asarray(m_matrix, dtype=float)
    phi = np.array([1.0]) if phi is None else phi
    if masses is None:
        masses = np.exp(lam * times)[None, :, None] * m_matrix[:, :, None]
    return Ensemble(
        times=np.asarray(times, dtype=float),
        M=m_matrix,
        masses=masses,
        lam=lam,
        phi=phi,
        clipped=np.zeros(m_matrix.shape[0]),
        flagged=np.zeros(m_matrix.shape[0], dtype=bool),
    )


class TestFitExponential:
    def test_exact_recovery(self):
        t = np.linspace(0.5, 4.0, 30)
        curve = {"t": t, "value": 3.0 * np.exp(-0.7 * t), "n_paths": 100}
        fit = fit_exponential(curve, predicted=-0.7)
        assert fit.exponent == pytest.approx(-0.7, abs=1e-10)
        assert fit.stderr < 1e-10
        assert fit.bound_verdict == "consistent"
        assert fit.r_squared > 1.0 - 1e-12

    def test_power_law_flagged_inconclusive(self):
        # a power law over a wide window is visibly curved in semilog
        t = np.geomspace(0.5, 500.0, 80)
        curve = {"t": t, "value": (1.0 + t) ** -1.0, "n_paths": 100}
        fit = fit_exponential(curve, predicted=-0.5)
        assert fit.r_squared < 0.8
        assert fit.bound_verdict == "inconclusive"

    def test_verdict_tolerance_rule(self):
        t = np.linspace(0.5, 4.0, 30)
        curve = {"t": t, "value": np.exp(-1.0 * t), "n_paths": 10}
        # slope -1.0 against -0.9: faster than predicted, consistent
        assert fit_exponential(curve, predicted=-0.9).bound_verdict == "consistent"
        # against -1.1: slower by 0.1 <= 0.15 * 1.1, consistent
        assert fit_exponential(curve, predicted=-1.1).bound_verdict == "consistent"
        # against -1.2: slower by 0.2 > max(2 se, 0.15 * 1.2), inconsistent
        assert fit_exponential(curve, predicted=-1.2).bound_verdict == "inconsistent"

    def test_bound_verdict_one_sided(self):
        # decaying faster than an o(.) envelope stays consistent with it
        t = np.linspace(0.5, 4.0, 30)
        curve = {"t": t, "value": np.exp(-1.0 * t), "n_paths": 10}
        fit = fit_exponential(curve, predicted=-0.5)
        assert fit.bound_verdict == "consistent"

    def test_power_fit_recovery(self):
        t = np.geomspace(1.0, 50.0, 40)
        curve = {"t": t, "value": 2.0 * t**-1.5, "n_paths": 10}
        fit = fit_power(curve, predicted=-1.5)
        assert fit.exponent == pytest.approx(-1.5, abs=1e-10)
        assert fit.kind == "polynomial"


class TestLpCurve:
    def test_deterministic_model_identically_zero(self):
        t = np.linspace(0, 4, 41)
        ens = synthetic_ensemble(t, np.ones((50, 41)))
        curve = lp_curve(ens, 1.5)
        assert np.allclose(curve["value"], 0.0)

    def test_grid_capped_at_half_horizon(self):
        t = np.linspace(0, 4, 41)
        ens = synthetic_ensemble(t, np.ones((50, 41)))
        with pytest.raises(ValueError, match="horizon/2"):
            lp_curve(ens, 1.5, grid=[3.0])

    def test_monotone_decrease_on_gw(self):
        gw = sm.GWModel(pmf=(0.25, 0.0, 0.75))
        ens = sm.simulate_gw(gw, 20, 4000, seed=9)
        curve = lp_curve(ens, 1.5)
        v = curve["value"]
        assert v[0] > v[-1]

    def test_bootstrap_clt_sanity(self):
        # stderr halves (within 30%) when the path count quadruples
        rng = np.random.default_rng(12)
        t = np.linspace(0, 4, 9)

        def build(n):
            m = 1.0 + np.cumsum(rng.normal(0, 0.05, (n, 9)), axis=1)
            return synthetic_ensemble(t, m)

        c1 = lp_curve(build(800), 2.0, n_boot=400)
        c2 = lp_curve(build(3200), 2.0, n_boot=400)
        ratio = np.median(c1["stderr"][1:] / c2["stderr"][1:])
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3

    @pytest.mark.parametrize("n_paths", [1, 37, 3000])
    def test_bootstrap_matches_resample_loop(self, n_paths):
        # the resample counts give the same curve as averaging each resample's
        # rows; 3000 paths take several blocks of resamples, the last one short
        gw = sm.GWModel(pmf=(0.25, 0.0, 0.75))
        ens = sm.simulate_gw(gw, 20, n_paths, seed=9)
        p, n_boot = 1.5, 200
        curve = lp_curve(ens, p, n_boot=n_boot)
        dev = np.abs(ens.M[:, -1:] - ens.M[:, : len(curve["t"])]) ** p
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0, 7])))
        boots = [np.mean(dev[rng.integers(0, n_paths, n_paths)], axis=0) ** (1 / p)
                 for _ in range(n_boot)]
        np.testing.assert_allclose(curve["value"], np.mean(dev, axis=0) ** (1 / p), rtol=1e-12)
        np.testing.assert_allclose(curve["stderr"], np.std(boots, axis=0, ddof=1), rtol=1e-12)

    def test_flagged_paths_excluded(self):
        t = np.linspace(0, 4, 5)
        m = np.ones((10, 5))
        m[0] = 100.0
        ens = synthetic_ensemble(t, m)
        ens.flagged[0] = True
        curve = lp_curve(ens, 1.5)
        assert np.allclose(curve["value"], 0.0)
        assert curve["n_paths"] == 9


class TestAsRateCheck:
    def test_deterministic_holds_at_every_threshold(self):
        t = np.linspace(0, 8, 81)
        ens = synthetic_ensemble(t, np.ones((40, 81)))
        out = as_rate_check(ens, q=6.0, lam=1.0)
        assert out["verdict"] == "holds"
        for fr in out["fractions"].values():
            assert all(v == 1.0 for v in fr.values())

    def test_persistent_exceedance_fails(self):
        # every path violates e^{lam t / q}|Minf - M_t| -> 0 by construction
        t = np.linspace(0, 8, 161)
        lam, q = 1.0, 2.0
        m = 1.0 - np.exp(-lam * t / q + 0.2) * np.cos(3 * t)  # residual ~ e^{-lam t/q}
        ens = synthetic_ensemble(t, np.tile(m, (40, 1)))
        out = as_rate_check(ens, q=q, lam=lam, thresholds=(0.1, 0.2, 0.4))
        assert out["verdict"] == "fails-consistent"

    def test_small_bad_fraction_still_holds(self):
        # 2% of paths violating stays under the 5% failure floor and above
        # the 95% holds floor
        t = np.linspace(0, 8, 81)
        good = np.ones((98, 81))
        bad = 1.0 - np.exp(-t / 2.0)[None, :].repeat(2, axis=0)
        ens = synthetic_ensemble(t, np.vstack([good, bad]))
        out = as_rate_check(ens, q=2.0, lam=1.0, thresholds=(1e-6, 1e-3))
        assert out["verdict"] == "holds"

    def test_window_dependent_behavior_inconclusive(self):
        # 6% of paths spike only inside [1, 2): T=1 sees them (fraction at
        # the top threshold < 0.95) but T=2 does not (no persistent failure)
        t = np.linspace(0, 8, 161)
        n_good, n_bad = 94, 6
        good = np.ones((n_good, len(t)))
        bump = np.exp(-((t - 1.5) ** 2) / 0.01)
        bad = 1.0 + 5.0 * bump[None, :].repeat(n_bad, axis=0)
        ens = synthetic_ensemble(t, np.vstack([good, bad]))
        out = as_rate_check(
            ens, q=6.0, lam=1.0, thresholds=(0.5, 1.0), t_lo_list=(1.0, 2.0)
        )
        assert out["fractions"][1.0][1.0] < 0.95
        assert out["fractions"][2.0][1.0] == 1.0
        assert out["verdict"] == "inconclusive"


class TestPolyRateCheck:
    def test_deterministic_holds_for_every_gamma(self):
        t = np.linspace(0, 8, 81)
        ens = synthetic_ensemble(t, np.ones((40, 81)))
        for g in (0.5, 1.0, 2.0):
            assert poly_rate_check(ens, g)["verdict"] == "holds"

    def test_slow_paths_fail(self):
        # Minf - M_t ~ t^{-1/2}: t |Mhat_inf - M_t| plateaus near 0.45 on the
        # analysis window, exceeding every threshold below that level
        t = np.linspace(0.0, 8.0, 161)
        m = 1.0 - 1.0 / np.sqrt(1.0 + t)
        ens = synthetic_ensemble(t, np.tile(m, (40, 1)))
        out = poly_rate_check(ens, 1.0, thresholds=(0.05, 0.1, 0.2))
        assert out["verdict"] == "fails-consistent"


class TestWindowLawCheck:
    def test_deterministic_symmetric_model_exact(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        t = np.linspace(0, 8, 801)
        n_paths = 6
        m = np.ones((n_paths, len(t)))
        masses = np.exp(t)[None, :, None] * eig.nu[None, None, :]
        masses = np.broadcast_to(masses, (n_paths, len(t), 2)).copy()
        ens = synthetic_ensemble(t, m, lam=1.0, phi=eig.phi, masses=masses)
        out = window_law_check(ens, [0], eig)
        assert out["target"] == pytest.approx(0.5)
        assert out["survival_fraction"] == 1.0
        for mad in out["mad"].values():
            assert mad == pytest.approx(0.0, abs=1e-12)

    def test_flagged_paths_dropped(self, symmetric2):
        # window averages 0.5 f per path against the target 0.5
        eig = sm.principal_eigentriple(symmetric2)
        t = np.linspace(0, 8, 161)

        def ensemble(factors):
            m = np.ones((len(factors), len(t)))
            masses = np.exp(t)[None, :, None] * eig.nu[None, None, :] * np.array(factors)[:, None, None]
            return synthetic_ensemble(t, m, lam=1.0, phi=eig.phi, masses=masses)

        base = window_law_check(ensemble([1.0, 1.1, 1.3, 1.6]), [0], eig)
        wild = ensemble([1.0, 1.1, 1.3, 1.6, 1e6])
        wild.flagged[-1] = True
        out = window_law_check(wild, [0], eig)
        assert out["mad"] == base["mad"]
        assert out["survival_fraction"] == base["survival_fraction"] == 1.0

    def test_extinct_paths_skipped(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        t = np.linspace(0, 8, 161)
        m = np.ones((4, len(t)))
        m[0] = 0.0  # extinct path
        masses = np.exp(t)[None, :, None] * eig.nu[None, None, :] * m[:, :, None]
        ens = synthetic_ensemble(t, m, lam=1.0, phi=eig.phi, masses=masses.copy())
        out = window_law_check(ens, [0], eig)
        assert out["survival_fraction"] == pytest.approx(0.75)
