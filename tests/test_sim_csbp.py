import dataclasses
import math

import numpy as np
import pytest
from conftest import STABLE_ATOMS, assert_same_ensemble
from scipy.integrate import solve_ivp

import supermart as sm

FELLER2 = {
    "types": 2,
    "Q": [[-1.0, 1.0], [1.0, -1.0]],
    "beta": [1.2, 0.8],
    "alpha": [4.0, 1.0],
    "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
}


def feller_var(a, b, x0, t):
    """Moment-ODE oracle: d/dt E[X^2] = 2b E[X^2] + 2a E[X]."""
    return x0 * (2.0 * a / b) * (math.exp(2 * b * t) - math.exp(b * t))


def feller_extinction(a, b, x0, t):
    """P(X_t = 0) = exp(-x0 v_t), v' = beta v - (alpha/2) v^2 from infinity."""
    v_t = (2.0 * b / (2.0 * a)) / (1.0 - math.exp(-b * t))
    return math.exp(-x0 * v_t)


def feller2_extinction(x0, times):
    """Laplace-ODE oracle of FELLER2: P(X_t = 0) = exp(-<x0, v_t>).

    ``v' = Q v + beta v - (alpha/2) v^2`` from ``v_0 = inf``, approximated
    by ``v_0 = 1e9``: the finite start moves ``v_t`` by about ``v_t^2 / 1e9``.
    """
    q, b, a = (np.array(FELLER2[k]) for k in ("Q", "beta", "alpha"))
    sol = solve_ivp(
        lambda t, v: q @ v + b * v - 0.5 * a * v * v,
        (0.0, max(times)), [1e9, 1e9], method="Radau", rtol=1e-10, atol=1e-12, t_eval=times,
    )
    return np.exp(-(x0 @ sol.y))


class TestNoiselessFlow:
    def test_matches_matrix_exponential_exactly(self, symmetric2):
        # pi = 0, alpha_diff = 0: the path is the deterministic mean flow
        m = sm.model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [1.0, 1.0],
                "alpha": [0.0, 0.0],
                "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
            }
        )
        eig = sm.principal_eigentriple(m)
        cfg = sm.SimConfig(dt=0.01, horizon=2.0, paths=3, master_seed=1, record_stride=20)
        ens = sm.simulate_csbp(m, eig, cfg)
        assert np.allclose(ens.M, 1.0, atol=1e-12)
        expected = np.exp(ens.times)[None, :, None] * eig.nu[None, None, :]
        assert np.allclose(ens.masses, np.broadcast_to(expected, ens.masses.shape), rtol=1e-10)


class TestFellerMoments:
    def test_mean_variance_extinction(self, feller1):
        eig = sm.principal_eigentriple(feller1)
        cfg = sm.SimConfig(
            dt=0.004, horizon=1.0, paths=60_000, master_seed=11,
            epsilon=10.0, record_stride=50, log_jumps=False,
        )
        ens = sm.simulate_csbp(feller1, eig, cfg, x0=np.array([1.0]))
        x1 = ens.masses[:, -1, 0]
        n = len(x1)
        se_mean = x1.std(ddof=1) / math.sqrt(n)
        assert abs(x1.mean() - math.e) <= 4 * se_mean
        var_target = feller_var(1.0, 1.0, 1.0, 1.0)
        assert x1.var(ddof=1) == pytest.approx(var_target, rel=0.10)
        ext_target = feller_extinction(1.0, 1.0, 1.0, 1.0)
        ext = float(np.mean(x1 == 0.0))
        sigma = math.sqrt(ext_target * (1 - ext_target) / n)
        assert abs(ext - ext_target) <= 4 * sigma

    def test_no_clipping_no_flags(self, feller1):
        cfg = sm.SimConfig(
            dt=0.005, horizon=1.0, paths=5_000, master_seed=12,
            epsilon=10.0, record_stride=20, log_jumps=False,
        )
        # two types from [1, 0]: the empty type is fed by the motion from the
        # first step on
        for model, x0 in ((feller1, [1.0]), (sm.model_from_json(FELLER2), [1.0, 0.0])):
            ens = sm.simulate_csbp(model, sm.principal_eigentriple(model), cfg, x0=np.array(x0))
            assert float(ens.clipped.max()) == 0.0, x0
            assert not ens.flagged.any(), x0

    def test_two_type_extinction(self):
        # joint extinction needs every type to die; a type emptied but fed
        # by the motion must be able to die again within a step
        model = sm.model_from_json(FELLER2)
        eig = sm.principal_eigentriple(model)
        cfg = sm.SimConfig(
            dt=0.004, horizon=1.0, paths=20_000, master_seed=5,
            record_stride=125, log_jumps=False,
        )
        ens = sm.simulate_csbp(model, eig, cfg)
        assert not ens.flagged.any()
        times = [0.5, 1.0]
        for t_val, p in zip(times, feller2_extinction(eig.nu, times)):
            idx = int(np.argmin(np.abs(ens.times - t_val)))
            ext = float(np.mean((ens.masses[:, idx, :] == 0.0).all(axis=1)))
            z = (ext - p) / math.sqrt(p * (1 - p) / ens.M.shape[0])
            assert abs(z) <= 4.0, (t_val, ext, p)


class TestMartingaleMean:
    def test_bounded_jump_model(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        cfg = sm.SimConfig(
            dt=0.005, horizon=2.0, paths=20_000, master_seed=21,
            epsilon=0.5, record_stride=40, log_jumps=False,
        )
        ens = sm.simulate_csbp(tilted2, eig, cfg)
        for t_val in (1.0, 2.0):
            idx = int(np.argmin(np.abs(ens.times - t_val)))
            m = ens.M[:, idx]
            z = (m.mean() - 1.0) / (m.std(ddof=1) / math.sqrt(len(m)))
            assert abs(z) <= 4.0

    def test_m_column_consistent_with_masses(self, stable1):
        eig = sm.principal_eigentriple(stable1)
        cfg = sm.SimConfig(dt=0.01, horizon=2.0, paths=50, master_seed=5, record_stride=10)
        ens = sm.simulate_csbp(stable1, eig, cfg)
        recomputed = np.exp(-ens.lam * ens.times)[None, :] * (ens.masses @ ens.phi)
        assert np.array_equal(ens.M, recomputed)


class TestJumps:
    def test_jump_log_sizes_above_epsilon(self, stable1):
        eig = sm.principal_eigentriple(stable1)
        cfg = sm.SimConfig(
            dt=0.01, horizon=2.0, paths=200, master_seed=31, epsilon=0.7, record_stride=5
        )
        ens = sm.simulate_csbp(stable1, eig, cfg)
        total = 0
        for arr in ens.jumps:
            arr = np.asarray(arr).reshape(-1, 3)
            total += len(arr)
            if len(arr):
                assert (arr[:, 2] > 0.7).all()
                assert (arr[:, 0] >= 0).all() and (arr[:, 0] <= 2.0).all()
                assert np.all(np.diff(arr[:, 0]) >= 0)
        assert total > 50  # the model genuinely jumps at this scale

    def test_auto_epsilon_rule(self, stable1):
        eig = sm.principal_eigentriple(stable1)
        x0 = eig.nu
        eps = sm.auto_epsilon(stable1, eig, x0, dt=0.001, horizon=2.0)
        # expected large jumps per step at the max-mass scale is about 0.1
        max_mass = 2.0 * float(np.sum(x0)) * math.exp(eig.lam * 2.0)
        rate = stable1.mech.kernels[0].tail(eps) * max_mass * 0.001
        assert rate == pytest.approx(0.1, rel=1e-6)

    STABLE = {"kind": "stable", "gamma": 1.0, "alpha": 1.5}
    NO_JUMPS = {"kind": "stable", "gamma": 0.0, "alpha": 1.5}

    @pytest.mark.parametrize(
        "kernels,expected",
        [
            # atom-only: half the smallest atom of any type
            ([{"kind": "atoms", "atoms": [[2.0, 3.0]]},
              {"kind": "atoms", "atoms": [[5.0, 0.1], [0.8, 1.0]]}], 0.4),
            # a stable kernel with gamma = 0 has no jumps: the atoms decide
            ([NO_JUMPS, {"kind": "atoms", "atoms": [[0.5, 0.8]]}], 0.25),
            # no jumps at all
            ([NO_JUMPS, NO_JUMPS], 1.0),
            # mixed: the stable rate rule alone, the atoms are ignored
            ([STABLE, {"kind": "atoms", "atoms": [[0.5, 0.8]]}], "stable"),
        ],
    )
    def test_auto_epsilon_split_rule(self, kernels, expected):
        model = sm.model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [1.2, 0.8],
                "alpha": [0.5, 0.5],
                "kernels": kernels,
            }
        )
        eig = sm.principal_eigentriple(model)
        eps = sm.auto_epsilon(model, eig, eig.nu, dt=0.004, horizon=12.0)
        if expected == "stable":
            max_mass = 2.0 * float(np.sum(eig.nu)) * math.exp(eig.lam * 12.0)
            rate_cap = 0.1 / (max_mass * 0.004)
            expected = (1.0 / (1.5 * rate_cap)) ** (1.0 / 1.5)
        assert eps == expected


class TestStepRejection:
    def test_violent_config_stays_finite_and_unbiased(self):
        # large diffusion with a coarse step: increments rival the mass, so
        # every cell below a mass of about 3 takes the near-absorption draw
        m = sm.model_from_json(
            {
                "types": 1,
                "Q": [[0.0]],
                "beta": [0.5],
                "alpha": [8.0],
                "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}],
            }
        )
        eig = sm.principal_eigentriple(m)
        cfg = sm.SimConfig(dt=0.01, horizon=1.0, paths=20_000, master_seed=41,
                           epsilon=1.0, record_stride=100, log_jumps=False)
        ens = sm.simulate_csbp(m, eig, cfg, x0=np.array([1.0]))
        x = ens.masses[:, -1, 0]
        assert np.isfinite(x).all() and (x >= 0).all()
        z = (ens.M[:, -1].mean() - 1.0) / (ens.M[:, -1].std(ddof=1) / math.sqrt(len(x)))
        assert abs(z) <= 4.0


class TestDeterminism:
    def test_chunk_size_invariance(self, set_chunk_paths):
        # outputs depend on the config and master seed, not on the chunk size
        model = sm.model_from_json(STABLE_ATOMS)
        eig = sm.principal_eigentriple(model)
        cfg = sm.SimConfig(dt=0.02, horizon=2.0, paths=400, master_seed=61, epsilon=0.3)
        a = sm.simulate_csbp(model, eig, cfg)
        assert sum(len(j) for j in a.jumps) > 0
        set_chunk_paths(96)
        assert_same_ensemble(a, sm.simulate_csbp(model, eig, cfg))
        # a path's draws are its own: a shorter run is a prefix
        head = sm.simulate_csbp(model, eig, dataclasses.replace(cfg, paths=37))
        assert np.array_equal(head.masses, a.masses[:37])
        assert all(np.array_equal(x, y) for x, y in zip(head.jumps, a.jumps))

    def test_threads_other_than_one_refused(self, stable1):
        eig = sm.principal_eigentriple(stable1)
        cfg = sm.SimConfig(dt=0.01, horizon=1.0, paths=5, master_seed=51)
        assert sm.simulate_csbp(stable1, eig, cfg, threads=1).n_paths == 5
        with pytest.raises(ValueError, match="runs its chunks in order"):
            sm.simulate_csbp(stable1, eig, cfg, threads=2)

    def test_rerun_bit_identical(self, stable1):
        eig = sm.principal_eigentriple(stable1)
        cfg = sm.SimConfig(dt=0.01, horizon=1.0, paths=500, master_seed=52, record_stride=10)
        a = sm.simulate_csbp(stable1, eig, cfg)
        b = sm.simulate_csbp(stable1, eig, cfg)
        assert np.array_equal(a.M, b.M)

    def test_estimate_minfty(self, stable1):
        eig = sm.principal_eigentriple(stable1)
        cfg = sm.SimConfig(dt=0.01, horizon=1.0, paths=20, master_seed=53, record_stride=10)
        ens = sm.simulate_csbp(stable1, eig, cfg)
        pr = ens.path(3)
        assert sm.estimate_Minfty(pr) == pr.M[-1]


class TestPoissonCounts:
    def test_zero_uniform_gives_zero_count(self):
        from supermart.sim.csbp import _poisson_counts

        # mu > 25 takes the quantile branch, where poisson.ppf(0, mu) is -1
        assert _poisson_counts(np.array([0.0]), np.array([30.0])).tolist() == [0]
        mu = np.array([1e-3, 0.5, 24.0, 25.0, 25.5, 30.0, 1e4])
        counts = _poisson_counts(np.zeros_like(mu), mu)
        assert counts.tolist() == [0] * len(mu)

    def test_quantile_equals_scipy_ppf_on_dense_grid(self):
        from scipy.special import pdtr
        from scipy.stats import poisson

        from supermart.sim.csbp import _poisson_quantile

        mu = np.geomspace(1e-3, 1e4, 181)
        u = np.concatenate(
            [np.linspace(0.0, 1.0, 1001)[1:-1], [1e-300, 1e-12, 1e-6, 1 - 1e-9, 1 - 2**-53]]
        )
        uu, mm = np.meshgrid(u, mu)
        assert np.array_equal(_poisson_quantile(uu, mm), poisson.ppf(uu, mm).astype(np.int64))
        # u exactly at the CDF steps, where the step-down decides the count
        k = np.arange(0, 60, dtype=float)
        kk, mm = np.meshgrid(k, np.array([0.3, 4.0, 27.0, 40.0]))
        steps = pdtr(kk, mm)
        steps = np.where((steps > 0) & (steps < 1), steps, 0.5)
        assert np.array_equal(_poisson_quantile(steps, mm), poisson.ppf(steps, mm).astype(np.int64))

    def test_counts_equal_scipy_ppf_on_both_branches(self):
        from scipy.stats import poisson

        from supermart.sim.csbp import _poisson_counts

        rng = np.random.default_rng(4)
        u = rng.random(20000)
        mu = np.geomspace(1e-2, 400.0, u.size)
        assert np.array_equal(_poisson_counts(u, mu), poisson.ppf(u, mu).astype(np.int64))


class TestConfigValidation:
    def test_dt_horizon_ratio(self):
        with pytest.raises(ValueError):
            sm.SimConfig(dt=0.5, horizon=1.0, paths=10, master_seed=1)

    def test_positive_epsilon(self):
        with pytest.raises(ValueError):
            sm.SimConfig(dt=0.001, horizon=1.0, paths=10, master_seed=1, epsilon=0.0)
