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

ATOMS4 = {
    "types": 4,
    "Q": [[-3.0, 1.0, 1.0, 1.0], [1.0, -3.0, 1.0, 1.0], [1.0, 1.0, -3.0, 1.0], [1.0, 1.0, 1.0, -3.0]],
    "beta": [1.0, 1.1, 1.2, 1.3],
    "alpha": [0.5] * 4,
    "kernels": [{"kind": "atoms", "atoms": [[0.5, 0.8], [2.0, 0.3]]}] * 4,
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


class TestNearAbsorptionDraw:
    @pytest.mark.parametrize("lam", [0.04, 2.5, 8.0])
    def test_law(self, lam):
        from scipy import stats
        from scipy.special import gammainc

        from supermart.sim.csbp import _near_absorption

        # Poisson(lam) many Exp(theta): an atom exp(-lam) at 0, and given a
        # positive value the CDF sum_{n >= 1} pois(n; lam) P(n, x / theta) / (1 - exp(-lam))
        cells, theta = 200_000, 0.37
        det, var = lam * theta, 2.0 * lam * theta * theta
        u = np.random.default_rng(int(100 * lam)).random((cells, 2))
        x = _near_absorption(np.full(cells, det), np.full(cells, var), u)
        assert (x >= 0).all()
        p0 = math.exp(-lam)
        assert abs(np.mean(x == 0.0) - p0) <= 4 * math.sqrt(p0 * (1 - p0) / cells)
        n = np.arange(1, 80)[:, None]
        weights = stats.poisson.pmf(n, lam) / (1.0 - p0)

        def cdf(v):
            return (weights * gammainc(n, np.asarray(v)[None, :] / theta)).sum(axis=0)

        assert stats.kstest(x[x > 0], cdf).pvalue > 1e-3

    def test_one_cell_atom_mean_and_variance(self):
        from supermart.sim.csbp import _near_absorption

        # det^2 < 36 var; the matched law has an atom exp(-lam) at 0, mean det and
        # variance var; its cumulants are lam k! theta^k with theta = var / (2 det)
        cells, det, var = 100_000, 0.5, 0.1
        lam, theta = 2.0 * det * det / var, var / (2.0 * det)
        u = np.random.default_rng(78).random((cells, 2))
        x = _near_absorption(np.full(cells, det), np.full(cells, var), u)
        assert (x >= 0).all()
        p0 = math.exp(-lam)
        assert abs(np.mean(x == 0.0) - p0) <= 4 * math.sqrt(p0 * (1 - p0) / cells)
        assert abs(x.mean() - det) <= 4 * math.sqrt(var / cells)
        kappa4 = 24.0 * lam * theta**4
        assert abs(x.var(ddof=1) - var) <= 4 * math.sqrt((kappa4 + 2 * var * var) / cells)


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
        pid, t, ty, size = ens.jumps.T
        assert (size > 0.7).all()
        assert (t >= 0).all() and (t <= 2.0).all()
        assert (ty == 0).all()
        # sorted by path, then by time within each path
        assert np.all(np.diff(pid) >= 0)
        assert np.all(np.diff(t)[np.diff(pid) == 0] >= 0)
        assert len(ens.jumps) > 50  # the model genuinely jumps at this scale

    def test_select_keeps_the_rows_of_its_paths(self):
        model = sm.model_from_json(STABLE_ATOMS)
        eig = sm.principal_eigentriple(model)
        cfg = sm.SimConfig(dt=0.02, horizon=2.0, paths=40, master_seed=61, epsilon=0.3)
        ens = sm.simulate_csbp(model, eig, cfg)
        part = ens.select(slice(10, 25))
        pid = ens.jumps[:, 0]
        expected = ens.jumps[(pid >= 10) & (pid < 25)]
        expected[:, 0] -= 10
        assert 0 < len(expected) < len(ens.jumps)
        assert np.array_equal(part.jumps, expected)
        assert np.array_equal(part.M, ens.M[10:25])
        assert np.array_equal(part.masses, ens.masses[10:25])
        # the slice past the last path keeps the rows up to it
        tail = ens.select(slice(30, 100))
        assert np.array_equal(tail.jumps[:, 1:], ens.jumps[pid >= 30, 1:])
        assert tail.n_paths == 10 and tail.jumps[:, 0].max() < 10
        with pytest.raises(ValueError, match="step 1"):
            ens.select(slice(0, 40, 2))

    def test_auto_epsilon_rule(self, stable1):
        eig = sm.principal_eigentriple(stable1)
        x0 = eig.nu
        eps = sm.auto_epsilon(stable1, eig, x0, dt=0.001, horizon=2.0)
        # expected large jumps per step at the max-mass scale is about 0.1
        max_mass = 2.0 * float(np.sum(x0)) * math.exp(eig.lam * 2.0)
        rate = stable1.kernels[0].partial_moment(0.0, eps, math.inf) * max_mass * 0.001
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
        assert len(a.jumps) > 0
        # four types, 400 = 133 * 3 + 1 paths: at chunk size 3 the last chunk
        # holds one path, whose step products must sum as in a larger chunk
        model4 = sm.model_from_json(ATOMS4)
        eig4 = sm.principal_eigentriple(model4)
        a4 = sm.simulate_csbp(model4, eig4, cfg)
        set_chunk_paths(96)
        assert_same_ensemble(a, sm.simulate_csbp(model, eig, cfg))
        # a path's draws are its own: a shorter run is a prefix
        head = sm.simulate_csbp(model, eig, dataclasses.replace(cfg, paths=37))
        assert np.array_equal(head.masses, a.masses[:37])
        assert np.array_equal(head.jumps, a.jumps[a.jumps[:, 0] < 37])
        set_chunk_paths(3)
        assert_same_ensemble(a4, sm.simulate_csbp(model4, eig4, cfg))

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


class TestPoissonCounts:
    # means from 1e-8 to 1e9: the search below _POIS_SEARCH_CAP, scipy's
    # quantile formula above it
    MEANS = np.geomspace(1e-8, 1e9, 52)

    def test_zero_uniform_gives_zero_count(self):
        from supermart.sim.csbp import _poisson_counts

        # mu > 25 takes the quantile branch, where poisson.ppf(0, mu) is -1
        assert _poisson_counts(np.array([0.0]), np.array([30.0])).tolist() == [0]
        mu = np.array([1e-3, 0.5, 24.0, 25.0, 25.5, 30.0, 1e4])
        counts = _poisson_counts(np.zeros_like(mu), mu)
        assert counts.tolist() == [0] * len(mu)
        counts = _poisson_counts(np.zeros_like(self.MEANS), self.MEANS)
        assert counts.tolist() == [0] * len(self.MEANS)

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
        from scipy.special import pdtr
        from scipy.stats import poisson

        from supermart.sim.csbp import _POIS_SEARCH_CAP, _poisson_counts

        rng = np.random.default_rng(4)
        u = rng.random(20000)
        mu = np.geomspace(1e-8, 1e9, u.size)
        assert (mu < _POIS_SEARCH_CAP).any() and (mu > _POIS_SEARCH_CAP).any()
        assert np.array_equal(_poisson_counts(u, mu), poisson.ppf(u, mu).astype(np.int64))
        # the edges of (0, 1), and every CDF step in a window of 12 standard
        # deviations around each mean (steps rounded to 0 or 1 are no uniforms)
        edge = np.array([1e-300, 1e-12, 1e-6, 0.5, 1 - 1e-9, 1 - 2**-53])
        for m in self.MEANS:
            sd = math.sqrt(m)
            k = np.unique(np.round(np.linspace(max(m - 12 * sd, 0.0), m + 12 * sd + 30, 200)))
            steps = pdtr(k, m)
            u = np.concatenate([edge, steps[(steps > 0) & (steps < 1)]])
            mm = np.full(u.shape, m)
            got = _poisson_counts(u, mm)
            assert np.array_equal(got, poisson.ppf(u, mm).astype(np.int64)), m


def _overflow_model(alpha):
    # beta 8 over horizon 100: e^(800) overflows a float
    return sm.model_from_json(
        {
            "types": 1,
            "Q": [[0.0]],
            "beta": [8.0],
            "alpha": [alpha],
            "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}],
        }
    )


class TestOverflow:
    def test_non_finite_mass_raises_with_paths_and_time(self):
        m = _overflow_model(0.5)
        eig = sm.principal_eigentriple(m)
        cfg = sm.SimConfig(dt=0.5, horizon=100.0, paths=50, master_seed=1, epsilon=1.0)
        with np.errstate(all="ignore"), pytest.raises(sm.NumericalError) as err:
            sm.simulate_csbp(m, eig, cfg)
        assert isinstance(err.value, sm.SupermartError)
        ids = ", ".join(str(j) for j in range(10))
        assert str(err.value) == (
            "mass overflow: 50 path(s) of 50 reach a non-finite mass, the first at the "
            f"record t = 89 (path ids {ids}, ...)"
        )
        # without a split the mean mass at the horizon already overflows
        with pytest.raises(sm.NumericalError, match="overflows at lambda = 8"):
            sm.simulate_csbp(m, eig, dataclasses.replace(cfg, epsilon=None))

    def test_error_covers_every_chunk(self, set_chunk_paths):
        # with alpha 20 many paths die out; the others overflow near t = 88
        m = _overflow_model(20.0)
        eig = sm.principal_eigentriple(m)
        cfg = sm.SimConfig(dt=0.5, horizon=100.0, paths=12, master_seed=1, epsilon=1.0)

        def overflow(paths):
            with np.errstate(all="ignore"), pytest.raises(sm.NumericalError) as err:
                sm.simulate_csbp(m, eig, dataclasses.replace(cfg, paths=paths))
            return str(err.value)

        msgs = []
        for chunk in (4096, 3, 1):
            set_chunk_paths(chunk)
            msgs.append(overflow(cfg.paths))
        assert msgs[0] == (
            "mass overflow: 8 path(s) of 12 reach a non-finite mass, the first at the "
            "record t = 88 (path ids 1, 3, 4, 5, 6, 9, 10, 11)"
        )
        assert msgs[1] == msgs[0] and msgs[2] == msgs[0]
        # the premise: in chunks of 3 the first chunk that overflows (the
        # one of path 1) overflows later than the first overflow of the run;
        # a run's paths draw alike at any path count, so the run of the
        # first chunk's paths alone shows when that chunk overflows
        assert overflow(3) == (
            "mass overflow: 1 path(s) of 3 reach a non-finite mass, the first at the "
            "record t = 88.5 (path ids 1)"
        )


class TestConfigValidation:
    def test_dt_horizon_ratio(self):
        with pytest.raises(ValueError):
            sm.SimConfig(dt=0.5, horizon=1.0, paths=10, master_seed=1)

    def test_positive_epsilon(self):
        with pytest.raises(ValueError):
            sm.SimConfig(dt=0.001, horizon=1.0, paths=10, master_seed=1, epsilon=0.0)
