import math
import warnings

import numpy as np
import pytest
from conftest import STABLE_ATOMS, assert_same_ensemble
from scipy import linalg
from scipy.stats import chi2, chisquare

import supermart as sm
from supermart.sim.records import path_streams
from supermart.sim.spine import _SpineImmigration, _truncation_budget
from supermart.verify import suite_spine


class TestTiltedGenerator:
    def test_symmetric_phi_constant(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        tg = sm.tilted_generator(symmetric2, eig)
        assert np.allclose(tg, symmetric2.q)

    def test_tilted_rates_closed_form(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        tg = sm.tilted_generator(tilted2, eig)
        s2 = math.sqrt(2.0)
        assert tg[0, 1] == pytest.approx(s2 - 1.0, rel=1e-10)
        assert tg[1, 0] == pytest.approx(s2 + 1.0, rel=1e-10)

    def test_conservative_rows(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        tg = sm.tilted_generator(tilted2, eig)
        assert np.allclose(tg.sum(axis=1), 0.0, atol=1e-12)

    def test_stationary_law_is_nu_phi(self, tilted2):
        # CTMC stationary-law oracle: solve pi Q~ = 0 directly
        eig = sm.principal_eigentriple(tilted2)
        tg = sm.tilted_generator(tilted2, eig)
        a = np.vstack([tg.T, np.ones(2)])
        b = np.array([0.0, 0.0, 1.0])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert pi == pytest.approx(list(eig.nu * eig.phi), abs=1e-12)


class TestSpineOccupation:
    def test_occupation_matches_nu_phi(self):
        rep = suite_spine(paths=3000, seed=2718)
        occ = rep["checks"][0]
        assert occ["passed"], occ


THREE_TYPES = {
    "types": 3,
    "Q": [[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3], [2.0, 1.0, -3.0]],
    "beta": [1.5, 0.5, 1.0],
    "alpha": [0.5, 0.5, 0.5],
    "kernels": [{"kind": "atoms", "atoms": [[0.5, 0.8]]}] * 3,
}


def grid_types(imm, paths, seed):
    """``(paths, steps)`` spine types from the hook's move, at seeded uniforms."""
    rng = np.random.default_rng(seed)
    ctx = imm.prepare_chunk(range(paths))
    return np.stack([imm.move(k, rng.random(paths), ctx) for k in range(imm.cfg.n_steps)], axis=1)


class TestSpinePathSampler:
    def test_grid_chain_law(self):
        # the spine's type on the step grid is the chain with rows
        # expm(dt * tilted): transition counts and the last step's law
        m = sm.model_from_json(THREE_TYPES)
        eig = sm.principal_eigentriple(m)
        paths = 2000
        cfg = sm.SpineConfig(dt=0.01, horizon=5.0, paths=paths, master_seed=1)
        x0 = np.array([0.2, 0.5, 0.3])
        imm = _SpineImmigration(m, eig, cfg, x0)
        types = grid_types(imm, paths, seed=7)
        tilted = sm.tilted_generator(m, eig)
        step = linalg.expm(cfg.dt * tilted)
        pairs = np.zeros((3, 3))
        np.add.at(pairs, (types[:, :-1], types[:, 1:]), 1.0)
        # given its visits to i, a chain's moves out of i are iid rows of the matrix
        expected = pairs.sum(axis=1, keepdims=True) * step
        stat = float(((pairs - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, df=3 * 2) > 1e-3, (pairs, expected)
        init = eig.phi * x0 / (eig.phi * x0).sum()
        last = init @ linalg.expm((cfg.n_steps - 1) * cfg.dt * tilted)
        got = np.bincount(types[:, -1], minlength=3)
        assert chisquare(got, paths * last).pvalue > 1e-3, (got, paths * last)
        assert np.array_equal(imm.visits, np.stack([(types == i).sum(axis=1) for i in range(3)], axis=1))

    def test_one_type(self):
        m = sm.model_from_json(
            {
                "types": 1, "Q": [[0.0]], "beta": [1.0], "alpha": [0.5],
                "kernels": [{"kind": "atoms", "atoms": [[0.5, 0.8]]}],
            }
        )
        eig = sm.principal_eigentriple(m)
        cfg = sm.SpineConfig(dt=0.01, horizon=1.0, paths=50, master_seed=4, record_stride=10)
        imm = _SpineImmigration(m, eig, cfg, eig.nu)
        assert not grid_types(imm, 50, seed=3).any()
        res = sm.simulate_spine(m, eig, cfg)
        assert np.array_equal(res.occupation, np.ones((50, 1)))

    def test_hook_reads_the_last_three_planes(self, monkeypatch):
        # a model with diffusion and jumps: each step's counts row holds d
        # large-jump planes before the hook's
        model = sm.model_from_json(STABLE_ATOMS)
        eig = sm.principal_eigentriple(model)
        cfg = sm.SpineConfig(
            dt=0.02, horizon=2.0, paths=40, master_seed=5, epsilon=0.3, delta=1e-2
        )
        seen = []
        step_mass = _SpineImmigration.step_mass

        def record(self, k, x, u_imm, sizes, ctx):
            seen.append(u_imm.copy())
            return step_mass(self, k, x, u_imm, sizes, ctx)

        monkeypatch.setattr(_SpineImmigration, "step_mass", record)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # truncation budget of the stable kernel
            sm.simulate_spine(model, eig, cfg)
        got = np.stack(seen, axis=1)  # (paths, steps, planes)
        streams = path_streams(cfg.master_seed, range(cfg.paths))
        n_planes = model.d + 3
        for j in range(cfg.paths):
            row = streams.fresh(j, "counts").random((cfg.n_steps, n_planes))
            assert np.array_equal(got[j], row[:, -3:]), j


class TestNoImmigrationDegenerate:
    def test_q_law_equals_deterministic_flow(self):
        # pi = 0 and alpha_diff = 0: no immigration sources at all, so the
        # spine changes nothing and the Q-law is the deterministic mean flow
        m = sm.model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [2.0, 0.0],
                "alpha": [0.0, 0.0],
                "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
            }
        )
        eig = sm.principal_eigentriple(m)
        cfg = sm.SpineConfig(
            dt=0.005, horizon=1.0, paths=4, master_seed=3, record_stride=20,
            delta=1e-3, delta_floor=1e-3,
        )
        res = sm.simulate_spine(m, eig, cfg)
        assert np.allclose(res.ensemble.M, 1.0, atol=1e-12)


class TestSizeBiasingIdentity:
    def test_mean_identity_ci_overlap(self):
        rep = suite_spine(paths=4000, seed=99)
        bias = rep["checks"][1]
        assert bias["passed"], bias

    def test_three_functionals_overlap(self, tilted2):
        # <phi, X_1>, min(<phi, X_1>, c), and 1{<phi, X_1> > c}
        eig = sm.principal_eigentriple(tilted2)
        paths = 4000
        spine_cfg = sm.SpineConfig(
            dt=0.005, horizon=1.0, paths=paths, master_seed=17, record_stride=20,
            log_jumps=False, delta=1e-3, delta_floor=1e-3,
        )
        plain_cfg = sm.SimConfig(
            dt=0.005, horizon=1.0, paths=paths, master_seed=18, record_stride=20,
            log_jumps=False,
        )
        q_ens = sm.simulate_spine(tilted2, eig, spine_cfg).ensemble
        p_ens = sm.simulate_csbp(tilted2, eig, plain_cfg)
        phi_q = q_ens.masses[:, -1, :] @ eig.phi
        phi_p = p_ens.masses[:, -1, :] @ eig.phi
        m1 = p_ens.M[:, -1]
        c = 2.0
        for h_q, h_p in (
            (phi_q, phi_p),
            (np.minimum(phi_q, c), np.minimum(phi_p, c)),
            ((phi_q > c).astype(float), (phi_p > c).astype(float)),
        ):
            lhs = h_q
            rhs = m1 * h_p  # mu(phi) = 1 for the nu initial condition
            se = lambda v: v.std(ddof=1) / math.sqrt(len(v))
            gap = abs(lhs.mean() - rhs.mean())
            assert gap <= 1.96 * (se(lhs) + se(rhs))


class TestTruncationBudget:
    def test_atom_kernel_no_truncation(self, tilted2):
        assert _truncation_budget(tilted2, 1e-3) == 0.0

    def test_stable_kernel_budget_ratio(self, stable1):
        # dropped / kept = delta_floor^{2 - alpha} for a stable kernel
        got = _truncation_budget(stable1, 1e-3)
        assert got == pytest.approx(1e-3**0.5, rel=1e-12)

    def test_warning_emitted_when_budget_blown(self, stable1):
        eig = sm.principal_eigentriple(stable1)
        cfg = sm.SpineConfig(
            dt=0.005, horizon=0.5, paths=2, master_seed=1, record_stride=10,
            delta=1e-3, delta_floor=1e-2,
        )
        with pytest.warns(UserWarning, match="truncation"):
            sm.simulate_spine(stable1, eig, cfg)


class TestTailEnvelope:
    def test_size_biased_tail_monotone_and_enveloped(self, tilted2):
        # qualitative check of the tail bound shape: fit the constant on
        # half of the thresholds, verify the envelope on the other half
        eig = sm.principal_eigentriple(tilted2)
        cfg = sm.SpineConfig(
            dt=0.005, horizon=1.0, paths=6000, master_seed=23, record_stride=20,
            log_jumps=False, delta=1e-3, delta_floor=1e-3,
        )
        res = sm.simulate_spine(tilted2, eig, cfg)
        phi_x = res.ensemble.masses[:, -1, :] @ eig.phi
        a, b = 1.0, 0.5
        ns = np.arange(1, 7)
        tails = np.array([float(np.mean(phi_x > math.exp(a * n))) for n in ns])
        assert np.all(np.diff(tails) <= 1e-12)
        lam = eig.lam
        base = 3.0 * math.exp(lam * 1.0) * np.exp(-a * ns)
        shape = math.exp(lam * 1.0) * np.exp(-(a - b) * ns)
        fit_sel = ns % 2 == 1
        resid = tails[fit_sel] - base[fit_sel]
        k_fit = max(0.0, float(np.max(resid / shape[fit_sel])))
        check_sel = ~fit_sel
        assert np.all(tails[check_sel] <= base[check_sel] + 1.05 * k_fit * shape[check_sel] + 1e-3)


class TestSpineDeterminism:
    def test_chunk_size_invariance(self, tilted2, set_chunk_paths):
        eig = sm.principal_eigentriple(tilted2)
        cfg = sm.SpineConfig(
            dt=0.01, horizon=1.0, paths=300, master_seed=31, record_stride=10,
            delta=1e-2, delta_floor=1e-3,
        )
        a = sm.simulate_spine(tilted2, eig, cfg)
        set_chunk_paths(96)
        b = sm.simulate_spine(tilted2, eig, cfg)
        assert_same_ensemble(a.ensemble, b.ensemble)
        assert a.occupation.shape == (300, 2)
        assert np.array_equal(a.occupation, b.occupation)
        with pytest.raises(ValueError, match="runs its chunks in order"):
            sm.simulate_spine(tilted2, eig, cfg, threads=2)


class TestSpineConfig:
    def test_quanta_bounds(self):
        with pytest.raises(ValueError):
            sm.SpineConfig(dt=0.001, horizon=1.0, paths=1, master_seed=1, delta=0.02)
        with pytest.raises(ValueError):
            sm.SpineConfig(dt=0.001, horizon=1.0, paths=1, master_seed=1, delta_floor=0.0)
