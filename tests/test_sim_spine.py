import math

import numpy as np
import pytest
from conftest import assert_same_ensemble

import supermart as sm
from supermart.sim.spine import _SpineImmigration, _truncation_budget
from supermart.verify import suite_spine


class TestTiltedGenerator:
    def test_symmetric_phi_constant(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        tg = sm.tilted_generator(symmetric2, eig)
        assert np.allclose(tg.q, symmetric2.motion.q)

    def test_tilted_rates_closed_form(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        tg = sm.tilted_generator(tilted2, eig)
        s2 = math.sqrt(2.0)
        assert tg.q[0, 1] == pytest.approx(s2 - 1.0, rel=1e-10)
        assert tg.q[1, 0] == pytest.approx(s2 + 1.0, rel=1e-10)

    def test_conservative_rows(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        tg = sm.tilted_generator(tilted2, eig)
        assert np.allclose(tg.q.sum(axis=1), 0.0, atol=1e-12)

    def test_stationary_law_is_nu_phi(self, tilted2):
        # CTMC stationary-law oracle: solve pi Q~ = 0 directly
        eig = sm.principal_eigentriple(tilted2)
        tg = sm.tilted_generator(tilted2, eig)
        a = np.vstack([tg.q.T, np.ones(2)])
        b = np.array([0.0, 0.0, 1.0])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert pi == pytest.approx(list(eig.nu * eig.phi), abs=1e-12)


class TestSpineOccupation:
    def test_occupation_matches_nu_phi(self):
        rep = suite_spine(paths=3000, seed=2718)
        occ = rep["checks"][0]
        assert occ["passed"], occ


def reference_spine_path(imm, tilted, init_cdf, rng):
    """The embedded-chain sampler that rebuilt each jump's CDF at the jump."""
    h = imm.cfg.dt
    state = int(np.searchsorted(init_cdf, rng.random()))
    out = np.empty(imm.n_steps, dtype=np.int8)
    t = 0.0
    pos = 0
    while t < imm.cfg.horizon and pos < imm.n_steps:
        rate = -tilted[state, state]
        if rate <= 0:
            out[pos:] = state
            break
        stay = rng.exponential(1.0 / rate)
        until = min(imm.n_steps, int(math.ceil((t + stay) / h - 1e-12)))
        out[pos:until] = state
        pos = until
        t += stay
        w = tilted[state].copy()
        w[state] = 0.0
        state = int(np.searchsorted(np.cumsum(w / w.sum()), rng.random()))
    return out


class TestSpinePathSampler:
    def test_matches_per_jump_cdf_reference(self):
        m = sm.model_from_json(
            {
                "types": 3,
                "Q": [[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3], [2.0, 1.0, -3.0]],
                "beta": [1.5, 0.5, 1.0],
                "alpha": [0.5, 0.5, 0.5],
                "kernels": [{"kind": "atoms", "atoms": [[0.5, 0.8]]}] * 3,
            }
        )
        eig = sm.principal_eigentriple(m)
        cfg = sm.SpineConfig(dt=0.01, horizon=5.0, paths=1, master_seed=1)
        x0 = np.array([0.2, 0.5, 0.3])
        imm = _SpineImmigration(m, eig, cfg, x0)
        tilted = sm.tilted_generator(m, eig).q
        init_cdf = np.cumsum(eig.phi * x0 / (eig.phi * x0).sum())
        visited = set()
        for seed in range(300):
            got = imm._simulate_spine_path(np.random.default_rng(seed))
            ref = reference_spine_path(imm, tilted, init_cdf, np.random.default_rng(seed))
            assert np.array_equal(got, ref), seed
            visited.update(np.unique(got).tolist())
        assert visited == {0, 1, 2}


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
