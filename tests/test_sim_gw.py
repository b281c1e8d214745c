import math

import numpy as np
import pytest
from conftest import assert_same_ensemble
from scipy.stats import ks_2samp

import supermart as sm
from supermart.sim.gw import _powerlaw_generation


class TestBoundedOffspring:
    def test_deterministic_doubling(self):
        ens = sm.simulate_gw(sm.GWModel(pmf=(0.0, 0.0, 1.0)), 12, 30, seed=1)
        assert np.all(ens.M == 1.0)
        assert not ens.flagged.any()

    def test_martingale_mean_within_4_sigma(self):
        gw = sm.GWModel(pmf=(0.25, 0.0, 0.75))
        ens = sm.simulate_gw(gw, 20, 20_000, seed=2)
        for n in (5, 10, 20):
            w = ens.M[:, n]
            z = (w.mean() - 1.0) / (w.std(ddof=1) / math.sqrt(len(w)))
            assert abs(z) <= 4.0

    def test_extinction_probability_fixed_point(self):
        # smallest root of (1/4) + (3/4) s^2 = s is s = 1/3
        gw = sm.GWModel(pmf=(0.25, 0.0, 0.75))
        ens = sm.simulate_gw(gw, 40, 20_000, seed=3)
        ext = float(np.mean(ens.M[:, -1] == 0.0))
        sigma = math.sqrt((1 / 3) * (2 / 3) / ens.n_paths)
        assert abs(ext - 1.0 / 3.0) <= 3 * sigma

    def test_absorbing_at_zero(self):
        gw = sm.GWModel(pmf=(0.6, 0.0, 0.0, 0.4))  # mean 1.2
        ens = sm.simulate_gw(gw, 30, 500, seed=4)
        for row in ens.M:
            dead = np.nonzero(row == 0.0)[0]
            if dead.size:
                assert np.all(row[dead[0] :] == 0.0)

    def test_overflow_flagging(self):
        # mean 8 offspring: Z_21 = 8^21 = 2^63 overflows the cap
        gw = sm.GWModel(pmf=(0.0,) * 8 + (1.0,))
        ens = sm.simulate_gw(gw, 25, 8, seed=5)
        assert ens.flagged.all()
        assert np.all(ens.M <= 1.0 + 1e-12)


class TestPowerLawOffspring:
    def test_mean_matches_zeta_ratio(self):
        gw = sm.GWModel(alpha=1.3)
        from scipy.special import zeta

        assert gw.mean() == pytest.approx(float(zeta(1.3) / zeta(2.3)), rel=1e-12)

    def test_aggregated_sum_matches_direct_zipf(self):
        # the binned multinomial sampler must agree in law with direct
        # zipf sums; compare two independent batches at a super-threshold N
        alpha = 1.3
        n_parents = 20_000
        reps = 300
        rng1 = np.random.Generator(np.random.PCG64(10))
        rng2 = np.random.Generator(np.random.PCG64(11))
        hybrid = np.array(
            [_powerlaw_generation(n_parents, alpha, rng1) for _ in range(reps)],
            dtype=float,
        )
        direct = np.array(
            [rng2.zipf(1.0 + alpha, size=n_parents).sum() for _ in range(reps)],
            dtype=float,
        )
        stat = ks_2samp(hybrid, direct)
        assert stat.pvalue > 1e-3

    def test_small_population_direct_path(self):
        rng = np.random.Generator(np.random.PCG64(12))
        total = _powerlaw_generation(100, 1.3, rng)
        assert total >= 100  # offspring counts are >= 1

    def test_block_sum_matches_unbatched_reference(self, monkeypatch):
        import supermart.sim.gw as gwmod

        def reference(lo, hi, n, s, rng):
            # every accepted draw kept, then summed as Python ints
            out = []
            while len(out) < n:
                m = max(16, 2 * (n - len(out)))
                k = rng.integers(lo, hi + 1, size=m)
                accept = rng.random(m) < (k / lo) ** (-s)
                out.extend(int(v) for v in k[accept][: n - len(out)])
            return sum(out)

        # the second block overflows int64 when summed
        for lo, hi, n in ((4097, 8192, 3000), (2**60 + 1, 2**61, 40)):
            got = gwmod._block_sum(lo, hi, n, 2.3, np.random.Generator(np.random.PCG64(1)))
            want = reference(lo, hi, n, 2.3, np.random.Generator(np.random.PCG64(1)))
            assert got == want
        # a block larger than a batch still sums exactly n draws
        monkeypatch.setattr(gwmod, "_BATCH", 64)
        rng = np.random.Generator(np.random.PCG64(2))
        assert gwmod._block_sum(5, 5, 1000, 2.3, rng) == 5000
        total = gwmod._block_sum(4097, 8192, 1000, 2.3, rng)
        assert 1000 * 4097 <= total <= 1000 * 8192

    def test_trajectories_run(self):
        gw = sm.GWModel(alpha=1.3)
        ens = sm.simulate_gw(gw, 12, 200, seed=6)
        assert ens.M.shape == (200, 13)
        w6 = ens.M[:, 6]
        z = (w6.mean() - 1.0) / (w6.std(ddof=1) / math.sqrt(len(w6)))
        # heavy-tailed self-normalized statistic: loose sanity band
        assert abs(z) <= 6.0


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        gw = sm.GWModel(pmf=(0.25, 0.0, 0.75))
        a = sm.simulate_gw(gw, 15, 300, seed=42)
        b = sm.simulate_gw(gw, 15, 300, seed=42)
        assert np.array_equal(a.M, b.M)

    def test_different_seeds_differ(self):
        gw = sm.GWModel(pmf=(0.25, 0.0, 0.75))
        a = sm.simulate_gw(gw, 15, 300, seed=42)
        b = sm.simulate_gw(gw, 15, 300, seed=43)
        assert not np.array_equal(a.M, b.M)

    @pytest.mark.parametrize(
        "law", [{"kind": "gw", "pmf": [0.25, 0.0, 0.75]}, {"kind": "gw_powerlaw", "alpha": 1.3}]
    )
    def test_chunk_size_invariance(self, set_chunk_paths, law):
        gw = sm.gw_from_json(law)
        a = sm.simulate_gw(gw, 8, 300, 17)
        set_chunk_paths(96)
        assert_same_ensemble(a, sm.simulate_gw(gw, 8, 300, 17))
