"""Per-path RNG streams: chunk-computed seeds against numpy's own SeedSequence."""

import warnings

import numpy as np
import pytest
from conftest import STABLE_ATOMS, assert_same_ensemble

import supermart as sm
import supermart.sim.csbp as csbp_mod
import supermart.sim.gw as gw_mod
from supermart.sim.records import VariatePool, path_streams

# the stream contract: role r of path p under master m is
# SeedSequence(entropy=[m, p], spawn_key=(r,)), roles in this order
ROLES = ("gauss", "counts", "sizes")
MASTERS = (0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100)
PATH_IDS = (0, 1, 4095, 4096, 2**31)


def reference_seed_sequence(master, pid, role):
    return np.random.SeedSequence(entropy=[master, pid], spawn_key=(ROLES.index(role),))


def reference_generator(master, pid, role):
    return np.random.Generator(np.random.PCG64(reference_seed_sequence(master, pid, role)))


class TestChunkSeedWords:
    @pytest.mark.parametrize("master", MASTERS)
    def test_words_and_first_draws_match_seed_sequence(self, master):
        streams = path_streams(master, PATH_IDS)
        for j, pid in enumerate(PATH_IDS):
            for r, role in enumerate(ROLES):
                expected = reference_seed_sequence(master, pid, role).generate_state(4, np.uint64)
                assert np.array_equal(streams._words[j, r], expected), (master, pid, role)
                ref = reference_generator(master, pid, role).random(8)
                assert np.array_equal(streams.fresh(j, role).random(8), ref)
                ref = reference_generator(master, pid, role).standard_normal(3)
                assert np.array_equal(streams[j, role].standard_normal(3), ref)

    def test_kept_and_fresh_generators(self):
        streams = path_streams(5, range(3))
        kept = streams[1, "sizes"]
        assert streams[1, "sizes"] is kept
        first = kept.random()
        # a kept generator carries on; a fresh one starts the stream again
        assert streams[1, "sizes"].random() == reference_generator(5, 1, "sizes").random(2)[1]
        assert streams.fresh(1, "sizes").random() == first

    def test_out_of_range_ids_refused(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(entropy=[-1, 0])
        for master in (-1, -(2**32), -(2**32) + 1):
            with pytest.raises(ValueError):
                path_streams(master, [0, 1])
        for pid in (-1, 2**32):
            with pytest.raises(ValueError):
                path_streams(3, [0, pid])


class TestVariatePool:
    @pytest.mark.parametrize("paths", [1, 37, 4096])
    @pytest.mark.parametrize("method", ["random"])  # the one draw the pool serves
    def test_each_path_gets_one_call_of_its_stream(self, paths, method):
        rng = np.random.default_rng(paths)
        for batch in (1, 7, 512):
            pool = VariatePool(path_streams(11, range(100, 100 + paths)), batch)
            got = [[] for _ in range(paths)]
            for _ in range(12):
                # steps that draw nothing, a few, and more than a batch
                scale = rng.choice([0.0, 0.5, 3.0, 40.0, 700.0])
                need = rng.poisson(scale, paths) * (rng.random(paths) < 0.6)
                vals = pool.take(need)
                assert vals.shape == (need.sum(),)
                for j, part in enumerate(np.split(vals, np.cumsum(need)[:-1])):
                    got[j].append(part)
            ref = path_streams(11, range(100, 100 + paths))
            for j in range(paths):
                mine = np.concatenate(got[j])
                assert np.array_equal(mine, getattr(ref[j, "sizes"], method)(len(mine))), (batch, j)


class _Recorder:
    """Forwards to a generator and notes which draw methods were called."""

    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls

    def __getattr__(self, name):
        self._calls.add(name)
        return getattr(self._gen, name)


class ReferenceStreams:
    """The per-path, per-role SeedSequence construction the chunk seeding replaced."""

    def __init__(self, master_seed, path_ids, calls):
        self._master = int(master_seed)
        self._pids = list(path_ids)
        self._gens = {}
        self._calls = calls

    def __getitem__(self, key):
        gen = self._gens.get(key)
        if gen is None:
            gen = self._gens[key] = self.fresh(*key)
        return gen

    def fresh(self, j, role):
        gen = reference_generator(self._master, self._pids[j], role)
        return _Recorder(gen, self._calls.setdefault(role, set()))


@pytest.fixture
def reference_streams(monkeypatch):
    """Swap in `ReferenceStreams`; returns the draw methods called per role."""
    calls = {}

    def factory(master_seed, path_ids):
        return ReferenceStreams(master_seed, path_ids, calls)

    def install():
        monkeypatch.setattr(csbp_mod, "path_streams", factory)
        monkeypatch.setattr(gw_mod, "path_streams", factory)
        return calls

    return install


@pytest.mark.usefixtures("small_chunks")
class TestEngineMatchesSeedSequenceStreams:
    def test_csbp_stable_atoms_with_jump_log(self, reference_streams, monkeypatch):
        model = sm.model_from_json(STABLE_ATOMS)
        eig = sm.principal_eigentriple(model)
        # dt 0.02 with the small split: some mass falls into the
        # near-absorption branch
        cfg = sm.SimConfig(dt=0.02, horizon=2.0, paths=400, master_seed=2**33 + 7, epsilon=0.3)
        new = sm.simulate_csbp(model, eig, cfg)
        calls = reference_streams()
        near = csbp_mod._near_absorption
        seen = []

        def record(det, var, u):
            seen.append(u)
            return near(det, var, u)

        monkeypatch.setattr(csbp_mod, "_near_absorption", record)
        ref = sm.simulate_csbp(model, eig, cfg)
        assert "reject" not in calls
        # near-absorbing cells and jumps draw uniforms from sizes, nothing else
        assert calls["sizes"] == {"random"}
        assert sum(len(u) for u in seen) > 0
        assert len(ref.jumps) > 0
        assert_same_ensemble(new, ref)

    def test_spine(self, reference_streams, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        cfg = sm.SpineConfig(dt=0.01, horizon=1.0, paths=300, master_seed=13, epsilon=1.0)
        new = sm.simulate_spine(tilted2, eig, cfg)
        calls = reference_streams()
        ref = sm.simulate_spine(tilted2, eig, cfg)
        # the spine moves on its counts planes: no stream of its own
        assert "spine" not in calls
        assert_same_ensemble(new.ensemble, ref.ensemble)
        assert np.array_equal(new.occupation, ref.occupation)

    def test_spine_stable_atoms(self, reference_streams):
        model = sm.model_from_json(STABLE_ATOMS)
        eig = sm.principal_eigentriple(model)
        cfg = sm.SpineConfig(
            dt=0.02, horizon=2.0, paths=200, master_seed=5, epsilon=0.3, delta=1e-2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # truncation budget of the stable kernel
            new = sm.simulate_spine(model, eig, cfg)
            reference_streams()
            ref = sm.simulate_spine(model, eig, cfg)
        assert_same_ensemble(new.ensemble, ref.ensemble)
        assert np.array_equal(new.occupation, ref.occupation)

    @pytest.mark.parametrize(
        "law, generations",
        [({"kind": "gw", "pmf": [0.25, 0.0, 0.75]}, 12), ({"kind": "gw_powerlaw", "alpha": 1.3}, 8)],
    )
    def test_gw(self, reference_streams, law, generations):
        gw = sm.gw_from_json(law)
        new = sm.simulate_gw(gw, generations, 300, 2**32 + 1)
        calls = reference_streams()
        ref = sm.simulate_gw(gw, generations, 300, 2**32 + 1)
        assert calls["counts"]
        assert_same_ensemble(new, ref)
