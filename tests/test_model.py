import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import supermart as sm
from supermart.errors import ModelValidationError
from supermart.model import KERNELS, AtomList, StablePowerLaw


# ---------------------------------------------------------------------------
# independent quadrature oracle (adaptive Gauss-Kronrod with 1/u substitution
# for the infinite upper limit); the package itself uses closed forms.


def quad_stable(f, gamma, alpha, lo, hi):
    dens = lambda r: gamma * r ** (-1.0 - alpha)
    if hi == math.inf:
        mid = max(lo, 1.0)
        head = 0.0
        if lo < mid:
            head, _ = integrate.quad(
                lambda r: f(r) * dens(r), lo, mid, epsabs=1e-14, epsrel=1e-12, limit=400
            )
        tail, _ = integrate.quad(
            lambda u: f(1.0 / u) * dens(1.0 / u) / u**2,
            0.0,
            1.0 / mid,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=400,
        )
        return head + tail
    return integrate.quad(lambda r: f(r) * dens(r), lo, hi, epsabs=1e-14, epsrel=1e-12)[0]


def single_type(kernel_json, alpha_diff=0.0, beta=1.0):
    return sm.model_from_json(
        {
            "types": 1,
            "Q": [[0.0]],
            "beta": [beta],
            "alpha": [alpha_diff],
            "kernels": [kernel_json],
        }
    )


STABLE = {"kind": "stable", "gamma": 1.0, "alpha": 1.5}


def rmin_r2(k):
    """``integral (r wedge r^2) pi(dr)``; `Model` construction requires it finite."""
    return k.partial_moment(2.0, 0.0, 1.0) + k.partial_moment(1.0, 1.0, math.inf)


def two_types(**change):
    obj = {
        "types": 2,
        "Q": [[-1.0, 1.0], [1.0, -1.0]],
        "beta": [1.0, 1.0],
        "alpha": [0.0, 0.0],
        "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
    }
    return {**obj, **change}


class TestValidateModel:
    """`Model` construction raises one `ModelValidationError` naming every fault."""

    def test_stable_rmin_r2_matches_quadrature(self):
        # oracle: int (r ^ r^2) pi(dr) over (0,1] and [1,inf)
        oracle = quad_stable(lambda r: min(r, r * r), 1.0, 1.5, 0.0, math.inf)
        k = single_type(STABLE).kernels[0]
        assert rmin_r2(k) == pytest.approx(oracle, rel=1e-9)
        assert rmin_r2(k) == pytest.approx(4.0, rel=1e-12)

    def test_single_atom_value(self):
        k = single_type({"kind": "atoms", "atoms": [[2.0, 3.0]]}).kernels[0]
        assert rmin_r2(k) == pytest.approx(3.0 * min(2.0, 4.0))

    def refusal(self, **change) -> str:
        with pytest.raises(ModelValidationError) as exc:
            sm.model_from_json(two_types(**change))
        return str(exc.value)

    def test_nonconservative_motion_flagged(self):
        msg = self.refusal(Q=[[-1.0, 1.1], [1.0, -1.0]])
        assert msg == "non-conservative motion: row sums [0.10000000000000009, 0.0]"

    def test_reducible_flagged(self):
        msg = self.refusal(Q=[[0.0, 0.0], [0.0, 0.0]])
        assert msg == "reducible motion: Perron triple is not unique"

    def test_negative_off_diagonal_rate_flagged(self):
        # the negative rate also cuts the only edge from type 0 to type 1
        msg = self.refusal(Q=[[1.0, -1.0], [2.0, -2.0]])
        assert msg == "negative off-diagonal motion rate; reducible motion: Perron triple is not unique"

    def test_negative_alpha_diff_flagged(self):
        assert self.refusal(alpha=[0.0, -0.5]) == "alpha_diff must be >= 0"

    def test_two_faults_in_one_message(self):
        faults = self.refusal(Q=[[-1.0, 1.1], [1.0, -1.0]], alpha=[-0.5, 0.0]).split("; ")
        assert len(faults) == 2
        assert faults[0].startswith("non-conservative motion: row sums")
        assert faults[1] == "alpha_diff must be >= 0"

    def test_direct_construction_refuses(self):
        with pytest.raises(ModelValidationError, match="reducible motion"):
            sm.Model(q=np.zeros((2, 2)), beta=[1.0, 1.0], alpha_diff=[0.0, 0.0],
                     kernels=(StablePowerLaw(0.0, 1.5),) * 2)

    @pytest.mark.parametrize(
        "field,change",
        [
            ("Q", {"Q": [[math.nan]]}),
            ("beta", {"beta": [math.nan]}),
            ("alpha_diff", {"alpha": [math.nan]}),
            ("gamma", {"kernels": [{"kind": "stable", "gamma": math.nan, "alpha": 1.5}]}),
            ("gamma", {"kernels": [{"kind": "stable", "gamma": math.inf, "alpha": 1.5}]}),
            ("atoms", {"kernels": [{"kind": "atoms", "atoms": [[2.0, math.nan]]}]}),
        ],
    )
    def test_non_finite_numbers_named(self, field, change):
        obj = {"types": 1, "Q": [[0.0]], "beta": [1.0], "alpha": [0.2], "kernels": [STABLE]}
        with pytest.raises(ModelValidationError) as exc:
            sm.model_from_json({**obj, **change})
        faults = str(exc.value).split("; ")
        assert any(f.startswith(f"non-finite {field}: ") or f"non-finite kernel {field}: " in f
                   for f in faults), faults
        assert not any("diverges" in f for f in faults)

    def test_every_stable_alpha_accepted(self):
        for a in (1.05, 1.3, 1.5, 1.7, 1.95):
            single_type({"kind": "stable", "gamma": 2.0, "alpha": a})


TWO_TYPES = {
    "types": 2,
    "Q": [[-1.0, 1.0], [1.0, -1.0]],
    "beta": [1.0, 1.0],
    "alpha": [0.0, 0.0],
    "kernels": [STABLE] * 2,
}


class TestShapeRefusals:
    @pytest.mark.parametrize(
        "change,needle",
        [
            ({"Q": [[0.0]], "beta": [1.0], "alpha": [0.0], "kernels": [STABLE]}, "dimension mismatch"),
            ({"Q": [[-1.0, 1.0]]}, "must be square"),
            ({"beta": [1.0]}, "beta/alpha_diff length"),
            ({"alpha": [0.0]}, "beta/alpha_diff length"),
            ({"kernels": [STABLE] * 3}, "dimension mismatch"),
            ({"types": 0, "Q": [], "beta": [], "alpha": [], "kernels": []}, "must be square"),
        ],
    )
    def test_model_from_json_refuses(self, change, needle):
        with pytest.raises(ModelValidationError, match=needle):
            sm.model_from_json({**TWO_TYPES, **change})

    def test_no_types(self):
        with pytest.raises(ModelValidationError, match="d >= 1"):
            sm.Model(q=np.zeros((0, 0)), beta=[], alpha_diff=[], kernels=())

    def test_arrays_read_only(self):
        m = sm.model_from_json(TWO_TYPES)
        for arr in (m.q, m.beta, m.alpha_diff):
            assert arr.dtype == float and not arr.flags.writeable
        assert m.d == 2 and m.is_irreducible()
        assert sm.model_to_json(m) == TWO_TYPES


def kernel(kernel_json):
    return single_type(kernel_json).kernels[0]


class TestKernelTail:
    def test_stable_closed_form(self):
        k = kernel(STABLE)
        oracle = quad_stable(lambda r: 1.0, 1.0, 1.5, 2.0, math.inf)
        assert k.partial_moment(0.0, 2.0, math.inf) == pytest.approx(oracle, rel=1e-10)
        assert k.partial_moment(0.0, 2.0, math.inf) == pytest.approx(0.23570226039551584, rel=1e-12)

    def test_atoms(self):
        k = kernel({"kind": "atoms", "atoms": [[2.0, 3.0]]})
        assert k.partial_moment(0.0, 1.0, math.inf) == 3.0
        assert k.partial_moment(0.0, 3.0, math.inf) == 0.0

    def test_zero_kernel(self):
        k = kernel({"kind": "stable", "gamma": 0.0, "alpha": 1.5})
        assert k.partial_moment(0.0, 0.5, math.inf) == 0.0


class TestPartialMoment:
    def test_first_moment_tail(self):
        oracle = quad_stable(lambda r: r, 1.0, 1.5, 1.0, math.inf)
        got = kernel(STABLE).partial_moment(1.0, 1.0, math.inf)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_divergence_is_inf(self):
        k = kernel(STABLE)
        assert k.partial_moment(2.0, 1.0, math.inf) == math.inf
        assert k.partial_moment(1.0, 0.0, 1.0) == math.inf

    def test_atom_second_moment(self):
        k = kernel({"kind": "atoms", "atoms": [[2.0, 3.0]]})
        assert k.partial_moment(2.0, 0.0, math.inf) == pytest.approx(12.0)

    def test_log_case_k_equals_alpha(self):
        got = kernel(STABLE).partial_moment(1.5, 1.0, 4.0)
        oracle = quad_stable(lambda r: r**1.5, 1.0, 1.5, 1.0, 4.0)
        assert got == pytest.approx(oracle, rel=1e-10)


def image_tail(k, phi, t):
    """``pi^phi((t, inf))``, the tail of the kernel ``phi_image(phi)``."""
    return k.phi_image(phi).partial_moment(0.0, t, math.inf)


class TestPhiTail:
    """The tail of ``pi^phi`` at ``t`` is the tail of ``pi`` at ``t / phi``."""

    def test_matches_kernel_tail_change_of_variables(self):
        k = kernel(STABLE)
        assert image_tail(k, 1.0, 2.0) == pytest.approx(k.partial_moment(0.0, 2.0, math.inf), rel=1e-14)

    def test_stable_closed_form_gamma2(self):
        k = kernel({"kind": "stable", "gamma": 2.0, "alpha": 1.2})
        oracle = quad_stable(lambda r: 1.0, 2.0, 1.2, 1.0 / 0.5, math.inf)
        got = image_tail(k, 0.5, 1.0)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx((2.0 / 1.2) * 0.5**1.2, rel=1e-12)
        assert got == pytest.approx(0.7254588027467701, rel=1e-12)

    def test_atom_substitution(self):
        k = kernel({"kind": "atoms", "atoms": [[2.0, 3.0]]})
        assert image_tail(k, 0.5, 0.9) == 3.0
        assert image_tail(k, 0.5, 1.1) == 0.0

    @given(
        atoms=st.lists(
            st.tuples(
                st.floats(0.05, 50.0, allow_nan=False),
                st.floats(0.05, 5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        phi=st.floats(0.1, 10.0),
        t=st.floats(0.01, 100.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_change_of_variables_property(self, atoms, phi, t):
        k = kernel({"kind": "atoms", "atoms": [list(a) for a in atoms]})
        image = k.phi_image(phi)
        assert image.atoms == tuple((r * phi, w) for r, w in k.atoms)
        direct = sum(w for r, w in atoms if r * phi > t)
        assert image.partial_moment(0.0, t, math.inf) == direct

    def test_stable_closed_form_vs_quadrature_log_grid(self):
        # relative error < 1e-8 across t in [1e-3, 1e6]
        for gamma, alpha in ((0.5, 1.1), (1.0, 1.5), (2.0, 1.9)):
            k = kernel({"kind": "stable", "gamma": gamma, "alpha": alpha})
            for t in np.geomspace(1e-3, 1e6, 19):
                oracle = quad_stable(lambda r: 1.0, gamma, alpha, t / 0.7, math.inf)
                assert k.partial_moment(0.0, float(t) / 0.7, math.inf) == pytest.approx(oracle, rel=1e-8)


class TestPhiImage:
    """``phi_image(phi)`` is the kernel of ``pi^phi``, the image of ``pi`` under ``r -> phi r``."""

    @pytest.mark.parametrize("gamma,alpha", [(0.5, 1.1), (1.0, 1.5), (2.0, 1.9)])
    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.5])
    def test_stable_image_vs_quadrature(self, gamma, alpha, phi):
        # the image's integrals against quadrature of gamma phi^alpha r^(-1-alpha)
        image = kernel({"kind": "stable", "gamma": gamma, "alpha": alpha}).phi_image(phi)
        g_phi = gamma * phi**alpha
        cases = [
            (image.partial_moment(0.0, 2.0, math.inf), lambda r: 1.0, 2.0, math.inf),
            (image.partial_moment(1.0, 1.0, math.inf), lambda r: r, 1.0, math.inf),
            (image.partial_moment(1.05, 1.0, math.inf), lambda r: r**1.05, 1.0, math.inf),
            (image.partial_moment(2.0, 0.0, 1.0), lambda r: r * r, 0.0, 1.0),
        ]
        for got, f, lo, hi in cases:
            assert got == pytest.approx(quad_stable(f, g_phi, alpha, lo, hi), rel=1e-10)
        # log moments in the variable x = log r, where r pi^phi(dr) is
        # g_phi e^(-(alpha-1) x) dx
        for g in (0.0, 1.0):
            oracle, _ = integrate.quad(
                lambda x: g_phi * x ** (g + 1.0) * math.exp(-(alpha - 1.0) * x), 0.0, math.inf,
                epsabs=0.0, epsrel=1e-12, limit=400,
            )
            assert image.log_moment(g) == pytest.approx(oracle, rel=1e-10)

    def test_identity_and_zero_gamma(self):
        k = kernel(STABLE)
        assert k.phi_image(1.0) == k
        assert kernel({"kind": "stable", "gamma": 0.0, "alpha": 1.5}).phi_image(3.0).gamma == 0.0
        atoms = kernel({"kind": "atoms", "atoms": [[2.0, 3.0], [0.5, 1.0]]})
        assert atoms.phi_image(1.0) == atoms
        assert atoms.phi_image(4.0).atoms == ((8.0, 3.0), (2.0, 1.0))


class TestSampleLargeJump:
    def test_stable_inverse_cdf_frozen(self):
        (r,) = kernel(STABLE).tail_quantile(1.0, np.array([0.75]))
        # (1 - 0.75) ** (-1/1.5), cross-checked against the empirical CDF below
        assert r == pytest.approx(2.5198420997897464, rel=1e-12)
        (r,) = kernel(STABLE).size_biased_tail_quantile(1.0, np.array([0.75]))
        # (1 - 0.75) ** (-1/0.5)
        assert r == pytest.approx(16.0, rel=1e-12)

    def test_stable_tail_matches_dkw_band(self):
        rng = np.random.Generator(np.random.PCG64(7))
        n = 100_000
        eps = 1.0
        kern = kernel(STABLE)
        samples = kern.tail_quantile(eps, rng.random(n))
        # DKW band at confidence 0.999
        band = math.sqrt(math.log(2.0 / 0.001) / (2 * n))
        denom = kern.partial_moment(0.0, eps, math.inf)
        for t in np.geomspace(1.0, 50.0, 20):
            target = kern.partial_moment(0.0, float(t), math.inf) / denom
            emp = float(np.mean(samples > t))
            assert abs(emp - target) <= band

    def test_atom_frequencies_within_3_sigma(self):
        m = single_type({"kind": "atoms", "atoms": [[2.0, 3.0], [5.0, 1.0]]})
        rng = np.random.Generator(np.random.PCG64(11))
        n = 40_000
        draws = m.kernels[0].tail_quantile(1.0, rng.random(n))
        frac2 = float(np.mean(draws == 2.0))
        sigma = math.sqrt(0.75 * 0.25 / n)
        assert abs(frac2 - 0.75) <= 3 * sigma
        assert set(np.unique(draws)) == {2.0, 5.0}

    def test_atom_draws_match_sequential_reference(self):
        kern = AtomList(atoms=((0.5, 0.8), (2.0, 0.3), (3.0, 0.1), (7.0, 0.05)))

        def reference(eps, u, size_biased):
            # first atom whose running weight reaches u * total
            live = [(r, w * r if size_biased else w) for r, w in kern.atoms if r > eps]
            u = u * sum(w for _, w in live)
            acc = 0.0
            for r, w in live:
                acc += w
                if u <= acc:
                    return r
            return live[-1][0]

        for eps in (0.25, 1.0, 2.5):
            u = np.random.Generator(np.random.PCG64(3)).random(400)
            assert kern.tail_quantile(eps, u).tolist() == [reference(eps, v, False) for v in u]
            got = kern.size_biased_tail_quantile(eps, u).tolist()
            assert got == [reference(eps, v, True) for v in u]

    def test_empty_tail_raises(self):
        k = kernel({"kind": "atoms", "atoms": [[2.0, 3.0]]})
        with pytest.raises(ModelValidationError, match="empty tail"):
            k.tail_quantile(3.0, np.array([0.5]))
        with pytest.raises(ModelValidationError, match="empty tail"):
            k.size_biased_tail_quantile(3.0, np.array([0.5]))

    def test_empty_stable_tail_raises(self):
        k = kernel({"kind": "stable", "gamma": 0.0, "alpha": 1.5})
        with pytest.raises(ModelValidationError, match="empty tail"):
            k.tail_quantile(1.0, np.array([0.5]))
        with pytest.raises(ModelValidationError, match="empty tail"):
            k.size_biased_tail_quantile(1.0, np.array([0.5]))


# one instance per registered kind; a new kind needs an entry here
KERNEL_EXAMPLES = {
    "stable": {"kind": "stable", "gamma": 0.30000000000000004, "alpha": 1.2345678901234567},
    "atoms": {"kind": "atoms", "atoms": [[0.1, 0.30000000000000004], [7.000000000000001, 2.0]]},
}
KERNEL_PROTOCOL = (
    "partial_moment", "log_moment", "phi_image", "tail_quantile", "size_biased_tail_quantile",
    "split_level", "smallest_jump", "to_json", "from_json",
)


class TestKernelProtocol:
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_registry_entry(self, kind):
        cls = KERNELS[kind]
        obj = KERNEL_EXAMPLES[kind]
        assert all(callable(getattr(cls, name, None)) for name in KERNEL_PROTOCOL)
        kern = cls.from_json(obj)
        assert isinstance(kern, cls)
        assert json.dumps(kern.to_json()) == json.dumps(obj)
        model = single_type(obj)
        assert json.dumps(sm.model_to_json(model)["kernels"][0]) == json.dumps(obj)
        with pytest.raises(ModelValidationError, match="unknown kernel kind"):
            single_type({**obj, "kind": kind + "_unknown"})

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_domain_checks(self, kind):
        kern = KERNELS[kind].from_json(KERNEL_EXAMPLES[kind])
        for lo, hi in ((-1.0, 1.0), (2.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError, match="0 <= lo < hi"):
                kern.partial_moment(1.0, lo, hi)


class TestJsonRoundTrip:
    def test_model_keys_bit_exact(self, stable1):
        obj = sm.model_to_json(stable1)
        assert set(obj) == {"types", "Q", "beta", "alpha", "kernels"}
        assert obj["kernels"][0] == {"kind": "stable", "gamma": 1.0, "alpha": 1.5}
        again = sm.model_from_json(obj)
        assert sm.model_to_json(again) == obj

    def test_gw_round_trip(self):
        for obj in ({"kind": "gw", "pmf": [0.25, 0.0, 0.75]}, {"kind": "gw_powerlaw", "alpha": 1.3}):
            gw = sm.gw_from_json(obj)
            assert sm.gw_to_json(gw) == obj

    def test_gw_invariants(self):
        with pytest.raises(ModelValidationError):
            sm.GWModel(pmf=(0.5, 0.5))  # mean 0.5, subcritical
        with pytest.raises(ModelValidationError):
            sm.GWModel(pmf=(0.2, 0.2))  # does not sum to 1


class TestKernelSpecs:
    def test_stable_alpha_bounds(self):
        with pytest.raises(ModelValidationError):
            StablePowerLaw(gamma=1.0, alpha=1.0)
        with pytest.raises(ModelValidationError):
            StablePowerLaw(gamma=1.0, alpha=2.0)
        with pytest.raises(ModelValidationError):
            StablePowerLaw(gamma=-0.1, alpha=1.5)

    def test_atoms_positive(self):
        with pytest.raises(ModelValidationError):
            AtomList(atoms=((0.0, 1.0),))
        with pytest.raises(ModelValidationError):
            AtomList(atoms=((1.0, -1.0),))
