import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

import supermart as sm
from supermart.errors import ModelValidationError, SpectralError
from supermart.spectral import generator_matrix


def dense_eig_oracle(model):
    """Independent dense oracle: numpy eigendecomposition, no polish."""
    a = generator_matrix(model)
    w, v = np.linalg.eig(a)
    i = int(np.argmax(w.real))
    lam = float(w[i].real)
    phi = np.real(v[:, i])
    phi = np.abs(phi)
    wl, vl = np.linalg.eig(a.T)
    j = int(np.argmax(wl.real))
    nu = np.abs(np.real(vl[:, j]))
    nu = nu / nu.sum()
    phi = phi / (nu @ phi)
    return lam, phi, nu


def expm_oracle(a, t):
    """exp(tA) = V diag(e^{tw}) V^{-1} via the dense eigendecomposition."""
    w, v = np.linalg.eig(a)
    return np.real(v @ np.diag(np.exp(t * w)) @ np.linalg.inv(v))


def irreducible_model(d, seed, symmetric=True):
    """Seeded irreducible model; a symmetric motion keeps the generator normal."""
    rng = np.random.Generator(np.random.PCG64(seed))
    s = rng.uniform(0.1, 1.2, size=(d, d))
    if symmetric:
        s = 0.5 * (s + s.T)
    q = s.copy()
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    beta = rng.uniform(0.1, 1.0, size=d)
    return sm.model_from_json(
        {
            "types": d,
            "Q": q.tolist(),
            "beta": beta.tolist(),
            "alpha": [0.0] * d,
            "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * d,
        }
    )


@st.composite
def random_irreducible(draw, symmetric=True):
    return irreducible_model(
        draw(st.integers(2, 5)), draw(st.integers(0, 2**31 - 1)), symmetric=symmetric
    )


@st.composite
def model_time_weights(draw):
    """A model, a time and nonnegative weights ``f`` without subnormal entries.

    The deviation of ``P_t f`` is homogeneous of degree 0 in ``f``; a
    subnormal ``f`` carries too few bits for it to measure anything but
    rounding.
    """
    model = draw(random_irreducible())
    t = draw(st.floats(0.2, 3.0))
    f = draw(
        st.lists(
            st.floats(0.0, 5.0, allow_subnormal=False), min_size=model.d, max_size=model.d
        )
    )
    return model, t, np.array(f)


def c_of_t_reference(model, eig, t):
    """The scalar ``c_of_t``, one ``expm`` per time, kept as a reference."""
    e_t = linalg.expm(t * generator_matrix(model))
    profile = np.exp(eig.lam * t) * np.outer(eig.phi, eig.nu)
    return float(np.max(np.abs(e_t / profile - 1.0)))


def assumption2_reference(model, eig, target, t_min=1e-3, points_per_decade=60):
    """``assumption2_report``'s grid, curve and ``t_star`` from a per-t loop."""
    gap = sm.spectral_gap(model)
    horizon = 40.0 / gap if np.isfinite(gap) and gap > 0 else 50.0
    n = max(2, int(np.ceil(np.log10(horizon / t_min) * points_per_decade)))
    grid = np.geomspace(t_min, horizon, n)
    c = np.array([c_of_t_reference(model, eig, t) for t in grid])
    for i in range(n):
        if c[i] <= target and np.all(np.diff(c[i:]) <= 1e-12 * np.maximum(c[i:-1], 1.0)):
            return grid, c, float(grid[i])
    return grid, c, None


class TestSemigroup:
    def test_symmetric_eigenvector(self, symmetric2):
        out = sm.semigroup_apply(symmetric2, 2.0, np.array([1.0, 1.0]))
        assert out == pytest.approx([math.e**2, math.e**2], rel=1e-12)

    def test_identity_at_zero(self, symmetric2):
        f = np.array([0.3, 1.7])
        assert sm.semigroup_apply(symmetric2, 0.0, f) == pytest.approx(list(f))

    def test_tilted_against_eigendecomposition_oracle(self, tilted2):
        oracle = expm_oracle(generator_matrix(tilted2), 1.0) @ np.array([1.0, 0.0])
        got = sm.semigroup_apply(tilted2, 1.0, np.array([1.0, 0.0]))
        assert got == pytest.approx(list(oracle), rel=1e-12)
        # exact: (cosh(s2) + sinh(s2)/s2, sinh(s2)/s2) with s2 = sqrt(2)
        assert got == pytest.approx([3.5464824286171615, 1.3682988720085907], rel=1e-12)

    def test_positivity(self, tilted2):
        out = sm.semigroup_apply(tilted2, 3.0, np.array([0.0, 1.0]))
        assert (out >= 0).all()


class TestPrincipalEigentriple:
    def test_symmetric_case(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        assert eig.lam == pytest.approx(1.0, abs=1e-12)
        assert eig.phi == pytest.approx([1.0, 1.0], rel=1e-12)
        assert eig.nu == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_tilted_case_closed_form(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        s2 = math.sqrt(2.0)
        assert eig.lam == pytest.approx(s2, rel=1e-12)
        assert eig.phi == pytest.approx([(1 + s2) / 2, 0.5], rel=1e-10)
        assert eig.nu == pytest.approx([1 / s2, 1 - 1 / s2], rel=1e-10)
        lam_o, phi_o, nu_o = dense_eig_oracle(tilted2)
        assert eig.phi == pytest.approx(list(phi_o), rel=1e-9)
        assert eig.nu == pytest.approx(list(nu_o), rel=1e-9)

    def test_normalizations(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        assert float(eig.nu.sum()) == pytest.approx(1.0, abs=1e-13)
        assert float(eig.nu @ eig.phi) == pytest.approx(1.0, abs=1e-13)

    def test_subcritical_rejected(self):
        m = sm.model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [-3.0, -3.0],
                "alpha": [0.0, 0.0],
                "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
            }
        )
        with pytest.raises(SpectralError, match="subcritical"):
            sm.principal_eigentriple(m)

    def test_reducible_rejected(self):
        # no reducible model reaches principal_eigentriple: construction refuses it
        with pytest.raises(ModelValidationError, match="reducible motion"):
            sm.model_from_json(
                {
                    "types": 2,
                    "Q": [[0.0, 0.0], [0.0, 0.0]],
                    "beta": [1.0, 1.0],
                    "alpha": [0.0, 0.0],
                    "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
                }
            )

    @given(model=st.one_of(random_irreducible(), random_irreducible(symmetric=False)))
    @settings(max_examples=60, deadline=None)
    def test_residuals_property(self, model):
        eig = sm.principal_eigentriple(model)
        r_phi, r_nu = eig.residuals(model)
        assert max(r_phi, r_nu) <= 1e-10
        # irreducible motion: both Perron vectors are strictly positive, which
        # keeps the uniform tail bound of the criteria finite
        assert (eig.phi > 0).all() and (eig.nu > 0).all()

    @given(model=random_irreducible(), s=st.floats(0.1, 3.0), t=st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_law(self, model, s, t):
        f = np.linspace(0.2, 1.0, model.d)
        lhs = sm.semigroup_apply(model, s + t, f)
        rhs = sm.semigroup_apply(model, s, sm.semigroup_apply(model, t, f))
        assert lhs == pytest.approx(list(rhs), rel=1e-9)

    @given(model=random_irreducible())
    @settings(max_examples=40, deadline=None)
    def test_eigen_relation_through_semigroup(self, model):
        eig = sm.principal_eigentriple(model)
        for t in (0.5, 1.0, 5.0):
            lhs = sm.semigroup_apply(model, t, eig.phi)
            assert lhs == pytest.approx(list(np.exp(eig.lam * t) * eig.phi), rel=1e-9)


class TestCOfT:
    def test_symmetric_spectral_gap_decay(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        assert sm.c_of_t(symmetric2, eig, 3.0) == pytest.approx(math.exp(-6.0), rel=1e-8)

    def test_phi_itself_has_zero_deviation(self, tilted2):
        # P_t phi / (e^{lam t} phi) = 1 exactly; the basis max bounds any f,
        # so evaluate the deviation for f = phi directly
        eig = sm.principal_eigentriple(tilted2)
        t = 1.7
        lhs = sm.semigroup_apply(tilted2, t, eig.phi)
        dev = np.abs(lhs / (np.exp(eig.lam * t) * eig.phi * float(eig.nu @ eig.phi)) - 1.0)
        assert float(dev.max()) < 1e-12

    def test_tilted_monotone(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        assert sm.c_of_t(tilted2, eig, 2.0) < sm.c_of_t(tilted2, eig, 1.0)

    @given(case=model_time_weights())
    @example(case=(irreducible_model(2, 0), 2.0, np.array([0.0, 1.0])))
    @settings(max_examples=40, deadline=None)
    def test_convex_combination_bound(self, case):
        # deviation of any nonnegative f is a nu(f)-weighted convex
        # combination of the basis deviations, hence bounded by their max;
        # the example is the scaled twin of a subnormal draw f = [0, 5e-324]
        model, t, f = case
        eig = sm.principal_eigentriple(model)
        if float(eig.nu @ f) <= 0:
            return
        lhs = sm.semigroup_apply(model, t, f)
        dev_f = np.max(
            np.abs(lhs / (np.exp(eig.lam * t) * eig.phi * float(eig.nu @ f)) - 1.0)
        )
        assert dev_f <= sm.c_of_t(model, eig, t) + 1e-9

    @given(model=random_irreducible())
    @settings(max_examples=30, deadline=None)
    def test_rescaling_invariance(self, model):
        from supermart.spectral import Eigentriple, c_of_t

        eig = sm.principal_eigentriple(model)
        scaled = Eigentriple(lam=eig.lam, phi=3.0 * eig.phi, nu=eig.nu / 3.0)
        # renormalize back before use, mirroring the constructor contract
        renorm = Eigentriple(
            lam=scaled.lam,
            phi=scaled.phi / float((scaled.nu / scaled.nu.sum()) @ scaled.phi),
            nu=scaled.nu / scaled.nu.sum(),
        )
        assert c_of_t(model, renorm, 1.3) == pytest.approx(
            c_of_t(model, eig, 1.3), rel=1e-9
        )

    @given(model=random_irreducible())
    @settings(max_examples=25, deadline=None)
    def test_vanishes_at_ten_gap_times(self, model):
        eig = sm.principal_eigentriple(model)
        gap = sm.spectral_gap(model)
        assert sm.c_of_t(model, eig, 10.0 / gap) < 1e-3


class TestCOfTArray:
    """The array form of ``c_of_t`` against the per-t scalar loop, bit for bit."""

    GRID = np.concatenate([np.geomspace(1e-3, 60.0, 97), [0.25, 1.0, 2.0, 7.5]])

    def _check(self, model):
        eig = sm.principal_eigentriple(model)
        got = sm.c_of_t(model, eig, self.GRID)
        want = np.array([c_of_t_reference(model, eig, t) for t in self.GRID])
        assert got.shape == self.GRID.shape
        assert np.array_equal(got, want)

    @given(model=random_irreducible())
    @settings(max_examples=30, deadline=None)
    def test_symmetric_models(self, model):
        self._check(model)

    @given(model=random_irreducible(symmetric=False))
    @settings(max_examples=30, deadline=None)
    def test_non_normal_models(self, model):
        self._check(model)

    @pytest.mark.parametrize("name", ["symmetric2", "tilted2", "stable1"])
    def test_fixture_models(self, name, request):
        # stable1 is 1 x 1, where expm takes its scalar branch
        self._check(request.getfixturevalue(name))

    def test_scalar_returns_float_and_shape_is_kept(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        for t in (1.3, np.float64(1.3), np.array(1.3)):
            got = sm.c_of_t(tilted2, eig, t)
            assert type(got) is float
            assert got == c_of_t_reference(tilted2, eig, 1.3)
        ts = np.array([[0.5, 1.0], [2.0, 4.0]])
        got = sm.c_of_t(tilted2, eig, ts)
        assert got.shape == (2, 2)
        assert got[1, 0] == c_of_t_reference(tilted2, eig, 2.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, [1.0, 0.0, 2.0], [1.0, -3.0], [float("nan")]])
    def test_nonpositive_time_anywhere_raises(self, tilted2, t):
        eig = sm.principal_eigentriple(tilted2)
        with pytest.raises(ValueError, match="t > 0"):
            sm.c_of_t(tilted2, eig, t if np.isscalar(t) else np.array(t))


class TestAssumption2Reference:
    """``assumption2_report`` against the per-t loop it replaced, exactly."""

    def _check(self, model, target):
        eig = sm.principal_eigentriple(model)
        grid, c, t_star = assumption2_reference(model, eig, target)
        assert t_star is not None
        rep = sm.assumption2_report(model, eig, target)
        assert np.array_equal(rep["curve"].grid, grid)
        assert np.array_equal(rep["curve"].c, c)
        assert rep["t_star"] == t_star

    @given(
        model=random_irreducible(),
        target=st.sampled_from([0.9999, 0.5, 0.1, 1e-3, 1e-6]),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_models(self, model, target):
        self._check(model, target)

    @pytest.mark.parametrize("name", ["symmetric2", "tilted2", "stable1"])
    @pytest.mark.parametrize("target", [0.9999, 0.5, 0.3, 0.01])
    def test_fixture_models(self, name, target, request):
        self._check(request.getfixturevalue(name), target)


class TestAssumption2Report:
    def test_symmetric_half_target(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        rep = sm.assumption2_report(symmetric2, eig, 0.5)
        t_star = rep["t_star"]
        grid = rep["curve"].grid
        spacing = t_star * (grid[1] / grid[0] - 1.0)
        assert abs(t_star - math.log(2.0) / 2.0) <= 2 * spacing

    def test_loose_target_first_grid_point(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        rep = sm.assumption2_report(symmetric2, eig, 0.9999)
        assert rep["t_star"] == pytest.approx(rep["curve"].grid[0])

    def test_curve_invariants(self, tilted2):
        eig = sm.principal_eigentriple(tilted2)
        rep = sm.assumption2_report(tilted2, eig, 0.3)
        c = rep["curve"].c
        assert (c >= 0).all()
        tail = c[len(c) // 2 :]
        assert np.all(np.diff(tail) <= 1e-12 + 1e-9 * tail[:-1])

    @pytest.mark.parametrize("target", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_target_outside_unit_interval_raises(self, symmetric2, target):
        eig = sm.principal_eigentriple(symmetric2)
        with pytest.raises(ValueError, match=r"target must lie in \(0, 1\)"):
            sm.assumption2_report(symmetric2, eig, target)
