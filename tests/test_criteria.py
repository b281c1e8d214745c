import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supermart as sm
from supermart.criteria import evaluate_criteria, gw_predictions
from supermart.model import StablePowerLaw

from test_model import quad_stable, single_type


def reference_log_grid(t0):
    n = max(2, int(math.ceil(math.log10(1e6 / t0) * 60)))
    return np.geomspace(t0 * (1.0 + 1e-9), 1e6, n)


# The closed forms the two kernels carried before every pi^phi integral became
# an integral of the kernel phi_image(phi): the criteria must equal them bit for
# bit.  ``phi`` is the eigenfunction value of the kernel's type.


def old_tail(k, t):
    if isinstance(k, StablePowerLaw):
        return 0.0 if k.gamma == 0.0 else k.gamma * t ** (-k.alpha) / k.alpha
    return sum(w for r, w in k.atoms if r > t)


def _old_above(k, phi, t):
    return [(r * phi, w) for r, w in k.atoms if r * phi > t]


def old_llogl(k, phi):
    if isinstance(k, StablePowerLaw):
        return k.gamma * phi**k.alpha / (k.alpha - 1.0) ** 2
    return sum(w * y * math.log(y) for y, w in _old_above(k, phi, 1.0))


def old_p_moment(k, phi, p):
    if isinstance(k, StablePowerLaw):
        if k.gamma == 0.0:
            return 0.0
        if p >= k.alpha:
            return math.inf
        return k.gamma * phi**k.alpha / (k.alpha - p)
    return sum(w * y**p for y, w in _old_above(k, phi, 1.0))


def old_log_moment(k, phi, g):
    if isinstance(k, StablePowerLaw):
        a = k.alpha
        return k.gamma * phi**a * math.gamma(g + 2.0) / (a - 1.0) ** (g + 2.0)
    return sum(w * y * math.log(y) ** (g + 1.0) for y, w in _old_above(k, phi, 1.0))


def old_first_moment_tail(k, phi, t):
    if isinstance(k, StablePowerLaw):
        a = k.alpha
        return k.gamma * phi**a * t ** (1.0 - a) / (a - 1.0)
    return sum(w * y for y, w in _old_above(k, phi, t))


def old_nu_average(model, eig, per_type):
    total = 0.0
    for i in range(model.d):
        v = per_type(model.kernels[i], float(eig.phi[i]))
        if math.isinf(v):
            return math.inf
        total += float(eig.nu[i]) * v
    return total


def assert_moments_match_old(model, eig):
    """``llogl``, ``p_moment`` and ``log_moment`` equal the old closed forms exactly."""
    assert sm.llogl(model, eig) == old_nu_average(model, eig, old_llogl)
    for p in (1.05, 1.2, 1.5, 1.8, 2.0):
        want = old_nu_average(model, eig, lambda k, f: old_p_moment(k, f, p))
        assert sm.p_moment(model, eig, p) == want, p
    for g in (0.5, 1.0, 2.0):
        want = old_nu_average(model, eig, lambda k, f: old_log_moment(k, f, g))
        assert sm.log_moment(model, eig, g) == want, g


def uniform_tail_ratio(model, eig, t_lo=10.0):
    """The paper's uniform tail bound on the criteria's log grid:
    ``sup_t max_x [tail^phi_x(t) / phi_x] / [sum_y nu_y tail^phi_y(t)]``."""
    best = 0.0
    for t in reference_log_grid(t_lo):
        tails = np.array([old_tail(k, t / float(phi)) for k, phi in zip(model.kernels, eig.phi)])
        den = float(eig.nu @ tails)
        if den > 0.0:
            best = max(best, float(np.max(tails / eig.phi)) / den)
    return best


def reference_b(model, eig, f_set, t1=10.0):
    """``lower_bound_b`` as the per-t loop it replaced."""
    f_idx = sorted(set(int(i) for i in f_set))
    best = math.inf
    for t in reference_log_grid(t1):
        tails = np.array(
            [old_first_moment_tail(model.kernels[i], float(eig.phi[i]), t) for i in range(model.d)]
        )
        den = float(eig.nu @ tails)
        num = min(tails[i] / float(eig.phi[i]) for i in f_idx)
        if den <= 0.0:
            continue
        best = min(best, float(num / den))
    if math.isinf(best):
        return 0.0
    return best


def ring_model(kernels, beta=None, seed=0):
    """Irreducible model with an asymmetric motion and the given kernels."""
    d = len(kernels)
    rng = np.random.Generator(np.random.PCG64(seed))
    q = rng.uniform(0.2, 2.0, size=(d, d)) if d > 1 else np.zeros((1, 1))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    beta = rng.uniform(0.2, 1.5, size=d) if beta is None else np.asarray(beta)
    return sm.model_from_json(
        {
            "types": d,
            "Q": q.tolist(),
            "beta": beta.tolist(),
            "alpha": [0.0] * d,
            "kernels": kernels,
        }
    )


@st.composite
def kernel_json(draw):
    if draw(st.booleans()):
        gamma = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
        return {"kind": "stable", "gamma": gamma, "alpha": draw(st.floats(1.05, 1.95))}
    atoms = draw(
        st.lists(st.tuples(st.floats(0.1, 2000.0), st.floats(0.1, 2.0)), min_size=1, max_size=3)
    )
    return {"kind": "atoms", "atoms": [list(a) for a in atoms]}


@st.composite
def tail_case(draw):
    """A mixed-kernel model, its eigentriple, a grid start and a seed set ``F``."""
    kernels = draw(st.lists(kernel_json(), min_size=1, max_size=4))
    model = ring_model(kernels, seed=draw(st.integers(0, 2**31 - 1)))
    eig = sm.principal_eigentriple(model)
    t_lo = draw(st.sampled_from([0.5, 3.0, 10.0, 250.0]))
    f_set = draw(st.lists(st.integers(0, model.d - 1), min_size=1, max_size=model.d))
    return model, eig, t_lo, f_set


ATOMS3 = [
    {"kind": "atoms", "atoms": [[2.0, 1.0], [40.0, 0.3]]},
    {"kind": "atoms", "atoms": [[1500.0, 0.2]]},
    {"kind": "atoms", "atoms": [[0.5, 2.0], [120.0, 0.5], [9000.0, 0.01]]},
]
STABLE3 = [
    {"kind": "stable", "gamma": 1.0, "alpha": 1.5},
    {"kind": "stable", "gamma": 0.3, "alpha": 1.1},
    {"kind": "stable", "gamma": 2.0, "alpha": 1.9},
]
MIXED3 = [
    {"kind": "stable", "gamma": 0.7, "alpha": 1.3},
    {"kind": "atoms", "atoms": [[30.0, 0.5], [400.0, 0.1]]},
    {"kind": "stable", "gamma": 0.0, "alpha": 1.5},
]


def eig1(phi=1.0):
    return sm.Eigentriple(lam=1.0, phi=np.array([phi]), nu=np.array([1.0 / phi]))


STABLE = {"kind": "stable", "gamma": 1.0, "alpha": 1.5}


class TestLlogL:
    def test_stable_closed_form_vs_quadrature(self):
        m = single_type(STABLE)
        oracle = quad_stable(lambda r: r * math.log(r), 1.0, 1.5, 1.0, math.inf)
        got = sm.llogl(m, eig1())
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(4.0, rel=1e-12)  # gamma phi^a / (a-1)^2

    def test_single_atom_at_e_squared(self):
        m = single_type({"kind": "atoms", "atoms": [[math.e**2, 1.0]]})
        assert sm.llogl(m, eig1()) == pytest.approx(2.0 * math.e**2, rel=1e-12)

    def test_zero_kernel(self):
        m = single_type({"kind": "stable", "gamma": 0.0, "alpha": 1.5})
        assert sm.llogl(m, eig1()) == 0.0

    def test_phi_scaling(self):
        # closed form gamma phi^alpha / (alpha-1)^2 for any phi
        m = single_type(STABLE)
        phi = 0.6
        oracle = quad_stable(
            lambda r: r * 0.6 * math.log(r * 0.6) if r * 0.6 > 1 else 0.0,
            1.0,
            1.5,
            1.0 / 0.6,
            math.inf,
        )
        got = sm.llogl(m, eig1(phi))
        # nu = 1/phi is not a probability here; build the integral directly
        per_type = got / (1.0 / phi)
        assert per_type == pytest.approx(oracle, rel=1e-9)


class TestPMoment:
    def test_stable_values(self):
        m = single_type(STABLE)
        got = sm.p_moment(m, eig1(), 1.2)
        oracle = quad_stable(lambda r: r**1.2, 1.0, 1.5, 1.0, math.inf)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(1.0 / 0.3, rel=1e-12)
        assert sm.p_moment(m, eig1(), 1.6) == math.inf
        assert sm.p_moment(m, eig1(), 1.5) == math.inf

    def test_atom_p2(self):
        m = single_type({"kind": "atoms", "atoms": [[2.0, 3.0]]})
        assert sm.p_moment(m, eig1(), 2.0) == pytest.approx(12.0)

    @given(
        gamma=st.floats(0.1, 3.0),
        alpha=st.floats(1.05, 1.95),
        p1=st.floats(1.01, 1.99),
        p2=st.floats(1.01, 1.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_and_downward_closed(self, gamma, alpha, p1, p2):
        m = single_type({"kind": "stable", "gamma": gamma, "alpha": alpha})
        lo, hi = sorted((p1, p2))
        v_lo = sm.p_moment(m, eig1(), lo)
        v_hi = sm.p_moment(m, eig1(), hi)
        assert v_lo <= v_hi or math.isinf(v_lo)
        if math.isfinite(v_hi):
            assert math.isfinite(v_lo)


class TestLogMoment:
    def test_stable_gamma1(self):
        m = single_type(STABLE)
        oracle = quad_stable(lambda r: r * math.log(r) ** 2, 1.0, 1.5, 1.0, math.inf)
        got = sm.log_moment(m, eig1(), 1.0)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(16.0, rel=1e-12)  # Gamma(3) / 0.5^3

    def test_atom_at_e(self):
        m = single_type({"kind": "atoms", "atoms": [[math.e, 1.0]]})
        assert sm.log_moment(m, eig1(), 2.0) == pytest.approx(math.e, rel=1e-12)

    def test_zero_kernel(self):
        m = single_type({"kind": "stable", "gamma": 0.0, "alpha": 1.5})
        assert sm.log_moment(m, eig1(), 3.0) == 0.0

    def test_llogl_finite_iff_small_gamma_log_moment_finite(self):
        # on stable kernels both are finite together; gamma -> 0+ surrogate
        for gamma, alpha in ((0.5, 1.1), (1.0, 1.5), (2.0, 1.9)):
            m = single_type({"kind": "stable", "gamma": gamma, "alpha": alpha})
            assert math.isfinite(sm.llogl(m, eig1()))
            assert math.isfinite(sm.log_moment(m, eig1(), 1e-6))

    def test_closed_forms_sweep(self):
        # oracle after v = log r: gamma_k * int_0^inf e^{(1-alpha) v} v^{g+1} dv
        from scipy import integrate

        for alpha in (1.1, 1.5, 1.9):
            for gamma_k in (0.5, 1.0, 2.0):
                m = single_type({"kind": "stable", "gamma": gamma_k, "alpha": alpha})
                for g in (0.5, 1.0, 2.0):
                    oracle, _ = integrate.quad(
                        lambda v: gamma_k * math.exp((1.0 - alpha) * v) * v ** (g + 1.0),
                        0.0,
                        math.inf,
                        epsabs=1e-13,
                        epsrel=1e-11,
                        limit=400,
                    )
                    assert sm.log_moment(m, eig1(), g) == pytest.approx(oracle, rel=1e-8)


class TestUniformTailB:
    """The criteria compute no uniform tail bound: with finitely many types
    ``nu > 0``, so the bound is at most ``max_x 1/(phi_x nu_x)``."""

    @staticmethod
    def finite_bound(eig):
        assert (eig.phi > 0).all() and (eig.nu > 0).all()
        return float(np.max(1.0 / (eig.phi * eig.nu)))

    def test_single_type_is_one_over_phi(self):
        m = single_type(STABLE)
        assert uniform_tail_ratio(m, eig1()) == pytest.approx(1.0, rel=1e-12)
        assert self.finite_bound(eig1()) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_two_type(self, symmetric2):
        eig = sm.principal_eigentriple(symmetric2)
        ratio = uniform_tail_ratio(symmetric2, eig)
        assert ratio == pytest.approx(1.0, rel=1e-10)
        assert ratio <= self.finite_bound(eig) * (1.0 + 1e-12)

    def test_two_type_stable_matches_closed_form(self):
        m = sm.model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [2.0, 0.0],
                "alpha": [0.0, 0.0],
                "kernels": [
                    {"kind": "stable", "gamma": 1.0, "alpha": 1.5},
                    {"kind": "stable", "gamma": 2.0, "alpha": 1.5},
                ],
            }
        )
        eig = sm.principal_eigentriple(m)
        gammas = np.array([1.0, 2.0])
        closed = np.max(gammas * eig.phi**0.5) / float(eig.nu @ (gammas * eig.phi**1.5))
        assert uniform_tail_ratio(m, eig) == pytest.approx(closed, rel=1e-8)
        assert closed <= self.finite_bound(eig)

    @given(case=tail_case())
    @settings(max_examples=60, deadline=None)
    def test_bounded_on_random_models(self, case):
        model, eig, t_lo, _ = case
        assert uniform_tail_ratio(model, eig, t_lo) <= self.finite_bound(eig) * (1.0 + 1e-12)


class TestLowerBoundB:
    def test_single_type_ratio_one(self):
        m = single_type(STABLE)
        assert sm.lower_bound_b(m, eig1(), [0]) == pytest.approx(1.0, rel=1e-12)

    def test_zero_gamma_on_f_collapses(self):
        m = sm.model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [1.0, 1.0],
                "alpha": [0.0, 0.0],
                "kernels": [
                    {"kind": "stable", "gamma": 0.0, "alpha": 1.5},
                    {"kind": "stable", "gamma": 1.0, "alpha": 1.5},
                ],
            }
        )
        eig = sm.principal_eigentriple(m)
        assert sm.lower_bound_b(m, eig, [0]) == 0.0
        assert sm.lower_bound_b(m, eig, [1]) > 0.0

    def test_two_type_matches_closed_form(self):
        m = sm.model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [2.0, 0.0],
                "alpha": [0.0, 0.0],
                "kernels": [
                    {"kind": "stable", "gamma": 1.0, "alpha": 1.5},
                    {"kind": "stable", "gamma": 2.0, "alpha": 1.5},
                ],
            }
        )
        eig = sm.principal_eigentriple(m)
        gammas = np.array([1.0, 2.0])
        closed = np.min(gammas * eig.phi**0.5) / float(eig.nu @ (gammas * eig.phi**1.5))
        assert sm.lower_bound_b(m, eig, [0, 1]) == pytest.approx(closed, rel=1e-8)


class TestTailTableReference:
    """Every criterion equals the old closed forms exactly: the moments, and
    ``lower_bound_b`` as its old per-t loop."""

    @pytest.mark.parametrize("kernels", [ATOMS3, STABLE3, MIXED3], ids=["atoms", "stable", "mixed"])
    @pytest.mark.parametrize("t_lo", [0.5, 10.0, 3000.0])
    def test_fixed_models(self, kernels, t_lo):
        model = ring_model(kernels)
        eig = sm.principal_eigentriple(model)
        assert_moments_match_old(model, eig)
        for f_set in ([0], [1], [2], [0, 2], [2, 0, 2], [0, 1, 2]):
            got = sm.lower_bound_b(model, eig, f_set, t_lo)
            assert got == reference_b(model, eig, f_set, t_lo), f_set

    @given(case=tail_case())
    @settings(max_examples=60, deadline=None)
    def test_random_models(self, case):
        model, eig, t_lo, f_set = case
        assert_moments_match_old(model, eig)
        assert sm.lower_bound_b(model, eig, f_set, t_lo) == reference_b(model, eig, f_set, t_lo)

    def test_zero_gamma_stable_kernel(self):
        model = ring_model([{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2)
        eig = sm.principal_eigentriple(model)
        assert_moments_match_old(model, eig)
        assert sm.llogl(model, eig) == sm.log_moment(model, eig, 1.0) == 0.0
        assert sm.lower_bound_b(model, eig, [0, 1]) == reference_b(model, eig, [0, 1]) == 0.0

    @pytest.mark.parametrize("phi", [0.5, 0.8, 2.0])
    def test_atoms_on_both_sides_of_one_over_phi(self, phi):
        # atoms below, at and above 1/phi (only those above count in the moments),
        # and a stable kernel, at a phi below and above 1
        atoms = [[0.4 / phi, 1.0], [1.0 / phi, 0.7], [1.5 / phi, 0.3], [30.0 / phi, 0.05]]
        for kernels in ([{"kind": "atoms", "atoms": atoms}], [{"kind": "stable", "gamma": 0.4, "alpha": 1.3}]):
            model = ring_model(kernels)
            eig = eig1(phi)
            assert_moments_match_old(model, eig)
            assert sm.lower_bound_b(model, eig, [0], 0.5) == reference_b(model, eig, [0], 0.5)

    def test_b_skips_rows_without_tail_mass(self):
        # first-moment tails vanish above the largest atom: those rows are skipped
        model = ring_model(
            [{"kind": "atoms", "atoms": [[50.0, 1.0]]}, {"kind": "atoms", "atoms": [[80.0, 0.5]]}]
        )
        eig = sm.principal_eigentriple(model)
        got = sm.lower_bound_b(model, eig, [1], 1.0)
        assert got == reference_b(model, eig, [1], 1.0)
        assert got > 0.0
        # every row empty: the bound collapses to 0
        got = sm.lower_bound_b(model, eig, [1], 500.0)
        assert got == reference_b(model, eig, [1], 500.0) == 0.0


class TestArgumentRefusals:
    MODEL2 = [STABLE, {"kind": "atoms", "atoms": [[2.0, 1.0]]}]

    @pytest.mark.parametrize("f_set,bad", [([-1], -1), ([2], 2), ([0, 9], 9), ([-1, 1], -1)])
    def test_seed_set_index_outside_types(self, f_set, bad):
        model = ring_model(self.MODEL2)
        eig = sm.principal_eigentriple(model)
        with pytest.raises(ValueError, match=rf"F index {bad} is outside \[0, 2\)"):
            sm.lower_bound_b(model, eig, f_set)

    def test_empty_seed_set(self):
        model = ring_model(self.MODEL2)
        eig = sm.principal_eigentriple(model)
        with pytest.raises(ValueError, match="F must be nonempty"):
            sm.lower_bound_b(model, eig, [])

    def test_window_law_check_refuses_bad_seed_sets(self):
        eig = sm.principal_eigentriple(ring_model(self.MODEL2))
        # the seed set is checked before the ensemble is read
        with pytest.raises(ValueError, match=r"F index -1 is outside \[0, 2\)"):
            sm.window_law_check(None, [-1], eig)
        with pytest.raises(ValueError, match="F must be nonempty"):
            sm.window_law_check(None, [], eig)

    @pytest.mark.parametrize("t_lo", [0.0, -5.0, float("nan"), 1e6, 2e6])
    def test_grid_start_outside_range(self, t_lo):
        m = single_type(STABLE)
        with pytest.raises(ValueError, match="t1 must lie in"):
            sm.lower_bound_b(m, eig1(), [0], t_lo)


class TestInfLogCondition:
    # the borderline o((log t)^-g) condition has no verdict of its own: a
    # finite log moment bounds its product by the moment's vanishing tail, so
    # it holds with poly_rate_holds
    def test_bounded_atoms_hold_trivially(self):
        m = single_type({"kind": "atoms", "atoms": [[2.0, 3.0]]})
        item = evaluate_criteria(m, eig1(), gamma_values=(1.0,)).predictions.per_gamma[0]
        assert item["poly_rate_holds"] and not item["series_fails_expected"]

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    def test_finite_log_moment_implies_holds(self, g):
        # also where the borderline product decays slowly (stable alpha near
        # 1) or is still growing on any grid that ends at e^10 (the 40 atoms
        # at e^n with weights e^{-n} n^{-2})
        atoms = [[math.exp(n), math.exp(-n) * n ** -2.0] for n in range(1, 41)]
        models = [
            single_type(STABLE),
            single_type({"kind": "atoms", "atoms": [[5.0, 1.0], [30.0, 0.1]]}),
            single_type({"kind": "stable", "gamma": 2.0, "alpha": 1.1}),
            single_type({"kind": "stable", "gamma": 0.5, "alpha": 1.05}),
            single_type({"kind": "atoms", "atoms": atoms}),
        ]
        for m in models:
            rep = evaluate_criteria(m, eig1(), gamma_values=(g,))
            assert math.isfinite(rep.log_moments[g])
            item = rep.predictions.per_gamma[0]
            assert item["poly_rate_holds"] and not item["series_fails_expected"]


class TestTheoremPredictions:
    def _report(self, model, p_values=(), gamma_values=()):
        return evaluate_criteria(model, eig1(), p_values=p_values, gamma_values=gamma_values)

    def test_as_rate_from_finite_p_moment(self):
        m = single_type({"kind": "stable", "gamma": 1.0, "alpha": 1.4})
        rep = self._report(m, p_values=(1.2,))
        item = rep.predictions.per_p[0]
        assert item["as_rate_holds"]
        assert item["q"] == pytest.approx(6.0)
        assert item["lp_rate_exponent"] == pytest.approx(1.0 / 6.0)

    def test_failure_branch_from_infinite_p_moment(self):
        m = single_type({"kind": "stable", "gamma": 1.0, "alpha": 1.4})
        rep = self._report(m, p_values=(1.6,))
        item = rep.predictions.per_p[0]
        assert not item["as_rate_holds"]

    def test_poly_rate_from_bounded_kernel(self):
        m = single_type({"kind": "atoms", "atoms": [[2.0, 3.0]]})
        rep = self._report(m, gamma_values=(2.0,))
        item = rep.predictions.per_gamma[0]
        assert item["poly_rate_holds"]
        assert not item["series_fails_expected"]

    def test_nondegeneracy_flag(self):
        m = single_type(STABLE)
        rep = self._report(m)
        assert rep.predictions.nondegenerate


class TestGWPredictions:
    def test_powerlaw_moments(self):
        gw = sm.GWModel(alpha=1.3)
        preds = gw_predictions(gw, p_values=(1.2, 1.8))
        assert preds.nondegenerate
        by_p = {item["p"]: item for item in preds.per_p}
        assert by_p[1.2]["as_rate_holds"]
        assert not by_p[1.8]["as_rate_holds"]
        assert by_p[1.2]["q"] == pytest.approx(6.0)
        # E[Z^1.2] = zeta(2.3 - 1.2) / zeta(2.3)
        from scipy.special import zeta

        assert by_p[1.2]["p_moment"] == pytest.approx(
            float(zeta(1.1) / zeta(2.3)), rel=1e-10
        )

    def test_bounded_always_finite(self):
        gw = sm.GWModel(pmf=(0.25, 0.0, 0.75))
        preds = gw_predictions(gw, p_values=(2.0,), gamma_values=(1.0,))
        assert preds.nondegenerate
        assert preds.per_p[0]["as_rate_holds"]
        assert preds.per_gamma[0]["poly_rate_holds"]
        assert not preds.per_gamma[0]["series_fails_expected"]
        assert preds.per_p[0]["p_moment"] == pytest.approx(4.0 * 0.75)


class TestReportSerialization:
    def test_inf_survives_as_dict(self):
        m = single_type(STABLE)
        rep = evaluate_criteria(m, eig1(), p_values=(1.2, 1.8), gamma_values=(1.0,))
        d = rep.as_dict()
        assert d["p_moments"]["1.8"] == math.inf
        assert math.isfinite(d["p_moments"]["1.2"])
        from supermart.io import jsonable

        j = jsonable(d)
        assert j["p_moments"]["1.8"] == "inf"
