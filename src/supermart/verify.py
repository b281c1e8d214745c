"""Built-in verification suites over reference models.

Each suite returns a machine-readable report ``{"suite", "passed", "checks":
[{"name", "passed", ...}]}``.  The CLI ``verify`` subcommand runs them at
desk scale; the acceptance tests reuse the same functions at the scales the
criteria pin down.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Model, model_from_json
from .spectral import c_of_t, principal_eigentriple, semigroup_apply, spectral_gap
from .sim import SimConfig, SpineConfig, simulate_csbp, simulate_spine
from .functionals import lemma_A_residual, lemma_C_residual

__all__ = [
    "random_symmetric_model",
    "reference_models",
    "suite_eigen",
    "suite_transform",
    "suite_martingale",
    "suite_identities",
    "suite_spine",
    "run_suite",
]


def random_symmetric_model(rng: np.random.Generator, d: int | None = None) -> Model:
    """Random irreducible model with a symmetric motion part.

    Symmetric rates keep the generator's spectrum real, so the c_t curve
    decays monotonically past the mixing scale and can be asserted as such.
    """
    d = int(rng.integers(2, 7)) if d is None else d
    s = rng.uniform(0.1, 1.1, size=(d, d))
    s = 0.5 * (s + s.T)
    q = s.copy()
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    beta = rng.uniform(0.2, 0.7, size=d)
    return model_from_json(
        {
            "types": d,
            "Q": q.tolist(),
            "beta": beta.tolist(),
            "alpha": rng.uniform(0.1, 1.0, size=d).tolist(),
            "kernels": [
                {"kind": "stable", "gamma": float(rng.uniform(0.1, 1.0)), "alpha": 1.5}
                for _ in range(d)
            ],
        }
    )


def reference_models() -> dict:
    """Small named models exercised by the verify suites."""
    return {
        "symmetric2": model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [1.0, 1.0],
                "alpha": [0.5, 0.5],
                "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
            }
        ),
        "tilted2": model_from_json(
            {
                "types": 2,
                "Q": [[-1.0, 1.0], [1.0, -1.0]],
                "beta": [2.0, 0.0],
                "alpha": [0.4, 0.4],
                "kernels": [{"kind": "atoms", "atoms": [[0.5, 0.8]]}] * 2,
            }
        ),
        "stable1": model_from_json(
            {
                "types": 1,
                "Q": [[0.0]],
                "beta": [1.0],
                "alpha": [0.5],
                "kernels": [{"kind": "stable", "gamma": 0.5, "alpha": 1.5}],
            }
        ),
    }


def suite_eigen(n_models: int = 20, seed: int = 20240817) -> dict:
    """Eigen residuals, semigroup law, and the c_t decay on random models."""
    rng = np.random.Generator(np.random.PCG64(seed))
    checks = []
    for idx in range(n_models):
        model = random_symmetric_model(rng)
        eig = principal_eigentriple(model)
        r_phi, r_nu = eig.residuals(model)
        f = rng.uniform(0.1, 2.0, size=model.d)
        lhs = semigroup_apply(model, 0.7 + 0.9, f)
        rhs = semigroup_apply(model, 0.7, semigroup_apply(model, 0.9, f))
        semi_err = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))
        gap = spectral_gap(model)
        grid = np.linspace(1.0 / gap, 10.0 / gap, 12)
        c_vals = c_of_t(model, eig, grid)
        mono = bool(np.all(np.diff(c_vals) <= 1e-12 + 1e-9 * c_vals[:-1]))
        checks.append(
            {
                "name": f"model_{idx}_d{model.d}",
                "eig_residual": max(r_phi, r_nu),
                "semigroup_err": semi_err,
                "c_monotone": mono,
                "c_at_10_over_gap": float(c_vals[-1]),
                "passed": max(r_phi, r_nu) < 1e-10
                and semi_err < 1e-9
                and mono
                and c_vals[-1] < 1e-3,
            }
        )
    return _report("eigen", checks)


def suite_transform(n_models: int = 40, seed: int = 414213) -> dict:
    """phi-transform change of variables and closed forms vs direct sums."""
    from .model import KERNELS

    rng = np.random.Generator(np.random.PCG64(seed))
    checks = []
    for idx in range(n_models):
        n_atoms = int(rng.integers(1, 6))
        atoms = tuple(
            (float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 2.0)))
            for _ in range(n_atoms)
        )
        kern = KERNELS["atoms"].from_json({"kind": "atoms", "atoms": atoms})
        phi_val = float(rng.uniform(0.2, 3.0))
        ok = True
        worst = 0.0
        for _ in range(8):
            t = float(rng.uniform(0.05, 20.0))
            direct = sum(w for r, w in atoms if r * phi_val > t)
            via_image = kern.phi_image(phi_val).partial_moment(0.0, t, math.inf)
            worst = max(worst, abs(direct - via_image))
            ok = ok and abs(direct - via_image) <= 1e-12
        checks.append({"name": f"atoms_{idx}", "max_err": worst, "passed": ok})
    return _report("transform", checks)


def suite_martingale(paths: int = 4000, seed: int = 99) -> dict:
    """Ensemble mean of M stays at M0 (4 standard errors) on two models."""
    refs = reference_models()
    checks = []
    for name in ("tilted2", "stable1"):
        model = refs[name]
        eig = principal_eigentriple(model)
        cfg = SimConfig(
            dt=0.005, horizon=2.0, paths=paths, master_seed=seed, record_stride=40,
            log_jumps=False,
        )
        ens = simulate_csbp(model, eig, cfg)
        worst_z = 0.0
        for t_val in (1.0, 2.0):
            idx = int(np.argmin(np.abs(ens.times - t_val)))
            m = ens.M[:, idx]
            z = (m.mean() - 1.0) / (m.std(ddof=1) / math.sqrt(len(m)))
            worst_z = max(worst_z, abs(float(z)))
        checks.append({"name": name, "worst_z": worst_z, "passed": worst_z <= 4.0})
    return _report("martingale", checks)


def suite_identities(
    paths: int = 4000,
    dts=(4e-3, 2e-3, 1e-3),
    horizon: float = 3.0,
    seed: int = 42,
    min_ratio: float = 1.8,
    p: float = 2.0,
    gamma: float = 1.0,
    epsilon: float = 0.5,
) -> dict:
    """Lemma A/C identity residuals must shrink by >= min_ratio per dt halving.

    The jump split level is pinned across the dt ladder so that all three
    runs discretize the same process and the residual scales cleanly in dt.
    """
    model = reference_models()["stable1"]
    eig = principal_eigentriple(model)
    med_a, med_c = [], []
    for dt in dts:
        cfg = SimConfig(
            dt=dt, horizon=horizon, paths=paths, master_seed=seed,
            record_stride=1, log_jumps=True, epsilon=epsilon,
        )
        ens = simulate_csbp(model, eig, cfg)
        minf = ens.M[:, -1]
        med_a.append(float(np.median(lemma_A_residual(ens, minf, p))))
        med_c.append(float(np.median(lemma_C_residual(ens, minf, gamma))))
    ratios_a = [med_a[i] / med_a[i + 1] for i in range(len(dts) - 1)]
    ratios_c = [med_c[i] / med_c[i + 1] for i in range(len(dts) - 1)]
    checks = [
        {
            "name": "lemma_A",
            "medians": med_a,
            "ratios": ratios_a,
            "passed": all(r >= min_ratio for r in ratios_a),
        },
        {
            "name": "lemma_C",
            "medians": med_c,
            "ratios": ratios_c,
            "passed": all(r >= min_ratio for r in ratios_c),
        },
    ]
    return _report("identities", checks)


def suite_spine(paths: int = 3000, seed: int = 2718, delta: float = 1e-3) -> dict:
    """Spine occupation law (chi^2) and the size-biasing mean identity."""
    from scipy.stats import chi2

    model = reference_models()["tilted2"]
    eig = principal_eigentriple(model)
    cfg = SpineConfig(
        dt=0.005, horizon=1.0, paths=paths, master_seed=seed, record_stride=20,
        log_jumps=False, delta=delta, delta_floor=1e-3,
    )
    res = simulate_spine(model, eig, cfg)
    occ = res.occupation.mean(axis=0)
    target = eig.nu * eig.phi
    # per-path fractions are iid; Hotelling statistic on the free coordinates
    # is asymptotically chi-square with d-1 degrees of freedom
    d_free = res.occupation.shape[1] - 1
    dev = res.occupation[:, :d_free] - target[:d_free]
    n = dev.shape[0]
    cov = np.cov(dev.T, ddof=1).reshape(d_free, d_free)
    mean_dev = dev.mean(axis=0)
    stat = float(n * mean_dev @ np.linalg.solve(cov, mean_dev))
    p_val = float(chi2.sf(stat, df=d_free))
    occ_check = {
        "name": "occupation",
        "occ": occ.tolist(),
        "target": target.tolist(),
        "pvalue": p_val,
        "passed": p_val > 0.001,
    }

    plain_cfg = SimConfig(
        dt=0.005, horizon=1.0, paths=paths, master_seed=seed + 1, record_stride=20,
        log_jumps=False,
    )
    plain = simulate_csbp(model, eig, plain_cfg)
    phi_x1_q = res.ensemble.masses[:, -1, :] @ eig.phi
    phi_x1_p = plain.masses[:, -1, :] @ eig.phi
    m1 = plain.M[:, -1]
    mu_phi = float(eig.phi @ eig.nu)
    lhs = phi_x1_q
    rhs = m1 * phi_x1_p / mu_phi
    ci = lambda v: (
        float(np.mean(v) - 1.96 * np.std(v, ddof=1) / math.sqrt(len(v))),
        float(np.mean(v) + 1.96 * np.std(v, ddof=1) / math.sqrt(len(v))),
    )
    lo1, hi1 = ci(lhs)
    lo2, hi2 = ci(rhs)
    overlap = lo1 <= hi2 and lo2 <= hi1
    bias_check = {
        "name": "size_biasing_mean",
        "q_mean_ci": [lo1, hi1],
        "weighted_mean_ci": [lo2, hi2],
        "passed": bool(overlap),
    }
    return _report("spine", [occ_check, bias_check])


def _report(suite: str, checks: list) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


_SUITES = {
    "eigen": suite_eigen,
    "transform": suite_transform,
    "martingale": suite_martingale,
    "identities": suite_identities,
    "spine": suite_spine,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; options: {sorted(_SUITES)}")
    return _SUITES[name](**kwargs)
