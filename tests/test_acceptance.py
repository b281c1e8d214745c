"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and measured runtimes.  Every tolerance is pinned here; the statistical
checks use fixed master seeds, so the suite is deterministic on a given
platform.  Full suite takes roughly ten minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, linalg

import supermart as sm
import supermart.cli
from conftest import cli_env
from supermart.rates import as_rate_check, fit_exponential, lp_curve, window_law_check
from supermart.verify import suite_eigen, suite_identities


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:>2}] {status} {name}: {detail}")
    assert passed, f"criterion {num} {name}: {detail}"


def timer():
    t0 = time.time()
    return lambda: time.time() - t0


# ---------------------------------------------------------------------------


def test_criterion_1_eigen_semigroup_suite():
    el = timer()
    rep = suite_eigen(n_models=20, seed=20240817)
    checks = rep["checks"]
    worst_res = max(c["eig_residual"] for c in checks)
    worst_semi = max(c["semigroup_err"] for c in checks)
    worst_c = max(c["c_at_10_over_gap"] for c in checks)
    mono = all(c["c_monotone"] for c in checks)
    ok = worst_res < 1e-10 and worst_semi < 1e-9 and mono and worst_c < 1e-3
    report(
        1,
        "eigen/semigroup suite",
        ok,
        f"residual={worst_res:.2e} (<1e-10), semigroup={worst_semi:.2e} (<1e-9), "
        f"c_t monotone={mono}, c(10/gap)={worst_c:.2e} (<1e-3), {el():.1f}s",
    )


def test_criterion_2_criteria_closed_forms():
    el = timer()

    def quad(f, gamma, alpha, lo):
        mid = max(lo, 1.0)
        dens = lambda r: gamma * r ** (-1.0 - alpha)
        head = 0.0
        if lo < mid:
            head = integrate.quad(lambda r: f(r) * dens(r), lo, mid, epsabs=1e-14, epsrel=1e-12)[0]
        tail = integrate.quad(
            lambda u: f(1.0 / u) * dens(1.0 / u) / u**2, 0.0, 1.0 / mid,
            epsabs=1e-14, epsrel=1e-12, limit=400,
        )[0]
        return head + tail

    def quad_log(gamma, alpha, g):
        return integrate.quad(
            lambda v: gamma * math.exp((1.0 - alpha) * v) * v ** (g + 1.0),
            0.0, math.inf, epsabs=1e-13, epsrel=1e-11, limit=400,
        )[0]

    worst = 0.0
    n_checked = 0
    for alpha in (1.1, 1.5, 1.9):
        for gamma_k in (0.5, 1.0, 2.0):
            m = sm.model_from_json(
                {
                    "types": 1, "Q": [[0.0]], "beta": [1.0], "alpha": [0.0],
                    "kernels": [{"kind": "stable", "gamma": gamma_k, "alpha": alpha}],
                }
            )
            eig = sm.Eigentriple(lam=1.0, phi=np.array([1.0]), nu=np.array([1.0]))
            pairs = [
                (sm.llogl(m, eig), quad(lambda r: r * math.log(r), gamma_k, alpha, 1.0)),
                (sm.p_moment(m, eig, 1.05), quad(lambda r: r**1.05, gamma_k, alpha, 1.0)),
                (sm.log_moment(m, eig, 1.0), quad_log(gamma_k, alpha, 1.0)),
                (sm.log_moment(m, eig, 2.0), quad_log(gamma_k, alpha, 2.0)),
            ]
            if 1.3 < alpha:
                pairs.append(
                    (sm.p_moment(m, eig, 1.3), quad(lambda r: r**1.3, gamma_k, alpha, 1.0))
                )
            for got, oracle in pairs:
                worst = max(worst, abs(got - oracle) / abs(oracle))
                n_checked += 1
    ok = worst < 1e-8
    report(
        2,
        "criteria closed forms vs quadrature",
        ok,
        f"{n_checked} integrals, worst rel err={worst:.2e} (<1e-8), {el():.1f}s",
    )


def test_criterion_3_martingale_mean():
    el = timer()
    model = sm.model_from_json(
        {
            "types": 1, "Q": [[0.0]], "beta": [1.0], "alpha": [1.0],
            "kernels": [{"kind": "stable", "gamma": 0.1, "alpha": 1.5}],
        }
    )
    eig = sm.principal_eigentriple(model)
    cfg = sm.SimConfig(
        dt=1e-3, horizon=4.0, paths=100_000, master_seed=7, record_stride=50,
        log_jumps=False,
    )
    ens = sm.simulate_csbp(model, eig, cfg)
    zs = {}
    for t_val in (1.0, 2.0, 4.0):
        idx = int(np.argmin(np.abs(ens.times - t_val)))
        m = ens.M[:, idx]
        zs[t_val] = float((m.mean() - 1.0) / (m.std(ddof=1) / math.sqrt(len(m))))
    ok = all(abs(z) <= 4.0 for z in zs.values()) and not ens.flagged.any()
    report(
        3,
        "martingale mean (stable alpha=1.5, 1e5 paths, dt=1e-3)",
        ok,
        "z-scores " + ", ".join(f"t={t}: {z:+.2f}" for t, z in zs.items())
        + f" (|z|<=4), flagged={int(ens.flagged.sum())}, {el():.0f}s",
    )


def test_criterion_4_feller_variance():
    el = timer()
    model = sm.model_from_json(
        {
            "types": 1, "Q": [[0.0]], "beta": [1.0], "alpha": [2.0],
            "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}],
        }
    )
    eig = sm.principal_eigentriple(model)
    cfg = sm.SimConfig(
        dt=4e-3, horizon=1.0, paths=1_000_000, master_seed=11, epsilon=10.0,
        record_stride=125, log_jumps=False,
    )
    ens = sm.simulate_csbp(model, eig, cfg, x0=np.array([1.0]))
    x1 = ens.masses[:, -1, 0]
    # moment-ODE oracle: d/dt E[X^2] = 2b E[X^2] + 2a E[X] with a = b = 1
    target = (2.0 * 1.0 / 1.0) * (math.exp(2.0) - math.exp(1.0))
    rel = abs(x1.var(ddof=1) - target) / target
    ok = rel < 0.05
    report(
        4,
        "Feller variance vs moment-ODE oracle (1e6 paths)",
        ok,
        f"var={x1.var(ddof=1):.4f} target={target:.4f} rel err={rel:.2%} (<5%), {el():.0f}s",
    )


def test_criterion_5_pathwise_identities():
    el = timer()
    rep = suite_identities(paths=4000, dts=(4e-3, 2e-3, 1e-3), horizon=3.0, seed=42)
    ratios = {c["name"]: c["ratios"] for c in rep["checks"]}
    worst = min(r for rs in ratios.values() for r in rs)
    ok = rep["passed"]
    report(
        5,
        "Lemma A/C identity residual dt-halving",
        ok,
        f"ratios A={[f'{r:.2f}' for r in ratios['lemma_A']]} "
        f"C={[f'{r:.2f}' for r in ratios['lemma_C']]} (each >=1.8, worst={worst:.2f}), "
        f"{el():.0f}s",
    )


def test_criterion_6_spine_size_biasing():
    el = timer()
    spec = {
        "types": 2, "Q": [[-1.0, 1.0], [1.0, -1.0]], "beta": [1.2, 0.8],
        "alpha": [0.5, 0.5],
        "kernels": [{"kind": "atoms", "atoms": [[0.5, 0.8]]}] * 2,
    }
    model = sm.model_from_json(spec)
    eig = sm.principal_eigentriple(model)
    paths = 100_000
    horizon = 1.0
    plain = sm.simulate_csbp(
        model, eig,
        sm.SimConfig(dt=2.5e-3, horizon=horizon, paths=paths, master_seed=404,
                     record_stride=80, log_jumps=False),
    )
    ref = plain.M[:, -1] * (plain.masses[:, -1, :] @ eig.phi)  # mu(phi) = 1

    # E^phi <phi, X_T> = E_nu[M_T <phi, X_T>] = e^{lam T} + e^{-lam T} Var_nu <phi, X_T>,
    # the variance by quadrature of the second-moment formula with
    # sigma2_i = alpha_i + sum w r^2
    a = np.array(spec["Q"]) + np.diag(spec["beta"])
    sigma2 = np.array(spec["alpha"]) + [sum(w * r * r for r, w in k["atoms"]) for k in spec["kernels"]]

    def integrand(s):
        carried = linalg.expm((horizon - s) * a) @ eig.phi
        return float(eig.nu @ linalg.expm(s * a) @ (sigma2 * carried**2))

    var = integrate.quad(integrand, 0.0, horizon, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    growth = math.exp(eig.lam * horizon)
    target = growth + var / growth

    def ci(v):
        half = 1.96 * v.std(ddof=1) / math.sqrt(len(v))
        return v.mean() - half, v.mean() + half

    lo_r, hi_r = ci(ref)
    z = {}
    overlaps = {}
    for delta in (1e-2, 1e-3):
        cfg = sm.SpineConfig(
            dt=2.5e-3, horizon=horizon, paths=paths, master_seed=9, record_stride=80,
            log_jumps=False, delta=delta, delta_floor=1e-3,
        )
        res = sm.simulate_spine(model, eig, cfg)
        phi_q = res.ensemble.masses[:, -1, :] @ eig.phi
        lo, hi = ci(phi_q)
        overlaps[delta] = lo <= hi_r and lo_r <= hi
        z[delta] = float(phi_q.mean() - target) / (phi_q.std(ddof=1) / math.sqrt(paths))
    ok = all(overlaps.values()) and all(abs(v) <= 4.0 for v in z.values())
    report(
        6,
        "spine size-biasing mean identity (1e5 paths per run)",
        ok,
        f"CI overlap: delta=1e-2 {overlaps[1e-2]}, delta=1e-3 {overlaps[1e-3]}; "
        f"z against the closed form {target:.5f}: {z[1e-2]:+.2f}, {z[1e-3]:+.2f} "
        f"(|z| <= 4), {el():.0f}s",
    )


def test_criterion_7_gw_theorem_A():
    el = timer()
    # bounded offspring: two-sided 15% check of the m^{-n/2} rate
    gw = sm.GWModel(pmf=(0.25, 0.0, 0.75))
    ens = sm.simulate_gw(gw, 40, 100_000, seed=71)
    m = gw.mean()
    w = ens.M[~ens.flagged]
    winf = w[:, -1]
    ns = np.arange(2, 21)
    l1 = np.array([np.abs(winf - w[:, n]).mean() for n in ns])
    predicted = -0.5 * math.log(m)
    fit = fit_exponential(
        {"t": ns.astype(float), "value": l1, "n_paths": len(w)}, predicted=predicted
    )
    dev = abs(fit.exponent - predicted) / abs(predicted)
    ok_bounded = dev <= 0.15

    # heavy tail alpha=1.3: the L^{1.2} curve must decay at least as fast as
    # the q=6 envelope (one-sided: the theorem states a little-o bound) and
    # must visibly reject the steeper q=2 envelope
    gwp = sm.GWModel(alpha=1.3)
    ens2 = sm.simulate_gw(gwp, 20, 20_000, seed=72)
    mp = gwp.mean()
    curve = lp_curve(ens2, 1.2, grid=np.arange(1, 11, dtype=float))
    fitp = fit_exponential(curve, predicted=-math.log(mp) / 6.0)
    q6_rate = -math.log(mp) / 6.0
    q2_rate = -0.5 * math.log(mp)
    ok_q6 = fitp.exponent <= (1.0 - 0.20) * q6_rate
    ok_q2_rejected = fitp.exponent > (1.0 - 0.20) * q2_rate
    ok = ok_bounded and ok_q6 and ok_q2_rejected
    report(
        7,
        "Galton-Watson rate checks",
        ok,
        f"bounded slope={fit.exponent:.4f} vs {predicted:.4f} (dev {dev:.1%} <= 15%); "
        f"heavy slope={fitp.exponent:.4f}: q=6 bound ok={ok_q6} "
        f"(needs <= {0.8 * q6_rate:.4f}), q=2 rejected={ok_q2_rejected} "
        f"(needs > {0.8 * q2_rate:.4f}), {el():.0f}s",
    )


def test_criterion_8_as_rate_dichotomy():
    el = timer()
    model = sm.model_from_json(
        {
            "types": 1, "Q": [[0.0]], "beta": [0.6], "alpha": [0.2],
            "kernels": [{"kind": "stable", "gamma": 0.45, "alpha": 1.5}],
        }
    )
    eig = sm.principal_eigentriple(model)
    crit = sm.evaluate_criteria(model, eig, p_values=(1.2, 1.8))
    preds = {item["p"]: item for item in crit.predictions.per_p}
    assert preds[1.2]["as_rate_holds"] and not preds[1.8]["as_rate_holds"]

    cfg = sm.SimConfig(
        dt=4e-3, horizon=12.0, paths=10_000, master_seed=808, epsilon=2.0,
        record_stride=5, log_jumps=False,
    )
    ens = sm.simulate_csbp(model, eig, cfg)
    thresholds = (0.5, 1.0, 2.0, 4.0, 8.0)
    out6 = as_rate_check(ens, q=6.0, lam=eig.lam, thresholds=thresholds, t_lo_list=(1.5, 3.0))
    out225 = as_rate_check(
        ens, q=1.8 / 0.8, lam=eig.lam, thresholds=thresholds, t_lo_list=(1.5, 3.0)
    )
    hold_fracs = [out6["fractions"][t][8.0] for t in (1.5, 3.0)]
    exceed = [
        1.0 - out225["fractions"][t][c] for t in (1.5, 3.0) for c in thresholds
    ]
    ok = (
        out6["verdict"] == "holds"
        and min(hold_fracs) >= 0.95
        and out225["verdict"] == "fails-consistent"
        and min(exceed) >= 0.05
    )
    report(
        8,
        "Theorem-1.3 dichotomy at desk scale (1e4 paths, horizon 12)",
        ok,
        f"q=6: fractions@8 {[f'{v:.3f}' for v in hold_fracs]} (>=0.95) verdict={out6['verdict']}; "
        f"q=2.25: min exceedance {min(exceed):.3f} (>=0.05) verdict={out225['verdict']}, "
        f"{el():.0f}s",
    )


def test_criterion_9_window_average_law():
    el = timer()
    model = sm.model_from_json(
        {
            "types": 2, "Q": [[-1.0, 1.0], [1.0, -1.0]], "beta": [1.0, 1.0],
            "alpha": [0.5, 0.5],
            "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
        }
    )
    eig = sm.principal_eigentriple(model)
    cfg = sm.SimConfig(
        dt=4e-3, horizon=12.0, paths=3_000, master_seed=606, epsilon=1.0,
        record_stride=5, log_jumps=False,
    )
    ens = sm.simulate_csbp(model, eig, cfg)
    out = window_law_check(ens, [0], eig, n_values=[1, 2, 3, 4, 5, 6])
    mads = [out["mad"][n] for n in (1, 2, 3, 4, 5, 6)]
    decreasing = all(b <= a for a, b in zip(mads, mads[1:]))
    ok = out["target"] == pytest.approx(0.5) and decreasing and mads[-1] < 0.05
    report(
        9,
        "window-average strong law (F={1}, symmetric two-type)",
        ok,
        f"MAD from 0.5 over n=1..6: {[f'{v:.4f}' for v in mads]} "
        f"(decreasing, final<0.05), survivors={out['survival_fraction']:.1%}, {el():.0f}s",
    )


def test_criterion_10_reproducibility(tmp_path, set_chunk_paths):
    import filecmp
    import json as _json
    import os
    import subprocess
    import sys

    el = timer()
    scn = {
        "model": {
            "types": 1, "Q": [[0.0]], "beta": [1.0], "alpha": [0.5],
            "kernels": [{"kind": "stable", "gamma": 0.5, "alpha": 1.5}],
        },
        "kind": "csbp",
        "master_seed": 3141,
        "sim": {"dt": 0.005, "horizon": 3.0, "paths": 2000, "record_stride": 10},
        "analyses": {
            "criteria": {"p": [1.2, 1.8], "gamma": [1.0]},
            "functionals": {"kinds": ["A", "Atilde", "C"], "p": 2.0, "a_star": 2.0, "max_paths": 5},
            "rates": {"p": [1.2], "gamma": [1.0], "F": [0]},
        },
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(_json.dumps(scn))
    r = subprocess.run(
        [sys.executable, "-m", "supermart.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o1")],
        capture_output=True, text=True, env=cli_env(),
    )
    assert r.returncode == 0, r.stderr
    # the same run in this process, in 96-path chunks (2000 = 20 * 96 + 80)
    set_chunk_paths(96)
    assert supermart.cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0
    files = sorted(os.listdir(tmp_path / "o1"))
    identical = files == sorted(os.listdir(tmp_path / "o2")) and all(
        filecmp.cmp(tmp_path / "o1" / f, tmp_path / "o2" / f, shallow=False) for f in files
    )
    report(
        10,
        "byte-identical artifacts across reruns and chunk sizes",
        identical and len(files) >= 6,
        f"{len(files)} artifacts compared ({', '.join(files)}), {el():.0f}s",
    )
