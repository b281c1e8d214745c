"""One workload in one process: rounds of calls into ``supermart``, then checks.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

It imports ``supermart`` and ``supermart.cli`` first and records when that
import finished, then repeats whole rounds of the workload's operations on
the same seed-derived inputs until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds have run.  An untimed, unchecked warm-up comes first;
every round is timed.  Round 0 is checked against the oracles and every
later round must reproduce round 0's outputs byte for byte.  With
``--trace 1`` odd rounds run traced.  The last line of standard output is
one JSON object for ``run.py``.
"""

from __future__ import annotations

import time

import supermart
import supermart.cli

IMPORT_DONE = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import tracing  # noqa: E402

Z_BOUND = 4.0  # |z| allowed for a statistical check against an exact value
VERDICT_Z = 3.0  # standard errors by which an "inconclusive" may miss a cutoff
HOLD_FRACTION = 0.95  # as_rate "holds": share of paths under the top threshold
FAIL_FRACTION = 0.05  # as_rate "fails-consistent": share above every threshold
MIN_ROUNDS = 3  # a median of fewer timed rounds follows the host's moment-to-moment speed


def derive_seed(seed: int, stream: int) -> int:
    """A 31-bit master seed for one input stream of one benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0] >> 1)


def call_cli(argv: list) -> tuple[int, str]:
    """``supermart.cli.main(argv)`` in-process; returns the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = supermart.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return int(code or 0), err.getvalue()


def sha_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def sha_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _header(fh) -> list:
    """Skip an artifact's ``# key: value`` block; return the column names."""
    line = fh.readline()
    while line.startswith("#"):
        line = fh.readline()
    return line.strip().split(",")


def read_csv_table(path: str):
    """``(header, rows)`` of an artifact CSV; ``rows`` are string lists."""
    with open(path) as fh:
        return _header(fh), [line.rstrip("\n").split(",") for line in fh]


def read_numeric_csv(path: str):
    """``(header, array)`` of an all-numeric artifact CSV."""
    with open(path) as fh:
        return _header(fh), np.loadtxt(fh, delimiter=",", ndmin=2)


def z_score(estimate: float, exact: float, se: float) -> float:
    return (estimate - exact) / se if se > 0 else (0.0 if estimate == exact else math.inf)


def mean_z(x: np.ndarray, exact: float) -> float:
    return z_score(float(x.mean()), exact, float(x.std(ddof=1)) / math.sqrt(len(x)))


def var_z(x: np.ndarray, exact: float) -> float:
    c = x - x.mean()
    s2 = float(c @ c) / (len(x) - 1)
    m4 = float(np.mean(c**4))
    return z_score(s2, exact, math.sqrt(max(m4 - s2 * s2, 0.0) / len(x)))


def share_z(hits: int, n: int, p: float) -> float:
    return z_score(hits / n, p, math.sqrt(p * (1.0 - p) / n))


def sup_fractions(times, m, lam, q, thresholds, horizon):
    """``as_rate_check`` fractions recomputed from the recorded martingale.

    For each start ``T`` in ``(horizon/8, horizon/4)`` the statistic is
    ``sup_{t in [T, horizon/2]} e^{lam t / q} |M_H - M_t|`` per path.
    """
    out = {}
    for t_lo in (0.125 * horizon, 0.25 * horizon):
        sel = (times >= t_lo - 1e-12) & (times <= 0.5 * horizon + 1e-9)
        w = np.exp(lam * times[sel] / q)
        stat = np.max(w[None, :] * np.abs(m[:, -1][:, None] - m[:, sel]), axis=1)
        out[t_lo] = {c: float(np.mean(stat <= c)) for c in thresholds}
    return out


def verdict_matches(expected: str, check: dict, n: int) -> tuple[bool, str]:
    """Does an ``as_rate`` check agree with the verdict the criteria predict?

    The program's verdict must equal ``expected``, except that
    "inconclusive" is accepted when the program's own fractions miss the
    cutoff that decides ``expected`` by at most ``VERDICT_Z`` binomial
    standard errors at ``n`` paths: that miss is sampling noise, not a
    wrong law.
    """
    got = check["verdict"]
    if got == expected:
        return True, got
    if got != "inconclusive":
        return False, f"verdict {got}, expected {expected}"
    fr = check["fractions"]
    if expected == "holds":
        cutoff = HOLD_FRACTION
        worst = min(row[max(row, key=float)] for row in fr.values())
    else:
        cutoff = FAIL_FRACTION
        worst = min(1.0 - v for row in fr.values() for v in row.values())
    se = math.sqrt(cutoff * (1.0 - cutoff) / n)
    ok = worst >= cutoff - VERDICT_Z * se
    return ok, f"inconclusive, worst share {worst:.4f} vs cutoff {cutoff} (se {se:.4f})"


class Op:
    """One operation of a round: its outcome and why it failed."""

    def __init__(self, name: str, fault: str | None = None):
        self.name = name
        self.fault = fault  # the known program fault expected to fail this op
        self.problems: list[str] = []
        self.fingerprint = ""

    def require(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Workload:
    """Inputs made from the seed; ``run_round`` calls the program, ``check`` judges it."""

    def warm_up(self, rdir: str):
        """Untimed and unchecked: lazy imports inside the program and first touches of memory."""
        self.run_round(rdir)

    def fingerprints(self, res) -> dict:
        """Digest of each operation's outputs, keyed by operation name."""
        raise NotImplementedError

    def repeat(self, res, reference: list) -> list:
        """Judge a later round: its outputs must equal round 0's, byte for byte."""
        fps = self.fingerprints(res)
        ops = []
        for ref in reference:
            op = Op(ref.name, ref.fault)
            op.fingerprint = fps[ref.name]
            if op.fingerprint == ref.fingerprint:
                op.problems = list(ref.problems)
            else:
                op.require(False, "outputs differ from round 0 of the same seed")
            ops.append(op)
        return ops


def cli_fingerprint(code: tuple, files) -> str:
    return f"exit {code[0]} " + sha_files(files)


# ---------------------------------------------------------------------------
# workloads


class PipelineHeavytail(Workload):
    """``supermart run`` on the one-type stable model, then two subcommands."""

    name = "pipeline_heavytail"
    model = {
        "types": 1, "Q": [[0.0]], "beta": [0.6], "alpha": [0.2],
        "kernels": [{"kind": "stable", "gamma": 0.45, "alpha": 1.5}],
    }
    paths = 1500
    warm_paths = 100  # the warm-up needs only the code paths
    dt = 0.02
    horizon = 10.0
    stride = 3
    epsilon = 2.0
    p_values = (1.2, 1.8)
    gamma_values = (1.0,)
    max_paths = 50

    def __init__(self, seed: int, out: str):
        self.config = write_json(os.path.join(out, "scenario.json"), self._scenario(seed, self.paths))
        self.warm_config = write_json(os.path.join(out, "warm_up.json"), self._scenario(seed, self.warm_paths))

    def _scenario(self, seed: int, paths: int) -> dict:
        return {
            "model": self.model,
            "kind": "csbp",
            "master_seed": derive_seed(seed, 1),
            "sim": {
                "dt": self.dt, "horizon": self.horizon, "paths": paths,
                "epsilon": self.epsilon, "record_stride": self.stride, "log_jumps": True,
            },
            "analyses": {
                "criteria": {"p": list(self.p_values), "gamma": list(self.gamma_values), "F": [0]},
                "functionals": {
                    "kinds": ["A", "Atilde", "C", "Ctilde"], "p": 2.0, "a_star": 2.0,
                    "gamma": 1.0, "max_paths": self.max_paths,
                },
                "rates": {"p": list(self.p_values), "gamma": list(self.gamma_values), "F": [0]},
            },
        }

    def warm_up(self, rdir: str):
        self.run_round(rdir, self.warm_config)

    def run_round(self, rdir: str, config: str | None = None):
        run_dir = os.path.join(rdir, "run")
        paths_csv = os.path.join(run_dir, "paths.csv")
        argvs = {
            "run": ["run", "--config", config or self.config, "--out", run_dir],
            "functionals": [
                "functionals", "--paths", paths_csv, "--kinds", "A", "Atilde", "C", "Ctilde",
                "--p", "2", "--a-star", "2", "--gamma", "1",
                "--max-paths", str(self.max_paths), "--out", os.path.join(rdir, "functionals.csv"),
            ],
            "rates": [
                "rates", "--paths", paths_csv, "--criteria", os.path.join(run_dir, "criteria.json"),
                "--p", "1.2", "--p", "1.8", "--gamma", "1",
                "--out", os.path.join(rdir, "rates.json"), "--plot", os.path.join(rdir, "ratecurves.csv"),
            ],
        }
        codes = {}
        t0 = time.perf_counter()
        for key, argv in argvs.items():
            codes[key] = call_cli(argv)
        wall = time.perf_counter() - t0
        return wall, {"dir": rdir, "codes": codes}

    def fingerprints(self, res) -> dict:
        rdir, codes = res["dir"], res["codes"]
        run_dir = os.path.join(rdir, "run")
        return {
            "run": cli_fingerprint(codes["run"], [os.path.join(run_dir, f) for f in os.listdir(run_dir)]),
            "functionals": cli_fingerprint(codes["functionals"], [os.path.join(rdir, "functionals.csv")]),
            "rates": cli_fingerprint(
                codes["rates"], [os.path.join(rdir, f) for f in ("rates.json", "ratecurves.csv")]
            ),
        }

    def check(self, res) -> list:
        rdir = res["dir"]
        run_dir = os.path.join(rdir, "run")
        run = Op("run")
        func = Op("functionals", fault="F1: the functionals subcommand ignores jumps.csv")
        rates = Op("rates")
        fps = self.fingerprints(res)
        for op in (run, func, rates):
            code, err = res["codes"][op.name]
            op.require(code == 0, f"exit {code}: {err.strip()[-300:]}")
            op.fingerprint = fps[op.name]
        if run.failed:
            func.require(False, "run failed")
            rates.require(False, "run failed")
            return [run, func, rates]

        beta = self.model["beta"][0]
        kern = self.model["kernels"][0]
        a = kern["alpha"]
        summary = read_json(os.path.join(run_dir, "summary.json"))
        run.require(summary["flagged_fraction"] <= 0.10, f"flagged {summary['flagged_fraction']}")

        eigen = read_json(os.path.join(run_dir, "eigen.json"))
        run.require(close(float(eigen["lambda"]), beta, 1e-12), f"lambda {eigen['lambda']} != beta {beta}")

        crit = read_json(os.path.join(run_dir, "criteria.json"))
        ref = oracles.kernel_criteria(self.model["kernels"], [1.0], [1.0], self.p_values, self.gamma_values)
        run.require(close(float(crit["llogl"]), ref["llogl"], 1e-7), f"llogl {crit['llogl']} vs {ref['llogl']}")
        for p in self.p_values:
            got = crit["p_moments"][str(p)]
            want = ref["p_moments"][p]
            if p >= a:
                run.require(got == "inf", f"p_moment({p}) = {got}, expected inf (p >= a)")
            else:
                run.require(got != "inf" and close(float(got), want, 1e-7), f"p_moment({p}) {got} vs {want}")
        for g in self.gamma_values:
            got = crit["log_moments"][str(g)]
            run.require(close(float(got), ref["log_moments"][g], 1e-7), f"log_moment({g}) {got}")

        # every paths.csv row: M = e^{-lambda t} <phi, X> with lambda = beta and phi = 1
        header, data = read_numeric_csv(os.path.join(run_dir, "paths.csv"))
        t, mass, m = data[:, 1], data[:, 2], data[:, 3]
        want_m = np.exp(-beta * t) * mass
        bad = ~(np.abs(m - want_m) <= 1e-12 * np.maximum(np.abs(want_m), 1e-300))
        run.require(header == ["path_id", "t", "mass_1", "M"], f"paths.csv header {header}")
        run.require(not bad.any(), f"{int(bad.sum())} paths.csv rows break M = e^(-lambda t) X")
        n_times = int(np.sum(data[:, 0] == 0))
        m_mat = m.reshape(self.paths, n_times)
        times = t[:n_times]
        run.require(bool(np.all(m_mat[:, 0] == 1.0)), "M_0 != 1")

        _, jumps = read_numeric_csv(os.path.join(run_dir, "jumps.csv"))
        run.require(len(jumps) > 0, "no jumps logged")
        run.require(bool(np.all(jumps[:, 3] > self.epsilon)), "a logged jump is not above epsilon")
        run.require(
            bool(np.all((jumps[:, 1] >= 0.0) & (jumps[:, 1] <= self.horizon))),
            "a jump time lies outside [0, horizon]",
        )

        run_rates = read_json(os.path.join(run_dir, "rates.json"))["checks"]
        # rates drops flagged paths, which paths.csv does not mark
        slack = (1.5 + round(summary["flagged_fraction"] * self.paths)) / self.paths
        for p in self.p_values:
            key = f"as_rate_p{p:g}"
            expected = "holds" if p < a else "fails-consistent"
            clause = summary["clauses"][key]
            run.require(clause["predicted"] == expected, f"{key} predicted {clause['predicted']}")
            ok, why = verdict_matches(expected, run_rates[key], self.paths)
            run.require(ok, f"{key}: {why}")
            q = p / (p - 1.0)
            thresholds = run_rates[key]["thresholds"]
            mine = sup_fractions(times, m_mat, beta, q, thresholds, self.horizon)
            for (t_lo, row), (key_t, got_row) in zip(sorted(mine.items()), sorted(
                    run_rates[key]["fractions"].items(), key=lambda kv: float(kv[0]))):
                for c in thresholds:
                    got = got_row[next(k for k in got_row if float(k) == float(c))]
                    run.require(abs(got - row[c]) <= slack,
                                f"{key} fraction at T={key_t}, c={c}: {got} vs {row[c]}")

        # the subcommands must agree with run on the same paths
        from_run = self._curves(os.path.join(run_dir, "functionals.csv"))
        from_cmd = self._curves(os.path.join(rdir, "functionals.csv"))
        for kind in ("A(2)", "Atilde(2)", "C(1)", "Ctilde(1)"):
            a_vals, b_vals = from_run.get(kind), from_cmd.get(kind)
            if a_vals is None or b_vals is None or len(a_vals) != len(b_vals):
                func.require(False, f"{kind}: curves missing or of different length")
                continue
            diff = ~(np.abs(a_vals - b_vals) <= 1e-9 * np.maximum(np.abs(a_vals), 1e-12))
            func.require(not diff.any(), f"{kind}: {int(diff.sum())} of {len(a_vals)} values differ from run")

        sub = read_json(os.path.join(rdir, "rates.json"))["checks"]
        for p in self.p_values:
            key = f"as_rate_p{p:g}"
            rates.require(sub[key]["verdict"] == run_rates[key]["verdict"],
                          f"{key}: {sub[key]['verdict']} vs run {run_rates[key]['verdict']}")
        return [run, func, rates]

    @staticmethod
    def _curves(path: str) -> dict:
        _, rows = read_csv_table(path)
        curves = {}
        for pid, kind, t, v in rows:
            curves.setdefault(kind, []).append(float(v))
        return {k: np.array(v) for k, v in curves.items()}


class EngineSpine(Workload):
    """``simulate_csbp`` and ``simulate_spine`` on the two-type atom model."""

    name = "engine_spine"
    model = {
        "types": 2, "Q": [[-1.0, 1.0], [1.0, -1.0]], "beta": [1.2, 0.8], "alpha": [0.5, 0.5],
        "kernels": [{"kind": "atoms", "atoms": [[0.5, 0.8]]}] * 2,
    }
    paths = 16384  # four 4096-path engine chunks
    warm_paths = 512  # a full round costs about 9 s; the warm-up needs only the code paths
    dt = 0.01
    horizon = 1.0
    epsilon = 0.25  # below the atom, so every atom is a large jump
    # a second thread makes the GIL-bound engine slower, and its timing follows
    # the host's CPU steal (see the README)
    threads = 1

    def __init__(self, seed: int, out: str):
        self.seeds = (derive_seed(seed, 2), derive_seed(seed, 3))

    def warm_up(self, rdir: str):
        self.run_round(rdir, self.warm_paths)

    def run_round(self, rdir: str, paths: int | None = None):
        stride = int(round(self.horizon / self.dt))
        common = dict(dt=self.dt, horizon=self.horizon, paths=paths or self.paths, epsilon=self.epsilon,
                      record_stride=stride, log_jumps=False)
        t0 = time.perf_counter()
        model = supermart.model_from_json(self.model)
        eig = supermart.principal_eigentriple(model)
        ens = supermart.simulate_csbp(
            model, eig, supermart.SimConfig(master_seed=self.seeds[0], **common), threads=self.threads
        )
        spine = supermart.simulate_spine(
            model, eig,
            supermart.SpineConfig(master_seed=self.seeds[1], delta=1e-3, delta_floor=1e-3, **common),
            threads=self.threads,
        )
        wall = time.perf_counter() - t0
        return wall, {"eig": eig, "ens": ens, "spine": spine}

    def fingerprints(self, res) -> dict:
        ens, spine = res["ens"], res["spine"]
        sens = spine.ensemble
        return {
            "simulate_csbp": sha_arrays(ens.times, ens.M, ens.masses, ens.clipped, ens.flagged),
            "simulate_spine": sha_arrays(sens.M, sens.masses, sens.clipped, sens.flagged, spine.occupation),
        }

    def check(self, res) -> list:
        eig, ens, spine = res["eig"], res["ens"], res["spine"]
        sens = spine.ensemble
        csbp_op, spine_op = Op("simulate_csbp"), Op("simulate_spine")
        fps = self.fingerprints(res)
        csbp_op.fingerprint, spine_op.fingerprint = fps["simulate_csbp"], fps["simulate_spine"]

        q = np.asarray(self.model["Q"])
        a = q + np.diag(self.model["beta"])
        lam, phi, nu = oracles.perron_triple(a)
        sigma2 = np.asarray(self.model["alpha"]) + np.array(
            [sum(w * r * r for r, w in k["atoms"]) for k in self.model["kernels"]]
        )
        t_end = self.horizon
        mean = oracles.csbp_mean(a, nu, phi, t_end)
        var = oracles.csbp_variance(a, sigma2, nu, phi, t_end)
        for op, e in ((csbp_op, ens), (spine_op, sens)):
            frac = float(np.mean(e.flagged))
            op.require(frac <= 0.10, f"{frac:.1%} of paths flagged")
            op.require(close(float(eig.lam), lam, 1e-10), f"lambda {eig.lam} vs {lam}")

        y = ens.masses[:, -1, :] @ phi
        z = mean_z(y, mean)
        csbp_op.require(abs(z) <= Z_BOUND, f"E<phi,X_T>: z = {z:.2f} against e^(lambda T) = {mean:.6g}")
        z = var_z(y, var)
        csbp_op.require(abs(z) <= Z_BOUND, f"Var<phi,X_T>: z = {z:.2f} against {var:.6g}")
        m_want = np.exp(-lam * ens.times)[None, :] * (ens.masses @ phi)
        csbp_op.require(bool(np.allclose(ens.M, m_want, rtol=1e-9, atol=1e-12)), "M != e^(-lambda t) <phi, X>")

        # size-biased mean: e^{-lam T} E<phi,X_T>^2 = e^{lam T} + e^{-lam T} Var
        size_biased = math.exp(lam * t_end) + math.exp(-lam * t_end) * var
        ys = sens.masses[:, -1, :] @ phi
        z = mean_z(ys, size_biased)
        spine_op.require(abs(z) <= Z_BOUND, f"spine mean: z = {z:.2f} against {size_biased:.6g}")
        target = nu * phi  # stationary law of the tilted motion
        for i in range(len(target)):
            z = mean_z(spine.occupation[:, i], float(target[i]))
            spine_op.require(abs(z) <= Z_BOUND, f"occupation of type {i}: z = {z:.2f} against {target[i]:.6f}")
        return [csbp_op, spine_op]


class GWLaws(Workload):
    """``supermart run`` on two Galton-Watson laws, then ``rates`` on the first."""

    name = "gw_laws"
    bounded = {"kind": "gw", "pmf": [0.25, 0.0, 0.75]}
    bounded_generations = 40
    bounded_paths = 4000
    powerlaw = {"kind": "gw_powerlaw", "alpha": 1.3}
    powerlaw_generations = 12
    powerlaw_paths = 2000
    bounded_p = (1.2, 1.8, 2.0)
    powerlaw_p = (1.2, 1.8)

    def __init__(self, seed: int, out: str):
        self.configs = {}
        for key, model, gens, paths, ps, stream in (
            ("bounded", self.bounded, self.bounded_generations, self.bounded_paths, self.bounded_p, 4),
            ("powerlaw", self.powerlaw, self.powerlaw_generations, self.powerlaw_paths, self.powerlaw_p, 5),
        ):
            scn = {
                "model": model, "kind": "gw", "master_seed": derive_seed(seed, stream),
                "gw": {"generations": gens}, "sim": {"paths": paths},
                "analyses": {"criteria": {"p": list(ps)}, "rates": {"p": list(ps)}},
            }
            self.configs[key] = write_json(os.path.join(out, f"scenario_{key}.json"), scn)

    def run_round(self, rdir: str):
        b_dir, p_dir = os.path.join(rdir, "bounded"), os.path.join(rdir, "powerlaw")
        argvs = {
            "run_bounded": ["run", "--config", self.configs["bounded"], "--out", b_dir],
            "run_powerlaw": ["run", "--config", self.configs["powerlaw"], "--out", p_dir],
            "rates": ["rates", "--paths", os.path.join(b_dir, "paths.csv"),
                      "--criteria", os.path.join(b_dir, "criteria.json"),
                      "--p", "1.2", "--p", "1.8", "--p", "2",
                      "--out", os.path.join(rdir, "rates.json"),
                      "--plot", os.path.join(rdir, "ratecurves.csv")],
        }
        codes = {}
        t0 = time.perf_counter()
        for key, argv in argvs.items():
            codes[key] = call_cli(argv)
        wall = time.perf_counter() - t0
        return wall, {"dir": rdir, "codes": codes}

    @staticmethod
    def _w(run_dir: str, paths: int):
        _, data = read_numeric_csv(os.path.join(run_dir, "paths.csv"))
        return data[:, 3].reshape(paths, -1)

    def fingerprints(self, res) -> dict:
        rdir, codes = res["dir"], res["codes"]
        out = {}
        for key in ("bounded", "powerlaw"):
            d = os.path.join(rdir, key)
            out[f"run_{key}"] = cli_fingerprint(codes[f"run_{key}"], [os.path.join(d, f) for f in os.listdir(d)])
        out["rates"] = cli_fingerprint(
            codes["rates"], [os.path.join(rdir, f) for f in ("rates.json", "ratecurves.csv")]
        )
        return out

    def check(self, res) -> list:
        rdir = res["dir"]
        b_dir, p_dir = os.path.join(rdir, "bounded"), os.path.join(rdir, "powerlaw")
        bounded = Op("run_bounded")
        power = Op("run_powerlaw")
        rates = Op("rates", fault="F2: read_paths_csv falls back to lambda = nan on a GW paths.csv")
        fps = self.fingerprints(res)
        for op in (bounded, power, rates):
            code, err = res["codes"][op.name]
            op.require(code == 0, f"exit {code}: {err.strip()[-300:]}")
            op.fingerprint = fps[op.name]
        if bounded.failed or power.failed:
            rates.require(not bounded.failed, "run_bounded failed")
            return [bounded, power, rates]

        # bounded law (1/4, 0, 3/4): m = 3/2, extinction 1/3, Var W_n = 1 - m^-n
        pmf = self.bounded["pmf"]
        m, _ = oracles.gw_mean_variance(pmf)
        n_gen = self.bounded_generations
        w = self._w(b_dir, self.bounded_paths)
        q_ext = oracles.gw_extinction(pmf)
        z = share_z(int(np.sum(w[:, -1] == 0.0)), len(w), q_ext)
        bounded.require(abs(z) <= Z_BOUND, f"extinct share: z = {z:.2f} against {q_ext:.6f}")
        for n in (n_gen // 4, n_gen):
            z = mean_z(w[:, n], 1.0)
            bounded.require(abs(z) <= Z_BOUND, f"E W_{n}: z = {z:.2f} against 1")
            v = oracles.gw_w_variance(pmf, n)
            z = var_z(w[:, n], v)
            bounded.require(abs(z) <= Z_BOUND, f"Var W_{n}: z = {z:.2f} against {v:.6f}")
        clause = read_json(os.path.join(b_dir, "summary.json"))["clauses"].get("lp_rate_p2")
        slope = -0.5 * math.log(m)
        if clause is None:
            bounded.require(False, "summary.json has no lp_rate_p2 clause")
        else:
            dev = abs(float(clause["observed"]) - slope) / abs(slope)
            bounded.require(dev <= 0.15, f"lp_rate_p2 slope {clause['observed']} is {dev:.1%} off {slope:.4f}")

        # power law k^{-2.3}: no extinction, P(Z_1 = 1) = 1 / zeta(2.3)
        alpha = self.powerlaw["alpha"]
        mp = oracles.zeta_law_mean(alpha)
        wp = self._w(p_dir, self.powerlaw_paths)
        power.require(bool(np.all(wp > 0.0)), "a power-law path went extinct")
        ones = int(np.sum(np.abs(wp[:, 1] * mp - 1.0) < 1e-9))
        p1 = oracles.zeta_law_p1(alpha)
        z = share_z(ones, len(wp), p1)
        power.require(abs(z) <= Z_BOUND, f"P(Z_1 = 1): z = {z:.2f} against {p1:.6f}")
        p_summary = read_json(os.path.join(p_dir, "summary.json"))
        p_checks = read_json(os.path.join(p_dir, "rates.json"))["checks"]
        for p in self.powerlaw_p:
            key = f"as_rate_p{p:g}"
            expected = "holds" if p < alpha else "fails-consistent"
            power.require(p_summary["clauses"][key]["predicted"] == expected,
                          f"{key} predicted {p_summary['clauses'][key]['predicted']}")
            ok, why = verdict_matches(expected, p_checks[key], self.powerlaw_paths)
            power.require(ok, f"{key}: {why}")

        # rates on the bounded run's paths.csv must use lambda = log m
        doc = read_json(os.path.join(rdir, "rates.json"))
        b_checks = read_json(os.path.join(b_dir, "rates.json"))["checks"]
        rates.require(len(doc["fits"]) == len(self.bounded_p), f"{len(doc['fits'])} fits")
        for fit in doc["fits"]:
            q = fit["p"] / (fit["p"] - 1.0)
            want = -math.log(m) / q
            got = fit["predicted"]
            rates.require(got is not None and close(float(got), want, 1e-9),
                          f"p={fit['p']:g}: predicted {got}, expected {want:.6f}")
        for p in self.bounded_p:
            key = f"as_rate_p{p:g}"
            rates.require(doc["checks"][key]["verdict"] == b_checks[key]["verdict"],
                          f"{key}: {doc['checks'][key]['verdict']} vs run {b_checks[key]['verdict']}")
        return [bounded, power, rates]


class ModelScan(Workload):
    """Spectral data and criteria for a seed-generated batch of models."""

    name = "model_scan"
    types = (2, 3, 4, 5, 6)
    per_type_count = 20
    target = 0.5
    p_values = (1.2, 1.5, 1.8)
    gamma_values = (0.5, 1.0)

    def __init__(self, seed: int, out: str):
        rng = np.random.default_rng(derive_seed(seed, 6))
        self.models = []
        for _ in range(self.per_type_count):
            for d in self.types:
                self.models.append(self._random_model(rng, d))

    @staticmethod
    def _random_model(rng, d: int) -> dict:
        """Symmetric irreducible motion (a ring plus random chords), mixed kernels."""
        q = np.zeros((d, d))
        for i in range(d):
            j = (i + 1) % d
            q[i, j] = q[j, i] = rng.uniform(0.2, 2.0)
        for i in range(d):
            for j in range(i + 2, d):
                if rng.random() < 0.3:
                    q[i, j] = q[j, i] = rng.uniform(0.2, 2.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        kernels = []
        for i in range(d):
            if (i + rng.integers(2)) % 2 == 0:
                kernels.append({"kind": "stable", "gamma": float(rng.uniform(0.1, 1.0)),
                                "alpha": float(rng.uniform(1.1, 1.9))})
            else:
                n = int(rng.integers(1, 4))
                kernels.append({"kind": "atoms", "atoms": [
                    [float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.1, 1.0))] for _ in range(n)]})
        return {
            "types": d, "Q": q.tolist(),
            "beta": rng.uniform(0.2, 1.5, d).tolist(),
            "alpha": rng.uniform(0.1, 1.0, d).tolist(),
            "kernels": kernels,
        }

    def run_round(self, rdir: str):
        results = []
        t0 = time.perf_counter()
        for obj in self.models:
            model = supermart.model_from_json(obj)
            eig = supermart.principal_eigentriple(model)
            gap = supermart.spectral_gap(model)
            rep = supermart.assumption2_report(model, eig, target=self.target)
            crit = supermart.evaluate_criteria(
                model, eig, p_values=self.p_values, gamma_values=self.gamma_values, f_set=[0]
            )
            results.append((eig, gap, rep, crit))
        wall = time.perf_counter() - t0
        return wall, {"results": results}

    @staticmethod
    def _op_name(k: int, obj: dict) -> str:
        return f"model{k}_d{obj['types']}"

    def fingerprints(self, res) -> dict:
        out = {}
        for k, (obj, (eig, gap, rep, crit)) in enumerate(zip(self.models, res["results"])):
            curve = rep["curve"]
            doc = json.dumps(supermart.io.jsonable(crit.as_dict()), sort_keys=True)
            out[self._op_name(k, obj)] = sha_arrays(
                eig.phi, eig.nu, np.array([eig.lam, gap, rep["t_star"]]), curve.grid, curve.c
            ) + hashlib.sha256(doc.encode()).hexdigest()
        return out

    def check(self, res) -> list:
        ops = []
        fps = self.fingerprints(res)
        for k, (obj, (eig, gap, rep, crit)) in enumerate(zip(self.models, res["results"])):
            op = Op(self._op_name(k, obj))
            op.fingerprint = fps[op.name]
            curve = rep["curve"]
            a = np.asarray(obj["Q"]) + np.diag(obj["beta"])
            lam, phi, nu = oracles.perron_triple(a)
            r_phi = np.max(np.abs(a @ eig.phi - eig.lam * eig.phi)) / np.max(np.abs(eig.phi))
            r_nu = np.max(np.abs(eig.nu @ a - eig.lam * eig.nu)) / np.max(np.abs(eig.nu))
            op.require(max(r_phi, r_nu) <= 1e-9, f"eigen residuals {r_phi:.2e}, {r_nu:.2e}")
            op.require(close(eig.lam, lam, 1e-10, 1e-12), f"lambda {eig.lam} vs numpy {lam}")
            op.require(abs(eig.nu.sum() - 1.0) <= 1e-12, f"sum(nu) = {eig.nu.sum()!r}")
            op.require(abs(eig.nu @ eig.phi - 1.0) <= 1e-12, f"nu.phi = {eig.nu @ eig.phi!r}")
            op.require(close(gap, oracles.spectral_gap(a), 1e-9, 1e-10), f"gap {gap}")
            for i in np.linspace(0, len(curve.grid) - 1, 9).astype(int):
                want = oracles.c_of_t(a, lam, phi, nu, float(curve.grid[i]))
                op.require(close(float(curve.c[i]), want, 1e-6, 1e-9),
                           f"c_t at t={curve.grid[i]:.4g}: {curve.c[i]} vs expm {want}")
            after = curve.c[curve.grid >= rep["t_star"]]
            op.require(bool(np.all(after <= self.target)), "c_t above target after t_star")
            ref = oracles.kernel_criteria(obj["kernels"], phi, nu, self.p_values, self.gamma_values)
            op.require(close(crit.llogl, ref["llogl"], 1e-7, 1e-12), f"llogl {crit.llogl} vs {ref['llogl']}")
            for p in self.p_values:
                got, want = crit.p_moments[p], ref["p_moments"][p]
                op.require(close(got, want, 1e-7, 1e-12), f"p_moment({p}) {got} vs {want}")
            for g in self.gamma_values:
                got, want = crit.log_moments[g], ref["log_moments"][g]
                op.require(close(got, want, 1e-7, 1e-12), f"log_moment({g}) {got} vs {want}")
            ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (PipelineHeavytail, EngineSpine, GWLaws, ModelScan)}


# ---------------------------------------------------------------------------
# round loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.out)
    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}
    layer_rounds = []
    reference = None
    attempted = failed = 0
    unexpected = []
    start = time.monotonic()
    k = 0
    # every round writes to the same place: artifacts may embed their input paths
    rdir = os.path.join(args.out, "round")
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    t0 = time.perf_counter()
    wl.warm_up(rdir)
    warmup_s = time.perf_counter() - t0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        shutil.rmtree(rdir, ignore_errors=True)
        os.makedirs(rdir)
        # every round starts from the same heap: no collection left over from the last
        gc.collect()
        run_id = f"{args.workload}-seed{args.seed}-round{k}"
        if traced:
            tracer.install(run_id)
        try:
            wall, res = wl.run_round(rdir)
        finally:
            peaks = tracer.uninstall() if traced else None
        walls[traced].append(wall)
        if traced:
            layer_rounds.append(tracing.layer_metrics(tracer.spans, run_id, peaks))
        ops = wl.check(res) if reference is None else wl.repeat(res, reference)
        if reference is None:
            reference = ops
        attempted += len(ops)
        for op in ops:
            if op.failed:
                failed += 1
                if op.fault is None and len(unexpected) < 20:
                    unexpected.append(f"round {k} {op.name}: " + "; ".join(op.problems))
        k += 1
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and k >= MIN_ROUNDS:
            break
        del res

    result = {
        "import_done": IMPORT_DONE,
        "supermart_file": os.path.abspath(supermart.__file__),
        "rounds": k,
        "attempted": attempted,
        "failed": failed,
        "correct": not unexpected,
        "problems": unexpected
        + [f"{op.name} ({op.fault}): " + "; ".join(op.problems) for op in reference if op.failed and op.fault],
        "wall_s": statistics.median(walls[False]),
        "round_walls": walls[False],
        "warmup_s": warmup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers = {key: statistics.median(r[key] for r in layer_rounds) for key in layer_rounds[0]}
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        result["per_layer"] = layers
        result["traced_walls"] = walls[True]
        result["untraced"] = sorted(tracer.missing)
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
