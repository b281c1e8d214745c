import filecmp
import json
import math
import os
import subprocess
import sys

import pytest
from conftest import cli_env

import supermart as sm
from supermart.io import config_hash

BASE_MODEL = {
    "types": 1,
    "Q": [[0.0]],
    "beta": [1.0],
    "alpha": [0.5],
    "kernels": [{"kind": "stable", "gamma": 0.5, "alpha": 1.5}],
}

GW_MODEL = {"kind": "gw", "pmf": [0.25, 0.0, 0.75]}


def run_cli(*args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "supermart.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(**(env or {})),
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(BASE_MODEL))
    return tmp_path


def scenario(**overrides):
    scn = {
        "model": BASE_MODEL,
        "kind": "csbp",
        "master_seed": 11,
        "sim": {"dt": 0.01, "horizon": 3.0, "paths": 200, "record_stride": 5},
        "analyses": {
            "criteria": {"p": [1.2], "gamma": [1.0]},
            "functionals": {"kinds": ["A", "Atilde"], "p": 2.0, "a_star": 2.0, "max_paths": 3},
            "rates": {"p": [1.2], "gamma": [1.0], "F": [0]},
        },
        "out": "outdir",
    }
    scn.update(overrides)
    return scn


class TestSubcommands:
    def test_eigen_emits_contract_keys(self, workdir):
        r = run_cli("eigen", "--model", "model.json", cwd=workdir)
        assert r.returncode == 0, r.stderr
        doc = json.loads((workdir / "eigen.json").read_text())
        assert {"lambda", "phi", "nu", "gap", "c_curve"} <= set(doc)
        assert doc["lambda"] == pytest.approx(1.0)

    def test_eigen_refuses_gw_model_exit_2(self, workdir):
        (workdir / "gw.json").write_text(json.dumps(GW_MODEL))
        r = run_cli("eigen", "--model", "gw.json", cwd=workdir)
        assert r.returncode == 2, r.stderr
        assert "eigen needs a CSBP model, but the model is a Galton-Watson model" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "eigen.json").exists()

    def test_criteria_flags(self, workdir):
        r = run_cli(
            "criteria", "--model", "model.json", "--p", "1.2", "--p", "1.8",
            "--gamma", "1.0", "--F", "0", "--t1", "10",
            cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads((workdir / "criteria.json").read_text())
        assert doc["p_moments"]["1.8"] == "inf"
        assert doc["p_moments"]["1.2"] == pytest.approx(0.5 / 0.3)

    def test_simulate_then_functionals_then_rates(self, workdir):
        r = run_cli(
            "simulate", "csbp", "--model", "model.json", "--paths", "50",
            "--seed", "3", "--dt", "0.01", "--horizon", "2.0",
            "--record-stride", "5", "--out", "simout",
            cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        paths_csv = workdir / "simout" / "paths.csv"
        assert paths_csv.exists()
        head = paths_csv.read_text().splitlines()
        meta = [l for l in head if l.startswith("#")]
        assert any("seed" in l for l in meta)
        header = [l for l in head if not l.startswith("#")][0]
        assert header == "path_id,t,mass_1,M"

        r = run_cli(
            "functionals", "--paths", "simout/paths.csv", "--kinds", "A", "C",
            "--max-paths", "4", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        lines = (workdir / "functionals.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "path_id,kind,t,value"
        assert len(body) > 10

        r = run_cli(
            "rates", "--paths", "simout/paths.csv", "--p", "1.2", cwd=workdir
        )
        assert r.returncode == 0, r.stderr
        assert (workdir / "rates.json").exists()
        assert (workdir / "ratecurves.csv").exists()


TWO_TYPE_MODEL = {
    "types": 2,
    "Q": [[-1.0, 1.0], [1.0, -1.0]],
    "beta": [1.0, 1.0],
    "alpha": [0.0, 0.0],
    "kernels": [
        {"kind": "stable", "gamma": 1.0, "alpha": 1.5},
        {"kind": "atoms", "atoms": [[2.0, 1.0]]},
    ],
}


class TestArgumentRefusals:
    """Out-of-range analysis arguments exit 2 with a message, never a traceback."""

    @pytest.fixture
    def two_type(self, workdir):
        (workdir / "m2.json").write_text(json.dumps(TWO_TYPE_MODEL))
        return workdir

    def _refused(self, r, *needles):
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        for needle in needles:
            assert needle in r.stderr, r.stderr

    @pytest.mark.parametrize(
        "flag,needles",
        [
            ("--F=-1", ("F index -1", "[0, 2)")),
            ("--F=9", ("F index 9", "[0, 2)")),
            ("--F=0,", ("--F", "'0,'")),
            ("--t1=1e6", ("t1 must lie in",)),
            ("--t1=-5", ("t1 must lie in", "-5")),
            ("--t1=0", ("t1 must lie in",)),
        ],
    )
    def test_criteria_flags(self, two_type, flag, needles):
        r = run_cli("criteria", "--model", "m2.json", flag, cwd=two_type)
        self._refused(r, *needles)
        assert not (two_type / "criteria.json").exists()

    @pytest.mark.parametrize("kind", ["gw", "csbp"])
    @pytest.mark.parametrize(
        "flag,needle",
        [
            ("--p=3", "criteria: p = 3.0 is outside (1, 2]"),
            ("--p=0.5", "criteria: p = 0.5 is outside (1, 2]"),
            ("--gamma=-1", "criteria: gamma = -1.0 is outside (0, inf)"),
            ("--gamma=0", "criteria: gamma = 0.0 is outside (0, inf)"),
        ],
        ids=["p-3", "p-0.5", "gamma-neg", "gamma-0"],
    )
    def test_criteria_p_and_gamma_on_either_kind(self, workdir, kind, flag, needle):
        (workdir / "gw.json").write_text(json.dumps(GW_MODEL))
        model = "gw.json" if kind == "gw" else "model.json"
        r = run_cli("criteria", "--model", model, flag, cwd=workdir)
        self._refused(r, needle)
        assert not (workdir / "criteria.json").exists()

    def test_gw_scenario_criteria_p(self, workdir):
        scn = {
            "model": GW_MODEL, "kind": "gw", "master_seed": 11, "gw": {"generations": 5},
            "sim": {"paths": 20}, "analyses": {"criteria": {"p": [3.0]}}, "out": "outdir",
        }
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        self._refused(r, "criteria: p = 3.0 is outside (1, 2]")
        # refused before any artifact is written
        assert not (workdir / "outdir").exists()

    @pytest.mark.parametrize("flag", ["--F=7", "--F=0", "--t1=5"])
    def test_criteria_gw_refuses_csbp_options(self, workdir, flag):
        (workdir / "gw.json").write_text(json.dumps(GW_MODEL))
        r = run_cli("criteria", "--model", "gw.json", "--p", "1.5", flag, cwd=workdir)
        assert r.returncode == 1, r.stderr
        option = flag.split("=")[0]
        assert f"error: criteria on a Galton-Watson model does not read {option}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "criteria.json").exists()

    @pytest.mark.parametrize("kind", ["csbp", "gw"])
    def test_criteria_t0_is_gone(self, workdir, kind):
        # no uniform tail bound is computed, so it has no grid start to set
        (workdir / "gw.json").write_text(json.dumps(GW_MODEL))
        model = "gw.json" if kind == "gw" else "model.json"
        r = run_cli("criteria", "--model", model, "--p", "1.5", "--t0", "10", cwd=workdir)
        assert r.returncode == 1, r.stderr
        assert "unrecognized arguments: --t0 10" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "criteria.json").exists()

    def test_criteria_grid_defaults(self, workdir):
        # without --t1 a CSBP model is read at the grid start 10
        r = run_cli("criteria", "--model", "model.json", "--p", "1.2", "--out", "a.json", cwd=workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(
            "criteria", "--model", "model.json", "--p", "1.2", "--t1", "10",
            "--out", "b.json", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        assert filecmp.cmp(workdir / "a.json", workdir / "b.json", shallow=False)

    def test_criteria_valid_seed_set_still_runs(self, two_type):
        r = run_cli("criteria", "--model", "m2.json", "--F", "0,0", cwd=two_type)
        assert r.returncode == 0, r.stderr
        assert json.loads((two_type / "criteria.json").read_text())["b"] > 0.0

    def test_eigen_target(self, workdir):
        r = run_cli("eigen", "--model", "model.json", "--target", "1.5", cwd=workdir)
        self._refused(r, "target must lie in (0, 1)", "1.5")
        assert not (workdir / "eigen.json").exists()

    @pytest.mark.parametrize(
        "part,f_set,needles",
        [
            ("criteria", [1], ("criteria: F index 1", "[0, 1)")),
            ("criteria", [], ("criteria: F must be nonempty",)),
            ("rates", [-1], ("rates: F index -1", "[0, 1)")),
        ],
    )
    def test_scenario_seed_sets(self, workdir, part, f_set, needles):
        scn = scenario()
        scn["analyses"][part]["F"] = f_set
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        self._refused(r, *needles)
        # refused before anything is simulated
        assert not (workdir / "outdir" / "paths.csv").exists()

    @pytest.fixture
    def sim_paths(self, workdir):
        r = run_cli(
            "simulate", "csbp", "--model", "model.json", "--paths", "5", "--seed", "3",
            "--dt", "0.01", "--horizon", "1.0", "--out", "simout", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        return workdir

    @pytest.mark.parametrize(
        "args,needles",
        [
            (("rates", "--p", "0.5"), ("rates: p = 0.5 is outside (1, 2]",)),
            (("rates", "--p", "1.2", "--gamma", "0"), ("rates: gamma = 0.0 is outside (0, inf)",)),
            (("functionals", "--kinds", "Atilde", "--p", "0.5"), ("functionals: p = 0.5",)),
            (("functionals", "--kinds", "A", "--a-star", "1"), ("functionals: a_star = 1.0",)),
            (("functionals", "--kinds", "C", "--gamma", "-1"), ("functionals: gamma = -1.0",)),
            (("functionals", "--max-paths", "-2"), ("functionals: max_paths = -2 is outside [1, inf)",)),
            (("functionals", "--max-paths", "0"), ("functionals: max_paths = 0",)),
        ],
    )
    def test_rate_and_functional_args(self, sim_paths, args, needles):
        r = run_cli(*args, "--paths", "simout/paths.csv", "--out", "out.x", cwd=sim_paths)
        self._refused(r, *needles)
        assert not (sim_paths / "out.x").exists()

    @pytest.mark.parametrize(
        "name,text",
        [
            ("absent.json", None),
            ("broken.json", '{"predictions": '),
            ("empty.json", "{}"),
            ("flat.json", json.dumps({"nondegenerate": True, "per_p": [], "per_gamma": []})),
        ],
        ids=["missing", "not-json", "empty", "flat-gw"],
    )
    def test_unusable_criteria_file(self, sim_paths, name, text):
        # a missing file, a file that is not JSON, and one with no predictions
        # block (the old flat Galton-Watson layout included)
        if text is not None:
            (sim_paths / name).write_text(text)
        r = run_cli(
            "rates", "--paths", "simout/paths.csv", "--criteria", name, "--p", "1.2",
            "--out", "out.x", "--plot", "plot.x", cwd=sim_paths,
        )
        self._refused(r, f"criteria file {name}")
        assert not (sim_paths / "out.x").exists() and not (sim_paths / "plot.x").exists()

    @pytest.mark.parametrize("kinds", [["X", "Y"], ["Atlide"], ["A", "Atlide"]])
    def test_unknown_functional_kind(self, sim_paths, kinds):
        # the exit code of the scenario key analyses.functionals.kinds
        r = run_cli(
            "functionals", "--paths", "simout/paths.csv", "--kinds", *kinds, "--out", "out.x",
            cwd=sim_paths,
        )
        assert r.returncode == 1
        assert "invalid choice" in r.stderr and "Traceback" not in r.stderr, r.stderr
        assert not (sim_paths / "out.x").exists()

    @pytest.mark.parametrize("kinds", [["X", "Y"], ["A", "Atlide"], []])
    def test_scenario_unknown_functional_kind(self, workdir, kinds):
        scn = scenario()
        scn["analyses"]["functionals"]["kinds"] = kinds
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 1, r.stderr
        assert "/analyses/functionals/kinds" in r.stderr and "Traceback" not in r.stderr, r.stderr
        assert not (workdir / "outdir").exists()

    @pytest.mark.parametrize(
        "part,key,value,needles",
        [
            ("rates", "p", [1.2, 0.5], ("rates: p = 0.5",)),
            ("rates", "gamma", [0.0], ("rates: gamma = 0.0",)),
            ("functionals", "p", 2.5, ("functionals: p = 2.5",)),
            ("functionals", "gamma", 0.0, ("functionals: gamma = 0.0",)),
            ("functionals", "a_star", 0.5, ("functionals: a_star = 0.5",)),
        ],
    )
    def test_scenario_rate_and_functional_args(self, workdir, part, key, value, needles):
        scn = scenario()
        scn["analyses"][part][key] = value
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        self._refused(r, *needles)
        # refused before any artifact is written
        assert not (workdir / "outdir").exists()


T0_REFUSED = "schema violation at '/analyses/criteria'"


class TestBadSimSettings:
    """A setting the engine refuses exits 1 with a message, before any artifact."""

    def test_simulate(self, workdir):
        r = run_cli(
            "simulate", "csbp", "--model", "model.json", "--paths", "5", "--seed", "3",
            "--dt", "0.01", "--horizon", "0.1", "--out", "simout", cwd=workdir,
        )
        assert r.returncode == 1, r.stderr
        assert "error: sim: dt must be <= 0.01 * horizon" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "simout").exists()

    @pytest.mark.parametrize("kind", ["gw", "csbp"])
    @pytest.mark.parametrize("paths", ["-5", "0"])
    def test_simulate_paths_below_one(self, workdir, kind, paths):
        (workdir / "gw.json").write_text(json.dumps(GW_MODEL))
        model = "gw.json" if kind == "gw" else "model.json"
        r = run_cli(
            "simulate", kind, "--model", model, "--paths", paths, "--seed", "3",
            "--out", "simout", cwd=workdir,
        )
        assert r.returncode == 1, r.stderr
        assert "error: sim: paths must be >= 1" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "simout").exists()

    @pytest.mark.parametrize(
        "kind,sim,needle",
        [
            ("csbp", {"sim.dt": 0.01, "sim.horizon": 0.1}, "sim: dt must be <= 0.01 * horizon"),
            ("spine", {"sim.delta": 0.5}, "sim: delta must lie in (0, 0.01]"),
            # a setting the kind never reads is refused, not dropped
            ("gw", {"x0": [-5.0, 3.0]}, "kind 'gw' does not read x0"),
            ("gw", {"sim.dt": 0.5, "sim.horizon": 3}, "kind 'gw' does not read sim.dt"),
            ("gw", {"sim.horizon": 3}, "kind 'gw' does not read sim.horizon"),
            ("gw", {"sim.record_stride": 2}, "kind 'gw' does not read sim.record_stride"),
            ("gw", {"sim.log_jumps": False}, "kind 'gw' does not read sim.log_jumps"),
            ("gw", {"sim.epsilon": 0.5}, "kind 'gw' does not read sim.epsilon"),
            ("gw", {"sim.delta": 1e-3}, "kind 'gw' does not read sim.delta"),
            ("gw", {"analyses.criteria.F": [0]}, "kind 'gw' does not read analyses.criteria.F"),
            # no kind reads a uniform tail bound's grid start: refused by the schema
            ("gw", {"analyses.criteria.t0": 5.0}, T0_REFUSED),
            ("gw", {"analyses.criteria.t1": 5.0}, "kind 'gw' does not read analyses.criteria.t1"),
            ("gw", {"analyses.rates.F": [0]}, "kind 'gw' does not read analyses.rates.F"),
            ("csbp", {"gw.generations": 5}, "kind 'csbp' does not read gw"),
            ("csbp", {"sim.delta": 0.5}, "kind 'csbp' does not read sim.delta"),
            ("csbp", {"sim.delta_floor": 1e-3}, "kind 'csbp' does not read sim.delta_floor"),
            ("spine", {"gw.generations": 5}, "kind 'spine' does not read gw"),
            ("csbp", {"analyses.criteria.t0": 5.0}, T0_REFUSED),
            # spine paths follow the size-biased law, not the law the rate
            # checks and functionals judge
            (
                "spine",
                {"analyses": {"criteria": {"p": [1.2]}, "rates": {"p": [1.2]}}},
                "kind 'spine' does not read analyses.rates",
            ),
            (
                "spine",
                {"analyses": {"criteria": {"p": [1.2]}, "functionals": {"kinds": ["A"]}}},
                "kind 'spine' does not read analyses.functionals",
            ),
        ],
    )
    def test_run(self, workdir, kind, sim, needle):
        # ``sim`` maps dotted scenario paths to the values set there
        if kind == "gw":
            scn = {
                "model": GW_MODEL, "kind": "gw", "master_seed": 11, "gw": {"generations": 5},
                "sim": {"paths": 20}, "analyses": {"criteria": {"p": [1.2]}, "rates": {"p": [1.2]}},
                "out": "outdir",
            }
        else:
            scn = scenario(kind=kind)
        for key, value in sim.items():
            *parents, leaf = key.split(".")
            node = scn
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = value
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 1, r.stderr
        assert needle in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "outdir").exists()

    @pytest.mark.parametrize("option,value", [("--dt", "0.5"), ("--horizon", "40"), ("--record-stride", "2")])
    def test_simulate_gw_refuses_engine_options(self, workdir, option, value):
        (workdir / "gw.json").write_text(json.dumps(GW_MODEL))
        r = run_cli(
            "simulate", "gw", "--model", "gw.json", "--paths", "5", "--seed", "3",
            option, value, "--out", "simout", cwd=workdir,
        )
        assert r.returncode == 1, r.stderr
        assert f"error: simulate gw does not read {option}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "simout").exists()

    def test_simulate_engine_defaults(self, workdir):
        # without the options, the output and its config hash are those of
        # dt 0.005, horizon 4 and record stride 1 given outright
        common = ("simulate", "csbp", "--model", "model.json", "--paths", "3", "--seed", "3")
        r = run_cli(*common, "--out", "a", cwd=workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(
            *common, "--dt", "0.005", "--horizon", "4", "--record-stride", "1", "--out", "b",
            cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        for f in ("paths.csv", "jumps.csv"):
            assert filecmp.cmp(workdir / "a" / f, workdir / "b" / f, shallow=False), f
        want = config_hash(
            {
                "model": "model.json", "kind": "csbp", "master_seed": 3,
                "sim": {"dt": 0.005, "horizon": 4.0, "paths": 3, "record_stride": 1},
            }
        )
        assert f"# config_hash: {want}\n" in (workdir / "a" / "paths.csv").read_text()

    @pytest.mark.parametrize("x0", [[1.0, 2.0], [-1.0], [0.0]])
    def test_run_bad_x0(self, workdir, x0):
        scn = scenario(x0=x0)
        scn["sim"].update({"dt": 0.01, "horizon": 2.0, "paths": 20})
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 1, r.stderr
        assert "error: x0 must be 1 finite masses >= 0 with a sum > 0" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "outdir").exists()


class TestNonFiniteModel:
    """A NaN or infinite model number exits 2 with a message naming the field."""

    @pytest.mark.parametrize(
        "change,needle",
        [
            ({"beta": [math.nan]}, "non-finite beta"),
            ({"alpha": [math.nan]}, "non-finite alpha_diff"),
            ({"kernels": [{"kind": "stable", "gamma": math.nan, "alpha": 1.5}]},
             "non-finite kernel gamma"),
            ({"kernels": [{"kind": "atoms", "atoms": [[2.0, math.nan]]}]},
             "non-finite kernel atoms"),
        ],
    )
    def test_every_command_refuses(self, workdir, change, needle):
        (workdir / "bad.json").write_text(json.dumps({**BASE_MODEL, **change}))
        (workdir / "scn.json").write_text(json.dumps(scenario(model="bad.json")))
        for args in (
            ("eigen", "--model", "bad.json"),
            ("simulate", "csbp", "--model", "bad.json", "--paths", "5", "--seed", "3",
             "--dt", "0.01", "--horizon", "1.0", "--out", "simout"),
            ("run", "--config", "scn.json"),
        ):
            r = run_cli(*args, cwd=workdir)
            assert r.returncode == 2, (args, r.stderr)
            assert needle in r.stderr, (args, r.stderr)
            assert "Traceback" not in r.stderr
        assert not (workdir / "simout").exists()


class TestModelShape:
    def test_eigen_refuses_a_kernel_per_missing_type(self, workdir):
        bad = {**BASE_MODEL, "kernels": BASE_MODEL["kernels"] * 2}
        (workdir / "bad.json").write_text(json.dumps(bad))
        r = run_cli("eigen", "--model", "bad.json", cwd=workdir)
        assert r.returncode == 2, r.stderr
        assert "dimension mismatch" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "eigen.json").exists()


    def test_eigen_refuses_reducible_motion(self, workdir):
        bad = {**BASE_MODEL, "types": 2, "Q": [[0.0, 0.0], [0.0, 0.0]], "beta": [1.0, 1.0],
               "alpha": [0.5, 0.5], "kernels": BASE_MODEL["kernels"] * 2}
        r = run_cli("eigen", "--model", json.dumps(bad), cwd=workdir)
        assert r.returncode == 2, r.stderr
        assert "error: reducible motion: Perron triple is not unique" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "eigen.json").exists()


class TestRun:
    def test_minimal_deterministic_scenario_all_consistent(self, workdir):
        # noiseless model: every verdict is trivially consistent
        det_model = {
            "types": 2,
            "Q": [[-1.0, 1.0], [1.0, -1.0]],
            "beta": [1.0, 1.0],
            "alpha": [0.0, 0.0],
            "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}] * 2,
        }
        scn = scenario(model=det_model)
        scn["sim"]["horizon"] = 8.0
        scn["sim"]["dt"] = 0.02
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 0, r.stderr
        summary = json.loads((workdir / "outdir" / "summary.json").read_text())
        for name, clause in summary["clauses"].items():
            if clause["verdict"] not in ("assumed",):
                assert clause["verdict"] == "consistent", (name, clause)
        for f in ("model.json", "eigen.json", "criteria.json", "paths.csv", "rates.json"):
            assert (workdir / "outdir" / f).exists()

    def test_criteria_json_keys(self, workdir):
        # one layout for both model kinds: the verdicts under "predictions"
        p_row = {"p", "q", "p_moment", "lp_rate_exponent", "as_rate_holds"}
        gamma_row = {"gamma", "log_moment", "poly_rate_holds", "series_fails_expected"}
        gw_scn = {
            "model": GW_MODEL, "kind": "gw", "master_seed": 1, "gw": {"generations": 3},
            "sim": {"paths": 5}, "analyses": {"criteria": {"p": [1.2], "gamma": [1.0]}},
        }
        csbp_scn = scenario(sim={"dt": 0.01, "horizon": 1.0, "paths": 5})
        for scn, top in (
            (csbp_scn, {"meta", "llogl", "p_moments", "log_moments", "b", "lambda", "predictions"}),
            (gw_scn, {"meta", "predictions"}),
        ):
            (workdir / "scn.json").write_text(json.dumps(scn))
            r = run_cli("run", "--config", "scn.json", "--out", scn["kind"], cwd=workdir)
            assert r.returncode == 0, r.stderr
            doc = json.loads((workdir / scn["kind"] / "criteria.json").read_text())
            assert set(doc) == top
            preds = doc["predictions"]
            assert set(preds) == {"nondegenerate", "per_p", "per_gamma"}
            assert [set(row) for row in preds["per_p"]] == [p_row]
            assert [set(row) for row in preds["per_gamma"]] == [gamma_row]

    def test_schema_violation_exit_1_with_pointer(self, workdir):
        scn = scenario()
        del scn["kind"]
        (workdir / "bad.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "bad.json", cwd=workdir)
        assert r.returncode == 1
        assert "kind" in r.stderr

    def test_nested_schema_pointer(self, workdir):
        for section, key, value, pointer in (
            ("sim", "dt", -1.0, "/sim/dt"),
            ("rates", "thresholds", [], "/analyses/rates/thresholds"),
            ("rates", "thresholds", [0.5, -1], "/analyses/rates/thresholds"),
        ):
            scn = scenario()
            (scn[section] if section == "sim" else scn["analyses"][section])[key] = value
            (workdir / "bad.json").write_text(json.dumps(scn))
            r = run_cli("run", "--config", "bad.json", cwd=workdir)
            assert r.returncode == 1, (value, r.stderr)
            assert pointer in r.stderr, (value, r.stderr)
            assert "Traceback" not in r.stderr
            assert not (workdir / "outdir").exists()

    def test_missing_kernels_key_exit_1(self, workdir):
        scn = scenario(model={k: v for k, v in BASE_MODEL.items() if k != "kernels"})
        (workdir / "bad.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "bad.json", cwd=workdir)
        assert r.returncode == 1
        assert "kernels" in r.stderr

    def test_model_validation_exit_2(self, workdir):
        bad_model = dict(BASE_MODEL, Q=[[0.5]])  # nonzero row sum
        scn = scenario(model=bad_model)
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 2
        assert "non-conservative" in r.stderr

    def test_invalid_kernel_exit_2_before_any_artifact(self, workdir):
        # the same refusal, and exit code, as the subcommands give
        kernel = {"kind": "stable", "gamma": 0.5, "alpha": 2.5}
        scn = scenario(model=dict(BASE_MODEL, kernels=[kernel]))
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 2, r.stderr
        assert "alpha in (1, 2)" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "outdir").exists()

    def test_unreadable_model_file_exit_1(self, workdir):
        (workdir / "scn.json").write_text(json.dumps(scenario(model="missing.json")))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 1, r.stderr
        assert "bad model spec" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "outdir").exists()

    def test_readme_two_type_scenario_flags_under_1_percent(self, workdir):
        # the README model and scenario at 1000 paths: a stable type next to
        # an atom type, where one type often empties while the other feeds it
        readme_model = {
            "types": 2,
            "Q": [[-1.0, 1.0], [1.0, -1.0]],
            "beta": [1.2, 0.8],
            "alpha": [0.5, 0.5],
            "kernels": [
                {"kind": "stable", "gamma": 1.0, "alpha": 1.5},
                {"kind": "atoms", "atoms": [[0.5, 0.8]]},
            ],
        }
        scn = {
            "model": readme_model,
            "kind": "csbp",
            "master_seed": 7,
            "sim": {"dt": 0.004, "horizon": 12.0, "paths": 1000, "record_stride": 5},
            "analyses": {
                "criteria": {"p": [1.2, 1.8], "gamma": [1.0], "F": [0]},
                "functionals": {"kinds": ["A", "Atilde"], "p": 2.0, "a_star": 2.0, "max_paths": 50},
                "rates": {"p": [1.2, 1.8], "gamma": [1.0], "F": [0]},
            },
            "out": "readme",
        }
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 0, r.stderr
        summary = json.loads((workdir / "readme" / "summary.json").read_text())
        assert summary["flagged_fraction"] < 0.01

    def test_subcritical_exit_2(self, workdir):
        bad_model = dict(BASE_MODEL, beta=[-2.0])
        scn = scenario(model=bad_model)
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 2
        assert "subcritical" in r.stderr

    def test_numerical_failure_exit_3(self, workdir):
        # GW with offspring mean 8 overflows by generation 21: all flagged
        scn = {
            "model": {"kind": "gw", "pmf": [0.0] * 8 + [1.0]},
            "kind": "gw",
            "master_seed": 5,
            "sim": {"paths": 20},
            "gw": {"generations": 25},
            "out": "gwout",
        }
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 3
        assert "flagged" in r.stderr

    @pytest.mark.parametrize("epsilon", [1.0, None])
    def test_mass_overflow_exit_3(self, workdir, epsilon):
        # beta 8 over horizon 100: e^(800) overflows a float; the run must
        # stop with exit 3 before paths.csv, with or without a jump split
        scn = {
            "kind": "csbp", "master_seed": 1,
            "model": {"types": 1, "Q": [[0.0]], "beta": [8.0], "alpha": [0.5],
                      "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}]},
            "sim": {"dt": 0.5, "horizon": 100.0, "paths": 50, "epsilon": epsilon},
            "analyses": {"rates": {"p": [1.2]}},
            "out": "overflow",
        }
        if epsilon is None:
            del scn["sim"]["epsilon"]
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "overflow" / "paths.csv").exists()
        if epsilon is None:
            assert "overflows at lambda = 8, horizon T = 100" in r.stderr
        else:
            assert "mass overflow: 50 path(s)" in r.stderr
            assert "t = 89" in r.stderr and "path ids 0, 1, 2" in r.stderr

    @pytest.mark.parametrize("law", [GW_MODEL, {"kind": "gw_powerlaw", "alpha": 1.3}])
    def test_gw_run_writes_its_law(self, workdir, law):
        scn = {
            "model": law, "kind": "gw", "master_seed": 4, "gw": {"generations": 4},
            "sim": {"paths": 20}, "out": "gwout",
        }
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 0, r.stderr
        doc = json.loads((workdir / "gwout" / "model.json").read_text())
        del doc["meta"]
        assert sm.gw_to_json(sm.gw_from_json(doc)) == law

    def test_csbp_kind_with_gw_model_exit_2(self, workdir):
        scn = scenario(model=GW_MODEL)
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 2, r.stderr
        assert "kind 'csbp' needs a CSBP model" in r.stderr
        assert "Galton-Watson" in r.stderr
        assert "Traceback" not in r.stderr

    def test_gw_kind_with_csbp_model_exit_2(self, workdir):
        scn = scenario(kind="gw", gw={"generations": 5})
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 2, r.stderr
        assert "kind 'gw' needs a Galton-Watson model, but the model is a CSBP model" in r.stderr
        assert "Traceback" not in r.stderr

    def test_reproducible_across_reruns(self, workdir):
        scn = scenario()
        scn["sim"]["paths"] = 300
        (workdir / "scn.json").write_text(json.dumps(scn))
        for out in ("o1", "o2"):
            r = run_cli("run", "--config", "scn.json", "--out", out, cwd=workdir)
            assert r.returncode == 0, r.stderr
        files = sorted(os.listdir(workdir / "o1"))
        assert files == sorted(os.listdir(workdir / "o2"))
        for f in files:
            assert filecmp.cmp(workdir / "o1" / f, workdir / "o2" / f, shallow=False), f

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "csbp", "--model", "model.json", "--seed", "1", "--threads", "2"],
            ["run", "--config", "scn.json", "--threads", "2"],
        ],
    )
    def test_threads_option_refused(self, capsys, argv):
        from supermart.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_gw_without_sim_defaults_to_1000_paths(self, workdir):
        scn = {"model": GW_MODEL, "kind": "gw", "master_seed": 1, "gw": {"generations": 5}}
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", "--out", "gwout", cwd=workdir)
        assert r.returncode == 0, r.stderr
        assert len(_body(workdir / "gwout" / "paths.csv")) == 1 + 1000 * 6


class TestSummaryClauses:
    """A clause predicts a failure only where a theorem does; no supported
    kernel has an infinite log moment, so the predictions are built by hand."""

    CHECKS = {"as_rate_p1.8": {"verdict": "fails-consistent"}, "poly_gamma1": {"verdict": "fails-consistent"}}

    def _clauses(self, per_p=(), per_gamma=()):
        from supermart.cli import _summary

        preds = sm.Predictions(nondegenerate=True, per_p=list(per_p), per_gamma=list(per_gamma))
        return _summary(preds, [], self.CHECKS)

    @pytest.mark.parametrize(
        "series_fails,predicted,verdict",
        [(False, None, "unpredicted"), (True, "fails-consistent", "consistent")],
    )
    def test_poly_rate_failure_needs_b(self, series_fails, predicted, verdict):
        row = {
            "gamma": 1.0, "log_moment": math.inf, "poly_rate_holds": False,
            "series_fails_expected": series_fails,
        }
        clause = self._clauses(per_gamma=[row])["poly_rate_gamma1"]
        assert clause == {"predicted": predicted, "observed": "fails-consistent", "verdict": verdict}

    @pytest.mark.parametrize(
        "holds,predicted,verdict", [(False, "fails-consistent", "consistent"), (True, "holds", "inconsistent")]
    )
    def test_as_rate_fails_where_the_moment_is_infinite(self, holds, predicted, verdict):
        row = {
            "p": 1.8, "q": 2.25, "p_moment": 1.0 if holds else math.inf,
            "lp_rate_exponent": 0.4, "as_rate_holds": holds,
        }
        clause = self._clauses(per_p=[row])["as_rate_p1.8"]
        assert clause == {"predicted": predicted, "observed": "fails-consistent", "verdict": verdict}


class TestVerifyCommand:
    def test_transform_suite_passes(self, workdir):
        r = run_cli("verify", "transform", cwd=workdir)
        assert r.returncode == 0, r.stderr
        doc = json.loads((workdir / "verify_transform.json").read_text())
        assert doc["passed"] is True


class TestPathsRoundTrip:
    def test_read_back_matches(self, workdir):
        import numpy as np

        import supermart as sm
        from supermart.io import read_paths_csv, write_paths_csv

        model = sm.model_from_json(BASE_MODEL)
        eig = sm.principal_eigentriple(model)
        cfg = sm.SimConfig(dt=0.01, horizon=1.0, paths=7, master_seed=2, record_stride=10)
        ens = sm.simulate_csbp(model, eig, cfg)
        meta = {
            "lambda": f"{eig.lam:.17g}",
            "phi": " ".join(f"{v:.17g}" for v in eig.phi),
        }
        path = workdir / "roundtrip.csv"
        write_paths_csv(str(path), ens, meta)
        back, meta2 = read_paths_csv(str(path))
        assert np.array_equal(back.M, ens.M)
        assert np.array_equal(back.masses, ens.masses)
        assert back.lam == eig.lam

    @pytest.mark.parametrize("log", ["jumps", "empty-log", "three-blocks"])
    def test_jump_log_read_back_matches(self, workdir, log):
        import dataclasses

        import numpy as np
        from conftest import STABLE_ATOMS

        import supermart as sm
        from supermart.io import read_paths_csv, write_jumps_csv, write_paths_csv

        model = sm.model_from_json(STABLE_ATOMS)
        eig = sm.principal_eigentriple(model)
        cfg = sm.SimConfig(dt=0.01, horizon=1.0, paths=30, master_seed=4, epsilon=1.0)
        ens = sm.simulate_csbp(model, eig, cfg)
        jumpers = set(ens.jumps[:, 0].tolist())
        # some paths jump and some do not; both types jump
        assert 0 < len(jumpers) < ens.n_paths
        assert set(ens.jumps[:, 2].tolist()) == {0.0, 1.0}
        if log == "empty-log":
            ens = dataclasses.replace(ens, jumps=np.empty((0, 4)))
        elif log == "three-blocks":
            # more rows than the writer formats at a time (4096), on paths 3 to 29
            rng = np.random.default_rng(4)
            n = 9000
            pid = np.sort(rng.integers(3, 30, n)).astype(float)
            rows = [pid, rng.random(n), rng.integers(0, 2, n).astype(float), rng.pareto(1.5, n)]
            ens = dataclasses.replace(ens, jumps=np.column_stack(rows))
        write_paths_csv(str(workdir / "paths.csv"), ens, {"seed": 4})
        write_jumps_csv(str(workdir / "jumps.csv"), ens, {"seed": 4})
        if log == "empty-log":
            assert _body(workdir / "jumps.csv") == ["path_id,t,type,size"]
        back, _ = read_paths_csv(str(workdir / "paths.csv"))
        assert back.jumps.shape == ens.jumps.shape
        assert np.array_equal(back.jumps, ens.jumps)


def _body(path):
    """An artifact's lines below its ``# key: value`` metadata block."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


class TestPathsFileRoundTrip:
    """Subcommands fed a run's paths.csv must see what the run saw."""

    def test_functionals_reads_jump_log(self, workdir):
        scn = scenario()
        scn["sim"].update(paths=40, horizon=2.0, epsilon=0.5, log_jumps=True)
        scn["analyses"]["functionals"] = {
            "kinds": ["A", "Atilde", "C", "Ctilde"], "p": 2.0, "a_star": 2.0,
            "gamma": 1.0, "max_paths": 40,
        }
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 0, r.stderr
        jumps = _body(workdir / "outdir" / "jumps.csv")
        assert len(jumps) > 1, "scenario logged no jumps"
        r = run_cli(
            "functionals", "--paths", "outdir/paths.csv", "--kinds", "A", "Atilde", "C",
            "Ctilde", "--p", "2", "--a-star", "2", "--gamma", "1", "--max-paths", "40",
            cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        from_run = _body(workdir / "outdir" / "functionals.csv")
        from_cmd = _body(workdir / "functionals.csv")
        assert from_cmd == from_run

        # a jump log from another run is refused, not mixed in
        jumps_csv = workdir / "outdir" / "jumps.csv"
        jumps_csv.write_text(jumps_csv.read_text().replace("# seed: 11", "# seed: 12"))
        r = run_cli("functionals", "--paths", "outdir/paths.csv", cwd=workdir)
        assert r.returncode == 2
        assert "jumps.csv" in r.stderr

    @pytest.mark.parametrize(
        "rows,needle",
        [
            (["7,1.5,1,1000000"], "path ids must be non-decreasing integers in [0, 3)"),
            (["-1,1.5,1,1"], "path ids must be non-decreasing integers in [0, 3)"),
            (["2,1.5,1,1", "0,1.5,1,1"], "path ids must be non-decreasing integers in [0, 3)"),
            (["2,1.5,0,1"], "types must be integers in [1, 1]"),
            (["2,1.5,2,1"], "types must be integers in [1, 1]"),
        ],
        ids=["id-above", "id-negative", "ids-unsorted", "type-0", "type-above"],
    )
    def test_jump_log_that_does_not_fit_exit_2(self, workdir, rows, needle):
        r = run_cli(
            "simulate", "csbp", "--model", "model.json", "--paths", "3", "--seed", "3",
            "--dt", "0.01", "--horizon", "1.0", "--out", "simout", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        jumps_csv = workdir / "simout" / "jumps.csv"
        jumps_csv.write_text(jumps_csv.read_text() + "".join(row + "\n" for row in rows))
        r = run_cli("functionals", "--paths", "simout/paths.csv", "--kinds", "Atilde", cwd=workdir)
        assert r.returncode == 2, r.stderr
        assert "jumps.csv" in r.stderr and needle in r.stderr, r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "functionals.csv").exists()

    def test_rates_on_gw_paths_uses_log_mean(self, workdir):
        import math

        ps = [1.2, 1.8, 2.0]
        scn = {
            "model": {"kind": "gw", "pmf": [0.25, 0.0, 0.75]},
            "kind": "gw",
            "master_seed": 9,
            "gw": {"generations": 16},
            "sim": {"paths": 400},
            "analyses": {"criteria": {"p": ps}, "rates": {"p": ps}},
            "out": "gwout",
        }
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 0, r.stderr
        args = ["rates", "--paths", "gwout/paths.csv", "--criteria", "gwout/criteria.json"]
        for p in ps:
            args += ["--p", str(p)]
        r = run_cli(*args, cwd=workdir)
        assert r.returncode == 0, r.stderr
        doc = json.loads((workdir / "rates.json").read_text())
        run_checks = json.loads((workdir / "gwout" / "rates.json").read_text())["checks"]
        assert len(doc["fits"]) == len(ps)
        for fit in doc["fits"]:
            q = fit["p"] / (fit["p"] - 1.0)
            assert fit["predicted"] == pytest.approx(-math.log(1.5) / q, rel=1e-12)
        for p in ps:
            key = f"as_rate_p{p:g}"
            assert doc["checks"][key]["verdict"] == run_checks[key]["verdict"]

    @pytest.mark.parametrize("command", [["rates", "--p", "1.2"], ["functionals"]])
    def test_truncated_paths_exit_2(self, workdir, command):
        r = run_cli(
            "simulate", "csbp", "--model", "model.json", "--paths", "5", "--seed", "3",
            "--dt", "0.01", "--horizon", "1.0", "--record-stride", "5", "--out", "simout",
            cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        paths_csv = workdir / "simout" / "paths.csv"
        lines = paths_csv.read_text().splitlines(keepends=True)
        paths_csv.write_text("".join(lines[:-3]))
        r = run_cli(command[0], "--paths", "simout/paths.csv", *command[1:], cwd=workdir)
        assert r.returncode == 2, r.stderr
        assert "simout/paths.csv" in r.stderr
        assert "Traceback" not in r.stderr

    def test_paths_without_lambda_exit_2(self, workdir):
        r = run_cli(
            "simulate", "csbp", "--model", "model.json", "--paths", "5", "--seed", "3",
            "--dt", "0.01", "--horizon", "1.0", "--out", "simout", cwd=workdir,
        )
        assert r.returncode == 0, r.stderr
        paths_csv = workdir / "simout" / "paths.csv"
        lines = paths_csv.read_text().splitlines(keepends=True)
        paths_csv.write_text("".join(l for l in lines if not l.startswith("# lambda:")))
        r = run_cli("rates", "--paths", "simout/paths.csv", "--p", "1.2", cwd=workdir)
        assert r.returncode == 2
        assert "lambda" in r.stderr

    @pytest.mark.parametrize("command", [["rates", "--p", "1.2"], ["functionals"]])
    def test_missing_paths_file_exit_2(self, workdir, command):
        r = run_cli(
            command[0], "--paths", "nowhere.csv", *command[1:], "--out", "out.x", cwd=workdir
        )
        assert r.returncode == 2, r.stderr
        assert "nowhere.csv" in r.stderr and "Traceback" not in r.stderr, r.stderr
        assert not (workdir / "out.x").exists()
