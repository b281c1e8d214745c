import filecmp
import json
import math
import os
import subprocess
import sys

import pytest
from conftest import cli_env

import supermart as sm

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
            "--gamma", "1.0", "--F", "0", "--t0", "10", "--t1", "10",
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
            ("--t0=0", ("t0 must lie in",)),
            ("--t0=-5", ("t0 must lie in", "-5")),
            ("--t1=0", ("t1 must lie in",)),
        ],
    )
    def test_criteria_flags(self, two_type, flag, needles):
        r = run_cli("criteria", "--model", "m2.json", flag, cwd=two_type)
        self._refused(r, *needles)
        assert not (two_type / "criteria.json").exists()

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
        ],
    )
    def test_rate_and_functional_args(self, sim_paths, args, needles):
        r = run_cli(*args, "--paths", "simout/paths.csv", "--out", "out.x", cwd=sim_paths)
        self._refused(r, *needles)
        assert not (sim_paths / "out.x").exists()

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

    @pytest.mark.parametrize(
        "kind,sim,needle",
        [
            ("csbp", {"dt": 0.01, "horizon": 0.1}, "sim: dt must be <= 0.01 * horizon"),
            ("spine", {"delta": 0.5}, "sim: delta must lie in (0, 0.01]"),
        ],
    )
    def test_run(self, workdir, kind, sim, needle):
        scn = scenario(kind=kind)
        scn["sim"].update(sim)
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 1, r.stderr
        assert needle in r.stderr
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

    def test_schema_violation_exit_1_with_pointer(self, workdir):
        scn = scenario()
        del scn["kind"]
        (workdir / "bad.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "bad.json", cwd=workdir)
        assert r.returncode == 1
        assert "kind" in r.stderr

    def test_nested_schema_pointer(self, workdir):
        scn = scenario()
        scn["sim"]["dt"] = -1.0
        (workdir / "bad.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "bad.json", cwd=workdir)
        assert r.returncode == 1
        assert "/sim/dt" in r.stderr

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
            "sim": {"dt": 0.01, "horizon": 1.0, "paths": 20},
            "gw": {"generations": 25},
            "out": "gwout",
        }
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", cwd=workdir)
        assert r.returncode == 3
        assert "flagged" in r.stderr

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
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_gw_without_sim_defaults_to_1000_paths(self, workdir):
        scn = {"model": GW_MODEL, "kind": "gw", "master_seed": 1, "gw": {"generations": 5}}
        (workdir / "scn.json").write_text(json.dumps(scn))
        r = run_cli("run", "--config", "scn.json", "--out", "gwout", cwd=workdir)
        assert r.returncode == 0, r.stderr
        assert len(_body(workdir / "gwout" / "paths.csv")) == 1 + 1000 * 6


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
