"""Scenario-driven command line: eigen, criteria, simulate, functionals, rates,
run, verify.

Exit codes: 0 success, 1 a command line argparse refuses, config schema
violation (message carries a JSON pointer to the fault), a simulation setting
(``sim``, ``x0``) the engine refuses or a setting or option the kind never
reads, 2 model validation or spectral failure, an unusable paths or criteria
file, or an analysis argument out of range (a seed-set index outside the
model's types, a criteria grid start or eigen target outside its interval, a
rate or functional ``p``, ``gamma`` or ``a_star`` outside its range), 3
numerical failure (more than 10% of paths flagged, or a mass that overflows,
which stops the run before ``paths.csv`` is written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import NumericalError, SupermartError
from .model import (
    gw_from_json,
    gw_to_json,
    model_from_json,
    model_to_json,
    seed_set,
)
from .spectral import assumption2_report, principal_eigentriple, spectral_gap
from .criteria import Predictions, conjugate, evaluate_criteria, gw_predictions
from .sim import SimConfig, SpineConfig, check_x0, simulate_csbp, simulate_gw, simulate_spine
from .functionals import FunctionalCurve, a_functional, a_tilde_functional, c_functionals
from .rates import as_rate_check, fit_exponential, lp_curve, poly_rate_check, window_law_check
from .io import (
    config_hash,
    ensure_dir,
    jsonable,
    read_paths_csv,
    write_curves_csv,
    write_json,
    write_jumps_csv,
    write_paths_csv,
)
from .verify import run_suite

FUNCTIONAL_KINDS = ["M", "A", "Atilde", "C", "Ctilde"]

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["model", "kind", "master_seed"],
    "additionalProperties": False,
    "properties": {
        "model": {"type": ["object", "string"]},
        "kind": {"enum": ["csbp", "spine", "gw"]},
        "master_seed": {"type": "integer"},
        "out": {"type": "string"},
        "x0": {"type": "array", "items": {"type": "number"}},
        "gw": {
            "type": "object",
            "required": ["generations"],
            "additionalProperties": False,
            "properties": {"generations": {"type": "integer", "minimum": 1}},
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "paths": {"type": "integer", "minimum": 1},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "record_stride": {"type": "integer", "minimum": 1},
                "log_jumps": {"type": "boolean"},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "delta_floor": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "analyses": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "criteria": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "p": {"type": "array", "items": {"type": "number"}},
                        "gamma": {"type": "array", "items": {"type": "number"}},
                        "F": {"type": "array", "items": {"type": "integer"}},
                        "t1": {"type": "number"},
                    },
                },
                "functionals": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kinds": {"type": "array", "minItems": 1, "items": {"enum": FUNCTIONAL_KINDS}},
                        "p": {"type": "number"},
                        "a_star": {"type": "number"},
                        "gamma": {"type": "number"},
                        "max_paths": {"type": "integer", "minimum": 1},
                    },
                },
                "rates": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "p": {"type": "array", "items": {"type": "number"}},
                        "gamma": {"type": "array", "items": {"type": "number"}},
                        "F": {"type": "array", "items": {"type": "integer"}},
                        "thresholds": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                },
            },
        },
    },
}

EXIT_SCHEMA = 1
EXIT_MODEL = 2
EXIT_NUMERIC = 3


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _load_json_arg(value: str):
    if value.strip().startswith("{"):
        return json.loads(value)
    with open(value) as fh:
        return json.load(fh)


def _resolve_model(spec):
    obj = _load_json_arg(spec) if isinstance(spec, str) else spec
    if obj.get("kind", "").startswith("gw"):
        return None, gw_from_json(obj)
    return model_from_json(obj), None


def _meta(seed, cfg_obj):
    return {
        "tool": f"supermart {__version__}",
        "config_hash": config_hash(cfg_obj),
        "seed": seed,
    }


def _require_kind(what: str, kind: str, gw) -> None:
    """Exit 2 when ``what``, which runs a ``kind`` model, is given the other kind."""
    wants_gw = kind == "gw"
    if wants_gw != (gw is not None):
        need, got = ("a Galton-Watson", "a CSBP") if wants_gw else ("a CSBP", "a Galton-Watson")
        _fail(EXIT_MODEL, f"{what} needs {need} model, but the model is {got} model")


_ARG_RANGES = {
    "p": (lambda v: 1.0 < v <= 2.0, "(1, 2]"),
    "gamma": (lambda v: 0.0 < v < math.inf, "(0, inf)"),
    "a_star": (lambda v: 1.0 < v < math.inf, "(1, inf)"),
    "max_paths": (lambda v: v >= 1, "[1, inf)"),
}


def _require_ranges(what: str, **values) -> None:
    """Exit 2 unless every value of each named rate or functional argument is in range."""
    for name, vals in values.items():
        ok, span = _ARG_RANGES[name]
        bad = [v for v in vals if not ok(v)]
        if bad:
            _fail(EXIT_MODEL, f"{what}: {name} = {bad[0]!r} is outside {span}")


# ---------------------------------------------------------------------------
# pipeline stages, each called by `run` and by its own subcommand


def _eigen_payload(model, eig, target: float) -> dict:
    """eigen.json: Perron triple, spectral gap and the c_t curve."""
    rep = assumption2_report(model, eig, target=target)
    return {
        "lambda": eig.lam,
        "phi": eig.phi,
        "nu": eig.nu,
        "gap": spectral_gap(model),
        "t_star": rep["t_star"],
        "c_curve": [[float(t), float(c)] for t, c in zip(rep["curve"].grid, rep["curve"].c)],
    }


def _criteria(model, gw, eig, cfg: dict):
    """criteria.json payload and the `Predictions` the rate checks test."""
    p_values = tuple(cfg.get("p", []))
    gamma_values = tuple(cfg.get("gamma", []))
    _require_ranges("criteria", p=p_values, gamma=gamma_values)
    if gw is not None:
        preds = gw_predictions(gw, p_values=p_values, gamma_values=gamma_values)
        return {"predictions": preds.as_dict()}, preds
    try:
        report = evaluate_criteria(
            model,
            eig,
            p_values=p_values,
            gamma_values=gamma_values,
            f_set=cfg.get("F"),
            t1=cfg.get("t1", 10.0),
        )
    except ValueError as exc:
        _fail(EXIT_MODEL, f"criteria: {exc}")
    return report.as_dict(), report.predictions


# scenario settings each kind never reads, as dotted paths; `run` refuses them, not drops them
_UNREAD = {
    "gw": ["x0"]
    + [f"sim.{key}" for key in SCENARIO_SCHEMA["properties"]["sim"]["properties"] if key != "paths"]
    + ["analyses.criteria.F", "analyses.criteria.t1", "analyses.rates.F"],
    "csbp": ["gw", "sim.delta", "sim.delta_floor"],
    # the rate checks and functionals judge P-laws, and spine paths follow Q^phi
    "spine": ["gw", "analyses.rates", "analyses.functionals"],
}
# engine settings and their defaults, for `run` and `simulate`; Galton-Watson reads none
_ENGINE_OPTIONS = {"dt": 0.005, "horizon": 4.0, "record_stride": 1}


def _refuse_unread(scn: dict) -> None:
    """Exit 1 on the first setting of ``scn`` that its kind never reads."""
    for key in _UNREAD[scn["kind"]]:
        *parents, leaf = key.split(".")
        if leaf in functools.reduce(lambda node, part: node.get(part, {}), parents, scn):
            _fail(EXIT_SCHEMA, f"kind {scn['kind']!r} does not read {key}")


def _paths(scn: dict) -> int:
    """Paths of a scenario of any kind: ``sim.paths``, 1000 by default; exit 1 below 1."""
    paths = scn.get("sim", {}).get("paths", 1000)
    if paths < 1:
        _fail(EXIT_SCHEMA, "sim: paths must be >= 1")
    return paths


def _sim_config(scn: dict):
    """Engine config of a CSBP or spine scenario (None for GW); exit 1 if refused."""
    kind = scn["kind"]
    if kind == "gw":
        return None
    sim = scn.get("sim", {})
    base = {
        "dt": sim.get("dt", _ENGINE_OPTIONS["dt"]),
        "horizon": sim.get("horizon", _ENGINE_OPTIONS["horizon"]),
        "paths": _paths(scn),
        "master_seed": scn["master_seed"],
        "epsilon": sim.get("epsilon"),
        "record_stride": sim.get("record_stride", _ENGINE_OPTIONS["record_stride"]),
        "log_jumps": sim.get("log_jumps", True),
    }
    try:
        if kind == "spine":
            return SpineConfig(
                delta=sim.get("delta", 1e-3), delta_floor=sim.get("delta_floor", 1e-3), **base
            )
        return SimConfig(**base)
    except ValueError as exc:
        _fail(EXIT_SCHEMA, f"sim: {exc}")


def _simulate(scn: dict, cfg, model, gw, eig):
    kind = scn["kind"]
    if kind == "gw":
        gens = scn.get("gw", {}).get("generations", 20)
        return simulate_gw(gw, gens, _paths(scn), scn["master_seed"])
    if kind == "spine":
        return simulate_spine(model, eig, cfg, x0=scn.get("x0")).ensemble
    return simulate_csbp(model, eig, cfg, x0=scn.get("x0"))


def _write_ensemble(out_dir: str, ens, meta: dict) -> str:
    """paths.csv, plus the jumps.csv sidecar when jumps were logged."""
    paths_file = os.path.join(out_dir, "paths.csv")
    write_paths_csv(paths_file, ens, meta)
    if ens.jumps is not None:
        write_jumps_csv(os.path.join(out_dir, "jumps.csv"), ens, meta)
    return paths_file


def _functional_rows(ens, kinds, max_paths: int, a_star: float, p: float, gamma: float) -> list:
    """``(path_id, kind, t, value)`` rows of per-path curves, kinds in the order given.

    Only the first ``max_paths`` paths are read; ``kinds`` are names of
    `FUNCTIONAL_KINDS`, and ``C`` and ``Ctilde`` share one `c_functionals` call.
    """
    ens = ens.select(slice(0, max_paths))
    minf = ens.M[:, -1]
    curves, c_pair = [], None
    for kind in kinds:
        if kind == "M":
            curves.append(FunctionalCurve(grid=ens.times, values=ens.M, kind="M"))
        elif kind == "A":
            curves.append(a_functional(ens, minf, a_star))
        elif kind == "Atilde":
            curves.append(a_tilde_functional(ens, p))
        else:
            c_pair = c_pair or c_functionals(ens, minf, gamma)
            curves.append(c_pair[kind == "Ctilde"])
    # path by path, then kind by kind, then time by time
    values = np.stack([c.values for c in curves], axis=1)
    n, k, n_t = values.shape
    pid = np.repeat(np.arange(n), k * n_t)
    names = np.tile(np.repeat([c.kind for c in curves], n_t), n)
    t = np.tile(ens.times, n * k)
    return list(zip(pid.tolist(), names.tolist(), t.tolist(), values.ravel().tolist()))


def _rates_payload(ens, eig, preds, rate_cfg: dict):
    """Rate fits and checks against ``preds``, plus the `lp_curve` of each p."""
    lam = ens.lam
    thresholds = tuple(rate_cfg.get("thresholds", (0.5, 1, 2, 4, 8)))
    pred_by_p = {item["p"]: item for item in preds.per_p} if preds is not None else {}
    fits, checks, curves = [], {}, {}
    for p in rate_cfg.get("p", []):
        q = conjugate(p)
        pred = pred_by_p.get(p)
        curve = curves[p] = lp_curve(ens, p)
        if (np.asarray(curve["value"]) > 0).all():
            predicted = -lam / q if pred is None or pred["as_rate_holds"] else None
            fit = fit_exponential(curve, predicted=predicted)
            fits.append({"p": p, **fit.as_dict()})
        checks[f"as_rate_p{p:g}"] = as_rate_check(ens, q, lam, thresholds=thresholds)
    for g in rate_cfg.get("gamma", []):
        checks[f"poly_gamma{g:g}"] = poly_rate_check(ens, g, thresholds=thresholds)
    if eig is not None and rate_cfg.get("F"):
        checks["window_law"] = window_law_check(ens, rate_cfg["F"], eig)
    return fits, checks, curves


def _clause(predicted: str | None, chk: dict) -> dict:
    """A clause predicted ``holds``, ``fails-consistent`` or None, observed as ``chk``'s verdict."""
    if predicted is None:
        verdict = "unpredicted"
    else:
        verdict = "consistent" if chk["verdict"] == predicted else "inconsistent"
    return {"predicted": predicted, "observed": chk["verdict"], "verdict": verdict}


def _summary(preds, fits, checks) -> dict:
    """Map each theorem clause to {predicted, observed, verdict}."""
    clauses = {
        "llogl_nondegenerate": {
            "predicted": preds.nondegenerate,
            "observed": None,
            "verdict": "assumed",
        }
    }
    fit_by_p = {f["p"]: f for f in fits}
    for item in preds.per_p:
        p = item["p"]
        fit = fit_by_p.get(p)
        if fit is not None and item["as_rate_holds"]:
            clauses[f"lp_rate_p{p:g}"] = {
                "predicted": -item["lp_rate_exponent"],
                "observed": fit["exponent"],
                "verdict": fit["bound_verdict"],
            }
        chk = checks.get(f"as_rate_p{p:g}")
        if chk is not None:
            # the uniform tail bound is finite, so an infinite p-moment breaks the rate
            predicted = "holds" if item["as_rate_holds"] else "fails-consistent"
            clauses[f"as_rate_p{p:g}"] = _clause(predicted, chk)
    for item in preds.per_gamma:
        g = item["gamma"]
        chk = checks.get(f"poly_gamma{g:g}")
        if chk is not None:
            # an infinite log moment predicts a failure only where b > 0
            fails = "fails-consistent" if item["series_fails_expected"] else None
            predicted = "holds" if item["poly_rate_holds"] else fails
            clauses[f"poly_rate_gamma{g:g}"] = _clause(predicted, chk)
    wl = checks.get("window_law")
    if wl is not None:
        ns = wl["n_values"]
        final_mad = wl["mad"][ns[-1]] if ns else math.nan
        clauses["window_average_law"] = {
            "predicted": wl["target"],
            "observed": final_mad,
            "verdict": "consistent" if final_mad == final_mad and final_mad < 0.05 else "inconclusive",
        }
    return clauses


# ---------------------------------------------------------------------------
# subcommands


def cmd_eigen(args):
    model, gw = _resolve_model(args.model)
    _require_kind("eigen", "csbp", gw)
    eig = principal_eigentriple(model)
    try:
        payload = _eigen_payload(model, eig, args.target)
    except ValueError as exc:
        _fail(EXIT_MODEL, f"eigen: {exc}")
    out = args.out or "eigen.json"
    write_json(out, payload, _meta(None, model_to_json(model)))
    print(out)


def cmd_criteria(args):
    model, gw = _resolve_model(args.model)
    given = {
        name: getattr(args, name) for name in ("F", "t1") if getattr(args, name) is not None
    }
    if gw is not None and given:
        _fail(EXIT_SCHEMA, f"criteria on a Galton-Watson model does not read --{next(iter(given))}")
    eig = principal_eigentriple(model) if model is not None else None
    if "F" in given:
        try:
            given["F"] = [int(v) for v in args.F.split(",")]
        except ValueError:
            _fail(EXIT_MODEL, f"criteria: --F must be comma-separated type indices, got {args.F!r}")
    doc, _ = _criteria(model, gw, eig, {"p": args.p, "gamma": args.gamma, **given})
    out = args.out or "criteria.json"
    write_json(out, doc, _meta(None, model_to_json(model) if gw is None else gw_to_json(gw)))
    print(out)


def cmd_simulate(args):
    given = {name: getattr(args, name) for name in _ENGINE_OPTIONS if getattr(args, name) is not None}
    if args.kind == "gw" and given:
        _fail(EXIT_SCHEMA, f"simulate gw does not read --{next(iter(given)).replace('_', '-')}")
    scn = {
        "model": args.model,
        "kind": args.kind,
        "master_seed": args.seed,
        "sim": {**_ENGINE_OPTIONS, **given, "paths": args.paths},
    }
    cfg = _sim_config(scn)
    model, gw = _resolve_model(args.model)
    _require_kind(f"simulate {args.kind}", args.kind, gw)
    eig = principal_eigentriple(model) if model is not None else None
    ens = _simulate(scn, cfg, model, gw, eig)
    print(_write_ensemble(ensure_dir(args.out or "."), ens, _meta(args.seed, scn)))


def cmd_functionals(args):
    _require_ranges(
        "functionals", a_star=[args.a_star], p=[args.p], gamma=[args.gamma], max_paths=[args.max_paths]
    )
    ens, meta = read_paths_csv(args.paths)
    rows = _functional_rows(ens, args.kinds, args.max_paths, args.a_star, args.p, args.gamma)
    out = args.out or "functionals.csv"
    write_curves_csv(out, rows, dict(meta))
    print(out)


def _read_predictions(path: str) -> Predictions:
    """The ``predictions`` block of a criteria file; exit 2 when it has none to read."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(EXIT_MODEL, f"criteria file {path}: {exc}")
    try:
        return Predictions.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        _fail(EXIT_MODEL, f"criteria file {path} has no usable predictions block: {exc!r}")


def cmd_rates(args):
    _require_ranges("rates", p=args.p, gamma=args.gamma)
    ens, meta = read_paths_csv(args.paths)
    preds = _read_predictions(args.criteria) if args.criteria else None
    fits, checks, curves = _rates_payload(ens, None, preds, {"p": args.p, "gamma": args.gamma})
    out = args.out or "rates.json"
    write_json(out, {"fits": fits, "checks": checks, "criteria_file": args.criteria}, dict(meta))
    # plot-ready curve CSV
    plot = args.plot or "ratecurves.csv"
    with open(plot, "w") as fh:
        fh.write("p,t,value,stderr\n")
        for p in args.p:
            curve = curves[p]
            for t, v, s in zip(curve["t"], curve["value"], curve["stderr"]):
                fh.write(f"{p:g},{t:.17g},{v:.17g},{s:.17g}\n")
    print(out)


def cmd_run(args):
    try:
        scn = _load_json_arg(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_SCHEMA, f"cannot read config: {exc}")
    import jsonschema

    try:
        jsonschema.validate(scn, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
        _fail(EXIT_SCHEMA, f"config schema violation at {pointer!r}: {exc.message}")
    if args.seed is not None:
        scn["master_seed"] = args.seed
    analyses = scn.get("analyses", {})
    rates_cfg = analyses.get("rates", {})
    _require_ranges("rates", p=rates_cfg.get("p", []), gamma=rates_cfg.get("gamma", []))
    func_cfg = analyses.get("functionals")
    if func_cfg:
        func_args = {k: func_cfg.get(k, v) for k, v in (("a_star", 2.0), ("p", 2.0), ("gamma", 1.0))}
        _require_ranges("functionals", **{k: [v] for k, v in func_args.items()})
    cfg = _sim_config(scn)

    # a model the package refuses (ModelValidationError) reaches main: exit 2
    try:
        model, gw = _resolve_model(scn["model"])
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_SCHEMA, f"bad model spec: {exc}")
    _require_kind(f"kind {scn['kind']!r}", scn["kind"], gw)
    _refuse_unread(scn)
    if model is not None and "x0" in scn:
        try:
            check_x0(scn["x0"], model.d)
        except ValueError as exc:
            _fail(EXIT_SCHEMA, str(exc))
    eig = None
    if model is not None:
        eig = principal_eigentriple(model)
        rates_f = rates_cfg.get("F")
        if rates_f is not None:
            # window_law_check refuses it too, but only after the simulation
            try:
                seed_set(rates_f, model.d)
            except ValueError as exc:
                _fail(EXIT_MODEL, f"rates: {exc}")

    criteria_doc, preds = _criteria(model, gw, eig, analyses.get("criteria", {}))
    out_dir = ensure_dir(args.out or scn.get("out", "supermart_out"))
    meta = _meta(scn["master_seed"], scn)
    if model is not None:
        write_json(os.path.join(out_dir, "model.json"), model_to_json(model), meta)
        write_json(os.path.join(out_dir, "eigen.json"), _eigen_payload(model, eig, 0.5), meta)
    else:
        write_json(os.path.join(out_dir, "model.json"), gw_to_json(gw), meta)
    write_json(os.path.join(out_dir, "criteria.json"), criteria_doc, meta)

    ens = _simulate(scn, cfg, model, gw, eig)
    _write_ensemble(out_dir, ens, meta)

    if func_cfg:
        rows = _functional_rows(
            ens, func_cfg.get("kinds", ["A", "Atilde"]), func_cfg.get("max_paths", 50), **func_args
        )
        write_curves_csv(os.path.join(out_dir, "functionals.csv"), rows, meta)

    fits, checks, _ = _rates_payload(ens, eig, preds, rates_cfg)
    write_json(os.path.join(out_dir, "rates.json"), {"fits": fits, "checks": checks}, meta)

    frac_flagged = float(np.mean(ens.flagged))
    write_json(
        os.path.join(out_dir, "summary.json"),
        {"clauses": _summary(preds, fits, checks), "flagged_fraction": frac_flagged},
        meta,
    )
    if frac_flagged > 0.10:
        _fail(EXIT_NUMERIC, f"{frac_flagged:.1%} of paths flagged")
    print(out_dir)


def cmd_verify(args):
    report = run_suite(args.suite)
    out = args.out or f"verify_{args.suite}.json"
    write_json(out, report, _meta(None, {"suite": args.suite}))
    print(json.dumps(jsonable(report), indent=1, sort_keys=True))
    if not report["passed"]:
        raise SystemExit(1)


class _Parser(argparse.ArgumentParser):
    """Exits `EXIT_SCHEMA` on a refused command line; its subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="supermart", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="principal eigentriple and c_t curve")
    p.add_argument("--model", required=True)
    p.add_argument("--target", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("criteria", help="moment criteria and predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--p", type=float, action="append", default=[])
    p.add_argument("--gamma", type=float, action="append", default=[])
    p.add_argument("--F", default=None, help="comma-separated type indices (0-based)")
    p.add_argument("--t1", type=float, help="CSBP only; 10 by default")
    p.add_argument("--out")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("simulate", help="simulate gw|csbp|spine paths")
    p.add_argument("kind", choices=["gw", "csbp", "spine"])
    p.add_argument("--model", required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--record-stride", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("functionals", help="per-path functional curves from a paths CSV")
    p.add_argument("--paths", required=True)
    p.add_argument(
        "--kinds", nargs="+", choices=FUNCTIONAL_KINDS, default=["A", "Atilde", "C", "Ctilde"]
    )
    p.add_argument("--a-star", type=float, default=2.0, dest="a_star")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--max-paths", type=int, default=100, dest="max_paths")
    p.add_argument("--out")
    p.set_defaults(func=cmd_functionals)

    p = sub.add_parser("rates", help="rate fits from a paths CSV")
    p.add_argument("--paths", required=True)
    p.add_argument("--criteria")
    p.add_argument("--p", type=float, action="append", default=[])
    p.add_argument("--gamma", type=float, action="append", default=[])
    p.add_argument("--plot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("run", help="full scenario: simulate + analyze + summarize")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run a built-in invariant suite")
    p.add_argument("suite", choices=["eigen", "transform", "martingale", "identities", "spine"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except NumericalError as exc:
        _fail(EXIT_NUMERIC, str(exc))
    except SupermartError as exc:
        _fail(EXIT_MODEL, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
