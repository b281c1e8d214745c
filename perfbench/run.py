"""Benchmark of ``supermart``: end-to-end and per-layer metrics on four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline_heavytail --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload in turn

Each workload runs in a fresh child process (``workloads.py``) that imports
the checkout's ``src/supermart`` and calls the program in-process.  Before
and after it, ``SETUP_SAMPLES`` more fresh interpreters only import
``supermart`` and ``supermart.cli``; ``setup_s`` is the median time from
starting such an interpreter (the workload's own included) until that import
is done.  With ``--trace 0`` the run reports
the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer ones.  Every metric is printed as ``workload metric value unit``;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipeline_heavytail", "engine_spine", "gw_laws", "model_scan")
SETUP_SAMPLES = 3  # measured starts before and again after the workload
CHILD_TIMEOUT_S = 150.0
IMPORT_CODE = "import time, supermart, supermart.cli; print(time.monotonic(), supermart.__file__)"


class BenchError(Exception):
    pass


def checkout_paths(root: str) -> dict:
    """Locations the benchmark needs; raises when the checkout lacks them."""
    paths = {
        "src": os.path.join(root, "src"),
        "package": os.path.join(root, "src", "supermart", "__init__.py"),
        "spec": os.path.join(root, "BENCHMARK.json"),
    }
    for key in ("package", "spec"):
        if not os.path.isfile(paths[key]):
            raise BenchError(f"{paths[key]} not found: run from the root of a supermart checkout")
    return paths


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # numpy's BLAS pool stays at one thread; the engine's own --threads is the
    # only parallelism a workload asks for
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_import_origin(path: str, src: str):
    if os.path.commonpath([os.path.abspath(path), src]) != src:
        raise BenchError(f"imported supermart from {path}, not from {src}")


def setup_samples(env: dict, src: str, root: str, warm: bool) -> list:
    """Seconds from starting a fresh interpreter until ``supermart.cli`` is imported.

    With ``warm``, one unmeasured start comes first, so that bytecode caches exist.
    """
    samples = []
    for i in range(SETUP_SAMPLES + int(warm)):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, cwd=root,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import supermart failed: {proc.stderr.strip()[-500:]}")
        stamp, path = proc.stdout.split()
        check_import_origin(path, src)
        if i > 0 or not warm:
            samples.append(float(stamp) - t0)
    return samples


def run_child(workload: str, args, env: dict, src: str, root: str) -> tuple[dict, float]:
    out_dir = os.path.join(HERE, "out", f"{workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    trace_dir = os.path.join(HERE, "traces")
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", out_dir,
    ]
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(trace_dir, f"{workload}-seed{args.seed}.json")]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(lines[-1])
    check_import_origin(res["supermart_file"], src)
    return res, res["import_done"] - t0


def run_workload(workload: str, args, paths: dict, spec: dict, root: str) -> dict:
    env = child_env(paths["src"])
    # half the set-up samples before the workload and half after, so that
    # their median sees the machine over the whole run
    samples = setup_samples(env, paths["src"], root, warm=True)
    res, child_setup = run_child(workload, args, env, paths["src"], root)
    samples += setup_samples(env, paths["src"], root, warm=False) + [child_setup]
    if args.trace:
        values = res["per_layer"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": res["wall_s"],
            "setup_s": statistics.median(samples),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"{workload}: no value for {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} rounds {res['rounds']} (untimed warm-up: {res['warmup_s']:.3f} s), "
          f"operations attempted {res['attempted']}, failed {res['failed']}")
    print(f"{workload} untraced round walls: " + " ".join(f"{w:.3f}" for w in res["round_walls"]))
    for problem in res["problems"]:
        print(f"{workload} failed: {problem}")
    for name in res.get("untraced", []):
        print(f"{workload} not traced (no such name): {name}")
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        paths = checkout_paths(root)
        with open(paths["spec"]) as fh:
            spec = json.load(fh)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload != "all":
            result = run_workload(args.workload, args, paths, spec, root)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                one = run_workload(workload, args, paths, spec, root)
                result["correct"] = result["correct"] and one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, m in one["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = m
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
