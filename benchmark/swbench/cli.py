"""Command line: prepare a workload's inputs, measure, check, print.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The lines before it print each metric by name with its unit, the
correctness checks, output hashes and the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .layers import PER_LAYER_UNITS, WORKLOAD_LAYER_UNITS
from .measure import roundtrips, sha256
from .workloads import WORKLOADS, Workload, prepare

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
WORK = ROOT / ".benchmark_work"
MEASURE_TIMEOUT_S = 160

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sessions_per_s": "1/s",
    "session_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_measure(request: dict, run_dir: Path) -> dict:
    """Run the measured stage in a fresh interpreter and return its result."""
    req_path, res_path = run_dir / "request.json", run_dir / "result.json"
    req_path.write_text(json.dumps(request))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE), str(ROOT / "src")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "swbench.measure", str(req_path), str(res_path)], cwd=ROOT, env=env
    )
    try:
        code = proc.wait(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"measured stage exceeded {MEASURE_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"measured stage exited with code {code}")
    return json.loads(res_path.read_text())


def end_to_end(res: dict) -> dict:
    reps = res["reps"]
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "wall_s": med("wall_s"),
        "sessions_per_s": med("sessions_per_s"),
        "session_ms_p50": med("session_ms_p50"),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path = WORK) -> int:
    """Prepare, measure and check `w`, then print its metrics."""
    run_dir = Path(work) / f"{w.name}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        prep = prepare(w, seed, run_dir / "suite")
        res = run_measure(
            {
                "workload": asdict(w),
                "config": str(prep.config),
                "work": str(run_dir),
                "seconds": seconds,
                "trace": trace,
                "fit_s": prep.fit_s,
            },
            run_dir,
        )
        if "error" in res:
            print(res["error"], file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": w.n_sessions, "failed": w.n_sessions, "metrics": {}}))
            return 1
        checkpoints = {p.name: sha256(p) for p in prep.checkpoints}
        failures = list(res["failures"])
        failures += [f"checkpoint {p.name} does not round-trip" for p in prep.checkpoints if not roundtrips(p)]
    finally:
        shutil.rmtree(run_dir / "suite", ignore_errors=True)
        shutil.rmtree(run_dir / "out", ignore_errors=True)

    n_stages = len(res["reps"]) + int(trace)
    attempted = n_stages * w.n_sessions + res["attempted"] + len(prep.checkpoints)
    failed = len(failures)
    rep = res["reps"][0]
    info = {
        "workload": w.name,
        "env": environment(seed),
        "stages": len(res["reps"]),
        "sessions_per_stage": rep["n_sessions"],
        "session_ms_tail": statistics.median(r["session_ms_tail"] for r in res["reps"]),
        "session_ms_tail_pct": rep["tail_pct"],
        "hashes": {**rep["hashes"], **checkpoints},
        "mean_qoe": rep["mean_qoe"],
        "failures": failures[:20],
        "error_rate": failed / attempted,
    }

    if trace:
        values = res["per_layer"]
        units = PER_LAYER_UNITS
        info["workload_layers"] = {name: values[name] for name in WORKLOAD_LAYER_UNITS}
        info["decide_s_by_strategy"] = res["decide_s_by_strategy"]
        info["untraced_wall_s"] = rep["wall_s"]
        info["traced_wall_s"] = res["traced_wall_s"]
        info["spans"] = str(run_dir / "spans.npz")
    else:
        values = end_to_end(res)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:>16.6f} {unit}")
    if trace:
        for name, unit in WORKLOAD_LAYER_UNITS.items():
            print(f"{name:32s} {values[name]:>16.6f} {unit} (only where the layer runs)")
    print(f"{'error_rate':32s} {failed / attempted:>16.6f} ratio ({failed} of {attempted} failed)")
    print(
        f"{'session_ms_tail':32s} {info['session_ms_tail']:>16.6f} ms "
        f"(p{rep['tail_pct']} of {rep['n_sessions']} sessions per stage; not gated)"
    )
    (run_dir / "info.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"info": info}, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
