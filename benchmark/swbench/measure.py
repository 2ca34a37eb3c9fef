"""The measured process: set-up, the stage loop, and the traced stage.

Runs as ``python -m swbench.measure REQUEST RESULT`` in a fresh interpreter,
so its peak RSS covers the program's work and none of the suite
generation. The request names the workload, its config, the time budget
and whether to trace; the result is one JSON document.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from swipesim import harness
from swipesim.config import experiment_spec, load_config
from swipesim.policy import MlpNet, load_checkpoint, save_checkpoint
from swipesim.ppo import write_learning_curve
from swipesim.watchtime import ParamTable

from . import layers
from .probe import Probe, conserved
from .workloads import Workload

perf = time.perf_counter
SETUP_REPS = 7


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of `n` samples beyond it."""
    return max(1, math.floor(100 * (n - 10) / n)) if n > 10 else 100


def percentile(sorted_ms: list[float], pct: int) -> float:
    if pct >= 100 or len(sorted_ms) < 2:
        return sorted_ms[-1]
    return statistics.quantiles(sorted_ms, n=100, method="inclusive")[pct - 1]


class Checks:
    """Correctness checks; each failure counts toward `error_rate`."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- set-up: the program's work before the first session ----------------------


def eval_setup(config: Path):
    """What run_experiment does before its first session."""
    spec = experiment_spec(load_config(config))
    harness.ingest_traces(spec.traces_glob)
    harness.load_catalog(spec.videos_path)
    harness.load_retention(spec.retention_path)
    ParamTable.load(spec.param_table_path)
    harness.build_strategies(spec)


def train_setup(config: Path):
    """What the train command does before its first episode."""
    cfg = load_config(config)
    traces = harness.ingest_traces(cfg.paths.traces_glob)
    catalog = harness.load_catalog(cfg.paths.videos)
    retention = harness.load_retention(cfg.paths.retention)
    table = ParamTable.load(cfg.paths.param_table)
    return cfg, traces, catalog, retention, table


def timed_train_setup(config: Path):
    cfg, *_ = train_setup(config)
    MlpNet.create(cfg.policy, cfg.seed)


# -- stages ------------------------------------------------------------------


def eval_stage(w: Workload, config: Path, out: Path, probe: Probe, checks: Checks) -> dict:
    spec = experiment_spec(load_config(config))
    report = harness.run_experiment(spec, out)
    probe.collect(report)
    if w.report_stage:
        harness.emit_plots_data(harness.load_report(out), out / "plots")
    end = perf()
    loop_start = probe.marks["build_strategies.end"]
    loop_s = probe.marks["write_report.start"] - loop_start

    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    n_traces = len(list(Path(spec.traces_glob).parent.glob("*.csv")))
    checks.check(len(rows) == len(spec.strategies) * n_traces, "report.csv rows != strategies x traces")
    for r in rows:
        checks.check(math.isfinite(float(r["qoe"])), f"non-finite qoe {r['strategy']}/{r['trace_id']}")
        bits = (float(r[k]) for k in ("downloaded_bits", "watched_bits", "wasted_bits"))
        checks.check(conserved(*bits), f"bits not conserved {r['strategy']}/{r['trace_id']}")
    return {
        "wall_s": end - loop_start,
        "loop_s": loop_s,
        "hashes": {name: sha256(out / name) for name in ("report.csv", "actions.csv", "summary.json")},
        "mean_qoe": {s: report.mean_qoe(s) for s in report.strategies},
    }


def train_stage(w: Workload, config: Path, out: Path, probe: Probe, checks: Checks) -> dict:
    cfg, traces, catalog, retention, table = train_setup(config)
    start = perf()
    net, logs = harness.train_policy(traces, catalog, retention, table, cfg.policy, cfg.train, cfg.sim, cfg.seed)
    loop_end = perf()
    out.mkdir(parents=True, exist_ok=True)
    ckpt, curve = out / "deload.ckpt", out / "deload_curve.csv"
    save_checkpoint(net, ckpt)
    write_learning_curve(logs, curve)
    end = perf()

    checks.check(roundtrips(ckpt), "checkpoint does not round-trip byte-identically")
    with open(curve) as fh:
        checks.check(len(fh.readlines()) - 1 == cfg.train.episodes, "learning curve rows != episodes")
    for log in logs:
        checks.check(math.isfinite(log.mean_reward), f"non-finite reward in episode {log.episode}")
    for _, _, ok in probe.sessions:
        checks.check(ok, "episode bits not conserved")
    return {
        "wall_s": end - start,
        "loop_s": loop_end - start,
        "hashes": {"deload.ckpt": sha256(ckpt), "deload_curve.csv": sha256(curve)},
        "mean_qoe": {"deload-train": statistics.fmean(log.mean_reward for log in logs)},
    }


def roundtrips(path: Path) -> bool:
    """save_checkpoint(load_checkpoint(path)) writes the same bytes."""
    again = path.with_suffix(".roundtrip")
    save_checkpoint(load_checkpoint(path), again)
    same = again.read_bytes() == path.read_bytes()
    again.unlink()
    return same


def run_stage(w: Workload, config: Path, out: Path, trace: bool, checks: Checks) -> tuple[dict, Probe]:
    shutil.rmtree(out, ignore_errors=True)
    stage = train_stage if w.trains else eval_stage
    with Probe(trace=trace) as probe:
        rep = stage(w, config, out, probe, checks)
    ms = sorted((t1 - t0) * 1000.0 for t0, t1, _ in probe.sessions)
    rep["n_sessions"] = len(ms)
    rep["session_ms_p50"] = statistics.median(ms)
    rep["tail_pct"] = tail_percentile(len(ms))
    rep["session_ms_tail"] = percentile(ms, rep["tail_pct"])
    rep["sessions_per_s"] = len(ms) / rep["loop_s"]
    return rep, probe


def measure(req: dict) -> dict:
    """Set up, run the stage, and trace it if asked.

    A session or episode that raises aborts its stage, and with it the
    measurement: the result then holds only the traceback.
    """
    w = Workload(**{**req["workload"], "strategies": tuple(req["workload"]["strategies"])})
    try:
        return measure_stages(w, Path(req["config"]), Path(req["work"]), req)
    except Exception:
        return {"error": traceback.format_exc()}


def measure_stages(w: Workload, config: Path, work: Path, req: dict) -> dict:
    checks = Checks()

    setup = timed_train_setup if w.trains else eval_setup
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = perf()
        setup(config)
        setup_s.append(perf() - t0)

    reps = []
    loop_start = perf()
    while True:
        rep, _ = run_stage(w, config, work / "out", False, checks)
        reps.append(rep)
        elapsed = perf() - loop_start
        if req["trace"] or elapsed + statistics.median(r["wall_s"] for r in reps) > req["seconds"]:
            break
    for rep in reps[1:]:
        checks.check(rep["hashes"] == reps[0]["hashes"], "repeated stage changed its outputs")

    result = {"setup_s": setup_s, "reps": reps}
    if req["trace"]:
        traced, probe = run_stage(w, config, work / "out", True, checks)
        checks.check(traced["hashes"] == reps[0]["hashes"], "traced and untraced outputs differ")
        overhead = traced["wall_s"] - reps[0]["wall_s"]
        result["per_layer"] = layers.per_layer(
            probe, w.jobs, traced["loop_s"], req["fit_s"], overhead, reps[0]["wall_s"]
        )
        result["decide_s_by_strategy"] = layers.decide_by_strategy(probe)
        result["traced_wall_s"] = traced["wall_s"]
        layers.write_spans(probe, work / "spans.npz")

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if w.jobs > 1 else 0
    result["peak_rss_mb"] = (self_kb + child_kb) / 1024.0
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    return result


def main(argv: list[str]) -> int:
    request, result = argv
    req = json.loads(Path(request).read_text())
    Path(result).write_text(json.dumps(measure(req)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
