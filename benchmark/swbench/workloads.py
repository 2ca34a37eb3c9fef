"""The benchmark's workloads and the seeded inputs each one runs on.

The seed drives the network. Every run generates its traces with
``swipesim.synthetic.write_suite`` from the benchmark's seed; the content
(catalog, watch logs, ground-truth retention) and the program's own seed,
which draws each session's playlist and viewer, come from a fixed
reference seed.

Both choices keep a run's total work steady from seed to seed. Session
cost is heavy-tailed: on traces whose bandwidth sits below the lowest
bitrate rung, reward attribution rescans the whole event log for every
action, so a session costs the square of its length. With the content and
the viewers drawn per seed, the few longest starved sessions swing a run's
work by a quarter from seed to seed. So the content and the viewers are
common to all seeds, and the traces are stratified: the suite is generated
with ``POOL_FACTOR`` times the traces a workload needs, and per trace shape
the benchmark keeps the trace whose mean bandwidth is nearest each of a
fixed set of targets, evenly spaced in probability under the law
``write_suite`` draws from. Files are named by target, so the trace at each
index -- and with it the viewer keyed by that index -- has nearly the same
bandwidth for every seed. Targets rather than ranks: the bandwidth at a
given rank of a random pool moves by about a tenth from seed to seed,
enough to carry a session across a bitrate rung and change its cost
several-fold, while the trace nearest a fixed target moves by about a
hundredth. Starved traces stay in every suite at their natural share.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from swipesim import harness
from swipesim.policy import PolicyConfig, save_checkpoint
from swipesim.ppo import TrainConfig
from swipesim.sim import SimConfig
from swipesim.synthetic import SyntheticSpec, write_suite
from swipesim.watchtime import FitConfig, build_param_table

LEARNED = ("deload", "deload_no_wte")
TRACE_SHAPES = ("const", "square", "walk")
POOL_FACTOR = 10
REFERENCE_SEED = 0
# Checkpoints for the learned strategies: a short seeded run, two updates.
CHECKPOINT_EPISODES = 16
# The learning rate the generated config uses; the built-in 1e-6 barely moves.
TRAIN_LR = 0.0003
BATCH_EPISODES = 8


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the stage that runs on it.

    Evaluation workloads list `strategies`; `train` lists none and runs
    `episodes` training episodes instead.
    """

    name: str
    n_traces: int
    strategies: tuple[str, ...] = ()
    jobs: int = 1
    episodes: int = 0
    report_stage: bool = False

    @property
    def trains(self) -> bool:
        return not self.strategies

    @property
    def learned(self) -> tuple[str, ...]:
        return tuple(s for s in self.strategies if s in LEARNED)

    @property
    def n_sessions(self) -> int:
        return self.episodes if self.trains else len(self.strategies) * self.n_traces


# Why each workload exists, and the layer it isolates: README.md, BENCHMARK.json.
# Each stage takes 10 to 26 s on a shared 2-core x86-64 VM. eval-all-j2 runs
# the most sessions: with both cores busy it is the most exposed to host
# noise, so its suite is sized to average the most seed-to-seed difference
# in the cost of starved sessions into one stage.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-fixed", n_traces=90, strategies=("naive_1s", "deload_1s", "deload_5s")),
        Workload("eval-learned", n_traces=120, strategies=LEARNED),
        Workload("train", n_traces=45, episodes=240),
        Workload(
            "eval-all-j2",
            n_traces=120,
            strategies=("deload", "deload_no_wte", "deload_1s", "deload_5s", "naive_1s"),
            jobs=2,
            report_stage=True,
        ),
    )
}


@dataclass(frozen=True)
class Prepared:
    """A generated suite with its config, ready for the measured stage."""

    config: Path
    fit_s: float
    checkpoints: tuple[Path, ...]


CONFIG = """\
seed: {seed}
jobs: {jobs}
strategies: [{strategies}]
paths:
  traces_glob: traces/*.csv
  videos: videos.csv
  retention: retention_params.csv
  watch_records: watch_records.csv
  param_table: param_table.csv
  checkpoint: checkpoints/deload.ckpt
  no_wte_checkpoint: checkpoints/deload_no_wte.ckpt
train:
  lr: {lr}
  episodes: {episodes}
  batch_episodes: {batch}
"""


def keep_stratified(traces, n_keep: int) -> list:
    """Per trace shape, the traces nearest evenly spaced bandwidth targets.

    The targets are the midpoints of `n_keep / 3` equal-probability bins of
    the log-uniform law `write_suite` draws mean bandwidths from. Ordered by
    target, then shape.
    """
    if n_keep % len(TRACE_SHAPES):
        raise ValueError(f"n_traces must be a multiple of {len(TRACE_SHAPES)}, got {n_keep}")
    per_shape = n_keep // len(TRACE_SHAPES)
    spec = SyntheticSpec()
    lo, hi = math.log(spec.bw_lo_mbps), math.log(spec.bw_hi_mbps)
    targets = [lo + (2 * j + 1) / (2 * per_shape) * (hi - lo) for j in range(per_shape)]
    kept = []
    for shape in TRACE_SHAPES:
        pool = sorted((t for t in traces if t.trace_id.startswith(shape + "-")), key=lambda t: t.trace_id)
        chosen = []
        for target in targets:
            best = min(pool, key=lambda t: abs(math.log(t.mean_bandwidth_mbps) - target))
            pool.remove(best)
            chosen.append(best)
        kept.append(chosen)
    return [kept[k][j] for j in range(per_shape) for k in range(len(TRACE_SHAPES))]


def prepare(w: Workload, seed: int, root: Path) -> Prepared:
    """Generate `w`'s suite under `root`, fit it, and write its config.

    Learned strategies get checkpoints from a short seeded training run.
    """
    root = Path(root)
    pool = root / "pool"
    write_suite(dataclasses.replace(SyntheticSpec(), n_traces=1), root, REFERENCE_SEED)
    # Only the pool's traces are used; one video keeps its content cheap.
    pool_spec = dataclasses.replace(
        SyntheticSpec(), n_traces=POOL_FACTOR * w.n_traces, n_videos=1, records_per_video=1
    )
    write_suite(pool_spec, pool, seed)
    shutil.rmtree(root / "traces")
    (root / "traces").mkdir()
    for index, t in enumerate(keep_stratified(harness.ingest_traces(str(pool / "traces" / "*.csv")), w.n_traces)):
        shutil.copyfile(pool / "traces" / f"{t.trace_id}.csv", root / "traces" / f"{index:03d}-{t.trace_id}.csv")
    shutil.rmtree(pool)

    records = harness.load_watch_records(root / "watch_records.csv")
    t0 = time.perf_counter()
    table = build_param_table(records, FitConfig())
    fit_s = time.perf_counter() - t0
    table.save(root / "param_table.csv")

    checkpoints = []
    if w.learned:
        (root / "checkpoints").mkdir(exist_ok=True)
        traces = harness.ingest_traces(str(root / "traces" / "*.csv"))
        catalog = harness.load_catalog(root / "videos.csv")
        retention = harness.load_retention(root / "retention_params.csv")
        train_cfg = TrainConfig(lr=TRAIN_LR, episodes=CHECKPOINT_EPISODES, batch_episodes=BATCH_EPISODES)
        for name in w.learned:
            policy_cfg = PolicyConfig(include_watch_estimates=(name == "deload"))
            net, _ = harness.train_policy(
                traces, catalog, retention, table, policy_cfg, train_cfg, SimConfig(), REFERENCE_SEED
            )
            path = root / "checkpoints" / f"{name}.ckpt"
            save_checkpoint(net, path)
            checkpoints.append(path)

    config = root / "config.yaml"
    config.write_text(
        CONFIG.format(
            seed=REFERENCE_SEED,
            jobs=w.jobs,
            strategies=", ".join(w.strategies or ("deload",)),
            lr=TRAIN_LR,
            episodes=w.episodes or CHECKPOINT_EPISODES,
            batch=BATCH_EPISODES,
        )
    )
    return Prepared(config=config, fit_s=fit_s, checkpoints=tuple(checkpoints))
