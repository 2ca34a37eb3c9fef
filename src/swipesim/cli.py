"""Command-line entry points.

    swipesim gen-synthetic --out DIR [--seed N] [--traces N] [--videos N]
    swipesim fit --config FILE [--out PATH]
    swipesim train --config FILE [--variant deload|deload_no_wte] [--seed N] [--out PATH]
    swipesim simulate --config FILE --out DIR [--seed N] [--jobs N]
    swipesim report --run DIR [--out DIR]

Exit codes: 0 success, 1 usage or configuration error, 2 malformed or
missing data, 3 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import experiment_spec, load_config
from .harness import (
    ConfigError,
    DataError,
    ingest_traces,
    load_catalog,
    load_param_table,
    load_retention,
    load_watch_records,
    run_experiment,
    train_policy,
    load_report,
    emit_plots_data,
    range_medians_by_trace_tercile,
)
from .policy import LEARNED_STRATEGIES, includes_watch_estimates, save_checkpoint
from .ppo import write_learning_curve
from .synthetic import SyntheticSpec, write_suite
from .watchtime import build_param_table


class UsageError(Exception):
    """Bad command line (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for data errors
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swipesim", description="Short-video preloading simulator.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-synthetic", parents=[], help="generate a synthetic trace/catalog suite")
    p.add_argument("--out", required=True, help="suite output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--traces", type=int, default=None, help="number of network traces")
    p.add_argument("--videos", type=int, default=None, help="catalog size")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("fit", help="fit watch-time distributions from watch records")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="parameter table path (default: paths.param_table)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("train", help="train the range policy")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", choices=LEARNED_STRATEGIES, default="deload")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="checkpoint path (default: from paths section)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="evaluate strategies over the trace suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--jobs", type=int, default=None, help="parallel worker processes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--run", required=True, help="directory written by simulate")
    p.add_argument("--out", default=None, help="also write plot-ready CSVs here")
    p.set_defaults(func=cmd_report)
    return parser


GENERATED_CONFIG = """\
# Desk-scale experiment over the synthetic suite in this directory.
# fit -> train (x2 variants) -> simulate -> report, all against these paths.
seed: {seed}
jobs: 1
strategies: [deload, deload_no_wte, deload_1s, deload_5s, naive_1s]

paths:
  traces_glob: traces/*.csv
  videos: videos.csv
  retention: retention_params.csv
  watch_records: watch_records.csv
  param_table: param_table.csv
  checkpoint: checkpoints/deload.ckpt
  no_wte_checkpoint: checkpoints/deload_no_wte.ckpt

# The reference learning rate (1e-6) moves too slowly for a desk run;
# this override trains in minutes on one core.
train:
  lr: 0.0003
  episodes: 360
  batch_episodes: 8
"""


def cmd_gen_synthetic(args) -> int:
    spec = SyntheticSpec()
    overrides = {}
    if args.traces is not None:
        overrides["n_traces"] = args.traces
    if args.videos is not None:
        overrides["n_videos"] = args.videos
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    manifest = write_suite(spec, args.out, seed=args.seed)
    cfg_path = Path(args.out) / "config.yaml"
    cfg_path.write_text(GENERATED_CONFIG.format(seed=args.seed))
    print(f"wrote suite to {args.out} ({manifest['n_traces']} traces, {manifest['n_videos']} videos)")
    print(f"wrote {cfg_path}")
    print(f"next: swipesim fit --config {cfg_path}")
    return 0


def _check_output(path, is_dir: bool = False) -> Path:
    """`path` as a Path, unless the command could only fail to write it
    after its work: a directory where a file goes, a file where a directory
    goes, or a file where one of its parent directories goes."""
    path = Path(path)
    if path.exists() and path.is_dir() != is_dir:
        raise UsageError(f"output {path} is {'a file' if is_dir else 'a directory'}")
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise UsageError(f"output {path}: {parent} is not a directory")
            break
    return path


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    if not cfg.paths.watch_records:
        raise ConfigError("fit needs paths.watch_records")
    out = args.out or cfg.paths.param_table
    if not out:
        raise ConfigError("fit needs --out or paths.param_table")
    out = _check_output(out)
    records = load_watch_records(cfg.paths.watch_records)
    table = build_param_table(records, cfg.fit)
    out.parent.mkdir(parents=True, exist_ok=True)
    table.save(out)
    print(
        f"fitted {len(table.video)} video and {len(table.ladder)} duration-bucket groups "
        f"from {len(records)} records"
    )
    for dim, counter in table.failures.items():
        for reason, n in sorted(counter.items()):
            print(f"  {dim}: {n} group(s) dropped ({reason})")
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    with_wte = includes_watch_estimates(args.variant)
    out = args.out or (cfg.paths.checkpoint if with_wte else cfg.paths.no_wte_checkpoint)
    if not out:
        raise ConfigError(f"train needs --out or a configured checkpoint path for {args.variant}")
    out_path = _check_output(out)
    curve_path = _check_output(out_path.with_name(out_path.stem + "_curve.csv"))

    traces = ingest_traces(cfg.paths.traces_glob)
    catalog = load_catalog(cfg.paths.videos)
    retention = load_retention(cfg.paths.retention)
    table = load_param_table(cfg.paths.param_table, catalog) if cfg.paths.param_table else None
    if with_wte and table is None:
        raise ConfigError("variant 'deload' needs paths.param_table (run fit first)")
    policy_cfg = dataclasses.replace(cfg.policy, include_watch_estimates=with_wte)

    net, logs = train_policy(
        traces, catalog, retention, table, policy_cfg, cfg.train, cfg.sim, seed
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(net, out_path)
    write_learning_curve(logs, curve_path)

    n = len(logs)
    print(f"trained {args.variant} for {n} episodes (seed {seed})")
    if n:
        head = max(1, n // 10)
        first = sum(l.mean_reward for l in logs[:head]) / head
        last = sum(l.mean_reward for l in logs[-head:]) / head
        print(f"episode reward: first {head} mean {first:.3f}, last {head} mean {last:.3f}")
    print(f"wrote {out_path} and {curve_path}")
    return 0


def cmd_simulate(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise UsageError(f"--jobs: expected at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    spec = experiment_spec(cfg, seed=args.seed, jobs=args.jobs)
    report = run_experiment(spec, _check_output(args.out, is_dir=True))
    summary = report.summary()
    for name in summary["strategies"]:
        row = summary["per_strategy"][name]
        print(
            f"{name:>14}: mean QoE {row['mean_qoe']:9.3f}  "
            f"rebuffer {row['mean_rebuffer_s']:6.2f}s  waste {row['mean_waste_ratio']:.3f}  "
            f"range {row['mean_range_s']:.2f}s"
        )
    print(f"wrote report to {args.out}")
    return 0


def cmd_report(args) -> int:
    report = load_report(args.run)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    for name in report.strategies:
        if name in LEARNED_STRATEGIES:
            med = range_medians_by_trace_tercile(report, name)
            print(
                f"{name} median range by trace-throughput tercile: "
                f"low {med['low']:.2f}s  mid {med['mid']:.2f}s  high {med['high']:.2f}s"
            )
    if args.out:
        emit_plots_data(report, args.out)
        print(f"wrote plot data to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as err:  # anything unexpected is an internal failure
        print(f"internal error: {err!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
