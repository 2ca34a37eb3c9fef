"""Experiment harness: data ingestion, strategy evaluation, report emission.

An experiment is a cartesian product of strategies and traces. Session
randomness (playlist draw, viewer watch times) is keyed by (seed, trace)
only, so every strategy faces the same viewers on the same traces and QoE
differences are paired. Reports are written with repr-formatted floats so
equal runs produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob as globmod
import itertools
import json
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .demand import fitted_survival
from .media import Trace, VideoMeta, VideoState, WatchRecord
from .policy import (
    LEARNED_STRATEGIES,
    LearnedRangeStrategy,
    MlpNet,
    PolicyConfig,
    Strategy,
    baseline_policy,
    includes_watch_estimates,
    load_checkpoint,
)
from .ppo import EpisodeLog, TrainConfig, train
from .sim import RetentionSource, SimConfig, SessionMetrics, run_session
from .watchtime import LadderMissingError, ParamTable, WeibullParams


class DataError(Exception):
    """Malformed or missing input data (exit code 2)."""


class ConfigError(Exception):
    """Invalid configuration or unusable spec (exit code 1)."""


CATALOG_HEADER = "video_id,duration_s,ladder_mbps"
RETENTION_RECORD_HEADER = "user_id,video_id,duration_s,watch_time_s"
RETENTION_PARAMS_HEADER = "video_id,beta,eta,gamma"
RANGE_HIST_BINS = 24  # range-duration bins per strategy and tercile in range_hist.csv


def _unreadable(path, err: OSError | UnicodeDecodeError) -> DataError:
    if isinstance(err, UnicodeDecodeError):
        return DataError(f"cannot read {path}: not UTF-8 text ({err.reason})")
    return DataError(f"cannot read {path}: {err.strerror or err}")


@contextlib.contextmanager
def _open_data(path):
    """Read an input file; a missing, unreadable or non-UTF-8 one is a
    DataError naming it."""
    try:
        with open(path) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as err:
        raise _unreadable(path, err)


def ingest_traces(pattern: str) -> list[Trace]:
    """Load every trace matching the glob, sorted by filename.

    Each file holds `timestamp_ms,bandwidth_mbps` lines (an optional header
    is skipped), and its stem is the trace id. Raises DataError naming the
    file and line on bad input, and the files of an id the report files
    cannot key a run by: one with a comma or a line break, or a shared one.
    """
    paths = sorted(globmod.glob(pattern))
    if not paths:
        raise DataError(f"no traces match {pattern!r}")
    traces = []
    files: dict[str, str] = {}  # trace id -> the first file with it
    for path in paths:
        stem = Path(path).stem
        if any(c in stem for c in ",\r\n"):
            raise DataError(f"{path}: the trace id {stem!r} has a comma or a line break; rename the file")
        if files.setdefault(stem, path) != path:
            raise DataError(f"{files[stem]} and {path} share the trace id {stem!r}; rename one")
        with _open_data(path) as fh:
            # Split on "\n" alone, as iterating over the file splits it.
            lines = fh.read().split("\n")
        if not lines[-1]:
            del lines[-1]  # the empty rest after the final newline
        columns = _trace_columns(lines) or _scan_trace_lines(path, lines)
        try:
            traces.append(Trace(stem, *columns))
        except ValueError as err:
            _scan_trace_lines(path, lines)  # names the line of a non-finite value
            raise DataError(f"{path}: {err}")
    return traces


def _trace_columns(lines: list[str]) -> tuple[list[float], list[float]] | None:
    """Both columns of a trace file's lines in whole-column passes, or None
    when a line is not a `timestamp_ms,bandwidth_mbps` pair of numbers: a
    header, a blank line or a fault, for `_scan_trace_lines` to read."""
    # A line with no comma or a second one leaves a field `float` rejects.
    pairs = list(map(str.partition, lines, itertools.repeat(",")))
    try:
        stamps = list(map(float, map(operator.itemgetter(0), pairs)))
        levels = list(map(float, map(operator.itemgetter(2), pairs)))
    except ValueError:
        return None
    return stamps, levels


def _scan_trace_lines(path, lines: list[str]) -> tuple[list[float], list[float]]:
    """Both columns of a trace file, line by line; the first bad line is a
    DataError naming the file and line."""
    stamps: list[float] = []
    levels: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            ts, bw = float(parts[0]), float(parts[1])
        except ValueError:
            if lineno == 1:
                continue  # header
            raise DataError(f"{path}:{lineno}: non-numeric fields {raw!r}")
        if not (math.isfinite(ts) and math.isfinite(bw)):
            raise DataError(f"{path}:{lineno}: non-finite fields {raw!r}")
        stamps.append(ts)
        levels.append(bw)
    return stamps, levels


def _read_rows(path, header: str, parse, empty: str) -> list:
    """`parse(*fields)` of every row of a CSV input under `header`.

    A missing file, another header, a wrong field count, a value `parse`
    rejects (ValueError) or no rows at all is a DataError naming the file,
    and the line where there is one.
    """
    n_fields = header.count(",") + 1
    rows = []
    with _open_data(path) as fh:
        found = fh.readline().strip()
        if found != header:
            raise DataError(f"{path}: bad header {found!r}; expected {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(",")
            if len(parts) != n_fields:
                raise DataError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
            try:
                rows.append(parse(*parts))
            except ValueError as err:
                raise DataError(f"{path}:{lineno}: {err}")
    if not rows:
        raise DataError(f"{path}: {empty}")
    return rows


def load_catalog(path) -> list[VideoMeta]:
    """Read videos.csv: video_id,duration_s,ladder_mbps rows with
    ';'-separated ladder rungs."""
    return _read_rows(
        path,
        CATALOG_HEADER,
        lambda vid, d, ladder: VideoMeta(vid, float(d), tuple(float(b) for b in ladder.split(";"))),
        "empty catalog",
    )


def load_watch_records(path) -> list[WatchRecord]:
    return _read_rows(
        path,
        RETENTION_RECORD_HEADER,
        lambda user, vid, d, w: WatchRecord(user, vid, float(d), float(w)),
        "no watch records",
    )


def load_retention(path) -> RetentionSource:
    """Build a retention source from either record shape.

    The header line discriminates: watch records
    (user_id,video_id,duration_s,watch_time_s) become empirical pools per
    video, with `user_id` read and not used; parameter rows
    (video_id,beta,eta,gamma) become per-video distributions.
    """
    with _open_data(path) as fh:
        header = fh.readline().strip()
    if header == RETENTION_RECORD_HEADER:
        pools: dict[str, list[float]] = {}
        for rec in load_watch_records(path):
            pools.setdefault(rec.video_id, []).append(rec.watch_time_s)
        return RetentionSource(empirical=pools)
    if header == RETENTION_PARAMS_HEADER:
        params = _read_rows(
            path,
            header,
            lambda vid, b, e, g: (vid, WeibullParams(float(b), float(e), float(g))),
            "no retention parameters",
        )
        return RetentionSource(params=dict(params))
    raise DataError(
        f"{path}: unrecognized retention header {header!r}; expected "
        f"{RETENTION_RECORD_HEADER!r} or {RETENTION_PARAMS_HEADER!r}"
    )


def load_param_table(path) -> ParamTable:
    """`ParamTable.load`, with a missing or malformed file as a DataError."""
    try:
        return ParamTable.load(path)
    except (OSError, UnicodeDecodeError) as err:
        raise _unreadable(path, err)
    except ValueError as err:  # names the file and line
        raise DataError(str(err))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything an evaluation run needs."""

    strategies: tuple[str, ...]
    traces_glob: str
    videos_path: str
    retention_path: str
    param_table_path: str | None = None
    checkpoint_path: str | None = None
    no_wte_checkpoint_path: str | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    seed: int = 0
    jobs: int = 1


# report.csv's columns in file order: each a RunRecord field of that name,
# with the parser `load_report` reads it with.
REPORT_COLUMNS = (
    ("strategy", str), ("trace_id", str), ("trace_mean_mbps", float), ("qoe", float),
    ("rebuffer_s", float), ("downloaded_bits", float),
    ("watched_bits", float), ("wasted_bits", float), ("waste_ratio", float),
    ("n_actions", int), ("n_swipes", int), ("mean_range_s", float),
)
# actions.csv's columns after `strategy,trace_id`, in file order: each an
# ActionLog field and a key of `RunRecord.actions`, with its parser, which
# is also the column's array dtype.
ACTION_COLUMNS = (
    ("issued_at_s", float), ("video_index", int), ("duration_s", float),
    ("bitrate_mbps", float), ("q_mbps", float), ("reward", float),
)
_REPORT_HEADER = ",".join(name for name, _ in REPORT_COLUMNS)
_ACTIONS_HEADER = "strategy,trace_id," + ",".join(name for name, _ in ACTION_COLUMNS)


@dataclass
class RunRecord:
    """Aggregates of one (strategy, trace) session.

    `actions` maps each ACTION_COLUMNS name to one entry per issued action:
    an array of the column's dtype as `session_record` and `load_report`
    build it, though any sequence of numbers works.
    """

    strategy: str
    trace_id: str
    trace_mean_mbps: float
    qoe: float
    rebuffer_s: float
    downloaded_bits: float
    watched_bits: float
    wasted_bits: float
    waste_ratio: float
    n_actions: int
    n_swipes: int
    mean_range_s: float
    actions: dict[str, np.ndarray] = field(
        default_factory=lambda: {name: np.empty(0, dtype=parse) for name, parse in ACTION_COLUMNS}
    )


@dataclass
class Report:
    """All run records of one experiment plus derived summaries."""

    runs: list[RunRecord]
    strategies: tuple[str, ...]
    seed: int

    def mean_qoe(self, strategy: str) -> float:
        vals = [r.qoe for r in self.runs if r.strategy == strategy]
        return float(np.mean(vals)) if vals else math.nan

    def summary(self) -> dict:
        out: dict = {"seed": self.seed, "strategies": list(self.strategies), "per_strategy": {}}
        for s in self.strategies:
            runs = [r for r in self.runs if r.strategy == s]
            if not runs:
                continue
            out["per_strategy"][s] = {
                "n_runs": len(runs),
                "mean_qoe": float(np.mean([r.qoe for r in runs])),
                "median_qoe": float(np.median([r.qoe for r in runs])),
                "mean_rebuffer_s": float(np.mean([r.rebuffer_s for r in runs])),
                "mean_waste_ratio": float(np.mean([r.waste_ratio for r in runs])),
                "mean_range_s": float(np.mean([r.mean_range_s for r in runs])),
            }
        return out


def session_record(strategy: Strategy, metrics: SessionMetrics, trace: Trace) -> RunRecord:
    log = metrics.actions
    actions = {name: np.array(getattr(log, name), dtype=parse) for name, parse in ACTION_COLUMNS}
    durations = actions["duration_s"]
    return RunRecord(
        strategy=strategy.name,
        trace_id=trace.trace_id,
        trace_mean_mbps=trace.mean_bandwidth_mbps,
        qoe=metrics.qoe,
        rebuffer_s=metrics.total_rebuffer_s,
        downloaded_bits=metrics.downloaded_bits,
        watched_bits=metrics.watched_bits,
        wasted_bits=metrics.wasted_bits,
        waste_ratio=metrics.waste_ratio,
        n_actions=len(log),
        n_swipes=metrics.n_swipes,
        mean_range_s=float(np.mean(durations)) if durations.size else 0.0,
        actions=actions,
    )


def make_playlist_source(
    catalog: list[VideoMeta],
    table: ParamTable | None,
    n_videos: int,
    rng: np.random.Generator,
):
    """Iterator of fresh VideoStates for one session.

    Samples without replacement from the catalog (all of it if smaller) and
    attaches each video's watch-time estimate (`ParamTable.fused`) when a
    table is present.
    """
    n = min(n_videos, len(catalog))
    order = rng.choice(len(catalog), size=n, replace=False)
    for idx in order:
        meta = catalog[int(idx)]
        params = None
        if table is not None:
            try:
                params = table.fused(meta.video_id, meta.duration_s)
            except LadderMissingError as err:
                raise DataError(str(err))
        yield VideoState(meta=meta, watch_params=params)


def simulate_one(
    strategy: Strategy,
    trace: Trace,
    key: tuple[int, int],
    catalog: list[VideoMeta],
    table: ParamTable | None,
    retention: RetentionSource,
    sim_cfg: SimConfig,
) -> SessionMetrics:
    """Run one session with its randomness keyed by `key` only.

    `key` is (seed, trace index) in evaluation and (seed, episode) in
    training.
    """
    playlist_rng = np.random.default_rng(np.random.SeedSequence(entropy=(*key, 11)))
    source = make_playlist_source(catalog, table, sim_cfg.videos_per_session, playlist_rng)
    return run_session(trace, source, retention, strategy, sim_cfg, seed=(*key, 13))


def _worker(args) -> RunRecord:
    strategy, trace = args[:2]
    return session_record(strategy, simulate_one(*args), trace)


def build_strategies(spec: ExperimentSpec) -> list[Strategy]:
    """Resolve strategy names, loading checkpoints where needed.

    Fails fast (ConfigError) before any simulation when a learned strategy
    lacks its checkpoint, when `sim.b_max_s` is not above a strategy's issue
    floor (a learned one's is the `range_min_s` its checkpoint was trained
    with), or when a strategy on fitted survival lacks the parameter table.
    """
    strategies: list[Strategy] = []
    for name in spec.strategies:
        net = path = None
        if name in LEARNED_STRATEGIES:
            key = "checkpoint_path" if includes_watch_estimates(name) else "no_wte_checkpoint_path"
            path = getattr(spec, key)
            if not path:
                raise ConfigError(f"strategy {name!r} needs {key}")
            net = _load_net(path)
        try:
            strategy = baseline_policy(name, net)
        except ValueError as err:
            raise ConfigError(str(err))
        _check_issue_floor(strategy, spec.sim.b_max_s, f" from checkpoint {path}" if path else "")
        strategies.append(strategy)
    fitted = [s.name for s in strategies if s.survival is fitted_survival]
    if fitted and not spec.param_table_path:
        raise ConfigError(f"strategies {fitted} need param_table_path")
    return strategies


def _check_issue_floor(strategy: Strategy, b_max_s: float, source: str = "") -> None:
    """Reject a B_max at or below the strategy's issue floor: no video would
    ever have room for a task, and every session would stall until
    `max_session_s`. `source` names where the floor comes from."""
    if b_max_s <= strategy.floor_s:
        raise ConfigError(
            f"sim.b_max_s: {b_max_s} is not above the issue floor ({strategy.floor_s}) "
            f"of strategy {strategy.name!r}{source}; it would never download"
        )


def _load_net(path) -> MlpNet:
    try:
        return load_checkpoint(path)
    except OSError as err:
        raise ConfigError(f"cannot read checkpoint {path}: {err}")
    except UnicodeDecodeError as err:
        raise _unreadable(path, err)
    except ValueError as err:  # names the file and line
        raise DataError(str(err))


def train_policy(
    traces: list[Trace],
    catalog: list[VideoMeta],
    retention: RetentionSource,
    table: ParamTable | None,
    policy_cfg: PolicyConfig,
    train_cfg: TrainConfig,
    sim_cfg: SimConfig,
    seed: int,
) -> tuple[MlpNet, list[EpisodeLog]]:
    """Train a fresh range policy on the given traces.

    Each episode is a `simulate_one` session keyed by (seed, episode), so
    repeated runs reproduce the same learning curve exactly. A
    `sim_cfg.b_max_s` at or below `policy_cfg.range_min_s` is a ConfigError.
    """
    net = MlpNet.create(policy_cfg, seed)
    _check_issue_floor(LearnedRangeStrategy("deload-train", net), sim_cfg.b_max_s, " from policy.range_min_s")
    session = functools.partial(
        simulate_one, catalog=catalog, table=table, retention=retention, sim_cfg=sim_cfg
    )
    return train(net, traces, session, train_cfg, seed)


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the OS, where glibc allows it.

    Pool workers fork from this process and start with every page it holds
    resident, freed or not. Without the trim a worker's footprint grows with
    whatever earlier work in this process left fragmented in the heap.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return
    trim(0)


def run_experiment(spec: ExperimentSpec, out_dir) -> Report:
    """Evaluate every strategy on every trace and write the report files."""
    traces = ingest_traces(spec.traces_glob)
    catalog = load_catalog(spec.videos_path)
    retention = load_retention(spec.retention_path)
    table = load_param_table(spec.param_table_path) if spec.param_table_path else None
    strategies = build_strategies(spec)

    tasks = [
        (strategy, trace, (spec.seed, ti), catalog, table, retention, spec.sim)
        for strategy in strategies
        for ti, trace in enumerate(traces)
    ]
    if spec.jobs > 1:
        _release_free_heap()
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            runs = list(pool.map(_worker, tasks, chunksize=8))
    else:
        runs = [_worker(t) for t in tasks]

    report = Report(runs=runs, strategies=tuple(s.name for s in strategies), seed=spec.seed)
    write_report(report, out_dir)
    return report


def write_report(report: Report, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # `str` of a float is its `repr`, which reads back to the same float.
    report_row = operator.attrgetter(*(name for name, _ in REPORT_COLUMNS))
    with open(out / "report.csv", "w") as fh:
        fh.write(_REPORT_HEADER + "\n")
        for r in report.runs:
            fh.write(",".join(map(str, report_row(r))) + "\n")
    with open(out / "actions.csv", "w") as fh:
        fh.write(_ACTIONS_HEADER + "\n")
        for r in report.runs:
            columns = (np.asarray(r.actions[name]).tolist() for name, _ in ACTION_COLUMNS)
            for t, vi, d, b, q, rew in zip(*columns):
                fh.write(f"{r.strategy},{r.trace_id},{t!r},{vi},{d!r},{b!r},{q!r},{rew!r}\n")
    with open(out / "summary.json", "w") as fh:
        json.dump(report.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(run_dir) -> Report:
    """Rebuild a Report from the report.csv, actions.csv and summary.json
    that write_report wrote. A missing or malformed file is a DataError
    naming it, and the line where there is one.
    """
    run = Path(run_dir)
    runs = _read_rows(
        run / "report.csv",
        _REPORT_HEADER,
        lambda *fields: RunRecord(**{name: parse(f) for (name, parse), f in zip(REPORT_COLUMNS, fields)}),
        "no runs",
    )
    _load_actions(run / "actions.csv", {(r.strategy, r.trace_id): r for r in runs})
    path = run / "summary.json"
    with _open_data(path) as fh:
        try:
            seed = int(json.load(fh)["seed"])
        except (KeyError, TypeError, ValueError) as err:
            raise DataError(f"{path}: malformed report: no seed ({err})")
    return Report(runs=runs, strategies=tuple(dict.fromkeys(r.strategy for r in runs)), seed=seed)


def _load_actions(path, runs: dict[tuple[str, str], RunRecord]) -> None:
    """Fill the `actions` of `runs`, keyed by (strategy, trace_id), from
    actions.csv.

    The file is streamed: each run's rows become its action arrays when
    they end, so only one run's rows are held as Python objects at a time.
    A row of another width than the header, a run that report.csv lacks,
    or one with other than `n_actions` rows is a DataError naming the file.
    """
    width = _ACTIONS_HEADER.count(",") + 1
    with _open_data(path) as fh:
        found = fh.readline().rstrip("\n")
        if found != _ACTIONS_HEADER:
            raise DataError(f"{path}: bad header {found!r}; expected {_ACTIONS_HEADER!r}")
        rows = map(str.split, map(str.rstrip, fh), itertools.repeat(","))
        end = 2  # the line after the rows read so far
        for key, group in itertools.groupby(rows, key=operator.itemgetter(slice(0, 2))):
            group = list(group)
            start, end = end, end + len(group)
            if key == [""]:
                continue  # blank lines
            if set(map(len, group)) != {width}:
                at = next(i for i, row in enumerate(group) if len(row) != width)
                raise DataError(f"{path}:{start + at}: malformed report row: expected {width} fields")
            rec = runs.get(tuple(key))
            if rec is None:
                raise DataError(f"{path}:{start}: malformed report: no run {','.join(key)} in report.csv")
            try:
                rec.actions = {
                    name: np.append(rec.actions[name], [parse(row[at]) for row in group])
                    for at, (name, parse) in enumerate(ACTION_COLUMNS, start=2)
                }
            except ValueError as err:
                raise DataError(f"{path}:{start}-{end - 1}: malformed report rows: {err}")
    for rec in runs.values():
        if len(rec.actions["issued_at_s"]) != rec.n_actions:
            raise DataError(
                f"{path}: malformed report: {len(rec.actions['issued_at_s'])} action rows for run "
                f"{rec.strategy},{rec.trace_id}, whose n_actions is {rec.n_actions}"
            )


def _pooled(columns) -> np.ndarray:
    """One float64 array of per-run action columns, in run order."""
    parts = [np.asarray(c, dtype=np.float64) for c in columns]
    return np.concatenate(parts) if parts else np.empty(0)


def range_medians_by_trace_tercile(report: Report, strategy: str) -> dict[str, float]:
    """Median issued range duration pooled over traces grouped into
    throughput terciles (by per-trace mean bandwidth)."""
    runs = [r for r in report.runs if r.strategy == strategy]
    if not runs:
        raise ValueError(f"no runs for strategy {strategy!r}")
    runs.sort(key=lambda r: (r.trace_mean_mbps, r.trace_id))
    groups = np.array_split(np.arange(len(runs)), 3)
    out: dict[str, float] = {}
    for name, idxs in zip(("low", "mid", "high"), groups):
        durations = _pooled(runs[int(i)].actions["duration_s"] for i in idxs)
        out[name] = float(np.median(durations)) if durations.size else math.nan
    return out


def emit_plots_data(report: Report, out_dir) -> None:
    """Write plot-ready CSVs: QoE CDFs, rebuffer/waste scatter, and
    range-duration histograms bucketed by per-action throughput tercile."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "qoe_cdf.csv", "w") as fh:
        fh.write("strategy,qoe,cdf\n")
        for s in report.strategies:
            vals = sorted(r.qoe for r in report.runs if r.strategy == s)
            for i, v in enumerate(vals):
                fh.write(f"{s},{v!r},{(i + 1) / len(vals)!r}\n")

    with open(out / "rebuffer_waste.csv", "w") as fh:
        fh.write("strategy,trace_id,rebuffer_s,waste_ratio\n")
        for r in report.runs:
            fh.write(f"{r.strategy},{r.trace_id},{r.rebuffer_s!r},{r.waste_ratio!r}\n")

    with open(out / "range_hist.csv", "w") as fh:
        fh.write("strategy,tercile,bin_lo,bin_hi,count,density\n")
        for s in report.strategies:
            runs = [r for r in report.runs if r.strategy == s]
            q_arr = _pooled(r.actions["q_mbps"] for r in runs)
            d_arr = _pooled(r.actions["duration_s"] for r in runs)
            if not q_arr.size:
                continue
            q33, q67 = np.quantile(q_arr, [1.0 / 3.0, 2.0 / 3.0])
            # Every action lands in exactly one tercile.
            bins_by_name = {
                "low": q_arr <= q33,
                "mid": (q_arr > q33) & (q_arr <= q67),
                "high": q_arr > q67,
            }
            edges = np.linspace(float(d_arr.min()), float(d_arr.max()) + 1e-9, RANGE_HIST_BINS + 1)
            width = edges[1] - edges[0]
            for name, mask in bins_by_name.items():
                sel = d_arr[mask]
                counts, _ = np.histogram(sel, bins=edges)
                total = max(int(sel.size), 1)
                for lo, hi, c in zip(edges[:-1], edges[1:], counts):
                    fh.write(
                        f"{s},{name},{float(lo)!r},{float(hi)!r},{int(c)},"
                        f"{float(c / (total * width))!r}\n"
                    )
