import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from conftest import flat_trace
from swipesim import harness
from swipesim.cli import main as cli_main
from swipesim.config import experiment_spec, load_config
from swipesim.harness import (
    ConfigError,
    DataError,
    ExperimentSpec,
    Report,
    RunRecord,
    build_strategies,
    emit_plots_data,
    ingest_traces,
    load_catalog,
    load_report,
    load_retention,
    load_watch_records,
    range_medians_by_trace_tercile,
    run_experiment,
    session_record,
    write_report,
)
from swipesim.media import Trace
from swipesim.policy import LearnedRangeStrategy, MlpNet, PolicyConfig, save_checkpoint
from swipesim.sim import ActionLog, SessionMetrics
from swipesim.watchtime import WeibullParams


# --- trace ingestion ---------------------------------------------------------


def test_ingest_traces_sorts_by_name_and_skips_header(tmp_path):
    (tmp_path / "b.csv").write_text("timestamp_ms,bandwidth_mbps\n0,1.5\n1000,2.5\n")
    (tmp_path / "a.csv").write_text("0,3.0\n500,1.0\n")
    traces = ingest_traces(str(tmp_path / "*.csv"))
    assert [t.trace_id for t in traces] == ["a", "b"]
    assert traces[1].timestamps_ms == [0.0, 1000.0]
    assert traces[1].bandwidth_mbps == [1.5, 2.5]


def test_ingest_traces_rejects_non_monotone_timestamps(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1.0\n1000,2.0\n500,1.0\n")
    with pytest.raises(DataError, match="bad.csv"):
        ingest_traces(str(p))


def test_ingest_traces_empty_glob(tmp_path):
    with pytest.raises(DataError, match="no traces match"):
        ingest_traces(str(tmp_path / "*.csv"))


def test_ingest_traces_bad_rows_name_the_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("0,1.0\n100,2.0,9\n")
    with pytest.raises(DataError, match=r"t\.csv:2: expected 2 fields"):
        ingest_traces(str(p))
    p.write_text("0,1.0\nabc,def\n")
    with pytest.raises(DataError, match=r"t\.csv:2"):
        ingest_traces(str(p))


def _line_by_line_ingest(path):
    """`ingest_traces` of one file as it read every file before its
    whole-column parse: the columns of the Trace it builds, or the
    DataError's text."""
    stamps, levels = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(",")
            if len(parts) != 2:
                return f"{path}:{lineno}: expected 2 fields, got {len(parts)}"
            try:
                ts, bw = float(parts[0]), float(parts[1])
            except ValueError:
                if lineno == 1:
                    continue  # header
                return f"{path}:{lineno}: non-numeric fields {raw!r}"
            stamps.append(ts)
            levels.append(bw)
    try:
        trace = Trace(Path(path).stem, stamps, levels)
    except ValueError as err:
        return f"{path}: {err}"
    return trace.timestamps_ms, trace.bandwidth_mbps


_trace_lines = st.one_of(
    st.tuples(st.integers(0, 9), st.sampled_from(["1.5", " 2", "0", "7e-1 ", "-1", "x", ""])).map(
        lambda p: f"{p[0] * 1000},{p[1]}"
    ),
    st.sampled_from(["timestamp_ms,bandwidth_mbps", "", "  ", "\t", "5000", "5000,1,2", ",", "6000 ,1.0", "1,2 3,4"]),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_trace_lines, max_size=8), final_newline=st.booleans())
@example(lines=["timestamp_ms,bandwidth_mbps", "0,1.5", "1000,2.5"], final_newline=True)
@example(lines=["0,1.5", "", "1000,2.5"], final_newline=False)
@example(lines=["1,2 3,4"], final_newline=True)
def test_ingest_traces_matches_the_line_by_line_reader(lines, final_newline):
    """Whole-column parsing gives the columns, or the DataError text with
    its file and line, that reading line by line gives."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
        want = _line_by_line_ingest(path)
        try:
            trace = ingest_traces(str(path))[0]
        except DataError as err:
            assert str(err) == want
        else:
            assert (trace.timestamps_ms, trace.bandwidth_mbps) == want


# --- catalog and watch records ---------------------------------------------


def test_load_catalog(tmp_path):
    p = tmp_path / "videos.csv"
    p.write_text("video_id,duration_s,ladder_mbps\nv0,12.5,0.5;1.5;3.0\n")
    cat = load_catalog(p)
    assert cat[0].video_id == "v0"
    assert cat[0].bitrate_ladder == (0.5, 1.5, 3.0)

    p.write_text("wrong,header\nv0,12.5,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_catalog(p)
    p.write_text("video_id,duration_s,ladder_mbps\nv0,12.5\n")
    with pytest.raises(DataError, match=":2"):
        load_catalog(p)
    p.write_text("video_id,duration_s,ladder_mbps\n")
    with pytest.raises(DataError, match="empty"):
        load_catalog(p)


def test_load_watch_records(tmp_path):
    p = tmp_path / "records.csv"
    p.write_text("user_id,video_id,duration_s,watch_time_s\nu1,v1,30,12.5\n")
    recs = load_watch_records(p)
    assert (recs[0].user_id, recs[0].watch_time_s) == ("u1", 12.5)

    p.write_text("nope\nu1,v1,30,12.5\n")
    with pytest.raises(DataError, match="header"):
        load_watch_records(p)
    p.write_text("user_id,video_id,duration_s,watch_time_s\nu1,v1,30\n")
    with pytest.raises(DataError, match=":2"):
        load_watch_records(p)
    p.write_text("user_id,video_id,duration_s,watch_time_s\nu1,v1,thirty,1\n")
    with pytest.raises(DataError, match=":2"):
        load_watch_records(p)


def test_load_retention_discriminates_on_header(tmp_path):
    rec = tmp_path / "rec.csv"
    rec.write_text("user_id,video_id,duration_s,watch_time_s\nu1,v1,30,5\nu2,v1,30,7\n")
    src = load_retention(rec)
    assert list(src.empirical["v1"]) == [5.0, 7.0]

    par = tmp_path / "par.csv"
    par.write_text("video_id,beta,eta,gamma\nv1,1.5,8.0,1.0\n")
    src = load_retention(par)
    assert src.params["v1"] == WeibullParams(1.5, 8.0, 1.0)

    bad = tmp_path / "bad.csv"
    bad.write_text("something,else\n")
    with pytest.raises(DataError, match="unrecognized retention header"):
        load_retention(bad)


# --- config loading -----------------------------------------------------------


def _write_cfg(tmp_path, text, name="config.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_config_empty_file_gives_defaults(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, ""))
    assert cfg.strategies == ("deload", "deload_1s", "naive_1s")
    assert cfg.seed == 0 and cfg.jobs == 1
    assert cfg.sim.b_max_s == 10.0


def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        load_config(_write_cfg(tmp_path, "bogus: 1\n"))
    with pytest.raises(ConfigError, match=r"sim.*not_a_knob"):
        load_config(_write_cfg(tmp_path, "sim:\n  not_a_knob: 1\n"))


def test_load_config_rejects_wrong_types(tmp_path):
    with pytest.raises(ConfigError, match="sim.b_max_s"):
        load_config(_write_cfg(tmp_path, "sim:\n  b_max_s: ten\n"))
    with pytest.raises(ConfigError, match="seed"):
        load_config(_write_cfg(tmp_path, "seed: true\n"))
    with pytest.raises(ConfigError, match="train.lr"):
        load_config(_write_cfg(tmp_path, "train:\n  lr: yes\n"))


def test_load_config_reads_yaml_1_2_floats(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, "train:\n  lr: 3e-4\nreward:\n  waste_clip_bits: 1.2e6\n"))
    assert cfg.train.lr == 3e-4
    assert cfg.sim.reward.waste_clip_bits == 1.2e6
    with pytest.raises(ConfigError, match=r"reward.waste_clip_bits: expected a number, got '1e6x'"):
        load_config(_write_cfg(tmp_path, "reward:\n  waste_clip_bits: 1e6x\n"))
    # PyYAML's own loaders still read YAML 1.1.
    assert yaml.safe_load("lr: 3e-4") == {"lr": "3e-4"}


def test_load_config_reward_section_lands_in_sim(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, "reward:\n  alpha: 0.5\n"))
    assert cfg.sim.reward.alpha == 0.5
    assert cfg.sim.reward.stall_beta == 1.85


def test_load_config_rejects_unknown_strategy(tmp_path):
    with pytest.raises(ConfigError, match="warp"):
        load_config(_write_cfg(tmp_path, "strategies: [warp]\n"))
    with pytest.raises(ConfigError, match="non-empty"):
        load_config(_write_cfg(tmp_path, "strategies: []\n"))


@pytest.mark.parametrize(
    "name", ["deload_0s", "deload_-1s", "deload_nans", "deload_infs", "deload_1e3s", "deload_1", "deload_s"]
)
def test_load_config_rejects_malformed_fixed_ranges(tmp_path, name):
    with pytest.raises(ConfigError, match=re.escape(repr(name))):
        load_config(_write_cfg(tmp_path, f"strategies: [{name}]\n"))


def test_load_config_accepts_any_positive_fixed_range(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, "strategies: [deload_0.5s, deload_8s, deload_no_wte]\n"))
    assert cfg.strategies == ("deload_0.5s", "deload_8s", "deload_no_wte")


def test_load_config_resolves_paths_against_config_dir(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    cfg = load_config(_write_cfg(sub, "paths:\n  videos: videos.csv\n  retention: /abs/r.csv\n"))
    assert cfg.paths.videos == str(sub / "videos.csv")
    assert cfg.paths.retention == "/abs/r.csv"


def test_experiment_spec_requires_input_paths(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, ""))
    with pytest.raises(ConfigError, match="traces_glob"):
        experiment_spec(cfg)
    cfg = load_config(_write_cfg(tmp_path, "paths:\n  traces_glob: 't/*.csv'\n"))
    with pytest.raises(ConfigError, match="videos"):
        experiment_spec(cfg)
    cfg = load_config(
        _write_cfg(
            tmp_path,
            "paths:\n  traces_glob: 't/*.csv'\n  videos: v.csv\n  retention: r.csv\n"
            "seed: 5\njobs: 2\n",
        )
    )
    spec = experiment_spec(cfg)
    assert (spec.seed, spec.jobs) == (5, 2)
    spec = experiment_spec(cfg, seed=9, jobs=4)
    assert (spec.seed, spec.jobs) == (9, 4)


# --- strategy resolution ------------------------------------------------------


def _spec(tmp_path, **kw):
    base = dict(
        strategies=("naive_1s",),
        traces_glob=str(tmp_path / "t/*.csv"),
        videos_path=str(tmp_path / "v.csv"),
        retention_path=str(tmp_path / "r.csv"),
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_build_strategies_requires_checkpoints_and_table(tmp_path):
    with pytest.raises(ConfigError, match="checkpoint_path"):
        build_strategies(_spec(tmp_path, strategies=("deload",)))
    with pytest.raises(ConfigError, match="no_wte_checkpoint_path"):
        build_strategies(_spec(tmp_path, strategies=("deload_no_wte",)))
    with pytest.raises(ConfigError, match="param_table_path"):
        build_strategies(_spec(tmp_path, strategies=("deload_1s",)))
    with pytest.raises(ConfigError):
        build_strategies(_spec(tmp_path, strategies=("warp",)))


@pytest.mark.parametrize("name, seconds", [("deload_0.5s", 0.5), ("deload_1s", 1.0), ("deload_12.25s", 12.25)])
def test_build_strategies_fixed_ranges_need_the_param_table(tmp_path, name, seconds):
    with pytest.raises(ConfigError, match="param_table_path"):
        build_strategies(_spec(tmp_path, strategies=(name,)))
    (strategy,) = build_strategies(_spec(tmp_path, strategies=(name,), param_table_path="pt.csv"))
    assert (strategy.name, strategy.duration_s) == (name, seconds)


def test_build_strategies_checks_checkpoint_flavor(tmp_path):
    plain = MlpNet.create(PolicyConfig(k=2, hidden_sizes=(8,), include_watch_estimates=False), seed=0)
    path = tmp_path / "plain.ckpt"
    save_checkpoint(plain, path)
    with pytest.raises(ConfigError, match="watch-time"):
        build_strategies(_spec(tmp_path, strategies=("deload",), checkpoint_path=str(path),
                               param_table_path=str(tmp_path / "pt.csv")))

    wte = MlpNet.create(PolicyConfig(k=2, hidden_sizes=(8,)), seed=0)
    wpath = tmp_path / "wte.ckpt"
    save_checkpoint(wte, wpath)
    out = build_strategies(_spec(tmp_path, strategies=("deload",), checkpoint_path=str(wpath),
                                 param_table_path=str(tmp_path / "pt.csv")))
    assert isinstance(out[0], LearnedRangeStrategy)
    assert out[0].deterministic


def test_build_strategies_missing_checkpoint_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read checkpoint"):
        build_strategies(_spec(tmp_path, strategies=("deload",),
                               checkpoint_path=str(tmp_path / "nope.ckpt"),
                               param_table_path="pt.csv"))


# --- report plumbing ---------------------------------------------------------


def _record(strategy, trace_id, mean_mbps, qoe, durations, qs=None, rebuffer=0.25, videos=None):
    n = len(durations)
    return RunRecord(
        strategy=strategy,
        trace_id=trace_id,
        trace_mean_mbps=mean_mbps,
        qoe=qoe,
        rebuffer_s=rebuffer,
        downloaded_bits=1e6,
        watched_bits=9e5,
        wasted_bits=1e5,
        waste_ratio=0.1,
        n_actions=n,
        n_swipes=2,
        mean_range_s=float(np.mean(durations)) if n else 0.0,
        actions={
            "issued_at_s": [float(i) for i in range(n)],
            "video_index": videos if videos is not None else [0] * n,
            "duration_s": list(durations),
            "bitrate_mbps": [1.0] * n,
            "q_mbps": list(qs) if qs is not None else [1.0] * n,
            "reward": [0.5] * n,
        },
    )


def test_session_record_maps_metrics():
    trace = flat_trace(2.0)
    actions = ActionLog(
        issued_at_s=[0.0, 1.0], video_index=[0, 2], duration_s=[1.0, 3.0], bitrate_mbps=[0.5, 0.75],
        q_mbps=[1.0, 1.5], delivered_s=[1.0, 2.5], waste_bits=[0.0, 1e6], rebuffer_s=[0.5, 0.0],
        reward=[0.4, 0.2], policy=[None, None],
    )
    m = SessionMetrics(
        trace_id="flat", total_rebuffer_s=0.5, downloaded_bits=4e6,
        watched_bits=3e6, wasted_bits=1e6, n_swipes=3, actions=actions,
    )

    class Named:
        name = "deload_1s"

    rec = session_record(Named(), m, trace)
    assert rec.strategy == "deload_1s"
    assert rec.trace_mean_mbps == 2.0
    assert rec.qoe == pytest.approx(0.6)
    assert rec.waste_ratio == 0.25
    assert rec.n_actions == 2 and rec.n_swipes == 3
    assert rec.mean_range_s == 2.0
    assert rec.actions["duration_s"].tolist() == [1.0, 3.0]
    assert rec.actions["issued_at_s"].tolist() == [0.0, 1.0]
    assert rec.actions["video_index"].dtype == np.int64 and rec.actions["video_index"].tolist() == [0, 2]
    assert rec.actions["bitrate_mbps"].tolist() == [0.5, 0.75]
    assert rec.actions["q_mbps"].tolist() == [1.0, 1.5]
    assert rec.actions["reward"].tolist() == [0.4, 0.2]


def test_report_normalization():
    runs = [_record("a", "t1", 1.0, 1.0, [1.0]), _record("a", "t2", 2.0, 3.0, [1.0]),
            _record("b", "t1", 1.0, 2.0, [1.0])]
    rep = Report(runs=runs, strategies=("a", "b"), seed=0)
    rep.normalize()
    assert [r.qoe_norm for r in runs] == [0.0, 1.0, 0.5]
    assert rep.mean_qoe("a") == 2.0
    assert math.isnan(rep.mean_qoe("zzz"))

    flat = Report(runs=[_record("a", "t1", 1.0, 5.0, [1.0]), _record("a", "t2", 1.0, 5.0, [1.0])],
                  strategies=("a",), seed=0)
    flat.normalize()
    assert [r.qoe_norm for r in flat.runs] == [0.0, 0.0]


def test_range_medians_by_trace_tercile():
    runs = [
        _record("deload", f"t{i}", float(i), 0.0, [float(i)] * 3) for i in range(1, 7)
    ]
    rep = Report(runs=runs, strategies=("deload",), seed=0)
    med = range_medians_by_trace_tercile(rep, "deload")
    assert med == {"low": 1.5, "mid": 3.5, "high": 5.5}
    with pytest.raises(ValueError, match="no runs"):
        range_medians_by_trace_tercile(rep, "naive_1s")


def test_write_then_load_report_round_trips(tmp_path):
    runs = [
        _record("a", "t1", 1.25, 3.5, [1.0, 2.0], qs=[0.5, 4.0]),
        _record("a", "t2", 2.5, -1.0, [0.5]),
        _record("b", "t1", 1.25, 9.0, []),
    ]
    rep = Report(runs=runs, strategies=("a", "b"), seed=0)
    rep.normalize()
    write_report(rep, tmp_path)
    back = load_report(tmp_path)
    assert back.strategies == ("a", "b")
    for orig, got in zip(runs, back.runs):
        assert got.strategy == orig.strategy and got.trace_id == orig.trace_id
        assert got.qoe == orig.qoe and got.qoe_norm == orig.qoe_norm
        assert got.downloaded_bits == orig.downloaded_bits
        assert got.actions["duration_s"].tolist() == orig.actions["duration_s"]
        assert got.actions["q_mbps"].tolist() == orig.actions["q_mbps"]
    assert json.loads((tmp_path / "summary.json").read_text())["strategies"] == ["a", "b"]
    # Blank lines are skipped, as in every other CSV input.
    for name in ("report.csv", "actions.csv"):
        text = (tmp_path / name).read_text()
        (tmp_path / name).write_text(text.replace("\n", "\n\n", 2) + "\n")
    again = load_report(tmp_path)
    assert [r.actions["duration_s"].tolist() for r in again.runs] == [[1.0, 2.0], [0.5], []]


def test_report_files_keep_their_text(tmp_path):
    """`write_report`'s bytes as literal text. Every other report test is a
    round trip, which a format change made on both the write and the read
    side would pass."""
    runs = [
        _record("a", "t1", 0.1, 1 / 3, [0.1, np.float64(2.5), 1e-300], qs=[-0.0, 1 / 3, 7.0],
                rebuffer=-0.0, videos=np.array([3, 0, 12], dtype=np.int64)),
        _record("b", "t-2", 1e-300, -2.5, []),
        _record("b", "t1", 0.1, 0.0, [7.25], qs=[1e-300]),
    ]
    rep = Report(runs=runs, strategies=("a", "b"), seed=0)
    rep.normalize()
    write_report(rep, tmp_path)
    assert (tmp_path / "report.csv").read_text() == (
        "strategy,trace_id,trace_mean_mbps,qoe,qoe_norm,rebuffer_s,downloaded_bits,"
        "watched_bits,wasted_bits,waste_ratio,n_actions,n_swipes,mean_range_s\n"
        "a,t1,0.1,0.3333333333333333,1.0,-0.0,1000000.0,900000.0,100000.0,0.1,3,2,0.8666666666666667\n"
        "b,t-2,1e-300,-2.5,0.0,0.25,1000000.0,900000.0,100000.0,0.1,0,2,0.0\n"
        "b,t1,0.1,0.0,0.8823529411764706,0.25,1000000.0,900000.0,100000.0,0.1,1,2,7.25\n"
    )
    assert (tmp_path / "actions.csv").read_text() == (
        "strategy,trace_id,issued_at_s,video_index,duration_s,bitrate_mbps,q_mbps,reward\n"
        "a,t1,0.0,3,0.1,1.0,-0.0,0.5\n"
        "a,t1,1.0,0,2.5,1.0,0.3333333333333333,0.5\n"
        "a,t1,2.0,12,1e-300,1.0,7.0,0.5\n"
        "b,t1,0.0,0,7.25,1.0,1e-300,0.5\n"
    )


def test_load_report_rejects_short_action_rows(tmp_path):
    rep = Report(runs=[_record("a", "t1", 1.0, 2.0, [1.0, 2.0])], strategies=("a",), seed=4)
    write_report(rep, tmp_path)
    assert load_report(tmp_path).seed == 4
    with open(tmp_path / "actions.csv", "a") as fh:
        fh.write("a,t1,3.0,0\n")
    with pytest.raises(DataError, match="malformed report"):
        load_report(tmp_path)


def test_load_report_missing_dir(tmp_path):
    with pytest.raises(DataError, match=r"cannot read .*nowhere.report\.csv"):
        load_report(tmp_path / "nowhere")


def _drop_last_field(row):
    return row.rsplit(",", 1)[0]


@pytest.mark.parametrize(
    "name, lineno, edit, named",
    [
        ("report.csv", 2, _drop_last_field, "report.csv:2"),
        ("report.csv", 3, lambda row: row + ",7", "report.csv:3"),
        ("report.csv", 2, lambda row: row.replace("a,t1,1.0,", "a,t1,fast,"), "report.csv:2"),
        # n_actions 1 -> 3, against the run's one row in actions.csv
        ("report.csv", 3, lambda row: row.replace(",1,2,", ",3,2,"), "actions.csv"),
        ("actions.csv", 3, lambda row: row + ",7", "actions.csv:3"),
        ("actions.csv", 4, _drop_last_field, "actions.csv:4"),
        ("actions.csv", 3, lambda row: row.replace(",0,", ",zero,"), "actions.csv:2-3"),
        ("actions.csv", 3, lambda row: None, "actions.csv"),  # run a,t1 keeps 1 of its 2 rows
        ("actions.csv", 4, lambda row: row.replace("a,t2", "c,t2"), "actions.csv:4"),  # no such run
        ("summary.json", 1, lambda row: "[", "summary.json"),
    ],
)
def test_cli_report_rejects_malformed_run_files(tmp_path, capsys, name, lineno, edit, named):
    """Exit 2, naming the file, and the line where there is one."""
    runs = [_record("a", "t1", 1.0, 2.0, [1.0, 2.0]), _record("a", "t2", 1.5, 3.0, [0.5]),
            _record("b", "t1", 1.0, 1.0, [])]
    write_report(Report(runs=runs, strategies=("a", "b"), seed=0), tmp_path)
    assert cli_main(["report", "--run", str(tmp_path)]) == 0
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("".join(f"{line}\n" for line in lines if line is not None))
    capsys.readouterr()
    assert cli_main(["report", "--run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{tmp_path / named}:" in err


def test_emit_plots_data(tmp_path):
    rng = np.random.default_rng(1)
    runs = [
        _record(s, f"t{i}", float(i + 1), float(rng.normal()),
                list(rng.uniform(0.2, 10.0, size=5)), qs=list(rng.uniform(0.2, 8.0, size=5)))
        for s in ("a", "b")
        for i in range(4)
    ]
    rep = Report(runs=runs, strategies=("a", "b"), seed=0)
    rep.normalize()
    emit_plots_data(rep, tmp_path)

    with open(tmp_path / "qoe_cdf.csv") as fh:
        rows = list(csv.DictReader(fh))
    for s in ("a", "b"):
        cdf = [float(r["cdf"]) for r in rows if r["strategy"] == s]
        assert cdf == sorted(cdf)
        assert cdf[-1] == 1.0
        assert len(cdf) == 4

    with open(tmp_path / "rebuffer_waste.csv") as fh:
        assert len(list(csv.DictReader(fh))) == len(runs)

    with open(tmp_path / "range_hist.csv") as fh:
        hist = list(csv.DictReader(fh))
    for s in ("a", "b"):
        total = sum(int(r["count"]) for r in hist if r["strategy"] == s)
        assert total == 20  # every action in exactly one tercile bin


# --- CLI pipeline (the `pipeline` fixture is in conftest.py) ----------------------


def test_cli_generates_suite_files(pipeline):
    root, _, _ = pipeline
    assert len(list((root / "traces").glob("*.csv"))) == 6
    for name in ("videos.csv", "retention_params.csv", "watch_records.csv",
                 "config.yaml", "manifest.json"):
        assert (root / name).exists()


def test_cli_fit_and_train_outputs(pipeline):
    root, _, _ = pipeline
    assert (root / "param_table.csv").exists()
    assert (root / "checkpoints/deload.ckpt").exists()
    assert (root / "checkpoints/deload_curve.csv").exists()


def test_cli_simulate_report_shape(pipeline):
    root, _, run1 = pipeline
    report = load_report(run1)
    assert report.strategies == ("deload", "deload_1s", "naive_1s")
    assert len(report.runs) == 3 * 6
    traces = {r.trace_id for r in report.runs}
    assert len(traces) == 6


def test_cli_report_command_writes_plot_data(pipeline, tmp_path):
    _, _, run1 = pipeline
    plots = tmp_path / "plots"
    assert cli_main(["report", "--run", str(run1), "--out", str(plots)]) == 0
    for name in ("qoe_cdf.csv", "rebuffer_waste.csv", "range_hist.csv"):
        assert (plots / name).exists()


def test_cli_parallel_run_is_byte_identical(pipeline, tmp_path):
    _, cfg, run1 = pipeline
    run2 = tmp_path / "run2"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(run2), "--jobs", "2"]) == 0
    for name in ("report.csv", "actions.csv", "summary.json"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes()


def test_run_experiment_jobs_do_not_change_reports(pipeline, tmp_path):
    _, cfg, _ = pipeline
    reports = {}
    for jobs in (1, 2):
        spec = experiment_spec(load_config(cfg), jobs=jobs)
        reports[jobs] = run_experiment(spec, tmp_path / f"j{jobs}")
    for name in ("report.csv", "actions.csv", "summary.json"):
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()
    # The action arrays cross the process pool intact.
    for serial, pooled in zip(reports[1].runs, reports[2].runs):
        assert serial.actions.keys() == pooled.actions.keys()
        for name, a in serial.actions.items():
            b = pooled.actions[name]
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert reports[2].runs[0].actions["video_index"].dtype == np.int64


def test_heap_release_before_pool_starts_no_process(monkeypatch):
    # A helper process forked here would inherit this process's whole heap
    # and count as a child as large as the parent.
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    monkeypatch.setattr(os, "fork", no_process)
    harness._release_free_heap()


@pytest.mark.parametrize("preset, expect", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(preset, expect):
    import swipesim

    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["PYTHONPATH"] = str(Path(swipesim.__file__).resolve().parent.parent)
    if preset is not None:
        env.update(dict.fromkeys(thread_vars, preset))
    code = "import os, swipesim; print(*(os.environ[v] for v in %r))" % (thread_vars,)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [expect] * 3


def test_cli_report_prints_the_runs_seed(pipeline, capsys):
    _, _, run1 = pipeline
    assert load_report(run1).seed == 3
    capsys.readouterr()
    assert cli_main(["report", "--run", str(run1)]) == 0
    assert '"seed": 3,' in capsys.readouterr().out


def test_cli_error_exit_codes(tmp_path):
    assert cli_main([]) == 1  # missing subcommand
    assert cli_main(["simulate", "--config", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path / "r")]) == 1
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "paths:\n  traces_glob: 'missing/*.csv'\n  videos: v.csv\n  retention: r.csv\n"
        "strategies: [naive_1s]\n"
    )
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert cli_main(["fit", "--config", str(cfg)]) == 1  # no watch_records path


def _suite_config(pipeline, tmp_path, strategies=None, **paths):
    """The pipeline suite's config in `tmp_path`, its paths made absolute
    and any given in `paths` replaced."""
    root, cfg, _ = pipeline
    doc = yaml.safe_load(cfg.read_text())
    doc["paths"] = {k: str(root / v) for k, v in doc["paths"].items()}
    doc["paths"].update((k, str(v)) for k, v in paths.items())
    if strategies is not None:
        doc["strategies"] = strategies
    out = tmp_path / "suite.yaml"
    out.write_text(yaml.safe_dump(doc))
    return out


def test_fixed_range_sweep_runs_with_the_suites_config(pipeline, tmp_path):
    cfg = _suite_config(pipeline, tmp_path, strategies=["deload_0.5s", "deload_8s"])
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    report = load_report(tmp_path / "run")
    assert report.strategies == ("deload_0.5s", "deload_8s")
    assert len(report.runs) == 2 * 6
    for name, seconds in (("deload_0.5s", 0.5), ("deload_8s", 8.0)):
        durations = np.concatenate([r.actions["duration_s"] for r in report.runs if r.strategy == name])
        assert 0.0 < durations.min() and durations.max() == seconds
    # The suite's `sim.videos_per_session: 4`, not the built-in 15.
    assert max(r.n_swipes for r in report.runs) == 4


@pytest.mark.parametrize(
    "command, section, values, key",
    [
        ("simulate", "sim", {"step_ms": 0}, "step_ms"),  # the engine's clock would never move
        ("simulate", "sim", {"step_ms": -100.0}, "step_ms"),
        # With no room to buffer, only the session cap ends a session.
        ("simulate", "sim", {"b_max_s": 0.0, "max_session_s": math.inf}, "max_session_s"),
        ("simulate", "sim", {"queue_depth": 0}, "queue_depth"),
        ("simulate", "sim", {"rtt_min_ms": 150.0, "rtt_max_ms": 100.0}, "rtt_min_ms"),
        ("train", "train", {"batch_episodes": 0}, "batch_episodes"),
        ("train", "train", {"epochs": 0}, "epochs"),
        ("train", "train", {"episodes": -4}, "episodes"),
        ("simulate", None, {"jobs": 0}, "jobs"),
    ],
)
def test_cli_rejects_values_the_engine_or_trainer_cannot_run(
    pipeline, tmp_path, capsys, command, section, values, key
):
    path = _suite_config(pipeline, tmp_path)
    doc = yaml.safe_load(path.read_text())
    (doc if section is None else doc.setdefault(section, {})).update(values)
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / ("run" if command == "simulate" else "deload.ckpt")
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, strategies, sim, policy",
    [
        # B_max must be positive whatever the strategies.
        ("simulate", ["naive_1s"], {"b_max_s": 0.0}, {}),
        # At or below a demand-selecting strategy's issue floor no video is
        # ever eligible: every session would stall until the cap.
        ("simulate", ["deload_1s"], {"b_max_s": 0.2}, {}),
        ("simulate", ["naive_1s", "deload_5s"], {"b_max_s": 0.1}, {}),
        ("simulate", ["deload"], {"b_max_s": 0.2}, {}),
        # A fixed range's floor is the issue floor, whatever the range.
        ("simulate", ["deload_0.1s"], {"b_max_s": 0.15}, {}),
        # Training runs the learned strategy whatever the list says.
        ("train", ["naive_1s"], {"b_max_s": 0.2}, {}),
        ("train --variant deload_no_wte", ["naive_1s"], {"b_max_s": 0.8}, {"range_min_s": 1.0}),
    ],
)
def test_cli_rejects_b_max_at_or_below_the_issue_floor(pipeline, tmp_path, capsys, command, strategies, sim, policy):
    path = _suite_config(pipeline, tmp_path, strategies=strategies)
    doc = yaml.safe_load(path.read_text())
    doc["sim"].update(sim)
    doc.setdefault("policy", {}).update(policy)
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / ("run" if command == "simulate" else "deload.ckpt")
    capsys.readouterr()
    assert cli_main([*command.split(), "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sim") and "b_max_s" in err
    assert not out.exists()


def test_cli_rejects_b_max_at_or_below_the_checkpoints_floor(pipeline, tmp_path, capsys):
    """Evaluation runs the checkpoint's `range_min_s`, whatever the config's
    policy section says."""
    ckpt = tmp_path / "no_wte.ckpt"
    path = _suite_config(pipeline, tmp_path, strategies=["deload_no_wte"], no_wte_checkpoint=ckpt)
    doc = yaml.safe_load(path.read_text())
    doc["train"]["episodes"] = 0
    doc["policy"] = {"range_min_s": 1.0}
    path.write_text(yaml.safe_dump(doc))
    assert cli_main(["train", "--config", str(path), "--variant", "deload_no_wte"]) == 0
    del doc["policy"]
    doc["sim"].update(b_max_s=0.8, max_session_s=60.0)
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sim.b_max_s") and str(ckpt) in err
    assert not out.exists()


def test_cli_checks_the_floors_of_the_strategies_a_command_runs(pipeline, tmp_path):
    """`fit` runs no strategy, and `simulate` runs a checkpoint's
    `range_min_s` (0.2 here), not the config's policy section."""
    path = _suite_config(pipeline, tmp_path, strategies=["deload_1s"])
    doc = yaml.safe_load(path.read_text())
    doc["sim"]["b_max_s"] = 0.2
    path.write_text(yaml.safe_dump(doc))
    assert cli_main(["fit", "--config", str(path), "--out", str(tmp_path / "table.csv")]) == 0
    doc["strategies"] = ["naive_1s", "deload"]
    doc["sim"]["b_max_s"] = 0.8
    doc["policy"] = {"range_min_s": 1.0}
    path.write_text(yaml.safe_dump(doc))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    report = load_report(tmp_path / "run")
    assert report.strategies == ("naive_1s", "deload")
    assert all(r.n_actions > 0 for r in report.runs)


def test_cli_train_without_episodes_reports_no_reward(pipeline, tmp_path, capsys):
    path = _suite_config(pipeline, tmp_path)
    doc = yaml.safe_load(path.read_text())
    doc["train"]["episodes"] = 0
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "deload.ckpt"
    capsys.readouterr()
    assert cli_main(["train", "--config", str(path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trained deload for 0 episodes (seed 3)"
    assert not any(line.startswith("episode reward") for line in lines)
    assert out.exists() and (tmp_path / "deload_curve.csv").exists()


def test_cli_naive_alone_runs_below_the_issue_floor(pipeline, tmp_path):
    """Order-based selection has no floor: it downloads at any positive B_max."""
    path = _suite_config(pipeline, tmp_path, strategies=["naive_1s"])
    doc = yaml.safe_load(path.read_text())
    doc["sim"]["b_max_s"] = 0.1
    path.write_text(yaml.safe_dump(doc))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    report = load_report(tmp_path / "run")
    assert all(r.n_actions > 0 for r in report.runs)


def test_cli_rejects_jobs_below_one(pipeline, tmp_path, capsys):
    path = _suite_config(pipeline, tmp_path)
    out = tmp_path / "run"
    assert cli_main(["simulate", "--config", str(path), "--out", str(out), "--jobs", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def _corrupt_checkpoint(root, tmp_path):
    lines = (root / "checkpoints/deload.ckpt").read_text().splitlines()
    lines[4] = "0.5 not-a-weight"  # first weight row of the actor's first layer
    out = tmp_path / "bad.ckpt"
    out.write_text("\n".join(lines) + "\n")
    return out, 5


@pytest.mark.parametrize(
    "command, key, content",
    [
        ("simulate", "videos", None),
        ("simulate", "retention", None),
        ("simulate", "param_table", None),
        ("train", "param_table", None),
        ("fit", "watch_records", None),
        ("simulate", "param_table", ("video,v0,1.0,2.0,0.0,10,0.9\nvideo,v1,1.0,oops,0.0,10,0.9\n", 2)),
        ("simulate", "param_table", ("video,v0,1.0,2.0,0.0,10,0.9\nlength,v1,1.0\n", 2)),
        ("simulate", "param_table", ("video,v0,-1.0,2.0,0.0,10,0.9\n", 1)),
        ("simulate", "checkpoint", "corrupt"),
        ("simulate", "checkpoint", ("rangenet-v1\nconfig 5 0.7\n", 2)),
        ("simulate", "videos", (b"video_id,duration_s,ladder_mbps\n\xff\xfe,1,1\n", None)),
        ("simulate", "param_table", (b"video,v0,1.0,2.0,0.0,10,0.9\n\xff\n", None)),
        ("simulate", "checkpoint", (b"rangenet-v1\n\xff\n", None)),
        # A stale table with `user` rows: re-run `fit`.
        ("simulate", "param_table", ("video,v0,1.0,2.0,0.0,10,0.9\nuser,u0000,1.0,2.0,0.0,40,0.9\n", 2)),
        # Traces with a non-finite bandwidth or timestamp.
        ("simulate", "traces_glob", ("0,1.5\n1000,nan\n2000,1.5\n", 2)),
        ("simulate", "traces_glob", ("0,1.5\nnan,2.0\n", 2)),
        ("simulate", "traces_glob", ("0,1.5\n1000,inf\n", 2)),
    ],
)
def test_cli_bad_input_files_exit_2_naming_them(pipeline, tmp_path, capsys, command, key, content):
    path, line = tmp_path / f"bad-{key}", None
    if content == "corrupt":
        path, line = _corrupt_checkpoint(pipeline[0], tmp_path)
    elif content is not None:
        data, line = content
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    # `fit` writes its table; keep it out of the shared suite.
    paths = {key: path, "param_table": tmp_path / "pt.csv"} if command == "fit" else {key: path}
    cfg = _suite_config(pipeline, tmp_path, **paths)
    argv = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "run")] if command == "simulate" else [])
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err
    if line is not None:
        assert f"{path}:{line}:" in err


def test_cli_missing_checkpoint_is_a_config_error(pipeline, tmp_path, capsys):
    cfg = _suite_config(pipeline, tmp_path, checkpoint=tmp_path / "none.ckpt")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "cannot read checkpoint" in capsys.readouterr().err


def test_installed_entry_point(tmp_path):
    exe = shutil.which("swipesim")
    assert exe, "console script should be installed"
    bad = subprocess.run([exe], capture_output=True, text=True)
    assert bad.returncode == 1
    out = subprocess.run(
        [exe, "gen-synthetic", "--out", str(tmp_path / "s"), "--traces", "2",
         "--videos", "2"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "wrote suite" in out.stdout
