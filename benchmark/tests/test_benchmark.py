"""The benchmark's own checks, on suites small enough to run in seconds.

Run with ``python3 -m pytest benchmark/tests``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from swbench import cli
from swbench.workloads import Workload, prepare
from swipesim import harness
from swipesim.config import experiment_spec, load_config

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# Every strategy kind, through the pool and the report stage.
TINY_EVAL = Workload(
    name="tiny-eval",
    n_traces=3,
    strategies=("deload", "deload_1s", "naive_1s"),
    jobs=2,
    report_stage=True,
)
TINY_TRAIN = Workload(name="tiny-train", n_traces=3, episodes=4)


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def simulate(suite: Path, out: Path, jobs: int) -> dict[str, str]:
    spec = experiment_spec(load_config(prepare(TINY_EVAL, 7, suite).config), jobs=jobs)
    harness.run_experiment(spec, out)
    return tree_hashes(out)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [TINY_EVAL, TINY_TRAIN], ids=lambda w: w.name)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path, capsys):
    assert cli.run(workload, seed=3, seconds=0, trace=trace, work=tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads(BENCHMARK_JSON.read_text())["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[::2] == [m["name"], m["unit"]] for line in lines[:-1]), m["name"]


def test_jobs_1_and_2_write_identical_reports(tmp_path):
    serial = simulate(tmp_path / "suite", tmp_path / "j1", jobs=1)
    pooled = simulate(tmp_path / "suite", tmp_path / "j2", jobs=2)
    assert set(serial) == {"report.csv", "actions.csv", "summary.json"}
    assert serial == pooled


def test_same_seed_gives_same_inputs_and_outputs(tmp_path):
    first = simulate(tmp_path / "a", tmp_path / "a-out", jobs=1)
    second = simulate(tmp_path / "b", tmp_path / "b-out", jobs=1)
    assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")
    assert first == second


def test_different_seed_gives_different_inputs(tmp_path):
    prepare(TINY_TRAIN, 1, tmp_path / "one")
    prepare(TINY_TRAIN, 2, tmp_path / "two")
    one, two = tree_hashes(tmp_path / "one" / "traces"), tree_hashes(tmp_path / "two" / "traces")
    assert len(one) == len(two) == TINY_TRAIN.n_traces
    assert one != two
