"""Shared builders for the test suite."""

from __future__ import annotations

import math
import os

# Before numpy: importing swipesim pins BLAS to one thread, as it does when
# the program runs, so products whose bits depend on the thread count
# (the fitter's location grid, PPO updates) give the program's bytes here.
import swipesim  # noqa: F401  # isort: skip
import numpy as np
import pytest
from hypothesis import settings

from swipesim.cli import main as cli_main
from swipesim.media import (
    BITS_PER_MEGABIT,
    RangeSegment,
    Trace,
    VideoMeta,
    VideoState,
)
from swipesim.watchtime import WeibullParams

# CI selects `ci` (HYPOTHESIS_PROFILE=ci): a failing example is printed with
# the blob that replays it, so a bit-identity failure on a Python version
# that is not at hand can be reproduced. Example counts and deadlines stay
# each test's own.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_video(
    vid: str = "v0",
    duration_s: float = 30.0,
    ladder: tuple[float, ...] = (1.0, 2.0),
    params: WeibullParams | None = None,
) -> VideoState:
    return VideoState(meta=VideoMeta(vid, duration_s, tuple(ladder)), watch_params=params)


def buffer_to(video: VideoState, edge_s: float, bitrate_mbps: float = 1.0) -> VideoState:
    """Append one segment so the buffer edge lands exactly at edge_s."""
    seg = RangeSegment(start_s=video.buffered_s, bitrate_mbps=bitrate_mbps)
    seg.delivered_bits = (edge_s - video.buffered_s) * bitrate_mbps * BITS_PER_MEGABIT
    video.segments.append(seg)
    video.buffered_s = edge_s
    return video


def flat_trace(mbps: float, trace_id: str = "flat") -> Trace:
    return Trace(trace_id, [0.0, 1000.0], [mbps, mbps])


def run_random_session(case_seed: int):
    """One randomized session for fuzzing; returns its SessionMetrics."""
    from swipesim.sim import run_session

    return run_session(*random_session_inputs(case_seed))


def random_session_inputs(case_seed: int) -> tuple:
    """Fresh `run_session` arguments of one randomized session.

    Cases vary catalog, retention, trace shape, strategy, and sim constants;
    a quarter of them hit the wall-clock cap so the end-of-session residual
    path is exercised too.
    """
    from swipesim.policy import FixedRangeStrategy, NaiveFixedStrategy
    from swipesim.sim import RetentionSource, SimConfig

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(case_seed, 0xF022)))

    videos = []
    retention_params = {}
    for i in range(int(rng.integers(3, 7))):
        d = float(rng.uniform(3.0, 40.0))
        n_rungs = int(rng.integers(1, 4))
        ladder = tuple(sorted(float(b) for b in rng.uniform(0.3, 4.0, size=n_rungs)))
        if len(set(ladder)) != len(ladder):
            ladder = (1.0,)
        params = WeibullParams(
            float(rng.uniform(0.6, 2.5)),
            float(rng.uniform(1.0, d)),
            float(rng.uniform(0.0, min(2.0, d / 4.0))),
        )
        videos.append(make_video(f"f{i}", d, ladder, params=params))
        retention_params[f"f{i}"] = params

    n_samples = int(rng.integers(2, 6))
    step = float(rng.uniform(500.0, 3000.0))
    stamps = [i * step for i in range(n_samples)]
    levels = [float(rng.uniform(0.2, 8.0)) for _ in range(n_samples)]
    trace = Trace(f"fuzz-{case_seed}", stamps, levels)

    kind = case_seed % 3
    if kind == 0:
        strategy = NaiveFixedStrategy("naive_1s", 1.0)
    elif kind == 1:
        strategy = FixedRangeStrategy("deload_1s", 1.0)
    else:
        strategy = FixedRangeStrategy("deload_5s", float(rng.uniform(2.0, 8.0)))

    cfg = SimConfig(
        b_max_s=float(rng.uniform(4.0, 12.0)),
        rtt_min_ms=40.0,
        rtt_max_ms=float(rng.uniform(60.0, 160.0)),
        videos_per_session=int(rng.integers(2, 5)),
        max_session_s=25.0 if case_seed % 4 == 0 else 3600.0,
    )
    retention = RetentionSource(params=retention_params)
    return trace, iter(videos), retention, strategy, cfg, (case_seed, 3)


def max_rel_grad_error(mlp, loss_fn, eps: float = 1e-5) -> float:
    """Worst relative disagreement between analytic gradients and central
    differences, over every parameter entry of `mlp`.

    `loss_fn()` must return (loss, flat_grads) for the current parameters.
    Entries where both sides are below 1e-6 must agree to 1e-10 absolute.
    """
    _, analytic = loss_fn()
    worst = 0.0
    for pi, p in enumerate(mlp.parameters()):
        g = analytic[pi]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lo_p, _ = loss_fn()
            p[idx] = orig - eps
            lo_m, _ = loss_fn()
            p[idx] = orig
            fd = (lo_p - lo_m) / (2.0 * eps)
            a = float(g[idx])
            denom = max(abs(a), abs(fd))
            if denom < 1e-6:
                if abs(a - fd) > 1e-10:
                    return math.inf
                continue
            worst = max(worst, abs(a - fd) / denom)
    return worst


# --- the CLI pipeline's tiny suite ---------------------------------------------

TINY_CONFIG = """\
seed: 3
strategies: [deload, deload_1s, naive_1s]
sim:
  videos_per_session: 4
  max_session_s: 60.0
train:
  lr: 0.0003
  episodes: 4
  batch_episodes: 2
paths:
  traces_glob: traces/*.csv
  videos: videos.csv
  retention: retention_params.csv
  watch_records: watch_records.csv
  param_table: param_table.csv
  checkpoint: checkpoints/deload.ckpt
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny suite through `gen-synthetic`, `fit`, `train` and `simulate`:
    (suite root, config path, run directory)."""
    root = tmp_path_factory.mktemp("suite")
    rc = cli_main(["gen-synthetic", "--out", str(root), "--seed", "3",
                   "--traces", "6", "--videos", "8"])
    assert rc == 0
    cfg = root / "tiny.yaml"
    cfg.write_text(TINY_CONFIG)
    assert cli_main(["fit", "--config", str(cfg)]) == 0
    assert cli_main(["train", "--config", str(cfg)]) == 0
    run1 = root / "run1"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(run1)]) == 0
    return root, cfg, run1
