"""Synthetic evaluation suite: traces, a video catalog, and retention data.

Traces come in three shapes (constant, square wave, bounded random walk)
with per-trace mean bandwidth drawn log-uniformly, so a suite spans starved
to comfortable networks. Each video gets a ground-truth watch-time
distribution; watch records sampled from it feed the fitting pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .media import Trace, VideoMeta, WatchRecord
from .watchtime import WeibullParams, sample_weibull


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and size of a generated suite."""

    n_traces: int = 225
    trace_duration_s: float = 150.0
    trace_step_ms: float = 1000.0
    # Lowest rung is 0.35 Mbps: the bottom of this span is channel-limited
    # (buffers drain even at the floor bitrate), the top saturates the cap.
    bw_lo_mbps: float = 0.18
    bw_hi_mbps: float = 9.0
    square_period_lo_s: float = 8.0
    square_period_hi_s: float = 25.0
    walk_sigma: float = 0.12
    n_videos: int = 60
    duration_lo_s: float = 8.0
    duration_hi_s: float = 90.0
    bitrate_ladder: tuple[float, ...] = (0.35, 0.75, 1.5, 3.0)
    shape_lo: float = 0.8
    shape_hi: float = 2.2
    scale_frac_lo: float = 0.18
    scale_frac_hi: float = 0.55
    location_lo_s: float = 0.3
    location_hi_s: float = 1.2
    # Only the unread `user_id` column uses this; its draw stays so that
    # watch_records.csv and every fitted value keep their bytes.
    n_users: int = 120
    records_per_video: int = 260


def generate_catalog(
    spec: SyntheticSpec, rng: np.random.Generator
) -> tuple[list[VideoMeta], dict[str, WeibullParams]]:
    """Video metas plus each video's ground-truth watch-time distribution."""
    catalog: list[VideoMeta] = []
    truth: dict[str, WeibullParams] = {}
    for i in range(spec.n_videos):
        duration = math.exp(
            rng.uniform(math.log(spec.duration_lo_s), math.log(spec.duration_hi_s))
        )
        meta = VideoMeta(
            video_id=f"v{i:04d}",
            duration_s=round(duration, 3),
            bitrate_ladder=spec.bitrate_ladder,
        )
        shape = rng.uniform(spec.shape_lo, spec.shape_hi)
        scale = rng.uniform(spec.scale_frac_lo, spec.scale_frac_hi) * meta.duration_s
        location = min(rng.uniform(spec.location_lo_s, spec.location_hi_s), meta.duration_s / 4.0)
        truth[meta.video_id] = WeibullParams(shape=shape, scale=scale, location=location)
        catalog.append(meta)
    return catalog, truth


def _constant_trace(mean: float, n: int) -> list[float]:
    return [mean] * n

def _square_trace(mean: float, n: int, step_ms: float, spec: SyntheticSpec, rng) -> list[float]:
    period_s = rng.uniform(spec.square_period_lo_s, spec.square_period_hi_s)
    half = max(1, int(round(period_s * 1000.0 / step_ms / 2.0)))
    hi, lo = mean * 1.6, mean * 0.45
    out = []
    for k in range(n):
        out.append(hi if (k // half) % 2 == 0 else lo)
    return out

def _walk_trace(mean: float, n: int, spec: SyntheticSpec, rng) -> list[float]:
    lo = max(mean * 0.25, 0.05)
    hi = mean * 3.0
    out = [mean]
    for _ in range(n - 1):
        nxt = out[-1] * math.exp(rng.normal(0.0, spec.walk_sigma))
        out.append(min(max(nxt, lo), hi))
    return out


def generate_traces(spec: SyntheticSpec, rng: np.random.Generator) -> list[Trace]:
    """Traces cycling through the three shapes, log-uniform mean bandwidth."""
    traces: list[Trace] = []
    n = max(2, int(round(spec.trace_duration_s * 1000.0 / spec.trace_step_ms)))
    for i in range(spec.n_traces):
        mean = math.exp(rng.uniform(math.log(spec.bw_lo_mbps), math.log(spec.bw_hi_mbps)))
        shape_kind = i % 3
        if shape_kind == 0:
            levels = _constant_trace(mean, n)
            kind = "const"
        elif shape_kind == 1:
            levels = _square_trace(mean, n, spec.trace_step_ms, spec, rng)
            kind = "square"
        else:
            levels = _walk_trace(mean, n, spec, rng)
            kind = "walk"
        stamps = [k * spec.trace_step_ms for k in range(n)]
        traces.append(Trace(f"{kind}-{i:04d}", stamps, [round(b, 6) for b in levels]))
    return traces


def generate_watch_records(
    spec: SyntheticSpec,
    catalog: list[VideoMeta],
    truth: dict[str, WeibullParams],
    rng: np.random.Generator,
) -> list[WatchRecord]:
    """Draw watch records from the ground truth, capped at video duration."""
    records: list[WatchRecord] = []
    for meta in catalog:
        p = truth[meta.video_id]
        draws = sample_weibull(p, rng, spec.records_per_video)
        users = rng.integers(spec.n_users, size=spec.records_per_video)
        for uid, w in zip(users, draws):
            records.append(
                WatchRecord(
                    user_id=f"u{int(uid):04d}",
                    video_id=meta.video_id,
                    duration_s=meta.duration_s,
                    watch_time_s=round(float(min(max(w, 0.0), meta.duration_s)), 4),
                )
            )
    return records


def write_suite(spec: SyntheticSpec, out_dir, seed: int) -> dict:
    """Generate and write a full suite under `out_dir`.

    Layout: traces/*.csv (timestamp_ms,bandwidth_mbps lines), videos.csv,
    retention_params.csv (ground truth), watch_records.csv, manifest.json.
    Returns the manifest dict.
    """
    out = Path(out_dir)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    root_ss = np.random.SeedSequence(entropy=(seed, 0x5EED))
    cat_ss, trace_ss, rec_ss = root_ss.spawn(3)

    catalog, truth = generate_catalog(spec, np.random.default_rng(cat_ss))
    traces = generate_traces(spec, np.random.default_rng(trace_ss))
    records = generate_watch_records(spec, catalog, truth, np.random.default_rng(rec_ss))

    for tr in traces:
        path = out / "traces" / f"{tr.trace_id}.csv"
        with open(path, "w") as fh:
            for ts, bw in zip(tr.timestamps_ms, tr.bandwidth_mbps):
                fh.write(f"{ts:g},{bw!r}\n")

    with open(out / "videos.csv", "w") as fh:
        fh.write("video_id,duration_s,ladder_mbps\n")
        for meta in catalog:
            ladder = ";".join(f"{b:g}" for b in meta.bitrate_ladder)
            fh.write(f"{meta.video_id},{meta.duration_s!r},{ladder}\n")

    with open(out / "retention_params.csv", "w") as fh:
        fh.write("video_id,beta,eta,gamma\n")
        for meta in catalog:
            p = truth[meta.video_id]
            fh.write(f"{meta.video_id},{p.shape!r},{p.scale!r},{p.location!r}\n")

    with open(out / "watch_records.csv", "w") as fh:
        fh.write("user_id,video_id,duration_s,watch_time_s\n")
        for rec in records:
            fh.write(f"{rec.user_id},{rec.video_id},{rec.duration_s!r},{rec.watch_time_s!r}\n")

    manifest = {
        "seed": seed,
        "n_traces": len(traces),
        "n_videos": len(catalog),
        "n_watch_records": len(records),
        "bitrate_ladder": list(spec.bitrate_ladder),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
