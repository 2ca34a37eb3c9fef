"""Trace-driven playback and preloading engine.

Discrete 100 ms steps. Each step: (1) if the downloader is idle and not
pausing, a strategy decision may issue a range task; (2) the active task
consumes bandwidth after its first-byte latency; (3) playback advances with
sub-step swipe handling; swipes cancel the active task at the step boundary.
Every downloaded bit ends up watched or wasted, exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .media import (
    BITS_PER_MEGABIT,
    EPS_S,
    Playlist,
    RangeSegment,
    Trace,
    VideoState,
    advance_playback,  # noqa: F401  inlined in _Session._play; the benchmark's tracer hooks it here
    swipe,
)
from .policy import PolicyExtras, Strategy
from .ppo import RewardWeights, StallEvent, SwipeEvent, attribute_reward_terms, compute_reward
from .watchtime import WeibullParams, weibull_quantile


@dataclass(frozen=True)
class SimConfig:
    """Engine constants; reward weights ride along for metric computation."""

    step_ms: float = 100.0
    queue_depth: int = 5
    b_max_s: float = 10.0
    pause_ms: float = 500.0
    rtt_min_ms: float = 40.0
    rtt_max_ms: float = 120.0
    throughput_window: int = 5
    prior_throughput_mbps: float = 1.0
    prior_rtt_ms: float = 80.0
    abr_safety: float = 0.8
    videos_per_session: int = 15
    max_session_s: float = 3600.0
    reward: RewardWeights = field(default_factory=RewardWeights)


@dataclass
class DownloadTask:
    """An in-flight range request for one video.

    The range starts at the video's buffer edge and never extends the
    buffer-ahead past B_max (headroom clamp at issue time). `rtt_s` is dead
    time before the first byte.
    """

    video: VideoState
    segment: RangeSegment
    duration_s: float
    bitrate_mbps: float
    extent_bits: float
    issued_at_s: float
    rtt_s: float
    rtt_remaining_s: float
    delivered_bits: float = 0.0


@dataclass(frozen=True)
class TaskSample:
    """Measured throughput/latency of a finished (or cancelled) task."""

    throughput_mbps: float
    rtt_ms: float


@dataclass
class ActionRecord:
    """One issued range task and the reward terms attributed to its window."""

    issued_at_s: float
    video_index: int
    requested_s: float
    duration_s: float
    bitrate_mbps: float
    q_mbps: float
    rtt_ms: float
    delivered_s: float = 0.0
    closed_at_s: float = math.nan
    waste_bits: float = 0.0
    rebuffer_s: float = 0.0
    reward: float = 0.0
    policy: PolicyExtras | None = None


@dataclass
class SessionMetrics:
    """Aggregates of one simulated viewing session."""

    trace_id: str
    total_rebuffer_s: float = 0.0
    downloaded_bits: float = 0.0
    watched_bits: float = 0.0
    wasted_bits: float = 0.0
    bitrate_weighted_watch_s: float = 0.0
    played_s: float = 0.0
    wall_time_s: float = 0.0
    n_swipes: int = 0
    actions: list[ActionRecord] = field(default_factory=list)

    @property
    def qoe(self) -> float:
        return sum(rec.reward for rec in self.actions)

    @property
    def waste_ratio(self) -> float:
        if self.downloaded_bits <= 0.0:
            return 0.0
        return self.wasted_bits / self.downloaded_bits


class RetentionSource:
    """Watch-time source: empirical samples and/or per-video distributions.

    Sampling prefers empirical records for the video, then fitted/true
    parameters, then the configured default distribution. Draws are capped
    at the video duration.
    """

    def __init__(
        self,
        empirical: dict[str, Sequence[float]] | None = None,
        params: dict[str, WeibullParams] | None = None,
        default: WeibullParams | None = None,
    ):
        self.empirical = {k: np.asarray(v, dtype=np.float64) for k, v in (empirical or {}).items()}
        self.params = dict(params or {})
        self.default = default

    def sample(self, user_id: str, video: VideoState, rng: np.random.Generator) -> float:
        vid = video.meta.video_id
        pool = self.empirical.get(vid)
        if pool is not None and pool.size:
            draw = float(pool[int(rng.integers(pool.size))])
        else:
            p = self.params.get(vid, self.default)
            if p is None:
                raise KeyError(f"no retention data for video {vid!r} and no default distribution")
            draw = weibull_quantile(p, float(rng.random()))
        return float(min(max(draw, 0.0), video.meta.duration_s))


def estimate_network(history: Sequence[TaskSample], config: SimConfig) -> tuple[float, float]:
    """Sliding-window mean throughput (Mbps) and RTT (ms) over recent tasks.

    Before any task completes, returns the configured priors.
    """
    recent = history[-config.throughput_window :] if config.throughput_window > 0 else []
    if not recent:
        return config.prior_throughput_mbps, config.prior_rtt_ms
    q = sum(s.throughput_mbps for s in recent) / len(recent)
    rtt = sum(s.rtt_ms for s in recent) / len(recent)
    return q, rtt


def abr_select(
    ladder: tuple[float, ...],
    q_mbps: float,
    buffer_ahead_s: float,
    safety: float = 0.8,
) -> float:
    """Highest ladder rung at or below safety * q, floored at the lowest rung.

    `buffer_ahead_s` is unused by this rule.
    """
    budget = safety * q_mbps
    best = ladder[0]
    for rung in ladder:
        if rung <= budget:
            best = rung
    return best


def attribute_windows(
    events: Sequence[StallEvent | SwipeEvent], issued: Sequence[float]
) -> list[tuple[float, float]]:
    """Waste bits and stall seconds of every action window, in one sweep.

    Window i is [issued[i], issued[i+1]); the last one runs to infinity and
    events before the first action fall in none. `issued` is non-decreasing
    and `events` is in non-decreasing start order, as a session appends
    them. Each window hands `attribute_reward_terms` only the stretch of the
    log that can touch it, in log order, so its sums add the same terms in
    the same order as a rescan of the whole log and match it bit for bit.
    """
    begins = [ev.time_s if isinstance(ev, SwipeEvent) else ev.start_s for ev in events]
    ends = [ev.time_s if isinstance(ev, SwipeEvent) else ev.end_s for ev in events]
    n = len(events)
    lo = hi = 0
    terms = []
    for i, start in enumerate(issued):
        end = issued[i + 1] if i + 1 < len(issued) else math.inf
        # An event over before this window starts touches no later one either.
        while lo < n and ends[lo] < start:
            lo += 1
        hi = max(hi, lo)
        while hi < n and begins[hi] < end:
            hi += 1
        terms.append(attribute_reward_terms(events[lo:hi], start, end))
    return terms


class BandwidthCursor:
    """`Trace.bandwidth_at` for one session's stepping clock.

    Keeps the constant-bandwidth stretch of the trace that the last lookup
    landed in and answers from it while `t % period` stays inside; any other
    time falls back to the trace's bisect lookup. Every answer is the
    trace's own; non-decreasing times make the fallback rare.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self.period = trace.duration_s
        self.lo = self.hi = self.bw = 0.0

    def bandwidth_at(self, t_s: float) -> float:
        if not self.lo <= t_s % self.period < self.hi:
            self.lo, self.hi, self.bw = self.trace.segment_at(t_s)
        return self.bw


def _entropy(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


class _Session:
    """Mutable state of one run_session invocation."""

    def __init__(
        self,
        trace: Trace,
        playlist_source: Iterator[VideoState],
        retention: RetentionSource,
        strategy: Strategy,
        config: SimConfig,
        seed,
        user_id: str,
    ):
        self.trace = trace
        self.bandwidth = BandwidthCursor(trace)
        self.strategy = strategy
        self.config = config
        self.user_id = user_id
        ss = np.random.SeedSequence(entropy=list(_entropy(seed)))
        watch_ss, rtt_ss, action_ss = ss.spawn(3)
        self.watch_rng = np.random.default_rng(watch_ss)
        self.rtt_rng = np.random.default_rng(rtt_ss)
        self.action_rng = np.random.default_rng(action_ss)
        self.retention = retention
        self.playlist = Playlist(playlist_source, depth=config.queue_depth)
        self.watch_times: dict[str, float] = {}
        for v in self.playlist:
            self._sample_watch(v)
        self.metrics = SessionMetrics(trace_id=trace.trace_id)
        self.events: list = []
        # Only the last `throughput_window` samples feed estimate_network.
        self.history: list[TaskSample] = []
        self.active: DownloadTask | None = None
        self.sleep_until = -math.inf
        self.cancel_pending = False
        self.t = 0.0

    def _sample_watch(self, video: VideoState) -> None:
        self.watch_times[video.meta.video_id] = self.retention.sample(
            self.user_id, video, self.watch_rng
        )

    # -- download side ---------------------------------------------------

    def _decide(self) -> None:
        cfg = self.config
        q, rtt_est = estimate_network(self.history, cfg)
        decision = self.strategy.decide(self.playlist, q, rtt_est, cfg.b_max_s, self.action_rng)
        if decision is None:
            self.sleep_until = self.t + cfg.pause_ms / 1000.0
            return
        video = self.playlist[decision.index]
        bitrate = abr_select(video.meta.bitrate_ladder, q, video.buffer_ahead_s, cfg.abr_safety)
        headroom = cfg.b_max_s - video.buffer_ahead_s
        duration = min(decision.duration_s, video.remaining_download_s, headroom)
        if duration <= 0.0:
            # Nothing sensible to request; treat like an empty selection.
            self.sleep_until = self.t + cfg.pause_ms / 1000.0
            return
        segment = RangeSegment(start_s=video.buffered_s, bitrate_mbps=bitrate)
        video.segments.append(segment)
        video.chosen_bitrate = bitrate
        rtt_s = float(self.rtt_rng.uniform(cfg.rtt_min_ms, cfg.rtt_max_ms)) / 1000.0
        self.active = DownloadTask(
            video=video,
            segment=segment,
            duration_s=duration,
            bitrate_mbps=bitrate,
            extent_bits=video.meta.range_bits(duration, bitrate),
            issued_at_s=self.t,
            rtt_s=rtt_s,
            rtt_remaining_s=rtt_s,
        )
        self.metrics.actions.append(
            ActionRecord(
                issued_at_s=self.t,
                video_index=decision.index,
                requested_s=decision.duration_s,
                duration_s=duration,
                bitrate_mbps=bitrate,
                q_mbps=q,
                rtt_ms=rtt_est,
                policy=decision.extras,
            )
        )

    def _transfer(self, dt: float) -> None:
        task = self.active
        assert task is not None
        span = dt
        if task.rtt_remaining_s > 0.0:
            used = min(task.rtt_remaining_s, span)
            task.rtt_remaining_s -= used
            span -= used
        if span <= 0.0:
            return
        bw = self.bandwidth.bandwidth_at(self.t)
        bits = bw * BITS_PER_MEGABIT * span
        need = task.extent_bits - task.delivered_bits
        if bits >= need:
            take = need
            task.delivered_bits = task.extent_bits
        else:
            take = bits
            task.delivered_bits += take
        task.segment.delivered_bits += take
        task.video.buffered_s = task.segment.end_s
        self.metrics.downloaded_bits += take
        if task.delivered_bits >= task.extent_bits:
            self._complete_task(end_wall=self.t + dt)

    def _complete_task(self, end_wall: float) -> None:
        task = self.active
        assert task is not None
        transfer_s = max(end_wall - task.issued_at_s - task.rtt_s, 1e-9)
        self._record_sample(
            TaskSample(
                throughput_mbps=task.extent_bits / BITS_PER_MEGABIT / transfer_s,
                rtt_ms=task.rtt_s * 1000.0,
            )
        )
        rec = self.metrics.actions[-1]
        rec.delivered_s = task.duration_s
        self.active = None

    def _cancel_task(self, end_wall: float) -> None:
        task = self.active
        assert task is not None
        rec = self.metrics.actions[-1]
        rec.delivered_s = task.delivered_bits / (task.bitrate_mbps * BITS_PER_MEGABIT)
        if task.delivered_bits > 0.0:
            consumed_rtt = task.rtt_s - task.rtt_remaining_s
            transfer_s = max(end_wall - task.issued_at_s - consumed_rtt, 1e-9)
            self._record_sample(
                TaskSample(
                    throughput_mbps=task.delivered_bits / BITS_PER_MEGABIT / transfer_s,
                    rtt_ms=task.rtt_s * 1000.0,
                )
            )
        self.active = None

    def _record_sample(self, sample: TaskSample) -> None:
        history = self.history
        history.append(sample)
        if len(history) > self.config.throughput_window:
            del history[0]

    # -- playback side -----------------------------------------------------

    def _swipe_now(self, wall: float) -> None:
        v = self.playlist.current
        res = swipe(self.playlist, v.play_pos_s)
        self.events.append(SwipeEvent(time_s=wall, wasted_bits=res.wasted_bits))
        self.metrics.wasted_bits += res.wasted_bits
        self.metrics.watched_bits += res.watched_bits
        self.metrics.bitrate_weighted_watch_s += res.watched_bits / BITS_PER_MEGABIT
        self.metrics.n_swipes += 1
        for nv in res.added:
            self._sample_watch(nv)
        if self.active is not None:
            self.cancel_pending = True

    def _play(self, dt: float) -> None:
        videos = self.playlist.videos
        remaining = dt
        while remaining > 1e-12 and videos:
            v = videos[0]
            meta = v.meta
            pos = v.play_pos_s
            target = min(self.watch_times[meta.video_id], meta.duration_s)
            if pos >= target - EPS_S:
                self._swipe_now(wall=self.t + dt - remaining)
                continue
            step = min(remaining, min(v.buffered_s, target) - pos)
            if step > 1e-15:
                # advance_playback(v, step), inlined: target <= duration, so
                # step <= buffered - pos and <= duration - pos, and the
                # playhead moves by all of it with no rebuffer.
                v.play_pos_s = pos + step
                self.metrics.played_s += step
                remaining -= step
                continue
            start = self.t + dt - remaining
            self.events.append(StallEvent(start_s=start, end_s=self.t + dt))
            self.metrics.total_rebuffer_s += remaining
            remaining = 0.0

    # -- orchestration -----------------------------------------------------

    def run(self) -> SessionMetrics:
        cfg = self.config
        dt = cfg.step_ms / 1000.0
        t_end = cfg.max_session_s - 1e-12
        videos = self.playlist.videos
        while videos and self.t < t_end:
            if self.active is None and self.t >= self.sleep_until - 1e-12:
                self._decide()
            if self.active is not None:
                self._transfer(dt)
            self._play(dt)
            if self.cancel_pending:
                if self.active is not None:
                    self._cancel_task(end_wall=self.t + dt)
                self.cancel_pending = False
            self.t += dt
        self._finalize()
        return self.metrics

    def _finalize(self) -> None:
        if self.active is not None:
            self._cancel_task(end_wall=self.t)
        # Residual buffered bits of whatever is still queued count as waste
        # (non-empty only when the session hit its wall-clock cap).
        for v in self.playlist:
            watched = v.watched_prefix_bits(v.play_pos_s)
            wasted = v.delivered_bits() - watched
            self.metrics.watched_bits += watched
            self.metrics.wasted_bits += wasted
            self.metrics.bitrate_weighted_watch_s += watched / BITS_PER_MEGABIT
        self.metrics.wall_time_s = self.t
        actions = self.metrics.actions
        issued = [rec.issued_at_s for rec in actions]
        terms = attribute_windows(self.events, issued)
        for i, (rec, (w_bits, bt_s)) in enumerate(zip(actions, terms)):
            rec.closed_at_s = issued[i + 1] if i + 1 < len(issued) else self.t
            rec.waste_bits = w_bits
            rec.rebuffer_s = bt_s
            rec.reward = compute_reward(
                rec.delivered_s, rec.bitrate_mbps, w_bits, bt_s, rec.q_mbps, self.config.reward
            )


def run_session(
    trace: Trace,
    playlist_source: Iterator[VideoState],
    retention: RetentionSource,
    strategy: Strategy,
    config: SimConfig,
    seed,
    user_id: str = "viewer",
) -> SessionMetrics:
    """Simulate one viewing session; deterministic in (inputs, seed).

    The session ends when the playlist source is exhausted and the last
    video is swiped away, or at the max_session_s safety cap. Watch times
    are drawn from a stream keyed only by `seed`, so different strategies
    replayed with the same seed face the same viewer.
    """
    return _Session(trace, playlist_source, retention, strategy, config, seed, user_id).run()
