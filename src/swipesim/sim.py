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
    advance_playback,  # noqa: F401  inlined in _Session.run; the benchmark's tracer hooks it here
    swipe,
)
from .policy import PolicyExtras, Strategy
from .ppo import RewardWeights, attribute_reward_terms, compute_reward
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

    def __post_init__(self) -> None:
        # A clock that does not advance, or a cap it never reaches, leaves a
        # session that cannot finish its playlist running forever.
        if not 0.0 < self.step_ms < math.inf:
            raise ValueError(f"step_ms must be positive and finite, got {self.step_ms}")
        if not 0.0 <= self.max_session_s < math.inf:
            raise ValueError(f"max_session_s must be non-negative and finite, got {self.max_session_s}")
        if not self.b_max_s > 0.0:
            raise ValueError(f"b_max_s must be positive, got {self.b_max_s}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be at least 1, got {self.queue_depth}")
        if not 0.0 <= self.rtt_min_ms <= self.rtt_max_ms < math.inf:
            raise ValueError(
                "rtt_min_ms and rtt_max_ms must satisfy 0 <= rtt_min_ms <= rtt_max_ms < inf, "
                f"got {self.rtt_min_ms} and {self.rtt_max_ms}"
            )


@dataclass(slots=True)
class DownloadTask:
    """An in-flight range request for one video.

    The range starts at the video's buffer edge and never extends the
    buffer-ahead past B_max (headroom clamp at issue time). `rtt_s` is dead
    time before the first byte. The session's step loop keeps the bits
    delivered so far and the latency left in locals.
    """

    video: VideoState
    segment: RangeSegment
    duration_s: float
    extent_bits: float
    issued_at_s: float
    rtt_s: float


@dataclass(slots=True)
class ActionLog:
    """The issued range tasks of one session, one list per fact.

    Entry i of every list belongs to the i-th issued task; `len()` counts
    the tasks. `delivered_s` is the media the task delivered before it
    completed or was cancelled; `waste_bits`, `rebuffer_s` and `reward` are
    the terms attributed to its window when the session ends; `policy` holds
    the decision's training payload, None for deterministic decisions.
    """

    issued_at_s: list[float] = field(default_factory=list)
    video_index: list[int] = field(default_factory=list)
    duration_s: list[float] = field(default_factory=list)
    bitrate_mbps: list[float] = field(default_factory=list)
    q_mbps: list[float] = field(default_factory=list)
    delivered_s: list[float] = field(default_factory=list)
    waste_bits: list[float] = field(default_factory=list)
    rebuffer_s: list[float] = field(default_factory=list)
    reward: list[float] = field(default_factory=list)
    policy: list[PolicyExtras | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.issued_at_s)


@dataclass
class SessionMetrics:
    """Aggregates of one simulated viewing session."""

    trace_id: str
    total_rebuffer_s: float = 0.0
    downloaded_bits: float = 0.0
    watched_bits: float = 0.0
    wasted_bits: float = 0.0
    wall_time_s: float = 0.0
    n_swipes: int = 0
    actions: ActionLog = field(default_factory=ActionLog)

    @property
    def qoe(self) -> float:
        # A plain left-to-right sum: Python 3.12's `sum` of floats
        # compensates its rounding and would give other bytes.
        total = 0.0
        for reward in self.actions.reward:
            total += reward
        return total

    @property
    def waste_ratio(self) -> float:
        if self.downloaded_bits <= 0.0:
            return 0.0
        return self.wasted_bits / self.downloaded_bits


class RetentionSource:
    """Watch-time source: empirical samples and/or per-video distributions.

    Sampling prefers empirical records for the video, then its
    parameters; a video with neither raises KeyError. Every viewer of a
    video draws from the same source. Draws are capped at the video
    duration.
    """

    def __init__(
        self,
        empirical: dict[str, Sequence[float]] | None = None,
        params: dict[str, WeibullParams] | None = None,
    ):
        self.empirical = {k: np.asarray(v, dtype=np.float64) for k, v in (empirical or {}).items()}
        self.params = dict(params or {})

    def sample(self, video: VideoState, rng: np.random.Generator) -> float:
        vid = video.meta.video_id
        pool = self.empirical.get(vid)
        if pool is not None and pool.size:
            draw = float(pool[int(rng.integers(pool.size))])
        else:
            p = self.params.get(vid)
            if p is None:
                raise KeyError(f"no retention data for video {vid!r}")
            draw = weibull_quantile(p, float(rng.random()))
        return float(min(max(draw, 0.0), video.meta.duration_s))


def estimate_network(history: Sequence[tuple[float, float]], config: SimConfig) -> tuple[float, float]:
    """Sliding-window mean throughput (Mbps) and RTT (ms) over recent tasks.

    `history` holds a `(throughput_mbps, rtt_ms)` pair per finished or
    cancelled task. Before any task completes, returns the configured priors.
    """
    recent = history[-config.throughput_window :] if config.throughput_window > 0 else []
    if not recent:
        return config.prior_throughput_mbps, config.prior_rtt_ms
    # Plain left-to-right sums from 0.0: what `sum` gives before Python 3.12,
    # whose `sum` of floats compensates its rounding.
    q = rtt = 0.0
    for throughput, rtt_ms in recent:
        q += throughput
        rtt += rtt_ms
    return q / len(recent), rtt / len(recent)


def abr_select(ladder: tuple[float, ...], q_mbps: float, safety: float = 0.8) -> float:
    """Highest ladder rung at or below safety * q, floored at the lowest rung."""
    budget = safety * q_mbps
    best = ladder[0]
    for rung in ladder:
        if rung <= budget:
            best = rung
    return best


def attribute_windows(
    events: Sequence[tuple[float, float, float | None]], issued: Sequence[float]
) -> list[tuple[float, float]]:
    """Waste bits and stall seconds of every action window, in one sweep.

    Window i is [issued[i], issued[i+1]); the last one runs to infinity and
    events before the first action fall in none. `issued` is non-decreasing
    and `events` (`(begin_s, end_s, wasted_bits)` tuples) is in
    non-decreasing start order, as a session appends them. Each window
    hands `attribute_reward_terms` only the stretch of the log that can
    touch it, in log order, so its sums add the same terms in the same
    order as a rescan of the whole log and match it bit for bit.
    """
    n = len(events)
    lo = hi = 0
    terms = []
    for i, start in enumerate(issued):
        end = issued[i + 1] if i + 1 < len(issued) else math.inf
        # An event over before this window starts touches no later one either.
        while lo < n and events[lo][1] < start:
            lo += 1
        hi = max(hi, lo)
        while hi < n and events[hi][0] < end:
            hi += 1
        terms.append(attribute_reward_terms(events[lo:hi], start, end))
    return terms


# Latencies per `rtt_rng` call; a session uses a few hundred, and draws past
# its end are never read.
RTT_BLOCK = 128


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
    ):
        self.trace = trace
        self.strategy = strategy
        self.config = config
        ss = np.random.SeedSequence(entropy=list(_entropy(seed)))
        watch_ss, rtt_ss, action_ss = ss.spawn(3)
        self.watch_rng = np.random.default_rng(watch_ss)
        self.rtt_rng = np.random.default_rng(rtt_ss)
        self.action_rng = np.random.default_rng(action_ss)
        # First-byte latencies (ms) drawn ahead in blocks, next one last.
        self.rtt_draws: list[float] = []
        self.retention = retention
        self.playlist = Playlist(playlist_source, depth=config.queue_depth)
        self.watch_times: dict[str, float] = {}
        for v in self.playlist:
            self._sample_watch(v)
        self.metrics = SessionMetrics(trace_id=trace.trace_id)
        # One `(begin_s, end_s, wasted_bits)` tuple per event, in start
        # order: a swipe at `t` is `(t, t, bits)`, a stall `(start, end, None)`.
        self.events: list[tuple[float, float, float | None]] = []
        # `(throughput_mbps, rtt_ms)` of recent tasks; only the last
        # `throughput_window` feed estimate_network.
        self.history: list[tuple[float, float]] = []
        self.t = 0.0

    def _sample_watch(self, video: VideoState) -> None:
        self.watch_times[video.meta.video_id] = self.retention.sample(video, self.watch_rng)

    # -- download side ---------------------------------------------------

    def _decide(self, t: float) -> DownloadTask | None:
        """Ask the strategy for a task at time `t`; None means pause."""
        cfg = self.config
        q, rtt_est = estimate_network(self.history, cfg)
        videos = self.playlist.videos
        decision = self.strategy.decide(videos, q, rtt_est, cfg.b_max_s, self.action_rng)
        if decision is None:
            return None
        video = videos[decision.index]
        meta = video.meta
        buffered = video.buffered_s
        bitrate = abr_select(meta.bitrate_ladder, q, cfg.abr_safety)
        # min(duration, remaining download, headroom below B_max), written as
        # the comparisons that return the operand `min` returns.
        duration = decision.duration_s
        remaining = meta.duration_s - buffered
        if remaining < duration:
            duration = remaining
        headroom = cfg.b_max_s - (buffered - video.play_pos_s)
        if headroom < duration:
            duration = headroom
        if duration <= 0.0:
            # Nothing sensible to request; treat like an empty selection.
            return None
        segment = RangeSegment(start_s=buffered, bitrate_mbps=bitrate)
        video.segments.append(segment)
        video.chosen_bitrate = bitrate
        draws = self.rtt_draws
        if not draws:
            # numpy fills a block with the same `low + (high - low) * u` per
            # element as one scalar draw, from the same stream in order.
            draws += reversed(self.rtt_rng.uniform(cfg.rtt_min_ms, cfg.rtt_max_ms, RTT_BLOCK).tolist())
        rtt_s = draws.pop() / 1000.0
        actions = self.metrics.actions
        actions.issued_at_s.append(t)
        actions.video_index.append(decision.index)
        actions.duration_s.append(duration)
        actions.bitrate_mbps.append(bitrate)
        actions.q_mbps.append(q)
        actions.policy.append(decision.extras)
        return DownloadTask(video, segment, duration, meta.range_bits(duration, bitrate), t, rtt_s)

    def _cancel_task(self, task: DownloadTask, got: float, end_wall: float) -> None:
        """Close `task` with `got` of its bits delivered."""
        self.metrics.actions.delivered_s.append(got / (task.segment.bitrate_mbps * BITS_PER_MEGABIT))
        if got > 0.0:
            # Bits flow only once the first-byte latency is spent in full.
            transfer_s = max(end_wall - task.issued_at_s - task.rtt_s, 1e-9)
            self._record_sample(got / BITS_PER_MEGABIT / transfer_s, task.rtt_s * 1000.0)

    def _record_sample(self, throughput_mbps: float, rtt_ms: float) -> None:
        history = self.history
        history.append((throughput_mbps, rtt_ms))
        if len(history) > self.config.throughput_window:
            del history[0]

    # -- playback side -----------------------------------------------------

    def _swipe_now(self, wall: float) -> None:
        v = self.playlist.current
        res = swipe(self.playlist, v.play_pos_s)
        self.events.append((wall, wall, res.wasted_bits))
        self.metrics.wasted_bits += res.wasted_bits
        self.metrics.watched_bits += res.watched_bits
        self.metrics.n_swipes += 1
        for nv in res.added:
            self._sample_watch(nv)

    # -- orchestration -----------------------------------------------------

    def run(self) -> SessionMetrics:
        """Step the session to its end, one `step_ms` tick per iteration.

        A tick lets an idle, awake downloader issue a task, moves the active
        task's bits after its first-byte latency, plays with sub-step swipes
        and stalls, and cancels the task a swipe left pending. Hot state
        lives in locals, written back before each call that reads it; sums
        keep their order and each `min` pick returns `min`'s operand, so the
        results are bit-identical to updating every field in place.
        """
        cfg = self.config
        dt = cfg.step_ms / 1000.0
        pause = cfg.pause_ms / 1000.0
        t_end = cfg.max_session_s - 1e-12
        videos = self.playlist.videos
        watch_times = self.watch_times
        events = self.events
        delivered = self.metrics.actions.delivered_s
        # The trace's constant stretch [lo, hi) of `t % period`, at `bw`;
        # looked up again only when the clock leaves it.
        trace = self.trace
        period = trace.duration_s
        lo = hi = bw = 0.0
        m = self.metrics
        downloaded, rebuffer = m.downloaded_bits, m.total_rebuffer_s
        t = self.t
        wake = -math.inf
        task = cur = None
        cancel = False
        while videos and t < t_end:
            if task is None and t >= wake:
                task = self._decide(t)
                if task is None:
                    wake = t + pause - 1e-12
                else:
                    # The segment's bits equal the task's until the last step.
                    seg, extent, rtt_left = task.segment, task.extent_bits, task.rtt_s
                    got, seg_start = 0.0, seg.start_s
                    seg_rate = seg.bitrate_mbps * BITS_PER_MEGABIT
                    tvideo = task.video

            if task is not None:
                span = dt
                if rtt_left > 0.0:
                    used = span if span < rtt_left else rtt_left
                    rtt_left -= used
                    span -= used
                if span > 0.0:
                    if not lo <= t % period < hi:
                        lo, hi, bw = trace.segment_at(t)
                    bits = bw * BITS_PER_MEGABIT * span
                    need = extent - got
                    take = need if bits >= need else bits
                    got += take
                    tvideo.buffered_s = seg_start + got / seg_rate
                    downloaded += take
                    if bits >= need or got >= extent:
                        seg.delivered_bits = got
                        transfer_s = max(t + dt - task.issued_at_s - task.rtt_s, 1e-9)
                        self._record_sample(extent / BITS_PER_MEGABIT / transfer_s, task.rtt_s * 1000.0)
                        delivered.append(task.duration_s)
                        task = None

            remaining = dt
            while remaining > 1e-12 and videos:
                if cur is None:
                    cur = videos[0]
                    meta = cur.meta
                    watch, duration = watch_times[meta.video_id], meta.duration_s
                    target = duration if duration < watch else watch
                    swipe_at = target - EPS_S
                pos = cur.play_pos_s
                if pos >= swipe_at:
                    if task is not None:
                        seg.delivered_bits = got
                        cancel = True
                    self._swipe_now(wall=t + dt - remaining)
                    # The next video plays: look its target up after the refill.
                    cur = None
                    continue
                buffered = cur.buffered_s
                edge = (target if target < buffered else buffered) - pos
                step = edge if edge < remaining else remaining
                if step > 1e-15:
                    # advance_playback(cur, step), inlined: target <= duration,
                    # so step <= buffered - pos and <= duration - pos, and the
                    # playhead moves by all of it with no rebuffer.
                    cur.play_pos_s = pos + step
                    remaining -= step
                    continue
                events.append((t + dt - remaining, t + dt, None))
                rebuffer += remaining
                remaining = 0.0

            if cancel:
                self._cancel_task(task, got, end_wall=t + dt)
                task = None
                cancel = False
            t += dt

        self.t = t
        if task is not None:
            seg.delivered_bits = got
            self._cancel_task(task, got, end_wall=t)
        m.downloaded_bits, m.total_rebuffer_s = downloaded, rebuffer
        self._finalize()
        return m

    def _finalize(self) -> None:
        m = self.metrics
        # Residual buffered bits of whatever is still queued count as waste
        # (non-empty only when the session hit its wall-clock cap).
        for v in self.playlist:
            watched = v.watched_prefix_bits(v.play_pos_s)
            wasted = v.delivered_bits() - watched
            m.watched_bits += watched
            m.wasted_bits += wasted
        m.wall_time_s = self.t
        a = m.actions
        weights = self.config.reward
        terms = attribute_windows(self.events, a.issued_at_s)
        for a_s, b_mbps, q_mbps, (w_bits, bt_s) in zip(a.delivered_s, a.bitrate_mbps, a.q_mbps, terms):
            a.waste_bits.append(w_bits)
            a.rebuffer_s.append(bt_s)
            a.reward.append(compute_reward(a_s, b_mbps, w_bits, bt_s, q_mbps, weights))


def run_session(
    trace: Trace,
    playlist_source: Iterator[VideoState],
    retention: RetentionSource,
    strategy: Strategy,
    config: SimConfig,
    seed,
) -> SessionMetrics:
    """Simulate one viewing session; deterministic in (inputs, seed).

    The session ends when the playlist source is exhausted and the last
    video is swiped away, or at the max_session_s safety cap. Watch times
    are drawn from a stream keyed only by `seed`, so different strategies
    replayed with the same seed face the same viewer.
    """
    return _Session(trace, playlist_source, retention, strategy, config, seed).run()
