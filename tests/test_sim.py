import bisect
import dataclasses
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import buffer_to, flat_trace, make_video, random_session_inputs, run_random_session
from swipesim import sim
from swipesim.demand import DemandVector, compute_demands, fitted_survival, uniform_survival
from swipesim.media import (
    BITS_PER_MEGABIT,
    EPS_S,
    RangeSegment,
    Trace,
    VideoMeta,
    VideoState,
    swipe,
)
from swipesim.policy import (
    Decision,
    FixedRangeStrategy,
    LearnedRangeStrategy,
    MlpNet,
    NaiveFixedStrategy,
    PolicyConfig,
    PolicyExtras,
    Strategy,
    build_state,
    gaussian_log_prob,
    map_to_range,
)
from swipesim.ppo import attribute_reward_terms, compute_reward
from swipesim.sim import (
    ActionLog,
    RetentionSource,
    SessionMetrics,
    SimConfig,
    abr_select,
    attribute_windows,
    estimate_network,
    run_session,
)
from swipesim.watchtime import WeibullParams


def _one_video_session(trace, strategy, watch_s, duration_s=60.0, **cfg_kw):
    meta = VideoMeta("v0", duration_s, (1.0,))
    cfg = SimConfig(videos_per_session=1, **cfg_kw)
    retention = RetentionSource(empirical={"v0": [watch_s]})
    return run_session(trace, iter([VideoState(meta=meta)]), retention, strategy, cfg, seed=0)


# --- task timing ---------------------------------------------------------------


def test_first_task_timing_with_fixed_rtt():
    # 1s range at 1 Mbps over a 1 Mbps link, 100 ms first-byte latency:
    # bits land during [0.1, 1.1], next decision fires at 1.1.
    m = _one_video_session(
        flat_trace(1.0), NaiveFixedStrategy("naive_1s", 1.0), watch_s=60.0,
        rtt_min_ms=100.0, rtt_max_ms=100.0,
    )
    a = m.actions
    assert a.issued_at_s[0] == 0.0
    assert a.delivered_s[0] == pytest.approx(1.0, abs=1e-9)
    assert a.issued_at_s[1] == pytest.approx(1.1, abs=1e-9)


def test_measured_throughput_feeds_next_action():
    m = _one_video_session(
        flat_trace(2.0), NaiveFixedStrategy("naive_1s", 1.0), watch_s=60.0,
        rtt_min_ms=100.0, rtt_max_ms=100.0,
    )
    assert m.actions.q_mbps[0] == 1.0  # prior before any measurement
    assert m.actions.q_mbps[1] == pytest.approx(2.0, rel=1e-9)


def test_no_rebuffering_on_infinite_link():
    metas = [VideoMeta(f"v{i}", 8.0, (1.0, 2.0)) for i in range(3)]
    videos = iter(VideoState(meta=m) for m in metas)
    retention = RetentionSource(empirical={m.video_id: [8.0] for m in metas})
    cfg = SimConfig(rtt_min_ms=0.0, rtt_max_ms=0.0, videos_per_session=3)
    m = run_session(
        flat_trace(1e9), videos, retention, NaiveFixedStrategy("naive_1s", 1.0), cfg, seed=1
    )
    assert m.total_rebuffer_s == 0.0
    assert m.n_swipes == 3


def test_decisions_poll_every_half_second_when_idle():
    seen: list[float] = []

    class Probe(Strategy):
        name = "probe"

        def decide(self, playlist, q_mbps, rtt_ms, b_max_s, rng):
            seen.append(playlist[0].play_pos_s)
            return None

    video = make_video(duration_s=5.0)
    buffer_to(video, 5.0)
    retention = RetentionSource(empirical={"v0": [2.0]})
    cfg = SimConfig(videos_per_session=1)
    run_session(flat_trace(1.0), iter([video]), retention, Probe(), cfg, seed=0)
    assert seen == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-9)


@pytest.mark.parametrize("depth", [1, 3, 7, 9])
def test_session_queue_keeps_depth_until_source_dries(depth):
    """The queue holds the next `queue_depth` unswiped videos, in source
    order, and shrinks only once the source runs dry."""
    seen: list[tuple[int, list[str]]] = []
    naive = NaiveFixedStrategy("naive_1s", 1.0)

    class Spy(Strategy):
        name = "spy"

        def decide(self, videos, q_mbps, rtt_ms, b_max_s, rng):
            seen.append((len(videos), [v.meta.video_id for v in videos]))
            return naive.decide(videos, q_mbps, rtt_ms, b_max_s, rng)

    ids = [f"v{i}" for i in range(7)]
    retention = RetentionSource(empirical={vid: [1.5] for vid in ids})
    cfg = SimConfig(queue_depth=depth, videos_per_session=len(ids))
    source = (make_video(vid, duration_s=4.0) for vid in ids)
    m = run_session(flat_trace(4.0), source, retention, Spy(), cfg, seed=0)
    assert m.n_swipes == len(ids)
    assert {queued[0] for _, queued in seen} == set(ids)
    for n, queued in seen:
        swiped = ids.index(queued[0])
        assert n == min(depth, len(ids) - swiped)
        assert queued == ids[swiped : swiped + n]


# --- network estimation and rate selection -----------------------------------


def test_estimate_network_prior_then_window():
    cfg = SimConfig()
    assert estimate_network([], cfg) == (1.0, 80.0)
    assert estimate_network([(2.0, 100.0)], cfg) == (2.0, 100.0)
    hist = [(float(x), 50.0) for x in range(1, 8)]
    q, rtt = estimate_network(hist, cfg)  # window 5 -> mean of 3..7
    assert q == pytest.approx(5.0)
    assert rtt == 50.0


@pytest.mark.parametrize("window", [0, 1, 3, 5])
def test_bounded_history_gives_the_unbounded_estimates(monkeypatch, window):
    made, seen = [], []
    estimate = sim.estimate_network
    record = sim._Session._record_sample

    def recording_sample(self, throughput_mbps, rtt_ms):
        made.append((throughput_mbps, rtt_ms))
        record(self, throughput_mbps, rtt_ms)

    def checking_estimate(history, config):
        assert len(history) <= window
        seen.append((estimate(history, config), estimate(list(made), config)))
        return seen[-1][0]

    monkeypatch.setattr(sim._Session, "_record_sample", recording_sample)
    monkeypatch.setattr(sim, "estimate_network", checking_estimate)
    metas = [VideoMeta(f"v{i}", 12.0, (0.5, 1.0, 2.0)) for i in range(6)]
    retention = RetentionSource(empirical={m.video_id: [2.5 + 1.5 * i] for i, m in enumerate(metas)})
    trace = Trace("steps", [i * 700.0 for i in range(9)], [0.4 + (i % 4) for i in range(9)])
    cfg = SimConfig(videos_per_session=6, throughput_window=window)
    run_session(
        trace, iter(VideoState(meta=m) for m in metas), retention,
        FixedRangeStrategy("deload_1s", 1.0, survival=uniform_survival), cfg, seed=4,
    )
    assert len(made) > 20 and len(seen) > len(made)
    assert all(got == want for got, want in seen)


def test_abr_select_picks_highest_sustainable_rung():
    ladder = (1.0, 2.0, 4.0)
    assert abr_select(ladder, 3.0) == 2.0
    assert abr_select(ladder, 0.1) == 1.0
    assert abr_select(ladder, 100.0) == 4.0
    assert abr_select(ladder, 5.0, safety=0.4) == 2.0
    assert abr_select(ladder, 5.0, safety=1.0) == 4.0


# --- watch-time draws -----------------------------------------------------------


def test_retention_empirical_capped_at_duration():
    video = make_video(duration_s=30.0)
    src = RetentionSource(empirical={"v0": [100.0]})
    rng = np.random.default_rng(0)
    assert src.sample(video, rng) == 30.0
    floor = RetentionSource(empirical={"v0": [-5.0]})
    assert floor.sample(video, rng) == 0.0


def test_retention_parametric_mean():
    video = make_video(duration_s=1e9)
    src = RetentionSource(params={"v0": WeibullParams(1.0, 5.0, 0.0)})
    rng = np.random.default_rng(3)
    draws = [src.sample(video, rng) for _ in range(20000)]
    assert np.mean(draws) == pytest.approx(5.0, abs=0.2)


def test_retention_seed_reproducible():
    video = make_video(duration_s=100.0)
    src = RetentionSource(params={"v0": WeibullParams(1.3, 6.0, 0.5)})
    a = src.sample(video, np.random.default_rng(42))
    b = src.sample(video, np.random.default_rng(42))
    assert a == b


def test_retention_fallback_order():
    video = make_video(duration_s=50.0)
    with pytest.raises(KeyError):
        RetentionSource().sample(video, np.random.default_rng(0))
    # a video with no records and no parameters raises, even if others have them
    with pytest.raises(KeyError):
        RetentionSource(params={"other": WeibullParams(1, 1, 0)}).sample(video, np.random.default_rng(0))
    # empirical wins over params for the same video
    both = RetentionSource(empirical={"v0": [7.0]}, params={"v0": WeibullParams(1, 1, 0)})
    assert both.sample(video, np.random.default_rng(0)) == 7.0


# --- accounting ----------------------------------------------------------------


@pytest.mark.parametrize("case_seed", range(40))
def test_every_bit_watched_or_wasted(case_seed):
    m = run_random_session(case_seed)
    residual = abs(m.downloaded_bits - m.watched_bits - m.wasted_bits)
    assert residual <= 1e-9 * max(1.0, m.downloaded_bits)


def test_swipe_cancels_active_task():
    # 8s range over a link ~3x slower than the rung; the viewer leaves at 1s in.
    meta = VideoMeta("v0", 30.0, (1.0,))
    videos = iter([VideoState(meta=meta), make_video("v1", duration_s=30.0)])
    retention = RetentionSource(empirical={"v0": [1.0], "v1": [1.0]})
    cfg = SimConfig(videos_per_session=2)
    strat = FixedRangeStrategy("deload_8s", 8.0, survival=uniform_survival)
    m = run_session(flat_trace(0.3), videos, retention, strat, cfg, seed=0)
    assert m.actions.delivered_s[0] < m.actions.duration_s[0]
    assert m.wasted_bits > 0.0
    assert m.downloaded_bits == pytest.approx(m.watched_bits + m.wasted_bits, rel=1e-9)


def test_range_clamped_to_video_end():
    m = _one_video_session(
        flat_trace(5.0),
        FixedRangeStrategy("deload_5s", 5.0, survival=uniform_survival),
        watch_s=3.0,
        duration_s=3.0,
    )
    assert m.actions.duration_s[0] == 3.0


def test_reward_terms_reconcile_with_session_totals():
    m = run_random_session(7)
    a = m.actions
    assert a, "fuzz case must issue at least one task"
    assert sum(a.waste_bits) == pytest.approx(m.wasted_bits, rel=1e-9, abs=1e-6)
    assert sum(a.rebuffer_s) == pytest.approx(m.total_rebuffer_s, rel=1e-9, abs=1e-9)
    for d, b, w, bt, q, r in zip(a.delivered_s, a.bitrate_mbps, a.waste_bits, a.rebuffer_s, a.q_mbps, a.reward):
        assert r == pytest.approx(compute_reward(d, b, w, bt, q), rel=1e-12, abs=1e-12)
    assert m.qoe == pytest.approx(sum(a.reward))


def test_session_is_deterministic_in_seed():
    m1, m2 = run_random_session(11), run_random_session(11)
    assert m1.downloaded_bits == m2.downloaded_bits
    assert m1.watched_bits == m2.watched_bits
    assert m1.wasted_bits == m2.wasted_bits
    assert m1.total_rebuffer_s == m2.total_rebuffer_s
    assert len(m1.actions) == len(m2.actions)
    for name in ("issued_at_s", "duration_s", "bitrate_mbps", "reward"):
        assert getattr(m1.actions, name) == getattr(m2.actions, name)


# --- reward attribution ----------------------------------------------------------


def rescan(events, issued):
    """Reference attribution: every window scans the whole event log."""
    ends = [*issued[1:], math.inf]
    return [attribute_reward_terms(events, start, end) for start, end in zip(issued, ends)]


@st.composite
def event_logs(draw):
    """A log in start order and the issue times of its action windows, on a
    0.1 s grid so swipes and stall edges land exactly on window edges."""
    events = []
    for k in sorted(draw(st.lists(st.integers(0, 60), max_size=30))):
        if draw(st.booleans()):
            events.append((k / 10, k / 10, draw(st.floats(0.0, 1e7))))
        else:
            events.append((k / 10, (k + draw(st.integers(0, 25))) / 10, None))
    issued = sorted(draw(st.lists(st.integers(0, 60), min_size=1, max_size=12)))
    return events, [k / 10 for k in issued]


@settings(max_examples=300, deadline=None)
@given(event_logs())
# swipes exactly at a window's start and at its end
@example(([(1.0, 1.0, 3e6), (2.0, 2.0, 5e6)], [1.0, 2.0]))
# a stall crossing a window boundary
@example(([(0.5, 1.5, None)], [0.0, 1.0]))
# events before the first action
@example(([(0.2, 0.2, 1e6), (0.3, 0.9, None), (0.9, 1.3, None)], [1.0, 2.0]))
# windows without events
@example(([(0.1, 0.2, None), (5.0, 5.0, 1.0)], [0.0, 1.0, 2.0, 3.0, 4.0]))
# a single action
@example(([(0.0, 0.4, None), (0.7, 0.7, 2.5e6)], [0.3]))
def test_sweep_attribution_matches_rescan(log):
    events, issued = log
    assert attribute_windows(events, issued) == rescan(events, issued)


def test_sweep_splits_a_stall_across_windows():
    assert attribute_windows([(0.5, 1.5, None)], [0.0, 1.0]) == [(0.0, 0.5), (0.0, 0.5)]


def test_sweep_matches_rescan_on_a_starved_session(monkeypatch):
    scanned = []

    def counting(events, start, end):
        scanned.append(len(events))
        return attribute_reward_terms(events, start, end)

    monkeypatch.setattr(sim, "attribute_reward_terms", counting)
    metas = [VideoMeta(f"v{i}", 20.0, (1.0,)) for i in range(4)]
    retention = RetentionSource(empirical={m.video_id: [12.0] for m in metas})
    cfg = SimConfig(videos_per_session=4)
    session = sim._Session(
        flat_trace(0.3), iter(VideoState(meta=m) for m in metas), retention,
        FixedRangeStrategy("deload_5s", 5.0, survival=uniform_survival), cfg, 0,
    )
    m = session.run()
    # Starved: one stall event per 100 ms step dwarfs the action count.
    assert len(session.events) > 10 * len(m.actions)
    assert m.wasted_bits > 0.0
    a = m.actions
    terms = rescan(session.events, a.issued_at_s)
    assert list(zip(a.waste_bits, a.rebuffer_s)) == terms
    for d, b, q, r, (w_bits, bt_s) in zip(a.delivered_s, a.bitrate_mbps, a.q_mbps, a.reward, terms):
        assert r == compute_reward(d, b, w_bits, bt_s, q, cfg.reward)
    # One pass over the log, not one per action.
    assert len(scanned) == len(m.actions)
    assert sum(scanned) <= 2 * len(session.events)


# --- bandwidth stretches ----------------------------------------------------------


def _reference_bandwidth_at(trace, t_s):
    """Trace.bandwidth_at as the engine called it on every step: a bisect."""
    rel = [(ts - trace.timestamps_ms[0]) / 1000.0 for ts in trace.timestamps_ms]
    u = t_s % trace.duration_s
    i = max(bisect.bisect_right(rel, u) - 1, 0)
    return trace.bandwidth_mbps[i]


@st.composite
def traces_and_clocks(draw):
    n = draw(st.integers(1, 6))
    t0 = draw(st.integers(0, 10_000))
    stamps = [t0]
    for _ in range(n - 1):
        stamps.append(stamps[-1] + draw(st.integers(1, 3000)))
    bws = draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n))
    trace = Trace("h", [float(ts) for ts in stamps], bws)
    period = trace.duration_s
    rel = [(ts - stamps[0]) / 1000.0 for ts in stamps]
    # Exact sample boundaries and period wraps, free times, and a stepping
    # clock that accumulates its float error the way the engine's does.
    times = [r + k * period for k in range(3) for r in rel] + [k * period for k in range(1, 4)]
    times += draw(st.lists(st.floats(0.0, 4.0 * period), max_size=20))
    t, dt = 0.0, draw(st.sampled_from([0.1, 0.05, 0.3]))
    while t < 3.0 * period:
        times.append(t)
        t += dt
    return trace, sorted(times)


@settings(max_examples=200, deadline=None)
@given(traces_and_clocks())
@example((Trace("one", [0.0], [3.0]), [0.0, 0.5, 1.0, 1.0, 2.5, 3.0]))
def test_segment_at_matches_trace_lookup(case):
    """The step loop keeps the stretch `segment_at` returned while the
    clock's offset stays inside it: that stretch holds the offset, and its
    bandwidth is the bisect lookup's at every time it is kept for."""
    trace, times = case
    period = trace.duration_s
    # Any order stays correct; it only looks the stretch up more often.
    for order in (times, times[::-1]):
        lo = hi = bw = 0.0
        for t in order:
            if not lo <= t % period < hi:
                lo, hi, bw = trace.segment_at(t)
                assert lo <= t % period < hi
            want = _reference_bandwidth_at(trace, t)
            assert bw == want
            assert trace.bandwidth_at(t) == want


# --- the reference engine -------------------------------------------------------
#
# The engine as it was before its logs became plain values and its step loop
# was fused: one frozen object per stall step, swipe and finished task, one
# record per action, every value read and written through `self`, and each
# action's reward terms a rescan of the whole event log. The tests below
# compare the engine with it bit for bit.


@dataclass(frozen=True)
class StallEvent:
    start_s: float
    end_s: float


@dataclass(frozen=True)
class SwipeEvent:
    time_s: float
    wasted_bits: float


@dataclass(frozen=True)
class TaskSample:
    throughput_mbps: float
    rtt_ms: float


@dataclass
class DownloadTask:
    video: VideoState
    segment: RangeSegment
    duration_s: float
    bitrate_mbps: float
    extent_bits: float
    issued_at_s: float
    rtt_s: float
    rtt_remaining_s: float
    delivered_bits: float = 0.0


@dataclass
class ActionRecord:
    issued_at_s: float
    video_index: int
    duration_s: float
    bitrate_mbps: float
    q_mbps: float
    delivered_s: float = 0.0
    waste_bits: float = 0.0
    rebuffer_s: float = 0.0
    reward: float = 0.0
    policy: PolicyExtras | None = None


@dataclass
class _Totals:
    """`SessionMetrics` with its actions as a list of records."""

    trace_id: str
    total_rebuffer_s: float = 0.0
    downloaded_bits: float = 0.0
    watched_bits: float = 0.0
    wasted_bits: float = 0.0
    wall_time_s: float = 0.0
    n_swipes: int = 0
    actions: list[ActionRecord] = field(default_factory=list)


def _object_attribute(events, start, end):
    """`attribute_reward_terms` over event objects."""
    w_bits = bt_s = 0.0
    for ev in events:
        if isinstance(ev, SwipeEvent):
            if start <= ev.time_s < end:
                w_bits += ev.wasted_bits
        else:
            overlap = min(ev.end_s, end) - max(ev.start_s, start)
            if overlap > 0:
                bt_s += overlap
    return w_bits, bt_s


def _fold_estimate_network(history, config):
    """`estimate_network` over task samples, each mean a left fold from 0.0."""
    recent = history[-config.throughput_window :] if config.throughput_window > 0 else []
    if not recent:
        return config.prior_throughput_mbps, config.prior_rtt_ms
    q = functools.reduce(operator.add, (s.throughput_mbps for s in recent), 0.0)
    rtt = functools.reduce(operator.add, (s.rtt_ms for s in recent), 0.0)
    return q / len(recent), rtt / len(recent)


class _PerStepSession:
    """The reference engine, drawing first-byte latencies in blocks."""

    def __init__(self, trace, playlist_source, retention, strategy, config, seed):
        self.trace = trace
        self.strategy = strategy
        self.config = config
        entropy = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
        watch_ss, rtt_ss, action_ss = np.random.SeedSequence(entropy=entropy).spawn(3)
        self.watch_rng = np.random.default_rng(watch_ss)
        self.rtt_rng = np.random.default_rng(rtt_ss)
        self.action_rng = np.random.default_rng(action_ss)
        self.rtt_draws = []
        self.retention = retention
        self.videos = []
        self.source = playlist_source
        self.watch_times = {}
        self._refill()
        self.metrics = _Totals(trace_id=trace.trace_id)
        self.events = []
        self.history = []
        self.active = None
        self.sleep_until = -math.inf
        self.cancel_pending = False
        self.t = 0.0

    def _refill(self):
        """Pull the whole top-up first, then draw its watch times in order."""
        added = list(itertools.islice(self.source, self.config.queue_depth - len(self.videos)))
        self.videos += added
        for v in added:
            self.watch_times[v.meta.video_id] = self.retention.sample(v, self.watch_rng)

    def _draw_rtt_ms(self):
        if not self.rtt_draws:
            cfg = self.config
            self.rtt_draws += reversed(self.rtt_rng.uniform(cfg.rtt_min_ms, cfg.rtt_max_ms, sim.RTT_BLOCK).tolist())
        return self.rtt_draws.pop()

    def _decide(self):
        cfg = self.config
        q, rtt_est = _fold_estimate_network(self.history, cfg)
        decision = self.strategy.decide(self.videos, q, rtt_est, cfg.b_max_s, self.action_rng)
        if decision is None:
            self.sleep_until = self.t + cfg.pause_ms / 1000.0
            return
        video = self.videos[decision.index]
        bitrate = abr_select(video.meta.bitrate_ladder, q, cfg.abr_safety)
        headroom = cfg.b_max_s - (video.buffered_s - video.play_pos_s)
        duration = min(decision.duration_s, video.meta.duration_s - video.buffered_s, headroom)
        if duration <= 0.0:
            self.sleep_until = self.t + cfg.pause_ms / 1000.0
            return
        segment = RangeSegment(start_s=video.buffered_s, bitrate_mbps=bitrate)
        video.segments.append(segment)
        video.chosen_bitrate = bitrate
        rtt_s = self._draw_rtt_ms() / 1000.0
        self.active = DownloadTask(
            video, segment, duration, bitrate, video.meta.range_bits(duration, bitrate), self.t, rtt_s, rtt_s
        )
        self.metrics.actions.append(ActionRecord(self.t, decision.index, duration, bitrate, q, policy=decision.extras))

    def _complete_task(self, end_wall):
        task = self.active
        transfer_s = max(end_wall - task.issued_at_s - task.rtt_s, 1e-9)
        self._record_sample(TaskSample(task.extent_bits / BITS_PER_MEGABIT / transfer_s, task.rtt_s * 1000.0))
        self.metrics.actions[-1].delivered_s = task.duration_s
        self.active = None

    def _cancel_task(self, end_wall):
        task = self.active
        self.metrics.actions[-1].delivered_s = task.delivered_bits / (task.bitrate_mbps * BITS_PER_MEGABIT)
        if task.delivered_bits > 0.0:
            consumed_rtt = task.rtt_s - task.rtt_remaining_s
            transfer_s = max(end_wall - task.issued_at_s - consumed_rtt, 1e-9)
            self._record_sample(TaskSample(task.delivered_bits / BITS_PER_MEGABIT / transfer_s, task.rtt_s * 1000.0))
        self.active = None

    def _record_sample(self, sample):
        self.history.append(sample)
        if len(self.history) > self.config.throughput_window:
            del self.history[0]

    def _swipe_now(self, wall):
        watched, wasted = swipe(self.videos, self.videos[0].play_pos_s)
        self.events.append(SwipeEvent(time_s=wall, wasted_bits=wasted))
        self.metrics.wasted_bits += wasted
        self.metrics.watched_bits += watched
        self.metrics.n_swipes += 1
        self._refill()
        if self.active is not None:
            self.cancel_pending = True

    def _transfer(self, dt):
        task = self.active
        span = dt
        if task.rtt_remaining_s > 0.0:
            used = min(task.rtt_remaining_s, span)
            task.rtt_remaining_s -= used
            span -= used
        if span <= 0.0:
            return
        bits = self.trace.bandwidth_at(self.t) * BITS_PER_MEGABIT * span
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

    def _play(self, dt):
        videos = self.videos
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
                v.play_pos_s = pos + step
                remaining -= step
                continue
            self.events.append(StallEvent(start_s=self.t + dt - remaining, end_s=self.t + dt))
            self.metrics.total_rebuffer_s += remaining
            remaining = 0.0

    def run(self):
        cfg = self.config
        dt = cfg.step_ms / 1000.0
        t_end = cfg.max_session_s - 1e-12
        videos = self.videos
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

    def _finalize(self):
        if self.active is not None:
            self._cancel_task(end_wall=self.t)
        for v in self.videos:
            watched, wasted = v.split_bits(v.play_pos_s)
            self.metrics.watched_bits += watched
            self.metrics.wasted_bits += wasted
        self.metrics.wall_time_s = self.t
        actions = self.metrics.actions
        ends = [rec.issued_at_s for rec in actions[1:]] + [math.inf]
        for rec, end in zip(actions, ends):
            rec.waste_bits, rec.rebuffer_s = _object_attribute(self.events, rec.issued_at_s, end)
            rec.reward = compute_reward(
                rec.delivered_s, rec.bitrate_mbps, rec.waste_bits, rec.rebuffer_s, rec.q_mbps, self.config.reward
            )

    def logs(self) -> dict:
        """What `_logs` reads from the engine, in the engine's forms."""
        m = self.metrics
        return {
            "metrics": [(f.name, getattr(m, f.name)) for f in dataclasses.fields(SessionMetrics) if f.name != "actions"],
            "actions": [
                (f.name, [getattr(rec, f.name) for rec in m.actions]) for f in dataclasses.fields(ActionLog)
            ],
            "events": [
                (ev.time_s, ev.time_s, ev.wasted_bits) if isinstance(ev, SwipeEvent) else (ev.start_s, ev.end_s, None)
                for ev in self.events
            ],
            "history": [(s.throughput_mbps, s.rtt_ms) for s in self.history],
            "t": self.t,
            "watch_times": self.watch_times,
            "videos": list(self.videos),
        }


class _ScalarDrawSession(_PerStepSession):
    """The reference engine as it was before latencies were drawn in blocks:
    one `rtt_rng.uniform` call per issued task."""

    def _draw_rtt_ms(self):
        return float(self.rtt_rng.uniform(self.config.rtt_min_ms, self.config.rtt_max_ms))


# --- the reference decision path ---------------------------------------------------
#
# The strategies' decision path as it was before strategies took the video
# list, each video memoized its survival at the buffer edge and the actor
# heads ran on Python floats: every survival evaluated on every call, every
# field read through its property, softplus as numpy's `logaddexp` and the
# 1-D actor forward as vector products. The reference engine's strategies
# decide through it, so the engine tests below compare the library's whole
# decision path with it bit for bit.


def _ref_demand_playing(video, survival):
    denom = survival(video, video.play_pos_s)
    if denom <= 0.0:
        return 0.0, True
    num = survival(video, video.buffered_s)
    return min(num / denom, 1.0), False


def _ref_compute_demands(playlist, survival):
    if len(playlist) == 0:
        return DemandVector(demands=(), playing_degenerate=False)
    d0, degenerate = _ref_demand_playing(playlist[0], survival)
    demands = [d0]
    remaining = 1.0 - d0
    for video in list(playlist)[1:]:
        s = survival(video, video.buffered_s)
        demands.append(remaining * s)
        remaining *= 1.0 - s
    return DemandVector(demands=tuple(demands), playing_degenerate=degenerate)


def _ref_select_video(playlist, dv, b_max_s, min_headroom_s=0.0):
    best = None
    for i, video in enumerate(playlist):
        if i == 0 and dv.playing_degenerate:
            continue
        if video.buffered_s - video.play_pos_s >= b_max_s - min_headroom_s:
            continue
        if video.meta.duration_s - video.buffered_s <= EPS_S:
            continue
        if best is None or dv.demands[i] > dv.demands[best]:
            best = i
    return best


def _ref_naive_select(playlist, threshold_s):
    for i, v in enumerate(playlist):
        if v.buffered_s - v.play_pos_s < threshold_s and v.meta.duration_s - v.buffered_s > EPS_S:
            return i
    return None


def _ref_forward(mlp, x):
    """`Mlp.forward` of a single state: vector products, a row back."""
    h = np.asarray(x, dtype=np.float64)
    last = mlp.n_layers - 1
    for i in range(mlp.n_layers):
        h = np.dot(h, mlp.weights[i])
        h += mlp.biases[i]
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h[None, :]


def _ref_actor_distribution(net, features):
    raw = _ref_forward(net.actor, features)
    mean = math.tanh(float(raw[0, 0]))
    stddev = float(np.logaddexp(0.0, raw[0, 1]))
    if not (math.isfinite(mean) and math.isfinite(stddev)):
        raise FloatingPointError(f"non-finite policy output: mean={mean} stddev={stddev}")
    if not stddev > 0.0:
        raise FloatingPointError(f"policy stddev must be positive, got {stddev}")
    return mean, stddev


class _RefFixed(FixedRangeStrategy):
    def decide(self, playlist, q_mbps, rtt_ms, b_max_s, rng):
        dv = _ref_compute_demands(playlist, self.survival)
        idx = _ref_select_video(playlist, dv, b_max_s, min_headroom_s=self.floor_s)
        if idx is None:
            return None
        return Decision(index=idx, duration_s=self.duration_s)


class _RefNaive(NaiveFixedStrategy):
    def decide(self, playlist, q_mbps, rtt_ms, b_max_s, rng):
        idx = _ref_naive_select(playlist, b_max_s)
        if idx is None:
            return None
        return Decision(index=idx, duration_s=self.duration_s)


class _RefLearned(LearnedRangeStrategy):
    def decide(self, playlist, q_mbps, rtt_ms, b_max_s, rng):
        dv = _ref_compute_demands(playlist, self.survival)
        idx = _ref_select_video(playlist, dv, b_max_s, min_headroom_s=self.floor_s)
        if idx is None:
            return None
        features = build_state(playlist, idx, q_mbps, rtt_ms, self.cfg)
        mean, stddev = _ref_actor_distribution(self.net, features)
        if self.deterministic:
            return Decision(index=idx, duration_s=map_to_range(mean, self.cfg))
        raw = float(rng.normal(mean, stddev))
        duration_s = map_to_range(raw, self.cfg)
        extras = PolicyExtras(features=features, raw=raw, log_prob=gaussian_log_prob(raw, mean, stddev))
        return Decision(index=idx, duration_s=duration_s, extras=extras)


def _logs(session: sim._Session) -> dict:
    m = session.metrics
    return {
        "metrics": [(f.name, getattr(m, f.name)) for f in dataclasses.fields(SessionMetrics) if f.name != "actions"],
        "actions": [(f.name, getattr(m.actions, f.name)) for f in dataclasses.fields(ActionLog)],
        "events": session.events,
        "history": session.history,
        "t": session.t,
        "watch_times": session.watch_times,
        "videos": list(session.videos),
    }


def _assert_sessions_match(got: sim._Session, want: _PerStepSession) -> None:
    """Every metric, action column, event, task sample, watch time and
    queued video of the engine equals the reference's, bit for bit."""
    got_logs, want_logs = _logs(got), want.logs()
    for key in got_logs:
        assert _exact(got_logs[key]) == _exact(want_logs[key]), key
    assert len(got.metrics.actions) == len(want.metrics.actions)


def _exact(x):
    """`x` with every float as its hex string and every array as its bytes,
    so equality is bit equality: `==`, plus the sign of zero. Dataclass
    fields left out of `==` (a video's memos) are left out here too."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [(f.name, _exact(getattr(x, f.name))) for f in dataclasses.fields(x) if f.compare]
    if isinstance(x, (list, tuple)):
        return [_exact(v) for v in x]
    return x


@st.composite
def engine_cases(draw):
    """A recipe for one session; `_build(case)` makes fresh inputs from it.

    Covers what the step loop branches on: 0 Mbps stretches, zero and
    multi-step first-byte latency, watch times of 0 and at or past the end,
    ids repeated within the queue (a refill redraws the shared watch time),
    the session cap, an empty throughput window, and every strategy kind,
    the learned ones sampling from the session's action stream.
    """
    n_videos = draw(st.integers(1, 7))
    n_ids = draw(st.integers(1, n_videos))
    videos = []
    for i in range(n_videos):
        duration = draw(st.sampled_from([0.3, 2.0, 9.5]) | st.floats(0.05, 15.0))
        rungs = draw(st.lists(st.floats(0.2, 5.0), min_size=1, max_size=3))
        watch = draw(
            st.sampled_from([0.0, duration, 2.0 * duration])
            | st.floats(0.0, duration)
            | st.none()  # a Weibull draw from the video's parameters
        )
        shape, scale = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 20.0))
        videos.append((f"v{i % n_ids}", duration, tuple(sorted(set(rungs))), watch, (shape, scale, 0.0)))
    gaps = draw(st.lists(st.integers(100, 2500), min_size=1, max_size=5))
    stamps = [sum(gaps[:k]) for k in range(len(gaps))]
    samples = [(ms, draw(st.just(0.0) | st.floats(0.0, 6.0))) for ms in stamps]
    rtt_min = draw(st.sampled_from([0.0, 40.0]) | st.floats(0.0, 300.0))
    rtt_max = draw(st.just(rtt_min) | st.floats(rtt_min, 400.0))
    config = dict(
        step_ms=draw(st.sampled_from([100.0, 100.0, 100.0, 50.0, 250.0])),
        queue_depth=draw(st.integers(1, 5)),
        b_max_s=draw(st.floats(0.5, 12.0)),
        pause_ms=draw(st.sampled_from([500.0, 0.0, 150.0])),
        rtt_min_ms=rtt_min,
        rtt_max_ms=rtt_max,
        throughput_window=draw(st.integers(0, 6)),
        videos_per_session=n_videos,
        max_session_s=draw(st.sampled_from([90.0, 0.0, 0.35, 2.5, 25.0])),
    )
    strategy = draw(st.sampled_from(["naive", "fixed", "uniform", "learned", "learned_no_wte", "learned_mean"]))
    range_s = draw(st.floats(0.1, 8.0))
    return videos, samples, config, strategy, range_s, draw(st.integers(0, 2**32))


def _build(case, reference=False):
    """Fresh `run_session` arguments of `case`; with `reference`, its
    strategy decides through the reference decision path."""
    videos, samples, config, kind, range_s, seed = case
    states, empirical, params = [], {}, {}
    for vid, duration, ladder, watch, wp in videos:
        p = WeibullParams(*wp)
        states.append(VideoState(meta=VideoMeta(vid, duration, ladder), watch_params=p))
        params.setdefault(vid, p)
        if watch is not None:
            empirical.setdefault(vid, [watch])
    trace = Trace("case", [float(ms) for ms, _ in samples], [bw for _, bw in samples])
    if kind == "naive":
        strategy = (_RefNaive if reference else NaiveFixedStrategy)("naive", range_s)
    elif kind in ("fixed", "uniform"):
        survival = uniform_survival if kind == "uniform" else fitted_survival
        strategy = (_RefFixed if reference else FixedRangeStrategy)(kind, range_s, survival=survival)
    else:
        net = MlpNet.create(PolicyConfig(k=3, include_watch_estimates=kind != "learned_no_wte"), seed=seed % 97)
        learned = _RefLearned if reference else LearnedRangeStrategy
        strategy = learned(kind, net, deterministic=kind == "learned_mean")
    retention = RetentionSource(empirical=empirical, params=params)
    return trace, iter(states), retention, strategy, SimConfig(**config), seed


@settings(max_examples=400, deadline=None)
@given(engine_cases())
# a stall on a dead link, then a swipe at the video's end
@example(([("v0", 2.0, (1.0,), 2.0, (1.0, 5.0, 0.0))], [(0, 0.0), (1000, 3.0)],
          dict(rtt_min_ms=0.0, rtt_max_ms=0.0, videos_per_session=1), "naive", 1.0, 0))
# a viewer who leaves at once, mid-download, under the session cap
@example(([("v0", 5.0, (1.0, 2.0), 0.0, (1.0, 5.0, 0.0)), ("v1", 5.0, (1.0,), 9.0, (1.0, 5.0, 0.0))],
          [(0, 0.4)], dict(videos_per_session=2, max_session_s=4.0, throughput_window=0), "fixed", 3.0, 7))
def test_fused_step_loop_matches_the_per_step_engine(case):
    fused = sim._Session(*_build(case))
    reference = _PerStepSession(*_build(case))
    fused.run(), reference.run()
    _assert_sessions_match(fused, reference)


@pytest.mark.parametrize("case_seed", range(12))
def test_fused_step_loop_matches_on_random_sessions(case_seed):
    fused = sim._Session(*random_session_inputs(case_seed))
    reference = _PerStepSession(*random_session_inputs(case_seed))
    fused.run(), reference.run()
    _assert_sessions_match(fused, reference)


STRATEGY_KINDS = ["naive", "fixed", "uniform", "learned", "learned_no_wte", "learned_mean"]


@settings(max_examples=400, deadline=None)
@given(engine_cases())
# a learned policy sampling its ranges over a queue of three
@example(([("v0", 9.5, (0.5, 1.0), None, (1.5, 6.0, 0.0)), ("v1", 9.5, (1.0,), 9.5, (1.0, 5.0, 0.0)),
           ("v2", 2.0, (1.0,), 2.0, (2.0, 1.0, 0.0))],
          [(0, 2.0), (700, 0.3)], dict(videos_per_session=3), "learned", 1.0, 5))
# viewers who watch to the end of videos whose survival underflows to 0 a
# fraction of a second in: every eligible video's demand ties at 0
@example(([(f"v{i}", 9.5, (1.0,), 9.5, (3.0, 0.05, 0.0)) for i in range(4)],
          [(0, 6.0)], dict(videos_per_session=4, queue_depth=4, b_max_s=12.0), "fixed", 1.0, 3))
def test_decision_path_matches_the_reference(case):
    got = sim._Session(*_build(case))
    want = _PerStepSession(*_build(case, reference=True))
    got.run(), want.run()
    _assert_sessions_match(got, want)


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_decision_path_matches_the_reference_on_long_sessions(kind):
    """Every strategy kind over 60 to 190 decisions, with stalls, swipes
    mid-download and buffers at the cap."""
    videos = [(f"v{i}", 6.0 + i % 5, (0.5, 1.0, 2.5), (None, 3.0, 12.0)[i % 3], (1.2, 5.0 + i, 0.0))
              for i in range(20)]
    case = (videos, [(0, 0.4), (1500, 3.0), (2500, 0.0), (3000, 9.0)],
            dict(videos_per_session=20, b_max_s=6.0, queue_depth=4), kind, 0.7, 23)
    got = sim._Session(*_build(case))
    want = _PerStepSession(*_build(case, reference=True))
    got.run(), want.run()
    assert len(got.metrics.actions) > 60
    _assert_sessions_match(got, want)


def _sign_aware_survival(video, x):
    """A survival that tells -0.0 from 0.0."""
    s = fitted_survival(video, abs(x))
    return 0.5 * s if math.copysign(1.0, x) < 0.0 else s


SURVIVALS = {"fitted": fitted_survival, "uniform": uniform_survival, "signed": _sign_aware_survival}
_memo_ops = st.one_of(
    st.tuples(st.just("edge"), st.integers(0, 2), st.sampled_from([0.0, -0.0, 1.5, 30.0]) | st.floats(0.0, 40.0)),
    st.tuples(st.just("play"), st.integers(0, 2), st.sampled_from([0.0, -0.0]) | st.floats(0.0, 40.0)),
    st.tuples(st.just("params"), st.integers(0, 2), st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 30.0),
                                                               st.sampled_from([0.0, 2.0]))),
    st.tuples(st.just("survival"), st.sampled_from(sorted(SURVIVALS)), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_memo_ops, max_size=25))
# a new params object at an unmoved edge
@example([("params", 1, (1.0, 5.0, 0.0)), ("edge", 1, 2.0), ("params", 1, (2.0, 9.0, 0.0))])
# an edge moves from 0.0 to -0.0 and back, playing and queued
@example([("survival", "signed", None), ("edge", 2, 0.0), ("edge", 2, -0.0), ("edge", 2, 0.0)])
@example([("survival", "signed", None), ("edge", 0, 0.0), ("edge", 0, -0.0), ("edge", 0, 0.0)])
# another survival function at unmoved edges
@example([("edge", 1, 3.0), ("survival", "uniform", None), ("survival", "fitted", None)])
def test_survival_memo_matches_evaluating_every_edge(ops):
    """`compute_demands` with its per-video memo equals the memo-free
    reference, bit for bit, after every change of an edge, a playhead, a
    video's params object or the survival function."""
    videos = [make_video(f"m{i}", 30.0, params=WeibullParams(1.5, 8.0 + i, 0.0)) for i in range(3)]
    # Demand left over for the queue: the playing video's buffer runs ahead.
    videos[0].buffered_s = 10.0
    survival = fitted_survival
    for op, arg, value in [("survival", "fitted", None), *ops]:
        if op == "survival":
            survival = SURVIVALS[arg]
        elif op == "edge":
            videos[arg].buffered_s = value
        elif op == "play":
            videos[arg].play_pos_s = value
        else:
            videos[arg].watch_params = WeibullParams(*value)
        got = compute_demands(videos, survival)
        want = _ref_compute_demands(videos, survival)
        assert [d.hex() for d in got.demands] == [d.hex() for d in want.demands]
        assert got.playing_degenerate == want.playing_degenerate


# --- block-drawn latencies ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(engine_cases())
# a learned policy sampling its ranges, on a fixed latency
@example(([("v0", 9.5, (0.5, 1.0), None, (1.5, 6.0, 0.0)), ("v1", 9.5, (1.0,), 9.5, (1.0, 5.0, 0.0))],
          [(0, 2.0), (700, 0.3)], dict(rtt_min_ms=80.0, rtt_max_ms=80.0, videos_per_session=2),
          "learned", 1.0, 5))
def test_block_drawn_latencies_match_one_draw_per_task(case):
    got = sim._Session(*_build(case))
    want = _ScalarDrawSession(*_build(case))
    got.run(), want.run()
    _assert_sessions_match(got, want)


@pytest.mark.parametrize("kind", ["fixed", "learned"])
@pytest.mark.parametrize("rtt", [(40.0, 120.0), (0.0, 0.0), (75.0, 75.0)])
def test_block_drawn_latencies_match_across_blocks(kind, rtt):
    """Sessions long enough to use several blocks of latencies."""
    videos = [(f"v{i}", 20.0, (0.5, 1.0), 20.0, (1.5, 10.0, 0.0)) for i in range(30)]
    case = (videos, [(0, 1.5), (900, 4.0)], dict(rtt_min_ms=rtt[0], rtt_max_ms=rtt[1], videos_per_session=30),
            kind, 0.3, 11)
    got = sim._Session(*_build(case))
    want = _ScalarDrawSession(*_build(case))
    got.run(), want.run()
    assert len(got.metrics.actions) > 3 * sim.RTT_BLOCK
    _assert_sessions_match(got, want)


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e4)), max_size=9),
    window=st.integers(0, 6),
)
def test_one_loop_estimate_matches_the_sums(samples, window):
    cfg = SimConfig(throughput_window=window)
    got = estimate_network(samples, cfg)
    want = _fold_estimate_network([TaskSample(q, rtt) for q, rtt in samples], cfg)
    assert [x.hex() for x in got] == [x.hex() for x in want]


# --- sums that do not depend on the interpreter ----------------------------------------


def test_session_sums_are_plain_left_to_right_folds():
    """Python 3.12's `sum` of floats compensates its rounding; these sums
    must give the bytes of a plain fold from 0.0 on every version."""
    rewards = [1e16, 1.0, -1e16]
    assert math.fsum(rewards) == 1.0
    assert SessionMetrics("t", actions=ActionLog(reward=rewards)).qoe == 0.0

    video = make_video(duration_s=10.0)
    for start, rate, bits in ((0.0, 1e10, 1e16), (1.0, 0.7, 0.7), (2.0, 0.7, 0.7)):
        video.segments.append(RangeSegment(start_s=start, bitrate_mbps=rate, delivered_bits=bits))
    folds = []
    for parts in ([seg.delivered_bits for seg in video.segments], [seg.watched_bits(5.0) for seg in video.segments]):
        fold = functools.reduce(operator.add, parts, 0.0)
        assert math.fsum(parts) != fold
        folds.append(fold)
    delivered, watched = folds
    assert video.split_bits(5.0) == (watched, delivered - watched)
