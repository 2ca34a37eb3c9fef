import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import buffer_to, flat_trace, make_video, run_random_session
from swipesim import sim
from swipesim.demand import uniform_survival
from swipesim.media import VideoMeta, VideoState
from swipesim.policy import FixedRangeStrategy, NaiveFixedStrategy, Strategy
from swipesim.ppo import StallEvent, SwipeEvent, attribute_reward_terms, compute_reward
from swipesim.sim import (
    RetentionSource,
    SimConfig,
    TaskSample,
    abr_select,
    attribute_windows,
    estimate_network,
    run_session,
    sample_watch_time,
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
    assert a[0].issued_at_s == 0.0
    assert a[0].delivered_s == pytest.approx(1.0, abs=1e-9)
    assert a[0].closed_at_s == pytest.approx(1.1, abs=1e-9)
    assert a[1].issued_at_s == pytest.approx(1.1, abs=1e-9)


def test_measured_throughput_feeds_next_action():
    m = _one_video_session(
        flat_trace(2.0), NaiveFixedStrategy("naive_1s", 1.0), watch_s=60.0,
        rtt_min_ms=100.0, rtt_max_ms=100.0,
    )
    assert m.actions[0].q_mbps == 1.0  # prior before any measurement
    assert m.actions[1].q_mbps == pytest.approx(2.0, rel=1e-9)


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
    assert m.played_s == pytest.approx(24.0, abs=1e-6)


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


# --- network estimation and rate selection -----------------------------------


def test_estimate_network_prior_then_window():
    cfg = SimConfig()
    assert estimate_network([], cfg) == (1.0, 80.0)
    assert estimate_network([TaskSample(2.0, 100.0)], cfg) == (2.0, 100.0)
    hist = [TaskSample(float(x), 50.0) for x in range(1, 8)]
    q, rtt = estimate_network(hist, cfg)  # window 5 -> mean of 3..7
    assert q == pytest.approx(5.0)
    assert rtt == 50.0


def test_abr_select_picks_highest_sustainable_rung():
    ladder = (1.0, 2.0, 4.0)
    assert abr_select(ladder, 3.0, 0.0) == 2.0
    assert abr_select(ladder, 0.1, 0.0) == 1.0
    assert abr_select(ladder, 100.0, 0.0) == 4.0
    assert abr_select(ladder, 5.0, 0.0, safety=0.4) == 2.0
    assert abr_select(ladder, 5.0, 0.0, safety=1.0) == 4.0


# --- watch-time draws -----------------------------------------------------------


def test_retention_empirical_capped_at_duration():
    video = make_video(duration_s=30.0)
    src = RetentionSource(empirical={"v0": [100.0]})
    rng = np.random.default_rng(0)
    assert sample_watch_time(src, "u", video, rng) == 30.0
    floor = RetentionSource(empirical={"v0": [-5.0]})
    assert sample_watch_time(floor, "u", video, rng) == 0.0


def test_retention_parametric_mean():
    video = make_video(duration_s=1e9)
    src = RetentionSource(params={"v0": WeibullParams(1.0, 5.0, 0.0)})
    rng = np.random.default_rng(3)
    draws = [src.sample("u", video, rng) for _ in range(20000)]
    assert np.mean(draws) == pytest.approx(5.0, abs=0.2)


def test_retention_seed_reproducible():
    video = make_video(duration_s=100.0)
    src = RetentionSource(params={"v0": WeibullParams(1.3, 6.0, 0.5)})
    a = src.sample("u", video, np.random.default_rng(42))
    b = src.sample("u", video, np.random.default_rng(42))
    assert a == b


def test_retention_fallback_order():
    video = make_video(duration_s=50.0)
    with pytest.raises(KeyError):
        RetentionSource().sample("u", video, np.random.default_rng(0))
    src = RetentionSource(default=WeibullParams(1.0, 5.0, 0.0))
    d = src.sample("u", video, np.random.default_rng(0))
    assert 0.0 <= d <= 50.0
    # empirical wins over params for the same video
    both = RetentionSource(empirical={"v0": [7.0]}, params={"v0": WeibullParams(1, 1, 0)})
    assert both.sample("u", video, np.random.default_rng(0)) == 7.0


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
    first = m.actions[0]
    assert first.delivered_s < first.duration_s
    assert m.wasted_bits > 0.0
    assert m.downloaded_bits == pytest.approx(m.watched_bits + m.wasted_bits, rel=1e-9)


def test_range_clamped_to_video_end():
    m = _one_video_session(
        flat_trace(5.0),
        FixedRangeStrategy("deload_5s", 5.0, survival=uniform_survival),
        watch_s=3.0,
        duration_s=3.0,
    )
    assert m.actions[0].requested_s == 5.0
    assert m.actions[0].duration_s == 3.0


def test_reward_terms_reconcile_with_session_totals():
    m = run_random_session(7)
    assert m.actions, "fuzz case must issue at least one task"
    assert sum(a.waste_bits for a in m.actions) == pytest.approx(m.wasted_bits, rel=1e-9, abs=1e-6)
    assert sum(a.rebuffer_s for a in m.actions) == pytest.approx(m.total_rebuffer_s, rel=1e-9, abs=1e-9)
    for a in m.actions:
        expected = compute_reward(a.delivered_s, a.bitrate_mbps, a.waste_bits, a.rebuffer_s, a.q_mbps)
        assert a.reward == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert m.qoe == pytest.approx(sum(a.reward for a in m.actions))


def test_session_is_deterministic_in_seed():
    m1, m2 = run_random_session(11), run_random_session(11)
    assert m1.downloaded_bits == m2.downloaded_bits
    assert m1.watched_bits == m2.watched_bits
    assert m1.wasted_bits == m2.wasted_bits
    assert m1.total_rebuffer_s == m2.total_rebuffer_s
    assert len(m1.actions) == len(m2.actions)
    for a, b in zip(m1.actions, m2.actions):
        assert (a.issued_at_s, a.duration_s, a.bitrate_mbps, a.reward) == (
            b.issued_at_s, b.duration_s, b.bitrate_mbps, b.reward
        )


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
            events.append(SwipeEvent(k / 10, draw(st.floats(0.0, 1e7))))
        else:
            events.append(StallEvent(k / 10, (k + draw(st.integers(0, 25))) / 10))
    issued = sorted(draw(st.lists(st.integers(0, 60), min_size=1, max_size=12)))
    return events, [k / 10 for k in issued]


@settings(max_examples=300, deadline=None)
@given(event_logs())
# swipes exactly at a window's start and at its end
@example(([SwipeEvent(1.0, 3e6), SwipeEvent(2.0, 5e6)], [1.0, 2.0]))
# a stall crossing a window boundary
@example(([StallEvent(0.5, 1.5)], [0.0, 1.0]))
# events before the first action
@example(([SwipeEvent(0.2, 1e6), StallEvent(0.3, 0.9), StallEvent(0.9, 1.3)], [1.0, 2.0]))
# windows without events
@example(([StallEvent(0.1, 0.2), SwipeEvent(5.0, 1.0)], [0.0, 1.0, 2.0, 3.0, 4.0]))
# a single action
@example(([StallEvent(0.0, 0.4), SwipeEvent(0.7, 2.5e6)], [0.3]))
def test_sweep_attribution_matches_rescan(log):
    events, issued = log
    assert attribute_windows(events, issued) == rescan(events, issued)


def test_sweep_splits_a_stall_across_windows():
    assert attribute_windows([StallEvent(0.5, 1.5)], [0.0, 1.0]) == [(0.0, 0.5), (0.0, 0.5)]


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
        FixedRangeStrategy("deload_5s", 5.0, survival=uniform_survival), cfg, 0, "viewer", None,
    )
    m = session.run()
    # Starved: one stall event per 100 ms step dwarfs the action count.
    assert len(session.events) > 10 * len(m.actions)
    assert m.wasted_bits > 0.0
    for rec, (w_bits, bt_s) in zip(m.actions, rescan(session.events, [a.issued_at_s for a in m.actions])):
        assert (rec.waste_bits, rec.rebuffer_s) == (w_bits, bt_s)
        assert rec.reward == compute_reward(
            rec.delivered_s, rec.bitrate_mbps, w_bits, bt_s, rec.q_mbps, cfg.reward
        )
    # One pass over the log, not one per action.
    assert len(scanned) == len(m.actions)
    assert sum(scanned) <= 2 * len(session.events)
