import math

import pytest
from hypothesis import given, strategies as st

from conftest import buffer_to, make_video
from swipesim.media import (
    BITS_PER_MEGABIT,
    Playlist,
    RangeSegment,
    Trace,
    VideoMeta,
    advance_playback,
    swipe,
)


# --- catalog entries ---------------------------------------------------------


def test_meta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        VideoMeta("v", 0.0, (1.0,))
    with pytest.raises(ValueError):
        VideoMeta("v", 10.0, ())
    with pytest.raises(ValueError):
        VideoMeta("v", 10.0, (1.0, -2.0))
    with pytest.raises(ValueError):
        VideoMeta("v", 10.0, (2.0, 1.0))


def test_range_bits_constant_bitrate_model():
    meta = VideoMeta("v", 10.0, (1.0, 3.0))
    assert meta.range_bits(2.0, 3.0) == 6_000_000.0


def test_segment_end_derived_from_bits():
    seg = RangeSegment(start_s=4.0, bitrate_mbps=2.0)
    seg.delivered_bits = 3.0 * 2.0 * BITS_PER_MEGABIT
    assert seg.end_s == 7.0
    assert seg.watched_bits(5.0) == 1.0 * 2.0 * BITS_PER_MEGABIT
    assert seg.watched_bits(4.0) == 0.0
    assert seg.watched_bits(100.0) == seg.delivered_bits


# --- playback advance --------------------------------------------------------


def test_advance_consumes_buffer():
    v = buffer_to(make_video(), 5.0)
    v.play_pos_s = 2.0
    assert advance_playback(v, 1.0) == 0.0
    assert v.play_pos_s == 3.0


def test_advance_at_buffer_edge_is_all_rebuffer():
    v = buffer_to(make_video(), 2.0)
    v.play_pos_s = 2.0
    assert advance_playback(v, 1.0) == 1.0
    assert v.play_pos_s == 2.0


def test_advance_partial_buffer_splits():
    v = buffer_to(make_video(), 2.5)
    v.play_pos_s = 2.0
    assert advance_playback(v, 1.0) == pytest.approx(0.5)
    assert v.play_pos_s == 2.5


def test_advance_stops_at_video_end():
    v = buffer_to(make_video(duration_s=3.0), 3.0)
    v.play_pos_s = 2.5
    rebuffer = advance_playback(v, 1.0)
    assert v.play_pos_s == 3.0
    assert rebuffer == pytest.approx(0.5)


def test_advance_rejects_negative_dt():
    with pytest.raises(ValueError):
        advance_playback(make_video(), -0.1)


@given(
    buffered=st.floats(0.0, 30.0),
    pos_frac=st.floats(0.0, 1.0),
    dt=st.floats(0.0, 10.0),
)
def test_advance_never_outruns_buffer_or_duration(buffered, pos_frac, dt):
    v = buffer_to(make_video(duration_s=30.0), buffered)
    v.play_pos_s = buffered * pos_frac
    before = v.play_pos_s
    rebuffer = advance_playback(v, dt)
    assert 0.0 <= rebuffer <= dt
    assert before <= v.play_pos_s <= min(v.buffered_s, 30.0) + 1e-12
    assert (v.play_pos_s - before) + rebuffer == pytest.approx(dt, abs=1e-9)


# --- swipe accounting --------------------------------------------------------


def test_swipe_fully_watched_wastes_nothing():
    v = buffer_to(make_video(duration_s=10.0), 10.0, bitrate_mbps=2.0)
    pl = Playlist(iter([v]), depth=3)
    res = swipe(pl, 10.0)
    assert res.wasted_bits == 0.0
    assert res.watched_bits == 10.0 * 2.0 * BITS_PER_MEGABIT
    assert not pl


def test_swipe_splits_at_watch_time():
    v = buffer_to(make_video(duration_s=20.0), 10.0, bitrate_mbps=2.0)
    pl = Playlist(iter([v]), depth=3)
    res = swipe(pl, 4.0)
    assert res.watched_bits == 4.0 * 2.0 * BITS_PER_MEGABIT
    assert res.wasted_bits == 6.0 * 2.0 * BITS_PER_MEGABIT == 12e6


def test_swipe_sums_mixed_bitrate_segments():
    v = make_video(duration_s=20.0)
    buffer_to(v, 5.0, bitrate_mbps=1.0)
    buffer_to(v, 8.0, bitrate_mbps=3.0)
    pl = Playlist(iter([v]), depth=1)
    res = swipe(pl, 6.0)
    assert res.watched_bits == pytest.approx((5.0 * 1.0 + 1.0 * 3.0) * BITS_PER_MEGABIT)
    assert res.wasted_bits == pytest.approx(2.0 * 3.0 * BITS_PER_MEGABIT)
    assert res.watched_bits + res.wasted_bits == pytest.approx(v.delivered_bits())


def test_swipe_refills_and_flags_end():
    vids = [make_video(f"v{i}") for i in range(4)]
    pl = Playlist(iter(vids), depth=2)
    res = swipe(pl, 0.0)
    assert [v.meta.video_id for v in pl] == ["v1", "v2"]
    assert [v.meta.video_id for v in res.added] == ["v2"]
    assert pl
    swipe(pl, 0.0)
    swipe(pl, 0.0)
    res = swipe(pl, 0.0)
    assert not pl


def test_swipe_guards():
    pl = Playlist(iter([]), depth=2)
    with pytest.raises(IndexError):
        swipe(pl, 1.0)
    v = make_video()
    v.play_pos_s = 5.0
    pl = Playlist(iter([v]), depth=1)
    with pytest.raises(ValueError):
        swipe(pl, 4.0)


@given(
    edges=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4),
    watch=st.floats(0.0, 50.0),
)
def test_watched_prefix_is_monotone_and_bounded(edges, watch):
    v = make_video(duration_s=100.0)
    for extent in edges:
        buffer_to(v, v.buffered_s + extent, bitrate_mbps=1.5)
    w1 = v.watched_prefix_bits(watch)
    w2 = v.watched_prefix_bits(watch + 1.0)
    assert 0.0 <= w1 <= w2 <= v.delivered_bits() + 1e-6


# --- traces --------------------------------------------------------------


def test_trace_rejects_non_monotone_and_negative():
    with pytest.raises(ValueError, match="increasing"):
        Trace("t", [0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="non-negative"):
        Trace("t", [0.0], [-1.0])
    with pytest.raises(ValueError, match="at least one sample"):
        Trace("t", [], [])
    with pytest.raises(ValueError, match="2 timestamps but 1 bandwidths"):
        Trace("t", [0.0, 1000.0], [1.0])


@pytest.mark.parametrize(
    "stamps, levels",
    [
        ([0.0, 1000.0], [1.0, math.nan]),
        ([0.0, math.nan], [1.0, 2.0]),
        ([math.nan], [1.0]),
        ([0.0, 1000.0], [1.0, math.inf]),
        ([0.0, math.inf], [1.0, 2.0]),
        ([-math.inf, 0.0], [1.0, 2.0]),
    ],
)
def test_trace_rejects_non_finite_values(stamps, levels):
    with pytest.raises(ValueError, match="finite"):
        Trace("t", stamps, levels)


def test_trace_piecewise_lookup_and_cycle():
    tr = Trace("t", [0.0, 1000.0, 2000.0], [1.0, 2.0, 3.0])
    assert tr.duration_s == 3.0
    assert tr.bandwidth_at(0.5) == 1.0
    assert tr.bandwidth_at(1.5) == 2.0
    assert tr.bandwidth_at(2.5) == 3.0
    assert tr.bandwidth_at(3.5) == 1.0  # wraps
    assert tr.mean_bandwidth_mbps == pytest.approx(2.0)


def test_trace_single_sample_holds_forever():
    tr = Trace("t", [0.0], [4.0])
    assert tr.duration_s == 1.0
    for t in (0.0, 0.7, 13.2):
        assert tr.bandwidth_at(t) == 4.0


# --- playlist ------------------------------------------------------------


def test_playlist_keeps_depth_until_source_dries():
    vids = [make_video(f"v{i}") for i in range(7)]
    pl = Playlist(iter(vids), depth=5)
    assert len(pl) == 5
    assert pl.current.meta.video_id == "v0"
    pl.videos.pop(0)
    added = pl.refill()
    assert len(pl) == 5 and len(added) == 1
    for _ in range(6):
        pl.videos.pop(0)
        pl.refill()
    assert not pl


def test_playlist_rejects_bad_depth():
    with pytest.raises(ValueError):
        Playlist(iter([]), depth=0)
