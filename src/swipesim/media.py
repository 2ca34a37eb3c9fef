"""Domain model for swipe-driven short-video playback.

Videos, playlists, buffered ranges, bandwidth traces, and the bookkeeping
needed to split downloaded bits into watched and wasted at swipe time.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .watchtime import WeibullParams

BITS_PER_MEGABIT = 1_000_000.0

# Slack for float comparisons on media timelines (seconds).
EPS_S = 1e-9


@dataclass(frozen=True)
class VideoMeta:
    """Immutable catalog entry: identity, length, bitrate ladder.

    The ladder holds available encodings in Mbps, strictly ascending. Sizes
    follow a constant-bitrate model: a range of `seconds` at rung `b` weighs
    `seconds * b * 1e6` bits.
    """

    video_id: str
    duration_s: float
    bitrate_ladder: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if not self.bitrate_ladder:
            raise ValueError("bitrate ladder must not be empty")
        if any(b <= 0 for b in self.bitrate_ladder):
            raise ValueError("bitrate ladder rungs must be positive")
        if any(b2 <= b1 for b1, b2 in zip(self.bitrate_ladder, self.bitrate_ladder[1:])):
            raise ValueError("bitrate ladder must be strictly ascending")

    def range_bits(self, seconds: float, bitrate_mbps: float) -> float:
        """Size in bits of `seconds` of media at a ladder rung."""
        return seconds * bitrate_mbps * BITS_PER_MEGABIT


@dataclass
class RangeSegment:
    """One contiguous downloaded range of a video at a single bitrate.

    `delivered_bits` grows as transfer progresses; the covered media extent
    is derived from it, so bit accounting and the buffer edge cannot drift
    apart.
    """

    start_s: float
    bitrate_mbps: float
    delivered_bits: float = 0.0

    @property
    def end_s(self) -> float:
        return self.start_s + self.delivered_bits / (self.bitrate_mbps * BITS_PER_MEGABIT)

    def watched_bits(self, watch_s: float) -> float:
        """Bits of this segment covering media positions below `watch_s`."""
        overlap = min(self.end_s, watch_s) - self.start_s
        if overlap <= 0:
            return 0.0
        return overlap * self.bitrate_mbps * BITS_PER_MEGABIT


@dataclass
class VideoState:
    """Mutable playback/download state of one video in the playlist."""

    meta: VideoMeta
    buffered_s: float = 0.0
    play_pos_s: float = 0.0
    chosen_bitrate: float = 0.0
    watch_params: "WeibullParams | None" = None
    segments: list[RangeSegment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.chosen_bitrate == 0.0:
            self.chosen_bitrate = self.meta.bitrate_ladder[0]

    @property
    def buffer_ahead_s(self) -> float:
        """Buffered media ahead of the playhead."""
        return self.buffered_s - self.play_pos_s

    @property
    def remaining_download_s(self) -> float:
        """Media seconds not yet covered by any downloaded range."""
        return self.meta.duration_s - self.buffered_s

    def delivered_bits(self) -> float:
        return sum(seg.delivered_bits for seg in self.segments)

    def watched_prefix_bits(self, watch_s: float) -> float:
        return sum(seg.watched_bits(watch_s) for seg in self.segments)

    def unwatched_bits(self, watch_s: float) -> float:
        return self.delivered_bits() - self.watched_prefix_bits(watch_s)


@dataclass(frozen=True)
class WatchRecord:
    """One playback log line: who watched what, and for how long."""

    user_id: str
    video_id: str
    duration_s: float
    watch_time_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.watch_time_s < 0:
            raise ValueError("watch_time_s must be non-negative")


@dataclass(frozen=True)
class NetworkSample:
    """One bandwidth measurement of a network trace."""

    timestamp_ms: float
    bandwidth_mbps: float


class Trace:
    """Bandwidth trace with piecewise-constant interpolation.

    Lookups past the last sample wrap cyclically, with the final sample held
    for one trailing interval (inferred from the last sample spacing), so a
    short trace can drive an arbitrarily long session.
    """

    def __init__(self, trace_id: str, samples: list[NetworkSample]):
        if not samples:
            raise ValueError("trace must have at least one sample")
        ts = [s.timestamp_ms for s in samples]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError(f"trace {trace_id}: timestamps must be strictly increasing")
        if any(s.bandwidth_mbps < 0 for s in samples):
            raise ValueError(f"trace {trace_id}: bandwidth must be non-negative")
        self.trace_id = trace_id
        self.samples = list(samples)
        self._rel_s = [(t - ts[0]) / 1000.0 for t in ts]
        self._bw = [s.bandwidth_mbps for s in samples]
        if len(ts) >= 2:
            tail = self._rel_s[-1] - self._rel_s[-2]
        else:
            tail = 1.0
        self._period_s = self._rel_s[-1] + tail

    @property
    def duration_s(self) -> float:
        return self._period_s

    @property
    def mean_bandwidth_mbps(self) -> float:
        # Time-weighted mean over one period.
        total = 0.0
        for i, bw in enumerate(self._bw):
            hi = self._rel_s[i + 1] if i + 1 < len(self._rel_s) else self._period_s
            total += bw * (hi - self._rel_s[i])
        return total / self._period_s

    def segment_at(self, t_s: float) -> tuple[float, float, float]:
        """The constant stretch holding session time `t_s`: (start, end, Mbps).

        Start and end are offsets into the period: the bandwidth holds at
        every time whose offset `t % period` lies in [start, end).
        """
        u = t_s % self._period_s
        i = bisect.bisect_right(self._rel_s, u) - 1
        if i < 0:
            i = 0
        end = self._rel_s[i + 1] if i + 1 < len(self._rel_s) else self._period_s
        return self._rel_s[i], end, self._bw[i]

    def bandwidth_at(self, t_s: float) -> float:
        """Bandwidth in Mbps at absolute session time `t_s` (cyclic)."""
        return self.segment_at(t_s)[2]


class Playlist:
    """Bounded FIFO of videos: index 0 plays, the rest are preload candidates.

    Pulls from `source` to keep up to `depth` entries. When the source runs
    dry the playlist simply shrinks; a drained playlist ends the session.
    """

    def __init__(self, source: Iterator[VideoState], depth: int = 5):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self._source = source
        self.depth = depth
        self.videos: list[VideoState] = []
        self.refill()

    def refill(self) -> list[VideoState]:
        """Top up to `depth` from the source; returns the videos added."""
        added: list[VideoState] = []
        while len(self.videos) < self.depth:
            nxt = next(self._source, None)
            if nxt is None:
                break
            self.videos.append(nxt)
            added.append(nxt)
        return added

    @property
    def current(self) -> VideoState:
        return self.videos[0]

    def __len__(self) -> int:
        return len(self.videos)

    def __getitem__(self, i: int) -> VideoState:
        return self.videos[i]

    def __iter__(self) -> Iterator[VideoState]:
        return iter(self.videos)

    def __bool__(self) -> bool:
        return bool(self.videos)


@dataclass(frozen=True)
class SwipeResult:
    """Outcome of a swipe: accounting for the departing video plus refills."""

    wasted_bits: float
    watched_bits: float
    departed: VideoState
    added: tuple[VideoState, ...]
    ended: bool


def advance_playback(video: VideoState, dt_s: float) -> float:
    """Advance the playhead by up to `dt_s` of buffered media.

    The playhead moves by min(dt, buffered - pos, duration - pos); any part
    of `dt_s` not covered by buffer is returned as rebuffer time.
    """
    if dt_s < 0:
        raise ValueError("dt_s must be non-negative")
    playable = min(
        dt_s,
        video.buffered_s - video.play_pos_s,
        video.meta.duration_s - video.play_pos_s,
    )
    playable = max(playable, 0.0)
    video.play_pos_s += playable
    return dt_s - playable


def swipe(playlist: Playlist, watch_time_s: float) -> SwipeResult:
    """Remove the playing video, splitting its delivered bits at `watch_time_s`.

    Bits covering media up to `watch_time_s` count as watched; the rest of
    what was delivered for the departing video is waste. The playlist then
    refills from its source. Requires watch_time_s >= the departing playhead.
    """
    if not playlist:
        raise IndexError("swipe on an empty playlist")
    v0 = playlist.videos[0]
    if watch_time_s < v0.play_pos_s - EPS_S:
        raise ValueError(
            f"watch_time_s {watch_time_s} behind playhead {v0.play_pos_s}"
        )
    watched = v0.watched_prefix_bits(watch_time_s)
    wasted = v0.delivered_bits() - watched
    playlist.videos.pop(0)
    added = tuple(playlist.refill())
    return SwipeResult(
        wasted_bits=wasted,
        watched_bits=watched,
        departed=v0,
        added=added,
        ended=not playlist.videos,
    )
