"""Domain model for swipe-driven short-video playback.

Videos, buffered ranges, bandwidth traces, and the bookkeeping needed to
split downloaded bits into watched and wasted at swipe time.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
        if not (self.duration_s > 0 and math.isfinite(self.duration_s)):
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if not self.bitrate_ladder:
            raise ValueError("bitrate ladder must not be empty")
        if not all(b > 0 and math.isfinite(b) for b in self.bitrate_ladder):
            raise ValueError("bitrate ladder rungs must be positive and finite")
        if any(b2 <= b1 for b1, b2 in zip(self.bitrate_ladder, self.bitrate_ladder[1:])):
            raise ValueError("bitrate ladder must be strictly ascending")

    def range_bits(self, seconds: float, bitrate_mbps: float) -> float:
        """Size in bits of `seconds` of media at a ladder rung."""
        return seconds * bitrate_mbps * BITS_PER_MEGABIT


@dataclass(slots=True)
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
    # `policy.build_state`'s memo of this video's clipped watch-time
    # features: (watch_params, e_high, e_low, high / d, low / d).
    watch_features: tuple | None = field(default=None, compare=False, repr=False)
    # `demand.edge_survival`'s memo of the survival at the buffer edge:
    # (survival function, watch_params, buffered_s, survival).
    edge_survival: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.chosen_bitrate == 0.0:
            self.chosen_bitrate = self.meta.bitrate_ladder[0]

    def split_bits(self, watch_s: float) -> tuple[float, float]:
        """Delivered bits split at media position `watch_s`: (watched, wasted).

        Plain left-to-right sums from 0.0: Python 3.12's `sum` of floats
        compensates its rounding and would give other bytes.
        """
        delivered = watched = 0.0
        for seg in self.segments:
            delivered += seg.delivered_bits
            watched += seg.watched_bits(watch_s)
        return watched, delivered - watched


@dataclass(frozen=True)
class WatchRecord:
    """One playback log line: who watched what, and for how long."""

    user_id: str
    video_id: str
    duration_s: float
    watch_time_s: float

    def __post_init__(self) -> None:
        if not (self.duration_s > 0 and math.isfinite(self.duration_s)):
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if not (self.watch_time_s >= 0 and math.isfinite(self.watch_time_s)):
            raise ValueError(f"watch_time_s must be non-negative and finite, got {self.watch_time_s}")


class Trace:
    """Bandwidth trace with piecewise-constant interpolation.

    Two parallel columns, `timestamps_ms` and `bandwidth_mbps`, one entry
    per sample. Lookups past the last sample wrap cyclically, with the final
    sample held for one trailing interval (inferred from the last sample
    spacing), so a short trace can drive an arbitrarily long session.
    """

    def __init__(self, trace_id: str, timestamps_ms: list[float], bandwidth_mbps: list[float]):
        ts, bws = list(timestamps_ms), list(bandwidth_mbps)
        if len(ts) != len(bws):
            raise ValueError(f"trace {trace_id}: {len(ts)} timestamps but {len(bws)} bandwidths")
        if not ts:
            raise ValueError("trace must have at least one sample")
        # Whole-column passes in C: map over the columns, no generators.
        if not (all(map(math.isfinite, ts)) and all(map(math.isfinite, bws))):
            raise ValueError(f"trace {trace_id}: timestamps and bandwidths must be finite")
        if not all(map(operator.lt, ts, itertools.islice(ts, 1, None))):
            raise ValueError(f"trace {trace_id}: timestamps must be strictly increasing")
        if min(bws) < 0:
            raise ValueError(f"trace {trace_id}: bandwidth must be non-negative")
        self.trace_id = trace_id
        self.timestamps_ms = ts
        self.bandwidth_mbps = bws
        t0 = ts[0]
        self._rel_s = [(t - t0) / 1000.0 for t in ts]
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
        for i, bw in enumerate(self.bandwidth_mbps):
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
        return self._rel_s[i], end, self.bandwidth_mbps[i]

    def bandwidth_at(self, t_s: float) -> float:
        """Bandwidth in Mbps at absolute session time `t_s` (cyclic)."""
        return self.segment_at(t_s)[2]


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


def swipe(videos: list[VideoState], watch_time_s: float) -> tuple[float, float]:
    """Remove the playing video `videos[0]`; return its (watched, wasted) bits.

    Bits covering media up to `watch_time_s` count as watched; the rest of
    what was delivered for the departing video is waste. Requires
    watch_time_s >= the departing playhead.
    """
    if not videos:
        raise IndexError("swipe on an empty queue")
    v0 = videos[0]
    if watch_time_s < v0.play_pos_s - EPS_S:
        raise ValueError(
            f"watch_time_s {watch_time_s} behind playhead {v0.play_pos_s}"
        )
    del videos[0]
    return v0.split_bits(watch_time_s)
