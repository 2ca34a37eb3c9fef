"""Demand-based video selection.

For the playlist [V_0 playing, V_1, ...] with buffer edges tau_i and
playheads t_i, the demand of a video is the probability that playback is
inside its un-buffered region when the buffers run out ahead of the user:

    demand_0 = P(T_0 > tau_0 | T_0 > t_0)
    demand_i = (1 - sum_{k<i} demand_k) * P(T_i > tau_i)      for i >= 1

with T_i the watch time of video i. The selector downloads for the eligible
video with the highest demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .media import EPS_S, VideoState
from .watchtime import weibull_survival

# Probability that the viewer is still watching `video` past media time `x`:
# a pure function of `x`, the video's `watch_params` and its fixed `meta`.
SurvivalFn = Callable[[VideoState, float], float]


def fitted_survival(video: VideoState, x: float) -> float:
    """Survival under the video's fused watch-time estimate."""
    if video.watch_params is None:
        raise ValueError(f"video {video.meta.video_id} has no watch-time params")
    return weibull_survival(video.watch_params, x)


def uniform_survival(video: VideoState, x: float) -> float:
    """Survival under a uniform watch-time assumption over [0, duration]."""
    d = video.meta.duration_s
    if x <= 0.0:
        return 1.0
    return max(0.0, 1.0 - min(x, d) / d)


@dataclass
class DemandVector:
    """Per-video demands of one playlist.

    `playing_degenerate` marks a conditional with zero denominator for the
    playing video, which zeroes its demand and makes it ineligible.
    """

    demands: tuple[float, ...]
    playing_degenerate: bool = False


def edge_survival(video: VideoState, survival: SurvivalFn) -> float:
    """`survival(video, video.buffered_s)`, memoized on the video.

    The memo is keyed by the survival function, the `watch_params` object
    and the `buffered_s` float object itself, all by identity: a video whose
    buffer edge has not moved since the last decision is not evaluated
    again, and a key that matches holds the same bits, the sign of zero and
    NaN included.
    """
    x = video.buffered_s
    params = video.watch_params
    memo = video.edge_survival
    if memo is None or memo[2] is not x or memo[1] is not params or memo[0] is not survival:
        memo = video.edge_survival = (survival, params, x, survival(video, x))
    return memo[3]


def demand_playing(video: VideoState, survival: SurvivalFn = fitted_survival) -> tuple[float, bool]:
    """Demand of the playing video: P(T > tau | T > t).

    Returns (demand, degenerate). The conditioning survival at the playhead
    can be zero when the playhead sits past the distribution's support; the
    demand is then 0 and the video flagged degenerate.
    """
    denom = survival(video, video.play_pos_s)
    if denom <= 0.0:
        return 0.0, True
    return min(edge_survival(video, survival) / denom, 1.0), False


def compute_demands(
    playlist: Sequence[VideoState],
    survival: SurvivalFn = fitted_survival,
) -> DemandVector:
    """Demand of every playlist entry at the current buffer edges.

    Demands are non-negative and sum to at most 1; the leftover mass is the
    probability that every queued video gets swiped inside its buffer.
    """
    if not playlist:
        return DemandVector(demands=(), playing_degenerate=False)
    d0, degenerate = demand_playing(playlist[0], survival)
    demands = [d0]
    remaining = 1.0 - d0
    for video in playlist[1:]:
        s = edge_survival(video, survival)
        demands.append(remaining * s)
        remaining *= 1.0 - s
    return DemandVector(demands=tuple(demands), playing_degenerate=degenerate)


def select_video(
    playlist: Sequence[VideoState],
    dv: DemandVector,
    b_max_s: float,
    min_headroom_s: float = 0.0,
) -> int | None:
    """Pick the eligible video with the highest demand.

    A video is eligible when its buffer-ahead is below `b_max_s` and it is
    not fully buffered; a degenerate playing video is skipped. Ties resolve
    to the lowest index. Returns None when nothing is eligible.

    `min_headroom_s` tightens the cap check so a selection always leaves
    room for a task of at least that length; without it, a video hovering
    at the cap soaks up round-trips on near-empty top-ups.
    """
    cap = b_max_s - min_headroom_s
    demands = dv.demands
    skip_playing = dv.playing_degenerate
    best: int | None = None
    for i, video in enumerate(playlist):
        if i == 0 and skip_playing:
            continue
        # Buffer ahead of the playhead and media left to fetch, each field read once.
        buffered = video.buffered_s
        if buffered - video.play_pos_s >= cap:
            continue
        if video.meta.duration_s - buffered <= EPS_S:
            continue
        if best is None or demands[i] > demands[best]:
            best = i
    return best
