import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import buffer_to, make_video
from swipesim.demand import (
    DemandVector,
    compute_demands,
    demand_playing,
    fitted_survival,
    select_video,
    uniform_survival,
)
from swipesim.watchtime import WeibullParams, weibull_cdf, weibull_survival

E_INV = math.exp(-1.0)
EXP = WeibullParams(1.0, 5.0, 0.0)


def test_fitted_survival_needs_params():
    with pytest.raises(ValueError):
        fitted_survival(make_video(), 1.0)


def test_uniform_survival_shape():
    v = make_video(duration_s=10.0)
    assert uniform_survival(v, -1.0) == 1.0
    assert uniform_survival(v, 0.0) == 1.0
    assert uniform_survival(v, 2.5) == 0.75
    assert uniform_survival(v, 10.0) == 0.0
    assert uniform_survival(v, 50.0) == 0.0


# --- demand of the playing video ------------------------------------------


def test_demand_playing_buffer_at_playhead_is_one():
    v = make_video(params=EXP)
    v.play_pos_s = v.buffered_s = 2.0
    d, degenerate = demand_playing(v)
    assert d == 1.0 and not degenerate


def test_demand_playing_exponential_anchor():
    v = buffer_to(make_video(params=EXP), 5.0)
    d, degenerate = demand_playing(v)
    assert abs(d - E_INV) <= 1e-12 and not degenerate


def test_demand_playing_inside_location_is_one():
    v = buffer_to(make_video(params=WeibullParams(1.5, 5.0, 2.0)), 1.5)
    d, _ = demand_playing(v)
    assert d == 1.0  # survival is 1 up to the location


def test_demand_playing_degenerate_support():
    # playhead far past the distribution's support underflows the conditional
    v = buffer_to(make_video(params=WeibullParams(1.0, 0.001, 0.0)), 20.0)
    v.play_pos_s = 10.0
    d, degenerate = demand_playing(v)
    assert d == 0.0 and degenerate


# --- the demand vector ------------------------------------------------------


def test_two_video_closed_form():
    playing = buffer_to(make_video("a", params=EXP), 5.0)
    queued = make_video("b", params=EXP)  # nothing buffered: survival 1
    dv = compute_demands([playing, queued])
    assert abs(dv.demands[0] - E_INV) <= 1e-12
    assert abs(dv.demands[1] - (1.0 - E_INV)) <= 1e-12


def test_empty_playlist():
    dv = compute_demands([])
    assert dv.demands == ()


def _random_playlist(rng):
    videos = []
    for i in range(int(rng.integers(2, 6))):
        d = float(rng.uniform(5.0, 60.0))
        p = WeibullParams(
            float(rng.uniform(0.5, 2.5)),
            float(rng.uniform(1.0, 30.0)),
            float(rng.uniform(0.0, 2.0)),
        )
        v = make_video(f"v{i}", d, params=p)
        if i == 0:
            v.play_pos_s = float(rng.uniform(0.0, d / 2))
            v.buffered_s = float(rng.uniform(v.play_pos_s, d))
        else:
            v.buffered_s = float(rng.uniform(0.0, d))
        videos.append(v)
    return videos


@given(seed=st.integers(0, 10_000))
def test_leftover_mass_product_identity(seed):
    """1 - sum(demands) equals the probability every queued video is swiped
    inside its buffer: (1 - d0) * prod(1 - S_i(tau_i))."""
    rng = np.random.default_rng(seed)
    videos = _random_playlist(rng)
    dv = compute_demands(videos)
    d0, _ = demand_playing(videos[0])
    expect = 1.0 - d0
    for v in videos[1:]:
        expect *= 1.0 - weibull_survival(v.watch_params, v.buffered_s)
    assert 1.0 - sum(dv.demands) == pytest.approx(expect, abs=1e-12)
    assert all(d >= 0.0 for d in dv.demands)
    assert sum(dv.demands) <= 1.0 + 1e-12


@given(seed=st.integers(0, 10_000), extra=st.floats(0.5, 10.0))
def test_deeper_buffer_never_raises_own_demand(seed, extra):
    rng = np.random.default_rng(seed)
    videos = _random_playlist(rng)
    dv_before = compute_demands(videos)
    idx = 1 if len(videos) > 1 else 0
    videos[idx].buffered_s = min(
        videos[idx].buffered_s + extra, videos[idx].meta.duration_s
    )
    dv_after = compute_demands(videos)
    assert dv_after.demands[idx] <= dv_before.demands[idx] + 1e-12


def test_demands_match_monte_carlo():
    """Sampled frequency of the underlying swipe-cascade events agrees with
    the analytic vector (small version of the equivalence suite)."""
    rng = np.random.default_rng(77)
    videos = _random_playlist(rng)
    dv = compute_demands(videos)

    n = 200_000
    draws = []
    for i, v in enumerate(videos):
        p = v.watch_params
        u = rng.random(n)
        if i == 0:
            f0 = weibull_cdf(p, v.play_pos_s)
            u = f0 + u * (1.0 - f0)
        draws.append(p.location + p.scale * (-np.log1p(-u)) ** (1.0 / p.shape))

    through = np.ones(n, dtype=bool)
    for i, v in enumerate(videos):
        over = draws[i] > v.buffered_s
        freq = float((over if i == 0 else through & over).mean())
        assert freq == pytest.approx(dv.demands[i], abs=0.01)
        through = through & ~over if i else ~over


# --- selection ---------------------------------------------------------------


def test_select_picks_argmax():
    playing = buffer_to(make_video("a", params=EXP), 5.0)  # demand e^-1
    queued = make_video("b", params=EXP)  # demand 1 - e^-1 (bigger)
    dv = compute_demands([playing, queued])
    idx = select_video([playing, queued], dv, b_max_s=10.0)
    assert idx == 1


def test_select_breaks_ties_low():
    a, b = make_video("a", params=EXP), make_video("b", params=EXP)
    dv = DemandVector(demands=(0.4, 0.4))
    assert select_video([a, b], dv, b_max_s=10.0) == 0


def test_select_skips_capped_and_finished():
    over = buffer_to(make_video("a", duration_s=60.0, params=EXP), 12.0)  # at cap
    done = buffer_to(make_video("b", duration_s=5.0, params=EXP), 5.0)  # complete
    fresh = make_video("c", params=EXP)
    dv = compute_demands([over, done, fresh])
    idx = select_video([over, done, fresh], dv, b_max_s=10.0)
    assert idx == 2


def test_select_sleeps_when_everything_capped():
    vids = [buffer_to(make_video(f"v{i}", params=EXP), 11.0) for i in range(3)]
    dv = compute_demands(vids)
    assert select_video(vids, dv, b_max_s=10.0) is None


def test_select_skips_degenerate_playing():
    playing = buffer_to(make_video("a", params=WeibullParams(1.0, 0.001, 0.0)), 20.0)
    playing.play_pos_s = 10.0
    queued = make_video("b", params=EXP)
    dv = compute_demands([playing, queued])
    assert dv.playing_degenerate
    assert select_video([playing, queued], dv, b_max_s=30.0) == 1


def test_min_headroom_tightens_the_cap():
    v = buffer_to(make_video("a", duration_s=60.0, params=EXP), 9.9)
    dv = compute_demands([v])
    assert select_video([v], dv, b_max_s=10.0) == 0
    dv = compute_demands([v])
    assert select_video([v], dv, b_max_s=10.0, min_headroom_s=0.2) is None
