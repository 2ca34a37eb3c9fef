import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import buffer_to, make_video
from swipesim.demand import compute_demands, fitted_survival, select_video, uniform_survival
from swipesim.media import VideoMeta, VideoState
from swipesim.policy import (
    FIELDS_PER_VIDEO,
    FixedRangeStrategy,
    LearnedRangeStrategy,
    Mlp,
    MlpNet,
    NaiveFixedStrategy,
    PolicyConfig,
    actor_distribution,
    baseline_policy,
    build_state,
    gaussian_log_prob,
    load_checkpoint,
    map_to_range,
    naive_select,
    policy_forward,
    save_checkpoint,
    softplus,
    _watch_features,
)
from swipesim.watchtime import WeibullParams, weibull_quantile

EXP = WeibullParams(1.0, 1.0, 0.0)


# --- state encoding ----------------------------------------------------------


def test_state_dim_and_padding():
    cfg = PolicyConfig()
    assert cfg.state_dim == 33
    videos = [make_video(f"v{i}", params=EXP) for i in range(3)]
    feats = build_state(videos, selected=1, q_mbps=10.0, rtt_ms=100.0, cfg=cfg)
    assert feats.shape == (33,)
    # slots for absent videos 3 and 4 stay zero
    assert not feats[3 * FIELDS_PER_VIDEO : 5 * FIELDS_PER_VIDEO].any()
    assert feats[30] == 0.1  # q / 100
    assert feats[31] == 0.1  # rtt / 1000
    assert feats[32] == 0.2  # selected / k


def test_state_quantile_features():
    """With a unit exponential watch time, the 0.7/0.3 quantiles are
    -ln(0.3) and -ln(0.7)."""
    cfg = PolicyConfig()
    v = make_video(duration_s=30.0, params=EXP)
    feats = build_state([v], 0, 1.0, 80.0, cfg)
    assert feats[4] == pytest.approx(-math.log(0.3) / 30.0, abs=1e-12)
    assert feats[5] == pytest.approx(-math.log(0.7) / 30.0, abs=1e-12)


def test_state_quantiles_clamped_to_duration():
    cfg = PolicyConfig()
    v = make_video(duration_s=1.0, params=WeibullParams(1.0, 100.0, 0.0))
    feats = build_state([v], 0, 1.0, 80.0, cfg)
    assert feats[4] == 1.0 and feats[5] == 1.0


def test_state_without_watch_estimates():
    cfg = PolicyConfig(include_watch_estimates=False)
    v = make_video(params=EXP)
    feats = build_state([v], 0, 1.0, 80.0, cfg)
    assert feats[4] == 0.0 and feats[5] == 0.0


def _reference_build_state(playlist, selected, q_mbps, rtt_ms, cfg):
    """build_state as it was written before its features were memoized:
    quantiles on every call, element-wise writes into a zeroed array."""

    def clip01(x):
        return min(max(x, 0.0), 1.0)

    feats = np.zeros(cfg.state_dim, dtype=np.float64)
    for i in range(min(len(playlist), cfg.k)):
        v = playlist[i]
        d = v.meta.duration_s
        base = i * FIELDS_PER_VIDEO
        feats[base + 0] = clip01(v.chosen_bitrate / v.meta.bitrate_ladder[-1])
        feats[base + 1] = clip01(v.buffered_s / d)
        feats[base + 2] = clip01(d / cfg.duration_cap_s)
        feats[base + 3] = clip01(v.play_pos_s / d)
        if cfg.include_watch_estimates and v.watch_params is not None:
            high = min(weibull_quantile(v.watch_params, cfg.e_high), d)
            low = min(weibull_quantile(v.watch_params, cfg.e_low), d)
            feats[base + 4] = clip01(high / d)
            feats[base + 5] = clip01(low / d)
    tail = FIELDS_PER_VIDEO * cfg.k
    feats[tail + 0] = clip01(q_mbps / cfg.throughput_cap_mbps)
    feats[tail + 1] = clip01(rtt_ms / cfg.rtt_cap_ms)
    feats[tail + 2] = clip01(selected / cfg.k)
    return feats


_params_st = st.one_of(
    st.none(),
    st.builds(
        WeibullParams,
        shape=st.floats(0.2, 6.0),
        scale=st.floats(0.01, 500.0),
        location=st.floats(0.0, 100.0),
    ),
)


@st.composite
def _video_st(draw):
    d = draw(st.floats(0.05, 400.0))
    ladder = tuple(sorted(set(draw(st.lists(st.floats(0.1, 20.0), min_size=1, max_size=4)))))
    # Positions may run past the duration so the clip is exercised.
    buffered = draw(st.floats(0.0, 1.5 * d))
    v = VideoState(
        meta=VideoMeta("v", d, ladder),
        buffered_s=buffered,
        play_pos_s=draw(st.floats(0.0, buffered)),
        watch_params=draw(_params_st),
    )
    v.chosen_bitrate = draw(st.sampled_from(ladder + (ladder[-1] * 2.0,)))
    return v


@settings(max_examples=300, deadline=None)
@given(
    videos=st.lists(_video_st(), max_size=7),
    k=st.integers(1, 6),
    wte=st.booleans(),
    e_low=st.floats(0.0, 0.45),
    e_high=st.floats(0.5, 0.99),
    q=st.floats(0.0, 500.0),
    rtt=st.floats(0.0, 5000.0),
    data=st.data(),
)
def test_build_state_matches_reference_bit_for_bit(videos, k, wte, e_low, e_high, q, rtt, data):
    cfg = PolicyConfig(k=k, e_high=e_high, e_low=e_low, include_watch_estimates=wte)
    selected = data.draw(st.integers(0, max(len(videos), 1) - 1))
    want = _reference_build_state(videos, selected, q, rtt, cfg)
    for _ in range(2):  # the second call hits the memoized quantiles
        got = build_state(videos, selected, q, rtt, cfg)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # New parameters for some videos, then new quantile levels: each must
    # recompute the memo rather than return the old features.
    for v in videos:
        if data.draw(st.booleans()):
            v.watch_params = data.draw(_params_st)
    e_low2, e_high2 = data.draw(st.floats(0.0, 0.45)), data.draw(st.floats(0.5, 0.99))
    for cfg in (cfg, PolicyConfig(k=k, e_high=e_high2, e_low=e_low2, include_watch_estimates=wte)):
        want = _reference_build_state(videos, selected, q, rtt, cfg)
        for _ in range(2):
            got = build_state(videos, selected, q, rtt, cfg)
            assert got.tobytes() == want.tobytes()


def _min_max_build_state(playlist, selected, q_mbps, rtt_ms, cfg):
    """build_state as it was before its clips became comparisons: every
    clip through min(max(x, 0.0), 1.0), padding appended after the loop."""
    feats = []
    n = min(len(playlist), cfg.k)
    for i in range(n):
        v = playlist[i]
        meta = v.meta
        d = meta.duration_s
        if cfg.include_watch_estimates and v.watch_params is not None:
            high, low = _watch_features(v.watch_params, d, cfg.e_high, cfg.e_low)
        else:
            high = low = 0.0
        feats += (
            min(max(v.chosen_bitrate / meta.bitrate_ladder[-1], 0.0), 1.0),
            min(max(v.buffered_s / d, 0.0), 1.0),
            min(max(d / cfg.duration_cap_s, 0.0), 1.0),
            min(max(v.play_pos_s / d, 0.0), 1.0),
            high,
            low,
        )
    feats += [0.0] * (FIELDS_PER_VIDEO * (cfg.k - n))
    feats += (
        min(max(q_mbps / cfg.throughput_cap_mbps, 0.0), 1.0),
        min(max(rtt_ms / cfg.rtt_cap_ms, 0.0), 1.0),
        min(max(selected / cfg.k, 0.0), 1.0),
    )
    return np.array(feats, dtype=np.float64)


# Edge operands of a clip: NaN and -0.0 come back as themselves.
_clip_edge_st = st.one_of(
    st.floats(-50.0, 5000.0), st.sampled_from([0.0, -0.0, 1e-300, -1e-300, math.nan])
)
# Zero location, near-zero scale: quantile features at or near 0.
_zero_params_st = st.one_of(
    st.none(),
    st.builds(WeibullParams, shape=st.floats(0.2, 6.0), scale=st.sampled_from([1e-9, 1e-3]), location=st.just(0.0)),
    _params_st,
)


@st.composite
def _edge_video_st(draw):
    d = draw(st.floats(0.05, 400.0))
    # Buffers and playheads run to three times the duration.
    buffered = draw(st.floats(0.0, 3.0 * d))
    v = VideoState(
        meta=VideoMeta("v", d, (1.0, 2.0)),
        buffered_s=buffered,
        play_pos_s=draw(st.floats(0.0, 3.0 * d)),
        watch_params=draw(_zero_params_st),
    )
    v.chosen_bitrate = draw(st.sampled_from([1.0, 2.0, 4.0]))
    return v


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 6),
    data=st.data(),
    wte=st.booleans(),
    q=_clip_edge_st,
    rtt=_clip_edge_st,
    selected=st.integers(-1, 7),
)
def test_build_state_matches_min_max_formula(k, data, wte, q, rtt, selected):
    cfg = PolicyConfig(k=k, include_watch_estimates=wte)
    # Mostly shorter than k, sometimes longer.
    videos = data.draw(st.lists(_edge_video_st(), max_size=k + 1))
    want = _min_max_build_state(videos, selected, q, rtt, cfg)
    got = build_state(videos, selected, q, rtt, cfg)
    assert got.dtype == np.float64 and got.shape == (cfg.state_dim,)
    assert got.tobytes() == want.tobytes()


@given(
    seed=st.integers(0, 5000),
    q=st.floats(0.0, 500.0),
    rtt=st.floats(0.0, 5000.0),
)
def test_state_always_in_unit_box(seed, q, rtt):
    rng = np.random.default_rng(seed)
    cfg = PolicyConfig()
    videos = []
    for i in range(int(rng.integers(1, 7))):
        d = float(rng.uniform(0.5, 300.0))
        v = make_video(f"v{i}", d, params=EXP if rng.random() < 0.7 else None)
        v.buffered_s = float(rng.uniform(0.0, d))
        v.play_pos_s = float(rng.uniform(0.0, v.buffered_s))
        videos.append(v)
    feats = build_state(videos, int(rng.integers(0, cfg.k)), q, rtt, cfg)
    assert feats.shape == (cfg.state_dim,)
    assert np.all(feats >= 0.0) and np.all(feats <= 1.0)


# --- the nets ------------------------------------------------------------


def test_mlp_forward_matches_manual_matmul():
    rng = np.random.default_rng(4)
    mlp = Mlp((5, 7, 2), rng)
    x = rng.random((3, 5))
    out, cache = mlp.forward(x)
    h = np.maximum(x @ mlp.weights[0] + mlp.biases[0], 0.0)
    expect = h @ mlp.weights[1] + mlp.biases[1]
    np.testing.assert_allclose(out, expect, rtol=1e-12)
    assert len(cache) == 3


def test_mlp_backward_matches_finite_differences():
    from conftest import max_rel_grad_error

    rng = np.random.default_rng(8)
    mlp = Mlp((4, 6, 3), rng)
    x = rng.random((5, 4))
    coeff = rng.normal(size=(5, 3))

    def loss_fn():
        out, cache = mlp.forward(x)
        loss = float((out * coeff).sum())
        grads_nested = mlp.backward(cache, coeff)
        flat = []
        for dw, db in grads_nested:
            flat.extend([dw, db])
        return loss, flat

    assert max_rel_grad_error(mlp, loss_fn) <= 1e-6


def _out_of_place_forward(mlp, x):
    """Mlp.forward as it was before it worked in place."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim == 1:
        h = h[None, :]
    cache = [h]
    for i in range(mlp.n_layers):
        z = h @ mlp.weights[i] + mlp.biases[i]
        if i < mlp.n_layers - 1:
            h = np.maximum(z, 0.0)
        else:
            h = z
        cache.append(h)
    return h, cache


def _out_of_place_backward(mlp, cache, dout):
    """Mlp.backward as it was before it worked in place."""
    grads = [None] * mlp.n_layers
    delta = np.asarray(dout, dtype=np.float64)
    for i in range(mlp.n_layers - 1, -1, -1):
        h_in = cache[i]
        if i < mlp.n_layers - 1:
            delta = delta * (cache[i + 1] > 0.0)
        dw = h_in.T @ delta
        db = delta.sum(axis=0)
        grads[i] = (dw, db)
        if i > 0:
            delta = delta @ mlp.weights[i].T
    return grads


@pytest.mark.parametrize("rows", [1, 2050])
@pytest.mark.parametrize("net_name", ["actor", "critic"])
def test_in_place_forward_backward_match_out_of_place(rows, net_name):
    mlp = getattr(MlpNet.create(PolicyConfig(), seed=11), net_name)
    rng = np.random.default_rng(rows)
    x = rng.random((rows, mlp.sizes[0]))
    # Zeroed inputs and a negative bias put exact zeros behind some ReLUs.
    x[::7] = 0.0
    mlp.biases[0][:8] = -0.25
    dout = rng.normal(size=(rows, mlp.sizes[-1]))
    x_before, dout_before = x.copy(), dout.copy()

    out, cache = mlp.forward(x)
    want_out, want_cache = _out_of_place_forward(mlp, x)
    assert out.tobytes() == want_out.tobytes()
    assert len(cache) == len(want_cache)
    for got, want in zip(cache, want_cache):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    grads = mlp.backward(cache, dout)
    want_grads = _out_of_place_backward(mlp, want_cache, dout)
    for (dw, db), (want_dw, want_db) in zip(grads, want_grads):
        assert dw.tobytes() == want_dw.tobytes()
        assert db.tobytes() == want_db.tobytes()
    # Neither pass writes into its caller's arrays.
    assert x.tobytes() == x_before.tobytes() and dout.tobytes() == dout_before.tobytes()


def _assert_stacked_rows_match_single(mlp, x):
    """Row i of a stacked forward equals a forward of row i alone, both as
    a one-row batch and as a vector (the decision path)."""
    stacked, _ = mlp.forward(x[:, None, :])
    assert stacked.shape == (len(x), 1, mlp.sizes[-1])
    for i, row in enumerate(x):
        got = [float(v).hex() for v in stacked[i, 0]]
        for single_input in (row[None, :], row):
            single, _ = mlp.forward(single_input)
            want = [float(v).hex() for v in single[0]]
            assert got == want, f"row {i} of a batch of {len(x)}, input shape {single_input.shape}"


@pytest.mark.parametrize("net_name", ["actor", "critic"])
def test_stacked_forward_rows_match_single_row_forward(net_name):
    """`ppo_update` takes its old values from one stacked critic forward;
    the rollouts' decisions used single-row forwards. Their bytes must agree
    (here against fresh weights, batches of 1-64 and of 2,050 rows)."""
    net = MlpNet.create(PolicyConfig(), seed=3)
    mlp = getattr(net, net_name)
    rng = np.random.default_rng(64)
    for n in [*range(1, 65), 2050]:
        _assert_stacked_rows_match_single(mlp, rng.random((n, mlp.sizes[0])))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=33, max_size=33), min_size=1, max_size=12
    ),
    seed=st.integers(0, 2**16),
)
def test_stacked_forward_rows_match_single_row_on_any_states(rows, seed):
    net = MlpNet.create(PolicyConfig(), seed=seed)
    x = np.array(rows, dtype=np.float64)
    _assert_stacked_rows_match_single(net.actor, x)
    _assert_stacked_rows_match_single(net.critic, x)


@settings(max_examples=200, deadline=None)
@given(
    state=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0]), min_size=33, max_size=33),
    seed=st.integers(0, 2**16),
    net_name=st.sampled_from(["actor", "critic"]),
    bias=st.sampled_from([0.0, -0.25, -1e3]),
)
def test_vector_forward_matches_one_row_batch(state, seed, net_name, bias):
    """A decision's forward of a 1-D state is the forward of `x[None, :]`:
    the same shapes and bytes for the output and every cache entry."""
    mlp = getattr(MlpNet.create(PolicyConfig(), seed=seed), net_name)
    # A negative bias on half the first layer puts exact zeros behind its
    # ReLUs (all of them at -1e3).
    mlp.biases[0][: mlp.sizes[1] // 2] = bias
    x = np.array(state, dtype=np.float64)
    out, cache = mlp.forward(x)
    want_out, want_cache = mlp.forward(x[None, :])
    assert out.shape == want_out.shape == (1, mlp.sizes[-1])
    assert out.tobytes() == want_out.tobytes()
    assert len(cache) == len(want_cache) == mlp.n_layers + 1
    for got, want in zip(cache, want_cache):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if bias == -1e3:
        assert (cache[1][0, : mlp.sizes[1] // 2] == 0.0).all()


def test_zeroed_actor_gives_known_distribution():
    cfg = PolicyConfig(k=2, hidden_sizes=(8,))
    net = MlpNet.create(cfg, seed=0)
    for mlp in (net.actor, net.critic):
        for w in mlp.weights:
            w[:] = 0.0
    mean, stddev, value = policy_forward(net, np.full(cfg.state_dim, 0.5))
    assert mean == 0.0
    assert stddev == math.log(2.0)  # softplus(0)
    assert value == 0.0


def test_policy_forward_is_pure():
    cfg = PolicyConfig(k=2, hidden_sizes=(8,))
    net = MlpNet.create(cfg, seed=3)
    state = np.random.default_rng(0).random(cfg.state_dim)
    a = policy_forward(net, state)
    b = policy_forward(net, state)
    assert a == b


def test_create_is_seed_deterministic():
    cfg = PolicyConfig()
    n1, n2 = MlpNet.create(cfg, 9), MlpNet.create(cfg, 9)
    for w1, w2 in zip(n1.actor.parameters(), n2.actor.parameters()):
        assert np.array_equal(w1, w2)
    n3 = MlpNet.create(cfg, 10)
    assert not np.array_equal(n1.actor.weights[0], n3.actor.weights[0])


def test_softplus_stable_at_extremes():
    assert softplus(0.0) == pytest.approx(math.log(2.0))
    assert softplus(-800.0) >= 0.0
    assert softplus(800.0) == pytest.approx(800.0)


def _assert_softplus_is_logaddexp(z: float) -> None:
    with np.errstate(invalid="ignore"):  # numpy warns on a NaN input
        want = float(np.logaddexp(0.0, z))
    got = softplus(z)
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got.hex() == want.hex(), z


@settings(max_examples=2000, deadline=None)
@given(
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(-40.0, 40.0)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-17, -1e-17,
                       36.7, 37.0, -745.0, -745.2, 745.0, 709.8, -709.8, math.inf, -math.inf])
)
def test_scalar_softplus_is_numpys_logaddexp(z):
    """The actor's stddev head on a Python float gives the bits of
    `np.logaddexp(0.0, z)`; NaN gives NaN."""
    _assert_softplus_is_logaddexp(z)


def test_scalar_softplus_is_numpys_logaddexp_on_a_sweep():
    """100,000 values at every scale an actor output can take."""
    rng = np.random.default_rng(15)
    zs = rng.normal(size=50_000) * np.exp(rng.uniform(-40.0, 7.0, size=50_000))
    zs = np.concatenate([zs, rng.uniform(-1.0, 1.0, size=50_000)])
    for z in zs.tolist():
        _assert_softplus_is_logaddexp(z)


# --- action mapping -----------------------------------------------------------


def test_map_to_range_anchors():
    cfg = PolicyConfig()  # [0.2, 12]
    assert map_to_range(0.0, cfg) == pytest.approx(6.1)
    assert map_to_range(-1.0, cfg) == 0.2
    assert map_to_range(1.0, cfg) == 12.0
    assert map_to_range(-7.0, cfg) == 0.2  # clamps
    assert map_to_range(7.0, cfg) == 12.0


@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_map_to_range_monotone_and_bounded(a, b):
    cfg = PolicyConfig()
    ra, rb = map_to_range(a, cfg), map_to_range(b, cfg)
    assert cfg.range_min_s <= ra <= cfg.range_max_s
    if a <= b:
        assert ra <= rb


def test_gaussian_log_prob_matches_scipy():
    from scipy import stats

    for x, m, s in [(0.3, 0.0, 1.0), (-2.0, 0.5, 0.2), (4.0, -1.0, 3.0)]:
        assert gaussian_log_prob(x, m, s) == pytest.approx(
            stats.norm.logpdf(x, m, s), abs=1e-12
        )


def test_sample_action_reproducible_and_consistent():
    cfg = PolicyConfig()
    net = MlpNet.create(cfg, seed=7)
    strat = LearnedRangeStrategy("deload", net)
    videos = _mid_session_playlist()
    a1 = strat.decide(videos, 3.0, 70.0, 10.0, np.random.default_rng(5))
    a2 = strat.decide(videos, 3.0, 70.0, 10.0, np.random.default_rng(5))
    x1, x2 = a1.extras, a2.extras
    assert (a1.index, a1.duration_s, x1.raw, x1.log_prob) == (a2.index, a2.duration_s, x2.raw, x2.log_prob)
    assert x1.features.tobytes() == x2.features.tobytes()
    mean, stddev = actor_distribution(net, x1.features)
    assert x1.raw == np.random.default_rng(5).normal(mean, stddev)
    assert a1.duration_s == map_to_range(x1.raw, cfg)
    assert x1.log_prob == gaussian_log_prob(x1.raw, mean, stddev)


@settings(max_examples=200, deadline=None)
@given(
    state=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0]), min_size=33, max_size=33),
    seed=st.integers(0, 2**16),
    bias=st.sampled_from([0.0, -0.25, -1e3]),
    out_bias=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
)
def test_actor_distribution_is_the_heads_of_the_forward(state, seed, bias, out_bias):
    """A decision's cache-free actor pass gives the bits of `Mlp.forward`
    of the state as a row, through `math.tanh` and `np.logaddexp`."""
    net = MlpNet.create(PolicyConfig(), seed=seed)
    # Exact zeros behind half the first layer's ReLUs (all of them at -1e3).
    net.actor.biases[0][: net.actor.sizes[1] // 2] = bias
    net.actor.biases[-1][:] = out_bias
    x = np.array(state, dtype=np.float64)
    raw, _ = net.actor.forward(x[None, :])
    want = (math.tanh(float(raw[0, 0])), float(np.logaddexp(0.0, raw[0, 1])))
    assert [v.hex() for v in actor_distribution(net, x)] == [v.hex() for v in want]


def test_distribution_rejects_bad_stddev():
    # softplus underflows to 0.0 far below zero: no density to sample from.
    cfg = PolicyConfig(k=2, hidden_sizes=(8,))
    net = MlpNet.create(cfg, seed=0)
    net.actor.weights[-1][:] = 0.0
    net.actor.biases[-1][:] = (0.0, -800.0)
    with pytest.raises(FloatingPointError, match="must be positive"):
        actor_distribution(net, np.full(cfg.state_dim, 0.5))


# --- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    cfg = PolicyConfig(k=3, hidden_sizes=(16, 8), include_watch_estimates=False)
    net = MlpNet.create(cfg, seed=21)
    p1 = tmp_path / "net.ckpt"
    save_checkpoint(net, p1)
    loaded = load_checkpoint(p1)
    assert loaded.cfg == cfg
    for a, b in zip(
        net.actor.parameters() + net.critic.parameters(),
        loaded.actor.parameters() + loaded.critic.parameters(),
    ):
        assert np.array_equal(a, b)
    p2 = tmp_path / "again.ckpt"
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    state = np.random.default_rng(1).random(cfg.state_dim)
    assert policy_forward(net, state) == policy_forward(loaded, state)


def test_checkpoint_rejects_foreign_files(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_text("something else entirely\n")
    with pytest.raises(ValueError):
        load_checkpoint(p)


# --- selection rules and strategies --------------------------------------


def test_naive_select_first_insufficient():
    a = buffer_to(make_video("a", duration_s=60.0), 12.0)
    b = make_video("b", duration_s=60.0)
    assert naive_select([a, b], threshold_s=10.0) == 1
    assert naive_select([a], threshold_s=10.0) is None
    # under threshold but fully downloaded: skip to the next
    done = buffer_to(make_video("c", duration_s=5.0), 5.0)
    assert naive_select([done, b], threshold_s=10.0) == 1


def test_fixed_strategies_carry_their_duration():
    videos = [make_video(f"v{i}", params=WeibullParams(1.0, 5.0, 0.0)) for i in range(2)]
    rng = np.random.default_rng(0)
    d1 = FixedRangeStrategy("deload_1s", 1.0).decide(videos, 1.0, 80.0, 10.0, rng)
    d5 = FixedRangeStrategy("deload_5s", 5.0).decide(videos, 1.0, 80.0, 10.0, rng)
    dn = NaiveFixedStrategy("naive_1s", 1.0).decide(videos, 1.0, 80.0, 10.0, rng)
    assert d1.duration_s == 1.0
    assert d5.duration_s == 5.0
    assert dn.duration_s == 1.0 and dn.index == 0


def test_fixed_strategy_respects_issue_floor():
    # every video within 0.2s of the cap: demand strategies hold off
    videos = [
        buffer_to(make_video(f"v{i}", duration_s=60.0, params=WeibullParams(1.0, 5.0, 0.0)), 9.9)
        for i in range(2)
    ]
    rng = np.random.default_rng(0)
    assert FixedRangeStrategy("deload_1s", 1.0).decide(videos, 1.0, 80.0, 10.0, rng) is None
    assert NaiveFixedStrategy("naive_1s", 1.0).decide(videos, 1.0, 80.0, 10.0, rng).index == 0


def test_learned_strategy_decides_and_attaches_extras():
    cfg = PolicyConfig(k=3, hidden_sizes=(8,))
    net = MlpNet.create(cfg, seed=2)
    videos = [make_video(f"v{i}", params=WeibullParams(1.0, 5.0, 0.0)) for i in range(3)]
    rng = np.random.default_rng(1)
    strat = LearnedRangeStrategy("deload", net)
    dec = strat.decide(videos, 2.0, 90.0, 10.0, rng)
    assert dec is not None and dec.extras is not None
    assert cfg.range_min_s <= dec.duration_s <= cfg.range_max_s
    assert dec.extras.log_prob <= 0.0 or math.isfinite(dec.extras.log_prob)
    assert strat.survival is fitted_survival

    det = LearnedRangeStrategy("deload", net, deterministic=True)
    d1 = det.decide(videos, 2.0, 90.0, 10.0, np.random.default_rng(0))
    d2 = det.decide(videos, 2.0, 90.0, 10.0, np.random.default_rng(99))
    assert d1.duration_s == d2.duration_s  # rng-independent at the mean


def _mid_session_playlist(n=4):
    videos = []
    for i in range(n):
        v = make_video(f"v{i}", duration_s=20.0 + 7.0 * i, params=WeibullParams(1.1 + 0.2 * i, 6.0, 0.3))
        buffer_to(v, 1.5 * i)
        videos.append(v)
    videos[0].play_pos_s = 0.4
    return videos


@pytest.mark.parametrize("wte", [True, False])
def test_deterministic_decide_acts_at_the_actor_mean(wte):
    cfg = PolicyConfig(include_watch_estimates=wte)
    net = MlpNet.create(cfg, seed=7)
    strat = LearnedRangeStrategy("deload", net, deterministic=True)
    videos = _mid_session_playlist()
    dec = strat.decide(videos, 3.0, 70.0, 10.0, np.random.default_rng(0))
    dv = compute_demands(videos, strat.survival)
    idx = select_video(videos, dv, 10.0, min_headroom_s=cfg.range_min_s)
    mean, _, _ = policy_forward(net, build_state(videos, idx, 3.0, 70.0, cfg))
    assert dec.index == idx
    assert dec.duration_s == map_to_range(mean, cfg)
    assert dec.extras is None


def test_deterministic_decide_runs_no_critic():
    net = MlpNet.create(PolicyConfig(), seed=7)
    videos = _mid_session_playlist()
    want = LearnedRangeStrategy("deload", net, deterministic=True).decide(
        videos, 3.0, 70.0, 10.0, np.random.default_rng(0)
    )
    net.critic.weights[0][:] = np.nan
    got = LearnedRangeStrategy("deload", net, deterministic=True).decide(
        videos, 3.0, 70.0, 10.0, np.random.default_rng(0)
    )
    assert got.duration_s == want.duration_s


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("deterministic", [True, False])
def test_nan_actor_weight_raises(deterministic):
    net = MlpNet.create(PolicyConfig(), seed=7)
    net.actor.weights[-1][:] = np.nan
    strat = LearnedRangeStrategy("deload", net, deterministic=deterministic)
    with pytest.raises(FloatingPointError):
        strat.decide(_mid_session_playlist(), 3.0, 70.0, 10.0, np.random.default_rng(0))


def test_nan_critic_weight_raises_in_update_and_training(monkeypatch):
    """Rollouts never run the critic, so a NaN critic weight surfaces as a
    non-finite old value when the update evaluates its batch."""
    from conftest import flat_trace
    from swipesim import harness
    from swipesim.ppo import PpoOptimizers, TrainConfig, ppo_update
    from swipesim.sim import RetentionSource, SimConfig

    net = MlpNet.create(PolicyConfig(), seed=7)
    net.critic.weights[-1][:] = np.nan
    dec = LearnedRangeStrategy("deload", net).decide(
        _mid_session_playlist(), 3.0, 70.0, 10.0, np.random.default_rng(0)
    )
    tc = TrainConfig(lr=1e-3)
    before = [p.copy() for p in net.actor.parameters()]
    with pytest.raises(FloatingPointError, match="critic value"):
        ppo_update(net, PpoOptimizers.create(net, tc), [dec.extras], [1.0], [True], tc)
    assert all(np.array_equal(a, b) for a, b in zip(before, net.actor.parameters()))

    create = MlpNet.create

    def nan_critic(cfg, seed):
        out = create(cfg, seed)
        out.critic.weights[-1][:] = np.nan
        return out

    monkeypatch.setattr(MlpNet, "create", staticmethod(nan_critic))
    catalog = [VideoMeta(f"m{i}", 8.0 + 3.0 * i, (0.5, 1.5)) for i in range(4)]
    retention = RetentionSource(params={m.video_id: WeibullParams(1.2, 3.0, 0.3) for m in catalog})
    with pytest.raises(FloatingPointError, match="critic value"):
        harness.train_policy(
            [flat_trace(1.2)], catalog, retention, None,
            PolicyConfig(k=3, hidden_sizes=(8,), include_watch_estimates=False),
            TrainConfig(lr=1e-3, episodes=2, batch_episodes=1),
            SimConfig(videos_per_session=4, max_session_s=60.0), seed=0,
        )


def test_learned_strategy_no_wte_uses_uniform_survival():
    cfg = PolicyConfig(include_watch_estimates=False)
    net = MlpNet.create(cfg, seed=2)
    strat = LearnedRangeStrategy("deload_no_wte", net)
    assert strat.survival is uniform_survival
    # decides without any watch params attached
    videos = [make_video(f"v{i}") for i in range(2)]
    dec = strat.decide(videos, 2.0, 90.0, 10.0, np.random.default_rng(1))
    assert dec is not None


def test_baseline_policy_factory():
    assert isinstance(baseline_policy("deload_1s"), FixedRangeStrategy)
    assert isinstance(baseline_policy("deload_5s"), FixedRangeStrategy)
    assert isinstance(baseline_policy("naive_1s"), NaiveFixedStrategy)
    with pytest.raises(ValueError):
        baseline_policy("deload")
    with pytest.raises(ValueError):
        baseline_policy("nonsense")
    wte_net = MlpNet.create(PolicyConfig(), seed=0)
    with pytest.raises(ValueError):
        baseline_policy("deload_no_wte", wte_net)
    strat = baseline_policy("deload", wte_net)
    assert isinstance(strat, LearnedRangeStrategy) and strat.deterministic
