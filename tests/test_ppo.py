import copy
import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import flat_trace, max_rel_grad_error
from swipesim import ppo
from swipesim.demand import compute_demands, select_video
from swipesim.media import VideoMeta, VideoState
from swipesim.policy import (
    Decision,
    LearnedRangeStrategy,
    MlpNet,
    PolicyConfig,
    PolicyExtras,
    build_state,
    gaussian_log_prob,
    map_to_range,
    policy_forward,
)
from swipesim.ppo import (
    Adam,
    EpisodeLog,
    PpoOptimizers,
    RewardWeights,
    TrainConfig,
    actor_loss_and_grads,
    attribute_reward_terms,
    compute_reward,
    critic_loss_and_grads,
    discounted_returns,
    gae_advantages,
    ppo_update,
    train,
    write_learning_curve,
)
from swipesim.sim import RetentionSource, SimConfig, run_session
from swipesim.watchtime import WeibullParams


# --- reward arithmetic --------------------------------------------------------


def test_reward_weights_defaults():
    w = RewardWeights()
    assert w.alpha == 0.01 and w.stall_beta == 1.85 and w.waste_clip_bits == 1.2e6


def test_reward_basic_example():
    # 2s at 2 Mbps with 0.5 Mbit wasted, no stall
    assert compute_reward(2.0, 2.0, 0.5e6, 0.0, 1.0) == 3.995


def test_reward_waste_clips_at_1_2_megabits():
    r = compute_reward(2.0, 2.0, 2.0e6, 0.0, 1.0)
    assert r == 2.0 * 2.0 - 0.01 * 1.2
    assert r == compute_reward(2.0, 2.0, 1.2e6, 0.0, 1.0)


def test_reward_stall_term():
    assert compute_reward(1.0, 1.0, 0.0, 1.0, 1.0) == 1.0 * 1.0 - 1.85 * 1.0 * 1.0
    assert compute_reward(0.0, 1.0, 0.0, 2.0, 3.0) == -1.85 * 2.0 * 3.0


def test_reward_custom_weights():
    w = RewardWeights(alpha=0.5, stall_beta=2.0, waste_clip_bits=1e6)
    assert compute_reward(1.0, 1.0, 4e6, 1.0, 1.0, w) == 1.0 - 0.5 - 2.0


# --- event attribution ----------------------------------------------------


def test_attribute_empty():
    assert attribute_reward_terms([], 0.0, 10.0) == (0.0, 0.0)


def test_attribute_swipes_by_instant():
    events = [(1.0, 1.0, 5e6), (2.0, 2.0, 3e6), (4.0, 4.0, 1e6)]
    w, bt = attribute_reward_terms(events, 1.0, 4.0)  # [1, 4): start in, end out
    assert w == 8e6 and bt == 0.0


def test_attribute_stalls_split_proportionally():
    events = [(1.0, 3.0, None)]
    w1, b1 = attribute_reward_terms(events, 0.0, 2.0)
    w2, b2 = attribute_reward_terms(events, 2.0, 4.0)
    assert (b1, b2) == (1.0, 1.0)
    _, b_inside = attribute_reward_terms([(0.5, 0.7, None)], 0.0, 2.0)
    assert b_inside == pytest.approx(0.2)
    _, b_out = attribute_reward_terms([(5.0, 6.0, None)], 0.0, 2.0)
    assert b_out == 0.0


def test_attribute_covers_events_exactly_once():
    events = [(0.4, 2.6, None), (0.0, 0.0, 1e6), (2.0, 2.0, 2e6)]
    windows = [(0.0, 1.0), (1.0, 2.0), (2.0, math.inf)]
    w_total = sum(attribute_reward_terms(events, a, b)[0] for a, b in windows)
    bt_total = sum(attribute_reward_terms(events, a, b)[1] for a, b in windows)
    assert w_total == 3e6
    assert bt_total == pytest.approx(2.2)


# --- returns and advantages -----------------------------------------------


def test_discounted_returns_closed_forms():
    np.testing.assert_allclose(
        discounted_returns([0.0, 0.0], [False, True], 0.9), [0.0, 0.0]
    )
    np.testing.assert_allclose(
        discounted_returns([1.0, 1.0, 1.0], [False, False, True], 0.5),
        [1.75, 1.5, 1.0],
    )


def test_discounted_returns_reset_at_episode_boundary():
    out = discounted_returns([1.0, 1.0, 2.0, 3.0], [False, True, False, True], 0.5)
    np.testing.assert_allclose(out, [1.5, 1.0, 3.5, 3.0])


def test_gae_small_case_by_hand():
    adv = gae_advantages([1.0, 2.0], [0.5, 0.25], [False, True], 0.9, 0.8)
    d1 = 2.0 - 0.25
    d0 = 1.0 + 0.9 * 0.25 - 0.5
    np.testing.assert_allclose(adv, [d0 + 0.9 * 0.8 * d1, d1])


def test_adam_single_step():
    p = np.array([1.0])
    opt = Adam([p], lr=0.1)
    opt.step([np.array([0.5])])
    # bias correction cancels on the first step: p -= lr * g / (|g| + eps)
    assert p[0] == pytest.approx(0.9, abs=1e-7)


# --- actor/critic losses ----------------------------------------------------


def _reduced_net(seed=5):
    cfg = PolicyConfig(k=2, hidden_sizes=(8,))
    return MlpNet.create(cfg, seed=seed), cfg


def _batch(net, cfg, n=6, seed=11, jitter=0.05):
    rng = np.random.default_rng(seed)
    feats = rng.random((n, cfg.state_dim))
    raw = rng.normal(0.0, 0.7, size=n)
    old_lp = np.empty(n)
    for i in range(n):
        mean, stddev, _ = policy_forward(net, feats[i])
        old_lp[i] = gaussian_log_prob(raw[i], mean, stddev)
    old_lp += rng.normal(0.0, jitter, size=n)
    adv = rng.normal(0.0, 1.0, size=n)
    returns = rng.normal(0.0, 2.0, size=n)
    return feats, raw, old_lp, adv, returns


def test_actor_loss_at_ratio_one():
    net, cfg = _reduced_net()
    feats, raw, old_lp, adv, _ = _batch(net, cfg, jitter=0.0)
    loss, _, stats = actor_loss_and_grads(net.actor, feats, raw, old_lp, adv, clip_eps=0.2)
    assert loss == pytest.approx(-float(adv.mean()), abs=1e-12)
    assert stats["clip_fraction"] == 0.0
    assert stats["ratio_mean"] == pytest.approx(1.0, abs=1e-12)


def test_actor_zero_advantage_zero_gradient():
    net, cfg = _reduced_net()
    feats, raw, old_lp, _, _ = _batch(net, cfg)
    _, grads, _ = actor_loss_and_grads(
        net.actor, feats, raw, old_lp, np.zeros(len(raw)), clip_eps=0.2
    )
    assert all(not g.any() for g in grads)


def test_actor_gradients_match_central_differences():
    net, cfg = _reduced_net()
    feats, raw, old_lp, adv, _ = _batch(net, cfg)

    def loss_fn():
        loss, grads, _ = actor_loss_and_grads(net.actor, feats, raw, old_lp, adv, 0.2)
        return loss, grads

    assert max_rel_grad_error(net.actor, loss_fn) <= 1e-4


def test_actor_gradients_with_entropy_bonus():
    net, cfg = _reduced_net(seed=6)
    feats, raw, old_lp, adv, _ = _batch(net, cfg, seed=12)

    def loss_fn():
        loss, grads, _ = actor_loss_and_grads(
            net.actor, feats, raw, old_lp, adv, 0.2, entropy_coef=0.01
        )
        return loss, grads

    assert max_rel_grad_error(net.actor, loss_fn) <= 1e-4


def test_critic_gradients_match_central_differences():
    net, cfg = _reduced_net()
    feats, _, _, _, returns = _batch(net, cfg)

    def loss_fn():
        return critic_loss_and_grads(net.critic, feats, returns)

    assert max_rel_grad_error(net.critic, loss_fn) <= 1e-4


# --- updates ------------------------------------------------------------------


def _sampled(net, features, raw):
    """The training record of drawing `raw` in state `features`."""
    mean, stddev, _ = policy_forward(net, features)
    return PolicyExtras(features=features, raw=raw, log_prob=gaussian_log_prob(raw, mean, stddev))


def test_update_empty_batch_is_noop():
    net, _ = _reduced_net()
    opt = PpoOptimizers.create(net, TrainConfig())
    stats = ppo_update(net, opt, [], [], [], TrainConfig())
    assert stats["n"] == 0


def test_update_raises_probability_of_advantaged_action():
    net, cfg = _reduced_net()
    feats = np.random.default_rng(2).random(cfg.state_dim)
    raw = 0.4
    mean, stddev, value = policy_forward(net, feats)
    x = _sampled(net, feats, raw)
    lp_before = gaussian_log_prob(raw, mean, stddev)

    train_cfg = TrainConfig(lr=1e-3, epochs=4)
    # Reward value + 1: an advantage of +1.
    ppo_update(net, PpoOptimizers.create(net, train_cfg), [x], [value + 1.0], [True], train_cfg)

    mean2, stddev2, _ = policy_forward(net, feats)
    lp_after = gaussian_log_prob(raw, mean2, stddev2)
    assert lp_after > lp_before


def test_update_is_deterministic():
    def run():
        net, cfg = _reduced_net(seed=9)
        rng = np.random.default_rng(31)
        batch, rewards = [], []
        for _ in range(4):
            batch.append(_sampled(net, rng.random(cfg.state_dim), float(rng.normal())))
            rewards.append(float(rng.normal()))
        cfg_t = TrainConfig(lr=1e-3)
        ppo_update(net, PpoOptimizers.create(net, cfg_t), batch, rewards, [False, False, False, True], cfg_t)
        return net

    n1, n2 = run(), run()
    for a, b in zip(n1.actor.parameters() + n1.critic.parameters(),
                    n2.actor.parameters() + n2.critic.parameters()):
        assert np.array_equal(a, b)


# --- the training loop ------------------------------------------------------


def _mini_session_factory(strategy, trace, ep_seed):
    entropy = ep_seed if isinstance(ep_seed, tuple) else (ep_seed,)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(*entropy, 1)))
    metas = [VideoMeta(f"m{i}", 5.0 + 2.0 * i, (0.5, 1.5)) for i in range(4)]
    videos = (VideoState(meta=metas[int(i)]) for i in rng.permutation(4))
    retention = RetentionSource(params={m.video_id: WeibullParams(1.2, 3.0, 0.3) for m in metas})
    cfg = SimConfig(videos_per_session=4, max_session_s=120.0)
    return run_session(trace, videos, retention, strategy, cfg, seed=(*entropy, 2))


def _mini_train(episodes=6):
    cfg = PolicyConfig(k=3, hidden_sizes=(8,), include_watch_estimates=False)
    net = MlpNet.create(cfg, seed=17)
    traces = [flat_trace(1.2, "t0"), flat_trace(0.6, "t1")]
    tc = TrainConfig(lr=1e-3, episodes=episodes, batch_episodes=2, epochs=2)
    return train(net, traces, _mini_session_factory, tc, seed=4)


def test_train_marks_each_episodes_last_action_done(monkeypatch):
    """`train` hands `ppo_update` each sampled decision with its reward, and
    the last one of each episode is done, also when an action without a
    training record comes between or after them. An episode without one
    adds nothing."""
    logs = []

    def session(strategy, trace, key):
        m = _mini_session_factory(strategy, trace, key)
        policy, reward = m.actions.policy, m.actions.reward
        if key[1] == 3:
            policy[:] = [None] * len(policy)
        for at in (1, len(policy) + 1):
            policy.insert(at, None)
            reward.insert(at, 5.0)
        logs.append(m.actions)
        return m

    updates = []
    real_update = ppo.ppo_update

    def recording_update(net, optimizers, batch, rewards, dones, cfg):
        updates.append((list(batch), list(rewards), list(dones)))
        return real_update(net, optimizers, batch, rewards, dones, cfg)

    monkeypatch.setattr(ppo, "ppo_update", recording_update)
    net = MlpNet.create(PolicyConfig(k=3, hidden_sizes=(8,), include_watch_estimates=False), seed=17)
    tc = TrainConfig(lr=1e-3, episodes=4, batch_episodes=2, epochs=1)
    train(net, [flat_trace(1.2, "t0")], session, tc, seed=4)

    # One update after episode 2 and one after episode 4.
    assert len(updates) == 2
    for (batch, rewards, dones), episodes in zip(updates, (logs[:2], logs[2:])):
        want = []
        for actions in episodes:
            sampled = [(x, r) for x, r in zip(actions.policy, actions.reward) if x is not None]
            want += [(x, r, i == len(sampled) - 1) for i, (x, r) in enumerate(sampled)]
        assert len(batch) == len(want)
        assert all(x is w for x, (w, _, _) in zip(batch, want))
        assert rewards == [r for _, r, _ in want]
        assert dones == [d for _, _, d in want]
    assert dones[-1] and not any(logs[3].policy)


def test_train_zero_episodes_returns_untouched_net():
    cfg = PolicyConfig(k=2, hidden_sizes=(8,))
    net = MlpNet.create(cfg, seed=1)
    before = copy.deepcopy(net.actor.weights)
    out, logs = train(net, [], None, TrainConfig(episodes=0), seed=0)
    assert logs == []
    assert all(np.array_equal(a, b) for a, b in zip(before, out.actor.weights))


def test_train_requires_traces():
    net = MlpNet.create(PolicyConfig(k=2, hidden_sizes=(8,)), seed=1)
    with pytest.raises(ValueError):
        train(net, [], _mini_session_factory, TrainConfig(episodes=2), seed=0)


def test_train_runs_and_reproduces_bitwise():
    net1, logs1 = _mini_train()
    net2, logs2 = _mini_train()
    assert len(logs1) == 6
    assert logs1 == logs2
    for a, b in zip(net1.actor.parameters() + net1.critic.parameters(),
                    net2.actor.parameters() + net2.critic.parameters()):
        assert np.array_equal(a, b)
    # the update actually moved the weights
    fresh = MlpNet.create(net1.cfg, seed=17)
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(net1.actor.parameters(), fresh.actor.parameters())
    )


def test_write_learning_curve(tmp_path):
    logs = [
        EpisodeLog(0, 1.5, 0.25, 0.1, 3.0),
        EpisodeLog(1, 2.5, 0.0, 0.05, 4.5),
    ]
    path = tmp_path / "curve.csv"
    write_learning_curve(logs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,mean_reward,mean_rebuffer_s,waste_ratio,mean_range_s"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"
    assert float(lines[2].split(",")[1]) == 2.5


# --- old values from one stacked critic forward --------------------------------


@dataclass
class _ValuedExtras(PolicyExtras):
    value: float


class _RolloutCriticStrategy(LearnedRangeStrategy):
    """The training decision as it was when every rollout step also ran
    the critic and carried its value to the update."""

    def decide(self, playlist, q_mbps, rtt_ms, b_max_s, rng):
        dv = compute_demands(playlist, self.survival)
        idx = select_video(playlist, dv, b_max_s, min_headroom_s=self.cfg.range_min_s)
        if idx is None:
            return None
        features = build_state(playlist, idx, q_mbps, rtt_ms, self.cfg)
        mean, stddev, value = policy_forward(self.net, features)
        raw = float(rng.normal(mean, stddev))
        extras = _ValuedExtras(features, raw, gaussian_log_prob(raw, mean, stddev), value)
        return Decision(index=idx, duration_s=map_to_range(raw, self.cfg), extras=extras)


def _reference_update(net, optimizers, batch, rewards, dones, values, cfg):
    """ppo_update as it was when old values came from the rollouts."""
    features = np.stack([x.features for x in batch])
    raw = np.array([x.raw for x in batch], dtype=np.float64)
    old_log_probs = np.array([x.log_prob for x in batch], dtype=np.float64)
    old_values = np.array(values, dtype=np.float64)
    returns = discounted_returns(rewards, dones, cfg.discount)
    if cfg.use_gae:
        advantages = gae_advantages(rewards, old_values, dones, cfg.discount, cfg.gae_lambda)
    else:
        advantages = returns - old_values
    if cfg.normalize_advantages and len(batch) > 1:
        std = float(advantages.std())
        if std > 1e-12:
            advantages = (advantages - advantages.mean()) / std
    for _ in range(cfg.epochs):
        _, a_grads, _ = actor_loss_and_grads(
            net.actor, features, raw, old_log_probs, advantages, cfg.clip_eps, cfg.entropy_coef
        )
        optimizers.actor.step(a_grads)
        _, c_grads = critic_loss_and_grads(net.critic, features, returns)
        optimizers.critic.step(c_grads)


def _reference_train(net, traces, session_factory, train_cfg, seed):
    """ppo.train with the rollout-time critic values fed to the update."""
    optimizers = PpoOptimizers.create(net, train_cfg)
    strategy = _RolloutCriticStrategy("deload-train", net)
    picker = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x7261)))
    logs, pending, rewards, dones, values = [], [], [], [], []
    for ep in range(train_cfg.episodes):
        trace = traces[int(picker.integers(len(traces)))]
        metrics = session_factory(strategy, trace, (seed, ep))
        sampled = [(x, r) for x, r in zip(metrics.actions.policy, metrics.actions.reward) if x is not None]
        pending += [x for x, _ in sampled]
        rewards += [r for _, r in sampled]
        dones += [i == len(sampled) - 1 for i in range(len(sampled))]
        values += [x.value for x, _ in sampled]
        ranges = metrics.actions.duration_s
        logs.append(
            EpisodeLog(
                episode=ep,
                mean_reward=metrics.qoe,
                mean_rebuffer_s=metrics.total_rebuffer_s,
                waste_ratio=metrics.waste_ratio,
                mean_range_s=float(np.mean(ranges)) if ranges else 0.0,
            )
        )
        if (ep + 1) % train_cfg.batch_episodes == 0 and pending:
            assert len(values) == len(pending)
            _reference_update(net, optimizers, pending, rewards, dones, values, train_cfg)
            pending, rewards, dones, values = [], [], [], []
    if pending:
        _reference_update(net, optimizers, pending, rewards, dones, values, train_cfg)
    return net, logs


@pytest.mark.parametrize("use_gae", [False, True])
def test_train_policy_matches_rollout_critic_reference(monkeypatch, use_gae):
    """16 episodes in two updates give the same net, byte for byte, and the
    same learning curve as rollouts that evaluated the critic themselves."""
    from swipesim import harness

    traces = [flat_trace(0.8, "t0"), flat_trace(2.5, "t1"), flat_trace(6.0, "t2")]
    catalog = [VideoMeta(f"m{i}", 6.0 + 4.0 * i, (0.5, 1.5, 3.0)) for i in range(6)]
    retention = RetentionSource(params={m.video_id: WeibullParams(1.2, 6.0, 0.3) for m in catalog})
    args = (
        traces, catalog, retention, None,
        PolicyConfig(include_watch_estimates=False),
        TrainConfig(lr=1e-3, episodes=16, batch_episodes=8, use_gae=use_gae),
        SimConfig(videos_per_session=6, max_session_s=90.0),
        5,
    )
    net, logs = harness.train_policy(*args)
    with monkeypatch.context() as m:
        m.setattr(harness, "train", _reference_train)
        ref_net, ref_logs = harness.train_policy(*args)

    assert len(logs) == 16
    assert logs == ref_logs
    fresh = MlpNet.create(args[4], 5)
    assert not np.array_equal(net.critic.weights[0], fresh.critic.weights[0])
    for got, want in zip(net.actor.parameters() + net.critic.parameters(),
                         ref_net.actor.parameters() + ref_net.critic.parameters()):
        assert got.tobytes() == want.tobytes()
