"""Policy-gradient training of the range policy.

Reward arithmetic, attribution of waste/stall terms to action windows,
discounted returns, and a clipped-surrogate PPO update with hand-written
gradients through the actor heads (tanh mean, softplus stddev) and both
MLPs. Two Adam optimizers, one per net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .media import BITS_PER_MEGABIT
from .policy import LearnedRangeStrategy, Mlp, MlpNet, PolicyExtras

if TYPE_CHECKING:
    from .media import Trace


@dataclass(frozen=True)
class RewardWeights:
    """Coefficients of the per-action reward.

    reward = a * b - alpha * min(w, waste_clip_bits)/1e6 - beta * bt * q

    with a the executed range duration (s), b the task bitrate (Mbps), w the
    wasted bits in the action's window, bt the stall seconds in the window,
    and q the throughput estimate (Mbps) at issue time. All bit terms enter
    in megabits.
    """

    alpha: float = 0.01
    stall_beta: float = 1.85
    waste_clip_bits: float = 1.2e6


def compute_reward(
    a_s: float,
    b_mbps: float,
    w_bits: float,
    bt_s: float,
    q_mbps: float,
    weights: RewardWeights = RewardWeights(),
) -> float:
    """Per-action reward; see RewardWeights for the formula and units."""
    w_clipped = min(w_bits, weights.waste_clip_bits)
    return a_s * b_mbps - weights.alpha * w_clipped / BITS_PER_MEGABIT - weights.stall_beta * bt_s * q_mbps


def attribute_reward_terms(
    events: Iterable[tuple[float, float, float | None]],
    window_start_s: float,
    window_end_s: float,
) -> tuple[float, float]:
    """Waste bits and stall seconds falling in [window_start, window_end).

    Each event is `(begin_s, end_s, wasted_bits)`: a swipe has its instant
    as both ends and attributes by that instant; a stall has `wasted_bits`
    None and splits across window boundaries proportionally by overlap.
    """
    w_bits = 0.0
    bt_s = 0.0
    for begin, end, wasted in events:
        if wasted is None:
            overlap = min(end, window_end_s) - max(begin, window_start_s)
            if overlap > 0:
                bt_s += overlap
        elif window_start_s <= begin < window_end_s:
            w_bits += wasted
    return w_bits, bt_s


@dataclass(frozen=True)
class TrainConfig:
    """PPO hyperparameters. Defaults follow the reference constants; desk
    runs override lr via config since 1e-6 learns too slowly at small scale."""

    lr: float = 1e-6
    clip_eps: float = 0.2
    epochs: int = 4
    discount: float = 0.99
    use_gae: bool = False
    gae_lambda: float = 0.95
    entropy_coef: float = 0.0
    normalize_advantages: bool = True
    episodes: int = 200
    batch_episodes: int = 8

    def __post_init__(self) -> None:
        for name, least in (("epochs", 1), ("episodes", 0), ("batch_episodes", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


def discounted_returns(rewards: Sequence[float], dones: Sequence[bool], discount: float) -> np.ndarray:
    """Discounted reward-to-go, resetting at episode boundaries."""
    out = np.zeros(len(rewards), dtype=np.float64)
    running = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        if dones[i]:
            running = 0.0
        running = rewards[i] + discount * running
        out[i] = running
    return out


def gae_advantages(
    rewards: Sequence[float],
    values: Sequence[float],
    dones: Sequence[bool],
    discount: float,
    lam: float,
) -> np.ndarray:
    """Generalized advantage estimation with terminal value 0 at dones."""
    n = len(rewards)
    adv = np.zeros(n, dtype=np.float64)
    running = 0.0
    for i in range(n - 1, -1, -1):
        next_value = 0.0 if dones[i] else (values[i + 1] if i + 1 < n else 0.0)
        non_terminal = 0.0 if dones[i] else 1.0
        delta = rewards[i] + discount * next_value - values[i]
        running = delta + discount * lam * non_terminal * running
        adv[i] = running
    return adv


class Adam:
    """Standard Adam over a fixed list of parameter arrays, updated in place."""

    def __init__(self, params: list[np.ndarray], lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _flatten_grads(per_layer: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for dw, db in per_layer:
        out.append(dw)
        out.append(db)
    return out


def actor_loss_and_grads(
    actor: Mlp,
    features: np.ndarray,
    raw_actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_eps: float,
    entropy_coef: float = 0.0,
) -> tuple[float, list[np.ndarray], dict]:
    """Clipped-surrogate loss and exact gradients for the actor.

    The actor's two raw outputs map through tanh (mean) and softplus
    (stddev); the surrogate gradient flows only through samples where the
    unclipped ratio term is active, which is exactly where min() selects it.
    """
    n = features.shape[0]
    out, cache = actor.forward(features)
    z_mean = out[:, 0]
    z_std = out[:, 1]
    mean = np.tanh(z_mean)
    std = np.logaddexp(0.0, z_std)
    if np.any(std <= 0.0):
        raise FloatingPointError("softplus stddev underflowed to zero")

    diff = raw_actions - mean
    log_probs = -0.5 * (diff / std) ** 2 - np.log(std) - 0.5 * math.log(2.0 * math.pi)
    ratio = np.exp(log_probs - old_log_probs)
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    surr_unclipped = ratio * advantages
    surr_clipped = clipped * advantages
    surrogate = np.minimum(surr_unclipped, surr_clipped)
    entropy = np.log(std) + 0.5 * (1.0 + math.log(2.0 * math.pi))
    loss = float(-surrogate.mean() - entropy_coef * entropy.mean())
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite actor loss")

    # d loss / d log_prob: active where the unclipped branch is the minimum.
    active = surr_unclipped <= surr_clipped
    dlogp = np.where(active, -advantages * ratio, 0.0) / n

    dmean = dlogp * diff / std**2
    dstd = dlogp * (diff**2 - std**2) / std**3
    dstd += -entropy_coef / (std * n)  # entropy bonus pulls stddev up

    dz = np.empty_like(out)
    dz[:, 0] = dmean * (1.0 - mean**2)
    dz[:, 1] = dstd * _sigmoid(z_std)
    grads = _flatten_grads(actor.backward(cache, dz))
    stats = {
        "ratio_mean": float(ratio.mean()),
        "clip_fraction": float(np.mean(~active)),
        "entropy": float(entropy.mean()),
    }
    return loss, grads, stats


def critic_loss_and_grads(
    critic: Mlp,
    features: np.ndarray,
    returns: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Mean squared error of the value head against discounted returns."""
    n = features.shape[0]
    out, cache = critic.forward(features)
    values = out[:, 0]
    err = values - returns
    loss = float(np.mean(err**2))
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite critic loss")
    dz = (2.0 * err / n)[:, None]
    grads = _flatten_grads(critic.backward(cache, dz))
    return loss, grads


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class PpoOptimizers:
    """Adam state for both nets, persisted across updates."""

    actor: Adam
    critic: Adam

    @classmethod
    def create(cls, net: MlpNet, cfg: TrainConfig) -> "PpoOptimizers":
        return cls(
            actor=Adam(net.actor.parameters(), lr=cfg.lr),
            critic=Adam(net.critic.parameters(), lr=cfg.lr),
        )


def ppo_update(
    net: MlpNet,
    optimizers: PpoOptimizers,
    batch: Sequence[PolicyExtras],
    rewards: Sequence[float],
    dones: Sequence[bool],
    cfg: TrainConfig,
) -> dict:
    """One PPO update over a batch of sampled decisions; mutates the nets.

    `rewards[i]` is the reward of `batch[i]`, and `dones[i]` marks the last
    decision of an episode.

    Before the first epoch, one stacked critic forward over the batch gives
    the old values: the weights the rollouts saw, since nothing changes
    them between updates. Row i of that forward equals a forward of state i
    alone, bit for bit. Advantages default to discounted returns minus those
    values, with GAE as a config option. A non-finite old value or loss
    raises FloatingPointError.
    """
    if not batch:
        return {"actor_loss": 0.0, "critic_loss": 0.0, "n": 0}
    features = np.stack([x.features for x in batch])
    raw = np.array([x.raw for x in batch], dtype=np.float64)
    old_log_probs = np.array([x.log_prob for x in batch], dtype=np.float64)
    values, _ = net.critic.forward(features[:, None, :])
    old_values = values[:, 0, 0]
    if not np.isfinite(old_values).all():
        raise FloatingPointError("non-finite critic value in the batch")

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
        a_loss, a_grads, a_stats = actor_loss_and_grads(
            net.actor, features, raw, old_log_probs, advantages, cfg.clip_eps, cfg.entropy_coef
        )
        optimizers.actor.step(a_grads)
        c_loss, c_grads = critic_loss_and_grads(net.critic, features, returns)
        optimizers.critic.step(c_grads)
    return {"n": len(batch), "actor_loss": a_loss, "critic_loss": c_loss, **a_stats}


@dataclass
class EpisodeLog:
    """Per-episode learning-curve row."""

    episode: int
    mean_reward: float
    mean_rebuffer_s: float
    waste_ratio: float
    mean_range_s: float


def train(
    net: MlpNet,
    traces: "Sequence[Trace]",
    session,
    train_cfg: TrainConfig,
    seed: int,
) -> tuple[MlpNet, list[EpisodeLog]]:
    """Roll out episodes and update the policy in place.

    `session(strategy, trace, (seed, episode))` must run one session with
    the given learned strategy and return its SessionMetrics. Traces are
    sampled uniformly per episode from a seeded stream, so the whole run
    (and its learning curve) is reproducible bit for bit. Zero episodes
    returns the net untouched.
    """
    if not traces and train_cfg.episodes > 0:
        raise ValueError("cannot train without traces")
    optimizers = PpoOptimizers.create(net, train_cfg)
    strategy = LearnedRangeStrategy("deload-train", net)
    picker = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x7261)))
    logs: list[EpisodeLog] = []
    # The sampled decisions since the last update, with their rewards and
    # whether each ends its episode.
    batch: list[PolicyExtras] = []
    rewards: list[float] = []
    dones: list[bool] = []
    for ep in range(train_cfg.episodes):
        trace = traces[int(picker.integers(len(traces)))]
        metrics = session(strategy, trace, (seed, ep))
        episode_start = len(batch)
        for extras, reward in zip(metrics.actions.policy, metrics.actions.reward):
            if extras is not None:
                batch.append(extras)
                rewards.append(reward)
                dones.append(False)
        if len(batch) > episode_start:
            dones[-1] = True
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
        if (ep + 1) % train_cfg.batch_episodes == 0 and batch:
            ppo_update(net, optimizers, batch, rewards, dones, train_cfg)
            batch, rewards, dones = [], [], []
    if batch:
        ppo_update(net, optimizers, batch, rewards, dones, train_cfg)
    return net, logs


def write_learning_curve(logs: Iterable[EpisodeLog], path) -> None:
    """CSV with one column per `EpisodeLog` field, in field order; each
    value is written as its `repr`."""
    names = [f.name for f in fields(EpisodeLog)]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in logs:
            fh.write(",".join(repr(getattr(row, name)) for name in names) + "\n")
