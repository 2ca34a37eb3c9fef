"""Range-duration policy: state encoding, actor-critic nets, baselines.

The nets are small fully-connected float64 MLPs with hand-written forward
and backward passes, which keeps gradients exactly checkable against finite
differences and makes training bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .demand import (
    DemandVector,
    SurvivalFn,
    compute_demands,
    fitted_survival,
    select_video,
    uniform_survival,
)
from .media import EPS_S, VideoState
from .watchtime import WeibullParams, weibull_quantile

FIELDS_PER_VIDEO = 6
LOG_2PI = math.log(2.0 * math.pi)

STRATEGY_NAMES = ("deload", "deload_no_wte", "deload_1s", "deload_5s", "naive_1s")


@dataclass(frozen=True)
class PolicyConfig:
    """Constants for state encoding and the action range.

    `include_watch_estimates` is cleared for the estimation-free variant,
    which zeroes the high/low watch-time features.
    """

    k: int = 5
    e_high: float = 0.7
    e_low: float = 0.3
    range_min_s: float = 0.2
    range_max_s: float = 12.0
    duration_cap_s: float = 120.0
    throughput_cap_mbps: float = 100.0
    rtt_cap_ms: float = 1000.0
    hidden_sizes: tuple[int, ...] = (128, 64)
    include_watch_estimates: bool = True

    @property
    def state_dim(self) -> int:
        return FIELDS_PER_VIDEO * self.k + 3


@dataclass(frozen=True)
class PolicyState:
    """Flat normalized feature vector fed to the nets."""

    features: np.ndarray


@dataclass(frozen=True)
class ActionDistribution:
    """Gaussian over the raw action variable before range mapping."""

    mean: float
    stddev: float

    def __post_init__(self) -> None:
        if not self.stddev > 0:
            raise ValueError(f"stddev must be positive, got {self.stddev}")


@dataclass(frozen=True)
class RangeAction:
    """A sampled range duration plus what training needs to reuse it."""

    duration_s: float
    log_prob: float
    value_estimate: float
    raw: float  # pre-clamp Gaussian draw


@functools.lru_cache(maxsize=4096)
def _watch_features(params: WeibullParams, d: float, e_high: float, e_low: float) -> tuple[float, float]:
    """Clipped (h / d, l / d) of one video.

    A pure function of its inputs, memoized so each video's two quantiles
    are computed once rather than on every decision that sees it queued.
    """
    high = min(weibull_quantile(params, e_high), d)
    low = min(weibull_quantile(params, e_low), d)
    return min(max(high / d, 0.0), 1.0), min(max(low / d, 0.0), 1.0)


def build_state(
    playlist: Sequence[VideoState],
    selected: int,
    q_mbps: float,
    rtt_ms: float,
    cfg: PolicyConfig,
) -> PolicyState:
    """Encode the playlist and network estimates as a normalized vector.

    Per video (zero-padded past the playlist end):
      [bitrate / top rung, tau / d, d / duration cap, t / d, h / d, l / d]
    where h and l are the e_high / e_low watch-time quantiles clamped to the
    video duration. Tail: [q / throughput cap, rtt / rtt cap, selected / k].
    Every entry lands in [0, 1].
    """
    feats: list[float] = []
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
    return PolicyState(features=np.array(feats, dtype=np.float64))


class Mlp:
    """Fully-connected net, ReLU hidden layers, linear output.

    Weights are float64. `forward` returns the output plus the cache that
    `backward` consumes to produce exact parameter gradients.
    """

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator, out_scale: float = 1.0):
        self.sizes = tuple(int(s) for s in sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, (n_in, n_out) in enumerate(zip(self.sizes, self.sizes[1:])):
            std = math.sqrt(2.0 / n_in)
            w = rng.normal(0.0, std, size=(n_in, n_out))
            if i == len(self.sizes) - 2:
                w *= out_scale
            self.weights.append(w)
            self.biases.append(np.zeros(n_out, dtype=np.float64))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Run a batch (n, in_dim) through the net; returns (out, cache)."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim == 1:
            h = h[None, :]
        cache = [h]
        for i in range(self.n_layers):
            z = h @ self.weights[i] + self.biases[i]
            if i < self.n_layers - 1:
                h = np.maximum(z, 0.0)
            else:
                h = z
            cache.append(h)
        return h, cache

    def backward(self, cache: list[np.ndarray], dout: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Gradients of a scalar loss given d(loss)/d(output); list of (dW, db)."""
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * self.n_layers  # type: ignore[list-item]
        delta = np.asarray(dout, dtype=np.float64)
        for i in range(self.n_layers - 1, -1, -1):
            h_in = cache[i]
            if i < self.n_layers - 1:
                # ReLU mask of this layer's activation output.
                delta = delta * (cache[i + 1] > 0.0)
            dw = h_in.T @ delta
            db = delta.sum(axis=0)
            grads[i] = (dw, db)
            if i > 0:
                delta = delta @ self.weights[i].T
        return grads

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


@dataclass
class MlpNet:
    """Actor-critic pair sharing the state encoding.

    The actor's two output neurons parameterize the action distribution
    (tanh mean, softplus stddev); the critic emits one linear value.
    """

    actor: Mlp
    critic: Mlp
    cfg: PolicyConfig

    @classmethod
    def create(cls, cfg: PolicyConfig, seed: int) -> "MlpNet":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        actor = Mlp((cfg.state_dim, *cfg.hidden_sizes, 2), rng, out_scale=0.01)
        critic = Mlp((cfg.state_dim, *cfg.hidden_sizes, 1), rng, out_scale=1.0)
        return cls(actor=actor, critic=critic, cfg=cfg)


def softplus(z):
    return np.logaddexp(0.0, z)


def actor_distribution(net: MlpNet, state: PolicyState) -> ActionDistribution:
    """Evaluate the actor alone on one state; raises on non-finite outputs."""
    raw, _ = net.actor.forward(state.features)
    mean = math.tanh(float(raw[0, 0]))
    stddev = float(softplus(raw[0, 1]))
    if not (math.isfinite(mean) and math.isfinite(stddev)):
        raise FloatingPointError(f"non-finite policy output: mean={mean} stddev={stddev}")
    return ActionDistribution(mean=mean, stddev=stddev)


def policy_forward(net: MlpNet, state: PolicyState) -> tuple[ActionDistribution, float]:
    """Evaluate both nets on one state; raises on non-finite outputs."""
    dist = actor_distribution(net, state)
    value, _ = net.critic.forward(state.features)
    val = float(value[0, 0])
    if not math.isfinite(val):
        raise FloatingPointError(f"non-finite policy output: value={val}")
    return dist, val


def map_to_range(raw: float, cfg: PolicyConfig) -> float:
    """Affine map from the raw variable in [-1, 1] to [range_min, range_max]."""
    z = min(max(raw, -1.0), 1.0)
    return cfg.range_min_s + (z + 1.0) * 0.5 * (cfg.range_max_s - cfg.range_min_s)


def gaussian_log_prob(x: float, mean: float, stddev: float) -> float:
    z = (x - mean) / stddev
    return -0.5 * z * z - math.log(stddev) - 0.5 * LOG_2PI


def sample_action(
    dist: ActionDistribution,
    rng: np.random.Generator,
    cfg: PolicyConfig,
    value_estimate: float = 0.0,
) -> RangeAction:
    """Draw a raw Gaussian action and map it to a range duration.

    The log-probability is of the raw (pre-clamp) draw, so the density stays
    proper for training even when the mapping saturates.
    """
    raw = float(rng.normal(dist.mean, dist.stddev))
    return RangeAction(
        duration_s=map_to_range(raw, cfg),
        log_prob=gaussian_log_prob(raw, dist.mean, dist.stddev),
        value_estimate=value_estimate,
        raw=raw,
    )


# --- checkpoint serialization ------------------------------------------------

CHECKPOINT_MAGIC = "rangenet-v1"


def save_checkpoint(net: MlpNet, path) -> None:
    """Write a flat text record: version header, config line, then every
    layer as a shape line followed by row-major weight rows and a bias row.
    Floats round-trip exactly via repr."""
    cfg = net.cfg
    lines = [CHECKPOINT_MAGIC]
    lines.append(
        "config "
        + " ".join(
            repr(x)
            for x in (
                cfg.k,
                cfg.e_high,
                cfg.e_low,
                cfg.range_min_s,
                cfg.range_max_s,
                cfg.duration_cap_s,
                cfg.throughput_cap_mbps,
                cfg.rtt_cap_ms,
                int(cfg.include_watch_estimates),
            )
        )
        + " hidden "
        + " ".join(str(h) for h in cfg.hidden_sizes)
    )
    for name, mlp in (("actor", net.actor), ("critic", net.critic)):
        lines.append(f"net {name} layers {mlp.n_layers}")
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
            for row in w:
                lines.append(" ".join(repr(float(v)) for v in row))
            lines.append(" ".join(repr(float(v)) for v in b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> MlpNet:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    cfg_parts = lines[1].split()
    if cfg_parts[0] != "config" or "hidden" not in cfg_parts:
        raise ValueError(f"{path}: malformed config line")
    h_at = cfg_parts.index("hidden")
    vals = cfg_parts[1:h_at]
    hidden = tuple(int(x) for x in cfg_parts[h_at + 1 :])
    cfg = PolicyConfig(
        k=int(vals[0]),
        e_high=float(vals[1]),
        e_low=float(vals[2]),
        range_min_s=float(vals[3]),
        range_max_s=float(vals[4]),
        duration_cap_s=float(vals[5]),
        throughput_cap_mbps=float(vals[6]),
        rtt_cap_ms=float(vals[7]),
        include_watch_estimates=bool(int(vals[8])),
        hidden_sizes=hidden,
    )
    net = MlpNet.create(cfg, seed=0)
    idx = 2
    for name in ("actor", "critic"):
        head = lines[idx].split()
        if head[:2] != ["net", name]:
            raise ValueError(f"{path}: expected net {name} section at line {idx + 1}")
        n_layers = int(head[3])
        idx += 1
        mlp: Mlp = getattr(net, name)
        for li in range(n_layers):
            shape = lines[idx].split()
            n_in, n_out = int(shape[2]), int(shape[3])
            idx += 1
            rows = []
            for _ in range(n_in):
                rows.append([float(v) for v in lines[idx].split()])
                idx += 1
            mlp.weights[li] = np.array(rows, dtype=np.float64).reshape(n_in, n_out)
            mlp.biases[li] = np.array([float(v) for v in lines[idx].split()], dtype=np.float64)
            idx += 1
    return net


# --- strategies ---------------------------------------------------------------


@dataclass
class PolicyExtras:
    """Training payload attached to a sampled learned-policy decision.

    Deterministic (evaluation) decisions carry none: they run only the actor.
    """

    features: np.ndarray
    raw: float
    log_prob: float
    value: float


@dataclass
class Decision:
    """What a strategy wants next: which video and how many media seconds."""

    index: int
    duration_s: float
    demands: DemandVector | None = None
    extras: PolicyExtras | None = None


def naive_select(playlist: Sequence[VideoState], threshold_s: float) -> int | None:
    """First video, in playlist order, whose buffer-ahead is below the
    threshold and that still has something to download."""
    for i, v in enumerate(playlist):
        if v.buffer_ahead_s < threshold_s and v.remaining_download_s > EPS_S:
            return i
    return None


class Strategy:
    """Download decision maker: selection rule plus range sizing."""

    name: str = "strategy"

    def decide(
        self,
        playlist: Sequence[VideoState],
        q_mbps: float,
        rtt_ms: float,
        b_max_s: float,
        rng: np.random.Generator,
    ) -> Decision | None:
        raise NotImplementedError


MIN_ISSUE_S = 0.2


class FixedRangeStrategy(Strategy):
    """Demand-based selection with a constant range duration."""

    def __init__(self, name: str, duration_s: float, survival: SurvivalFn = fitted_survival):
        self.name = name
        self.duration_s = duration_s
        self.survival = survival

    def decide(self, playlist, q_mbps, rtt_ms, b_max_s, rng):
        dv = compute_demands(playlist, self.survival)
        idx = select_video(playlist, dv, b_max_s, min_headroom_s=MIN_ISSUE_S)
        if idx is None:
            return None
        return Decision(index=idx, duration_s=self.duration_s, demands=dv)


class NaiveFixedStrategy(Strategy):
    """Order-based selection (first under-buffered video), constant range."""

    def __init__(self, name: str, duration_s: float):
        self.name = name
        self.duration_s = duration_s

    def decide(self, playlist, q_mbps, rtt_ms, b_max_s, rng):
        idx = naive_select(playlist, b_max_s)
        if idx is None:
            return None
        return Decision(index=idx, duration_s=self.duration_s)


class LearnedRangeStrategy(Strategy):
    """Demand-based selection with the actor-critic range policy.

    With `use_watch_estimates` off the strategy runs the estimation-free
    variant: uniform watch-time survival for demands and zeroed high/low
    state features.
    """

    def __init__(self, name: str, net: MlpNet, deterministic: bool = False):
        self.name = name
        self.net = net
        self.cfg = net.cfg
        self.deterministic = deterministic
        self.survival: SurvivalFn = (
            fitted_survival if self.cfg.include_watch_estimates else uniform_survival
        )

    def decide(self, playlist, q_mbps, rtt_ms, b_max_s, rng):
        dv = compute_demands(playlist, self.survival)
        idx = select_video(playlist, dv, b_max_s, min_headroom_s=self.cfg.range_min_s)
        if idx is None:
            return None
        state = build_state(playlist, idx, q_mbps, rtt_ms, self.cfg)
        if self.deterministic:
            # Evaluation acts at the actor's mean; the critic's value and the
            # training payload would go unread.
            dist = actor_distribution(self.net, state)
            return Decision(index=idx, duration_s=map_to_range(dist.mean, self.cfg), demands=dv)
        dist, value = policy_forward(self.net, state)
        action = sample_action(dist, rng, self.cfg, value_estimate=value)
        extras = PolicyExtras(
            features=state.features,
            raw=action.raw,
            log_prob=action.log_prob,
            value=value,
        )
        return Decision(index=idx, duration_s=action.duration_s, demands=dv, extras=extras)


def baseline_policy(kind: str, net: MlpNet | None = None) -> Strategy:
    """Build a named strategy.

    Kinds: deload (learned policy, needs `net`), deload_no_wte (learned
    policy trained without watch-time estimation, needs `net` built with
    include_watch_estimates=False), deload_1s / deload_5s (demand selection,
    fixed 1 s / 5 s ranges), naive_1s (order-based selection, fixed 1 s).
    """
    if kind == "deload_1s":
        return FixedRangeStrategy(kind, 1.0)
    if kind == "deload_5s":
        return FixedRangeStrategy(kind, 5.0)
    if kind == "naive_1s":
        return NaiveFixedStrategy(kind, 1.0)
    if kind in ("deload", "deload_no_wte"):
        if net is None:
            raise ValueError(f"strategy {kind!r} needs a policy checkpoint")
        if kind == "deload_no_wte" and net.cfg.include_watch_estimates:
            raise ValueError("deload_no_wte needs a net built with include_watch_estimates=False")
        # Evaluation acts at the policy mean; sampling is for training only.
        return LearnedRangeStrategy(kind, net, deterministic=True)
    raise ValueError(f"unknown strategy kind {kind!r}; expected one of {STRATEGY_NAMES}")
