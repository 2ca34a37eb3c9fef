"""Range-duration policy: state encoding, actor-critic nets, baselines.

The nets are small fully-connected float64 MLPs with hand-written forward
and backward passes, which keeps gradients exactly checkable against finite
differences and makes training bit-reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import (
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
# numpy's NPY_LOGE2: what `np.logaddexp(0.0, 0.0)` returns.
LOG_2 = 0.693147180559945309417232121458176568

# Strategies that act through a trained net; see `baseline_policy`.
LEARNED_STRATEGIES = ("deload", "deload_no_wte")
# `deload_<seconds>s`: demand selection with a fixed range of a plain
# positive decimal number of seconds.
_FIXED_RANGE = re.compile(r"deload_([0-9]+(?:\.[0-9]+)?)s")


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

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")

    @property
    def state_dim(self) -> int:
        return FIELDS_PER_VIDEO * self.k + 3


def _watch_features(params: WeibullParams, d: float, e_high: float, e_low: float) -> tuple[float, float]:
    """Clipped (h / d, l / d) of one video: a pure function of its inputs.

    `build_state` keeps the result on the video, so each queued video's two
    quantiles are computed once rather than on every decision that sees it.
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
) -> np.ndarray:
    """Encode the playlist and network estimates as a normalized float64
    vector, the nets' input.

    Per video (zero-padded past the playlist end):
      [bitrate / top rung, tau / d, d / duration cap, t / d, h / d, l / d]
    where h and l are the e_high / e_low watch-time quantiles clamped to the
    video duration. Tail: [q / throughput cap, rtt / rtt cap, selected / k].
    Every entry lands in [0, 1].
    """
    # Each clip is written as the comparisons min(max(x, 0.0), 1.0) makes,
    # returning the same operand (x itself for NaN and -0.0).
    k = cfg.k
    wte = cfg.include_watch_estimates
    e_high, e_low = cfg.e_high, cfg.e_low
    feats: list[float] = []
    for v in playlist[:k]:
        meta = v.meta
        d = meta.duration_s
        params = v.watch_params
        if wte and params is not None:
            # The video's memo holds (params, e_high, e_low, high, low); a
            # new params object or quantile level recomputes it.
            memo = v.watch_features
            if memo is None or memo[0] is not params or memo[1] != e_high or memo[2] != e_low:
                memo = v.watch_features = (params, e_high, e_low, *_watch_features(params, d, e_high, e_low))
            high, low = memo[3], memo[4]
        else:
            high = low = 0.0
        rate = v.chosen_bitrate / meta.bitrate_ladder[-1]
        buf = v.buffered_s / d
        dur = d / cfg.duration_cap_s
        pos = v.play_pos_s / d
        feats += (
            0.0 if rate < 0.0 else 1.0 if rate > 1.0 else rate,
            0.0 if buf < 0.0 else 1.0 if buf > 1.0 else buf,
            0.0 if dur < 0.0 else 1.0 if dur > 1.0 else dur,
            0.0 if pos < 0.0 else 1.0 if pos > 1.0 else pos,
            high,
            low,
        )
    feats += [0.0] * (FIELDS_PER_VIDEO * k - len(feats))
    q = q_mbps / cfg.throughput_cap_mbps
    rtt = rtt_ms / cfg.rtt_cap_ms
    sel = selected / k
    feats += (
        0.0 if q < 0.0 else 1.0 if q > 1.0 else q,
        0.0 if rtt < 0.0 else 1.0 if rtt > 1.0 else rtt,
        0.0 if sel < 0.0 else 1.0 if sel > 1.0 else sel,
    )
    return np.array(feats, dtype=np.float64)


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

    @classmethod
    def from_layers(cls, weights: list[np.ndarray], biases: list[np.ndarray]) -> "Mlp":
        """A net holding the given layers, with no random draw."""
        mlp = cls.__new__(cls)
        mlp.sizes = (weights[0].shape[0], *(w.shape[1] for w in weights))
        mlp.weights, mlp.biases = list(weights), list(biases)
        return mlp

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Run a batch (n, in_dim) through the net; returns (out, cache).

        A single state (in_dim,) runs as vector products and comes back as
        a batch of one, its cache entries row views of those vectors. A
        stacked batch (n, 1, in_dim) runs one single-row product per row.
        Both take the same BLAS matrix-vector product as `(1, in_dim) @ W`,
        so row i matches a forward of that row alone bit for bit.
        """
        h = np.asarray(x, dtype=np.float64)
        vector = h.ndim == 1
        cache = [h[None, :] if vector else h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            # In place: the same IEEE operations as `max(h @ w + b, 0)`
            # without a batch-sized temporary per step. A vector's product
            # is `ndarray.dot`, the gemv of `np.dot` without its dispatch.
            h = h.dot(w) if vector else h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            cache.append(h[None, :] if vector else h)
        return cache[-1], cache

    def backward(self, cache: list[np.ndarray], dout: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Gradients of a scalar loss given d(loss)/d(output); list of (dW, db)."""
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * self.n_layers  # type: ignore[list-item]
        delta = np.asarray(dout, dtype=np.float64)
        for i in range(self.n_layers - 1, -1, -1):
            h_in = cache[i]
            if i < self.n_layers - 1:
                # ReLU mask of this layer's activation output. `delta` here
                # is always the product below, never the caller's `dout`.
                delta *= cache[i + 1] > 0.0
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

    @staticmethod
    def layer_sizes(cfg: PolicyConfig) -> dict[str, tuple[int, ...]]:
        """Layer widths of each net: two actor outputs, one critic output."""
        return {
            "actor": (cfg.state_dim, *cfg.hidden_sizes, 2),
            "critic": (cfg.state_dim, *cfg.hidden_sizes, 1),
        }

    @classmethod
    def create(cls, cfg: PolicyConfig, seed: int) -> "MlpNet":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        sizes = cls.layer_sizes(cfg)
        actor = Mlp(sizes["actor"], rng, out_scale=0.01)
        critic = Mlp(sizes["critic"], rng, out_scale=1.0)
        return cls(actor=actor, critic=critic, cfg=cfg)


def softplus(z: float) -> float:
    """log(1 + e^z) of a float, bit for bit `np.logaddexp(0.0, z)`.

    numpy computes it as `z + log1p(exp(-z))` above zero, `log1p(exp(z))`
    below, log(2) at zero and `0.0 - z` for NaN; these are the same libm
    calls on the same arguments, and `exp` only ever sees arguments <= 0.
    """
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    if z < 0.0:
        return math.log1p(math.exp(z))
    if z == 0.0:
        return LOG_2
    return 0.0 - z


def actor_distribution(net: MlpNet, features: np.ndarray) -> tuple[float, float]:
    """The actor's Gaussian over the raw action for one state: (mean, stddev).

    Runs the actor alone, as `Mlp.forward` of the vector would, without the
    cache a decision never reads: the same products, in-place bias adds and
    ReLUs, with the output layer's two bias adds made on Python floats,
    the same IEEE additions. Raises FloatingPointError on a non-finite
    output or a stddev that is not positive (softplus underflows to 0.0 far
    below zero).
    """
    actor = net.actor
    h = np.asarray(features, dtype=np.float64)
    for w, b in zip(actor.weights[:-1], actor.biases[:-1]):
        h = h.dot(w)
        h += b
        np.maximum(h, 0.0, out=h)
    z_mean, z_std = h.dot(actor.weights[-1]).tolist()
    b_mean, b_std = actor.biases[-1].tolist()
    mean = math.tanh(z_mean + b_mean)
    stddev = softplus(z_std + b_std)
    if not (math.isfinite(mean) and math.isfinite(stddev)):
        raise FloatingPointError(f"non-finite policy output: mean={mean} stddev={stddev}")
    if not stddev > 0.0:
        raise FloatingPointError(f"policy stddev must be positive, got {stddev}")
    return mean, stddev


def policy_forward(net: MlpNet, features: np.ndarray) -> tuple[float, float, float]:
    """Both nets on one state: (mean, stddev, value); raises on non-finite
    outputs."""
    mean, stddev = actor_distribution(net, features)
    value, _ = net.critic.forward(features)
    val = float(value[0, 0])
    if not math.isfinite(val):
        raise FloatingPointError(f"non-finite policy output: value={val}")
    return mean, stddev, val


def map_to_range(raw: float, cfg: PolicyConfig) -> float:
    """Affine map from the raw variable in [-1, 1] to [range_min, range_max]."""
    z = min(max(raw, -1.0), 1.0)
    return cfg.range_min_s + (z + 1.0) * 0.5 * (cfg.range_max_s - cfg.range_min_s)


def gaussian_log_prob(x: float, mean: float, stddev: float) -> float:
    z = (x - mean) / stddev
    return -0.5 * z * z - math.log(stddev) - 0.5 * LOG_2PI


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
    """Read a checkpoint written by `save_checkpoint`.

    A malformed record raises ValueError naming the file and line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    idx = 0
    try:
        if lines[0] != CHECKPOINT_MAGIC:
            raise ValueError(f"not a {CHECKPOINT_MAGIC} checkpoint")
        idx = 1
        cfg_parts = lines[1].split()
        if cfg_parts[0] != "config" or "hidden" not in cfg_parts:
            raise ValueError("malformed config line")
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
        nets = {}
        idx = 2
        for name, sizes in MlpNet.layer_sizes(cfg).items():
            head = lines[idx].split()
            n_layers = len(sizes) - 1
            if head[:2] != ["net", name] or int(head[3]) != n_layers:
                raise ValueError(f"expected net {name} with {n_layers} layers")
            weights, biases = [], []
            for li in range(n_layers):
                idx += 1
                n_in = int(lines[idx].split()[2])
                rows = []
                for _ in range(n_in):
                    idx += 1
                    rows.append(list(map(float, lines[idx].split())))
                idx += 1
                w = np.array(rows, dtype=np.float64)
                b = np.array(list(map(float, lines[idx].split())), dtype=np.float64)
                if w.shape != sizes[li : li + 2] or b.shape != sizes[li + 1 : li + 2]:
                    raise ValueError(f"{name} layer {li} does not match the config's sizes")
                weights.append(w)
                biases.append(b)
            nets[name] = Mlp.from_layers(weights, biases)
            idx += 1
    except (ValueError, IndexError) as err:
        raise ValueError(f"{path}:{idx + 1}: malformed checkpoint: {err}") from None
    return MlpNet(cfg=cfg, **nets)


# --- strategies ---------------------------------------------------------------


@dataclass(slots=True)
class PolicyExtras:
    """The training record of one sampled learned-policy decision: the
    state, the raw Gaussian draw and its log-probability.

    Deterministic (evaluation) decisions carry none. `ppo.train` batches
    these with a parallel reward and done per record; the critic's value is
    not part of it, since `ppo_update` computes it for the whole batch.
    """

    features: np.ndarray
    raw: float
    log_prob: float


@dataclass(slots=True)
class Decision:
    """What a strategy wants next: which video and how many media seconds."""

    index: int
    duration_s: float
    extras: PolicyExtras | None = None


def naive_select(playlist: Sequence[VideoState], threshold_s: float) -> int | None:
    """First video, in playlist order, whose buffer-ahead is below the
    threshold and that still has something to download."""
    for i, v in enumerate(playlist):
        buffered = v.buffered_s
        if buffered - v.play_pos_s < threshold_s and v.meta.duration_s - buffered > EPS_S:
            return i
    return None


class Strategy:
    """Download decision maker: selection rule plus range sizing.

    `decide` gets the playlist's videos as a plain list, index 0 playing.
    `survival` is the watch-time model behind the strategy's demands, None
    when it computes none; `fitted_survival` needs the parameter table.
    `floor_s` is the least room below B_max a video needs before the
    strategy issues a task for it: at a B_max at or below it the strategy
    never downloads.
    """

    name: str = "strategy"
    survival: SurvivalFn | None = None
    floor_s: float = 0.0

    def decide(
        self,
        videos: list[VideoState],
        q_mbps: float,
        rtt_ms: float,
        b_max_s: float,
        rng: np.random.Generator,
    ) -> Decision | None:
        raise NotImplementedError


class FixedRangeStrategy(Strategy):
    """Demand-based selection with a constant range duration."""

    floor_s = 0.2

    def __init__(self, name: str, duration_s: float, survival: SurvivalFn = fitted_survival):
        self.name = name
        self.duration_s = duration_s
        self.survival = survival

    def decide(self, videos, q_mbps, rtt_ms, b_max_s, rng):
        dv = compute_demands(videos, self.survival)
        idx = select_video(videos, dv, b_max_s, min_headroom_s=self.floor_s)
        if idx is None:
            return None
        return Decision(index=idx, duration_s=self.duration_s)


class NaiveFixedStrategy(Strategy):
    """Order-based selection (first under-buffered video), constant range."""

    def __init__(self, name: str, duration_s: float):
        self.name = name
        self.duration_s = duration_s

    def decide(self, videos, q_mbps, rtt_ms, b_max_s, rng):
        idx = naive_select(videos, b_max_s)
        if idx is None:
            return None
        return Decision(index=idx, duration_s=self.duration_s)


class LearnedRangeStrategy(Strategy):
    """Demand-based selection with the actor-critic range policy.

    Every decision runs the actor only. Evaluation (`deterministic`) acts
    at its mean; training samples an action and attaches the state, draw
    and log-probability for `ppo_update`, which computes the critic's old
    values for the whole batch before it changes any weight.

    With `use_watch_estimates` off the strategy runs the estimation-free
    variant: uniform watch-time survival for demands and zeroed high/low
    state features.
    """

    def __init__(self, name: str, net: MlpNet, deterministic: bool = False):
        self.name = name
        self.net = net
        self.cfg = net.cfg
        self.floor_s = net.cfg.range_min_s
        self.deterministic = deterministic
        self.survival: SurvivalFn = (
            fitted_survival if self.cfg.include_watch_estimates else uniform_survival
        )

    def decide(self, videos, q_mbps, rtt_ms, b_max_s, rng):
        dv = compute_demands(videos, self.survival)
        idx = select_video(videos, dv, b_max_s, min_headroom_s=self.floor_s)
        if idx is None:
            return None
        features = build_state(videos, idx, q_mbps, rtt_ms, self.cfg)
        mean, stddev = actor_distribution(self.net, features)
        if self.deterministic:
            return Decision(index=idx, duration_s=map_to_range(mean, self.cfg))
        # The log-probability is of the raw (pre-clamp) draw, so the density
        # stays proper for training even where the range mapping saturates.
        raw = float(rng.normal(mean, stddev))
        duration_s = map_to_range(raw, self.cfg)
        extras = PolicyExtras(features=features, raw=raw, log_prob=gaussian_log_prob(raw, mean, stddev))
        return Decision(index=idx, duration_s=duration_s, extras=extras)


def includes_watch_estimates(kind: str) -> bool:
    """Whether the learned strategy `kind` runs on watch-time estimates."""
    return kind == "deload"


def baseline_policy(kind: str, net: MlpNet | None = None) -> Strategy:
    """Build a named strategy; raises ValueError on an unknown name.

    Kinds: deload (learned policy, needs `net`), deload_no_wte (learned
    policy trained without watch-time estimation, needs a `net` built with
    include_watch_estimates=False), deload_<seconds>s (demand selection,
    fixed ranges of that many seconds, e.g. deload_0.5s or deload_5s) and
    naive_1s (order-based selection, fixed 1 s).
    """
    if kind == "naive_1s":
        return NaiveFixedStrategy(kind, 1.0)
    if kind in LEARNED_STRATEGIES:
        if net is None:
            raise ValueError(f"strategy {kind!r} needs a policy checkpoint")
        wte = includes_watch_estimates(kind)
        if net.cfg.include_watch_estimates != wte:
            trained = "with" if wte else "without"
            raise ValueError(f"strategy {kind!r} needs a net trained {trained} watch-time estimation")
        # Evaluation acts at the policy mean; sampling is for training only.
        return LearnedRangeStrategy(kind, net, deterministic=True)
    fixed = _FIXED_RANGE.fullmatch(kind)
    if fixed and float(fixed[1]) > 0.0:
        return FixedRangeStrategy(kind, float(fixed[1]))
    raise ValueError(
        f"unknown strategy kind {kind!r}; expected naive_1s, deload_<seconds>s "
        f"or one of {LEARNED_STRATEGIES}"
    )
