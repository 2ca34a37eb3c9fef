"""Watch-time distribution estimation.

Three-parameter Weibull machinery (pdf, survival, quantile, sampling), a
least-squares fitter built on median-rank regression with a location search,
grouped fitting into a multi-dimensional parameter table, and the fusion rule
that combines per-video and per-user estimates with a duration-bucket
fallback.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .media import WatchRecord

DEFAULT_BUCKET_EDGES = (0.0, 15.0, 30.0, 60.0, 120.0, math.inf)


@dataclass(frozen=True)
class WeibullParams:
    """Three-parameter Weibull: shape beta, scale eta, location gamma.

    Density is zero at and below the location; shape 1 with location 0
    degenerates to the exponential distribution.
    """

    shape: float
    scale: float
    location: float = 0.0

    def __post_init__(self) -> None:
        # Coerce numpy scalars so repr-based writers stay portable.
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "location", float(self.location))
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not (self.location >= 0 and math.isfinite(self.location)):
            raise ValueError(f"location must be >= 0 and finite, got {self.location}")


def weibull_pdf(params: WeibullParams, t: float) -> float:
    """Density at `t`; zero for t at or below the location."""
    if t <= params.location:
        return 0.0
    x = (t - params.location) / params.scale
    return (params.shape / params.scale) * x ** (params.shape - 1.0) * math.exp(-(x**params.shape))


def weibull_survival(params: WeibullParams, t: float) -> float:
    """P(T > t); equals 1 for t at or below the location."""
    if t <= params.location:
        return 1.0
    x = (t - params.location) / params.scale
    return math.exp(-(x**params.shape))


def weibull_cdf(params: WeibullParams, t: float) -> float:
    return 1.0 - weibull_survival(params, t)


def weibull_quantile(params: WeibullParams, prob: float) -> float:
    """Inverse CDF: the watch time below which a fraction `prob` of views fall.

    Defined for prob in [0, 1); prob 0 maps to the location.
    """
    if not 0.0 <= prob < 1.0:
        raise ValueError(f"prob must be in [0, 1), got {prob}")
    if prob == 0.0:
        return params.location
    return params.location + params.scale * (-math.log1p(-prob)) ** (1.0 / params.shape)


def sample_weibull(params: WeibullParams, rng: np.random.Generator, size: int | None = None):
    """Draw from the distribution by inverse-CDF transform of uniforms."""
    u = rng.random(size)
    return params.location + params.scale * (-np.log1p(-u)) ** (1.0 / params.shape)


class FitError(ValueError):
    """Raised when a group of samples cannot support a Weibull fit.

    `reason` is one of "insufficient_samples", "degenerate_samples",
    "low_r2".
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the least-squares fitter and its acceptance thresholds.

    `bucket_edges` rise strictly from 0 to inf, so every positive duration
    falls in exactly one bucket.
    """

    n_min: int = 30
    min_r2: float = 0.6
    gamma_grid: int = 192
    bucket_edges: tuple[float, ...] = DEFAULT_BUCKET_EDGES

    def __post_init__(self):
        edges = self.bucket_edges
        rising = all(lo < hi for lo, hi in zip(edges, edges[1:]))
        if len(edges) < 2 or edges[0] != 0.0 or edges[-1] != math.inf or not rising:
            raise ValueError(f"bucket_edges must rise strictly from 0 to inf, got {edges}")


@dataclass(frozen=True)
class WeibullFit:
    """A fitted distribution plus the goodness-of-fit evidence behind it."""

    params: WeibullParams
    r_squared: float
    n_samples: int


def _regression_stats(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """OLS of y on x; returns (slope, intercept, r_squared)."""
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    dy = y - ym
    var_x = float(np.dot(dx, dx))
    if var_x <= 0.0:
        return 0.0, ym, 0.0
    cov = float(np.dot(dx, dy))
    var_y = float(np.dot(dy, dy))
    slope = cov / var_x
    intercept = ym - slope * xm
    r2 = 0.0 if var_y <= 0.0 else (cov * cov) / (var_x * var_y)
    return slope, intercept, r2


def _golden_section_max(f, lo: float, hi: float, iters: int = 64) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def fit_weibull_lse(
    samples: Iterable[float],
    censor_at: float | None = None,
    config: FitConfig = FitConfig(),
) -> WeibullFit:
    """Fit a three-parameter Weibull by median-rank least squares.

    Sorted samples get plotting positions F_i = (i - 0.3) / (n + 0.4). For a
    candidate location g, the model linearizes as

        ln(-ln(1 - F_i)) = shape * ln(t_i - g) - shape * ln(scale)

    and shape/scale fall out of an ordinary least-squares line. The location
    is found by an outer search (coarse grid, then golden-section refinement)
    over [0, min(samples)) maximizing R^2 of that line.

    `censor_at` caps samples at the given value; capped values stay in the
    regression as exact observations (a deliberate simplification for
    watched-to-end views). Non-positive samples are dropped before fitting.

    Raises FitError with reason "insufficient_samples", "degenerate_samples",
    or "low_r2".
    """
    t = np.asarray(list(samples), dtype=np.float64)
    if censor_at is not None:
        t = np.minimum(t, censor_at)
    t = np.sort(t[t > 0.0])
    n = int(t.size)
    if n < config.n_min:
        raise FitError("insufficient_samples", f"{n} < {config.n_min}")
    if t[-1] - t[0] <= 1e-12:
        raise FitError("degenerate_samples", "all samples equal")

    ranks = np.arange(1, n + 1, dtype=np.float64)
    f_med = (ranks - 0.3) / (n + 0.4)
    y = np.log(-np.log1p(-f_med))

    upper = t[0] * (1.0 - 1e-9)
    if upper <= 0.0:
        candidates = np.array([0.0])
    else:
        candidates = np.linspace(0.0, upper, config.gamma_grid)

    # Vectorized R^2 over the whole grid of candidate locations.
    x_grid = np.log(t[None, :] - candidates[:, None])
    xm = x_grid.mean(axis=1)
    dx = x_grid - xm[:, None]
    dy = y - y.mean()
    cov = dx @ dy
    var_x = np.einsum("ij,ij->i", dx, dx)
    var_y = float(np.dot(dy, dy))
    with np.errstate(divide="ignore", invalid="ignore"):
        r2_grid = np.where(var_x > 0.0, (cov * cov) / (var_x * var_y), 0.0)
    best = int(np.argmax(r2_grid))

    if candidates.size > 1:
        step = candidates[1] - candidates[0]
        lo = max(0.0, candidates[best] - step)
        hi = min(upper, candidates[best] + step)

        def r2_at(g: float) -> float:
            return _regression_stats(np.log(t - g), y)[2]

        gamma = _golden_section_max(r2_at, lo, hi)
        if r2_at(gamma) < r2_grid[best]:
            gamma = float(candidates[best])
    else:
        gamma = float(candidates[0])

    slope, intercept, r2 = _regression_stats(np.log(t - gamma), y)
    if slope <= 0.0 or not math.isfinite(slope):
        raise FitError("degenerate_samples", "non-positive shape estimate")
    if r2 < config.min_r2:
        raise FitError("low_r2", f"{r2:.4f} < {config.min_r2}")
    shape = slope
    scale = math.exp(-intercept / slope)
    return WeibullFit(WeibullParams(shape, scale, gamma), r_squared=r2, n_samples=n)


@dataclass(frozen=True)
class DimensionalEstimates:
    """Per-dimension parameter estimates feeding the fusion rule.

    The duration-bucket estimate must exist; video and user estimates are
    optional and missing when the table had no (or not enough) history for
    the key.
    """

    video_dim: WeibullParams | None
    user_dim: WeibullParams | None
    ladder_dim: WeibullParams


def fuse_params(est: DimensionalEstimates) -> WeibullParams:
    """Combine dimensions component-wise on (shape, scale, location).

    Both video and user present: average them. Exactly one present: take it.
    Neither: fall back to the duration-bucket estimate.
    """
    v, u = est.video_dim, est.user_dim
    if v is None and u is None:
        return est.ladder_dim
    if u is None:
        return v  # type: ignore[return-value]
    if v is None:
        return u
    return WeibullParams(
        shape=(v.shape + u.shape) / 2.0,
        scale=(v.scale + u.scale) / 2.0,
        location=(v.location + u.location) / 2.0,
    )


class LadderMissingError(RuntimeError):
    """No duration-bucket fit exists for a requested duration: the table
    cannot serve estimates for that video at all."""


def bucket_for(duration_s: float, edges: tuple[float, ...] = DEFAULT_BUCKET_EDGES) -> tuple[float, float]:
    """The [lo, hi) duration bucket containing `duration_s`."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    for lo, hi in zip(edges, edges[1:]):
        if lo <= duration_s < hi:
            return (lo, hi)
    return (edges[-2], edges[-1])


@dataclass
class ParamTable:
    """Fitted watch-time distributions keyed by video, user, and duration bucket."""

    video: dict[str, WeibullFit] = field(default_factory=dict)
    user: dict[str, WeibullFit] = field(default_factory=dict)
    ladder: dict[tuple[float, float], WeibullFit] = field(default_factory=dict)
    failures: dict[str, Counter] = field(default_factory=dict)
    bucket_edges: tuple[float, ...] = DEFAULT_BUCKET_EDGES

    def lookup(self, user_id: str | None, video_id: str, duration_s: float) -> DimensionalEstimates:
        bucket = bucket_for(duration_s, self.bucket_edges)
        ladder_fit = self.ladder.get(bucket)
        if ladder_fit is None:
            raise LadderMissingError(
                f"no duration-bucket fit for bucket {bucket} (duration {duration_s}s)"
            )
        video_fit = self.video.get(video_id)
        user_fit = self.user.get(user_id) if user_id is not None else None
        return DimensionalEstimates(
            video_dim=video_fit.params if video_fit else None,
            user_dim=user_fit.params if user_fit else None,
            ladder_dim=ladder_fit.params,
        )

    def fused(self, user_id: str | None, video_id: str, duration_s: float) -> WeibullParams:
        return fuse_params(self.lookup(user_id, video_id, duration_s))

    def save(self, path) -> None:
        """Write line-delimited records `dim,key,beta,eta,gamma,n_samples,r2`."""
        lines = []
        for vid in sorted(self.video):
            fit = self.video[vid]
            lines.append(_record_line("video", vid, fit))
        for uid in sorted(self.user):
            fit = self.user[uid]
            lines.append(_record_line("user", uid, fit))
        for bucket in sorted(self.ladder):
            fit = self.ladder[bucket]
            # 17 significant digits round-trip every float exactly and
            # still write default edges as `0-15` ... `120-inf`.
            key = f"{bucket[0]:.17g}-{bucket[1]:.17g}"
            lines.append(_record_line("ladder", key, fit))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path) -> "ParamTable":
        """Read a table written by `save`.

        The bucket edges are those of the file's `ladder` keys plus 0 and
        inf, so a table fitted with custom edges looks up the buckets it
        was fitted on. Buckets whose fit failed are absent from the file;
        adjacent ones merge into one span with no fit, so durations there
        still raise LadderMissingError.
        """
        table = cls()
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    parts = raw.split(",")
                    if len(parts) != 7:
                        raise ValueError(f"expected 7 fields, got {len(parts)}")
                    dim, key, beta, eta, gamma, n_samples, r2 = parts
                    fit = WeibullFit(
                        WeibullParams(float(beta), float(eta), float(gamma)),
                        r_squared=float(r2),
                        n_samples=int(n_samples),
                    )
                    if dim == "video":
                        table.video[key] = fit
                    elif dim == "user":
                        table.user[key] = fit
                    elif dim == "ladder":
                        lo, _, hi = key.partition("-")
                        table.ladder[(float(lo), float(hi))] = fit
                    else:
                        raise ValueError(f"unknown dimension {dim!r}")
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None
        table.bucket_edges = tuple(sorted({0.0, math.inf, *(e for key in table.ladder for e in key)}))
        return table


def _record_line(dim: str, key: str, fit: WeibullFit) -> str:
    p = fit.params
    return ",".join(
        [dim, key, repr(p.shape), repr(p.scale), repr(p.location), str(fit.n_samples), repr(fit.r_squared)]
    )


def build_param_table(
    records: Iterable[WatchRecord],
    config: FitConfig = FitConfig(),
) -> ParamTable:
    """Fit watch-time distributions grouped by video, user, and duration bucket.

    Groups that fail to fit are omitted (the fusion rule falls back across
    dimensions); failure reasons are tallied per dimension in
    `ParamTable.failures`.
    """
    by_video: dict[str, list[float]] = defaultdict(list)
    by_user: dict[str, list[float]] = defaultdict(list)
    by_bucket: dict[tuple[float, float], list[float]] = defaultdict(list)
    for rec in records:
        by_video[rec.video_id].append(rec.watch_time_s)
        by_user[rec.user_id].append(rec.watch_time_s)
        by_bucket[bucket_for(rec.duration_s, config.bucket_edges)].append(rec.watch_time_s)

    table = ParamTable(bucket_edges=config.bucket_edges)
    table.failures = {"video": Counter(), "user": Counter(), "ladder": Counter()}

    for vid, samples in by_video.items():
        try:
            table.video[vid] = fit_weibull_lse(samples, config=config)
        except FitError as err:
            table.failures["video"][err.reason] += 1
    for uid, samples in by_user.items():
        try:
            table.user[uid] = fit_weibull_lse(samples, config=config)
        except FitError as err:
            table.failures["user"][err.reason] += 1
    for bucket, samples in by_bucket.items():
        try:
            table.ladder[bucket] = fit_weibull_lse(samples, config=config)
        except FitError as err:
            table.failures["ladder"][err.reason] += 1
    return table
