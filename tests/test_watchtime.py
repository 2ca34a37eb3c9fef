import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from swipesim import watchtime
from swipesim.media import WatchRecord
from swipesim.watchtime import (
    DEFAULT_BUCKET_EDGES,
    FitConfig,
    FitError,
    LadderMissingError,
    ParamTable,
    WeibullFit,
    WeibullParams,
    bucket_for,
    build_param_table,
    fit_weibull_lse,
    sample_weibull,
    weibull_cdf,
    weibull_pdf,
    weibull_quantile,
    weibull_survival,
)

E_INV = math.exp(-1.0)

params_st = st.builds(
    WeibullParams,
    shape=st.floats(0.3, 5.0),
    scale=st.floats(0.1, 50.0),
    location=st.floats(0.0, 10.0),
)


# --- closed forms --------------------------------------------------------


def test_params_validate_and_coerce():
    p = WeibullParams(np.float64(1.5), np.float64(8.0), np.float64(1.0))
    assert type(p.shape) is float and type(p.scale) is float and type(p.location) is float
    for bad in [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, -0.1), (math.nan, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            WeibullParams(*bad)


def test_pdf_anchors():
    assert weibull_pdf(WeibullParams(1.0, 1.0, 0.0), 0.0) == 0.0
    assert abs(weibull_pdf(WeibullParams(1.0, 1.0, 0.0), 1.0) - E_INV) <= 1e-12
    # shifted/scaled: shape 2, scale 2, location 1 at t=3 -> x=1 -> (2/2)*1*e^-1
    assert abs(weibull_pdf(WeibullParams(2.0, 2.0, 1.0), 3.0) - E_INV) <= 1e-12


def test_survival_anchors():
    assert weibull_survival(WeibullParams(2.0, 3.0, 1.5), 1.5) == 1.0
    assert weibull_survival(WeibullParams(2.0, 3.0, 1.5), 0.0) == 1.0
    assert abs(weibull_survival(WeibullParams(1.0, 1.0, 0.0), 1.0) - E_INV) <= 1e-12
    assert abs(weibull_survival(WeibullParams(1.5, 8.0, 1.0), 9.0) - E_INV) <= 1e-12


def test_quantile_anchors_and_domain():
    p = WeibullParams(1.0, 1.0, 0.0)
    assert weibull_quantile(p, 0.0) == 0.0
    assert weibull_quantile(WeibullParams(2.0, 5.0, 3.0), 0.0) == 3.0
    assert abs(weibull_quantile(p, 1.0 - E_INV) - 1.0) <= 1e-12
    for bad in (-0.01, 1.0, 1.5):
        with pytest.raises(ValueError):
            weibull_quantile(p, bad)


@given(
    shape=st.floats(0.3, 5.0),
    scale=st.floats(0.1, 50.0),
    prob=st.floats(0.0, 0.999),
)
def test_quantile_inverts_survival_unshifted(shape, scale, prob):
    params = WeibullParams(shape, scale, 0.0)
    t = weibull_quantile(params, prob)
    assert weibull_survival(params, t) == pytest.approx(1.0 - prob, abs=1e-12)
    assert weibull_cdf(params, t) == pytest.approx(prob, abs=1e-12)


@given(params=params_st, prob=st.floats(0.01, 0.999))
def test_quantile_inverts_survival_shifted(params, prob):
    # location + offset cancels in float, so the shifted round trip is only
    # as tight as that subtraction's conditioning
    t = weibull_quantile(params, prob)
    assert weibull_survival(params, t) == pytest.approx(1.0 - prob, abs=1e-6)


@given(params=params_st, t=st.floats(0.0, 100.0))
def test_cdf_survival_complement(params, t):
    assert weibull_cdf(params, t) + weibull_survival(params, t) == pytest.approx(1.0)


def test_pdf_integrates_to_one():
    p = WeibullParams(1.7, 6.0, 2.0)
    total, err = integrate.quad(lambda t: weibull_pdf(p, t), p.location, np.inf)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_sampling_matches_distribution():
    p = WeibullParams(1.0, 5.0, 0.0)
    rng = np.random.default_rng(99)
    draws = sample_weibull(p, rng, 100_000)
    # exponential with mean 5; 3-sigma CLT band
    assert abs(draws.mean() - 5.0) < 3.0 * 5.0 / math.sqrt(100_000)
    rng2 = np.random.default_rng(99)
    assert np.array_equal(draws, sample_weibull(p, rng2, 100_000))


# --- fitting --------------------------------------------------------------


def test_fit_recovers_exact_plotting_positions():
    """Samples placed exactly at the median-rank quantiles linearize
    perfectly, so the fit must return the generating parameters."""
    n = 200
    truth = WeibullParams(1.2, 5.0, 0.0)
    f = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
    samples = [weibull_quantile(truth, float(q)) for q in f]
    fit = fit_weibull_lse(samples)
    assert fit.params.shape == pytest.approx(1.2, rel=1e-6)
    assert fit.params.scale == pytest.approx(5.0, rel=1e-6)
    assert fit.params.location == pytest.approx(0.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.n_samples == n


def test_fit_recovers_shifted_distribution():
    rng = np.random.default_rng(7)
    truth = WeibullParams(1.5, 8.0, 1.0)
    draws = sample_weibull(truth, rng, 5000)
    fit = fit_weibull_lse(draws)
    assert fit.params.shape == pytest.approx(1.5, rel=0.05)
    assert fit.params.scale == pytest.approx(8.0, rel=0.05)
    assert abs(fit.params.location - 1.0) <= 0.3


def test_fit_rejects_small_and_degenerate_groups():
    with pytest.raises(FitError) as err:
        fit_weibull_lse([1.0] * 10)
    assert err.value.reason == "insufficient_samples"
    with pytest.raises(FitError) as err:
        fit_weibull_lse([2.5] * 40)
    assert err.value.reason == "degenerate_samples"


def test_fit_drops_nonpositive_samples():
    rng = np.random.default_rng(5)
    draws = list(sample_weibull(WeibullParams(1.3, 4.0, 0.0), rng, 400))
    fit_clean = fit_weibull_lse(draws)
    fit_dirty = fit_weibull_lse(draws + [0.0, -1.0, 0.0])
    assert fit_dirty.params == fit_clean.params
    assert fit_dirty.n_samples == fit_clean.n_samples


def test_fit_rejects_infinite_samples_without_warnings():
    draws = list(sample_weibull(WeibullParams(1.3, 4.0, 0.0), np.random.default_rng(5), 400))
    with pytest.raises(FitError) as err:
        fit_weibull_lse(draws + [math.inf])
    assert err.value.reason == "degenerate_samples"
    # NaN, like a non-positive sample, is dropped.
    assert fit_weibull_lse(draws + [math.nan]) == fit_weibull_lse(draws)


# --- the location grid, scored a block of rows at a time --------------------
#
# `_whole_grid_fit` is the fitter as it was before blocking: it scores every
# candidate location in one (gamma_grid, n) pass and recomputes y's terms on
# each refinement call. The blocked fitter must match it bit for bit.


def _reference_stats(x, y):
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


def _whole_grid_r2(t, y, candidates):
    x_grid = np.log(t[None, :] - candidates[:, None])
    xm = x_grid.mean(axis=1)
    dx = x_grid - xm[:, None]
    dy = y - y.mean()
    cov = dx @ dy
    var_x = np.einsum("ij,ij->i", dx, dx)
    var_y = float(np.dot(dy, dy))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(var_x > 0.0, (cov * cov) / (var_x * var_y), 0.0)


def _grid_inputs(samples, gamma_grid):
    """(t, y, candidates) as `fit_weibull_lse` builds them."""
    t = np.sort(np.asarray(samples, dtype=np.float64))
    n = t.size
    y = np.log(-np.log1p(-((np.arange(1, n + 1, dtype=np.float64) - 0.3) / (n + 0.4))))
    upper = t[0] * (1.0 - 1e-9)
    return t, y, np.linspace(0.0, upper, gamma_grid)


def _whole_grid_fit(samples, config):
    t, y, candidates = _grid_inputs(samples, config.gamma_grid)
    r2_grid = _whole_grid_r2(t, y, candidates)
    best = int(np.argmax(r2_grid))
    upper = t[0] * (1.0 - 1e-9)
    if candidates.size > 1:
        step = candidates[1] - candidates[0]
        lo = max(0.0, candidates[best] - step)
        hi = min(upper, candidates[best] + step)

        def r2_at(g):
            return _reference_stats(np.log(t - g), y)[2]

        gamma = watchtime._golden_section_max(r2_at, lo, hi)
        if r2_at(gamma) < r2_grid[best]:
            gamma = float(candidates[best])
    else:
        gamma = float(candidates[0])
    slope, intercept, r2 = _reference_stats(np.log(t - gamma), y)
    return WeibullFit(WeibullParams(slope, math.exp(-intercept / slope), gamma), r_squared=r2, n_samples=t.size)


GRID_SIZES = (1, 2, 15, 16, 17, 33, 192, 193)


@pytest.fixture(scope="module", params=(30, 97, 5980), ids=lambda n: f"n{n}")
def grid_samples(request):
    return sample_weibull(WeibullParams(1.3, 9.0, 0.8), np.random.default_rng(request.param), request.param)


def test_grid_blocks_start_at_multiples_of_16_and_never_leave_one_row():
    assert watchtime._grid_blocks(1) == [(0, 1)]
    assert watchtime._grid_blocks(16) == [(0, 16)]
    assert watchtime._grid_blocks(17) == [(0, 17)]
    assert watchtime._grid_blocks(18) == [(0, 16), (16, 18)]
    assert watchtime._grid_blocks(193)[-2:] == [(160, 176), (176, 193)]
    for rows in range(1, 260):
        blocks = watchtime._grid_blocks(rows)
        assert [lo for lo, _ in blocks] == list(range(0, 16 * len(blocks), 16))
        assert blocks[-1][1] == rows and all(hi - lo > 1 for lo, hi in blocks if rows > 1)


@pytest.mark.parametrize("gamma_grid", GRID_SIZES)
def test_blocked_grid_scores_match_the_whole_grid_bit_for_bit(grid_samples, gamma_grid):
    t, y, candidates = _grid_inputs(grid_samples, gamma_grid)
    dy = y - y.mean()
    blocked = watchtime._score_grid(t, candidates, dy, float(np.dot(dy, dy)))
    whole = _whole_grid_r2(t, y, candidates)
    assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))


@pytest.mark.parametrize("gamma_grid", GRID_SIZES)
def test_blocked_fit_matches_the_whole_grid_fit(grid_samples, gamma_grid):
    config = FitConfig(n_min=2, min_r2=0.0, gamma_grid=gamma_grid)
    assert fit_weibull_lse(grid_samples, config) == _whole_grid_fit(grid_samples, config)


def test_fit_working_set_does_not_grow_with_the_grid():
    """One 50,000-sample fit at the default config: the whole grid held
    three (192, n) float64 matrices, about 150 MiB."""
    draws = sample_weibull(WeibullParams(1.3, 9.0, 0.8), np.random.default_rng(3), 50_000)
    tracemalloc.start()
    try:
        fit_weibull_lse(draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


# --- fusion ----------------------------------------------------------------


def test_fusion_all_four_branches():
    """Video fitted or not, times bucket fitted or not."""
    ladder = WeibullParams(1.0, 5.0, 0.5)
    video = WeibullParams(2.0, 6.0, 1.0)
    table = ParamTable()
    table.ladder[(30.0, 60.0)] = WeibullFit(ladder, r_squared=0.9, n_samples=500)
    table.video["v"] = WeibullFit(video, r_squared=0.9, n_samples=100)

    assert table.fused("v", 45.0) == video
    assert table.fused("other", 45.0) == ladder
    for vid in ("v", "other"):
        with pytest.raises(LadderMissingError):
            table.fused(vid, 200.0)


# --- buckets and the table ---------------------------------------------------


def test_bucket_edges():
    assert bucket_for(45.0) == (30.0, 60.0)
    assert bucket_for(0.5) == (0.0, 15.0)
    assert bucket_for(30.0) == (30.0, 60.0)
    assert bucket_for(500.0) == (120.0, math.inf)
    with pytest.raises(ValueError):
        bucket_for(0.0)


def _fit(shape, scale, location, n=100, r2=0.95):
    return WeibullFit(WeibullParams(shape, scale, location), r_squared=r2, n_samples=n)


def test_table_lookup_fallbacks():
    table = ParamTable()
    table.ladder[(30.0, 60.0)] = _fit(1.0, 10.0, 0.0)
    table.video["v1"] = _fit(2.0, 8.0, 1.0)

    assert table.fused("v1", 45.0) == WeibullParams(2.0, 8.0, 1.0)
    assert table.fused("unknown", 45.0) == WeibullParams(1.0, 10.0, 0.0)

    with pytest.raises(LadderMissingError):
        table.fused("v1", 200.0)


def test_table_save_load_round_trip(tmp_path):
    table = ParamTable()
    table.video["v1"] = _fit(1.2345678901234567, 8.000000000000002, 0.1)
    table.ladder[(0.0, 15.0)] = _fit(1.0, 5.0, 0.25)
    table.ladder[(120.0, math.inf)] = _fit(2.0, 40.0, 2.0)

    p1 = tmp_path / "table.csv"
    table.save(p1)
    loaded = ParamTable.load(p1)
    assert loaded.video == table.video
    assert loaded.ladder == table.ladder

    p2 = tmp_path / "again.csv"
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def _bucketed_records(durations, rng):
    """40 draws per duration, split over two videos."""
    truth = WeibullParams(1.3, 6.0, 0.5)
    return [
        WatchRecord(f"u{d}-{i}", f"v{d}-{i % 2}", d, float(t))
        for d in durations
        for i, t in enumerate(sample_weibull(truth, rng, 40))
    ]


def test_table_load_derives_custom_bucket_edges(tmp_path):
    edges = (0.0, 20.0, 45.0, math.inf)
    fitted = build_param_table(_bucketed_records((10.0, 30.0, 90.0), np.random.default_rng(5)),
                               FitConfig(bucket_edges=edges))
    fitted.save(tmp_path / "table.csv")
    loaded = ParamTable.load(tmp_path / "table.csv")
    assert loaded.bucket_edges == edges
    for duration in (5.0, 20.0, 30.0, 44.9, 45.0, 600.0):
        assert loaded.fused("v10.0-0", duration) == fitted.fused("v10.0-0", duration)


def test_table_load_keeps_default_bucket_edges(tmp_path):
    fitted = build_param_table(
        _bucketed_records((10.0, 20.0, 40.0, 90.0, 300.0), np.random.default_rng(6))
    )
    assert len(fitted.ladder) == 5
    fitted.save(tmp_path / "table.csv")
    loaded = ParamTable.load(tmp_path / "table.csv")
    assert loaded.bucket_edges == DEFAULT_BUCKET_EDGES
    assert (loaded.video, loaded.ladder) == (fitted.video, fitted.ladder)


def test_table_bucket_keys_round_trip_exactly(tmp_path):
    edges = (0.0, 12.3456789, math.inf)
    fitted = build_param_table(_bucketed_records((5.0, 30.0), np.random.default_rng(8)),
                               FitConfig(bucket_edges=edges))
    assert set(fitted.ladder) == {(0.0, 12.3456789), (12.3456789, math.inf)}
    fitted.save(tmp_path / "table.csv")
    loaded = ParamTable.load(tmp_path / "table.csv")
    assert loaded.bucket_edges == edges
    assert loaded.ladder == fitted.ladder


def test_table_default_bucket_keys_keep_their_short_form(tmp_path):
    fitted = build_param_table(
        _bucketed_records((10.0, 20.0, 40.0, 90.0, 300.0), np.random.default_rng(6))
    )
    fitted.save(tmp_path / "table.csv")
    keys = [line.split(",")[1] for line in (tmp_path / "table.csv").read_text().splitlines()
            if line.startswith("ladder,")]
    assert keys == ["0-15", "15-30", "30-60", "60-120", "120-inf"]


def test_table_load_unfitted_buckets_still_raise(tmp_path):
    # Only the 30-60 s bucket has enough samples; the shortest and longest fail.
    fitted = build_param_table(_bucketed_records((40.0,), np.random.default_rng(7)))
    fitted.save(tmp_path / "table.csv")
    loaded = ParamTable.load(tmp_path / "table.csv")
    assert loaded.fused("v", 40.0) == fitted.fused("v", 40.0)
    for duration in (10.0, 500.0):
        with pytest.raises(LadderMissingError):
            loaded.fused("v", duration)


def test_fit_config_rejects_bad_bucket_edges():
    for edges in ((0.0, 20.0), (5.0, 20.0, math.inf), (0.0, 30.0, 20.0, math.inf), (0.0,)):
        with pytest.raises(ValueError, match="bucket_edges"):
            FitConfig(bucket_edges=edges)


def test_table_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("video,v1,1.0,2.0\n")
    with pytest.raises(ValueError):
        ParamTable.load(p)
    p.write_text("weird,v1,1.0,2.0,0.0,30,0.9\n")
    with pytest.raises(ValueError):
        ParamTable.load(p)
    # a stale table with `user` rows must be re-fitted
    p.write_text("user,u0000,1.0,2.0,0.0,30,0.9\n")
    with pytest.raises(ValueError, match="bad.csv:1: unknown dimension 'user'"):
        ParamTable.load(p)


def test_build_table_groups_and_tallies_failures():
    rng = np.random.default_rng(12)
    truth = WeibullParams(1.4, 6.0, 0.5)
    records = []
    # one well-sampled video
    for i, t in enumerate(sample_weibull(truth, rng, 200)):
        records.append(WatchRecord(f"u{i % 40}", "hit", 45.0, float(t)))
    # a sparse video: too few samples to fit
    for t in sample_weibull(truth, rng, 3):
        records.append(WatchRecord("u0", "rare", 45.0, float(t)))

    table = build_param_table(records)
    assert "hit" in table.video
    assert "rare" not in table.video
    assert table.failures["video"]["insufficient_samples"] == 1
    assert (30.0, 60.0) in table.ladder
    fit = table.video["hit"]
    assert fit.params.shape == pytest.approx(1.4, rel=0.25)
