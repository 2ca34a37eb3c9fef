import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from swipesim.media import WatchRecord
from swipesim.watchtime import (
    DEFAULT_BUCKET_EDGES,
    DimensionalEstimates,
    FitConfig,
    FitError,
    LadderMissingError,
    ParamTable,
    WeibullFit,
    WeibullParams,
    bucket_for,
    build_param_table,
    fit_weibull_lse,
    fuse_params,
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


def test_fit_censoring_caps_samples():
    rng = np.random.default_rng(3)
    draws = sample_weibull(WeibullParams(1.0, 5.0, 0.0), rng, 500)
    capped = np.minimum(draws, 6.0)
    a = fit_weibull_lse(draws, censor_at=6.0)
    b = fit_weibull_lse(capped)
    assert a.params == b.params


def test_fit_drops_nonpositive_samples():
    rng = np.random.default_rng(5)
    draws = list(sample_weibull(WeibullParams(1.3, 4.0, 0.0), rng, 400))
    fit_clean = fit_weibull_lse(draws)
    fit_dirty = fit_weibull_lse(draws + [0.0, -1.0, 0.0])
    assert fit_dirty.params == fit_clean.params
    assert fit_dirty.n_samples == fit_clean.n_samples


# --- fusion ----------------------------------------------------------------


def test_fusion_all_four_branches():
    ladder = WeibullParams(1.0, 5.0, 0.5)
    video = WeibullParams(2.0, 6.0, 1.0)
    user = WeibullParams(1.0, 4.0, 0.0)

    assert fuse_params(DimensionalEstimates(None, None, ladder)) == ladder
    assert fuse_params(DimensionalEstimates(video, None, ladder)) == video
    assert fuse_params(DimensionalEstimates(None, user, ladder)) == user
    both = fuse_params(DimensionalEstimates(video, user, ladder))
    assert both == WeibullParams(1.5, 5.0, 0.5)


@given(params=params_st.filter(lambda p: p.location > 0 or True))
def test_fusion_idempotent(params):
    ladder = WeibullParams(1.0, 1.0, 0.0)
    fused = fuse_params(DimensionalEstimates(params, params, ladder))
    assert fused.shape == pytest.approx(params.shape)
    assert fused.scale == pytest.approx(params.scale)
    assert fused.location == pytest.approx(params.location)


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

    est = table.lookup("nobody", "v1", 45.0)
    assert est.video_dim == WeibullParams(2.0, 8.0, 1.0)
    assert est.user_dim is None
    assert est.ladder_dim == WeibullParams(1.0, 10.0, 0.0)

    est = table.lookup(None, "unknown", 45.0)
    assert est.video_dim is None and est.user_dim is None

    with pytest.raises(LadderMissingError):
        table.lookup(None, "v1", 200.0)


def test_table_save_load_round_trip(tmp_path):
    table = ParamTable()
    table.video["v1"] = _fit(1.2345678901234567, 8.000000000000002, 0.1)
    table.user["u9"] = _fit(0.9, 3.5, 0.0, n=31, r2=0.61)
    table.ladder[(0.0, 15.0)] = _fit(1.0, 5.0, 0.25)
    table.ladder[(120.0, math.inf)] = _fit(2.0, 40.0, 2.0)

    p1 = tmp_path / "table.csv"
    table.save(p1)
    loaded = ParamTable.load(p1)
    assert loaded.video == table.video
    assert loaded.user == table.user
    assert loaded.ladder == table.ladder

    p2 = tmp_path / "again.csv"
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def _bucketed_records(durations, rng):
    """40 draws per duration, each from its own user and video."""
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
        assert loaded.fused("u", "v10.0-0", duration) == fitted.fused("u", "v10.0-0", duration)


def test_table_load_keeps_default_bucket_edges(tmp_path):
    fitted = build_param_table(
        _bucketed_records((10.0, 20.0, 40.0, 90.0, 300.0), np.random.default_rng(6))
    )
    assert len(fitted.ladder) == 5
    fitted.save(tmp_path / "table.csv")
    loaded = ParamTable.load(tmp_path / "table.csv")
    assert loaded.bucket_edges == DEFAULT_BUCKET_EDGES
    assert (loaded.video, loaded.user, loaded.ladder) == (fitted.video, fitted.user, fitted.ladder)


def test_table_load_unfitted_buckets_still_raise(tmp_path):
    # Only the 30-60 s bucket has enough samples; the shortest and longest fail.
    fitted = build_param_table(_bucketed_records((40.0,), np.random.default_rng(7)))
    fitted.save(tmp_path / "table.csv")
    loaded = ParamTable.load(tmp_path / "table.csv")
    assert loaded.fused("u", "v", 40.0) == fitted.fused("u", "v", 40.0)
    for duration in (10.0, 500.0):
        with pytest.raises(LadderMissingError):
            loaded.fused("u", "v", duration)


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


def test_build_table_groups_and_tallies_failures():
    rng = np.random.default_rng(12)
    truth = WeibullParams(1.4, 6.0, 0.5)
    records = []
    # one well-sampled video watched by many one-off users
    for i, t in enumerate(sample_weibull(truth, rng, 200)):
        records.append(WatchRecord(f"u{i % 40}", "hit", 45.0, float(t)))
    # a sparse video: too few samples to fit
    for t in sample_weibull(truth, rng, 3):
        records.append(WatchRecord("u0", "rare", 45.0, float(t)))

    table = build_param_table(records)
    assert "hit" in table.video
    assert "rare" not in table.video
    assert table.failures["video"]["insufficient_samples"] == 1
    # every user saw ~5 videos: far below n_min
    assert not table.user
    assert table.failures["user"]["insufficient_samples"] == 40
    assert (30.0, 60.0) in table.ladder
    fit = table.video["hit"]
    assert fit.params.shape == pytest.approx(1.4, rel=0.25)
