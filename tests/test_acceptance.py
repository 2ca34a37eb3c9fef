"""End-to-end acceptance suite.

Every check prints one `criterion N (<label>): PASS/FAIL` line with the
measured numbers before asserting, so a full run reads as a checklist.
Criteria 8-10 share one full-scale train-and-evaluate pass (a couple of
minutes on one core; well inside the 15-minute budget it asserts).
"""

import math
import time

import numpy as np
import pytest

from conftest import flat_trace, make_video, max_rel_grad_error, run_random_session
from swipesim.demand import compute_demands
from swipesim.harness import (
    ExperimentSpec,
    ingest_traces,
    load_catalog,
    load_retention,
    load_watch_records,
    range_medians_by_trace_tercile,
    run_experiment,
    train_policy,
)
from swipesim.policy import MlpNet, PolicyConfig, save_checkpoint
from swipesim.policy import gaussian_log_prob, policy_forward
from swipesim.ppo import TrainConfig, actor_loss_and_grads, compute_reward, critic_loss_and_grads
from swipesim.sim import SimConfig
from swipesim.synthetic import SyntheticSpec, write_suite
from swipesim.watchtime import (
    LadderMissingError,
    ParamTable,
    WeibullFit,
    WeibullParams,
    build_param_table,
    fit_weibull_lse,
    sample_weibull,
    weibull_cdf,
    weibull_quantile,
    weibull_survival,
)

E_INV = math.exp(-1.0)


def check(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status}  {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_fit_recovery():
    true = WeibullParams(shape=1.5, scale=8.0, location=1.0)
    samples = sample_weibull(true, np.random.default_rng(42), 5000)
    t0 = time.perf_counter()
    fit = fit_weibull_lse(samples)
    dt = time.perf_counter() - t0
    p = fit.params
    rel_shape = abs(p.shape - true.shape) / true.shape
    rel_scale = abs(p.scale - true.scale) / true.scale
    loc_err = abs(p.location - true.location)
    ok = rel_shape <= 0.05 and rel_scale <= 0.05 and loc_err <= 0.3 and dt < 1.0
    check(
        1, "fit recovery", ok,
        f"fitted ({p.shape:.4f}, {p.scale:.4f}, {p.location:.4f}) vs (1.5, 8, 1), "
        f"rel ({rel_shape:.4f}, {rel_scale:.4f}), loc err {loc_err:.4f}, {dt * 1e3:.0f} ms",
    )


def test_criterion_2_demands_match_monte_carlo():
    rng = np.random.default_rng(123)
    n = 100_000
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(50):
        videos = []
        for i in range(5):
            d = float(rng.uniform(5.0, 60.0))
            p = WeibullParams(
                float(rng.uniform(0.5, 2.5)),
                float(rng.uniform(1.0, 30.0)),
                float(rng.uniform(0.0, 2.0)),
            )
            v = make_video(f"v{i}", d, params=p)
            if i == 0:
                # keep the playhead where survival is float-resolvable, else
                # the conditional demand (and its sampled counterpart) is
                # pure underflow noise
                cap = weibull_quantile(p, 0.995)
                v.play_pos_s = float(min(rng.uniform(0.0, d / 2), cap))
                v.buffered_s = float(rng.uniform(v.play_pos_s, d))
            else:
                v.buffered_s = float(rng.uniform(0.0, d))
            videos.append(v)
        dv = compute_demands(videos)

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
            worst = max(worst, abs(freq - dv.demands[i]))
            through = through & ~over if i else ~over
    dt = time.perf_counter() - t0
    ok = worst <= 0.01 and dt < 60.0
    check(2, "demand equals event frequency", ok,
          f"worst |analytic - sampled| {worst:.4f} over 50 playlists at {n} draws, {dt:.1f}s")


def test_criterion_3_fusion_branches_bit_exact():
    """`ParamTable.fused`: the video's own fit, else its duration bucket's;
    a bucket with no fit raises even for a video that has one."""
    v = WeibullParams(2.0, 6.0, 1.0)
    g = WeibullParams(0.9, 3.0, 0.2)
    table = ParamTable()
    table.video["v"] = WeibullFit(v, r_squared=0.9, n_samples=100)
    table.ladder[(30.0, 60.0)] = WeibullFit(g, r_squared=0.9, n_samples=500)
    with pytest.raises(LadderMissingError):
        table.fused("v", 200.0)
    ok = table.fused("v", 45.0) == v and table.fused("unfitted", 45.0) == g
    check(3, "lookup branches", ok, "video fit, bucket fallback and unfitted bucket exact")


def test_criterion_4_closed_forms():
    exp = WeibullParams(1.0, 1.0, 0.0)
    shifted = WeibullParams(1.5, 8.0, 1.0)
    errs = [
        abs(weibull_survival(exp, 1.0) - E_INV),
        abs(weibull_survival(shifted, 9.0) - E_INV),
        abs(weibull_survival(shifted, 1.0) - 1.0),
        abs(weibull_cdf(exp, 1.0) - (1.0 - E_INV)),
        abs(weibull_quantile(exp, 1.0 - E_INV) - 1.0),
        abs(weibull_quantile(shifted, 0.0) - 1.0),
    ]
    for q in (0.1, 0.5, 0.9, 0.99):
        t = weibull_quantile(exp, q)
        errs.append(abs(weibull_survival(exp, t) - (1.0 - q)))
    worst = max(errs)
    check(4, "survival/quantile closed forms", worst <= 1e-12, f"worst abs err {worst:.2e}")


def test_criterion_5_conservation():
    worst = 0.0
    for i in range(200):
        m = run_random_session(i)
        rel = abs(m.downloaded_bits - m.watched_bits - m.wasted_bits) / max(1.0, m.downloaded_bits)
        worst = max(worst, rel)
    check(5, "downloaded = watched + wasted", worst <= 1e-9,
          f"worst relative residual {worst:.2e} over 200 randomized sessions")


def test_criterion_6_gradient_check():
    cfg = PolicyConfig(k=2, hidden_sizes=(8,))
    net = MlpNet.create(cfg, seed=5)
    rng = np.random.default_rng(11)
    n = 6
    feats = rng.random((n, cfg.state_dim))
    raw = rng.normal(0.0, 0.7, size=n)
    old_lp = np.empty(n)
    for i in range(n):
        mean, stddev, _ = policy_forward(net, feats[i])
        old_lp[i] = gaussian_log_prob(raw[i], mean, stddev)
    old_lp += rng.normal(0.0, 0.05, size=n)
    adv = rng.normal(0.0, 1.0, size=n)
    returns = rng.normal(0.0, 2.0, size=n)

    def actor_fn():
        loss, grads, _ = actor_loss_and_grads(net.actor, feats, raw, old_lp, adv, 0.2)
        return loss, grads

    def critic_fn():
        return critic_loss_and_grads(net.critic, feats, returns)

    worst_actor = max_rel_grad_error(net.actor, actor_fn)
    worst_critic = max_rel_grad_error(net.critic, critic_fn)
    ok = worst_actor <= 1e-4 and worst_critic <= 1e-4
    check(6, "analytic gradients", ok,
          f"max rel err vs central differences: actor {worst_actor:.2e}, critic {worst_critic:.2e}")


def test_criterion_7_reward_arithmetic():
    ok = (
        compute_reward(2.0, 2.0, 0.5e6, 0.0, 1.0) == 3.995
        and compute_reward(2.0, 2.0, 2.0e6, 0.0, 1.0) == 2.0 * 2.0 - 0.012
        and compute_reward(1.0, 1.0, 0.0, 1.0, 1.0) == 1.0 * 1.0 - 1.85 * 1.0 * 1.0
    )
    check(7, "reward arithmetic", ok, "waste clip and stall term exact on worked examples")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Full-scale suite: generate, fit, train, evaluate. Shared by 8-10."""
    t0 = time.monotonic()
    root = tmp_path_factory.mktemp("acceptance")
    write_suite(SyntheticSpec(), root, seed=0)
    traces = ingest_traces(str(root / "traces" / "*.csv"))
    catalog = load_catalog(root / "videos.csv")
    retention = load_retention(root / "retention_params.csv")
    table = build_param_table(load_watch_records(root / "watch_records.csv"))
    table_path = root / "param_table.csv"
    table.save(table_path)

    net, _ = train_policy(
        traces, catalog, retention, table,
        PolicyConfig(), TrainConfig(lr=3e-4, episodes=360, batch_episodes=8),
        SimConfig(), seed=0,
    )
    ckpt = root / "deload.ckpt"
    save_checkpoint(net, ckpt)

    spec = ExperimentSpec(
        strategies=("deload", "deload_1s", "naive_1s"),
        traces_glob=str(root / "traces" / "*.csv"),
        videos_path=str(root / "videos.csv"),
        retention_path=str(root / "retention_params.csv"),
        param_table_path=str(table_path),
        checkpoint_path=str(ckpt),
        seed=0,
        jobs=1,
    )
    run_a = root / "run_a"
    report = run_experiment(spec, run_a)
    elapsed = time.monotonic() - t0
    return report, spec, run_a, elapsed


def test_criterion_8_strategy_ordering(full_run):
    report, _, _, elapsed = full_run
    n_traces = len({r.trace_id for r in report.runs})
    deload = report.mean_qoe("deload")
    deload_1s = report.mean_qoe("deload_1s")
    naive = report.mean_qoe("naive_1s")
    ok = n_traces >= 200 and deload > deload_1s > naive and elapsed <= 900.0
    check(8, "strategy ordering", ok,
          f"mean QoE deload {deload:.2f} > deload_1s {deload_1s:.2f} > naive_1s {naive:.2f} "
          f"on {n_traces} traces; train+evaluate {elapsed:.0f}s of 900s")


def test_criterion_9_ranges_shrink_with_throughput(full_run):
    report, _, _, _ = full_run
    med = range_medians_by_trace_tercile(report, "deload")
    ok = med["low"] > med["high"]
    check(9, "range durations by throughput tercile", ok,
          f"median range low {med['low']:.2f}s, mid {med['mid']:.2f}s, high {med['high']:.2f}s")


def test_criterion_10_byte_identical_repeat(full_run):
    report, spec, run_a, _ = full_run
    run_b = run_a.parent / "run_b"
    run_experiment(spec, run_b)
    same = {
        name: (run_a / name).read_bytes() == (run_b / name).read_bytes()
        for name in ("report.csv", "actions.csv", "summary.json")
    }
    check(10, "repeat run byte-identical", all(same.values()),
          ", ".join(f"{k} {'==' if v else '!='}" for k, v in same.items()))
