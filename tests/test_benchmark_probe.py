"""The benchmark's tracer hooks names that swipesim's modules and classes
define. Installing it reads every one of them from its owner's `__dict__`,
so renaming or deleting one fails here, not only in `benchmark/tests`."""

from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_tracer_installs_and_uninstalls_on_every_name_it_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from swbench.probe import Probe

    probe = Probe(trace=True).install()
    try:
        saved = list(probe._saved)
        assert saved
        for owner, attr, orig in saved:
            assert owner.__dict__[attr] is not orig
    finally:
        probe.uninstall()
    # A name hooked twice gets back what it held before the first hook.
    originals = {}
    for owner, attr, orig in saved:
        originals.setdefault((owner, attr), orig)
    for (owner, attr), orig in originals.items():
        assert owner.__dict__[attr] is orig


def test_traced_run_counts_every_layer_its_strategies_run(pipeline, tmp_path, monkeypatch):
    """A traced run of the pipeline suite's `naive_1s`, `deload_1s` and
    `deload` records every span and count the benchmark's per-layer metrics
    read, in the sessions of each strategy that runs that layer. A hot path
    that stops calling a hooked name, say by inlining `compute_demands`
    into a strategy, zeroes a metric and fails here."""
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from swbench.layers import Spans
    from swbench.probe import Probe

    from swipesim.config import experiment_spec, load_config
    from swipesim.harness import run_experiment

    _, cfg, _ = pipeline
    spec = experiment_spec(load_config(cfg), jobs=1)
    assert set(spec.strategies) == {"naive_1s", "deload_1s", "deload"}
    with Probe(trace=True) as probe:
        probe.collect(run_experiment(spec, tmp_path / "run"))
    spans = Spans(probe)
    everywhere = ("naive_1s", "deload_1s", "deload")
    for name, strategies in (
        ("policy.decide", everywhere),
        ("media.swipe", everywhere),
        ("ppo.attribute_reward_terms", everywhere),
        ("demand.compute_demands", ("deload_1s", "deload")),
        ("demand.select_video", ("deload_1s", "deload")),
        ("policy.build_state", ("deload",)),
    ):
        by_strategy = spans.by_strategy(name)
        for strategy in strategies:
            assert by_strategy.get(strategy, 0.0) > 0.0, (name, strategy)
    assert probe.counts["watchtime.weibull_survival"] > 0


def test_traced_training_counts_every_decision_it_updates_on(monkeypatch):
    """`ppo.transitions` is the `len()` of `ppo_update`'s third argument.
    A traced `train_policy` run must count exactly the sampled decisions
    its sessions hand to updates, and record a span for every update, loss
    pass and Adam step. A change to `ppo_update`'s signature that moved
    the batch off that argument would miscount here."""
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from conftest import flat_trace
    from swbench.layers import Spans
    from swbench.probe import Probe

    from swipesim import harness
    from swipesim.media import VideoMeta
    from swipesim.policy import PolicyConfig
    from swipesim.ppo import TrainConfig
    from swipesim.sim import RetentionSource, SimConfig
    from swipesim.watchtime import WeibullParams

    sampled = []
    simulate_one = harness.simulate_one

    def counting_session(*args, **kwargs):
        m = simulate_one(*args, **kwargs)
        sampled.append(sum(x is not None for x in m.actions.policy))
        return m

    monkeypatch.setattr(harness, "simulate_one", counting_session)
    catalog = [VideoMeta(f"m{i}", 6.0 + 4.0 * i, (0.5, 1.5, 3.0)) for i in range(4)]
    retention = RetentionSource(params={m.video_id: WeibullParams(1.2, 6.0, 0.3) for m in catalog})
    train_cfg = TrainConfig(lr=1e-3, episodes=6, batch_episodes=4, epochs=2)
    with Probe(trace=True) as probe:
        harness.train_policy(
            [flat_trace(0.8, "t0"), flat_trace(3.0, "t1")], catalog, retention, None,
            PolicyConfig(k=3, hidden_sizes=(8,), include_watch_estimates=False), train_cfg,
            SimConfig(videos_per_session=4, max_session_s=60.0), seed=2,
        )
    assert len(sampled) == 6 and sum(sampled) > 0
    assert probe.counts["ppo.transitions"] == sum(sampled)
    spans = Spans(probe)
    updates = 2  # after episode 4, and the last two episodes at the end
    assert spans.calls("ppo.ppo_update") == updates
    assert spans.calls("ppo.actor_loss_and_grads") == updates * train_cfg.epochs
    assert spans.calls("ppo.critic_loss_and_grads") == updates * train_cfg.epochs
    assert spans.calls("ppo.adam_step") == 2 * updates * train_cfg.epochs
