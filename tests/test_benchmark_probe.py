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
