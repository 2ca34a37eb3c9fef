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
