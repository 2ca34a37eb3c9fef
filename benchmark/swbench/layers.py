"""Per-layer metrics from a probe's spans and counts.

A span's self time is its duration minus the durations of its direct
children recorded in the same process. Pool workers run sessions in
parallel with the parent, so their spans never subtract from a parent-side
span. A module's self time is the sum over the spans named after it.
"""

from __future__ import annotations

import numpy as np

from .probe import Probe

# name -> unit of every per-layer metric, in the order the traced run prints
# them. Each is measured on every workload; a count can be 0 where its layer
# does not run.
PER_LAYER_UNITS = {
    "sim.run_session_s": "s",
    "sim.self_s": "s",
    "sim.steps": "count",
    "sim.decide_calls": "count",
    "sim.sleeps": "count",
    "sim.actions": "count",
    "ppo.attribute_calls": "count",
    "ppo.attribute_s": "s",
    "ppo.attribute_events_scanned": "count",
    "ppo.updates": "count",
    "ppo.transitions": "count",
    "ppo.self_s": "s",
    "policy.decide_s": "s",
    "policy.decide_us_p50": "us",
    "policy.forward_calls": "count",
    "policy.self_s": "s",
    "demand.compute_calls": "count",
    "demand.compute_s": "s",
    "demand.select_s": "s",
    "demand.self_s": "s",
    "watchtime.quantile_calls": "count",
    "watchtime.survival_calls": "count",
    "watchtime.fused_s": "s",
    "watchtime.fit_s": "s",
    "watchtime.self_s": "s",
    "media.bandwidth_at_calls": "count",
    "media.swipe_calls": "count",
    "media.swipe_s": "s",
    "media.advance_playback_calls": "count",
    "media.self_s": "s",
    "harness.ingest_s": "s",
    "harness.pool_busy_frac": "ratio",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# Busy times of layers that only some workloads run: training (train),
# the policy net (eval-learned, train, eval-all-j2), checkpoint loads and
# report writes (eval-*), report reads (eval-all-j2). A time that is 0 on
# every run of a workload is no measurement, so these are printed and kept
# in the result's info, not in the metrics object.
WORKLOAD_LAYER_UNITS = {
    "ppo.rollout_s": "s",
    "ppo.update_s": "s",
    "ppo.actor_grad_s": "s",
    "ppo.critic_grad_s": "s",
    "ppo.adam_s": "s",
    "policy.build_state_s": "s",
    "policy.forward_s": "s",
    "harness.checkpoint_load_s": "s",
    "harness.write_report_s": "s",
    "harness.load_report_s": "s",
    "harness.emit_plots_s": "s",
}

MODULES = ("sim", "ppo", "policy", "demand", "watchtime", "media", "harness")


class Spans:
    """Column view of a probe's spans with per-span self time."""

    def __init__(self, probe: Probe):
        self.names = probe.names
        self.session_keys = probe.session_keys
        self.name = np.array(probe.span_name, dtype=np.int64)
        self.parent = np.array(probe.span_parent, dtype=np.int64)
        self.session = np.array(probe.span_session, dtype=np.int64)
        pid = np.array(probe.span_pid, dtype=np.int64)
        self.dur = np.array(probe.span_end) - np.array(probe.span_start)
        has_parent = self.parent >= 0
        local = np.zeros(len(self.dur), dtype=bool)
        local[has_parent] = pid[self.parent[has_parent]] == pid[has_parent]
        child = np.bincount(self.parent[local], weights=self.dur[local], minlength=len(self.dur))
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def module_self(self, module: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == module]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def under(self, name: str, parent_name: str) -> float:
        """Total duration of `name` spans whose direct parent is `parent_name`."""
        m = self.mask(name) & (self.parent >= 0)
        pm = self.mask(parent_name)
        m[m] = pm[self.parent[m]]
        return float(self.dur[m].sum())

    def by_strategy(self, name: str) -> dict[str, float]:
        out: dict[str, float] = {}
        m = self.mask(name)
        for sid, d in zip(self.session[m], self.dur[m]):
            strategy = self.session_keys[sid][0] if sid >= 0 else "-"
            out[strategy] = out.get(strategy, 0.0) + float(d)
        return out


def per_layer(probe: Probe, jobs: int, loop_s: float, fit_s: float, overhead_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric, as name -> value."""
    sp = Spans(probe)
    c = probe.counts
    decide = sp.dur[sp.mask("policy.decide")]
    session_s = sum(t1 - t0 for t0, t1, _ in probe.sessions)
    out = {
        "sim.run_session_s": sp.total("sim.run_session"),
        "sim.steps": c["sim.steps"],
        "sim.decide_calls": sp.calls("policy.decide"),
        "sim.sleeps": c["sim.sleeps"],
        "sim.actions": c["sim.actions"],
        "ppo.attribute_calls": sp.calls("ppo.attribute_reward_terms"),
        "ppo.attribute_s": sp.total("ppo.attribute_reward_terms"),
        "ppo.attribute_events_scanned": c["ppo.attribute_events_scanned"],
        "ppo.rollout_s": sp.under("sim.run_session", "ppo.train"),
        "ppo.update_s": sp.total("ppo.ppo_update"),
        "ppo.updates": sp.calls("ppo.ppo_update"),
        "ppo.transitions": c["ppo.transitions"],
        "ppo.actor_grad_s": sp.total("ppo.actor_loss_and_grads"),
        "ppo.critic_grad_s": sp.total("ppo.critic_loss_and_grads"),
        "ppo.adam_s": sp.total("ppo.adam_step"),
        "policy.decide_s": float(decide.sum()),
        "policy.decide_us_p50": float(np.median(decide)) * 1e6 if decide.size else 0.0,
        "policy.build_state_s": sp.total("policy.build_state"),
        "policy.forward_s": sp.total("policy.policy_forward"),
        "policy.forward_calls": sp.calls("policy.policy_forward"),
        "demand.compute_calls": sp.calls("demand.compute_demands"),
        "demand.compute_s": sp.total("demand.compute_demands"),
        "demand.select_s": sp.total("demand.select_video"),
        "watchtime.quantile_calls": c["watchtime.weibull_quantile"],
        "watchtime.survival_calls": c["watchtime.weibull_survival"],
        "watchtime.fused_s": sp.total("watchtime.fused"),
        "watchtime.fit_s": fit_s,
        "media.bandwidth_at_calls": c["media.bandwidth_at"],
        "media.swipe_calls": sp.calls("media.swipe"),
        "media.swipe_s": sp.total("media.swipe"),
        "media.advance_playback_calls": c["media.advance_playback"],
        "harness.ingest_s": sp.total("harness.ingest_traces"),
        "harness.checkpoint_load_s": sp.total("harness.checkpoint_load"),
        "harness.write_report_s": sp.total("harness.write_report"),
        "harness.load_report_s": sp.total("harness.load_report"),
        "harness.emit_plots_s": sp.total("harness.emit_plots_data"),
        "harness.pool_busy_frac": session_s / (jobs * loop_s),
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": overhead_s / untraced_wall_s,
    }
    for module in MODULES:
        out[f"{module}.self_s"] = sp.module_self(module)
    return out


def decide_by_strategy(probe: Probe) -> dict[str, float]:
    """`policy.decide_s` split by the strategy whose session made the call."""
    return Spans(probe).by_strategy("policy.decide")


def write_spans(probe: Probe, path) -> None:
    """Dump every span, for inspection after the run."""
    np.savez_compressed(
        path,
        names=np.array(probe.names),
        session_keys=np.array(probe.session_keys or [("", "")]),
        name=np.array(probe.span_name, dtype=np.int32),
        start=np.array(probe.span_start),
        end=np.array(probe.span_end),
        parent=np.array(probe.span_parent, dtype=np.int32),
        session=np.array(probe.span_session, dtype=np.int32),
        pid=np.array(probe.span_pid, dtype=np.int32),
    )
