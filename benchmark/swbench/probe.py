"""Timing hooks and span tracing around swipesim's public functions.

Nothing under ``src/`` is instrumented. Every hook replaces a name where
the program looks it up -- a module global bound by a ``from`` import, or a
method on its class -- and ``uninstall`` puts the original back.

Two levels:

* timing hooks, always on: one ``(start, end, conserved)`` entry per
  ``run_session`` call, plus marks for the end of an experiment's set-up
  and the start and end of its report writing;
* tracing, on request: a span per call into each layer's public functions
  (name, start, end, parent, session) and exact call counts for the leaf
  functions that run once per engine step or per playlist entry.

Sessions run in forked pool workers when ``jobs > 1``. Workers skip
``atexit``, so the hooked ``_worker`` ships what a task recorded back to the
parent on the ``RunRecord`` it returns; ``collect`` merges it and strips it.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from collections import Counter

from swipesim import demand, harness, media, policy, ppo, sim, watchtime

perf = time.perf_counter

SHIP_ATTR = "_bench_probe"

# The hooked ``_worker`` is pickled by reference into pool workers, so it
# must be a module-level function; it finds the recorder here.
_ACTIVE: "Probe | None" = None


def conserved(downloaded: float, watched: float, wasted: float) -> bool:
    """Every downloaded bit is watched or wasted, to a relative 1e-9."""
    return math.isclose(downloaded, watched + wasted, rel_tol=1e-9, abs_tol=1e-6)


class Probe:
    """Per-process recorder of session timings, marks, spans and counts."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.owner_pid = os.getpid()
        self.sessions: list[tuple[float, float, bool]] = []
        self.marks: dict[str, float] = {}
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_session = array("i")
        self.span_pid = array("i")
        self.session_keys: list[tuple[str, str]] = []
        self._session_ids: dict[tuple[str, str], int] = {}
        self._current_session = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_session.append(self._current_session)
        self.span_pid.append(os.getpid())
        self.span_end.append(math.nan)
        self._stack.append(idx)
        self.span_start.append(perf())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf()
        self._stack.pop()

    def spanned(self, name: str, fn):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def marked(self, name: str, fn):
        """Record when `fn` starts and ends as marks `<name>.start/.end`."""
        marks = self.marks

        def wrapper(*args, **kwargs):
            marks[name + ".start"] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                marks[name + ".end"] = perf()

        return wrapper

    # -- hooks with their own bookkeeping --------------------------------------

    def _run_session_hook(self, fn):
        nid = self.name_id("sim.run_session")

        def run_session(trace, playlist_source, retention, strategy, config, *args, **kwargs):
            key = (strategy.name, trace.trace_id)
            outer = self._current_session
            if self.trace:
                if key not in self._session_ids:
                    self._session_ids[key] = len(self.session_keys)
                    self.session_keys.append(key)
                self._current_session = self._session_ids[key]
                idx = self._open(nid)
            t0 = perf()
            try:
                m = fn(trace, playlist_source, retention, strategy, config, *args, **kwargs)
            finally:
                t1 = perf()
                if self.trace:
                    self._close(idx)
                    self._current_session = outer
            self.sessions.append((t0, t1, conserved(m.downloaded_bits, m.watched_bits, m.wasted_bits)))
            if self.trace:
                self.counts["sim.actions"] += len(m.actions)
                self.counts["sim.steps"] += round(m.wall_time_s / (config.step_ms / 1000.0))
            return m

        return run_session

    def _decide_hook(self, fn):
        wrapped = self.spanned("policy.decide", fn)
        counts = self.counts

        def decide(*args, **kwargs):
            out = wrapped(*args, **kwargs)
            if out is None:
                counts["sim.sleeps"] += 1
            return out

        return decide

    def _attribute_hook(self, fn):
        wrapped = self.spanned("ppo.attribute_reward_terms", fn)
        counts = self.counts

        def attribute_reward_terms(events, *args, **kwargs):
            counts["ppo.attribute_events_scanned"] += len(events)
            return wrapped(events, *args, **kwargs)

        return attribute_reward_terms

    def _ppo_update_hook(self, fn):
        wrapped = self.spanned("ppo.ppo_update", fn)
        counts = self.counts

        def ppo_update(net, optimizers, batch, *args, **kwargs):
            counts["ppo.transitions"] += len(batch)
            return wrapped(net, optimizers, batch, *args, **kwargs)

        return ppo_update

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Probe":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a probe is already installed")
        _ACTIVE = self
        self._orig_worker = harness._worker
        self._patch(harness, "run_session", self._run_session_hook(harness.run_session))
        self._patch(harness, "_worker", worker)
        self._patch(harness, "build_strategies", self.marked("build_strategies", harness.build_strategies))
        self._patch(harness, "write_report", self.marked("write_report", harness.write_report))
        if self.trace:
            self._install_tracing()
        return self

    def _install_tracing(self) -> None:
        s = self.spanned
        c = self.counted
        for owner, attr, name in (
            (harness, "run_experiment", "harness.run_experiment"),
            (harness, "ingest_traces", "harness.ingest_traces"),
            (harness, "load_checkpoint", "harness.checkpoint_load"),
            (harness, "write_report", "harness.write_report"),
            (harness, "load_report", "harness.load_report"),
            (harness, "emit_plots_data", "harness.emit_plots_data"),
            (harness, "train_policy", "harness.train_policy"),
            (harness, "train", "ppo.train"),
            (sim, "swipe", "media.swipe"),
            (policy, "build_state", "policy.build_state"),
            (policy, "policy_forward", "policy.policy_forward"),
            (policy, "compute_demands", "demand.compute_demands"),
            (policy, "select_video", "demand.select_video"),
            (ppo, "actor_loss_and_grads", "ppo.actor_loss_and_grads"),
            (ppo, "critic_loss_and_grads", "ppo.critic_loss_and_grads"),
            (ppo.Adam, "step", "ppo.adam_step"),
            (watchtime.ParamTable, "fused", "watchtime.fused"),
        ):
            self._patch(owner, attr, s(name, getattr(owner, attr)))
        for owner, attr, name in (
            (sim, "advance_playback", "media.advance_playback"),
            (media.Trace, "bandwidth_at", "media.bandwidth_at"),
            (policy, "weibull_quantile", "watchtime.weibull_quantile"),
            (demand, "weibull_survival", "watchtime.weibull_survival"),
        ):
            self._patch(owner, attr, c(name, getattr(owner, attr)))
        self._patch(sim, "attribute_reward_terms", self._attribute_hook(sim.attribute_reward_terms))
        self._patch(ppo, "ppo_update", self._ppo_update_hook(ppo.ppo_update))
        for cls in (policy.FixedRangeStrategy, policy.NaiveFixedStrategy, policy.LearnedRangeStrategy):
            self._patch(cls, "decide", self._decide_hook(cls.decide))

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        _ACTIVE = None

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- shipping between processes ---------------------------------------------

    def _cursor(self) -> tuple[int, int, Counter]:
        return len(self.sessions), len(self.span_start), Counter(self.counts)

    def _since(self, cursor) -> dict:
        n_sessions, n_spans, counts = cursor
        sl = slice(n_spans, None)
        used = sorted({sid for sid in self.span_session[sl] if sid >= 0})
        return {
            "sessions": self.sessions[n_sessions:],
            "base": n_spans,
            "name": self.span_name[sl],
            "start": self.span_start[sl],
            "end": self.span_end[sl],
            "parent": self.span_parent[sl],
            "session": self.span_session[sl],
            "pid": self.span_pid[sl],
            "keys": {sid: self.session_keys[sid] for sid in used},
            "counts": self.counts - counts,
        }

    def _merge(self, shipped: dict) -> None:
        self.sessions.extend(shipped["sessions"])
        self.counts.update(shipped["counts"])
        offset = len(self.span_start) - shipped["base"]
        local = {}
        for sid, key in shipped["keys"].items():
            if key not in self._session_ids:
                self._session_ids[key] = len(self.session_keys)
                self.session_keys.append(key)
            local[sid] = self._session_ids[key]
        base = shipped["base"]
        self.span_name.extend(shipped["name"])
        self.span_start.extend(shipped["start"])
        self.span_end.extend(shipped["end"])
        self.span_pid.extend(shipped["pid"])
        # Parents inside the shipped slice move with it; a parent from before
        # the fork is a span of this process and keeps its index.
        self.span_parent.extend(p + offset if p >= base else p for p in shipped["parent"])
        self.span_session.extend(local.get(s, -1) for s in shipped["session"])

    def collect(self, report) -> None:
        """Merge what pool workers shipped on the report's records."""
        for rec in report.runs:
            shipped = rec.__dict__.pop(SHIP_ATTR, None)
            if shipped is not None:
                self._merge(shipped)


def worker(args):
    """Stand-in for ``harness._worker`` that ships worker-side records home."""
    probe = _ACTIVE
    if os.getpid() == probe.owner_pid:
        return probe._orig_worker(args)
    cursor = probe._cursor()
    rec = probe._orig_worker(args)
    setattr(rec, SHIP_ATTR, probe._since(cursor))
    return rec
