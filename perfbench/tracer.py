"""Per-layer spans recorded from outside the package.

``install()`` wraps the public functions of each layer where they are
looked up: a module-level function under every ``richseed.*`` module
attribute that is bound to it (``from ... import`` makes copies of the
name), and a method or property on its class.  Every call becomes a
span; a span's self time is its duration minus that of the traced calls
made inside it.  ``uninstall()`` puts the originals back.
"""

from __future__ import annotations

import importlib
import time
import types

# (layer module, attribute path, phase).  The phase names the ROADMAP
# phase that a span's self time counts toward; None means "the phase of
# the calling span", so WeylElement.length inside delta_via_xi counts as
# Delta-initialisation and inside check_induction as checks.
SPANS = [
    ("rootsys", "WeylElement.length", None),
    ("rootsys", "WeylElement.__mul__", None),
    ("rootsys", "WeylElement.inverse", None),
    ("rootsys", "element_of_word", None),
    ("words", "Word.__init__", "words"),
    ("words", "left_complete", "words"),
    ("words", "rightmost_subword", "words"),
    ("words", "leftmost_subword", None),
    ("words", "combo_numbers", "words"),
    ("deltavec", "delta_via_xi", "deltavec"),
    ("quiver", "build_gamma", "quiver_build"),
    ("quiver", "Quiver.mutate", "batches"),
    ("quiver", "Quiver.restricted", None),
    ("quiver", "classify_sawteeth", "checks"),
    ("quiver", "classify_config", "checks"),
    ("mutalg", "initial_state", "deltavec"),
    ("mutalg", "step_hat", "batches"),
    ("mutalg", "mutate_delta", "batches"),
    ("mutalg", "cut_view", "checks"),
    ("mutalg", "check_induction", "checks"),
    ("mutalg", "AlgState.clone", "batches"),
    ("mutalg", "frozen_vertices_from", "delete_freeze"),
    # self time of run() is the inline deletion and packaging
    ("mutalg", "run", "delete_freeze"),
    ("cli", "seed_document", None),
]

# Traced only to attribute their time to a phase; not reported.
PHASE_ONLY = [
    ("mutalg", "framed_quiver", "quiver_build"),
    ("mutalg", "delta_tilde_from_combo", "checks"),
    ("mutalg", "_check_branch_formula", "checks"),
    ("mutalg", "_check_teeth_shift", "checks"),
]

PHASES = ("words", "deltavec", "quiver_build", "batches", "checks", "delete_freeze")

# cmd_compute serialises through the ``json`` name of richseed.cli; the
# package has no json_bytes function, so this span is that dumps call.
JSON_SPAN = "cli.json_bytes"

# Spans reported with their total time as well as their self time.
TOTALS = ("deltavec.delta_via_xi", "mutalg.step_hat")

LAYER_MODULES = ("rootsys", "words", "deltavec", "quiver", "mutalg", "cli")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self.counts = {"mutations": 0, "batches": 0, "evictions": 0}
        # open spans: [name, phase, start, time in traced children]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, phase):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent_phase = stack[-1][1] if stack else None
            frame = [name, phase or parent_phase, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[2]
                stack.pop()
                if stack:
                    stack[-1][3] += dur
                own = dur - frame[3]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                if frame[1] is not None:
                    self.phase_s[frame[1]] += own

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"richseed.{m}") for m in LAYER_MODULES}
        everywhere = [importlib.import_module("richseed")] + list(mods.values())
        for mod_name, path, phase in SPANS + PHASE_ONLY:
            name = f"{mod_name}.{path}"
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mods[mod_name], owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    self._set(owner, attr, property(self.wrap(original.fget, name, phase)))
                else:
                    self._set(owner, attr, self.wrap(original, name, phase))
                continue
            original = getattr(mods[mod_name], attr)
            inner = self._counting(original) if name == "mutalg.run" else original
            traced = self.wrap(inner, name, phase)
            for mod in everywhere:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, traced)
        cli = mods["cli"]
        proxy = types.SimpleNamespace(**vars(cli.json))
        proxy.dumps = self.wrap(cli.json.dumps, JSON_SPAN, None)
        self._set(cli, "json", proxy)

    def _counting(self, run):
        """run() that also adds the mutation, batch and eviction counts
        of its result to the totals."""

        def counted(*args, **kwargs):
            seed = run(*args, **kwargs)
            self.counts["mutations"] += len(seed.trace)
            self.counts["batches"] += len(seed.schedule)
            self.counts["evictions"] += sum(1 for rec in seed.trace if rec.evicted)
            return seed

        return counted

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def totals(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "phase_s": dict(self.phase_s),
            "counts": dict(self.counts),
        }


def reported_spans() -> list[str]:
    return [f"{m}.{p}" for m, p, _ in SPANS] + [JSON_SPAN]


def merge(into: dict, part: dict) -> dict:
    """Add the totals of one traced process to those of others."""
    for key, values in part.items():
        acc = into.setdefault(key, {})
        for name, x in values.items():
            acc[name] = acc.get(name, 0) + x
    return into


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, self_s, total_s = totals["calls"], totals["self_s"], totals["total_s"]
    out: dict[str, tuple[float, str]] = {}
    for name in reported_spans():
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        if name in TOTALS:
            out[f"{name}.total_s"] = (total_s.get(name, 0.0), "s")
    mutations = totals["counts"]["mutations"]
    for key in ("mutations", "batches", "evictions"):
        out[f"mutalg.{key}"] = (totals["counts"][key], "count")
    for name in ("quiver.Quiver.mutate", "mutalg.cut_view"):
        out[f"{name}.per_mutation"] = (calls.get(name, 0) / mutations if mutations else 0.0, "ratio")
    for phase in PHASES:
        out[f"phase.{phase}_s"] = (totals["phase_s"][phase], "s")
    return out
