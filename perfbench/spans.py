"""Span recording around turf's public functions, and the per-layer metrics
derived from the recorded span tree.

A span is one call of a traced function, kept as a list
``[name, parent, start, end, error, note]``: ``parent`` is the index of the
nearest enclosing span (-1 for a root), ``error`` the class name of an
exception the call raised, ``note`` a count taken from the call's result.
Spans are kept in memory and written out once the traced run ends.

A span's *phase* is the name of its nearest spanned ancestor.  Its *self
time* is its duration minus the part of its interval its child spans cover.
A layer is a turf module; a span's name is ``<module>.<function>``.
"""

from __future__ import annotations

import functools
import importlib
import time

# Traced functions, by defining module.  Each one is wrapped in every turf
# module that binds it, so that calls made through a ``from .x import f``
# name are recorded as well as calls through the defining module.  A name
# the package no longer has is skipped, and its metrics then read 0.
TRACED = {
    "cli": ("main",),
    "explore": ("run_framework", "model_gen"),
    "resources": ("evaluate_model", "design_gen", "design_candidates",
                  "pick_best_design", "estimate_resources", "roofline",
                  "load_platform", "load_calibration"),
    "fusion": ("enumerate_sequences", "simulate_fused",
               "derive_layer_configs", "tiling_overhead"),
    "hw": ("instantiate_layer",),
    "kernels": ("transform_mult_counts",),
    "ir": ("load_model", "count_ops_params", "replace_layer", "model_to_json"),
}
TRACED_METHODS = {"explore": (("SyntheticOracle", "evaluate"),)}
MODULES = ("cli", "explore", "resources", "fusion", "hw", "kernels", "ir")


def _stage_lookups(args, kwargs, result):
    # zero-cost stages carry no candidate and never reach the stage cache
    return sum(1 for row in result.stages if row.candidate is not None)


def _feasible(args, kwargs, result):
    candidates = args[0] if args else kwargs["candidates"]
    platform = args[1] if len(args) > 1 else kwargs["platform"]
    return [sum(1 for c in candidates if c.resources.feasible(platform)),
            len(candidates)]


# Counts taken from a traced call's arguments and result, stored in the note.
NOTES = {
    "fusion.simulate_fused": lambda a, k, r: sum(l.work_units for l in r.layers),
    "fusion.enumerate_sequences": lambda a, k, r: len(r),
    "resources.pick_best_design": _feasible,
    "resources.evaluate_model": _stage_lookups,
}


class Tracer:
    """Records a span for every call of a wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "turf") -> None:
        """Wrap every traced function of ``package`` under each name it is
        bound to in the package's modules."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        for home, names in TRACED.items():
            for attr in names:
                orig = getattr(mods[home], attr, None)
                if orig is None:
                    continue
                name = f"{home}.{attr}"
                wrapper = self.wrap(name, orig, NOTES.get(name))
                for mod in mods.values():
                    if mod.__dict__.get(attr) is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for home, methods in TRACED_METHODS.items():
            for cls_name, attr in methods:
                cls = getattr(mods[home], cls_name, None)
                orig = cls.__dict__.get(attr) if cls is not None else None
                if orig is None:
                    continue
                name = f"{home}.{cls_name}.{attr}"
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(name, orig, NOTES.get(name)))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Analysis of a recorded span list

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to its own)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[2], span[3]
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=lambda c: spans[c][2]):
            c_lo, c_hi = max(spans[c][2], start), min(spans[c][3], end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def phase(spans: list, i: int) -> str | None:
    """Name of the nearest spanned ancestor of span ``i``."""
    parent = spans[i][1]
    return spans[parent][0] if parent >= 0 else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name -> unit.  The order is the report order.  The
# explore layer's times are given as shares of the traced run: the DSE
# workloads never enter it, and a time that reads 0 on every run would look
# unmeasured.
LAYER_METRICS = {
    "fusion.simulate_fused_s": "s",
    "fusion.simulate_fused_calls": "count",
    "fusion.sim_units": "count",
    "fusion.us_per_sim_unit": "us",
    "fusion.sim_reject_ratio": "ratio",
    "fusion.sim_kept_ratio": "ratio",
    "fusion.enumerate_sequences_s": "s",
    "fusion.enumerate_sequences_calls": "count",
    "fusion.derive_layer_configs_s": "s",
    "fusion.tiling_overhead_s": "s",
    "resources.prefilter_s": "s",
    "resources.prefilter_combos": "count",
    "kernels.transform_mult_counts_s": "s",
    "kernels.transform_mult_counts_calls": "count",
    "hw.instantiate_layer_s": "s",
    "hw.instantiate_layer_calls": "count",
    "resources.estimate_resources_s": "s",
    "resources.estimate_resources_calls": "count",
    "resources.roofline_s": "s",
    "resources.pick_best_s": "s",
    "resources.candidates": "count",
    "resources.feasible_ratio": "ratio",
    "resources.stage_lookups": "count",
    "resources.stage_misses": "count",
    "resources.stage_hit_ratio": "ratio",
    "explore.self_share": "ratio",
    "explore.models": "count",
    "explore.oracle_share": "ratio",
    "ir.self_s": "s",
    "cli.self_s": "s",
    "fusion.simulate_fused_share": "ratio",
    "resources.prefilter_share": "ratio",
    "trace.run_s": "s",
}

_PREFILTER_CHILDREN = ("fusion.derive_layer_configs", "hw.instantiate_layer",
                       "kernels.transform_mult_counts")


def layer_metrics(spans: list) -> dict[str, float]:
    """The per-layer metrics of one traced run (see LAYER_METRICS)."""
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    module_self: dict[str, float] = {}
    for span, s in zip(spans, selfs):
        name = span[0]
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        module = name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + s

    sim_units = sim_rejects = sims_in_enum = kept = 0
    prefilter = self_s.get("resources.design_candidates", 0.0)
    combos = lookups = feasible = picked_from = models = 0
    for i, span in enumerate(spans):
        name, ph, note = span[0], phase(spans, i), span[5]
        if name == "fusion.simulate_fused":
            if span[4] == "InefficientConfig":
                sim_rejects += 1
            elif span[4] is None:
                sim_units += note
                sims_in_enum += ph == "fusion.enumerate_sequences"
        elif name == "fusion.enumerate_sequences" and span[4] is None:
            kept += note
        elif name == "resources.pick_best_design" and span[4] is None:
            feasible += note[0]
            picked_from += note[1]
        elif name == "resources.evaluate_model" and span[4] is None:
            lookups += note
            models += ph == "explore.run_framework"
        if ph == "resources.design_candidates" and name in _PREFILTER_CHILDREN:
            prefilter += span[3] - span[2]
            combos += name == "fusion.derive_layer_configs"

    run_s = sum(span[3] - span[2] for span in spans if span[1] < 0)
    misses = calls.get("resources.design_gen", 0)
    sim_s = self_s.get("fusion.simulate_fused", 0.0)
    out = {
        "fusion.simulate_fused_s": sim_s,
        "fusion.simulate_fused_calls": calls.get("fusion.simulate_fused", 0),
        "fusion.sim_units": sim_units,
        "fusion.us_per_sim_unit": _ratio(sim_s * 1e6, sim_units),
        "fusion.sim_reject_ratio": _ratio(sim_rejects,
                                          calls.get("fusion.simulate_fused", 0)),
        "fusion.sim_kept_ratio": _ratio(kept, sims_in_enum),
        "fusion.enumerate_sequences_s": self_s.get("fusion.enumerate_sequences", 0.0),
        "fusion.enumerate_sequences_calls": calls.get("fusion.enumerate_sequences", 0),
        "fusion.derive_layer_configs_s": self_s.get("fusion.derive_layer_configs", 0.0),
        "fusion.tiling_overhead_s": self_s.get("fusion.tiling_overhead", 0.0),
        "resources.prefilter_s": prefilter,
        "resources.prefilter_combos": combos,
        "kernels.transform_mult_counts_s": self_s.get("kernels.transform_mult_counts", 0.0),
        "kernels.transform_mult_counts_calls": calls.get("kernels.transform_mult_counts", 0),
        "hw.instantiate_layer_s": self_s.get("hw.instantiate_layer", 0.0),
        "hw.instantiate_layer_calls": calls.get("hw.instantiate_layer", 0),
        "resources.estimate_resources_s": self_s.get("resources.estimate_resources", 0.0),
        "resources.estimate_resources_calls": calls.get("resources.estimate_resources", 0),
        "resources.roofline_s": self_s.get("resources.roofline", 0.0),
        "resources.pick_best_s": self_s.get("resources.pick_best_design", 0.0),
        "resources.candidates": picked_from,
        "resources.feasible_ratio": _ratio(feasible, picked_from),
        "resources.stage_lookups": lookups,
        "resources.stage_misses": misses,
        "resources.stage_hit_ratio": _ratio(lookups - misses, lookups),
        "explore.self_share": _ratio(module_self.get("explore", 0.0), run_s),
        "explore.models": models,
        "explore.oracle_share": _ratio(
            self_s.get("explore.SyntheticOracle.evaluate", 0.0), run_s),
        "ir.self_s": module_self.get("ir", 0.0),
        "cli.self_s": module_self.get("cli", 0.0),
        "fusion.simulate_fused_share": _ratio(sim_s, run_s),
        "resources.prefilter_share": _ratio(prefilter, run_s),
        "trace.run_s": run_s,
    }
    return out


def self_time_table(spans: list) -> list[tuple[str, int, float]]:
    """(name, calls, self seconds) per span name, largest self time first."""
    rows: dict[str, list] = {}
    for span, s in zip(spans, self_times(spans)):
        row = rows.setdefault(span[0], [0, 0.0])
        row[0] += 1
        row[1] += s
    return sorted(((n, c, s) for n, (c, s) in rows.items()),
                  key=lambda r: -r[2])
