"""Span recording and attribution: self time, phase and per-layer metrics."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans as sp  # noqa: E402


def span(name, parent, start, end, error=None, note=None):
    return [name, parent, start, end, error, note]


def test_self_time_subtracts_union_of_children():
    tree = [
        span("a", -1, 0.0, 10.0),
        span("b", 0, 1.0, 4.0),
        span("c", 0, 3.0, 6.0),   # overlaps b: a's children cover [1, 6]
        span("d", 1, 2.0, 3.0),
        span("e", 0, 9.0, 12.0),  # runs past a's end: clipped to [9, 10]
    ]
    assert sp.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_phase_is_nearest_spanned_ancestor():
    tree = [span("a", -1, 0, 4), span("b", 0, 1, 3), span("c", 1, 1, 2)]
    assert [sp.phase(tree, i) for i in range(3)] == [None, "a", "b"]


def test_tracer_records_nesting_errors_and_notes():
    tracer = sp.Tracer(clock=iter(range(100)).__next__)

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    inner_t = tracer.wrap("m.inner", inner, note=lambda a, k, r: len(r))
    outer_t = tracer.wrap("m.outer", lambda: inner_t(3) + inner_t(2))
    assert outer_t() == [3, 3, 3, 2, 2]
    with pytest.raises(ValueError):
        inner_t(-1)
    assert tracer.spans == [
        span("m.outer", -1, 0, 5),
        span("m.inner", 0, 1, 2, note=3),
        span("m.inner", 0, 3, 4, note=2),
        span("m.inner", -1, 6, 7, error="ValueError"),
    ]


def test_install_wraps_every_name_callers_use(monkeypatch):
    """A function imported by name into another module is traced there too,
    and uninstall restores every binding."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    mods = {m: types.ModuleType(f"fakepkg.{m}") for m in sp.MODULES}

    def transform_mult_counts(n):
        return n * 2

    mods["kernels"].transform_mult_counts = transform_mult_counts
    mods["resources"].transform_mult_counts = transform_mult_counts
    mods["resources"].design_candidates = \
        lambda n: mods["resources"].transform_mult_counts(n) + 1
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    for m, mod in mods.items():
        monkeypatch.setitem(sys.modules, f"fakepkg.{m}", mod)

    tracer = sp.Tracer()
    tracer.install("fakepkg")
    assert mods["resources"].design_candidates(5) == 11
    assert mods["kernels"].transform_mult_counts(1) == 2
    assert [(s[0], s[1]) for s in tracer.spans] == [
        ("resources.design_candidates", -1),
        ("kernels.transform_mult_counts", 0),
        ("kernels.transform_mult_counts", -1),
    ]
    tracer.uninstall()
    assert mods["resources"].transform_mult_counts is transform_mult_counts
    assert mods["kernels"].transform_mult_counts is transform_mult_counts


def _dse_tree():
    """cli.main -> evaluate_model (3 lookups) -> 2 design_gen misses; the
    first miss has a prefilter (derive + instantiate + transform) and one
    sequence enumeration with a kept and a rejected simulation."""
    return [
        span("cli.main", -1, 0.0, 20.0),                                   # 0
        span("resources.evaluate_model", 0, 1.0, 19.0, note=3),            # 1
        span("resources.design_gen", 1, 2.0, 12.0),                        # 2
        span("resources.design_candidates", 2, 2.5, 11.0),                 # 3
        span("fusion.derive_layer_configs", 3, 3.0, 3.5),                  # 4
        span("hw.instantiate_layer", 3, 3.5, 4.0),                         # 5
        span("kernels.transform_mult_counts", 3, 4.0, 5.0),                # 6
        span("fusion.enumerate_sequences", 3, 5.5, 10.0, note=1),          # 7
        span("fusion.simulate_fused", 7, 6.0, 8.0, note=40),               # 8
        span("fusion.derive_layer_configs", 8, 6.0, 6.5),                  # 9
        span("fusion.simulate_fused", 7, 8.0, 9.0, error="InefficientConfig"),  # 10
        span("resources.pick_best_design", 2, 11.0, 11.5, note=[1, 2]),    # 11
        span("resources.design_gen", 1, 13.0, 14.0),                       # 12
    ]


def test_layer_metrics_attribute_phases():
    m = sp.layer_metrics(_dse_tree())
    assert set(m) == set(sp.LAYER_METRICS)
    # design_candidates self time (8.5 - 0.5 - 0.5 - 1.0 - 4.5 = 2.0) plus
    # its direct derive/instantiate/transform children (2.0); the derive
    # under simulate_fused belongs to the simulator, not the prefilter
    assert m["resources.prefilter_s"] == pytest.approx(4.0)
    assert m["resources.prefilter_combos"] == 1
    assert m["fusion.simulate_fused_s"] == pytest.approx(1.5 + 1.0)
    assert m["fusion.derive_layer_configs_s"] == pytest.approx(1.0)
    assert m["fusion.simulate_fused_calls"] == 2
    assert m["fusion.sim_units"] == 40
    assert m["fusion.us_per_sim_unit"] == pytest.approx(2.5e6 / 40)
    assert m["fusion.sim_reject_ratio"] == pytest.approx(0.5)
    assert m["fusion.sim_kept_ratio"] == pytest.approx(1.0)
    assert m["resources.stage_lookups"] == 3
    assert m["resources.stage_misses"] == 2
    assert m["resources.stage_hit_ratio"] == pytest.approx(1 / 3)
    assert m["resources.candidates"] == 2
    assert m["resources.feasible_ratio"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["trace.run_s"] == pytest.approx(20.0)
    assert m["fusion.simulate_fused_share"] == pytest.approx(2.5 / 20)
    assert m["explore.models"] == 0
    assert m["explore.self_share"] == 0.0


def test_self_time_table_orders_by_self_time():
    rows = sp.self_time_table(_dse_tree())
    assert rows[0][0] == "resources.evaluate_model"  # 18 - 10 - 1 = 7 s self
    assert dict((n, c) for n, c, _ in rows)["fusion.simulate_fused"] == 2
    assert sum(s for _, _, s in rows) == pytest.approx(20.0)
