"""Best-first stage DSE: ``design_gen`` selects what full enumeration selects.

``resources.best_first`` evaluates units in ascending order of their keys
and stops once the next floor exceeds the best feasible key.  An item waits
under its floor until it is refined, and its units are built only if its
refined floor can still win.  The engine is checked against brute force on
synthetic items where ties and winners behind a loose bound are common.
``design_gen`` adapts it to the grid: a unit is a (grid point, sequence
assignment) pair whose key is ``DesignCandidate.key`` up to the buffer
options, with the cycles bounded by ``fusion.assignment_bounds``.  That the
search is exact there, and evaluates one unit per search, is checked on the
reference models' stages.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from conftest import grid_points
from turf import resources
from turf.errors import Infeasible
from turf.fusion import assignment_bounds, plan_block, seq_assignments
from turf.hw import ModuleKind, instantiate_layer
from turf.ir import has_pipeline
from turf.models import build_reference_model
from turf.resources import (STRATIX_V_5SGSD8, CalibrationTable, PlatformSpec,
                            design_candidates, design_gen, estimate_resources,
                            load_calibration, pick_best_design)

PLATFORMS = {
    "default": STRATIX_V_5SGSD8,
    "256-dsp": STRATIX_V_5SGSD8._replace(dsp_total=256),
    # tiles stop tying at the compute roof, and with 400 BRAM blocks some
    # of the highest-GOPS points do not fit, so the GOPS order decides
    "1-gbps": STRATIX_V_5SGSD8._replace(bandwidth_gbps=1.0, bram_blocks=400),
    # no design fits: both sides raise Infeasible
    "1-bram": STRATIX_V_5SGSD8._replace(bram_blocks=1),
}
COEFFS = load_calibration()


def distinct_stages(model_name: str):
    """(stage name, block, input shape) once per distinct DSE stage."""
    seen = set()
    for stage in build_reference_model(model_name).stages:
        if has_pipeline(stage.op) and (stage.op, stage.input_shape) not in seen:
            seen.add((stage.op, stage.input_shape))
            yield stage.name, stage.op, stage.input_shape


@functools.cache
def stage_candidates(model_name: str, platform: PlatformSpec) -> list:
    """(stage name, block, input shape, ``design_candidates`` at grid depth 4)
    per distinct stage, shared by the tests below."""
    return [(name, block, shape,
             design_candidates(block, shape, platform, COEFFS, grid_depth=4))
            for name, block, shape in distinct_stages(model_name)]


def _selection(select):
    try:
        return select()
    except Infeasible as exc:
        return f"Infeasible: {exc}"


@pytest.mark.parametrize("model_name", ["resnet50", "mobilenetv2"])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_design_gen_equals_full_enumeration(model_name, platform_name):
    platform = PLATFORMS[platform_name]
    # the candidate list reads the platform's DSPs and roofline, not its
    # BRAM, so the 1-bram platform selects from the default platform's list
    listed = platform._replace(bram_blocks=STRATIX_V_5SGSD8.bram_blocks)
    gops_per_stage = []
    for name, block, shape, cands in stage_candidates(model_name, listed):
        want = _selection(lambda: pick_best_design(cands, platform))
        got = _selection(lambda: design_gen(block, shape, platform, COEFFS,
                                            grid_depth=4))
        assert got == want, name
        if platform_name == "1-bram":
            assert isinstance(got, str), name
        gops_per_stage.append({c.roofline.attainable_gops for c in cands})
    if platform_name == "1-gbps":
        # some stage's candidates differ in attainable GOPS, so the search
        # order there is set by the roofline and not by cycles alone
        assert any(len(gops) > 1 for gops in gops_per_stage)


@pytest.mark.parametrize("model_name", ["vgg16", "resnet50", "mobilenetv1",
                                        "mobilenetv2"])
def test_cycles_bound_below_every_candidate(model_name):
    """On every grid point, each sequence assignment's bound is the cycles
    of that assignment's candidate."""
    for name, block, shape, cands in stage_candidates(model_name, STRATIX_V_5SGSD8):
        for c in cands:
            plan = plan_block(block, shape, c.cfg)
            bounds = dict(zip(seq_assignments(len(block.layers)),
                              assignment_bounds(plan.by_seq, plan.n_passes)))
            assert bounds[c.cfg.seqs] == c.total_cycles, (name, c.cfg)


# fractional coefficients, so that a sum in another order could round apart
FRACTIONAL = CalibrationTable({kind.value: {"base": 10 / (i + 3), "per_width": (i + 1) / 7}
                               for i, kind in enumerate(ModuleKind)})


def _chain_alm(plan, coeffs) -> int:
    """The ALMs of ``plan``'s instantiated module chains, summed module by
    module in chain order, then each weight path."""
    alm = 0.0
    for pipeline in map(instantiate_layer, plan.layers, plan.hws):
        for mod in (*pipeline.modules, *pipeline.weight_path):
            base, per_width = coeffs.coeff(mod.kind)
            alm += (base + per_width * (mod.in_width + mod.out_width)) * mod.replication
    return round(alm)


@pytest.mark.parametrize("model_name", ["vgg16", "resnet50", "mobilenetv1",
                                        "mobilenetv2"])
def test_alm_is_the_chain_sum_on_every_candidate(model_name):
    """On every grid candidate, the ALMs ``estimate_resources`` takes from
    closed forms are the sum over the instantiated module chains, under the
    shipped and under fractional coefficients."""
    for name, block, shape, cands in stage_candidates(model_name, STRATIX_V_5SGSD8):
        for c in cands:
            plan = plan_block(block, shape, c.cfg)
            assert c.resources.alm_used == _chain_alm(plan, COEFFS), (name, c.cfg)
            fractional = estimate_resources(plan, c.cfg.seqs, (), FRACTIONAL).alm_used
            assert fractional == _chain_alm(plan, FRACTIONAL), (name, c.cfg)


def _bounds(plan) -> list[int]:
    """A grid point's assignment bounds, as ``design_gen`` refines it."""
    return assignment_bounds(plan.by_seq, plan.n_passes)


@pytest.mark.parametrize("model_name", ["vgg16", "resnet50", "mobilenetv1",
                                        "mobilenetv2"])
def test_refined_floor_is_each_points_best_pair(model_name):
    """On every grid point, the floor ``design_gen`` refines a point to,
    (-GOPS, its least assignment bound), is exactly the least (-GOPS,
    cycles) pair of the point's candidates, and at least the point's
    closed-form floor."""
    for name, block, shape, cands in stage_candidates(model_name, STRATIX_V_5SGSD8):
        pairs = {}
        for c in cands:
            key = c.key()
            pairs[key[3]] = min(pairs.get(key[3], key[:2]), key[:2])
        points = grid_points(block, shape, STRATIX_V_5SGSD8)
        assert len(points) == len(pairs), name
        for floor, _, plan in points:
            refined = (floor[0], min(_bounds(plan)))
            assert floor <= refined == pairs[plan.cfg[:8]], (name, plan.cfg)


@pytest.mark.parametrize("model_name", ["vgg16", "resnet50", "mobilenetv1",
                                        "mobilenetv2"])
def test_unit_keys_bound_every_candidate_key(model_name):
    """The key that ``design_gen``'s code (``resources._unit_keys``) gives
    each unit is at most its candidate's ``DesignCandidate.key``, and equal
    to it through the sequences: GOPS, cycles, DSPs, tiles and parallelism,
    and the sequences.  So the first feasible unit the search evaluates is
    the one it selects."""
    for name, block, shape, cands in stage_candidates(model_name, STRATIX_V_5SGSD8):
        keys = {}
        for _, rl, plan in grid_points(block, shape, STRATIX_V_5SGSD8):
            for key in resources._unit_keys(plan, rl, _bounds(plan)):
                keys[key[3:5]] = key
        assert len(keys) == len(cands), name
        for c in cands:
            key = c.key()
            assert keys[key[3:5]] <= key and keys[key[3:5]] == key[:5], (name, c.cfg)


def _search(items):
    """``best_first`` on ``items``, each (floor, refined floor or None,
    [(unit key, candidate key, feasible)]), with the candidate's key as the
    candidate, checked against full enumeration: the selection, the best
    feasible key, is the same; each item is refined once, exactly when its
    floor is at most the selection (every item when none is feasible), and
    expanded once after that, exactly when its refined floor (its floor,
    when refine gives None) is; the units evaluated are exactly those whose
    key is at most the selection, each after its item is expanded; and the
    funnel counts those calls.  Returns the selection and the (item, unit)
    pairs in the order they were evaluated."""
    calls = {"refined": [], "expanded": [], "evaluated": []}

    def refine(j):
        calls["refined"].append(j)
        return items[j][1]

    def expand(j):
        assert j in calls["refined"]
        calls["expanded"].append(j)
        return [(key, (j, u)) for u, (key, _, _) in enumerate(items[j][2])]

    def evaluate(unit):
        assert unit[0] in calls["expanded"]
        calls["evaluated"].append(unit)
        _, cand, feasible = items[unit[0]][2][unit[1]]
        return cand, cand, feasible

    funnel = Counter()
    evaluated = resources.best_first([floor for floor, _, _ in items], refine, expand,
                                     evaluate, funnel)
    units = {(j, u): unit for j, (_, _, us) in enumerate(items) for u, unit in enumerate(us)}
    feasible = {cand for _, cand, ok in units.values() if ok}
    best = min(feasible, default=(math.inf,))
    assert evaluated == [units[unit][1] for unit in calls["evaluated"]]
    assert min(feasible.intersection(evaluated), default=(math.inf,)) == best
    for seen, floors in ((calls["refined"], [floor for floor, _, _ in items]),
                         (calls["expanded"], [floor if refined is None else refined
                                              for floor, refined, _ in items])):
        assert sorted(seen) == [j for j, floor in enumerate(floors) if floor <= best]
    assert sorted(calls["evaluated"]) == [unit for unit, (key, _, _) in units.items()
                                          if key <= best]
    infeasible = sum(not units[unit][2] for unit in calls["evaluated"])
    assert funnel == Counter(items=len(items), infeasible=infeasible,
                             **{name: len(seen) for name, seen in calls.items()})
    return best, calls["evaluated"]


@st.composite
def problems(draw):
    """Items as ``_search`` takes them, with few distinct GOPS, bounds,
    cycles and DSP values, so that equal floors, equal unit keys and
    winners behind a loose bound are common, within an item as across
    items.  A unit key is (-GOPS, a cycles bound, a DSP floor), and its
    candidate's key is (-GOPS, cycles, DSPs, item, unit), with the cycles
    and DSPs anywhere from the unit's up.  An item's floor is anywhere from
    (-3, 0) to its best unit key's (-GOPS, bound) pair, and its refined
    floor anywhere from its floor to that pair, or None: the search is
    exact under exact and loose bounds alike."""
    items = []
    for i in range(draw(st.integers(0, 5))):
        gops, units = draw(st.sampled_from([-3, -2, -1])), []
        for u in range(draw(st.integers(1, 4))):
            bound, dsp = draw(st.integers(0, 4)), draw(st.integers(0, 2))
            cand = (gops, bound + draw(st.integers(0, 3)), dsp + draw(st.integers(0, 1)), i, u)
            units.append(((gops, bound, dsp), cand, draw(st.booleans())))
        pairs = [(g, b) for g in range(-3, gops + 1) for b in range(5)
                 if (g, b) <= min(key for key, _, _ in units)]
        floor = draw(st.sampled_from(pairs))
        refined = draw(st.sampled_from([None] + [p for p in pairs if p >= floor]))
        items.append((floor, refined, units))
    return items


@settings(max_examples=300, deadline=None)
@given(problems())
@example([])
@example([((-1, 0), (-1, 2), [((-1, 2, 0), (-1, 2, 0, 0, 0), False)]),
          ((-2, 1), None, [((-2, 1, 1), (-2, 3, 1, 1, 0), False),
                           ((-2, 1, 1), (-2, 1, 2, 1, 1), False)])])
def test_search_order_and_cutoff(items):
    """The best-first search over arbitrary units with valid bounds and
    floors selects what full enumeration selects, also with no items and
    with no feasible unit."""
    _search(items)


def _item(floor, bound, dsp, cand_dsp, i):
    """An item whose floor and one unit's bound are (-1, ``floor``) and (-1,
    ``bound``), refined to the latter, and whose feasible candidate has
    cycles 5."""
    return (-1, floor), (-1, bound), [((-1, bound, dsp), (-1, 5, cand_dsp, i, 0), True)]


@pytest.mark.parametrize("tie", ["dsp", "config"])
def test_floor_equal_to_the_best_is_still_planned(tie):
    """Item 1's unit sets the best key to (-1, 5) before item 0, whose floor
    is exactly that, is refined; item 0 must still be refined and expanded,
    as its candidate wins on DSPs or, at equal DSPs, on the config."""
    best, evaluated = _search([_item(5, 5, 0, 1 if tie == "dsp" else 2, 0),
                               _item(4, 4, 0, 2, 1)])
    assert best[3] == 0 and evaluated == [(1, 0), (0, 0)]


def test_unit_tying_the_next_floor_waits_for_that_point():
    """Item 1's unit ties item 0's floor (-1, 5) but has more DSPs than item
    0's unit.  The search expands item 0 before it evaluates either, so it
    evaluates item 0's unit only, which wins on DSPs."""
    best, evaluated = _search([_item(5, 5, 1, 1, 0), _item(4, 5, 2, 2, 1)])
    assert best[3] == 0 and evaluated == [(0, 0)]
