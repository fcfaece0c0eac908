"""Best-first stage DSE: ``design_gen`` selects what full enumeration selects.

``design_gen`` evaluates (grid point, sequence assignment) units in
ascending order of their keys, ``DesignCandidate.key`` up to the buffer
options with the cycles bounded by ``fusion.assignment_bounds``, and stops
once the next key exceeds the best feasible key.  A grid point waits under
its closed-form floor until it is refined to its least unit bound, and its
units are built only if that refined floor can still win.  The search is
exact when a unit's key never exceeds the key of its candidate, and it
evaluates one unit per search when the keys agree through the sequences.
Both are checked on the reference models' stages, and the search order,
refinement and cutoff also on fake grids where ties and winners behind a
loose bound are common.
"""

from __future__ import annotations

import functools
import math
import types

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from turf import resources
from turf.errors import Infeasible
from turf.fusion import (FusedDesignConfig, assignment_bounds, block_schedule, plan_block,
                         seq_assignments)
from turf.ir import has_pipeline, layer_shapes
from turf.models import build_reference_model
from turf.resources import (STRATIX_V_5SGSD8, CalibrationTable, DesignCandidate,
                            PlatformSpec, ResourceEstimate, RooflinePoint,
                            design_candidates, design_gen, load_calibration,
                            pick_best_design)

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


def _found(block, point) -> tuple:
    """A grid point's schedule and assignment bounds, as ``design_gen``
    finds them when it refines the point."""
    terms, hws, counts, passes = point[2]
    by_seq = block_schedule(block.layers, terms, hws, counts)
    return (terms, by_seq, passes), assignment_bounds(by_seq, passes)


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
        points = list(resources._planned_points(block, shape, layer_shapes(block, shape),
                                                STRATIX_V_5SGSD8, 64, 4, {}))
        assert len(points) == len(pairs), name
        for floor, point in points:
            refined = (floor[0], min(_found(block, point)[1]))
            assert floor <= refined == pairs[resources._cfg_sort_key(point[1])], (name, point[1])


@pytest.mark.parametrize("model_name", ["vgg16", "resnet50", "mobilenetv1",
                                        "mobilenetv2"])
def test_unit_keys_bound_every_candidate_key(model_name):
    """The key that ``design_gen``'s code (``resources._units``) gives each
    unit is at most its candidate's ``DesignCandidate.key``, and equal to it
    through the sequences: GOPS, cycles, DSPs, tiles and parallelism, and
    the sequences.  So the first feasible unit the search evaluates is the
    one it selects."""
    for name, block, shape, cands in stage_candidates(model_name, STRATIX_V_5SGSD8):
        seq_keys = [(seqs, resources._values(seqs))
                    for seqs in seq_assignments(len(block.layers))]
        keys = {}
        for j, (floor, point) in enumerate(resources._planned_points(
                block, shape, layer_shapes(block, shape), STRATIX_V_5SGSD8, 64, 4, {})):
            for unit in resources._units(block.layers, j, point, _found(block, point),
                                         seq_keys):
                keys[unit[3:5]] = unit[:5]
        assert len(keys) == len(cands), name
        for c in cands:
            key = c.key()
            assert keys[key[3:5]] <= key and keys[key[3:5]] == key[:5], (name, c.cfg)


# the sequences of a fake point's units, as ``design_gen`` assigns them to
# a two-layer block
FAKE_SEQS = seq_assignments(2)


def _fake_cfg(point: int, unit: int) -> FusedDesignConfig:
    return FusedDesignConfig(t_h=point, t_w=1, t_c=(1,), t_f=1, p_h=1, p_w=unit,
                             p_c=(1,), p_f=1, seqs=FAKE_SEQS[unit], buffer_options=(),
                             use_winograd=(False,))


def _fake_point(i, gops, floor, units, dsp=0):
    """A grid point as ``_planned_points`` yields it, ``(floor, (roofline
    point, config fields, (terms, hws, counts, passes)))``, with its units:
    each a sequence assignment's (cycles bound, candidate).  The config
    stands in for the point's layer configs and their schedule, and the
    terms for its DSP count ``dsp``.  The point's config has P_w = 0 and its
    candidates P_w = their unit's index, so the config part of a unit's key
    is a loose bound too."""
    rl = RooflinePoint(gops, 10.0, 1.0)
    units = [(bound, cand._replace(roofline=rl)) for bound, cand in units]
    cfg = _fake_cfg(i, 0)
    return ((-rl.attainable_gops, floor), (rl, tuple(cfg), (dsp, cfg, (), 1))), units


@st.composite
def fake_grids(draw):
    """Grid points as ``_fake_point`` gives them, with few distinct GOPS,
    cycles and DSP values, so that equal bounds, equal keys up to the config
    and winners behind a lower bound are common, within a point as across
    points.  A candidate's cycles are anywhere from its unit's bound to 3
    above, a point's floor anywhere from 0 to its smallest unit bound, and
    its DSP count anywhere from 0 to its candidates' fewest, so both exact
    and loose bounds and floors occur: the search is exact under either."""
    points = []
    for i in range(draw(st.integers(0, 5))):
        units = []
        for j in range(draw(st.integers(1, 4))):
            bound = draw(st.integers(0, 4))
            cand = DesignCandidate(
                _fake_cfg(i, j), bound + draw(st.integers(0, 3)),
                ResourceEstimate(draw(st.integers(1, 3)),
                                 draw(st.sampled_from([0, 10 ** 9])), 0),
                None)
            units.append((bound, cand))
        floor = draw(st.integers(0, min(bound for bound, _ in units)))
        dsp = draw(st.integers(0, min(c.resources.dsp_used for _, c in units)))
        points.append(_fake_point(i, draw(st.sampled_from([1.0, 2.0, 3.0])), floor, units,
                                  dsp))
    return points


def _search_and_enumeration(points):
    """What ``design_gen`` and full enumeration pick from fake points; the
    DSE helpers are replaced by the units, each point's config standing in
    for its schedule and plan, its terms for its DSP count and each unit's
    index in ``FAKE_SEQS`` for its sequences.  The fake block has two
    layers, so a point is refined before its units are built: each point
    is refined once, exactly when its floor is at most the selection's key
    (every point when none is feasible), and its units are built once,
    exactly when its refined floor, (-GOPS, its least unit bound), is.  The
    unit bounds may lie below their candidates' cycles, so a refined floor
    may be loose too.  Each point is planned once, when its first unit is
    evaluated, and only then.  The units evaluated are exactly those whose
    key is at most the selection's key (all of them when none is feasible):
    a unit that only ties the next floor's GOPS and cycles is not evaluated
    before that point's units are ranked."""
    platform = STRATIX_V_5SGSD8
    by_cfg = {FusedDesignConfig(*fields): units for (_, (_, fields, _)), units in points}
    every = [c for _, units in points for _, c in units]
    refined, expanded, planned, evaluated = [], [], [], []

    def assignment_bounds(cfg, passes):
        assert passes == 1
        refined.append(cfg)
        return [bound for bound, _ in by_cfg[cfg]]

    def units(layers, j, point, found, seq_keys):
        cfg = FusedDesignConfig(*point[1])
        assert found[0][1] == cfg and cfg in refined
        expanded.append(cfg)
        return orig_units(layers, j, point, found, seq_keys)

    def plan_block(block, shape, cfg, chans, schedule):
        assert schedule[1:] == (cfg, 1) and cfg in expanded
        planned.append(cfg)
        return cfg

    def best_options(cfg, seqs, fits):
        assert cfg in planned
        evaluated.append((cfg, seqs))
        return by_cfg[cfg][FAKE_SEQS.index(seqs)][1]

    orig_units = resources._units
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resources, "layer_shapes", lambda *args: [])
        mp.setattr(resources, "_planned_points",
                   lambda *args: [point for point, _ in points])
        mp.setattr(resources, "block_schedule", lambda layers, terms, cfg, counts: cfg)
        mp.setattr(resources, "_dsp_used", lambda layers, dsp, cfg: dsp)
        mp.setattr(resources, "assignment_bounds", assignment_bounds)
        mp.setattr(resources, "_units", units)
        mp.setattr(resources, "plan_block", plan_block)
        mp.setattr(resources, "best_options", best_options)
        mp.setattr(resources, "_candidate", lambda cfg, cand, rl, coeffs: cand)
        got = _selection(lambda: design_gen(types.SimpleNamespace(layers=(None, None)), None,
                                            platform, CalibrationTable(alm={}), 4))
    best = (math.inf,) if isinstance(got, str) else (*got.key()[:5], math.inf)
    floors = {FusedDesignConfig(*fields): (floor, (floor[0], min(b for b, _ in units)))
              for (floor, (_, fields, _)), units in points}
    for seen, stage in ((refined, 0), (expanded, 1)):
        assert len(set(seen)) == len(seen)
        assert set(seen) == {cfg for cfg, pair in floors.items() if pair[stage] <= best}
    assert len(set(planned)) == len(planned) and set(planned) == {cfg for cfg, _ in evaluated}
    keys = {(cfg, FAKE_SEQS[j]): (floor[0], bound, dsp, fields[:8],
                                  resources._values(FAKE_SEQS[j]))
            for (floor, (_, fields, (dsp, cfg, _, _))), units in points
            for j, (bound, _) in enumerate(units)}
    assert len(set(evaluated)) == len(evaluated)
    assert set(evaluated) == {unit for unit, key in keys.items() if key <= best}
    return got, _selection(lambda: pick_best_design(every, platform))


@settings(max_examples=300, deadline=None)
@given(fake_grids())
def test_search_order_and_cutoff(points):
    """The best-first search over arbitrary units with valid bounds and
    floors picks what full enumeration picks."""
    got, want = _search_and_enumeration(points)
    assert got == want


@pytest.mark.parametrize("tie", ["dsp", "config"])
def test_floor_equal_to_the_best_is_still_planned(tie):
    """Point 1's unit sets the best key to (-1, 5) before point 0, whose
    floor is exactly that, is planned; point 0 must still be planned, as
    its candidate wins on DSPs or, at equal DSPs, on the config."""
    def cand(i, dsp):
        return DesignCandidate(_fake_cfg(i, 0), 5, ResourceEstimate(dsp, 0, 0), None)
    points = [_fake_point(0, 1.0, 5, [(5, cand(0, 1 if tie == "dsp" else 2))]),
              _fake_point(1, 1.0, 4, [(4, cand(1, 2))])]
    got, want = _search_and_enumeration(points)
    assert got == want
    assert got.cfg == _fake_cfg(0, 0)


def test_unit_tying_the_next_floor_waits_for_that_point():
    """Point 1's unit ties point 0's floor (-1, 5) but has more DSPs than
    point 0's unit.  The search ranks point 0 before it evaluates either,
    so it evaluates point 0's unit only, which wins on DSPs."""
    def cand(i, dsp):
        return DesignCandidate(_fake_cfg(i, 0), 5, ResourceEstimate(dsp, 0, 0), None)
    points = [_fake_point(0, 1.0, 5, [(5, cand(0, 1))], dsp=1),
              _fake_point(1, 1.0, 4, [(5, cand(1, 2))], dsp=2)]
    got, want = _search_and_enumeration(points)
    assert got == want
    assert got.cfg == _fake_cfg(0, 0)
