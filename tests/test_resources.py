"""Resource estimation, roofline accounting, and design selection."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (canonical_blocks, closed_form_dsp, dwsep_block, grid_points, pw_conv,
                      stacked_block, std_conv)
from turf.errors import (CalibrationError, Infeasible, InvalidTiling, ShapeMismatch,
                         UnsupportedConfig)
from turf.fusion import FusedDesignConfig, _buffer_caps, plan_block
from turf.hw import BufferOption, ModuleKind, Seq
from turf.ir import BlockKind, BlockSpec, LayerKind, LayerSpec, TensorShape, layer_shapes
from turf.resources import (STRATIX_V_5SGSD8, CalibrationTable,
                            DesignCandidate, PlatformSpec, RooflinePoint,
                            design_candidates, design_gen, estimate_resources,
                            load_calibration, pick_best_design, roofline)


def simple_cfg(block, shape, seqs=None, p=2):
    n = len(block.layers)
    chans = [shape.channels]
    for layer in block.layers:
        chans.append(layer.output_shape(TensorShape(8, 8, chans[-1])).channels)
    p_list = [min(p, c) if c % min(p, c) == 0 else 1 for c in chans]
    return FusedDesignConfig(
        t_h=shape.height, t_w=shape.width, t_c=tuple(chans[:-1]), t_f=chans[-1],
        p_h=1, p_w=1, p_c=tuple(p_list[:-1]), p_f=p_list[-1],
        seqs=seqs or (Seq.FM,) * (n - 1) + (Seq.CM,),
        buffer_options=(BufferOption.DOUBLE,) * (n - 1),
        use_winograd=(False,) * n)


def estimate(block, shape, cfg, coeffs=None):
    """``estimate_resources`` for ``cfg`` as it stands."""
    plan = plan_block(block, shape, cfg)
    caps = _buffer_caps(plan, cfg.seqs, cfg.buffer_options)
    return estimate_resources(plan, cfg.seqs, tuple(w for _, _, w in caps),
                              coeffs or load_calibration())


class TestPlatform:
    def test_default_constants(self):
        p = STRATIX_V_5SGSD8
        assert (p.bandwidth_gbps, p.dsp_total, p.bram_blocks,
                p.alm_total, p.clock_mhz) == (38.0, 1963, 2567, 262400, 200.0)
        assert p.compute_roof_gops == pytest.approx(785.2)

    def test_shipped_platform_file_matches_default(self):
        import json
        from importlib import resources as ir
        doc = json.loads(ir.files("turf.data")
                         .joinpath("stratixv_5sgsd8.json").read_text())
        assert PlatformSpec.from_json(doc) == STRATIX_V_5SGSD8


class TestResourceEstimate:
    def test_degenerate_pointwise_uses_one_multiplier(self):
        from turf.hw import LayerHwConfig
        hw = LayerHwConfig((1, 1, 1, 1), (1, 1, 1, 1))
        layer = pw_conv(1)
        assert closed_form_dsp(layer, hw) == 1

    def test_bram_packing(self):
        from turf.resources import _bram_blocks
        # 2048 16-bit words = 4096 bytes over 2560-byte blocks
        assert _bram_blocks(2048) == 2
        assert _bram_blocks(1280) == 1
        assert _bram_blocks(1281) == 2

    def test_published_usage_is_feasible(self):
        # a design using 1680 DSPs fits the 1963-DSP platform
        from turf.resources import ResourceEstimate
        est = ResourceEstimate(dsp_used=1680, bram_used=100, alm_used=1000)
        assert est.feasible(STRATIX_V_5SGSD8)
        assert not ResourceEstimate(2000, 100, 1000).feasible(STRATIX_V_5SGSD8)

    def test_dsp_monotone_in_parallelism(self):
        block = dwsep_block(16)
        shape = TensorShape(16, 16, 8)
        smaller = estimate(block, shape, simple_cfg(block, shape, p=2))
        larger = estimate(block, shape, simple_cfg(block, shape, p=4))
        assert larger.dsp_used >= smaller.dsp_used

    def test_missing_coefficient_raises(self):
        block = dwsep_block(16)
        shape = TensorShape(16, 16, 8)
        broken = CalibrationTable(alm={"LineBuffer": {"base": 1, "per_width": 1}})
        with pytest.raises(CalibrationError):
            estimate(block, shape, simple_cfg(block, shape), broken)

    def test_winograd_transform_multipliers_counted(self):
        from turf.hw import LayerHwConfig
        layer = std_conv(8)
        direct = LayerHwConfig((16, 16, 8, 8), (1, 1, 2, 2))
        wino = LayerHwConfig((16, 16, 8, 8), (4, 4, 2, 2), use_winograd=True)
        assert closed_form_dsp(layer, direct) == 2 * 2 * 9
        # F(4^2,3^2) at P_c = P_f = 2: 144 Hadamard lanes (2 * 2 * 36), the
        # input transform's two -5 entries (8), the weight transform's 12
        # non-2^n entries (96) and none in the output transform
        assert closed_form_dsp(layer, wino) == 144 + 8 + 96 + 0 == 248

    def test_winograd_f2_has_no_transform_multipliers(self):
        from turf.hw import LayerHwConfig
        # every F(2^2,3^2) constant is 0 or +-2^n, so only the Hadamard lanes
        wino = LayerHwConfig((16, 16, 8, 8), (2, 2, 2, 2), use_winograd=True,
                             winograd_m=2)
        assert closed_form_dsp(std_conv(8), wino) == 2 * 2 * 16


def untiled_roofline(block, shape, platform):
    """``roofline`` with the full-map tile, which adds no traffic."""
    return roofline(block, shape, platform,
                    (shape.height, shape.width, block.output_shape(shape).channels))


class TestRoofline:
    def test_point_invariants(self):
        pt = RooflinePoint(10.0, 785.2, 38.0)
        assert pt.attainable_gops <= pt.compute_roof_gops
        assert pt.attainable_gops <= pt.arithmetic_intensity * pt.bandwidth_gbps

    def test_fused_intensity_dominates_baseline(self):
        for block, shape in canonical_blocks().values():
            rc = untiled_roofline(block, shape, STRATIX_V_5SGSD8)
            assert rc.fused.arithmetic_intensity > rc.baseline.arithmetic_intensity

    def test_intermediate_traffic_accounting(self):
        block = stacked_block(4, 4)
        shape = TensorShape(8, 8, 4)
        rc = untiled_roofline(block, shape, STRATIX_V_5SGSD8)
        fused, baseline = rc.fused_bytes, rc.baseline_bytes
        words = 8 * 8 * 4  # every map in this block has the same volume
        weights = block.params(shape)
        # fused: input + output once; baseline: input, intermediate written
        # and read back, output
        assert fused == (2 * words + weights) * 2
        assert baseline == (4 * words + weights) * 2

    def test_bandwidth_monotonicity(self):
        block, shape = canonical_blocks()["depthwise_separable"]
        prev = 0.0
        for bw in (8.0, 16.0, 38.0, 100.0):
            plat = PlatformSpec(bw, 1963, 2567, 262400, 200.0)
            rc = untiled_roofline(block, shape, plat)
            assert rc.fused.attainable_gops >= prev
            prev = rc.fused.attainable_gops

    def test_bandwidth_claim_default_and_low(self):
        """At the default 38 GB/s only the depthwise-separable block gains
        from fusion; at 16 GB/s all three block kinds do."""
        blocks = canonical_blocks()
        gains_38 = {}
        gains_16 = {}
        for name, (block, shape) in blocks.items():
            rc38 = untiled_roofline(block, shape, STRATIX_V_5SGSD8)
            gains_38[name] = rc38.fused.attainable_gops > rc38.baseline.attainable_gops
            low = PlatformSpec(16.0, 1963, 2567, 262400, 200.0)
            rc16 = untiled_roofline(block, shape, low)
            gains_16[name] = rc16.fused.attainable_gops > rc16.baseline.attainable_gops
        assert gains_38 == {"depthwise_separable": True, "bottleneck": False,
                            "separable_bottleneck": False}
        assert all(gains_16.values())


class TestPickBest:
    def _mk(self, att, cycles, dsp):
        cfg = simple_cfg(dwsep_block(8), TensorShape(8, 8, 8))
        from turf.resources import ResourceEstimate
        return DesignCandidate(cfg, cycles, ResourceEstimate(dsp, 1, 1),
                               RooflinePoint(att, 785.2, 38.0))

    def test_single_candidate(self):
        c = self._mk(10.0, 100, 5)
        assert pick_best_design([c], STRATIX_V_5SGSD8) is c

    def test_constraint_dominates_performance(self):
        fast_infeasible = self._mk(20.0, 10, 99999)
        slow_feasible = self._mk(1.0, 1000, 10)
        best = pick_best_design([fast_infeasible, slow_feasible], STRATIX_V_5SGSD8)
        assert best is slow_feasible

    def test_three_candidate_ordering_and_permutation_invariance(self):
        a = self._mk(5.0, 100, 50)
        b = self._mk(10.0, 200, 50)
        c = self._mk(10.0, 100, 50)
        expected = c  # max attainable, then min latency
        for perm in ([a, b, c], [c, b, a], [b, c, a], [b, a, c]):
            assert pick_best_design(perm, STRATIX_V_5SGSD8) is expected

    def test_no_feasible_raises(self):
        with pytest.raises(Infeasible):
            pick_best_design([self._mk(5.0, 100, 10 ** 6)], STRATIX_V_5SGSD8)
        with pytest.raises(Infeasible):
            pick_best_design([], STRATIX_V_5SGSD8)


class TestDesignGen:
    def test_selected_design_fits_platform(self):
        for name, (block, shape) in canonical_blocks().items():
            best = design_gen(block, shape, STRATIX_V_5SGSD8, load_calibration(),
                              grid_depth=3, max_parallel=32)
            assert best.resources.feasible(STRATIX_V_5SGSD8)
            assert best.total_cycles > 0

    def test_candidates_respect_dsp_prefilter(self):
        block, shape = canonical_blocks()["depthwise_separable"]
        cands = design_candidates(block, shape, STRATIX_V_5SGSD8, load_calibration(),
                                  grid_depth=3, max_parallel=32)
        assert cands
        assert all(c.resources.dsp_used <= STRATIX_V_5SGSD8.dsp_total
                   for c in cands)


def test_each_grid_point_is_derived_once(monkeypatch):
    """The search on ResNet-50's ``res2_1`` evaluates 1 of its grid points'
    units (its funnel): it plans that one point and estimates that one
    candidate, the best-ranked unit, whose key is its candidate's through
    the sequences.  It builds a point's schedule (``_schedule``) only for
    each point it refines and its ``BlockPlan`` (``_plan``) only for each
    point it expands, derives no parsed config (``plan_block``'s
    ``derive_layer_configs``), builds no module pipeline
    (``instantiate_layer``), as the resource model reads closed forms, and
    no ``SimReport``, and it sizes the buffers of each (sequences, options)
    set once.  It simulates
    none of the 8 option sets it takes before stopping at each floor: 2
    cannot make a streaming producer wait, so ``_pass_bounds`` is their
    makespan, and the capacity-aware bound puts the other 6 above the
    floor, behind an option that reaches it.  Where no design fits, every
    unit of each expanded point is evaluated, and each such point is still
    planned once, each refined one scheduled once."""
    import turf.cli, turf.fusion, turf.hw, turf.inspection, turf.resources
    from turf.models import build_reference_model

    calls = {"instantiate_layer": 0, "derive_layer_configs": 0, "_schedule": 0, "_plan": 0}

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    orig, wrapped = turf.hw.instantiate_layer, count("instantiate_layer",
                                                     turf.hw.instantiate_layer)
    for module in (turf.hw, turf.fusion, turf.resources, turf.cli):
        if module.__dict__.get("instantiate_layer") is orig:
            monkeypatch.setattr(module, "instantiate_layer", wrapped)
    for module, name in ((turf.fusion, "derive_layer_configs"), (turf.resources, "_schedule"),
                         (turf.resources, "_plan")):
        monkeypatch.setattr(module, name, count(name, getattr(module, name)))
    reports = []
    monkeypatch.setattr(turf.inspection, "SimReport",
                        lambda *a, **k: reports.append(1))
    # every sized plan is kept alive here, so ids name each (plan, sequences,
    # options) set uniquely
    planned, sized, caps_of, simulated = {}, {}, {}, []

    def buffer_caps(plan, seqs, options):
        planned[id(plan)] = plan
        key = (id(plan), seqs, options)
        sized[key] = sized.get(key, 0) + 1
        caps = orig_caps(plan, seqs, options)
        caps_of[id(caps)] = key
        return caps

    def simulate_pass(plans, caps, collect_events):
        simulated.append(caps_of[id(caps)])
        return orig_pass(plans, caps, collect_events)

    orig_caps, orig_pass = turf.fusion._buffer_caps, turf.fusion._simulate_pass
    monkeypatch.setattr(turf.fusion, "_buffer_caps", buffer_caps)
    monkeypatch.setattr(turf.fusion, "_simulate_pass", simulate_pass)
    stage = next(s for s in build_reference_model("resnet50").stages
                 if s.name == "res2_1")
    table = {}
    design_gen(stage.op, stage.input_shape, STRATIX_V_5SGSD8, load_calibration(),
               grid_depth=4, designs=table)
    assert table["funnel"]["evaluated"] == len(planned) == 1
    assert calls == {"instantiate_layer": 0, "derive_layer_configs": 0,
                     "_schedule": table["funnel"]["refined"],
                     "_plan": table["funnel"]["expanded"]}
    assert reports == []
    assert simulated == []
    assert set(sized.values()) == {1}, sized
    planned.clear()
    calls.update(_schedule=0, _plan=0)
    table = {}
    with pytest.raises(Infeasible):
        design_gen(stage.op, stage.input_shape, STRATIX_V_5SGSD8._replace(bram_blocks=1),
                   load_calibration(), grid_depth=4, designs=table)
    funnel = table["funnel"]
    assert funnel["evaluated"] == funnel["infeasible"] == 8 * funnel["expanded"] == 8 * len(planned)
    assert calls == {"instantiate_layer": 0, "derive_layer_configs": 0,
                     "_schedule": funnel["refined"], "_plan": funnel["expanded"]}


def test_design_candidates_plan_each_point_once(monkeypatch):
    """``design_candidates``, which ``dse --block`` lists, plans each of
    ResNet-50 ``res2_1``'s 25 grid points once (``_plan``) and derives no
    parsed config (``plan_block``'s ``derive_layer_configs``)."""
    import turf.fusion, turf.resources
    from turf.models import build_reference_model

    calls = []
    for module, name in ((turf.fusion, "derive_layer_configs"), (turf.resources, "_plan")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name:
                            calls.append(name) or fn(*args))
    stage = next(s for s in build_reference_model("resnet50").stages if s.name == "res2_1")
    cands = design_candidates(stage.op, stage.input_shape, STRATIX_V_5SGSD8,
                              load_calibration(), grid_depth=4)
    assert calls == ["_plan"] * 25
    assert len({c.cfg[:8] for c in cands}) == 25


@pytest.mark.parametrize("model_name, refined, evaluated", [
    ("vgg16", 12, 12), ("resnet50", 57, 10), ("mobilenetv1", 69, 11),
    ("mobilenetv2", 45, 15)])
def test_plans_only_points_that_can_win(model_name, refined, evaluated):
    """One ``evaluate_model``'s funnel: of the grid points of its searches
    (260, 140, 165 and 185), it refines those whose closed-form floor can
    still win (``refined``: on VGG-16, whose one-layer stages have exact
    floors, only those it expands), expands fewer (12, 12, 11 and 15: those
    whose refined floor, their least assignment bound, can still win), and
    evaluates one unit per stage search, as many as the stage-table misses
    (the entries under ``"stages"``), as a unit's key is its candidate's through the sequences and each
    selected unit fits."""
    from collections import Counter
    from turf.models import build_reference_model
    from turf.resources import evaluate_model

    model, table = build_reference_model(model_name), {}
    evaluate_model(model, STRATIX_V_5SGSD8, load_calibration(), table)
    items, expanded = {"vgg16": (260, 12), "resnet50": (140, 12), "mobilenetv1": (165, 11),
                       "mobilenetv2": (185, 15)}[model_name]
    assert table["funnel"] == Counter(items=items, refined=refined, expanded=expanded,
                                      evaluated=evaluated)
    assert evaluated == len(table["stages"])


@st.composite
def dse_stages(draw):
    """A stage the DSE searches, with a DSP budget, grid depth and largest
    parallelism: a standard, depthwise, pointwise or fully-connected layer
    on its own, or a block of each kind, with stride 1 or 2 on its spatial
    layers, on a map whose tiles the Winograd lanes may or may not divide."""
    def chans():
        return draw(st.sampled_from([1, 2, 3, 4, 8, 16, 24]))

    def stride():
        return draw(st.sampled_from([1, 2]))

    def std(k=None):
        k = k or draw(st.sampled_from([1, 3, 5]))
        return LayerSpec(LayerKind.STANDARD_CONV, kernel_size=k, stride=stride(),
                         padding=k // 2, out_channels=chans())

    def dw(k=None):
        k = k or draw(st.sampled_from([3, 5]))
        return LayerSpec(LayerKind.DEPTHWISE_CONV, kernel_size=k, stride=stride(),
                         padding=k // 2)

    def pw():
        return LayerSpec(LayerKind.POINTWISE_CONV, stride=stride(), out_channels=chans())

    kind = draw(st.sampled_from(["std", "dw", "pw", "fc", "dwsep", "bottleneck",
                                 "sep_bottleneck", "stacked"]))
    op = {"std": std, "dw": dw, "pw": pw,
          "fc": lambda: LayerSpec(LayerKind.FULLY_CONNECTED, out_channels=chans()),
          "dwsep": lambda: BlockSpec(BlockKind.DEPTHWISE_SEPARABLE, (dw(), pw())),
          "bottleneck": lambda: BlockSpec(BlockKind.BOTTLENECK, (pw(), std(3), pw()),
                                          has_shortcut=True),
          "sep_bottleneck": lambda: BlockSpec(BlockKind.SEPARABLE_BOTTLENECK,
                                              (pw(), dw(3), pw()), has_shortcut=True),
          "stacked": lambda: BlockSpec(BlockKind.STACKED, (std(), std()),
                                       has_shortcut=True)}[kind]()
    side = draw(st.sampled_from([7, 12, 15, 28, 30, 56]))
    shape = TensorShape(side, draw(st.sampled_from([side, 2 * side])), chans())
    platform = PlatformSpec(38.0, draw(st.sampled_from([64, 256, 1963])), 2567, 262400, 200.0)
    return op, shape, platform, draw(st.sampled_from([1, 2, 4])), \
        draw(st.sampled_from([8, 64]))


@settings(max_examples=200, deadline=None)
@given(dse_stages())
def test_floor_is_below_every_assignment_bound(stage):
    """Each grid point's ``BlockPlan`` is what ``plan_block`` derives for
    its config, and its floor is its passes times its busiest layer's cycles
    plus the last layer's fill, at most the pair of every sequence
    assignment, and equal to it on a one-layer stage.  Each assignment's
    bound, in ``seq_assignments`` order, is the cycles ``best_options``
    gives it, so the refined floor, their least pair, is the point's best
    candidate's (GOPS, cycles).  A (tile, spatial option) is dropped
    exactly when ``plan_block`` rejects its configs."""
    from turf.fusion import assignment_bounds, best_options, seq_assignments
    from turf.hw import WINOGRAD_M, layer_terms, winograd_eligible
    from turf.ir import layer_shapes
    from turf.resources import _parallelism_combos, _pow2_divisors, _tile_options

    op, shape, platform, grid_depth, max_parallel = stage
    layers = op.layers
    n = len(layers)
    chans = [s.channels for s in layer_shapes(op, shape)]
    kept = set()
    for floor, rl, plan in grid_points(op, shape, platform, max_parallel, grid_depth):
        cfg = plan.cfg
        kept.add((cfg.t_h, cfg.t_w, cfg.p_h))
        assert plan_block(op, shape, cfg) == plan
        fm = plan.schedule((Seq.FM,) * n)
        assert floor == (-rl.attainable_gops, plan.n_passes * (
            max(p.units * p.cycles_per_unit for p in fm) + fm[-1].fill))
        bounds = assignment_bounds(plan.by_seq, plan.n_passes)
        assert bounds == [best_options(plan, seqs).total_cycles
                          for seqs in seq_assignments(n)], cfg
        pairs = [(-rl.attainable_gops, bound) for bound in bounds]
        assert all(floor <= pair for pair in pairs), (cfg, floor, pairs)
        if n == 1:
            assert all(floor == pair for pair in pairs), (cfg, floor, pairs)

    eligible = tuple(winograd_eligible(l) for l in layers)
    spatial = [(1, (False,) * n)] + ([(WINOGRAD_M, eligible)] if any(eligible) else [])
    grids = [_pow2_divisors(max_parallel, c) for c in chans]
    for t_h, t_w in zip(_tile_options(shape.height), _tile_options(shape.width)):
        try:
            roofline(op, shape, platform, (t_h, t_w, chans[-1]))
        except InvalidTiling:
            continue
        for p, wino in spatial:
            terms = [layer_terms(layer, p, p, w, WINOGRAD_M) for layer, w in zip(layers, wino)]
            mults = tuple((t.a, t.b, t.c, layer.kind is LayerKind.DEPTHWISE_CONV)
                          for layer, t in zip(layers, terms))
            for ps in _parallelism_combos(mults, grids, platform.dsp_total, grid_depth):
                cfg = FusedDesignConfig(
                    t_h, t_w, tuple(chans[:-1]), chans[-1], p, p, ps[:-1], ps[-1],
                    (Seq.FM,) * n, (BufferOption.DOUBLE,) * (n - 1), wino)
                try:
                    plan_block(op, shape, cfg)
                    rejected = False
                except UnsupportedConfig:
                    rejected = True
                assert rejected == ((t_h, t_w, p) not in kept), cfg


def _eager_points(op, shape, platform, max_parallel, grid_depth) -> list:
    """Every grid point of a stage in grid order, each built whole with its
    floor as the search once built all of them before its first pop: per
    tile, spatial option and combo, (floor, roofline point, config, terms,
    per layer (tile, parallelism), the schedule of each layer's cycle counts
    and fill, passes)."""
    from turf.fusion import block_schedule, layer_tiles
    from turf.hw import WINOGRAD_M, cycle_counts, fill_cycles, layer_terms, winograd_eligible
    from turf.resources import _parallelism_combos, _pow2_divisors, _tile_options

    layers, n = op.layers, len(op.layers)
    chans = [s.channels for s in layer_shapes(op, shape)]
    grids = tuple(tuple(_pow2_divisors(max_parallel, c)) for c in chans)
    eligible = tuple(winograd_eligible(l) for l in layers)
    spatial = [(1, (False,) * n)] + ([(WINOGRAD_M, eligible)] if any(eligible) else [])
    points = []
    for t_h, t_w in zip(_tile_options(shape.height), _tile_options(shape.width)):
        try:
            rl = roofline(op, shape, platform, (t_h, t_w, chans[-1])).fused
        except InvalidTiling:
            continue
        tiles = [(*tile, c, f) for tile, c, f in
                 zip(layer_tiles(layers, t_h, t_w), chans, chans[1:])]
        passes = -(-shape.height // t_h) * -(-shape.width // t_w)
        for p, wino in spatial:
            if any(th % p or tw % p for th, tw, *_ in tiles):
                continue
            terms = tuple(layer_terms(l, p, p, w, WINOGRAD_M) for l, w in zip(layers, wino))
            mults = tuple((t.a, t.b, t.c, l.kind is LayerKind.DEPTHWISE_CONV)
                          for l, t in zip(layers, terms))
            for ps in _parallelism_combos(mults, grids, platform.dsp_total, grid_depth):
                hws = [(tile, (p, p, c, f)) for tile, c, f in zip(tiles, ps, ps[1:])]
                counts = [cycle_counts(l, *hw) for l, hw in zip(layers, hws)]
                fills = [fill_cycles(t, tile[1], p_c) for t, tile, p_c in zip(terms, tiles, ps)]
                points.append((
                    (-rl.attainable_gops, passes * (max(c[0] for c in counts) + fills[-1])), rl,
                    FusedDesignConfig(t_h, t_w, tuple(chans[:-1]), chans[-1], p, p, ps[:-1],
                                      ps[-1], (Seq.FM,) * n, (BufferOption.DOUBLE,) * (n - 1),
                                      wino),
                    terms, hws, block_schedule(layers, counts, fills), passes))
    return points


def _check_lazy_floors(op, shape, platform, max_parallel, grid_depth):
    """The items ``_planned_points`` yields, scheduled and planned as
    ``design_gen`` does (``grid_points``), are the eagerly built grid in
    grid order, and each plan is what ``plan_block`` derives for its
    config.  Each is queued under the floor recomputed from the point:
    passes · (max_i busy_i + ``hw.fill_cycles`` of the last layer's terms,
    T_w and P_c), busy_i being layer i's units times cycles per unit under
    filter-major, which is its ``hw.cycle_counts`` compute cycles."""
    from turf.hw import cycle_counts, fill_cycles

    points = grid_points(op, shape, platform, max_parallel, grid_depth)
    assert [(floor, rl, p.cfg, p.terms, [(hw.tile, hw.parallelism) for hw in p.hws],
             p.by_seq, p.n_passes) for floor, rl, p in points] == \
        _eager_points(op, shape, platform, max_parallel, grid_depth)
    for floor, rl, p in points:
        assert plan_block(op, shape, p.cfg) == p
        busy = [s.units * s.cycles_per_unit for s in p.by_seq[0]]
        assert busy == [cycle_counts(l, hw.tile, hw.parallelism)[0]
                        for l, hw in zip(op.layers, p.hws)]
        assert floor == (-rl.attainable_gops, p.n_passes * (
            max(busy) + fill_cycles(p.terms[-1], p.hws[-1].t_w, p.hws[-1].p_c)))


@pytest.mark.parametrize("model_name", ["vgg16", "resnet50", "mobilenetv1", "mobilenetv2"])
def test_lazy_floors_are_the_eager_grid_on_reference_models(model_name):
    from turf.ir import has_pipeline
    from turf.models import build_reference_model

    for stage in build_reference_model(model_name).stages:
        if has_pipeline(stage.op):
            _check_lazy_floors(stage.op, stage.input_shape, STRATIX_V_5SGSD8, 64, 4)


@settings(max_examples=200, deadline=None)
@given(dse_stages())
def test_lazy_floors_are_the_eager_grid(stage):
    _check_lazy_floors(*stage)


@st.composite
def stage_pairs(draw):
    """Two ``dse_stages``: drawn apart, or a stage and a copy of it whose
    parallelism walk differs only in a depthwise flag (a standard and a
    depthwise convolution of one kernel have the same multiplier terms), in
    a kernel, in the channel grids (the largest parallelism), in the DSP
    budget or in the grid depth."""
    first = draw(dse_stages())
    op, shape, platform, grid_depth, max_parallel = first
    how = draw(st.sampled_from(["apart", "depthwise", "kernel", "grid", "dsp", "depth"]))
    if how == "apart":
        return first, draw(dse_stages())
    if how == "grid":
        return first, (op, shape, platform, grid_depth, {8: 64, 64: 8}[max_parallel])
    if how == "dsp":
        dsp = draw(st.sampled_from([d for d in (64, 256, 1963) if d != platform.dsp_total]))
        return first, (op, shape, platform._replace(dsp_total=dsp), grid_depth, max_parallel)
    if how == "depth":
        depth = draw(st.sampled_from([d for d in (1, 2, 4) if d != grid_depth]))
        return first, (op, shape, platform, depth, max_parallel)
    layers = list(op.layers)
    i = draw(st.sampled_from(range(len(layers))))
    layer = layers[i]
    assume(layer.kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV))
    if how == "depthwise":
        kind = {LayerKind.STANDARD_CONV: LayerKind.DEPTHWISE_CONV,
                LayerKind.DEPTHWISE_CONV: LayerKind.STANDARD_CONV}[layer.kind]
        channels = layer_shapes(op, shape)[i].channels
        assume(kind is LayerKind.STANDARD_CONV or layer.out_channels == channels)
        layers[i] = layer._replace(kind=kind, out_channels=None if kind is
                                   LayerKind.DEPTHWISE_CONV else channels)
        block_kind = {BlockKind.BOTTLENECK: BlockKind.SEPARABLE_BOTTLENECK,
                      BlockKind.SEPARABLE_BOTTLENECK: BlockKind.BOTTLENECK}
    else:
        k = draw(st.sampled_from([k for k in (1, 3, 5) if k != layer.kernel_size]))
        layers[i] = layer._replace(kernel_size=k, padding=k // 2)
        block_kind = {}
    if len(layers) == 1:
        return first, (LayerSpec(*layers[0]), shape, platform, grid_depth, max_parallel)
    try:
        other = BlockSpec(block_kind.get(op.kind, op.kind), [LayerSpec(*l) for l in layers],
                          op.has_shortcut)
    except ShapeMismatch:
        assume(False)  # no block kind has these layers
    return first, (other, shape, platform, grid_depth, max_parallel)


@settings(max_examples=200, deadline=None)
@given(stage_pairs())
def test_a_shared_walk_table_picks_what_fresh_ones_pick(pair):
    """``design_gen`` on two stages with one table of parallelism walks
    picks what it picks with a fresh table for each, and the grid
    (``_planned_points``) is the same: a walk is kept under every input it
    reads."""
    def search(stage, walks):
        op, shape, platform, grid_depth, max_parallel = stage
        grid = [plan.cfg for _, _, plan in grid_points(
            op, shape, platform, max_parallel, grid_depth, walks)]
        try:
            return grid, design_gen(op, shape, platform, load_calibration(), grid_depth,
                                    max_parallel, {"walks": walks})
        except Infeasible as exc:
            return grid, f"Infeasible: {exc}"

    shared = {}
    assert [search(stage, shared) for stage in pair] == [search(stage, {}) for stage in pair]


def test_dse_simulates_few_passes(tmp_path, monkeypatch):
    """``dse`` on ResNet-50 simulates 2 passes (78 when every option set
    was simulated up to the floor, 4 while each unit that tied the best
    (GOPS, cycles) pair was evaluated): the others either cannot make a
    streaming producer wait, so the bound is their makespan, or are
    bounded above the floor behind an option that reaches it."""
    import json
    import turf.fusion
    from turf.cli import main
    from turf.ir import model_to_json
    from turf.models import build_reference_model

    model_path = tmp_path / "resnet50.json"
    model_path.write_text(json.dumps(model_to_json(build_reference_model("resnet50"))))
    simulated = []
    orig = turf.fusion._simulate_pass
    monkeypatch.setattr(turf.fusion, "_simulate_pass",
                        lambda *args: simulated.append(1) or orig(*args))
    assert main(["dse", str(model_path), "--out", str(tmp_path / "dse.json")]) == 0
    assert len(simulated) == 2


def test_wide_model_is_rejected_without_simulating(tmp_path, monkeypatch, capsys):
    """A one-stage ResNet-50 ``res2_1`` model whose first two layers have
    2**16 output channels fits no design: ``dse`` exits 1 with the same
    ``Infeasible`` count of 200 candidates, and simulates no pass, as each
    candidate that would simulate one is over the BRAM with its smallest
    buffers already (100 passes, each walking units that grow with the
    channels, before that check)."""
    import json
    import turf.fusion
    from turf.cli import main
    from turf.ir import model_to_json
    from turf.models import build_reference_model

    stage = model_to_json(build_reference_model("resnet50"))["stages"][2]
    assert stage["name"] == "res2_1"
    for layer in stage["block"]["layers"][:2]:
        layer["out_channels"] = 2 ** 16
    model_path = tmp_path / "wide.json"
    model_path.write_text(json.dumps({"base": "Custom", "stages": [stage]}))
    simulated = []
    orig = turf.fusion._simulate_pass
    monkeypatch.setattr(turf.fusion, "_simulate_pass",
                        lambda *args: simulated.append(1) or orig(*args))
    assert main(["dse", str(model_path), "--out", str(tmp_path / "dse.json")]) == 1
    assert capsys.readouterr().err == "Infeasible: no feasible candidate among 200\n"
    assert simulated == []


@pytest.mark.parametrize("argv, model_name, walks", [
    (["dse"], "resnet50", 4), (["dse"], "vgg16", 6),
    (["explore", "--exhaustive", "--min-acc", "0", "--min-gops", "1", "--model"],
     "resnet50", 6)])
def test_each_distinct_walk_runs_once_per_command(tmp_path, monkeypatch, argv,
                                                  model_name, walks):
    """A command runs each distinct parallelism walk once: 4, 6 and 6 walks
    on these three commands, which ran 18, 21 and 34 when each stage search
    walked its own grids.  A second command walks them again, as the table
    is the command's."""
    import json
    import turf.resources
    from turf.cli import main
    from turf.ir import model_to_json
    from turf.models import build_reference_model

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_to_json(build_reference_model(model_name))))
    walked = []
    orig = turf.resources._parallelism_combos
    monkeypatch.setattr(turf.resources, "_parallelism_combos",
                        lambda *args: walked.append(1) or orig(*args))
    for runs in (1, 2):
        assert main(argv + [str(model_path), "--out", str(tmp_path / "out.json")]) == 0
        assert len(walked) == runs * walks


class TestStageCache:
    def test_tables_with_one_source_and_other_coefficients_kept_apart(self, tmp_path):
        """Stage designs live in one command's table: two ``dse`` runs in one
        process, with calibration tables read from the same path but holding
        different coefficients, report different ALMs, each what a fresh
        table gives."""
        import json
        from turf.cli import main
        from turf.ir import model_to_json
        from turf.models import build_reference_model
        from turf.resources import evaluate_model

        model = build_reference_model("vgg16")
        model_path = tmp_path / "vgg16.json"
        model_path.write_text(json.dumps(model_to_json(model)))
        table_path = tmp_path / "alm.json"
        reported = []
        for scale in (1, 3):
            alm = {kind: {k: scale * v for k, v in c.items()}
                   for kind, c in load_calibration().alm.items()}
            table_path.write_text(json.dumps({"alm": alm}))
            out = tmp_path / f"dse_{scale}.json"
            assert main(["dse", str(model_path), "--calibration", str(table_path),
                         "--out", str(out)]) == 0
            reported.append(json.loads(out.read_text())["selected"]["alm"])
            table = CalibrationTable(alm)
            assert reported[-1] == \
                evaluate_model(model, STRATIX_V_5SGSD8, table, {}).resources.alm_used
        assert reported[0] != reported[1]


@pytest.mark.parametrize("model_name", ["resnet50", "mobilenetv2"])
def test_model_design_aggregates_its_stages(model_name):
    """A whole-model design holds one candidate per stage with a pipeline;
    its cycles are their sum and its resources their per-field maximum."""
    from turf.models import build_reference_model
    from turf.ir import has_pipeline
    from turf.resources import ResourceEstimate, evaluate_model

    model = build_reference_model(model_name)
    design = evaluate_model(model, STRATIX_V_5SGSD8, load_calibration(), {})
    assert [row.candidate is not None for row in design.stages] \
        == [has_pipeline(stage.op) for stage in model.stages]
    chosen = [row.candidate for row in design.stages if row.candidate is not None]
    assert design.total_cycles == sum(c.total_cycles for c in chosen)
    assert design.resources == ResourceEstimate(
        max(c.resources.dsp_used for c in chosen),
        max(c.resources.bram_used for c in chosen),
        max(c.resources.alm_used for c in chosen))


def test_dse_stage_cycles_are_what_simulate_reports():
    """Simulating the ``dse``-selected config of each of the 69 pipelined
    stages of the four reference models gives the candidate's cycles."""
    from turf.fusion import simulate_fused
    from turf.models import build_reference_model
    from turf.resources import evaluate_model

    checked = 0
    for name in ("vgg16", "resnet50", "mobilenetv1", "mobilenetv2"):
        model = build_reference_model(name)
        design = evaluate_model(model, STRATIX_V_5SGSD8, load_calibration(), {})
        for stage, row in zip(model.stages, design.stages):
            if (cand := row.candidate) is not None:
                plan = plan_block(stage.op, stage.input_shape, cand.cfg)
                assert simulate_fused(plan).total_cycles == cand.total_cycles, stage.name
                checked += 1
    assert checked == 69
