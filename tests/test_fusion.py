"""Fused-block simulation: hand-traced oracles, ordering claims, bounds,
and tiling overhead against a brute-force pixel counter."""

import itertools
import json
import math
import random
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (dw_conv, dwsep_block, layers_form, pw_conv, stacked_block,
                      std_conv)
from turf import fusion
from turf.errors import (InefficientConfig, InvalidTiling, PortMismatch,
                         ShapeMismatch, SimDeadlock, UnsupportedConfig)
from turf.fusion import (FusedDesignConfig, SeqCandidate, _buffer_caps,
                         _simulate_pass, best_options, config_to_json,
                         derive_layer_configs, enumerate_sequences, plan_block,
                         simulate_fused, tiling_overhead)
from turf.hw import BufferOption, Seq, cycle_counts
from turf.inspection import config_from_json
from turf.ir import BlockKind, BlockSpec, LayerKind, LayerSpec, TensorShape, layer_shapes
from turf.resources import WORD_BYTES


def simulate(block, shape, cfg, include_fill=True, **kwargs):
    """``simulate_fused`` on ``cfg`` planned for ``block`` over ``shape``;
    ``include_fill=False`` zeroes every layer's pipeline fill first, as the
    hand-traced oracles assume."""
    plan = plan_block(block, shape, cfg)
    if not include_fill:
        plan = plan._replace(by_seq=tuple(tuple(p._replace(fill=0) for p in plans)
                                          for plans in plan.by_seq))
    return simulate_fused(plan, **kwargs)


def toy_two_layer(seqs, option, p_c=(2, 1), p_f=2):
    """Two equal-work layers: each 2 work units of 10 cycles.

    Layer 1: 5x2 spatial (10 positions) x ceil(4/2 channels)=... laid out so
    both layers run 2 units of exactly 10 cycles each.
    """
    conv1 = std_conv(2, k=1, padding=0)
    conv2 = std_conv(2, k=1, padding=0)
    block = BlockSpec(BlockKind.STACKED, (
        LayerSpec(LayerKind.STANDARD_CONV, kernel_size=3, out_channels=2, padding=1),
        LayerSpec(LayerKind.STANDARD_CONV, kernel_size=3, out_channels=2, padding=1)),
        has_shortcut=True)
    cfg = FusedDesignConfig(
        t_h=5, t_w=2, t_c=(2, 2), t_f=2, p_h=1, p_w=1,
        p_c=p_c, p_f=p_f, seqs=seqs, buffer_options=(option,),
        use_winograd=(False, False))
    return block, TensorShape(5, 2, 2), cfg


class TestHandTracedToy:
    """Layer 1 (FM): units u1, u2 of 10 cycles; layer 2 (CM): units of 10.

    With a double buffer the trace is: L1.u1 0-10, L1.u2 10-20 (slot free),
    L2.u1 10-20 (token 1 ready at 10), L2.u2 20-30.  Total 30 vs the
    40-cycle unfused sequential executions.
    """

    def test_fm_cm_double_is_30(self):
        block, shape, cfg = toy_two_layer((Seq.FM, Seq.CM), BufferOption.DOUBLE)
        report = simulate(block, shape, cfg, include_fill=False,
                                collect_events=True)
        assert report.total_cycles == 30
        assert [l.busy_cycles for l in report.layers] == [20, 20]
        starts = [e for e in report.events if e.event == "start"]
        assert [(e.time, e.layer, e.unit) for e in starts] \
            == [(0, 0, 0), (10, 0, 1), (10, 1, 0), (20, 1, 1)]

    def test_cm_cm_is_40(self):
        block, shape, cfg = toy_two_layer((Seq.CM, Seq.CM), BufferOption.MATCH_PREV)
        report = simulate(block, shape, cfg, include_fill=False)
        assert report.total_cycles == 40

    def test_single_buffer_serialises(self):
        block, shape, cfg = toy_two_layer((Seq.FM, Seq.CM), BufferOption.MATCH_PREV)
        report = simulate(block, shape, cfg, include_fill=False)
        assert report.total_cycles == 40  # producer stalls on the full slot
        assert report.layers[0].stall_cycles == 10

    def test_fig5_ordering(self):
        block, shape, cfg_fc = toy_two_layer((Seq.FM, Seq.CM), BufferOption.DOUBLE)
        _, _, cfg_cc = toy_two_layer((Seq.CM, Seq.CM), BufferOption.DOUBLE)
        fc = simulate(block, shape, cfg_fc, include_fill=False)
        cc = simulate(block, shape, cfg_cc, include_fill=False)
        assert fc.total_cycles < cc.total_cycles


class TestSingleLayer:
    def test_total_is_units_times_cycles_plus_fill(self):
        cfg = FusedDesignConfig(t_h=8, t_w=8, t_c=(4,), t_f=4, p_h=1, p_w=1,
                                p_c=(2,), p_f=2, seqs=(Seq.CM,),
                                buffer_options=(), use_winograd=(False,))
        # a bare layer is its own one-layer block
        blk = dw_conv()
        report = simulate(blk, TensorShape(8, 8, 4), cfg)
        cycles, units = 2 * 8 * 8, 2
        assert report.per_pass_cycles == cycles + report.fill_cycles
        no_fill = simulate(blk, TensorShape(8, 8, 4), cfg, include_fill=False)
        assert no_fill.total_cycles == cycles


class LayerChain:
    """An arbitrary layer chain with the block surface a plan reads; block
    kinds fix their layer lists, so random chains use this stand-in."""

    def __init__(self, layers):
        self.layers = tuple(layers)

    def output_shape(self, shape):
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape


def random_valid_config(rng: random.Random):
    """Random small block + valid fused config for property sweeps."""
    n = rng.choice([1, 2, 2, 3])
    chans = [rng.choice([2, 4, 8]) for _ in range(n + 1)]
    kinds = []
    layers = []
    for i in range(n):
        kind = rng.choice(["std", "pw", "dw"])
        if kind == "dw":
            chans[i + 1] = chans[i]
            layers.append(dw_conv())
        elif kind == "pw":
            layers.append(pw_conv(chans[i + 1]))
        else:
            layers.append(std_conv(chans[i + 1]))
        kinds.append(kind)
    blk = LayerChain(layers)

    size = rng.choice([4, 8, 12])
    p_of = lambda t: rng.choice([p for p in (1, 2, 4) if t % p == 0])
    p_c = tuple(p_of(c) for c in chans[:-1])
    p_f = p_of(chans[-1])
    # depthwise layers tie their output parallelism to their input's
    p_list = list(p_c) + [p_f]
    for i, kind in enumerate(kinds):
        if kind == "dw":
            p_list[i + 1] = p_list[i]
    seqs = tuple(rng.choice([Seq.FM, Seq.CM]) for _ in range(n))
    options = []
    for i in range(n - 1):
        valid = []
        for opt in BufferOption:
            try:
                from turf.hw import intermediate_buffer_words
                intermediate_buffer_words(seqs[i], seqs[i + 1],
                                          (size, size, chans[i + 1], 1),
                                          (1, 1, p_list[i + 1], 1), opt)
                valid.append(opt)
            except InefficientConfig:
                pass
        options.append(rng.choice(valid))
    cfg = FusedDesignConfig(
        t_h=size, t_w=size, t_c=tuple(chans[:-1]), t_f=chans[-1],
        p_h=1, p_w=1, p_c=tuple(p_list[:-1]), p_f=p_list[-1],
        seqs=seqs, buffer_options=tuple(options),
        use_winograd=(False,) * n)
    return blk, TensorShape(size, size, chans[0]), cfg


class TestProperties:
    def test_bounds_and_double_buffer_dominance(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(200):
            blk, shape, cfg = random_valid_config(rng)
            try:
                report = simulate(blk, shape, cfg, include_fill=False)
            except InefficientConfig:
                continue
            busy = [l.busy_cycles for l in report.layers]
            assert max(busy) <= report.per_pass_cycles <= sum(busy)
            # all-double never slower
            try:
                doubled = simulate(blk, shape, cfg.__class__(
                    **{**cfg._asdict(),
                       "buffer_options": tuple(BufferOption.DOUBLE
                                               for _ in cfg.buffer_options)}),
                    include_fill=False)
                assert doubled.per_pass_cycles <= report.per_pass_cycles
            except InefficientConfig:
                pass
            checked += 1
        assert checked >= 150

    def test_work_conservation(self):
        rng = random.Random(77)
        for _ in range(50):
            blk, shape, cfg = random_valid_config(rng)
            report = simulate(blk, shape, cfg, include_fill=False)
            chans = [s.channels for s in layer_shapes(blk, shape)]
            hw_cfgs = derive_layer_configs(blk, shape, cfg, chans)
            for layer, hw, row in zip(blk.layers, hw_cfgs, report.layers):
                cycles, fm_units, cm_units = cycle_counts(layer, hw.tile, hw.parallelism)
                assert row.busy_cycles == cycles
                assert row.work_units == (fm_units if row.seq is Seq.FM else cm_units)
                assert row.stall_cycles + row.busy_cycles \
                    <= report.per_pass_cycles

    def test_determinism_with_events(self):
        rng = random.Random(11)
        blk, shape, cfg = random_valid_config(rng)
        a = simulate(blk, shape, cfg, collect_events=True)
        b = simulate(blk, shape, cfg, collect_events=True)
        assert a == b


@st.composite
def planned_chains(draw):
    """A 2-3 layer chain of standard, pointwise and depthwise layers with a
    config whose channel parallelism divides every channel tile, on a map
    of one or two tiles a side."""
    kinds = draw(st.lists(st.sampled_from(["std", "pw", "dw"]), min_size=2,
                          max_size=3))
    chans = [2 ** draw(st.integers(0, 4))]
    pars = [2 ** draw(st.integers(0, chans[0].bit_length() - 1))]
    layers = []
    for kind in kinds:
        if kind == "dw":
            layers.append(dw_conv())
            chans.append(chans[-1])
            pars.append(pars[-1])  # depthwise keeps its channel lanes
            continue
        chans.append(2 ** draw(st.integers(0, 4)))
        pars.append(2 ** draw(st.integers(0, chans[-1].bit_length() - 1)))
        layers.append(pw_conv(chans[-1]) if kind == "pw" else std_conv(chans[-1]))
    size = draw(st.sampled_from([4, 8]))
    n = len(layers)
    cfg = FusedDesignConfig(
        t_h=size, t_w=size, t_c=tuple(chans[:-1]), t_f=chans[-1], p_h=1, p_w=1,
        p_c=tuple(pars[:-1]), p_f=pars[-1], seqs=(Seq.FM,) * n,
        buffer_options=(BufferOption.DOUBLE,) * (n - 1), use_winograd=(False,) * n)
    side = size * draw(st.sampled_from([1, 2]))
    return plan_block(LayerChain(layers), TensorShape(side, side, chans[0]), cfg)


@settings(max_examples=200, deadline=None)
@given(planned_chains())
def test_accepted_buffers_hold_what_the_sequences_need(plan):
    """Every buffer option that sizing accepts holds all of a boundary's
    tokens unless its producer is filter-major and its consumer
    channel-major, so both sides of a buffer that can fill stream and the
    simulator needs no check for a producer that never releases a token,
    whether either side is depthwise or not.  Every sequence assignment
    has a sized set that holds every token, which never makes a producer
    wait: ``best_options`` relies on both."""
    n = plan.cfg.num_layers
    for seqs in itertools.product((Seq.FM, Seq.CM), repeat=n):
        unlimited = 0
        for options in itertools.product(BufferOption, repeat=n - 1):
            try:
                buffers = _buffer_caps(plan, seqs, options)
            except InefficientConfig:
                continue
            unlimited += all(cap >= tokens for tokens, cap, _ in buffers)
            for i, (tokens, cap, _) in enumerate(buffers):
                if cap < tokens:
                    assert (seqs[i], seqs[i + 1]) == (Seq.FM, Seq.CM), (seqs, options, i)
        assert unlimited, seqs


@settings(max_examples=100, deadline=None)
@given(planned_chains())
def test_schedule_follows_the_sequence(plan):
    """A filter-major layer releases one token per unit and needs all of its
    input; a channel-major one takes one token per unit and releases at the
    end; a depthwise layer maps tokens one to one under either.  The
    sequence changes how a layer's cycles split into units, not the cycles
    or the fill."""
    for i, layer in enumerate(plan.layers):
        depthwise = layer.kind is LayerKind.DEPTHWISE_CONV
        fm, cm = (plan.schedule((seq,) * len(plan.layers))[i] for seq in (Seq.FM, Seq.CM))
        assert (fm.producer_stream, fm.consumer_stream) == (True, depthwise)
        assert (cm.producer_stream, cm.consumer_stream) == (depthwise, True)
        assert fm.units * fm.cycles_per_unit == cm.units * cm.cycles_per_unit
        assert fm.fill == cm.fill


@settings(max_examples=100, deadline=None)
@given(planned_chains())
def test_enumerated_numbers_are_what_the_simulator_reports(plan):
    """Each ``enumerate_sequences`` entry carries the cycles and buffer
    words that ``simulate_fused`` reports for its sequences and options."""
    for e in enumerate_sequences(plan):
        cfg = plan.cfg._replace(seqs=e.seqs, buffer_options=e.buffer_options)
        report = simulate_fused(plan._replace(cfg=cfg))
        assert e.total_cycles == report.total_cycles
        assert e.buffer_words == tuple(b.words for b in report.buffers)
        assert e.total_buffer_words == sum(b.words for b in report.buffers)


def exhaustive_best_options(plan, seqs):
    """Reference for ``best_options``: every buffer option that fits is
    simulated, in ``_OPTION_ORDER`` product order, and the lowest
    (cycles, words) kept, the first on ties."""
    plans = plan.schedule(seqs)
    best = None
    for options in itertools.product(fusion._OPTION_ORDER, repeat=len(seqs) - 1):
        try:
            caps = _buffer_caps(plan, seqs, options)
        except InefficientConfig:
            continue
        words = tuple(w for _, _, w in caps)
        key = (_simulate_pass(plans, caps, False)[0] * plan.n_passes, sum(words))
        if best is None or key < best[0]:
            best = (key, options, words)
    if best is None:
        return None
    (cycles, _), options, words = best
    return SeqCandidate(seqs, options, cycles, words)


@settings(max_examples=150, deadline=None)
@given(planned_chains())
def test_best_options_is_the_exhaustive_pick(plan):
    """``best_options`` returns the reference's pick on every sequence
    assignment, and its cycles are the passes times the floor
    ``_pass_lower_bound``, which it stops at."""
    for seqs in itertools.product((Seq.FM, Seq.CM), repeat=plan.cfg.num_layers):
        got = best_options(plan, seqs)
        assert got == exhaustive_best_options(plan, seqs), seqs
        assert got.total_cycles == plan.n_passes * fusion._pass_lower_bound(plan.schedule(seqs))


def test_a_set_that_might_deadlock_is_simulated(monkeypatch):
    """A set with a buffer below its tokens is taken only once simulation
    confirms its bound, so a set whose bound is the floor but which would
    deadlock raises ``SimDeadlock`` rather than being picked.  A one-token
    buffer before a filter-major consumer, which needs every token
    resident, adds nothing to ``_pass_bounds``; sizing never builds one, so
    it is patched in as the first set."""
    cfg = FusedDesignConfig(t_h=4, t_w=4, t_c=(8, 8), t_f=8, p_h=1, p_w=1,
                            p_c=(2, 2), p_f=2, seqs=(Seq.FM,) * 2,
                            buffer_options=(BufferOption.DOUBLE,),
                            use_winograd=(False,) * 2)
    plan = plan_block(LayerChain((pw_conv(8), pw_conv(8))), TensorShape(4, 4, 8), cfg)
    seqs, sized = (Seq.FM,) * 2, fusion._buffer_caps
    one_token = [(4, 1, 0)]
    floor = fusion._pass_lower_bound(plan.schedule(seqs))
    assert fusion._pass_bounds(list(zip(plan.schedule(seqs))), one_token) == [floor]
    assert best_options(plan, seqs).total_cycles == plan.n_passes * floor
    monkeypatch.setattr(fusion, "_buffer_caps", lambda plan, seqs, options:
                        one_token if options == (BufferOption.MATCH_PREV,)
                        else sized(plan, seqs, options))
    with pytest.raises(SimDeadlock):
        best_options(plan, seqs)


class TestEnumeration:
    def test_three_layer_block_gives_eight_combos(self):
        block = BlockSpec(BlockKind.BOTTLENECK,
                          (pw_conv(4), std_conv(4), pw_conv(8)),
                          has_shortcut=True)
        cfg = FusedDesignConfig(t_h=8, t_w=8, t_c=(8, 4, 4), t_f=8,
                                p_h=1, p_w=1, p_c=(2, 2, 2), p_f=2,
                                seqs=(Seq.FM,) * 3,
                                buffer_options=(BufferOption.DOUBLE,) * 2,
                                use_winograd=(False,) * 3)
        entries = enumerate_sequences(plan_block(block, TensorShape(8, 8, 8), cfg))
        assert len(entries) == 8
        assert {e.label for e in entries} \
            == {"".join(c) for c in itertools.product("FC", repeat=3)}
        # sorted by latency then footprint
        keys = [(e.total_cycles, e.total_buffer_words) for e in entries]
        assert keys == sorted(keys)

    def test_single_layer_gives_two(self):
        blk = std_conv(8)
        cfg = FusedDesignConfig(t_h=8, t_w=8, t_c=(4,), t_f=8, p_h=1, p_w=1,
                                p_c=(2,), p_f=2, seqs=(Seq.FM,),
                                buffer_options=(), use_winograd=(False,))
        entries = enumerate_sequences(plan_block(blk, TensorShape(8, 8, 4), cfg))
        assert [e.label for e in entries] == ["F", "C"]

    def test_toy_best_is_fm_cm_variant(self):
        block, shape, cfg = toy_two_layer((Seq.FM, Seq.FM), BufferOption.DOUBLE)
        entries = enumerate_sequences(plan_block(block, shape, cfg))
        assert entries[0].label == "FC"


@st.composite
def fused_configs(draw):
    """A fused config of one to three layers with arbitrary positive tiles,
    parallelism and Winograd flags."""
    n = draw(st.integers(1, 3))
    sizes = st.integers(1, 512)

    def entries(values, count):
        return tuple(draw(st.lists(values, min_size=count, max_size=count)))

    return FusedDesignConfig(
        t_h=draw(sizes), t_w=draw(sizes), t_c=entries(sizes, n), t_f=draw(sizes),
        p_h=draw(sizes), p_w=draw(sizes), p_c=entries(sizes, n), p_f=draw(sizes),
        seqs=entries(st.sampled_from(Seq), n),
        buffer_options=entries(st.sampled_from(BufferOption), n - 1),
        use_winograd=entries(st.booleans(), n),
        winograd_m=draw(st.sampled_from([2, 4])))


@settings(max_examples=60, deadline=None)
@given(fused_configs())
def test_config_documents_round_trip(cfg):
    """A config's document parses back to it, and its per-layer ``layers``
    form parses to the same config.  Without its Winograd flags, either
    form gives the config with every flag False."""
    doc = json.loads(json.dumps(config_to_json(cfg)))
    per_layer = layers_form(doc)
    assert config_from_json(doc) == config_from_json(per_layer) == cfg
    del doc["winograd"]
    for entry in per_layer["layers"]:
        del entry["winograd"]
    direct = cfg._replace(use_winograd=(False,) * cfg.num_layers)
    assert config_from_json(doc) == config_from_json(per_layer) == direct


class TestConfigValidation:
    def test_port_mismatch_rejected(self):
        with pytest.raises(PortMismatch):
            config_from_json({"layers": [
                {"tile": [8, 8, 4, 8], "parallelism": [1, 1, 2, 2], "seq": "FM"},
                {"tile": [8, 8, 8, 8], "parallelism": [1, 1, 4, 2], "seq": "CM"},
            ], "buffers": ["Double"]})

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(PortMismatch):
            config_from_json({"layers": [
                {"tile": [8, 8, 4, 8], "parallelism": [1, 1, 2, 2], "seq": "FM"},
                {"tile": [8, 8, 8, 8], "parallelism": [2, 1, 2, 2], "seq": "CM"},
            ], "buffers": ["Double"]})

    def test_flattened_form_encodes_matching(self):
        cfg = config_from_json({"layers": [
            {"tile": [8, 8, 4, 8], "parallelism": [1, 1, 2, 2], "seq": "FM"},
            {"tile": [8, 8, 8, 8], "parallelism": [1, 1, 2, 4], "seq": "CM"},
        ], "buffers": ["Double"]})
        assert cfg.p_c == (2, 2)
        assert cfg.p_f == 4
        round_trip = config_from_json(config_to_json(cfg))
        assert round_trip == cfg

    def test_inefficient_cm_cm_blocked_before_simulation(self):
        block = stacked_block(4, 4)
        cfg = FusedDesignConfig(t_h=8, t_w=8, t_c=(4, 4), t_f=4, p_h=1, p_w=1,
                                p_c=(2, 2), p_f=2, seqs=(Seq.CM, Seq.CM),
                                buffer_options=(BufferOption.MATCH_NEXT,),
                                use_winograd=(False, False))
        with pytest.raises(InefficientConfig):
            simulate(block, TensorShape(8, 8, 4), cfg)

    def test_input_channel_tiling_rejected(self):
        block = stacked_block(4, 4)
        cfg = FusedDesignConfig(t_h=8, t_w=8, t_c=(2, 4), t_f=4, p_h=1, p_w=1,
                                p_c=(2, 2), p_f=2, seqs=(Seq.FM, Seq.CM),
                                buffer_options=(BufferOption.DOUBLE,),
                                use_winograd=(False, False))
        with pytest.raises(UnsupportedConfig):
            simulate(block, TensorShape(8, 8, 4), cfg)


def back(region, layer, size):
    """Input rows of ``layer`` that its output rows [a, b) read, clipped to
    the map of ``size`` rows."""
    a, b = region
    lo = a * layer.stride - layer.padding
    hi = (b - 1) * layer.stride + layer.kernel_size - layer.padding
    return max(0, lo), min(size, hi)


def brute_force_tiling(block, input_shape, tile):
    """Extra off-chip input bytes of spatial tiling, by marking pixels: walk
    each output tile back to the block input, count how often each input
    pixel is fetched, and add up every fetch after a pixel's first."""
    layers = block.layers
    shapes = [input_shape]
    for layer in layers:
        shapes.append(layer.output_shape(shapes[-1]))

    # output tiles are the input tile shrunk by the block's stride
    stride = math.prod(layer.stride for layer in layers)
    th_out, tw_out = (max(1, -(-t // stride)) for t in tile)
    out_h, out_w = shapes[-1].height, shapes[-1].width
    fetches = {}  # input pixel -> times fetched
    for ty in range(0, out_h, th_out):
        for tx in range(0, out_w, tw_out):
            rows = (ty, min(out_h, ty + th_out))
            cols = (tx, min(out_w, tx + tw_out))
            for j in range(len(layers) - 1, -1, -1):
                rows = back(rows, layers[j], shapes[j].height)
                cols = back(cols, layers[j], shapes[j].width)
            for y in range(*rows):
                for x in range(*cols):
                    fetches[(y, x)] = fetches.get((y, x), 0) + 1
    return sum(v - 1 for v in fetches.values()) * input_shape.channels * 2


def halo(block, input_shape, tile):
    """``tiling_overhead`` of ``block`` on ``input_shape``."""
    return tiling_overhead(block, layer_shapes(block, input_shape), tile)


def _receptive_field(block):
    rf = 1
    for layer in reversed(block.layers):
        rf = (rf - 1) * layer.stride + layer.kernel_size
    return rf


@st.composite
def tiled_blocks(draw):
    """A stacked, bottleneck or depthwise-separable block whose strided
    layer (stride 1 or 2) is a padded 3x3, so the tiles' input regions
    cover the map; a map of 8-20 pixels a side, often not a multiple of
    the tile; and a tile from the receptive field up to the whole map."""
    kind = draw(st.sampled_from(["stacked", "bottleneck", "dwsep"]))
    stride = draw(st.sampled_from([1, 2]))
    if kind == "stacked":
        block = BlockSpec(BlockKind.STACKED, (std_conv(4, stride=stride), std_conv(4)),
                          has_shortcut=True)
    elif kind == "bottleneck":
        block = BlockSpec(BlockKind.BOTTLENECK,
                          (pw_conv(4), std_conv(4, stride=stride), pw_conv(8)),
                          has_shortcut=True)
    else:
        block = BlockSpec(BlockKind.DEPTHWISE_SEPARABLE,
                          (dw_conv(stride=stride), pw_conv(8)))
    h, w = draw(st.integers(8, 20)), draw(st.integers(8, 20))
    rf = _receptive_field(block)
    tile = (draw(st.integers(rf, h)), draw(st.integers(rf, w)))
    return block, TensorShape(h, w, draw(st.integers(1, 4))), tile


@settings(max_examples=200, deadline=None)
@given(tiled_blocks())
def test_halo_words_match_pixel_marking(case):
    block, shape, tile = case
    assert halo(block, shape, tile) * WORD_BYTES \
        == brute_force_tiling(block, shape, tile)


def walked_tiling(block, input_shape, tile):
    """Halo words by definition: the rows each output tile grows back to on
    the block input, summed over the tiles, times the same sum for columns,
    less one full-map read; ``InvalidTiling`` for a tile under the receptive
    field."""
    if min(tile) < _receptive_field(block):
        raise InvalidTiling(tile)
    shapes = layer_shapes(block, input_shape)
    stride = math.prod(layer.stride for layer in block.layers)
    read = []
    for t, sizes in zip(tile, ([s.height for s in shapes], [s.width for s in shapes])):
        step = max(1, -(-t // stride))
        lines = 0
        for a in range(0, sizes[-1], step):
            region = (a, min(sizes[-1], a + step))
            for layer, size in zip(reversed(block.layers), reversed(sizes[:-1])):
                region = back(region, layer, size)
            lines += region[1] - region[0]
        read.append(lines)
    return max(0, read[0] * read[1] - input_shape.height * input_shape.width) \
        * input_shape.channels


@st.composite
def layer_chains(draw):
    """1-3 convolutions of kernel 1-7, stride 1-3 and padding 0-4 over a map
    of 1-60 pixels a side, and a tile up to the whole map.  A chain this
    free is no ``BlockSpec`` kind, and ``tiling_overhead`` reads only a
    block's layers, so a namespace holding them stands in for the block."""
    layers = draw(st.lists(st.builds(
        lambda k, s, p: LayerSpec(LayerKind.STANDARD_CONV, kernel_size=k, stride=s,
                                  out_channels=2, padding=p),
        st.integers(1, 7), st.integers(1, 3), st.integers(0, 4)), min_size=1, max_size=3))
    shape = TensorShape(draw(st.integers(1, 60)), draw(st.integers(1, 60)),
                        draw(st.integers(1, 3)))
    block = types.SimpleNamespace(layers=tuple(layers))
    try:
        layer_shapes(block, shape)
    except ShapeMismatch:
        assume(False)  # a layer's output would have no rows or columns
    tile = (draw(st.integers(1, shape.height)), draw(st.integers(1, shape.width)))
    return block, shape, tile


@settings(max_examples=500, deadline=None)
@given(layer_chains())
def test_halo_words_match_the_tile_walk(case):
    """The closed form equals the walk over every tile, on chains whose
    tiles need not cover the map, and raises exactly where it does."""
    block, shape, tile = case
    try:
        expected = walked_tiling(block, shape, tile)
    except InvalidTiling:
        with pytest.raises(InvalidTiling):
            halo(block, shape, tile)
    else:
        assert halo(block, shape, tile) == expected


class TestTilingOverhead:
    def test_full_map_is_free(self):
        block = stacked_block(4, 4)
        assert halo(block, TensorShape(16, 16, 4), (16, 16)) == 0

    def test_matches_brute_force_oracle(self):
        block = stacked_block(4, 4)
        shape = TensorShape(16, 16, 4)
        assert halo(block, shape, (8, 8)) * WORD_BYTES \
            == brute_force_tiling(block, shape, (8, 8))

    @pytest.mark.parametrize("tile", [(8, 8), (4, 4), (8, 4)])
    def test_oracle_agreement_various_tiles(self, tile):
        block = BlockSpec(BlockKind.BOTTLENECK,
                          (pw_conv(4), std_conv(4), pw_conv(8)),
                          has_shortcut=True)
        shape = TensorShape(16, 16, 8)
        assert halo(block, shape, tile) * WORD_BYTES \
            == brute_force_tiling(block, shape, tile)

    def test_pointwise_layers_add_no_halo(self):
        block = BlockSpec(BlockKind.DEPTHWISE_SEPARABLE,
                          (dw_conv(k=1, padding=0), pw_conv(8)))
        assert halo(block, TensorShape(16, 16, 4), (8, 8)) == 0

    def test_strided_pointwise_counts_against_one_full_map_read(self):
        """A stride-2 1x1 first layer (ResNet's downsampling bottleneck)
        never reads the map's last row and column, and the untiled traffic
        already counts them, so the overhead is measured against H x W."""
        block = BlockSpec(BlockKind.BOTTLENECK,
                          (LayerSpec(LayerKind.POINTWISE_CONV, out_channels=4, stride=2),
                           std_conv(4), pw_conv(8)), has_shortcut=True)
        # two 4-row output tiles read input rows [0, 9) and [6, 15)
        assert halo(block, TensorShape(16, 16, 2), (8, 8)) \
            == (18 * 18 - 16 * 16) * 2
        # tiles of a lone stride-2 1x1 read fewer pixels than one full map
        layer = LayerSpec(LayerKind.POINTWISE_CONV, out_channels=4, stride=2)
        assert halo(layer, TensorShape(8, 8, 1), (4, 4)) == 0

    def test_huge_map_in_closed_form(self):
        """A padded 3x3 over a 2**52-wide map: each of the M - 1 inner tile
        boundaries re-reads one row on either side."""
        h = 2 ** 52
        m = h // 16
        assert halo(std_conv(4), TensorShape(h, h, 4), (16, 16)) \
            == ((h + 2 * (m - 1)) ** 2 - h ** 2) * 4

    def test_tile_below_receptive_field_rejected(self):
        block = stacked_block(4, 4)  # receptive field 5
        with pytest.raises(InvalidTiling):
            halo(block, TensorShape(16, 16, 4), (4, 4))
