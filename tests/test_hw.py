"""Hardware building-module descriptors: width formulas, pipelines, cycle
counts, and the intermediate-buffer sizing table."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import closed_form_dsp, dw_conv, pipeline_dsp, pw_conv, std_conv, terms_of
from turf.errors import InefficientConfig, ShapeMismatch, UnsupportedConfig
from turf.chain import (input_buffer, line_buffer, output_buffer, winograd_input_transform,
                        winograd_output_transform, winograd_weight_transform)
from turf.hw import (WINOGRAD_TERMS, BufferOption, LayerHwConfig, ModuleKind, Seq,
                     cycle_counts, fill_cycles, instantiate_layer, intermediate_buffer_words,
                     layer_terms, module_widths, validate_winograd, winograd_eligible,
                     winograd_terms)
from turf.ir import LayerKind, LayerSpec
from turf.kernels import WINOGRAD_CONFIGS, transform_mult_counts, winograd_config


class TestWidthFormulas:
    def test_line_buffer_example(self):
        # single-lane line buffer with a 6-wide window
        desc = line_buffer(1, 1, 1, 6)
        assert desc.in_width == 1
        assert desc.out_width == 36

    def test_weight_transform_example(self):
        desc = winograd_weight_transform(2, 2, 3, 4)
        assert desc.in_width == 2 * 2 * 9
        assert desc.out_width == 2 * 2 * 36

    @settings(max_examples=150, deadline=None)
    @given(p_c=st.integers(1, 16), p_h=st.integers(1, 8), p_w=st.integers(1, 8),
           p_f=st.integers(1, 16), k=st.integers(1, 7), m=st.sampled_from([2, 4]))
    def test_published_tuples_hold(self, p_c, p_h, p_w, p_f, k, m):
        tk = m + k - 1
        lb = line_buffer(p_c, p_h, p_w, tk)
        assert lb.in_width == p_c * p_h * p_w
        assert lb.out_width == (tk + p_h - 1) * (tk + p_w - 1)

        ib = input_buffer(p_c, p_w)
        assert ib.in_width == ib.out_width == p_c * p_w
        ob = output_buffer(p_f, p_w)
        assert ob.in_width == ob.out_width == p_f * p_w

        it = winograd_input_transform(p_c, k, m)
        assert it.in_width == it.out_width == p_c * tk * tk
        wt = winograd_weight_transform(p_c, p_f, k, m)
        assert wt.in_width == p_c * p_f * k * k
        assert wt.out_width == p_c * p_f * tk * tk
        ot = winograd_output_transform(p_c, p_f, k, m)
        assert ot.in_width == p_c * p_f * tk * tk
        assert ot.out_width == p_c * p_f * m * m


class TestPipelines:
    def test_stream_width_chaining_direct(self):
        hw = LayerHwConfig((16, 16, 8, 16), (1, 1, 4, 4))
        pipe = instantiate_layer(std_conv(16), hw)
        pipe.check_chain()
        kinds = [m.kind for m in pipe.modules]
        assert kinds == [ModuleKind.INPUT_BUFFER, ModuleKind.LINE_BUFFER,
                         ModuleKind.DOT_PRODUCT_ARRAY, ModuleKind.OUTPUT_BUFFER]

    def test_pointwise_has_no_line_buffer(self):
        hw = LayerHwConfig((16, 16, 8, 16), (1, 1, 4, 4))
        pipe = instantiate_layer(pw_conv(16), hw)
        pipe.check_chain()
        assert ModuleKind.LINE_BUFFER not in [m.kind for m in pipe.modules]

    def test_winograd_chain(self):
        hw = LayerHwConfig((16, 16, 8, 16), (4, 4, 2, 2), use_winograd=True,
                           winograd_m=4)
        pipe = instantiate_layer(std_conv(16), hw)
        pipe.check_chain()
        kinds = [m.kind for m in pipe.modules]
        assert ModuleKind.WINOGRAD_INPUT_TRANSFORM in kinds
        assert ModuleKind.WINOGRAD_OUTPUT_TRANSFORM in kinds
        assert [m.kind for m in pipe.weight_path] \
            == [ModuleKind.WINOGRAD_WEIGHT_TRANSFORM]
        # weight transform feeds the dot array at its published width
        assert pipe.weight_path[0].out_width == 2 * 2 * 36

    @settings(max_examples=60, deadline=None)
    @given(p_c=st.sampled_from([1, 2, 4]), p_f=st.sampled_from([1, 2, 4]),
           kind=st.sampled_from(["std", "pw", "dw"]),
           wino=st.booleans())
    def test_chaining_property(self, p_c, p_f, kind, wino):
        layer = {"std": std_conv(8), "pw": pw_conv(8), "dw": dw_conv()}[kind]
        if wino and kind == "pw":
            wino = False
        spatial = 4 if wino else 1
        hw = LayerHwConfig((16, 16, 8, 8), (spatial, spatial, p_c, p_f),
                           use_winograd=wino, winograd_m=4)
        pipe = instantiate_layer(layer, hw)
        pipe.check_chain()  # raises on any width break

    def test_winograd_requires_k3_stride1(self):
        hw = LayerHwConfig((16, 16, 8, 16), (4, 4, 2, 2), use_winograd=True)
        with pytest.raises(UnsupportedConfig):
            instantiate_layer(std_conv(16, k=5), hw)
        with pytest.raises(UnsupportedConfig):
            instantiate_layer(pw_conv(16), hw)
        # one rule, standard or depthwise conv with K=3 and stride 1, for the
        # search's Winograd flags and the pipeline's check
        for kind, k, stride in itertools.product(LayerKind, (1, 3, 5), (1, 2)):
            try:
                layer = LayerSpec(kind, kernel_size=k, stride=stride, out_channels=None
                                  if kind is LayerKind.DEPTHWISE_CONV else 8)
            except ShapeMismatch:
                continue
            want = kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV) \
                and k == 3 and stride == 1
            assert winograd_eligible(layer) == want, layer
            try:
                validate_winograd(layer, 4, 4, 4)
            except UnsupportedConfig:
                assert not want, layer
            else:
                assert want, layer

    def test_parallelism_must_divide_tile(self):
        with pytest.raises(UnsupportedConfig):
            LayerHwConfig((16, 16, 8, 16), (1, 1, 3, 4))


class TestWinogradTerms:
    """``hw`` reads each Winograd instance's tile and transform constants as
    integers; the exact algebra of ``turf.kernels`` stays their reference."""

    @pytest.mark.parametrize("key", sorted(WINOGRAD_CONFIGS))
    def test_terms_are_the_algebras(self, key):
        cfg = WINOGRAD_CONFIGS[key]
        counts = transform_mult_counts(cfg)
        assert winograd_terms(*key) == (
            cfg.tile, (counts["input"], counts["weight"], counts["output"]))
        assert cfg.tile == cfg.m + cfg.r - 1

    def test_hw_and_kernels_accept_the_same_instances(self):
        assert set(WINOGRAD_TERMS) == set(WINOGRAD_CONFIGS)
        for m, r in itertools.product(range(1, 7), range(1, 6)):
            supported = (m, r) in WINOGRAD_CONFIGS
            for lookup in (winograd_terms, winograd_config):
                try:
                    lookup(m, r)
                except UnsupportedConfig:
                    assert not supported, (lookup.__name__, m, r)
                else:
                    assert supported, (lookup.__name__, m, r)

    @pytest.mark.parametrize("m", [3, 5])
    def test_an_unsupported_instance_names_the_supported_ones(self, m):
        message = "^" + re.escape(f"no Winograd instance F({m}^2, 3^2); "
                                  "supported: F(2^2,3^2), F(4^2,3^2)") + "$"
        hw = LayerHwConfig((2 * m, 2 * m, 4, 4), (m, m, 2, 2), True, m)
        with pytest.raises(UnsupportedConfig, match=message):
            instantiate_layer(std_conv(4), hw)
        with pytest.raises(UnsupportedConfig, match=message):
            layer_terms(std_conv(4), m, m, True, m)
        with pytest.raises(UnsupportedConfig, match=message):
            winograd_config(m)


class TestLayerHwConfig:
    """``LayerHwConfig``'s constructor checks each (tile, parallelism) axis,
    however it is called."""

    @pytest.mark.parametrize("axis", range(4), ids=lambda a: "hwcf"[a])
    @pytest.mark.parametrize("field", ["tile", "parallelism"])
    def test_entry_below_one_names_its_axis(self, field, axis):
        knobs = {"tile": [8, 8, 8, 8], "parallelism": [1, 1, 2, 2]}
        knobs[field][axis] = 0
        with pytest.raises(UnsupportedConfig) as exc:
            LayerHwConfig(tuple(knobs["tile"]), tuple(knobs["parallelism"]))
        assert str(exc.value) == f"tile/parallelism must be >= 1 (axis {'hwcf'[axis]})"

    def test_p_f_must_divide_t_f(self):
        with pytest.raises(UnsupportedConfig) as exc:
            LayerHwConfig((8, 8, 8, 8), (1, 1, 2, 3), use_winograd=False)
        assert str(exc.value) == "P_f=3 must divide T_f=8"

    def test_keyword_call_is_checked(self):
        with pytest.raises(UnsupportedConfig, match=r"^P_h=3 must divide T_h=8$"):
            LayerHwConfig(parallelism=(3, 1, 1, 1), tile=(8, 8, 8, 8))
        hw = LayerHwConfig(tile=(8, 4, 8, 8), parallelism=(4, 4, 2, 2), use_winograd=True)
        assert (hw.t_w, hw.p_c, hw.winograd_m) == (4, 2, 4)


@st.composite
def layer_configs(draw, kind, wino):
    """A ``kind`` layer with a config of any P_c, P_h/P_w and T_w, on the
    Winograd path or not.  Winograd draws mostly take a 3x3 stride-1 kernel
    and keep P_h = P_w = m, so both accepted and rejected ones occur."""
    k = draw(st.sampled_from([3, 3, 3, 1, 5]) if wino else st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 1, 2]))
    layer = {"std": lambda: std_conv(8, k=k, stride=stride),
             "dw": lambda: dw_conv(k, stride),
             "pw": lambda: pw_conv(8),
             "fc": lambda: LayerSpec(LayerKind.FULLY_CONNECTED, out_channels=8)}[kind]()
    m = draw(st.sampled_from([2, 4]))
    if wino:
        p_h = p_w = draw(st.sampled_from([m, m, m, 1]))
    else:
        p_h, p_w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p_c, p_f = draw(st.integers(1, 64)), draw(st.integers(1, 8))
    tile = (p_h * draw(st.integers(1, 4)), p_w * draw(st.integers(1, 32)),
            p_c * draw(st.integers(1, 3)), p_f)
    return layer, LayerHwConfig(tile, (p_h, p_w, p_c, p_f), use_winograd=wino,
                                winograd_m=m)


def _check_against_chain(kind, wino, closed, chain):
    """``closed(layer, hw)`` equals ``chain(layer, hw)``, or raises the same
    error, on ``layer_configs(kind, wino)``; returns whether each draw was
    accepted."""
    accepted = []

    def outcome(count, layer, hw):
        try:
            return count(layer, hw)
        except UnsupportedConfig as exc:
            return str(exc)

    @settings(max_examples=100, deadline=None)
    @given(layer_configs(kind, wino))
    def check(case):
        layer, hw = case
        want = outcome(chain, layer, hw)
        assert outcome(closed, layer, hw) == want
        accepted.append(not isinstance(want, str))

    check()
    return accepted


@pytest.mark.parametrize("wino", [False, True])
@pytest.mark.parametrize("kind", ["std", "dw", "pw", "fc"])
def test_closed_form_fill_is_the_pipeline_fill(kind, wino):
    """``fill_cycles`` equals the instantiated pipeline's fill latency, or raises
    the same error, on every pipelined layer kind, Winograd or not."""
    accepted = _check_against_chain(
        kind, wino, lambda l, h: fill_cycles(terms_of(l, h), h.t_w, h.p_c),
        lambda l, h: instantiate_layer(l, h).fill_latency)
    # only a standard or depthwise conv takes the Winograd path
    assert any(accepted) == (not wino or kind in ("std", "dw"))
    assert all(accepted) == (not wino)


TRANSFORMS = (ModuleKind.WINOGRAD_INPUT_TRANSFORM, ModuleKind.WINOGRAD_OUTPUT_TRANSFORM)


def _chain_terms(layer, hw):
    """(rows, window, transform fill, multipliers) read off the instantiated
    chain: the line buffer's K' (0 with none), the dot-product array's inputs
    per channel lane, the data transforms' summed latency, and
    ``pipeline_dsp``."""
    modules = instantiate_layer(layer, hw).modules
    rows = [m.cfg["K'"] for m in modules if m.kind is ModuleKind.LINE_BUFFER]
    array, = [m for m in modules if m.kind is ModuleKind.DOT_PRODUCT_ARRAY]
    return (rows[0] if rows else 0, array.in_width / hw.p_c,
            sum(m.latency for m in modules if m.kind in TRANSFORMS), pipeline_dsp(layer, hw))


@pytest.mark.parametrize("wino", [False, True])
@pytest.mark.parametrize("kind", ["std", "dw", "pw", "fc"])
def test_closed_form_terms_are_the_chain_constants(kind, wino):
    """``layer_terms``' rows, window and transform fill, and the multipliers
    its (a, b, c) give, equal the instantiated chain's, field by field, or
    raise the same error, on every pipelined layer kind, Winograd or not."""
    accepted = _check_against_chain(
        kind, wino, lambda l, h: (*terms_of(l, h)[:3], closed_form_dsp(l, h)), _chain_terms)
    assert any(accepted) == (not wino or kind in ("std", "dw"))
    assert all(accepted) == (not wino)


def _chain_widths(layer, hw):
    """(kind, in_width + out_width, replication) of each module of the
    instantiated chain, then of its weight path."""
    pipe = instantiate_layer(layer, hw)
    return tuple((m.kind, m.in_width + m.out_width, m.replication)
                 for m in (*pipe.modules, *pipe.weight_path))


@pytest.mark.parametrize("wino", [False, True])
@pytest.mark.parametrize("kind", ["std", "dw", "pw", "fc"])
def test_closed_form_widths_are_the_chain_widths(kind, wino):
    """``module_widths`` lists the instantiated chain's modules, then its
    weight path, with their kinds, summed stream widths and replications, in
    that order, or raises the same error, on every pipelined layer kind,
    Winograd or not.  So the ALMs ``estimate_resources`` sums from it are
    the chain's, term by term in the chain's order."""
    accepted = _check_against_chain(kind, wino, module_widths, _chain_widths)
    assert any(accepted) == (not wino or kind in ("std", "dw"))
    assert all(accepted) == (not wino)


class TestCycleCounts:
    def test_trip_count_product(self):
        assert cycle_counts(std_conv(32), (8, 8, 16, 32), (1, 1, 4, 4))[0] \
            == 4 * 8 * 8 * 8  # 2048

    def test_work_units_by_major_index(self):
        _, fm_units, cm_units = cycle_counts(std_conv(32), (8, 8, 16, 32), (1, 1, 4, 4))
        assert fm_units == 8   # 32/4 filter chunks
        assert cm_units == 4   # 16/4 channel chunks

    def test_winograd_spatial_trip_count(self):
        # 4 tiles instead of 64 pixels: the Winograd path runs at P_h = P_w = m
        assert cycle_counts(std_conv(4), (8, 8, 4, 4), (4, 4, 1, 1))[0] == 4 * 4 * 4

    def test_depthwise_drops_filter_trips(self):
        cycles, fm_units, cm_units = cycle_counts(dw_conv(), (8, 8, 16, 16), (1, 1, 4, 4))
        assert cycles == 4 * 8 * 8
        assert fm_units == cm_units == 4

    def test_cycles_divide_evenly_into_units(self):
        cycles, *units_by_seq = cycle_counts(std_conv(32), (8, 8, 16, 32), (1, 1, 4, 8))
        for units in units_by_seq:
            assert cycles % units == 0


class TestBufferWords:
    TILE = (1, 1)  # placeholders, overwritten per case

    @settings(max_examples=150, deadline=None)
    @given(t_h=st.integers(1, 64), t_w=st.integers(1, 64),
           t_c=st.integers(1, 512), p_c=st.integers(1, 64),
           prev=st.sampled_from([Seq.FM, Seq.CM]),
           cur=st.sampled_from([Seq.FM, Seq.CM]),
           double=st.booleans())
    def test_sizing_table(self, t_h, t_w, t_c, p_c, prev, cur, double):
        # the producer-side options follow the published table:
        #   (FM,CM) P_c T_h T_w   (CM,FM) T_c T_h T_w
        #   (FM,FM) P_c T_h T_w   (CM,CM) T_c T_h T_w
        # doubled by double buffering; a filter-major consumer must hold
        # its whole input tile
        tile = (t_h, t_w, t_c, 1)
        par = (1, 1, p_c, 1)
        option = BufferOption.DOUBLE if double else BufferOption.MATCH_PREV
        base = p_c * t_h * t_w if prev is Seq.FM else t_c * t_h * t_w
        if cur is Seq.FM and base < t_c * t_h * t_w:
            with pytest.raises(InefficientConfig):
                intermediate_buffer_words(prev, cur, tile, par, option)
        else:
            got = intermediate_buffer_words(prev, cur, tile, par, option)
            assert got == (2 * base if double else base)

    def test_table_examples(self):
        # previous layer filter-major, next channel-major, single buffer
        assert intermediate_buffer_words(Seq.FM, Seq.CM, (8, 8, 99, 1), (1, 1, 4, 1),
                                         BufferOption.MATCH_PREV) == 256
        # previous channel-major, doubled
        assert intermediate_buffer_words(Seq.CM, Seq.FM, (8, 8, 16, 1), (1, 1, 4, 1),
                                         BufferOption.DOUBLE) == 2048

    def test_cm_cm_small_buffer_rejected(self):
        with pytest.raises(InefficientConfig):
            intermediate_buffer_words(Seq.CM, Seq.CM, (8, 8, 16, 1),
                                      (1, 1, 4, 1), BufferOption.MATCH_NEXT)

    def test_fm_consumer_needs_full_tile(self):
        # a filter-major consumer re-reads its whole input, so a chunk-sized
        # buffer is too small
        with pytest.raises(InefficientConfig):
            intermediate_buffer_words(Seq.FM, Seq.FM, (8, 8, 16, 1),
                                      (1, 1, 4, 1), BufferOption.MATCH_PREV)
        # unless the tile is a single chunk
        words = intermediate_buffer_words(Seq.FM, Seq.FM, (8, 8, 4, 1),
                                          (1, 1, 4, 1), BufferOption.MATCH_PREV)
        assert words == 4 * 8 * 8

    def test_valid_options_match_table(self):
        tile, par = (8, 8, 16, 1), (1, 1, 4, 1)
        assert intermediate_buffer_words(Seq.FM, Seq.CM, tile, par,
                                         BufferOption.MATCH_PREV) == 256
        assert intermediate_buffer_words(Seq.FM, Seq.CM, tile, par,
                                         BufferOption.DOUBLE) == 512
        assert intermediate_buffer_words(Seq.FM, Seq.CM, tile, par,
                                         BufferOption.MATCH_NEXT) == 1024
        assert intermediate_buffer_words(Seq.CM, Seq.FM, tile, par,
                                         BufferOption.MATCH_PREV) == 1024
        assert intermediate_buffer_words(Seq.CM, Seq.CM, tile, par,
                                         BufferOption.MATCH_PREV) == 1024
