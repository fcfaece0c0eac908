"""The DSP prefilter against the pipeline-derived count and the per-combo
loop it replaced.

``conftest.pipeline_dsp`` counts one layer's multipliers the way the
prefilter first did, from the module chain ``instantiate_layer`` emits, and
``conftest.closed_form_dsp`` (``hw.layer_dsp`` on ``hw.layer_terms``) must
give the same count or raise the same error.  ``reference_grid`` is the earlier
prefilter of ``design_candidates``: for every (tile, spatial option) it
derives each parallelism combo's layer configs and sums their multipliers.
The configs ``resources._planned_points`` yields must keep the same combos,
in the same order, for every tile and spatial option, and
``_parallelism_combos`` (which drops prefixes over budget) the same combos
as the filtered full product.
"""

from __future__ import annotations

import functools
import itertools
import math

import pytest

from conftest import closed_form_dsp, grid_points, pipeline_dsp
from turf.errors import PortMismatch, ShapeMismatch, UnsupportedConfig
from turf.fusion import FusedDesignConfig, derive_layer_configs
from turf.hw import BufferOption, LayerHwConfig, Seq, instantiate_layer, layer_terms
from turf.ir import LayerKind, LayerSpec, TensorShape
from turf.models import build_reference_model
from turf.resources import (STRATIX_V_5SGSD8, _parallelism_combos, _pow2_divisors,
                            _tile_options)

# a grid depth above every stage's combo count: the cut keeps every combo
ALL = 10 ** 6


def _quick_dsp(block, input_shape, cfg):
    return sum(pipeline_dsp(layer, hw) for layer, hw in
               zip(block.layers, derive_layer_configs(block, input_shape, cfg,
                                                      _channels(block, input_shape))))


def _channels(block, input_shape):
    chans = [input_shape.channels]
    for layer in block.layers:
        chans.append(layer.output_shape(TensorShape(
            input_shape.height, input_shape.width, chans[-1])).channels)
    return chans


def _spatial_options(block, winograd_m=4):
    """(P_h, P_w, per-layer Winograd flags) as ``_planned_points`` derives them."""
    n = len(block.layers)
    wino_ok = tuple(l.kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV)
                    and l.kernel_size == 3 and l.stride == 1 for l in block.layers)
    return [(1, 1, (False,) * n)] + ([(winograd_m, winograd_m, wino_ok)]
                                     if any(wino_ok) else [])


def reference_grid(block, input_shape, max_parallel=64, winograd_m=4):
    """{(t_h, t_w, p_h, p_w): [(combo, dsp)]} for every combo whose layer
    configs derive, in product order, from one ``_quick_dsp`` per combo."""
    n = len(block.layers)
    chans = _channels(block, input_shape)
    grids = [_pow2_divisors(max_parallel, c) for c in chans]
    out = {}
    for (t_h, t_w), (p_h, p_w, wino) in itertools.product(
            zip(_tile_options(input_shape.height), _tile_options(input_shape.width)),
            _spatial_options(block, winograd_m)):
        if t_h % p_h or t_w % p_w:
            continue
        kept = out.setdefault((t_h, t_w, p_h, p_w), [])
        for ps in itertools.product(*grids):
            cfg = FusedDesignConfig(
                t_h=t_h, t_w=t_w, t_c=tuple(chans[:-1]), t_f=chans[-1],
                p_h=p_h, p_w=p_w, p_c=tuple(ps[:-1]), p_f=ps[-1],
                seqs=(Seq.FM,) * n, buffer_options=(BufferOption.DOUBLE,) * (n - 1),
                use_winograd=wino, winograd_m=winograd_m)
            try:
                kept.append((ps, _quick_dsp(block, input_shape, cfg)))
            except (UnsupportedConfig, PortMismatch):
                continue
    return out


def _reference_combos(rows, dsp_total, grid_depth):
    combos = sorted((ps for ps, dsp in rows if dsp <= dsp_total),
                    key=lambda ps: (-math.prod(ps), ps))
    if not combos:
        return combos
    floor = combos[-1]
    combos = combos[:grid_depth]
    return combos if floor in combos else combos + [floor]


def _grid_combos(block, input_shape, dsp_total, grid_depth):
    out = {}
    platform = STRATIX_V_5SGSD8._replace(dsp_total=dsp_total)
    for _, _, plan in grid_points(block, input_shape, platform, 64, grid_depth):
        cfg = plan.cfg
        out.setdefault((cfg.t_h, cfg.t_w, cfg.p_h, cfg.p_w), []).append(
            (*cfg.p_c, cfg.p_f))
    return out


STAGES = [("vgg16", "conv3_1"), ("resnet50", "res2_1"), ("resnet50", "res3_1"),
          ("mobilenetv1", "dwsep3"), ("mobilenetv2", "invres3")]


@functools.lru_cache(maxsize=None)
def _stage(model_name, stage_name):
    """(block, input shape, reference grid) of one reference-model stage."""
    model = build_reference_model(model_name)
    stage = next(s for s in model.stages if s.name == stage_name)
    return stage.op, stage.input_shape, reference_grid(stage.op, stage.input_shape)


@pytest.mark.parametrize("model_name,stage_name", STAGES)
def test_table_keeps_the_per_combo_loop_survivors(model_name, stage_name):
    block, shape, reference = _stage(model_name, stage_name)
    for dsp_total in (STRATIX_V_5SGSD8.dsp_total, 256):
        for grid_depth in (4, ALL):
            got = _grid_combos(block, shape, dsp_total, grid_depth)
            want = {key: combos for key, rows in reference.items()
                    if (combos := _reference_combos(rows, dsp_total, grid_depth))}
            assert list(got.items()) == list(want.items()), (dsp_total, grid_depth)


def test_res3_1_winograd_tile_28_rejected_whole():
    # the stride-2 1x1 halves a 28-row tile to 14, not a multiple of P_h = 4
    block, shape, reference = _stage("resnet50", "res3_1")
    assert reference[(28, 28, 4, 4)] == []
    assert reference[(56, 56, 4, 4)]
    got = _grid_combos(block, shape, STRATIX_V_5SGSD8.dsp_total, ALL)
    assert (28, 28, 4, 4) not in got and (56, 56, 4, 4) in got


def _outcome(count, layer, hw):
    try:
        return count(layer, hw)
    except UnsupportedConfig as exc:
        return type(exc)


@pytest.mark.parametrize("kind", list(LayerKind), ids=lambda k: k.value)
def test_closed_form_equals_pipeline_count(kind):
    checked = 0
    for k, stride in itertools.product((1, 3, 5), (1, 2)):
        try:
            layer = LayerSpec(kind, kernel_size=k, stride=stride,
                              out_channels=None if kind is LayerKind.DEPTHWISE_CONV else 8)
        except ShapeMismatch:
            continue  # e.g. a pointwise layer with K > 1 cannot be declared
        for (p_h, p_w), (wino, m), p_c, p_f in itertools.product(
                ((1, 1), (2, 2), (4, 4)), ((False, 4), (True, 2), (True, 4)),
                (1, 2, 4, 8), (1, 2, 4, 8)):
            hw = LayerHwConfig((8, 8, 8, 8), (p_h, p_w, p_c, p_f),
                               use_winograd=wino, winograd_m=m)
            want = _outcome(pipeline_dsp, layer, hw)
            assert _outcome(closed_form_dsp, layer, hw) == want, (layer, hw)
            checked += want is not UnsupportedConfig
    # only convolution and fully-connected layers have a pipeline
    assert (checked == 0) == (kind in NO_PIPELINE)


NO_PIPELINE = (LayerKind.ACTIVATION, LayerKind.BATCH_NORM,
               LayerKind.ELEMENTWISE_ADD, LayerKind.POOLING)


@pytest.mark.parametrize("kind", NO_PIPELINE, ids=lambda k: k.value)
def test_kinds_without_pipeline_raise(kind):
    # no block kind admits these layers (tests/test_ir.py), and a stage of
    # one is zero-cost, so neither the DSP count nor the pipeline has them
    layer = LayerSpec(kind)
    with pytest.raises(UnsupportedConfig):
        layer_terms(layer, 1, 1, False, 4)
    with pytest.raises(UnsupportedConfig):
        instantiate_layer(layer, LayerHwConfig((8, 8, 8, 8), (1, 1, 2, 2)))


def _product_rows(model_name, stage_name):
    """[(spatial option, [(combo, dsp)])] over the full product of the
    stage's grids, each combo's layers counted by ``pipeline_dsp``."""
    block, shape, _ = _stage(model_name, stage_name)
    chans = _channels(block, shape)
    grids = [_pow2_divisors(64, c) for c in chans]
    out = []
    for p_h, p_w, wino in _spatial_options(block):
        rows = []
        for ps in itertools.product(*grids):
            if any(layer.kind is LayerKind.DEPTHWISE_CONV and ps[i] != ps[i + 1]
                   for i, layer in enumerate(block.layers)):
                continue
            rows.append((ps, sum(
                pipeline_dsp(layer, LayerHwConfig(
                    tile=(p_h, p_w, chans[i], chans[i + 1]),
                    parallelism=(p_h, p_w, ps[i], ps[i + 1]),
                    use_winograd=wino[i], winograd_m=4))
                for i, layer in enumerate(block.layers))))
        out.append(((p_h, p_w, wino), rows))
    return block, grids, out


@pytest.mark.parametrize("model_name,stage_name", STAGES)
def test_pruned_walk_keeps_the_filtered_product(model_name, stage_name):
    block, grids, by_spatial = _product_rows(model_name, stage_name)
    for spatial, rows in by_spatial:
        p_h, p_w, wino = spatial
        terms = [layer_terms(layer, p_h, p_w, w, 4) for layer, w in zip(block.layers, wino)]
        mults = tuple((t.a, t.b, t.c, layer.kind is LayerKind.DEPTHWISE_CONV)
                      for layer, t in zip(block.layers, terms))
        for dsp_total in (1, 256, STRATIX_V_5SGSD8.dsp_total, 10 ** 9):
            for grid_depth in (1, 2, 4, ALL):
                got = _parallelism_combos(mults, grids, dsp_total, grid_depth)
                assert got == _reference_combos(rows, dsp_total, grid_depth), \
                    (spatial, dsp_total, grid_depth)
    # some combos exceed 256 DSPs, so the walk drops prefixes there
    assert any(dsp > 256 for _, rows in by_spatial for _, dsp in rows)
