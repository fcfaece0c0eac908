"""The DSP prefilter's per-layer table against the per-combo loop it replaced.

``reference_grid`` is the earlier prefilter of ``design_candidates``: for
every (tile, spatial option) it derives each parallelism combo's layer
configs and sums their multipliers.  ``resources._grid_points`` must keep
the same combos, in the same order, for every tile and spatial option.
"""

from __future__ import annotations

import functools
import itertools
import math

import pytest

from turf.errors import PortMismatch, UnsupportedConfig
from turf.fusion import FusedDesignConfig, derive_layer_configs
from turf.hw import BufferOption, Seq
from turf.ir import LayerKind, TensorShape
from turf.models import build_reference_model
from turf.resources import (STRATIX_V_5SGSD8, _as_block, _grid_points,
                            _layer_dsp, _pow2_divisors, _tile_options)


def _quick_dsp(block, input_shape, cfg):
    return sum(_layer_dsp(layer, hw) for layer, hw in
               zip(block.layers, derive_layer_configs(block, input_shape, cfg)))


def reference_grid(block, input_shape, max_parallel=64, winograd_m=4, min_tile=14):
    """{(t_h, t_w, p_h, p_w): [(combo, dsp)]} for every combo whose layer
    configs derive, in product order, from one ``_quick_dsp`` per combo."""
    layers = block.layers
    n = len(layers)
    chans = [input_shape.channels]
    for layer in layers:
        chans.append(layer.output_shape(TensorShape(
            input_shape.height, input_shape.width, chans[-1])).channels)
    wino_ok = [l.kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV)
               and l.kernel_size == 3 and l.stride == 1 for l in layers]
    spatial_opts = [(1, 1, (False,) * n)]
    if any(wino_ok):
        spatial_opts.append((winograd_m, winograd_m, tuple(wino_ok)))
    grids = [_pow2_divisors(max_parallel, c) for c in chans]
    out = {}
    for (t_h, t_w), (p_h, p_w, wino) in itertools.product(
            zip(_tile_options(input_shape.height, min_tile),
                _tile_options(input_shape.width, min_tile)), spatial_opts):
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
    if not combos or grid_depth is None:
        return combos
    floor = combos[-1]
    combos = combos[:grid_depth]
    return combos if floor in combos else combos + [floor]


def _grid_combos(block, input_shape, dsp_total, grid_depth):
    out = {}
    for cfg in _grid_points(block, input_shape, dsp_total, 64, 4, grid_depth, 14):
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
    block = _as_block(stage.op)
    return block, stage.input_shape, reference_grid(block, stage.input_shape)


@pytest.mark.parametrize("model_name,stage_name", STAGES)
def test_table_keeps_the_per_combo_loop_survivors(model_name, stage_name):
    block, shape, reference = _stage(model_name, stage_name)
    for dsp_total in (STRATIX_V_5SGSD8.dsp_total, 256):
        for grid_depth in (4, None):
            got = _grid_combos(block, shape, dsp_total, grid_depth)
            want = {key: combos for key, rows in reference.items()
                    if (combos := _reference_combos(rows, dsp_total, grid_depth))}
            assert list(got.items()) == list(want.items()), (dsp_total, grid_depth)


def test_res3_1_winograd_tile_28_rejected_whole():
    # the stride-2 1x1 halves a 28-row tile to 14, not a multiple of P_h = 4
    block, shape, reference = _stage("resnet50", "res3_1")
    assert reference[(28, 28, 4, 4)] == []
    assert reference[(56, 56, 4, 4)]
    got = _grid_combos(block, shape, STRATIX_V_5SGSD8.dsp_total, None)
    assert (28, 28, 4, 4) not in got and (56, 56, 4, 4) in got
