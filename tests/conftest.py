import numpy as np
import pytest

from turf.hw import instantiate_layer, layer_dsp, layer_terms
from turf.ir import (BlockKind, BlockSpec, LayerKind, LayerSpec, ModelSpec,
                     Replacement, Stage, TensorShape, layer_shapes)
from turf.kernels import transform_mult_counts, winograd_config


def std_conv(out_ch, k=3, stride=1, padding=None, bias=False):
    if padding is None:
        padding = k // 2
    return LayerSpec(LayerKind.STANDARD_CONV, kernel_size=k, stride=stride,
                     out_channels=out_ch, padding=padding, has_bias=bias)


def pw_conv(out_ch, bias=False):
    return LayerSpec(LayerKind.POINTWISE_CONV, out_channels=out_ch, has_bias=bias)


def dw_conv(k=3, stride=1, padding=None):
    if padding is None:
        padding = k // 2
    return LayerSpec(LayerKind.DEPTHWISE_CONV, kernel_size=k, stride=stride,
                     padding=padding)


def pipeline_dsp(layer, hw):
    """Multipliers of the instantiated pipeline: the dot-product array plus,
    on the Winograd path, two per non-2^n transform constant and lane from
    ``transform_mult_counts`` (each transform is two constant-matrix
    multiplies)."""
    dsp = sum(m.cfg.get("multipliers", 0)
              for m in instantiate_layer(layer, hw).modules)
    if hw.use_winograd:
        lanes_f = 1 if layer.kind is LayerKind.DEPTHWISE_CONV else hw.p_f
        counts = transform_mult_counts(winograd_config(hw.winograd_m, layer.kernel_size))
        dsp += 2 * counts["input"] * hw.p_c
        dsp += 2 * counts["weight"] * hw.p_c * lanes_f
        dsp += 2 * counts["output"] * lanes_f
    return dsp


def terms_of(layer, hw):
    """``layer_terms`` of ``layer`` under the layer config ``hw``."""
    return layer_terms(layer, hw.p_h, hw.p_w, hw.use_winograd, hw.winograd_m)


def closed_form_dsp(layer, hw):
    """The multipliers ``estimate_resources`` counts for ``layer`` under the
    layer config ``hw``: ``layer_dsp`` on the chain's ``layer_terms``."""
    lanes_f = 1 if layer.kind is LayerKind.DEPTHWISE_CONV else hw.p_f
    return layer_dsp(terms_of(layer, hw), hw.p_c, lanes_f)


def grid_points(block, shape, platform, max_parallel=64, grid_depth=4, walks=None):
    """Every point of the stage's grid in grid order, as (floor, fused
    roofline point, ``BlockPlan``): the items of ``resources._planned_points``,
    scheduled by ``resources._schedule`` and planned by ``resources._plan``,
    as ``design_gen`` does when it refines and expands a point."""
    from turf.resources import _plan, _planned_points, _schedule
    layers = block.layers
    return [(floor, group[0], _plan(layers, group, ps, _schedule(layers, group, ps)))
            for floor, group, ps in _planned_points(
                block, shape, layer_shapes(block, shape), platform, max_parallel, grid_depth,
                {} if walks is None else walks)]


def stacked_block(mid, out):
    return BlockSpec(BlockKind.STACKED, (std_conv(mid), std_conv(out)),
                     has_shortcut=True)


def dwsep_block(out):
    return BlockSpec(BlockKind.DEPTHWISE_SEPARABLE, (dw_conv(), pw_conv(out)))


def bottleneck_block(mid, out):
    return BlockSpec(BlockKind.BOTTLENECK, (pw_conv(mid), std_conv(mid), pw_conv(out)),
                     has_shortcut=True)


def canonical_blocks() -> dict[str, tuple[BlockSpec, TensorShape]]:
    """Demo instances of the three studied block kinds.

    Dimensions are chosen so the blocks span the bandwidth-bound /
    compute-bound divide of the default platform; the roofline analysis
    of these three is the reference fusion-benefit experiment.
    """
    dwsep = BlockSpec(BlockKind.DEPTHWISE_SEPARABLE, (
        LayerSpec(LayerKind.DEPTHWISE_CONV, kernel_size=3, padding=1),
        LayerSpec(LayerKind.POINTWISE_CONV, out_channels=64)))
    bottleneck = BlockSpec(BlockKind.BOTTLENECK, (
        LayerSpec(LayerKind.POINTWISE_CONV, out_channels=32),
        LayerSpec(LayerKind.STANDARD_CONV, kernel_size=3, out_channels=32, padding=1),
        LayerSpec(LayerKind.POINTWISE_CONV, out_channels=128)), has_shortcut=True)
    sep_bottleneck = BlockSpec(BlockKind.SEPARABLE_BOTTLENECK, (
        LayerSpec(LayerKind.POINTWISE_CONV, out_channels=128),
        LayerSpec(LayerKind.DEPTHWISE_CONV, kernel_size=3, padding=1),
        LayerSpec(LayerKind.POINTWISE_CONV, out_channels=64)), has_shortcut=True)
    return {
        "depthwise_separable": (dwsep, TensorShape(112, 112, 32)),
        "bottleneck": (bottleneck, TensorShape(56, 56, 128)),
        "separable_bottleneck": (sep_bottleneck, TensorShape(28, 28, 64)),
    }


def small_custom_model(n_convs=3, base_channels=8, size=32):
    """Shape-consistent custom model with one replaceable position per conv."""
    stages = []
    groups = []
    shape = TensorShape(size, size, base_channels)
    f = base_channels
    for i in range(n_convs):
        f = f * 2
        conv = std_conv(f, bias=True)
        stages.append(Stage(shape, conv, f"conv{i + 1}"))
        groups.append((len(stages) - 1,))
        shape = conv.output_shape(shape)
    fc = LayerSpec(LayerKind.FULLY_CONNECTED, out_channels=10, has_bias=True)
    stages.append(Stage(shape, fc, "fc"))
    return ModelSpec("Custom", tuple(stages), tuple(groups),
                     tuple(Replacement.ORIGIN for _ in groups))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def layers_form(doc: dict) -> dict:
    """A flattened fused-config document (with ``winograd`` flags) in the
    per-layer ``layers`` form; each layer's (T_h, T_w) repeats the block's."""
    t, p = doc["tiles"], doc["parallelism"]
    t_out, p_out = t["c"][1:] + [t["f"]], p["c"][1:] + [p["f"]]
    layers = [{"tile": [t["h"], t["w"], t_c, t_f],
               "parallelism": [p["h"], p["w"], p_c, p_f],
               "seq": seq, "winograd": wino}
              for t_c, t_f, p_c, p_f, seq, wino
              in zip(t["c"], t_out, p["c"], p_out, doc["seqs"], doc["winograd"])]
    out = {"layers": layers, "buffers": doc["buffers"]}
    if "winograd_m" in doc:
        out["winograd_m"] = doc["winograd_m"]
    return out
