"""Reference model builders vs published statistics."""

import pytest

from turf.errors import UnknownModel
from turf.ir import (BlockKind, LayerKind, ModelSpec, Replacement, TensorShape,
                     count_ops_params, replace_layer)
from turf.models import build_reference_model

# published statistics: (GOP, M params)
PUBLISHED = {
    "vgg16": (30.95, 138.3),
    "resnet50": (7.72, 24.3),
    "mobilenetv1": (1.14, 4.01),
    "mobilenetv2": (0.61, 3.31),
}

# frozen builder outputs: any builder change that moves these will show up
# loudly rather than as a silent tolerance drift
FROZEN = {
    "vgg16": (30_940_528_640, 138_357_544),
    "resnet50": (7_715_946_496, 25_503_912),
    "mobilenetv1": (1_137_480_704, 4_210_088),
    "mobilenetv2": (601_548_544, 3_470_760),
}


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_published_statistics_within_tolerance(name):
    report = count_ops_params(build_reference_model(name))
    gop_ref, params_ref = PUBLISHED[name]
    assert abs(report.total_ops / 1e9 - gop_ref) / gop_ref < 0.05
    assert abs(report.total_params / 1e6 - params_ref) / params_ref < 0.05


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_builder_outputs(name):
    report = count_ops_params(build_reference_model(name))
    assert (report.total_ops, report.total_params) == FROZEN[name]


def test_unknown_model():
    with pytest.raises(UnknownModel):
        build_reference_model("alexnet")


def test_name_normalisation():
    a = build_reference_model("MobileNet-V1")
    b = build_reference_model("mobilenetv1")
    assert a == b


def test_replaceable_positions():
    assert build_reference_model("vgg16").num_replaceable == 5
    assert build_reference_model("resnet50").num_replaceable == 16
    assert build_reference_model("mobilenetv1").num_replaceable == 0
    assert build_reference_model("mobilenetv2").num_replaceable == 0


def test_vgg_group_replacement_sequence():
    """Top-down group replacement walks through the published variant family:
    each step replaces one more group and strictly reduces operations; the
    fully replaced model reproduces the published 3.82 GOP figure."""
    model = build_reference_model("vgg16")
    ops = [count_ops_params(model).total_ops]
    for i in range(5):
        model = replace_layer(model, 4 - i)
        assert sum(r is Replacement.SEPARABLE for r in model.replacement_vector) == i + 1
        ops.append(count_ops_params(model).total_ops)
    assert all(b < a for a, b in zip(ops, ops[1:]))
    assert count_ops_params(model).total_ops / 1e9 == pytest.approx(3.82, rel=0.01)
    # one group replaced: fewer ops than the plain model (published: 26.29
    # vs 30.95 for the single-replacement variant)
    one = replace_layer(build_reference_model("vgg16"), 4)
    assert count_ops_params(one).total_ops < ops[0]


def test_vgg_group_replacement_replaces_every_stage_of_the_group():
    """Each VGG-16 position is a group of two or three convolutions: replacing
    it turns each into a depthwise-separable block with the same input and
    output shapes and name, and leaves every other stage as it was."""
    model = build_reference_model("vgg16")
    for position in reversed(range(model.num_replaceable)):
        replaced = replace_layer(model, position)
        group = model.replacement_groups[position]
        assert len(group) >= 2
        for i, (old, new) in enumerate(zip(model.stages, replaced.stages)):
            if i not in group:
                assert new == old
                continue
            assert old.op.kind is LayerKind.STANDARD_CONV
            assert new.op.kind is BlockKind.DEPTHWISE_SEPARABLE
            assert (new.input_shape, new.output_shape(), new.name) \
                == (old.input_shape, old.output_shape(), old.name)
        assert replaced.replacement_vector == tuple(
            Replacement.SEPARABLE if p == position else r
            for p, r in enumerate(model.replacement_vector))
        assert ModelSpec(*replaced) == replaced
        model = replaced


def test_resnet_block_replacement_preserves_shapes():
    model = build_reference_model("resnet50")
    replaced = replace_layer(model, model.num_replaceable - 1)
    assert [s.output_shape() for s in replaced.stages] \
        == [s.output_shape() for s in model.stages]
    assert count_ops_params(replaced).total_ops < count_ops_params(model).total_ops


def test_custom_input_shape():
    model = build_reference_model("vgg16", TensorShape(128, 128, 3))
    report = count_ops_params(model)
    assert report.total_ops < FROZEN["vgg16"][0]
