"""Reference CNN model builders.

The four builders reproduce the published operation/parameter statistics of
VGG-16, ResNet-50, MobileNet V1 and MobileNet V2 at 224x224x3.  Models are
emitted in inference form: batch normalisation is folded into the preceding
convolution, so convolutions from BN-trained architectures carry no bias
(matching the trainable-weight conventions of the original implementations)
while classic VGG convolutions and every fully-connected layer do.

Replaceable positions: VGG-16 exposes its five convolution groups (each
group replaced as a whole), ResNet-50 exposes each bottleneck block, and
the MobileNets expose nothing (they are already separable).
"""

from __future__ import annotations

from .errors import UnknownModel
from .ir import (BlockKind, BlockSpec, LayerKind, LayerSpec, ModelSpec,
                 Replacement, Stage, TensorShape)

_DEFAULT_INPUT = TensorShape(224, 224, 3)


def _conv(out_ch, k=3, stride=1, padding=None, bias=False):
    if padding is None:
        padding = k // 2
    return LayerSpec(LayerKind.STANDARD_CONV, kernel_size=k, stride=stride,
                     out_channels=out_ch, padding=padding, has_bias=bias)


def _pw(out_ch, stride=1, bias=False):
    return LayerSpec(LayerKind.POINTWISE_CONV, out_channels=out_ch,
                     stride=stride, has_bias=bias)


def _dw(k=3, stride=1, padding=None):
    if padding is None:
        padding = k // 2
    return LayerSpec(LayerKind.DEPTHWISE_CONV, kernel_size=k, stride=stride,
                     padding=padding)


def _pool(k, stride, padding=0):
    return LayerSpec(LayerKind.POOLING, kernel_size=k, stride=stride, padding=padding)


def _fc(out_ch):
    return LayerSpec(LayerKind.FULLY_CONNECTED, out_channels=out_ch, has_bias=True)


def _chain(stages_spec, input_shape):
    """Build a Stage list, threading shapes through, and record group members."""
    stages = []
    groups: dict[str, list[int]] = {}
    shape = input_shape
    for name, op, group in stages_spec:
        stages.append(Stage(shape, op, name))
        if group is not None:
            groups.setdefault(group, []).append(len(stages) - 1)
        shape = op.output_shape(shape)
    return stages, groups


def _finish(base, stages, groups, group_order):
    replacement_groups = tuple(tuple(groups[g]) for g in group_order)
    vector = tuple(Replacement.ORIGIN for _ in replacement_groups)
    return ModelSpec(base, tuple(stages), replacement_groups, vector)


def vgg16(input_shape: TensorShape = _DEFAULT_INPUT) -> ModelSpec:
    plan = []
    channels = [64, 128, 256, 512, 512]
    depths = [2, 2, 3, 3, 3]
    for g, (ch, depth) in enumerate(zip(channels, depths), start=1):
        for i in range(depth):
            plan.append((f"conv{g}_{i + 1}", _conv(ch, bias=True), f"group{g}"))
        plan.append((f"pool{g}", _pool(2, 2), None))
    plan += [
        ("fc6", _fc(4096), None),
        ("fc7", _fc(4096), None),
        ("fc8", _fc(1000), None),
    ]
    stages, groups = _chain(plan, input_shape)
    return _finish("VGG16", stages, groups, [f"group{g}" for g in range(1, 6)])


def _bottleneck(mid_ch, out_ch, stride, project):
    # Original ResNet (v1) downsampling convention: the stride sits on the
    # first 1x1 convolution of the block.
    layers = (_pw(mid_ch, stride=stride), _conv(mid_ch, k=3), _pw(out_ch))
    projection = _pw(out_ch, stride=stride) if project else None
    return BlockSpec(BlockKind.BOTTLENECK, layers, has_shortcut=True,
                     shortcut_projection=projection)


def resnet50(input_shape: TensorShape = _DEFAULT_INPUT) -> ModelSpec:
    plan = [("conv1", _conv(64, k=7, stride=2, padding=3), None),
            ("pool1", _pool(3, 2, padding=1), None)]
    stage_cfg = [(64, 256, 3, 1), (128, 512, 4, 2), (256, 1024, 6, 2), (512, 2048, 3, 2)]
    group_order = []
    for s, (mid, out, blocks, first_stride) in enumerate(stage_cfg, start=1):
        for b in range(blocks):
            stride = first_stride if b == 0 else 1
            name = f"res{s + 1}_{b + 1}"
            plan.append((name, _bottleneck(mid, out, stride, project=b == 0), name))
            group_order.append(name)
    plan += [("pool5", _pool(7, 7), None), ("fc", _fc(1000), None)]
    stages, groups = _chain(plan, input_shape)
    return _finish("ResNet50", stages, groups, group_order)


def mobilenet_v1(input_shape: TensorShape = _DEFAULT_INPUT) -> ModelSpec:
    plan = [("conv1", _conv(32, stride=2, padding=1), None)]
    cfg = [(64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
           (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2), (1024, 1)]
    for i, (out_ch, stride) in enumerate(cfg, start=1):
        block = BlockSpec(BlockKind.DEPTHWISE_SEPARABLE, (_dw(stride=stride), _pw(out_ch)))
        plan.append((f"dwsep{i}", block, None))
    plan += [("pool", _pool(7, 7), None), ("fc", _fc(1000), None)]
    stages, groups = _chain(plan, input_shape)
    return _finish("MobileNetV1", stages, groups, [])


def mobilenet_v2(input_shape: TensorShape = _DEFAULT_INPUT) -> ModelSpec:
    plan = [("conv1", _conv(32, stride=2, padding=1), None)]
    cfg = [(1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
           (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1)]
    in_ch = 32
    idx = 1
    for t, out_ch, repeats, first_stride in cfg:
        for r in range(repeats):
            stride = first_stride if r == 0 else 1
            if t == 1:
                block = BlockSpec(BlockKind.DEPTHWISE_SEPARABLE,
                                  (_dw(stride=stride), _pw(out_ch)))
            else:
                shortcut = stride == 1 and in_ch == out_ch
                block = BlockSpec(BlockKind.SEPARABLE_BOTTLENECK,
                                  (_pw(in_ch * t), _dw(stride=stride), _pw(out_ch)),
                                  has_shortcut=shortcut)
            plan.append((f"invres{idx}", block, None))
            in_ch = out_ch
            idx += 1
    plan += [("conv_last", _pw(1280), None), ("pool", _pool(7, 7), None), ("fc", _fc(1000), None)]
    stages, groups = _chain(plan, input_shape)
    return _finish("MobileNetV2", stages, groups, [])


_BUILDERS = {
    "vgg16": vgg16,
    "resnet50": resnet50,
    "mobilenetv1": mobilenet_v1,
    "mobilenetv2": mobilenet_v2,
}


def build_reference_model(name: str, input_shape: TensorShape = _DEFAULT_INPUT) -> ModelSpec:
    key = name.lower().replace("-", "").replace("_", "").replace(" ", "")
    if key not in _BUILDERS:
        raise UnknownModel(f"unknown reference model {name!r}; "
                           f"known: {sorted(_BUILDERS)}")
    return _BUILDERS[key](input_shape)
