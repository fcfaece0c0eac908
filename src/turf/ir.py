"""CNN model intermediate representation.

Models are ordered lists of stages, each holding either a single layer or a
convolution block (stacked / depthwise-separable / bottleneck / separable
bottleneck).  The IR carries shapes and hyperparameters only -- no weights.
All values are immutable; operations return new ModelSpec instances.

Records throughout turf are ``typing.NamedTuple``s, cheap to define at
import, and each compares equal to a plain tuple of the same values.  One
with checks (``TensorShape``, ``LayerSpec``, ``BlockSpec``, ``ModelSpec``)
runs them in the ``__new__`` of a ``__slots__ = ()`` subclass of its
fields; ``_replace`` skips that ``__new__``, so only unchecked records use
it, and ``replace_layer``: it checks each replaced stage's output shape, the
one link of the shape chain a replacement can break, and skips re-deriving
the rest.

Counting conventions (documented in every report):
  * one multiply-accumulate = 2 operations,
  * parameter counts include bias terms for layers that carry them
    (classic VGG-style convolutions and fully-connected layers); models
    trained with batch normalisation are represented in their inference
    form with the normalisation folded into the preceding convolution,
    so those convolutions are bias-free and no separate normalisation
    parameters appear,
  * activation, pooling and element-wise addition contribute no
    operations and no parameters.
"""

from __future__ import annotations

import enum
import json
from typing import NamedTuple

from .errors import InvalidReplacement, ShapeMismatch, reading, typed


class LayerKind(enum.Enum):
    STANDARD_CONV = "StandardConv"
    DEPTHWISE_CONV = "DepthwiseConv"
    POINTWISE_CONV = "PointwiseConv"
    FULLY_CONNECTED = "FullyConnected"
    ACTIVATION = "Activation"
    BATCH_NORM = "BatchNorm"
    ELEMENTWISE_ADD = "ElementwiseAdd"
    # Pooling is required to express the reference architectures
    # (VGG/ResNet/MobileNet all subsample between stages); it contributes
    # no operations or parameters.
    POOLING = "Pooling"


class BlockKind(enum.Enum):
    STACKED = "Stacked"
    DEPTHWISE_SEPARABLE = "DepthwiseSeparable"
    BOTTLENECK = "Bottleneck"
    SEPARABLE_BOTTLENECK = "SeparableBottleneck"


class Replacement(enum.Enum):
    ORIGIN = "ORIGIN"
    SEPARABLE = "SEPARABLE"


_CONV_KINDS = (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV, LayerKind.POINTWISE_CONV)


class TensorShape(NamedTuple("TensorShape", [("height", int), ("width", int),
                                             ("channels", int)])):
    __slots__ = ()

    def __new__(cls, height: int, width: int, channels: int):
        self = super().__new__(cls, height, width, channels)
        if height < 1 or width < 1 or channels < 1:
            raise ShapeMismatch(f"all dimensions must be >= 1, got {self}")
        return self

    def volume(self) -> int:
        return self.height * self.width * self.channels


class LayerSpec(NamedTuple("LayerSpec", [
        ("kind", LayerKind), ("kernel_size", int), ("stride", int),
        ("out_channels", int | None), ("padding", int), ("has_bias", bool)])):
    __slots__ = ()

    def __new__(cls, kind: LayerKind, kernel_size: int = 1, stride: int = 1,
                out_channels: int | None = None, padding: int = 0, has_bias: bool = False):
        self = super().__new__(cls, kind, kernel_size, stride, out_channels, padding, has_bias)
        if self.kernel_size < 1 or self.stride < 1:
            raise ShapeMismatch(f"kernel_size and stride must be >= 1: {self}")
        if self.kind is LayerKind.POINTWISE_CONV and self.kernel_size != 1:
            raise ShapeMismatch("pointwise convolution must have kernel_size 1")
        if self.kind is LayerKind.DEPTHWISE_CONV and self.out_channels is not None:
            raise ShapeMismatch("depthwise convolution preserves channels; no out_channels")
        needs_f = (LayerKind.STANDARD_CONV, LayerKind.POINTWISE_CONV, LayerKind.FULLY_CONNECTED)
        if self.kind in needs_f and self.out_channels is None:
            raise ShapeMismatch(f"{self.kind.value} requires out_channels")
        return self

    @property
    def layers(self) -> tuple[LayerSpec, ...]:
        """A layer staged on its own is its own one-layer block."""
        return (self,)

    def output_shape(self, shape: TensorShape) -> TensorShape:
        if self.kind is LayerKind.FULLY_CONNECTED:
            return TensorShape(1, 1, self.out_channels)
        if self.kind not in (*_CONV_KINDS, LayerKind.POOLING):
            # activation / batch norm / elementwise add are shape-preserving
            return shape
        k, s, p = self.kernel_size, self.stride, self.padding
        ho = (shape.height + 2 * p - k) // s + 1
        wo = (shape.width + 2 * p - k) // s + 1
        if self.kind is LayerKind.POOLING:
            return TensorShape(max(ho, 1), max(wo, 1), shape.channels)
        # a depthwise layer keeps its channels (and has no out_channels)
        c = shape.channels if self.out_channels is None else self.out_channels
        return TensorShape(ho, wo, c)

    def ops(self, shape: TensorShape, shapes: list[TensorShape] | None = None) -> int:
        """Operation count on the given input shape (MAC = 2 ops); ``shapes``,
        if given, is its ``layer_shapes``."""
        out = shapes[-1] if shapes else self.output_shape(shape)
        k2 = self.kernel_size ** 2
        if self.kind in (LayerKind.STANDARD_CONV, LayerKind.POINTWISE_CONV):
            return 2 * out.height * out.width * shape.channels * self.out_channels * k2
        if self.kind is LayerKind.DEPTHWISE_CONV:
            return 2 * out.height * out.width * shape.channels * k2
        if self.kind is LayerKind.FULLY_CONNECTED:
            return 2 * shape.volume() * self.out_channels
        return 0

    def params(self, shape: TensorShape, shapes: list[TensorShape] | None = None) -> int:
        """Weights and biases on the given input shape (``shapes`` is unused)."""
        c = shape.channels
        k2 = self.kernel_size ** 2
        if self.kind in (LayerKind.STANDARD_CONV, LayerKind.POINTWISE_CONV):
            return c * self.out_channels * k2 + (self.out_channels if self.has_bias else 0)
        if self.kind is LayerKind.DEPTHWISE_CONV:
            return c * k2 + (c if self.has_bias else 0)
        if self.kind is LayerKind.FULLY_CONNECTED:
            return shape.volume() * self.out_channels + (self.out_channels if self.has_bias else 0)
        if self.kind is LayerKind.BATCH_NORM:
            return 2 * c
        return 0


class BlockSpec(NamedTuple("BlockSpec", [
        ("kind", BlockKind), ("layers", tuple[LayerSpec, ...]), ("has_shortcut", bool),
        # 1x1 projection on the shortcut path (ResNet downsampling blocks).
        ("shortcut_projection", LayerSpec | None)])):
    __slots__ = ()

    def __new__(cls, kind: BlockKind, layers, has_shortcut: bool = False,
                shortcut_projection: LayerSpec | None = None):
        self = super().__new__(cls, kind, tuple(layers), has_shortcut, shortcut_projection)
        kinds = [l.kind for l in self.layers]
        k = self.kind
        if k is BlockKind.DEPTHWISE_SEPARABLE:
            if kinds != [LayerKind.DEPTHWISE_CONV, LayerKind.POINTWISE_CONV]:
                raise ShapeMismatch("depthwise separable block is [DepthwiseConv, PointwiseConv]")
        elif k is BlockKind.BOTTLENECK:
            ok = kinds == [LayerKind.POINTWISE_CONV, LayerKind.STANDARD_CONV, LayerKind.POINTWISE_CONV]
            if not ok or self.layers[1].kernel_size != 3:
                raise ShapeMismatch("bottleneck block is [Pointwise, StandardConv(K=3), Pointwise]")
        elif k is BlockKind.SEPARABLE_BOTTLENECK:
            ok = kinds == [LayerKind.POINTWISE_CONV, LayerKind.DEPTHWISE_CONV, LayerKind.POINTWISE_CONV]
            if not ok or self.layers[1].kernel_size != 3:
                raise ShapeMismatch("separable bottleneck is [Pointwise, Depthwise(K=3), Pointwise]")
        elif k is BlockKind.STACKED:
            if kinds != [LayerKind.STANDARD_CONV, LayerKind.STANDARD_CONV] or not self.has_shortcut:
                raise ShapeMismatch("stacked block is two StandardConv layers with a shortcut")
        return self

    def output_shape(self, shape: TensorShape) -> TensorShape:
        return layer_shapes(self, shape)[-1]

    def ops(self, shape: TensorShape, shapes: list[TensorShape] | None = None) -> int:
        shapes = shapes or layer_shapes(self, shape)
        total = sum(map(LayerSpec.ops, self.layers, shapes, zip(shapes, shapes[1:])))
        if self.shortcut_projection is not None:
            total += self.shortcut_projection.ops(shape)
        return total

    def params(self, shape: TensorShape, shapes: list[TensorShape] | None = None) -> int:
        total = sum(map(LayerSpec.params, self.layers, shapes or layer_shapes(self, shape)))
        if self.shortcut_projection is not None:
            total += self.shortcut_projection.params(shape)
        return total


def layer_shapes(op: LayerSpec | BlockSpec, shape: TensorShape) -> list[TensorShape]:
    """The shape into each of ``op``'s layers, then the shape out of the last."""
    shapes = [shape]
    for layer in op.layers:
        shapes.append(layer.output_shape(shapes[-1]))
    return shapes


class Stage(NamedTuple):
    input_shape: TensorShape
    op: LayerSpec | BlockSpec
    name: str = ""

    def output_shape(self) -> TensorShape:
        return self.op.output_shape(self.input_shape)


class ModelSpec(NamedTuple("ModelSpec", [
        ("base", str), ("stages", tuple[Stage, ...]),
        ("replacement_groups", tuple[tuple[int, ...], ...]),
        ("replacement_vector", tuple[Replacement, ...])])):
    """A CNN as an ordered stage list plus its replacement state.

    ``replacement_groups[p]`` lists the stage indices forming replaceable
    position ``p`` (a single stage for most models; a whole convolution
    group for VGG-16).  ``replacement_vector[p]`` records whether position
    ``p`` is still the original convolution or already separable.
    """

    __slots__ = ()

    def __new__(cls, base: str, stages, replacement_groups=(), replacement_vector=()):
        self = super().__new__(cls, base, tuple(stages),
                               tuple(tuple(g) for g in replacement_groups),
                               tuple(replacement_vector))
        if len(self.replacement_groups) != len(self.replacement_vector):
            raise ShapeMismatch("replacement vector length != number of replaceable positions")
        for i in range(len(self.stages) - 1):
            out = self.stages[i].output_shape()
            nxt = self.stages[i + 1].input_shape
            if out != nxt:
                raise ShapeMismatch(
                    f"stage {i} ({self.stages[i].name}) produces {out} but stage "
                    f"{i + 1} ({self.stages[i + 1].name}) expects {nxt}")
        return self

    @property
    def num_replaceable(self) -> int:
        return len(self.replacement_groups)


class StageCount(NamedTuple):
    index: int
    name: str
    category: str  # "block" | "conv" | "fc" | "other"
    ops: int
    params: int


class OpParamReport(NamedTuple):
    total_ops: int
    total_params: int
    per_stage: tuple[StageCount, ...]


def _stage_category(op: LayerSpec | BlockSpec) -> str:
    if isinstance(op, BlockSpec):
        return "block"
    if op.kind in _CONV_KINDS:
        return "conv"
    if op.kind is LayerKind.FULLY_CONNECTED:
        return "fc"
    return "other"


def has_pipeline(op: LayerSpec | BlockSpec) -> bool:
    """Whether a stage runs on the hardware template: a block, or a conv or
    FC layer as its own one-layer block.  Other stages cost nothing."""
    return _stage_category(op) != "other"


def count_ops_params(model: ModelSpec) -> OpParamReport:
    """Count operations and parameters stage by stage (MAC = 2 ops)."""
    rows = []
    for i, stage in enumerate(model.stages):
        rows.append(StageCount(
            index=i,
            name=stage.name or f"stage{i}",
            category=_stage_category(stage.op),
            ops=stage.op.ops(stage.input_shape),
            params=stage.op.params(stage.input_shape),
        ))
    return OpParamReport(
        total_ops=sum(r.ops for r in rows),
        total_params=sum(r.params for r in rows),
        per_stage=tuple(rows),
    )


def _separable_of_conv(conv: LayerSpec) -> BlockSpec:
    """standard convolution -> depthwise separable block (same I/O shape)."""
    dw = LayerSpec(LayerKind.DEPTHWISE_CONV, kernel_size=conv.kernel_size,
                   stride=conv.stride, padding=conv.padding, has_bias=False)
    pw = LayerSpec(LayerKind.POINTWISE_CONV, out_channels=conv.out_channels,
                   has_bias=conv.has_bias)
    return BlockSpec(BlockKind.DEPTHWISE_SEPARABLE, (dw, pw))


def _separable_of_bottleneck(block: BlockSpec) -> BlockSpec:
    """bottleneck block -> separable bottleneck (middle 3x3 becomes depthwise)."""
    pw1, mid, pw2 = block.layers
    dw = LayerSpec(LayerKind.DEPTHWISE_CONV, kernel_size=3, stride=mid.stride,
                   padding=mid.padding, has_bias=False)
    # depthwise preserves channels, so the middle layer's channel change (if
    # any) moves into the trailing pointwise; for standard bottlenecks the
    # middle conv already preserves channels.
    if mid.out_channels is not None and pw1.out_channels != mid.out_channels:
        raise InvalidReplacement("bottleneck middle conv must preserve channels to be separable")
    return BlockSpec(BlockKind.SEPARABLE_BOTTLENECK, (pw1, dw, pw2),
                     has_shortcut=block.has_shortcut,
                     shortcut_projection=block.shortcut_projection)


def replace_layer(model: ModelSpec, position: int) -> ModelSpec:
    """Replace replaceable position ``position`` with its separable form.

    Output shapes of every stage are preserved; the original model is left
    unmodified.  A position covers one stage for most models and one
    convolution group for VGG-16 (every conv in the group is replaced).
    """
    if not 0 <= position < model.num_replaceable:
        raise InvalidReplacement(f"position {position} out of range 0..{model.num_replaceable - 1}")
    if model.replacement_vector[position] is not Replacement.ORIGIN:
        raise InvalidReplacement(f"position {position} already replaced")

    stages = list(model.stages)
    for idx in model.replacement_groups[position]:
        stage = stages[idx]
        op = stage.op
        if isinstance(op, LayerSpec) and op.kind is LayerKind.STANDARD_CONV:
            new_op = _separable_of_conv(op)
        elif isinstance(op, BlockSpec) and op.kind is BlockKind.BOTTLENECK:
            new_op = _separable_of_bottleneck(op)
        else:
            raise InvalidReplacement(
                f"stage {idx} ({stage.name}) is not a replaceable convolution")
        if new_op.output_shape(stage.input_shape) != stage.output_shape():
            raise ShapeMismatch(f"replacement at stage {idx} would change the output shape")
        stages[idx] = stage._replace(op=new_op)

    vector = list(model.replacement_vector)
    vector[position] = Replacement.SEPARABLE
    return model._replace(stages=tuple(stages), replacement_vector=tuple(vector))


# ---------------------------------------------------------------------------
# JSON model-definition format

def _layer_to_json(layer: LayerSpec) -> dict:
    d: dict = {"kind": layer.kind.value}
    if layer.kind in (*_CONV_KINDS, LayerKind.POOLING):
        d["kernel"] = layer.kernel_size
        d["stride"] = layer.stride
        d["padding"] = layer.padding
    if layer.out_channels is not None:
        d["out_channels"] = layer.out_channels
    if layer.has_bias:
        d["bias"] = True
    return d


def _layer_from_json(d: dict) -> LayerSpec:
    out = d.get("out_channels")
    if typed(d.get("padding", 0), int, "padding") < 0:
        raise ValueError(f"padding must be >= 0, got {d['padding']}")
    return LayerSpec(LayerKind(d["kind"]),
                     kernel_size=typed(d.get("kernel", 1), int, "kernel"),
                     stride=typed(d.get("stride", 1), int, "stride"),
                     out_channels=None if out is None else typed(out, int, "out_channels"),
                     padding=d.get("padding", 0),
                     has_bias=typed(d.get("bias", False), bool, "bias"))


def model_to_json(model: ModelSpec) -> dict:
    stages = []
    for stage in model.stages:
        entry: dict = {"input": list(stage.input_shape)}
        if stage.name:
            entry["name"] = stage.name
        if isinstance(stage.op, BlockSpec):
            entry["block"] = {
                "kind": stage.op.kind.value,
                "layers": [_layer_to_json(l) for l in stage.op.layers],
                "shortcut": stage.op.has_shortcut,
            }
            if stage.op.shortcut_projection is not None:
                entry["block"]["projection"] = _layer_to_json(stage.op.shortcut_projection)
        else:
            entry.update(_layer_to_json(stage.op))
        stages.append(entry)
    return {
        "base": model.base,
        "stages": stages,
        "groups": [list(g) for g in model.replacement_groups],
        "replacements": [r.value for r in model.replacement_vector],
    }


def model_from_json(doc: dict) -> ModelSpec:
    """Load a declarative model document.

    Two forms are accepted: a full stage list, or a shorthand naming a
    reference model: ``{"base": "vgg16", "input": [224, 224, 3]}``.
    ``errors.typed`` checks each value: shapes, kernels, strides, paddings
    (>= 0) and channel counts are JSON integers, flags booleans, names
    strings, ``groups`` distinct stage indices.  A wrong type raises
    ``TypeError``, a huge integer or a bad index ``ValueError``.
    """
    if "stages" not in doc:
        from .models import build_reference_model
        shape = TensorShape(*(typed(n, int, "input") for n in doc.get("input", (224, 224, 3))))
        return build_reference_model(doc["base"], shape)

    stages = []
    for entry in doc["stages"]:
        shape = TensorShape(*(typed(n, int, "input") for n in entry["input"]))
        if "block" in entry:
            b = entry["block"]
            proj = _layer_from_json(b["projection"]) if "projection" in b else None
            op: LayerSpec | BlockSpec = BlockSpec(
                BlockKind(b["kind"]),
                tuple(_layer_from_json(l) for l in b["layers"]),
                has_shortcut=typed(b.get("shortcut", False), bool, "shortcut"),
                shortcut_projection=proj)
        else:
            op = _layer_from_json(entry)
        stages.append(Stage(shape, op, typed(entry.get("name", ""), str, "name")))

    groups = tuple(tuple(typed(i, int, "groups") for i in typed(g, list, "groups"))
                   for g in typed(doc.get("groups", []), list, "groups"))
    if len(set(flat := sum(groups, ()))) < len(flat) or not set(flat) <= set(range(len(stages))):
        raise ValueError(f"groups must be distinct stage indices < {len(stages)}: {doc['groups']}")
    if "replacements" in doc:
        vector = tuple(Replacement(r) for r in doc["replacements"])
    else:
        vector = tuple(Replacement.ORIGIN for _ in groups)
    return ModelSpec(typed(doc.get("base", "Custom"), str, "base"), tuple(stages), groups, vector)


def load_model(path: str) -> ModelSpec:
    with reading(path), open(path) as fh:
        return model_from_json(json.load(fh))
