"""Model IR: shapes, counting, replacement, JSON round-trips."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bottleneck_block, dw_conv, dwsep_block, pw_conv,
                      small_custom_model, std_conv)
from turf.errors import InvalidReplacement, ShapeMismatch
from turf.ir import (BlockKind, BlockSpec, LayerKind, LayerSpec, ModelSpec,
                     Replacement, Stage, TensorShape, count_ops_params,
                     model_from_json, model_to_json, replace_layer)


class TestTypes:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            TensorShape(0, 4, 4)
        assert TensorShape(2, 3, 4).volume() == 24

    def test_pointwise_kernel_must_be_one(self):
        with pytest.raises(ShapeMismatch):
            LayerSpec(LayerKind.POINTWISE_CONV, kernel_size=3, out_channels=4)

    def test_depthwise_has_no_out_channels(self):
        with pytest.raises(ShapeMismatch):
            LayerSpec(LayerKind.DEPTHWISE_CONV, kernel_size=3, out_channels=4)

    def test_block_layer_patterns(self):
        with pytest.raises(ShapeMismatch):
            BlockSpec(BlockKind.DEPTHWISE_SEPARABLE,
                      (std_conv(4), std_conv(4)))
        with pytest.raises(ShapeMismatch):
            BlockSpec(BlockKind.STACKED, (std_conv(4), std_conv(4)),
                      has_shortcut=False)

    def test_stage_shape_consistency_enforced(self):
        c1 = std_conv(8)
        stages = (Stage(TensorShape(8, 8, 4), c1),
                  Stage(TensorShape(8, 8, 16), c1))  # expects 8 channels
        with pytest.raises(ShapeMismatch):
            ModelSpec("Custom", stages)


class TestRecordChecks:
    """Each checked record still raises on a bad constructor call, however
    it is called, with the message naming the record as its repr prints it;
    list fields are held as tuples."""

    @pytest.mark.parametrize("build, message", [
        (lambda: TensorShape(4, 0, 4),
         "all dimensions must be >= 1, got TensorShape(height=4, width=0, channels=4)"),
        (lambda: TensorShape(height=4, width=4, channels=-1),
         "all dimensions must be >= 1, got TensorShape(height=4, width=4, channels=-1)"),
        (lambda: LayerSpec(LayerKind.STANDARD_CONV, 3, 0, 8),
         "kernel_size and stride must be >= 1: LayerSpec(kind=<LayerKind.STANDARD_CONV: "
         "'StandardConv'>, kernel_size=3, stride=0, out_channels=8, padding=0, "
         "has_bias=False)"),
        (lambda: LayerSpec(kind=LayerKind.FULLY_CONNECTED),
         "FullyConnected requires out_channels"),
        (lambda: BlockSpec(BlockKind.BOTTLENECK, [pw_conv(4), std_conv(4, k=1), pw_conv(8)]),
         "bottleneck block is [Pointwise, StandardConv(K=3), Pointwise]"),
        (lambda: ModelSpec("Custom", [Stage(TensorShape(8, 8, 4), std_conv(8))], [[0]]),
         "replacement vector length != number of replaceable positions"),
    ], ids=["shape", "shape-keywords", "layer", "layer-keywords", "block", "model"])
    def test_bad_call_raises(self, build, message):
        with pytest.raises(ShapeMismatch) as exc:
            build()
        assert str(exc.value) == message

    def test_list_fields_are_tuples(self):
        block = BlockSpec(BlockKind.DEPTHWISE_SEPARABLE, [dw_conv(), pw_conv(8)])
        model = ModelSpec("Custom", [Stage(TensorShape(8, 8, 4), block)], [[0]],
                          [Replacement.ORIGIN])
        assert block.layers == (dw_conv(), pw_conv(8))
        assert type(block.layers) is type(model.stages) is type(model.replacement_groups[0]) \
            is type(model.replacement_vector) is tuple
        again = ModelSpec("Custom", (model.stages[0],), ((0,),), (Replacement.ORIGIN,))
        assert model == again and hash(model) == hash(again)


def _block_docs():
    """One valid model document per block kind (a single block stage)."""
    blocks = {
        BlockKind.STACKED: BlockSpec(BlockKind.STACKED, (std_conv(4), std_conv(4)),
                                     has_shortcut=True),
        BlockKind.DEPTHWISE_SEPARABLE: dwsep_block(8),
        BlockKind.BOTTLENECK: bottleneck_block(4, 8),
        BlockKind.SEPARABLE_BOTTLENECK: BlockSpec(
            BlockKind.SEPARABLE_BOTTLENECK, (pw_conv(8), dw_conv(), pw_conv(4)),
            has_shortcut=True),
    }
    return {kind: model_to_json(ModelSpec("Custom", (Stage(TensorShape(8, 8, 4), b),)))
            for kind, b in blocks.items()}


@pytest.mark.parametrize("swap", [LayerKind.ACTIVATION, LayerKind.BATCH_NORM,
                                  LayerKind.ELEMENTWISE_ADD, LayerKind.POOLING],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("kind", list(BlockKind), ids=lambda k: k.value)
def test_block_admits_no_layer_without_pipeline(kind, swap):
    doc = _block_docs()[kind]
    model_from_json(doc)  # the unswapped block loads
    for i in range(len(doc["stages"][0]["block"]["layers"])):
        swapped = json.loads(json.dumps(doc))
        swapped["stages"][0]["block"]["layers"][i] = {"kind": swap.value}
        with pytest.raises(ShapeMismatch):
            model_from_json(swapped)


class TestCounting:
    def test_standard_conv_formula(self):
        # 2 * 8 * 8 * 16 * 32 * 9
        conv = std_conv(32)
        model = ModelSpec("Custom", (Stage(TensorShape(8, 8, 16), conv),))
        report = count_ops_params(model)
        assert report.total_ops == 2 * 8 * 8 * 16 * 32 * 9
        assert report.total_params == 16 * 32 * 9

    def test_smallest_possible_conv(self):
        conv = LayerSpec(LayerKind.POINTWISE_CONV, out_channels=1, has_bias=False)
        model = ModelSpec("Custom", (Stage(TensorShape(1, 1, 1), conv),))
        report = count_ops_params(model)
        assert report.total_ops == 2  # one MAC
        assert report.total_params == 1

    def test_separable_vs_standard_ratio(self):
        # ratio of op counts approximates 1/F + 1/K^2
        h = w = 8
        c, f, k = 16, 32, 3
        std = 2 * h * w * c * f * k * k
        dw = 2 * h * w * c * k * k
        pw = 2 * h * w * c * f
        assert dw + pw < std
        ratio = (dw + pw) / std
        assert ratio == pytest.approx(1 / f + 1 / k ** 2)

        model_std = ModelSpec("Custom", (Stage(TensorShape(h, w, c), std_conv(f)),))
        model_sep = ModelSpec("Custom", (Stage(TensorShape(h, w, c), dwsep_block(f)),))
        assert count_ops_params(model_sep).total_ops \
            == dw + pw
        assert count_ops_params(model_std).total_ops == std

    def test_activation_and_pooling_cost_nothing(self):
        act = LayerSpec(LayerKind.ACTIVATION)
        pool = LayerSpec(LayerKind.POOLING, kernel_size=2, stride=2)
        model = ModelSpec("Custom", (
            Stage(TensorShape(8, 8, 4), act),
            Stage(TensorShape(8, 8, 4), pool),
        ))
        report = count_ops_params(model)
        assert report.total_ops == 0
        assert report.total_params == 0

    def test_explicit_batch_norm_params_counted(self):
        bn = LayerSpec(LayerKind.BATCH_NORM)
        model = ModelSpec("Custom", (Stage(TensorShape(4, 4, 10), bn),))
        assert count_ops_params(model).total_params == 20

    def test_category_breakdown(self):
        model = small_custom_model()
        ops = {}
        for row in count_ops_params(model).per_stage:
            ops[row.category] = ops.get(row.category, 0) + row.ops
        assert set(ops) <= {"conv", "fc", "block", "other"}
        assert ops["conv"] > 0 and ops["fc"] > 0


class TestReplacement:
    def test_standard_conv_becomes_separable_block(self):
        model = small_custom_model(n_convs=2)
        out = replace_layer(model, 1)
        stage = out.stages[model.replacement_groups[1][0]]
        assert isinstance(stage.op, BlockSpec)
        assert stage.op.kind is BlockKind.DEPTHWISE_SEPARABLE
        assert out.replacement_vector[1] is Replacement.SEPARABLE
        # original untouched
        assert model.replacement_vector[1] is Replacement.ORIGIN

    def test_shapes_preserved(self):
        model = small_custom_model(n_convs=3)
        replaced = replace_layer(model, 0)
        assert [s.output_shape() for s in replaced.stages] \
            == [s.output_shape() for s in model.stages]

    def test_bottleneck_becomes_separable_bottleneck(self):
        block = bottleneck_block(8, 32)
        model = ModelSpec("Custom", (Stage(TensorShape(8, 8, 32), block),),
                          ((0,),), (Replacement.ORIGIN,))
        out = replace_layer(model, 0)
        new_block = out.stages[0].op
        assert new_block.kind is BlockKind.SEPARABLE_BOTTLENECK
        assert new_block.layers[1].kind is LayerKind.DEPTHWISE_CONV
        assert out.stages[-1].output_shape() == model.stages[-1].output_shape()

    def test_replacement_that_changes_an_output_shape_rejected(self, monkeypatch):
        """The result skips ``ModelSpec``'s shape-chain check, so the check of
        each replaced stage's output shape is what keeps the chain whole."""
        import turf.ir
        monkeypatch.setattr(turf.ir, "_separable_of_conv",
                            lambda conv: dwsep_block(conv.out_channels + 1))
        with pytest.raises(ShapeMismatch, match="stage 0"):
            replace_layer(small_custom_model(), 0)

    def test_non_convolution_in_a_group_rejected(self):
        model = small_custom_model(n_convs=1)
        model = model._replace(replacement_groups=((len(model.stages) - 1,),))
        with pytest.raises(InvalidReplacement, match="not a replaceable convolution"):
            replace_layer(model, 0)

    def test_double_replacement_rejected(self):
        model = replace_layer(small_custom_model(), 0)
        with pytest.raises(InvalidReplacement):
            replace_layer(model, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidReplacement):
            replace_layer(small_custom_model(), 99)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 16), st.integers(2, 12), st.integers(4, 12))
    def test_replacement_strictly_reduces_ops_and_params(self, f, c, size):
        conv = std_conv(f)  # K = 3 >= 2, F >= 2
        model = ModelSpec("Custom", (Stage(TensorShape(size, size, c), conv),),
                          ((0,),), (Replacement.ORIGIN,))
        before = count_ops_params(model)
        after = count_ops_params(replace_layer(model, 0))
        assert after.total_ops < before.total_ops
        assert after.total_params < before.total_params

    def test_monotone_over_replacement_lattice(self):
        # exhaustive on a 3-position model: adding one more replacement to
        # any replacement set never increases the op count
        base = small_custom_model(n_convs=3)

        def model_for(subset):
            m = base
            for pos in sorted(subset):
                m = replace_layer(m, pos)
            return m

        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(3), k) for k in range(3)):
            before = count_ops_params(model_for(subset)).total_ops
            for pos in set(range(3)) - set(subset):
                after = count_ops_params(model_for(set(subset) | {pos})).total_ops
                assert after < before


class TestJson:
    def test_round_trip(self):
        model = small_custom_model()
        doc = model_to_json(model)
        back = model_from_json(doc)
        assert back == model

    def test_round_trip_with_blocks(self):
        block = bottleneck_block(4, 16)
        model = ModelSpec("Custom", (Stage(TensorShape(8, 8, 16), block),),
                          ((0,),), (Replacement.ORIGIN,))
        assert model_from_json(model_to_json(model)) == model

    def test_reference_shorthand(self):
        model = model_from_json({"base": "mobilenetv1"})
        assert model.base == "MobileNetV1"
        assert model.stages[0].input_shape == TensorShape(224, 224, 3)
