"""Design-space exploration toolkit for CNN accelerator generation."""

__version__ = "0.1.0"

from .ir import (BlockKind, BlockSpec, LayerKind, LayerSpec, ModelSpec,
                 OpParamReport, Replacement, Stage, TensorShape,
                 count_ops_params, replace_layer)

__all__ = [
    "BlockKind", "BlockSpec", "LayerKind", "LayerSpec", "ModelSpec",
    "OpParamReport", "Replacement", "Stage", "TensorShape",
    "count_ops_params", "replace_layer", "__version__",
]
