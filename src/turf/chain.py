"""One layer's reference module chain (``hw.instantiate_layer``), which only
``hw describe`` and the tests build; the DSE reads its closed forms in ``hw``.

A design module is a tuple <cfg, in, out>: a named-parameter set plus the
input/output stream widths in elements per cycle.  The descriptor factory
functions implement the published width formulas verbatim:

  line buffer        <{P_c,P_h,P_w},  P_c P_h P_w,   (K'+P_h-1)(K'+P_w-1)>
  input buffer       <{P_c,P_w},      P_c P_w,       P_c P_w>
  output buffer      <{P_f,P_w},      P_f P_w,       P_f P_w>
  input transform    <{P_c,K},        P_c T_k^2,     P_c T_k^2>
  weight transform   <{P_c,P_f,K},    P_c P_f K^2,   P_c P_f T_k^2>
  output transform   <{P_c,P_f,K},    P_c P_f T_k^2, P_c P_f m^2>

with T_k = m + K - 1.  Note the line-buffer output width as printed has no
P_c factor (window overlap sharing); pipelines therefore replicate line
buffers per channel lane and chain on effective widths
(width x replication).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnsupportedConfig
from .hw import (LayerHwConfig, ModuleKind, _array_latency, validate_winograd,
                 winograd_terms)
from .ir import LayerKind, LayerSpec


class ModuleDesc(NamedTuple):
    kind: ModuleKind
    cfg: dict
    in_width: int
    out_width: int
    replication: int = 1
    latency: int = 0


def line_buffer(p_c: int, p_h: int, p_w: int, k_prime: int,
                replication: int = 1, row_length: int = 0) -> ModuleDesc:
    """Sliding-window generator over K' shift-register rows."""
    fill = (k_prime - 1) * row_length + k_prime if row_length else 0
    return ModuleDesc(
        ModuleKind.LINE_BUFFER,
        {"P_c": p_c, "P_h": p_h, "P_w": p_w, "K'": k_prime},
        in_width=p_c * p_h * p_w,
        out_width=(k_prime + p_h - 1) * (k_prime + p_w - 1),
        replication=replication,
        latency=fill,
    )


def input_buffer(p_c: int, p_w: int) -> ModuleDesc:
    return ModuleDesc(ModuleKind.INPUT_BUFFER, {"P_c": p_c, "P_w": p_w},
                      in_width=p_c * p_w, out_width=p_c * p_w, latency=1)


def output_buffer(p_f: int, p_w: int) -> ModuleDesc:
    return ModuleDesc(ModuleKind.OUTPUT_BUFFER, {"P_f": p_f, "P_w": p_w},
                      in_width=p_f * p_w, out_width=p_f * p_w, latency=1)


def winograd_input_transform(p_c: int, k: int, m: int) -> ModuleDesc:
    tk = m + k - 1
    return ModuleDesc(ModuleKind.WINOGRAD_INPUT_TRANSFORM,
                      {"P_c": p_c, "K": k, "m": m},
                      in_width=p_c * tk * tk, out_width=p_c * tk * tk,
                      latency=2 * tk)


def winograd_weight_transform(p_c: int, p_f: int, k: int, m: int) -> ModuleDesc:
    tk = m + k - 1
    return ModuleDesc(ModuleKind.WINOGRAD_WEIGHT_TRANSFORM,
                      {"P_c": p_c, "P_f": p_f, "K": k, "m": m},
                      in_width=p_c * p_f * k * k, out_width=p_c * p_f * tk * tk,
                      latency=2 * tk)


def winograd_output_transform(p_c: int, p_f: int, k: int, m: int) -> ModuleDesc:
    tk = m + k - 1
    return ModuleDesc(ModuleKind.WINOGRAD_OUTPUT_TRANSFORM,
                      {"P_c": p_c, "P_f": p_f, "K": k, "m": m},
                      in_width=p_c * p_f * tk * tk, out_width=p_c * p_f * m * m,
                      latency=2 * tk)


def dot_product_array(in_width: int, out_width: int, multipliers: int,
                      cfg: dict) -> ModuleDesc:
    cfg = dict(cfg, multipliers=multipliers)
    return ModuleDesc(ModuleKind.DOT_PRODUCT_ARRAY, cfg, in_width=in_width,
                      out_width=out_width, latency=_array_latency(in_width))


class LayerPipeline(NamedTuple):
    """Instantiated module chain for one layer."""

    layer: LayerSpec
    hw: LayerHwConfig
    modules: tuple[ModuleDesc, ...]
    weight_path: tuple[ModuleDesc, ...] = ()

    @property
    def fill_latency(self) -> int:
        return sum(m.latency for m in self.modules)

    def check_chain(self) -> None:
        for a, b in zip(self.modules, self.modules[1:]):
            out, into = a.out_width * a.replication, b.in_width * b.replication
            if out != into:
                raise UnsupportedConfig(f"stream width break: {a.kind.value} out "
                                        f"{out} != {b.kind.value} in {into}")


def instantiate(layer: LayerSpec, hw: LayerHwConfig) -> LayerPipeline:
    """``hw.instantiate_layer``'s chain: see there."""
    p_h, p_w, p_c, p_f = hw.parallelism
    kind = layer.kind
    k = layer.kernel_size

    if hw.use_winograd:
        validate_winograd(layer, hw.p_h, hw.p_w, hw.winograd_m)
        m = hw.winograd_m
        tk = winograd_terms(m, k)[0]
        depthwise = kind is LayerKind.DEPTHWISE_CONV
        lanes_f = 1 if depthwise else p_f
        modules = [
            input_buffer(p_c, 1),
            line_buffer(1, 1, 1, tk, replication=p_c, row_length=hw.t_w),
            winograd_input_transform(p_c, k, m),
            dot_product_array(
                in_width=p_c * tk * tk, out_width=lanes_f * tk * tk,
                multipliers=p_c * lanes_f * tk * tk,
                cfg={"P_c": p_c, "P_f": lanes_f, "domain": "winograd"}),
            winograd_output_transform(1, lanes_f, k, m),
            output_buffer(lanes_f, m * m),
        ]
        weight_path = (winograd_weight_transform(p_c, lanes_f, k, m),)
        return LayerPipeline(layer, hw, tuple(modules), weight_path)

    if kind in (LayerKind.POINTWISE_CONV, LayerKind.FULLY_CONNECTED):
        modules = [
            input_buffer(p_c, p_h * p_w),
            dot_product_array(
                in_width=p_c * p_h * p_w, out_width=p_f * p_h * p_w,
                multipliers=p_c * p_f * p_h * p_w,
                cfg={"P_c": p_c, "P_f": p_f}),
            output_buffer(p_f, p_h * p_w),
        ]
        return LayerPipeline(layer, hw, tuple(modules))

    if kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV):
        depthwise = kind is LayerKind.DEPTHWISE_CONV
        lanes_f = 1 if depthwise else p_f
        window = (k + p_h - 1) * (k + p_w - 1)
        modules = [
            input_buffer(p_c, p_h * p_w),
            line_buffer(1, p_h, p_w, k, replication=p_c, row_length=hw.t_w),
            dot_product_array(
                in_width=p_c * window, out_width=lanes_f * p_h * p_w,
                multipliers=p_c * lanes_f * k * k * p_h * p_w,
                cfg={"P_c": p_c, "P_f": lanes_f, "K": k}),
            output_buffer(lanes_f, p_h * p_w),
        ]
        return LayerPipeline(layer, hw, tuple(modules))

    raise UnsupportedConfig(f"no hardware pipeline for layer kind {kind.value}")
