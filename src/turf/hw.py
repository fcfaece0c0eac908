"""Per-layer hardware model: module kinds, layer configs and the closed
forms of each layer's module chain.

``instantiate_layer`` emits the data-path chain for one layer (the weight
path, when Winograd transforms weights, is attached separately) with
parameters chosen so neighbouring effective widths agree.  Channel
accumulation happens inside the dot-product array's adder tree, so
post-array modules see channel-folded streams.  It is the reference chain,
built only by ``hw describe`` and the tests from the modules of
``turf.chain``, which the DSE never compiles.  ``layer_terms`` is its closed
form, the one dispatch on a layer's path (Winograd, pointwise/FC,
standard/depthwise), read by ``fill_cycles``, ``layer_dsp`` and
``module_widths``: through a ``fusion.BlockPlan`` by the simulator and
``resources.estimate_resources`` (fills, line-buffer rows, multipliers, ALM
widths), and per spatial option by the DSE's prefilter, point floor and
plans (``resources._planned_points``).

The Winograd path reads T_k and the transforms' general constants as
integers (``WINOGRAD_TERMS``), not from the exact algebra of
``turf.kernels``, which stays their reference (``tests/test_hw.py``).

Module latencies model pipeline fill only (the papers' width tuples say
nothing about latency); they are additive constants reported separately
by the simulator.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import InefficientConfig, UnsupportedConfig
from .ir import LayerKind, LayerSpec

WINOGRAD_M = 4     # the default Winograd path, F(4x4, 3x3), which the DSE explores

# (m, r) -> (T_k, (g_in, g_w, g_out)) of each supported F(m^2, r^2) instance
WINOGRAD_TERMS = {(2, 3): (4, (0, 0, 0)), (4, 3): (6, (2, 12, 0))}


def winograd_terms(m: int, r: int) -> tuple[int, tuple[int, int, int]]:
    """(T_k, (g_in, g_w, g_out)) of F(m^2, r^2), if turf supports it."""
    try:
        return WINOGRAD_TERMS[(m, r)]
    except KeyError:
        raise UnsupportedConfig(f"no Winograd instance F({m}^2, {r}^2); "
                                f"supported: F(2^2,3^2), F(4^2,3^2)") from None


class ModuleKind(enum.Enum):
    LINE_BUFFER = "LineBuffer"
    INPUT_BUFFER = "InputBuffer"
    OUTPUT_BUFFER = "OutputBuffer"
    WINOGRAD_INPUT_TRANSFORM = "WinogradInputTransform"
    WINOGRAD_WEIGHT_TRANSFORM = "WinogradWeightTransform"
    WINOGRAD_OUTPUT_TRANSFORM = "WinogradOutputTransform"
    DOT_PRODUCT_ARRAY = "DotProductArray"


class Seq(enum.Enum):
    """Computation sequence: filter-major (f,c,i) or channel-major (c,f,i)."""

    FM = "FM"
    CM = "CM"


def _array_latency(in_width: int) -> int:
    """The adder tree's depth, plus one cycle for the multipliers."""
    return max(1, math.ceil(math.log2(max(2, in_width)))) + 1


class LayerHwConfig(NamedTuple("LayerHwConfig", [
        ("tile", tuple[int, int, int, int]),          # (T_h, T_w, T_c, T_f)
        ("parallelism", tuple[int, int, int, int]),   # (P_h, P_w, P_c, P_f)
        ("use_winograd", bool), ("winograd_m", int)])):
    """One layer's hardware knobs: tiles, parallelism and Winograd."""

    __slots__ = ()

    def __new__(cls, tile: tuple, parallelism: tuple, use_winograd: bool = False,
                winograd_m: int = WINOGRAD_M):
        self = super().__new__(cls, tile, parallelism, use_winograd, winograd_m)
        t_h, t_w, t_c, t_f = tile
        p_h, p_w, p_c, p_f = parallelism
        for t, p, name in ((t_h, p_h, "h"), (t_w, p_w, "w"), (t_c, p_c, "c"), (t_f, p_f, "f")):
            if t < 1 or p < 1:
                raise UnsupportedConfig(f"tile/parallelism must be >= 1 (axis {name})")
            if t % p != 0:
                raise UnsupportedConfig(f"P_{name}={p} must divide T_{name}={t}")
        return self

    # each tile and parallelism entry by name
    t_h, t_w, t_c, t_f = (property(lambda self, i=i: self.tile[i]) for i in range(4))
    p_h, p_w, p_c, p_f = (property(lambda self, i=i: self.parallelism[i]) for i in range(4))


def winograd_eligible(layer: LayerSpec) -> bool:
    """Whether ``layer`` can take the Winograd path F(m^2, 3^2): a standard
    or depthwise convolution with K=3 and stride 1."""
    return (layer.kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV)
            and layer.kernel_size == 3 and layer.stride == 1)


def validate_winograd(layer: LayerSpec, p_h: int, p_w: int, m: int) -> None:
    """Raise UnsupportedConfig unless ``layer`` can take the Winograd path
    F(m^2, 3^2) at spatial parallelism (p_h, p_w)."""
    if not winograd_eligible(layer):
        raise UnsupportedConfig(
            "Winograd path requires a standard or depthwise conv with K=3, "
            f"stride 1, got {layer.kind.value} K={layer.kernel_size} "
            f"stride {layer.stride}")
    if p_h != m or p_w != m:
        raise UnsupportedConfig(
            f"Winograd convention: P_h = P_w = m (= {m}), got ({p_h}, {p_w})")


def instantiate_layer(layer: LayerSpec, hw: LayerHwConfig) -> LayerPipeline:
    """Emit the module chain (a ``chain.LayerPipeline``) for one layer.

    Pointwise convolution has a trivial 1x1 window and therefore no line
    buffer or transforms; the Winograd path inserts the three transform
    modules around the dot-product array.  The dot-product array folds the
    P_c channel lanes in its adder tree, so downstream modules see
    channel-accumulated streams.  Only convolution and fully-connected
    layers have a pipeline; no block kind admits any other layer.
    """
    from .chain import instantiate  # the reference chain compiles here, not on import
    return instantiate(layer, hw)


class LayerTerms(NamedTuple):
    """One layer chain's line-buffer rows K' (0 with none), inputs per channel
    lane into the dot-product array, transform fill and multiplier terms."""

    rows: int
    window: int
    transform_fill: int
    a: int
    b: int
    c: int


def layer_terms(layer: LayerSpec, p_h: int, p_w: int, use_winograd: bool,
                m: int) -> LayerTerms:
    """The closed form of ``instantiate_layer``'s chain for ``layer`` at
    spatial parallelism (p_h, p_w), raising what it raises.  Winograd path
    F(m^2, 3^2): T_k rows and T_k^2 inputs, 2·T_k fill per data transform,
    a = T_k^2 Hadamard lanes plus 2·g_w, b = 2·g_in and c = 2·g_out, with g_*
    each transform's non-2^n constants (two constant-matrix multiplies; 2^n
    ones are shifts).  Direct path: K rows and (K+P_h-1)(K+P_w-1) inputs for
    standard/depthwise conv, no line buffer and P_h·P_w inputs for
    pointwise/FC, and a = K^2·P_h·P_w."""
    kind, k = layer.kind, layer.kernel_size
    if use_winograd:
        validate_winograd(layer, p_h, p_w, m)
        tk, (g_in, g_w, g_out) = winograd_terms(m, k)
        return LayerTerms(tk, tk * tk, 4 * tk, tk * tk + 2 * g_w, 2 * g_in, 2 * g_out)
    if kind in (LayerKind.POINTWISE_CONV, LayerKind.FULLY_CONNECTED):
        return LayerTerms(0, p_h * p_w, 0, p_h * p_w, 0, 0)
    if kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV):
        return LayerTerms(k, (k + p_h - 1) * (k + p_w - 1), 0, k * k * p_h * p_w, 0, 0)
    raise UnsupportedConfig(f"no hardware pipeline for layer kind {kind.value}")


def module_widths(layer: LayerSpec, hw: LayerHwConfig) -> tuple:
    """(kind, in_width + out_width, replication) per module of
    ``instantiate_layer``'s chain, then its weight path: closed forms in
    S = P_h·P_w and ``layer_terms``' window W, raising what that raises."""
    p_h, p_w, p_c, p_f = hw.parallelism
    rows, w = layer_terms(layer, p_h, p_w, hw.use_winograd, hw.winograd_m)[:2]
    s, lanes = p_h * p_w, 1 if layer.kind is LayerKind.DEPTHWISE_CONV else p_f
    if not hw.use_winograd:
        line = ((ModuleKind.LINE_BUFFER, s + w, p_c),) if rows else ()
        return ((ModuleKind.INPUT_BUFFER, 2 * p_c * s, 1), *line,
                (ModuleKind.DOT_PRODUCT_ARRAY, p_c * w + lanes * s, 1),
                (ModuleKind.OUTPUT_BUFFER, 2 * lanes * s, 1))
    return ((ModuleKind.INPUT_BUFFER, 2 * p_c, 1), (ModuleKind.LINE_BUFFER, 1 + w, p_c),
            (ModuleKind.WINOGRAD_INPUT_TRANSFORM, 2 * p_c * w, 1),
            (ModuleKind.DOT_PRODUCT_ARRAY, (p_c + lanes) * w, 1),
            (ModuleKind.WINOGRAD_OUTPUT_TRANSFORM, lanes * (w + s), 1),
            (ModuleKind.OUTPUT_BUFFER, 2 * lanes * s, 1),
            (ModuleKind.WINOGRAD_WEIGHT_TRANSFORM, p_c * lanes * (layer.kernel_size ** 2 + w), 1))


def fill_cycles(terms: LayerTerms, t_w: int, p_c: int) -> int:
    """One layer's pipeline fill: one cycle each for the input and output
    buffers, (K'-1)·T_w + K' for a K'-row line buffer, the data transforms'
    fill and the dot-product array's latency."""
    rows, window, transform_fill = terms[:3]
    return 2 + max(rows - 1, 0) * t_w + rows + transform_fill + _array_latency(p_c * window)


def layer_dsp(terms: LayerTerms, p_c: int, lanes_f: int) -> int:
    """Multipliers (= 16-bit DSP blocks) one layer's pipeline instantiates:
    a·P_c·L_f + b·P_c + c·L_f, where L_f is 1 for a depthwise layer and P_f
    otherwise.  Each count is >= 0 and non-decreasing in P_c and L_f."""
    return (terms.a * p_c + terms.c) * lanes_f + terms.b * p_c


def cycle_counts(layer: LayerSpec, tile: tuple, parallelism: tuple) -> tuple[int, int, int]:
    """(compute_cycles per tile, work units per tile under FM, under CM).

    compute_cycles is the nested-loop trip count
    ceil(T_c/P_c) ceil(T_f/P_f) ceil(T_h/P_h) ceil(T_w/P_w); depthwise drops
    the T_f factor.  On the Winograd path P_h = P_w = m (``layer_terms``
    checks it), so the spatial trips count one m x m output tile each.
    Neither depends on the sequence.  A work unit is one outer-loop chunk of
    the seq-major index (filter chunk for FM, channel chunk for CM;
    depthwise layers have a single combined channel axis, chunked under
    either).
    """
    t_h, t_w, t_c, t_f = tile
    p_h, p_w, p_c, p_f = parallelism
    depthwise = layer.kind is LayerKind.DEPTHWISE_CONV
    spatial = math.ceil(t_h / p_h) * math.ceil(t_w / p_w)
    c_trips = math.ceil(t_c / p_c)
    f_trips = 1 if depthwise else math.ceil(t_f / p_f)
    return c_trips * f_trips * spatial, c_trips if depthwise else f_trips, c_trips


class BufferOption(enum.Enum):
    """Intermediate-buffer sizing choice for one layer boundary."""

    MATCH_PREV = "MatchPrev"   # adopt the previous layer's output-side size
    MATCH_NEXT = "MatchNext"   # adopt the next layer's input-side size
    DOUBLE = "Double"          # double the previous-output size (ping-pong)


def intermediate_buffer_words(prev_seq: Seq, cur_seq: Seq,
                              tile: tuple[int, int, int, int],
                              parallelism: tuple[int, int, int, int],
                              option: BufferOption) -> int:
    """Buffer size for a concrete option choice, rejecting inefficient ones.

    A configuration is inefficient when the buffer is too small to store
    the input or output the adjacent sequences require: a channel-major
    producer must accumulate its full output tile, and a filter-major
    consumer re-reads its full input tile, so only full-tile options are
    valid on those sides.
    """
    t_h, t_w, t_c, _ = tile
    p_c = parallelism[2]
    chunk = p_c * t_h * t_w
    full = t_c * t_h * t_w

    if option is BufferOption.MATCH_NEXT:
        if prev_seq is Seq.CM and cur_seq is Seq.CM:
            raise InefficientConfig(
                "(CM,CM) with a next-matched buffer cannot hold the producer's "
                "accumulating output tile")
        return full
    # MATCH_PREV and DOUBLE size from the producer side
    base = chunk if prev_seq is Seq.FM else full
    if cur_seq is Seq.FM and base < full:
        raise InefficientConfig(
            f"({prev_seq.value},{cur_seq.value}) with a {option.value} buffer of "
            f"{base} words cannot hold the consumer's reused input tile ({full} words)")
    return 2 * base if option is BufferOption.DOUBLE else base
