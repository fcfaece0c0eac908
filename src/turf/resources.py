"""Resource estimation, roofline analysis, and hardware design-space search.

Resource usage is predicted by a linear model over module stream widths
(ALMs), multiplier counts (DSPs, one 16-bit multiplier per variable-
precision DSP block), and buffer word counts packed into M20K blocks
(BRAM).  The ALM coefficients ship as calibration data with documented
placeholder values; they stand in for constants fitted to synthesised
designs and are not ground truth.

Roofline accounting (16-bit words, 2 bytes):
  * fused designs move the first layer's input, the last layer's output,
    and each layer's weights once per full-map pass (plus halo reloads and
    output-slice re-reads when tiled);
  * the layer-by-layer baseline moves every intermediate map off chip and
    back, plus weights.
The compute roof is DSPs x 2 ops x clock.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from importlib import resources as importlib_resources

from .errors import (CalibrationError, Infeasible, InvalidTiling,
                     PortMismatch, UnsupportedConfig)
from .fusion import (FusedDesignConfig, SimReport, derive_layer_configs,
                     enumerate_sequences, simulate_fused, tiling_overhead)
from .hw import BufferOption, LayerHwConfig, ModuleKind, Seq, instantiate_layer
from .ir import BlockKind, BlockSpec, LayerKind, LayerSpec, ModelSpec, TensorShape
from .kernels import transform_mult_counts, winograd_config

WORD_BYTES = 2
M20K_BYTES = 2560  # one M20K block = 20 kbit


@dataclass(frozen=True)
class PlatformSpec:
    bandwidth_gbps: float
    dsp_total: int
    bram_blocks: int
    alm_total: int
    clock_mhz: float

    def __post_init__(self):
        if min(self.bandwidth_gbps, self.dsp_total, self.bram_blocks,
               self.alm_total, self.clock_mhz) <= 0:
            raise UnsupportedConfig("platform constants must be positive")

    @property
    def compute_roof_gops(self) -> float:
        """DSPs x 2 ops (one MAC) x clock."""
        return self.dsp_total * 2 * self.clock_mhz / 1e3

    def to_json(self) -> dict:
        return {"bandwidth_gbps": self.bandwidth_gbps, "dsp_total": self.dsp_total,
                "bram_blocks": self.bram_blocks, "alm_total": self.alm_total,
                "clock_mhz": self.clock_mhz}

    @classmethod
    def from_json(cls, doc: dict) -> "PlatformSpec":
        return cls(bandwidth_gbps=doc["bandwidth_gbps"], dsp_total=doc["dsp_total"],
                   bram_blocks=doc["bram_blocks"], alm_total=doc["alm_total"],
                   clock_mhz=doc["clock_mhz"])


# Stratix-V 5SGSD8 on the evaluation node: 262.4K ALMs, 1963 variable-
# precision DSP blocks, 2567 M20K, 38 GB/s off-chip, 200 MHz designs.
STRATIX_V_5SGSD8 = PlatformSpec(bandwidth_gbps=38.0, dsp_total=1963,
                                bram_blocks=2567, alm_total=262400,
                                clock_mhz=200.0)


def load_platform(path: str | None) -> PlatformSpec:
    if path is None:
        return STRATIX_V_5SGSD8
    with open(path) as fh:
        return PlatformSpec.from_json(json.load(fh))


@dataclass(frozen=True)
class CalibrationTable:
    """ALM linear-model coefficients per module kind: base + per_width * width."""

    alm: dict
    source: str = "builtin-placeholder"

    def coeff(self, kind: ModuleKind) -> tuple[float, float]:
        try:
            entry = self.alm[kind.value]
        except KeyError:
            raise CalibrationError(f"no ALM coefficient for module kind {kind.value}") from None
        return entry["base"], entry["per_width"]


def load_calibration(path: str | None = None) -> CalibrationTable:
    if path is None:
        ref = importlib_resources.files("turf.data").joinpath("alm_coefficients.json")
        doc = json.loads(ref.read_text())
        return CalibrationTable(alm=doc["alm"], source="builtin-placeholder")
    with open(path) as fh:
        doc = json.load(fh)
    return CalibrationTable(alm=doc["alm"], source=path)


@dataclass(frozen=True)
class ResourceEstimate:
    dsp_used: int
    bram_used: int
    alm_used: int
    calibration: str = "builtin-placeholder"

    def feasible(self, platform: PlatformSpec) -> bool:
        return (self.dsp_used <= platform.dsp_total
                and self.bram_used <= platform.bram_blocks
                and self.alm_used <= platform.alm_total)


def _bram_blocks(words: int) -> int:
    return math.ceil(words * WORD_BYTES / M20K_BYTES)


def _layer_dsp(layer: LayerSpec, hw) -> int:
    """Multipliers (= 16-bit DSP blocks) one layer's pipeline instantiates:
    the dot-product array's multiplier array plus, on the Winograd path,
    real multipliers for the non-2^n transform constants (2^n constants
    become shifts)."""
    pipeline = instantiate_layer(layer, hw)
    dsp = sum(m.cfg.get("multipliers", 0) for m in pipeline.modules)
    if hw.use_winograd:
        p_c, p_f = hw.p_c, hw.p_f
        lanes_f = 1 if layer.kind is LayerKind.DEPTHWISE_CONV else p_f
        counts = transform_mult_counts(winograd_config(hw.winograd_m, layer.kernel_size))
        # each transform is two constant-matrix multiplies
        dsp += 2 * counts["input"]["general"] * p_c
        dsp += 2 * counts["weight"]["general"] * p_c * lanes_f
        dsp += 2 * counts["output"]["general"] * lanes_f
    return dsp


def estimate_resources(block: BlockSpec, input_shape: TensorShape,
                       cfg: FusedDesignConfig,
                       coeffs: CalibrationTable | None = None) -> ResourceEstimate:
    """Linear resource prediction for one fused design."""
    coeffs = coeffs or load_calibration()
    layer_hw = derive_layer_configs(block, input_shape, cfg)
    layers = block.layers
    n = len(layers)

    dsp = 0
    alm = 0.0
    buffers_words: list[int] = []

    for i, (layer, hw) in enumerate(zip(layers, layer_hw)):
        dsp += _layer_dsp(layer, hw)
        pipeline = instantiate_layer(layer, hw)
        for mod in (*pipeline.modules, *pipeline.weight_path):
            base, per_width = coeffs.coeff(mod.kind)
            alm += (base + per_width * (mod.in_width + mod.out_width)) * mod.replication

        # line-buffer rows and a double-buffered weight staging chunk
        if layer.kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV):
            k_prime = (hw.winograd_m + layer.kernel_size - 1) if hw.use_winograd \
                else layer.kernel_size
            buffers_words.append(k_prime * hw.t_w * hw.p_c)
        lanes_f = 1 if layer.kind is LayerKind.DEPTHWISE_CONV else hw.p_f
        buffers_words.append(2 * hw.p_c * lanes_f * layer.kernel_size ** 2)

    # first input buffer: filter-major layers reuse the whole input tile,
    # channel-major ones stream chunk by chunk
    first = layer_hw[0]
    in_words = (first.t_c if first.seq is Seq.FM else first.p_c) * first.t_h * first.t_w
    buffers_words.append(in_words)
    # last output buffer: channel-major accumulates the full output tile
    last = layer_hw[-1]
    out_shape = layers[-1].output_shape(TensorShape(last.t_h, last.t_w, last.t_c))
    out_ch = last.t_f if last.seq is Seq.CM else last.p_f
    buffers_words.append(out_ch * out_shape.height * out_shape.width)
    # intermediate buffers per their sizing option
    from .fusion import _buffer_tokens, _plan_layers  # sizing shared with the simulator
    plans = _plan_layers(block, input_shape, cfg)
    for i in range(n - 1):
        buffers_words.append(_buffer_tokens(plans, cfg.buffer_options[i], i)[2])

    bram = sum(_bram_blocks(w) for w in buffers_words)
    return ResourceEstimate(dsp_used=dsp, bram_used=bram,
                            alm_used=round(alm), calibration=coeffs.source)


# ---------------------------------------------------------------------------
# Roofline

@dataclass(frozen=True)
class RooflinePoint:
    arithmetic_intensity: float  # ops per off-chip byte
    compute_roof_gops: float
    bandwidth_gbps: float

    @property
    def attainable_gops(self) -> float:
        return min(self.compute_roof_gops,
                   self.arithmetic_intensity * self.bandwidth_gbps)


@dataclass(frozen=True)
class RooflineComparison:
    ops: int
    fused_bytes: int
    baseline_bytes: int
    fused: RooflinePoint
    baseline: RooflinePoint
    weight_model: str = "weights streamed once per full-map pass"


def block_weight_words(block: BlockSpec, input_shape: TensorShape) -> int:
    return block.params(input_shape)


def block_traffic_bytes(block: BlockSpec, input_shape: TensorShape,
                        fused: bool) -> int:
    """Off-chip bytes for one full-map pass (untiled)."""
    shapes = [input_shape]
    for layer in block.layers:
        shapes.append(layer.output_shape(shapes[-1]))
    weights = block_weight_words(block, input_shape)
    if fused:
        words = shapes[0].volume() + shapes[-1].volume() + weights
    else:
        words = weights
        for i in range(len(block.layers)):
            words += shapes[i].volume() + shapes[i + 1].volume()
    return words * WORD_BYTES


def roofline(block: BlockSpec, input_shape: TensorShape,
             platform: PlatformSpec,
             cfg: FusedDesignConfig | None = None) -> RooflineComparison:
    """Fused vs layer-by-layer roofline points for one block.

    When a tiled config is given, halo reloads and per-output-slice input
    re-reads are added to the fused traffic.
    """
    ops = block.ops(input_shape)
    fused_bytes = block_traffic_bytes(block, input_shape, fused=True)
    if cfg is not None:
        if cfg.t_h < input_shape.height or cfg.t_w < input_shape.width:
            fused_bytes += tiling_overhead(block, input_shape,
                                           (cfg.t_h, cfg.t_w)).extra_offchip_bytes
        out_ch = block.output_shape(input_shape).channels
        f_passes = math.ceil(out_ch / cfg.t_f)
        fused_bytes += (f_passes - 1) * input_shape.volume() * WORD_BYTES
    baseline_bytes = block_traffic_bytes(block, input_shape, fused=False)
    roof = platform.compute_roof_gops
    bw = platform.bandwidth_gbps
    return RooflineComparison(
        ops=ops, fused_bytes=fused_bytes, baseline_bytes=baseline_bytes,
        fused=RooflinePoint(ops / fused_bytes, roof, bw),
        baseline=RooflinePoint(ops / baseline_bytes, roof, bw),
    )


def canonical_blocks() -> dict[str, tuple[BlockSpec, TensorShape]]:
    """Shipped demo instances of the three studied block kinds.

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


# ---------------------------------------------------------------------------
# Candidate evaluation and selection

@dataclass(frozen=True)
class DesignCandidate:
    cfg: FusedDesignConfig
    sim: SimReport
    resources: ResourceEstimate
    roofline: RooflinePoint

    @property
    def latency_cycles(self) -> int:
        return self.sim.total_cycles

    def key(self) -> tuple:
        """Deterministic total order: best first."""
        return (-self.roofline.attainable_gops, self.sim.total_cycles,
                self.resources.dsp_used, _cfg_sort_key(self.cfg))


def _cfg_sort_key(cfg: FusedDesignConfig) -> tuple:
    return (cfg.t_h, cfg.t_w, cfg.t_c, cfg.t_f, cfg.p_h, cfg.p_w, cfg.p_c,
            cfg.p_f, tuple(s.value for s in cfg.seqs),
            tuple(b.value for b in cfg.buffer_options))


def pick_best_design(candidates: list[DesignCandidate],
                     platform: PlatformSpec) -> DesignCandidate:
    """Best feasible candidate: max attainable GOPS, then lower latency,
    then fewer DSPs.  Invariant under permutation of the input list."""
    if not candidates:
        raise Infeasible("empty candidate list")
    feasible = [c for c in candidates if c.resources.feasible(platform)]
    if not feasible:
        raise Infeasible(f"no feasible candidate among {len(candidates)}")
    return min(feasible, key=DesignCandidate.key)


def _pow2_divisors(limit: int, value: int) -> list[int]:
    return [p for p in (1, 2, 4, 8, 16, 32, 64, 128)
            if p <= limit and value % p == 0]


def _tile_options(size: int, min_tile: int) -> list[int]:
    out = [size]
    while size % 2 == 0 and size // 2 >= min_tile:
        size //= 2
        out.append(size)
    return out


def _parallelism_combos(block: BlockSpec, chans: list[int], grids: list[list[int]],
                        p_h: int, p_w: int, wino: tuple[bool, ...],
                        winograd_m: int, dsp_total: int,
                        grid_depth: int | None) -> list[tuple[int, ...]]:
    """(P_c^1, ..., P_c^N, P_f) combos whose multipliers fit ``dsp_total``,
    largest first, cut to ``grid_depth`` plus the smallest as a floor.

    A layer's multiplier count depends only on the layer, (P_c, P_f) and
    the spatial option, so it is tabulated once per layer; a depthwise
    layer keeps its channels, so it only takes P_f == P_c.
    """
    table = []
    for i, layer in enumerate(block.layers):
        depthwise = layer.kind is LayerKind.DEPTHWISE_CONV
        table.append({
            (p_c, p_f): _layer_dsp(layer, LayerHwConfig(
                tile=(p_h, p_w, chans[i], chans[i + 1]),
                parallelism=(p_h, p_w, p_c, p_f), use_winograd=wino[i],
                winograd_m=winograd_m))
            for p_c in grids[i] for p_f in grids[i + 1]
            if not depthwise or p_c == p_f})
    combos = []
    for ps in itertools.product(*grids):
        dsp = 0
        for i, layer_dsp in enumerate(table):
            count = layer_dsp.get((ps[i], ps[i + 1]))
            if count is None:
                break
            dsp += count
        else:
            if dsp <= dsp_total:
                combos.append(ps)
    if not combos:
        return []
    combos.sort(key=lambda ps: (-math.prod(ps), ps))
    floor = combos[-1]
    if grid_depth is not None:
        combos = combos[:grid_depth]
        if floor not in combos:
            combos.append(floor)
    return combos


def _grid_points(block: BlockSpec, input_shape: TensorShape, dsp_total: int,
                 max_parallel: int, winograd_m: int, grid_depth: int | None,
                 min_tile: int) -> Iterator[FusedDesignConfig]:
    """The prefiltered grid of ``design_candidates``: one all-FM config per
    (tile, spatial option, surviving parallelism combo), in search order."""
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
    tiles_h = _tile_options(input_shape.height, min_tile)
    tiles_w = _tile_options(input_shape.width, min_tile)
    combos_by_spatial: dict = {}
    for (t_h, t_w), spatial in itertools.product(zip(tiles_h, tiles_w), spatial_opts):
        p_h, p_w, wino = spatial
        if t_h % p_h or t_w % p_w:
            continue

        def make_cfg(ps):
            return FusedDesignConfig(
                t_h=t_h, t_w=t_w, t_c=tuple(chans[:-1]), t_f=chans[-1],
                p_h=p_h, p_w=p_w, p_c=tuple(ps[:-1]), p_f=ps[-1],
                seqs=(Seq.FM,) * n,
                buffer_options=(BufferOption.DOUBLE,) * (n - 1),
                use_winograd=wino, winograd_m=winograd_m)

        if spatial not in combos_by_spatial:
            try:
                combos_by_spatial[spatial] = _parallelism_combos(
                    block, chans, grids, *spatial, winograd_m, dsp_total,
                    grid_depth)
            except (UnsupportedConfig, PortMismatch):
                combos_by_spatial[spatial] = []
        combos = combos_by_spatial[spatial]
        if not combos:
            continue
        try:
            # P = 1 divides every channel tile, so only the tile can fail
            derive_layer_configs(block, input_shape, make_cfg((1,) * (n + 1)))
        except (UnsupportedConfig, PortMismatch):
            continue
        for ps in combos:
            yield make_cfg(ps)


def design_candidates(block: BlockSpec, input_shape: TensorShape,
                      platform: PlatformSpec,
                      coeffs: CalibrationTable | None = None,
                      max_parallel: int = 64,
                      winograd_m: int = 4,
                      grid_depth: int | None = None,
                      min_tile: int = 14) -> list[DesignCandidate]:
    """Enumerate a bounded design grid for one block.

    The grid spans spatial tiles (full map halved down to ``min_tile``),
    power-of-two channel/filter parallelism, the Winograd path
    (P_h = P_w = m) for 3x3 stride-1 layers alongside the direct path
    (P_h = P_w = 1), and every computation-sequence / buffer-option
    combination.  Parallelism combos whose multiplier count exceeds the
    platform's DSPs are dropped before simulation; ``grid_depth`` then
    keeps only the largest few surviving combos (plus the smallest as a
    feasibility floor), since lower parallelism at equal roofline is
    dominated.  Multipliers do not depend on the tile, so this prefilter
    runs once per spatial option, over a per-layer DSP table; a tile is
    then dropped whole when its per-layer tiles do not divide by the
    spatial parallelism (a stride-2 layer can halve a tile to a size that
    is no longer a multiple of m).
    """
    coeffs = coeffs or load_calibration()
    candidates = []
    for cfg in _grid_points(block, input_shape, platform.dsp_total, max_parallel,
                            winograd_m, grid_depth, min_tile):
        try:
            seq_cands = enumerate_sequences(block, input_shape, cfg)
            rl = roofline(block, input_shape, platform, cfg)
        except (UnsupportedConfig, PortMismatch, InvalidTiling):
            continue
        for sc in seq_cands:
            scfg = replace(cfg, seqs=sc.seqs, buffer_options=sc.buffer_options)
            res = estimate_resources(block, input_shape, scfg, coeffs)
            candidates.append(DesignCandidate(scfg, sc.report, res, rl.fused))
    return candidates


def design_gen(block: BlockSpec, input_shape: TensorShape,
               platform: PlatformSpec,
               coeffs: CalibrationTable | None = None,
               max_parallel: int = 64,
               grid_depth: int | None = None) -> DesignCandidate:
    """Hardware DSE for one block: enumerate, then select under constraints."""
    return pick_best_design(
        design_candidates(block, input_shape, platform, coeffs,
                          max_parallel=max_parallel, grid_depth=grid_depth),
        platform)


# ---------------------------------------------------------------------------
# Whole-model evaluation (shared-template DSE)

@dataclass(frozen=True)
class StageDesign:
    stage_index: int
    stage_name: str
    candidate: DesignCandidate | None  # None for zero-cost stages


@dataclass(frozen=True)
class ModelDesign:
    stages: tuple[StageDesign, ...]
    total_cycles: int
    dsp_used: int
    bram_used: int
    alm_used: int

    def latency_ms(self, platform: PlatformSpec) -> float:
        return self.total_cycles / (platform.clock_mhz * 1e3)

    def gops(self, model_ops: int, platform: PlatformSpec) -> float:
        seconds = self.total_cycles / (platform.clock_mhz * 1e6)
        return model_ops / seconds / 1e9 if seconds > 0 else 0.0

    def resources(self) -> ResourceEstimate:
        return ResourceEstimate(self.dsp_used, self.bram_used, self.alm_used)


def _as_block(op) -> BlockSpec | None:
    """View a stage as a simulatable block; None for zero-cost stages."""
    if isinstance(op, BlockSpec):
        return op
    if op.kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV,
                   LayerKind.POINTWISE_CONV, LayerKind.FULLY_CONNECTED):
        return _SingleLayerBlock(op)
    return None


class _SingleLayerBlock:
    """Adapter giving a bare layer the BlockSpec surface the DSE consumes."""

    def __init__(self, layer: LayerSpec):
        self.layers = (layer,)
        self.has_shortcut = False
        self.shortcut_projection = None
        self.kind = None

    def output_shape(self, shape):
        return self.layers[0].output_shape(shape)

    def ops(self, shape):
        return self.layers[0].ops(shape)

    def params(self, shape):
        return self.layers[0].params(shape)


_STAGE_CACHE: dict = {}


def evaluate_model(model: ModelSpec, platform: PlatformSpec,
                   coeffs: CalibrationTable | None = None,
                   max_parallel: int = 64,
                   grid_depth: int | None = 4) -> ModelDesign:
    """Per-stage hardware DSE; the template is reused stage by stage, so the
    model's resource footprint is the maximum over stages and its latency
    the sum.  Stage results are memoised (identical stages recur both
    within a model and across replacement candidates)."""
    coeffs = coeffs or load_calibration()
    rows = []
    total = 0
    dsp = bram = alm = 0
    for i, stage in enumerate(model.stages):
        block = _as_block(stage.op)
        if block is None:
            rows.append(StageDesign(i, stage.name, None))
            continue
        key = (stage.op, stage.input_shape, platform, max_parallel,
               grid_depth, coeffs.source)
        best = _STAGE_CACHE.get(key)
        if best is None:
            best = design_gen(block, stage.input_shape, platform, coeffs,
                              max_parallel=max_parallel, grid_depth=grid_depth)
            _STAGE_CACHE[key] = best
        rows.append(StageDesign(i, stage.name, best))
        total += best.sim.total_cycles
        dsp = max(dsp, best.resources.dsp_used)
        bram = max(bram, best.resources.bram_used)
        alm = max(alm, best.resources.alm_used)
    return ModelDesign(tuple(rows), total, dsp, bram, alm)
