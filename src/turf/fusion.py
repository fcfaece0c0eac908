"""Cycle-accurate simulation of fused convolution blocks.

The block's layers are chained through intermediate buffers and pipelined
at *work-unit* granularity: one unit is one outer-loop chunk of a layer's
computation (a filter chunk for a filter-major layer, a channel chunk for
a channel-major layer).  The unit granularity is where the latency
differences between computation sequences appear, while keeping desk-scale
simulation fast.

Data movement is modelled as tokens through each boundary buffer, one
token per consumer input chunk (the port-matching constraint makes the
producer's filter chunk and the consumer's channel chunk the same size):

  * a filter-major producer finalises one token per unit (early release);
  * a channel-major producer accumulates across all its units and releases
    every token when the last unit completes (release at tile end);
  * a channel-major consumer takes token u for its unit u and frees it on
    completion;
  * a filter-major consumer re-reads its whole input every unit, so it
    needs all tokens resident and frees them only when its last unit
    completes;
  * depthwise layers map tokens one-to-one (channel chunk in, channel
    chunk out) independent of the declared sequence.

A buffer's capacity in tokens follows its sizing option; configurations
whose buffer cannot hold what the adjacent sequences require are rejected
as inefficient before simulation.  Module pipeline-fill latencies delay a
layer's releases by a constant and are reported separately.

Each layer has its own engine, so a unit's start time depends only on
its own dependencies: it is the latest of its engine becoming free (the
layer's previous unit finishing), its input being ready (token u, or every
token for a filter-major consumer) and its output slot being freed (for a
streaming producer, token u - capacity consumed).  The simulator evaluates
this per-unit recurrence directly: it sweeps the layers in order and
advances each while its dependencies are known, which costs O(units) per
pass plus one sweep per producer/consumer hand-off round.  A sweep that
places no unit means the dependencies form a cycle (a deadlock).

Shortcut additions synchronise at tile completion with zero compute
cycles.  One simulation covers one tile pass; spatial and output-channel
tiling multiply the number of sequential passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .errors import (InefficientConfig, InvalidTiling, PortMismatch,
                     ShapeMismatch, SimDeadlock, UnsupportedConfig)
from .hw import (BufferOption, LayerHwConfig, Seq, instantiate_layer,
                 intermediate_buffer_words, layer_cycle_counts)
from .ir import BlockSpec, LayerKind, LayerSpec, TensorShape

CYCLE_MODEL = (
    "one cycle = one parallel step of the nested loops; per-tile compute "
    "cycles = ceil(T_c/P_c) * ceil(T_f/P_f) * ceil(T_h/P_h) * ceil(T_w/P_w), "
    "depthwise drops the T_f factor, Winograd layers process one m x m "
    "output tile per step (P_h = P_w = m); pipeline fill is a per-layer "
    "additive constant"
)


@dataclass(frozen=True)
class FusedDesignConfig:
    """<T_h, T_w, {T_c^i}, T_f, P_h, P_w, {P_c^i}, P_f, {Seq^i}, buffer options>.

    The flattened channel lists encode the port-matching constraint
    structurally: layer i's output channel tile/parallelism is layer i+1's
    input one (``t_c[i+1]``/``p_c[i+1]``), closed by ``t_f``/``p_f``.
    """

    t_h: int
    t_w: int
    t_c: tuple[int, ...]
    t_f: int
    p_h: int
    p_w: int
    p_c: tuple[int, ...]
    p_f: int
    seqs: tuple[Seq, ...]
    buffer_options: tuple[BufferOption, ...]
    use_winograd: tuple[bool, ...] | None = None
    winograd_m: int = 4

    def __post_init__(self):
        object.__setattr__(self, "t_c", tuple(self.t_c))
        object.__setattr__(self, "p_c", tuple(self.p_c))
        object.__setattr__(self, "seqs", tuple(Seq(s) for s in self.seqs))
        object.__setattr__(self, "buffer_options",
                           tuple(BufferOption(b) for b in self.buffer_options))
        if self.use_winograd is not None:
            object.__setattr__(self, "use_winograd", tuple(self.use_winograd))
        n = len(self.seqs)
        if len(self.t_c) != n or len(self.p_c) != n:
            raise PortMismatch("need one T_c/P_c per layer")
        if len(self.buffer_options) != max(0, n - 1):
            raise PortMismatch(f"need {n - 1} buffer options for {n} layers")
        if self.use_winograd is not None and len(self.use_winograd) != n:
            raise PortMismatch("need one winograd flag per layer")

    @property
    def num_layers(self) -> int:
        return len(self.seqs)

    def out_tile(self, i: int) -> tuple[int, int]:
        """(T_c, P_c) on layer i's output side."""
        if i + 1 < self.num_layers:
            return self.t_c[i + 1], self.p_c[i + 1]
        return self.t_f, self.p_f


def config_from_layer_tuples(layers: list[dict],
                             buffer_options: list[str],
                             winograd_m: int = 4) -> FusedDesignConfig:
    """Build a fused config from explicit per-layer tuples, checking Eq.-style
    port matching: P_h/P_w equal across layers and P_c^i = P_f^(i-1)."""
    if not layers:
        raise PortMismatch("empty layer list")
    t_h, t_w = layers[0]["tile"][0], layers[0]["tile"][1]
    p_h, p_w = layers[0]["parallelism"][0], layers[0]["parallelism"][1]
    t_c, p_c, seqs, wino = [], [], [], []
    for i, entry in enumerate(layers):
        th, tw, tc, tf = entry["tile"]
        ph, pw, pc, pf = entry["parallelism"]
        if (ph, pw) != (p_h, p_w):
            raise PortMismatch(
                f"layer {i}: spatial parallelism ({ph},{pw}) != layer 0 ({p_h},{p_w})")
        if i > 0:
            prev_pf = layers[i - 1]["parallelism"][3]
            prev_tf = layers[i - 1]["tile"][3]
            if pc != prev_pf:
                raise PortMismatch(f"layer {i}: P_c={pc} != previous P_f={prev_pf}")
            if tc != prev_tf:
                raise PortMismatch(f"layer {i}: T_c={tc} != previous T_f={prev_tf}")
        t_c.append(tc)
        p_c.append(pc)
        seqs.append(Seq(entry.get("seq", "FM")))
        wino.append(bool(entry.get("winograd", False)))
    t_f = layers[-1]["tile"][3]
    p_f = layers[-1]["parallelism"][3]
    return FusedDesignConfig(t_h, t_w, tuple(t_c), t_f, p_h, p_w, tuple(p_c), p_f,
                             tuple(seqs), tuple(BufferOption(b) for b in buffer_options),
                             use_winograd=tuple(wino), winograd_m=winograd_m)


def config_to_json(cfg: FusedDesignConfig) -> dict:
    doc = {
        "tiles": {"h": cfg.t_h, "w": cfg.t_w, "c": list(cfg.t_c), "f": cfg.t_f},
        "parallelism": {"h": cfg.p_h, "w": cfg.p_w, "c": list(cfg.p_c), "f": cfg.p_f},
        "seqs": [s.value for s in cfg.seqs],
        "buffers": [b.value for b in cfg.buffer_options],
        "winograd_m": cfg.winograd_m,
    }
    if cfg.use_winograd is not None:
        doc["winograd"] = list(cfg.use_winograd)
    return doc


def config_from_json(doc: dict) -> FusedDesignConfig:
    """Parse a fused-design config document.

    Accepts the flattened form (``tiles``/``parallelism`` with per-layer
    channel lists) or an explicit per-layer list (``layers``), the latter
    checked for port matching.
    """
    if "layers" in doc:
        return config_from_layer_tuples(doc["layers"], doc.get("buffers", []),
                                        winograd_m=doc.get("winograd_m", 4))
    tiles, par = doc["tiles"], doc["parallelism"]
    return FusedDesignConfig(
        t_h=tiles["h"], t_w=tiles["w"], t_c=tuple(tiles["c"]), t_f=tiles["f"],
        p_h=par["h"], p_w=par["w"], p_c=tuple(par["c"]), p_f=par["f"],
        seqs=tuple(Seq(s) for s in doc["seqs"]),
        buffer_options=tuple(BufferOption(b) for b in doc.get("buffers", [])),
        use_winograd=tuple(doc["winograd"]) if "winograd" in doc else None,
        winograd_m=doc.get("winograd_m", 4),
    )


# ---------------------------------------------------------------------------
# Report types

@dataclass(frozen=True)
class LayerActivity:
    index: int
    seq: Seq
    work_units: int
    cycles_per_unit: int
    busy_cycles: int
    stall_cycles: int
    first_start: int
    last_finish: int
    fill_cycles: int


@dataclass(frozen=True)
class BufferActivity:
    index: int              # buffer i sits between layer i and layer i+1
    option: BufferOption
    words: int
    tokens: int
    capacity_tokens: int
    peak_tokens: int


@dataclass(frozen=True)
class SimEvent:
    time: int
    layer: int
    unit: int
    event: str  # "start" | "finish" | "release"


@dataclass(frozen=True)
class SimReport:
    total_cycles: int
    per_pass_cycles: int
    n_passes: int
    fill_cycles: int
    layers: tuple[LayerActivity, ...]
    buffers: tuple[BufferActivity, ...]
    events: tuple[SimEvent, ...] = ()
    redundant_compute_ops: int = 0
    extra_offchip_bytes: int = 0
    cycle_model: str = CYCLE_MODEL

    @property
    def total_buffer_words(self) -> int:
        return sum(b.words for b in self.buffers)


# ---------------------------------------------------------------------------
# Per-layer derivation

@dataclass(frozen=True)
class _LayerPlan:
    layer: LayerSpec
    hw: LayerHwConfig
    units: int
    cycles_per_unit: int
    fill: int
    producer_stream: bool   # releases one token per unit
    consumer_stream: bool   # takes token u at unit u (else needs all resident)


def _tile_spatial(t_h: int, t_w: int, layer: LayerSpec) -> tuple[int, int]:
    """Output tile dims (same-padding tiling convention: ceil division)."""
    s = layer.stride
    return max(1, -(-t_h // s)), max(1, -(-t_w // s))


def derive_layer_configs(block: BlockSpec, input_shape: TensorShape,
                         cfg: FusedDesignConfig) -> list[LayerHwConfig]:
    """Expand a fused config into one LayerHwConfig per block layer."""
    layers = block.layers
    n = len(layers)
    if cfg.num_layers != n:
        raise PortMismatch(f"config has {cfg.num_layers} layers, block has {n}")

    # channel extents through the block
    chans = [input_shape.channels]
    for layer in layers:
        chans.append(layer.output_shape(
            TensorShape(8, 8, chans[-1])).channels)

    if cfg.t_c[0] < chans[0]:
        raise UnsupportedConfig(
            "input-channel tiling of a fused block would need cross-pass "
            "accumulation of intermediate maps; tile T_c^1 must cover all "
            f"{chans[0]} input channels")

    wino = cfg.use_winograd
    if wino is None:
        wino = tuple(l.kind in (LayerKind.STANDARD_CONV, LayerKind.DEPTHWISE_CONV)
                     and l.kernel_size == 3 and l.stride == 1 for l in layers)

    out = []
    th, tw = cfg.t_h, cfg.t_w
    for i, layer in enumerate(layers):
        t_c, p_c = cfg.t_c[i], cfg.p_c[i]
        if t_c != chans[i] and i > 0:
            raise UnsupportedConfig(
                f"intermediate tile T_c^{i + 1}={t_c} must equal the full "
                f"intermediate channel extent {chans[i]}")
        t_f, p_f = cfg.out_tile(i)
        if layer.kind is LayerKind.DEPTHWISE_CONV:
            if t_f != t_c or p_f != p_c:
                raise PortMismatch(
                    f"layer {i} is depthwise (channels preserved): output tile "
                    f"({t_f},{p_f}) must equal input tile ({t_c},{p_c})")
        th_out, tw_out = _tile_spatial(th, tw, layer)
        out.append(LayerHwConfig(
            tile=(th, tw, t_c, t_f),
            parallelism=(cfg.p_h, cfg.p_w, p_c, p_f),
            seq=cfg.seqs[i],
            use_winograd=wino[i],
            winograd_m=cfg.winograd_m,
        ))
        th, tw = th_out, tw_out
    return out


def _plan_layers(block: BlockSpec, input_shape: TensorShape,
                 cfg: FusedDesignConfig) -> list[_LayerPlan]:
    plans = []
    for i, (layer, hw) in enumerate(zip(block.layers,
                                        derive_layer_configs(block, input_shape, cfg))):
        cycles, units = layer_cycle_counts(layer, hw)
        pipeline = instantiate_layer(layer, hw)
        depthwise = layer.kind is LayerKind.DEPTHWISE_CONV
        plans.append(_LayerPlan(
            layer=layer, hw=hw, units=units,
            cycles_per_unit=cycles // units,
            fill=pipeline.fill_latency,
            producer_stream=depthwise or hw.seq is Seq.FM,
            consumer_stream=depthwise or hw.seq is Seq.CM,
        ))
    return plans


def _buffer_tokens(plans: list[_LayerPlan], option: BufferOption,
                   i: int) -> tuple[int, int, int]:
    """(tokens, capacity_tokens, words) for the buffer after layer i."""
    consumer = plans[i + 1]
    tokens = math.ceil(consumer.hw.t_c / consumer.hw.p_c)
    words = intermediate_buffer_words(plans[i].hw.seq, consumer.hw.seq,
                                      consumer.hw.tile, consumer.hw.parallelism,
                                      option)
    chunk_words = consumer.hw.p_c * consumer.hw.t_h * consumer.hw.t_w
    cap = max(1, words // chunk_words)
    if not consumer.consumer_stream and cap < tokens:
        raise InefficientConfig(
            f"buffer {i}: filter-major consumer needs all {tokens} chunks resident, "
            f"capacity is {cap}")
    if not plans[i].producer_stream and cap < tokens:
        raise InefficientConfig(
            f"buffer {i}: channel-major producer accumulates {tokens} chunks, "
            f"capacity is {cap}")
    return tokens, cap, words


def _buffer_caps(plans: list[_LayerPlan],
                 options: tuple[BufferOption, ...]) -> list[tuple[int, int, int]]:
    return [_buffer_tokens(plans, options[i], i) for i in range(len(plans) - 1)]


@dataclass
class _BufferState:
    tokens: int
    cap: int
    ready: list
    freed: list
    reserved: list
    all_ready: int | None = None   # time the last token became ready

    def peak(self) -> int:
        """Most tokens held at once.  Reserve and free times are each
        non-decreasing, so one merge counts them; a reservation at time t
        counts before a free at t."""
        held = [(r, f) for r, f in zip(self.reserved, self.freed) if r is not None]
        frees = [math.inf if f is None else f for _, f in held]
        cur = peak = j = 0
        for r, _ in held:
            while frees[j] < r:
                cur -= 1
                j += 1
            cur += 1
            peak = max(peak, cur)
        return peak


def _simulate_pass(plans: list[_LayerPlan], caps: list[tuple[int, int, int]],
                   collect_events: bool) -> tuple[int, list, list, list]:
    """One tile pass.  Returns (makespan, starts, finishes, (buffer states, events)).

    A unit starts at the latest of engine-free, input-ready and slot-freed
    (see the module docstring), so start times do not depend on the order
    units are placed in.  Each sweep advances every layer, in order, while
    its next unit's dependencies are known; a sweep that places no unit
    raises ``SimDeadlock``.  Each buffer keeps the time its last token
    became ready, which is what a filter-major consumer waits for.
    """
    n = len(plans)
    bufs = [_BufferState(t, c, [None] * t, [None] * t, [None] * t)
            for (t, c, _) in caps]
    next_unit = [0] * n
    engine_free = [0] * n
    starts = [[None] * p.units for p in plans]
    finishes = [[None] * p.units for p in plans]
    events: list[SimEvent] = []
    remaining = sum(p.units for p in plans)

    while remaining:
        placed = 0
        for i, plan in enumerate(plans):
            inbuf = bufs[i - 1] if i > 0 else None
            outbuf = bufs[i] if i < n - 1 else None
            units, cycles = plan.units, plan.cycles_per_unit
            u = next_unit[i]
            while u < units:
                t = engine_free[i]
                if inbuf is not None:
                    ready = inbuf.ready[u] if plan.consumer_stream else inbuf.all_ready
                    if ready is None:
                        break
                    if ready > t:
                        t = ready
                if outbuf is not None and plan.producer_stream and u >= outbuf.cap:
                    # channel-major producers reserve the whole tile region
                    # at unit 0; capacity >= tokens was validated, so no wait
                    freed = outbuf.freed[u - outbuf.cap]
                    if freed is None:
                        break
                    if freed > t:
                        t = freed

                finish = t + cycles
                starts[i][u] = t
                finishes[i][u] = finish
                engine_free[i] = finish
                if collect_events:
                    events.append(SimEvent(t, i, u, "start"))
                    events.append(SimEvent(finish, i, u, "finish"))
                last = u == units - 1
                if inbuf is not None:
                    if plan.consumer_stream:
                        inbuf.freed[u] = finish
                    elif last:
                        inbuf.freed = [finish] * inbuf.tokens
                if outbuf is not None:
                    release = finish + plan.fill
                    if plan.producer_stream:
                        outbuf.reserved[u] = t
                        outbuf.ready[u] = release
                        if u == outbuf.tokens - 1:
                            outbuf.all_ready = release
                        if collect_events:
                            events.append(SimEvent(release, i, u, "release"))
                    else:
                        if u == 0:
                            outbuf.reserved = [t] * outbuf.tokens
                        if last:
                            outbuf.ready = [release] * outbuf.tokens
                            outbuf.all_ready = release
                            if collect_events:
                                events.append(SimEvent(release, i, u, "release"))
                u += 1
            placed += u - next_unit[i]
            next_unit[i] = u
        if not placed:
            raise SimDeadlock(
                f"no schedulable unit with {remaining} units remaining",
                trace=events)
        remaining -= placed

    # intermediate fills already propagated through token release times;
    # the last layer's own fill extends the makespan
    makespan = max(max(f[-1] for f in finishes),
                   finishes[n - 1][-1] + plans[n - 1].fill)
    return makespan, starts, finishes, (bufs, events)


def _pass_count(block: BlockSpec, input_shape: TensorShape,
                cfg: FusedDesignConfig) -> int:
    """Sequential tile passes: spatial tiles times output-channel slices."""
    spatial = math.ceil(input_shape.height / cfg.t_h) * \
        math.ceil(input_shape.width / cfg.t_w)
    return spatial * math.ceil(block.output_shape(input_shape).channels / cfg.t_f)


def _sim_report(plans: list[_LayerPlan], options: tuple[BufferOption, ...],
                caps: list[tuple[int, int, int]], simulated: tuple,
                n_passes: int) -> SimReport:
    """The report of one ``_simulate_pass`` result over ``n_passes`` passes."""
    makespan, starts, finishes, (bufs, events) = simulated

    layer_rows = []
    for i, plan in enumerate(plans):
        busy = plan.units * plan.cycles_per_unit
        first = starts[i][0]
        last = finishes[i][-1]
        layer_rows.append(LayerActivity(
            index=i, seq=plan.hw.seq, work_units=plan.units,
            cycles_per_unit=plan.cycles_per_unit, busy_cycles=busy,
            stall_cycles=(last - first) - busy, first_start=first,
            last_finish=last, fill_cycles=plan.fill))

    buffer_rows = []
    for i, ((tokens, cap, words), b) in enumerate(zip(caps, bufs)):
        buffer_rows.append(BufferActivity(
            index=i, option=options[i], words=words,
            tokens=tokens, capacity_tokens=cap, peak_tokens=b.peak()))

    return SimReport(
        total_cycles=makespan * n_passes,
        per_pass_cycles=makespan,
        n_passes=n_passes,
        fill_cycles=sum(p.fill for p in plans),
        layers=tuple(layer_rows),
        buffers=tuple(buffer_rows),
        events=tuple(sorted(events, key=lambda e: (e.time, e.layer, e.unit))),
    )


def simulate_fused(block: BlockSpec, input_shape: TensorShape,
                   cfg: FusedDesignConfig, collect_events: bool = False,
                   include_fill: bool = True) -> SimReport:
    """Simulate one fused launch of ``block`` over ``input_shape``.

    Spatial tiles and output-channel slices execute as sequential passes of
    the same pipeline; the report covers the whole input.
    """
    plans = _plan_layers(block, input_shape, cfg)
    if not include_fill:
        plans = [replace(p, fill=0) for p in plans]
    options = cfg.buffer_options
    caps = _buffer_caps(plans, options)
    return _sim_report(plans, options, caps,
                       _simulate_pass(plans, caps, collect_events),
                       _pass_count(block, input_shape, cfg))


# ---------------------------------------------------------------------------
# Sequence enumeration

_SEQ_ORDER = (Seq.FM, Seq.CM)
_OPTION_ORDER = (BufferOption.MATCH_PREV, BufferOption.MATCH_NEXT, BufferOption.DOUBLE)


@dataclass(frozen=True)
class SeqCandidate:
    seqs: tuple[Seq, ...]
    buffer_options: tuple[BufferOption, ...]
    report: SimReport

    @property
    def label(self) -> str:
        return "".join("F" if s is Seq.FM else "C" for s in self.seqs)

    @property
    def seq_order_key(self) -> tuple[int, ...]:
        return tuple(_SEQ_ORDER.index(s) for s in self.seqs)


def enumerate_sequences(block: BlockSpec, input_shape: TensorShape,
                        cfg: FusedDesignConfig,
                        max_layers: int = 8) -> list[SeqCandidate]:
    """Evaluate every computation-sequence combination of the block.

    For each of the 2^N sequence assignments, all buffer-option
    combinations are simulated and the best (lowest cycles, then smallest
    buffer footprint) is kept.  Entries are sorted by total cycles, then
    total buffer words, then the FM-before-CM lexicographic order of the
    sequence string.  The layer plan is derived once per assignment;
    options whose buffers cannot hold what the sequences need are rejected
    by sizing alone, and only each assignment's best options get a report.
    """
    n = cfg.num_layers
    if n > max_layers:
        raise UnsupportedConfig(f"{n} layers exceeds enumeration bound {max_layers}")
    n_passes = _pass_count(block, input_shape, cfg)
    results = []
    for seqs in itertools.product(_SEQ_ORDER, repeat=n):
        # the per-layer plan depends on the sequences, not the buffer options
        plans = _plan_layers(block, input_shape, replace(cfg, seqs=seqs))
        best = None
        for options in itertools.product(_OPTION_ORDER, repeat=max(0, n - 1)):
            try:
                caps = _buffer_caps(plans, options)
            except InefficientConfig:
                continue
            simulated = _simulate_pass(plans, caps, False)
            # the report's (total_cycles, total_buffer_words), without building it
            key = (simulated[0] * n_passes, sum(words for _, _, words in caps),
                   tuple(_OPTION_ORDER.index(o) for o in options))
            if best is None or key < best[0]:
                best = (key, options, caps, simulated)
        if best is not None:
            _, options, caps, simulated = best
            results.append(SeqCandidate(
                seqs, options, _sim_report(plans, options, caps, simulated, n_passes)))
    results.sort(key=lambda c: (c.report.total_cycles,
                                c.report.total_buffer_words, c.seq_order_key))
    return results


# ---------------------------------------------------------------------------
# Tiling overhead

@dataclass(frozen=True)
class TilingOverhead:
    redundant_ops: int
    extra_offchip_bytes: int


def _grow_back(region: tuple[int, int], layer: LayerSpec, size: int) -> tuple[int, int]:
    """Input interval needed to produce output rows [a, b), clipped to the map."""
    a, b = region
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    lo = a * s - p
    hi = (b - 1) * s + k - p
    return max(0, lo), min(size, hi)


def tiling_overhead(block: BlockSpec, input_shape: TensorShape,
                    tile: tuple[int, int], word_bytes: int = 2) -> TilingOverhead:
    """Redundant computation and extra off-chip traffic from spatial tiling.

    Output tiles partition the final feature map; each tile's required
    region of every intermediate map grows by the downstream receptive
    field, and pixels falling outside the tile's own share are recomputed
    by neighbouring tiles.  Both counts are zero when the tile covers the
    whole map.
    """
    layers = block.layers
    t_h, t_w = tile
    # receptive-field check on the block input
    rf = 1
    for layer in reversed(layers):
        rf = (rf - 1) * layer.stride + layer.kernel_size
    if t_h < rf or t_w < rf:
        raise InvalidTiling(f"tile {tile} smaller than the block receptive field {rf}")

    # per-layer map dims and per-output-pixel op counts
    shapes = [input_shape]
    for layer in layers:
        shapes.append(layer.output_shape(shapes[-1]))
    ops_per_px = []
    for layer, shp in zip(layers, shapes):
        out = layer.output_shape(shp)
        ops_per_px.append(layer.ops(shp) // (out.height * out.width))

    total_stride_h = total_stride_w = 1
    for layer in layers:
        total_stride_h *= layer.stride
        total_stride_w *= layer.stride
    out_h, out_w = shapes[-1].height, shapes[-1].width
    tile_out_h = max(1, -(-t_h // total_stride_h))
    tile_out_w = max(1, -(-t_w // total_stride_w))

    # computed[j]: pixels of layer j's output produced across all tiles
    computed = [0] * len(layers)
    extra_px = 0
    for ty in range(0, out_h, tile_out_h):
        for tx in range(0, out_w, tile_out_w):
            rows = (ty, min(out_h, ty + tile_out_h))
            cols = (tx, min(out_w, tx + tile_out_w))
            computed[-1] += (rows[1] - rows[0]) * (cols[1] - cols[0])
            # walk backward: the input region of layer j is the output
            # region layer j-1 must compute for this tile
            for j in range(len(layers) - 1, -1, -1):
                rows = _grow_back(rows, layers[j], shapes[j].height)
                cols = _grow_back(cols, layers[j], shapes[j].width)
                area = (rows[1] - rows[0]) * (cols[1] - cols[0])
                if j > 0:
                    computed[j - 1] += area
            extra_px += area

    redundant = sum((computed[j] - shapes[j + 1].height * shapes[j + 1].width)
                    * ops_per_px[j] for j in range(len(layers)))
    extra_px -= input_shape.height * input_shape.width

    return TilingOverhead(
        redundant_ops=max(0, redundant),
        extra_offchip_bytes=max(0, extra_px) * input_shape.channels * word_bytes,
    )
