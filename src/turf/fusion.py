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

A fused design is scheduled once into a ``BlockPlan``, by ``plan_block`` for
a parsed config or from the DSE's grid: each layer's hardware config and
chain terms (``hw.layer_terms``), its work units, cycles per unit, fill and
stream flags under either computation sequence as plain numbers
(``block_schedule``), and the pass count.  The cycle bound of each sequence
assignment, the buffer-option search and the simulator read only that
schedule; only ``hw describe`` builds a layer's module pipeline.  A bare
convolution or fully-connected layer is its own one-layer block.  The search
simulates bare passes (``_simulate_pass``); only ``simulate_fused`` builds a
report, in ``turf.inspection``, the home of the report records.

The buffer-option search (``best_options``) is first fit: full-tile buffers
reach the floor ``_pass_lower_bound`` under every sequence assignment, so it
takes the smallest option set that does (Stuijk, Geilen & Basten, DAC 2006).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import (InefficientConfig, InvalidTiling, PortMismatch,
                     SimDeadlock, UnsupportedConfig)
from .hw import (WINOGRAD_M, BufferOption, LayerHwConfig, LayerTerms, Seq, cycle_counts,
                 fill_cycles, intermediate_buffer_words, layer_terms)
from .ir import BlockSpec, LayerKind, LayerSpec, TensorShape, layer_shapes

class FusedDesignConfig(NamedTuple):
    """<T_h, T_w, {T_c^i}, T_f, P_h, P_w, {P_c^i}, P_f, {Seq^i}, buffer options>.

    The flattened channel lists encode the port-matching constraint
    structurally: layer i's output channel tile/parallelism is layer i+1's
    input one (``t_c[i+1]``/``p_c[i+1]``), closed by ``t_f``/``p_f``.  A plain
    record: a config document is parsed and checked by
    ``inspection.config_from_json``, only for ``hw describe`` and
    ``simulate``; the search builds its own valid by construction.
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
    use_winograd: tuple[bool, ...]
    winograd_m: int = WINOGRAD_M

    @property
    def num_layers(self) -> int:
        return len(self.seqs)

    def out_tile(self, i: int) -> tuple[int, int]:
        """(T_c, P_c) on layer i's output side."""
        if i + 1 < self.num_layers:
            return self.t_c[i + 1], self.p_c[i + 1]
        return self.t_f, self.p_f


def config_to_json(cfg: FusedDesignConfig) -> dict:
    return {
        "tiles": {"h": cfg.t_h, "w": cfg.t_w, "c": list(cfg.t_c), "f": cfg.t_f},
        "parallelism": {"h": cfg.p_h, "w": cfg.p_w, "c": list(cfg.p_c), "f": cfg.p_f},
        "seqs": [s.value for s in cfg.seqs],
        "buffers": [b.value for b in cfg.buffer_options],
        "winograd_m": cfg.winograd_m,
        "winograd": list(cfg.use_winograd),
    }


# ---------------------------------------------------------------------------
# Per-layer derivation

_SEQ_ORDER = (Seq.FM, Seq.CM)
_ALL_TOKENS = (1, 1, 0)  # a buffer's (tokens, capacity, words) when it holds every token


class LayerSchedule(NamedTuple):
    """One layer's work in a tile pass under one computation sequence."""

    units: int
    cycles_per_unit: int
    fill: int
    producer_stream: bool   # releases one token per unit
    consumer_stream: bool   # takes token u at unit u (else needs all resident)


def layer_tiles(layers, t_h: int, t_w: int) -> list[tuple[int, int]]:
    """Each layer's (T_h, T_w) for a block tile (T_h, T_w): the same-padding
    tiling convention divides it by each earlier stride, rounding up."""
    tiles = [(t_h, t_w)]
    for layer in layers[:-1]:
        tiles.append((-(-tiles[-1][0] // layer.stride), -(-tiles[-1][1] // layer.stride)))
    return tiles


def derive_layer_configs(block: BlockSpec | LayerSpec, input_shape: TensorShape,
                         cfg: FusedDesignConfig, chans: list[int]) -> list[LayerHwConfig]:
    """Expand a fused config into one LayerHwConfig per block layer;
    ``chans`` is the channels into each layer, then out of the last."""
    layers = block.layers
    n = len(layers)
    if cfg.num_layers != n:
        raise PortMismatch(f"config has {cfg.num_layers} layers, block has {n}")

    if cfg.t_h > input_shape.height or cfg.t_w > input_shape.width or \
            cfg.t_f > chans[-1]:
        raise UnsupportedConfig(
            f"tile (T_h, T_w, T_f) = {(cfg.t_h, cfg.t_w, cfg.t_f)} exceeds the "
            f"stage's {(input_shape.height, input_shape.width, chans[-1])}")

    out = []
    for i, (layer, (th, tw)) in enumerate(zip(layers, layer_tiles(layers, cfg.t_h, cfg.t_w))):
        t_c, p_c = cfg.t_c[i], cfg.p_c[i]
        if t_c != chans[i]:
            raise UnsupportedConfig(
                f"tile T_c^{i + 1}={t_c} must equal the {chans[i]} channels into "
                f"layer {i + 1}: tiling channels inside a fused block would need "
                "cross-pass accumulation of intermediate maps")
        t_f, p_f = cfg.out_tile(i)
        if layer.kind is LayerKind.DEPTHWISE_CONV:
            if t_f != t_c or p_f != p_c:
                raise PortMismatch(
                    f"layer {i} is depthwise (channels preserved): output tile "
                    f"({t_f},{p_f}) must equal input tile ({t_c},{p_c})")
        out.append(LayerHwConfig(
            tile=(th, tw, t_c, t_f),
            parallelism=(cfg.p_h, cfg.p_w, p_c, p_f),
            use_winograd=cfg.use_winograd[i],
            winograd_m=cfg.winograd_m,
        ))
    return out


class BlockPlan(NamedTuple):
    """One fused design of a stage, scheduled once from a parsed config or the grid.
    ``by_seq[k][i]`` is layer i's schedule under ``_SEQ_ORDER[k]`` (no lookup
    hashes a ``Seq``), and ``hws[i]`` its hardware config under ``cfg`` with
    ``terms[i]`` its chain's constants (the sequence changes neither the
    config's other fields nor the module pipeline)."""

    cfg: FusedDesignConfig
    layers: tuple[LayerSpec, ...]
    hws: tuple[LayerHwConfig, ...]
    terms: tuple[LayerTerms, ...]
    by_seq: tuple[tuple[LayerSchedule, ...], tuple[LayerSchedule, ...]]
    n_passes: int   # sequential tile passes: spatial tiles x output-channel slices

    def schedule(self, seqs: tuple[Seq, ...]) -> list[LayerSchedule]:
        return [self.by_seq[s is Seq.CM][i] for i, s in enumerate(seqs)]


def block_schedule(layers, counts, fills) -> tuple[tuple[LayerSchedule, ...], ...]:
    """A ``BlockPlan``'s ``by_seq`` when layer i's ``hw.cycle_counts`` are
    ``counts[i]`` and its ``hw.fill_cycles`` is ``fills[i]``."""
    fm, cm = [], []
    for layer, (cycles, f_units, c_units), lag in zip(layers, counts, fills):
        depthwise = layer.kind is LayerKind.DEPTHWISE_CONV
        fm.append(LayerSchedule(f_units, cycles // f_units, lag, True, depthwise))
        cm.append(LayerSchedule(c_units, cycles // c_units, lag, depthwise, True))
    return tuple(fm), tuple(cm)


def plan_block(op: BlockSpec | LayerSpec, input_shape: TensorShape,
               cfg: FusedDesignConfig) -> BlockPlan:
    """Schedule a parsed ``cfg`` on ``op`` (a block, or a layer as its own
    one-layer block): ``derive_layer_configs`` once, then per layer its
    chain's terms (``hw.layer_terms``) and ``block_schedule``.  Raises what
    those raise for ``cfg``, which is all that ``instantiate_layer`` would."""
    chans = [s.channels for s in layer_shapes(op, input_shape)]
    layers = op.layers
    hws = derive_layer_configs(op, input_shape, cfg, chans)
    terms = tuple(layer_terms(layer, hw.p_h, hw.p_w, hw.use_winograd, hw.winograd_m)
                  for layer, hw in zip(layers, hws))
    counts = [cycle_counts(layer, hw.tile, hw.parallelism) for layer, hw in zip(layers, hws)]
    fills = [fill_cycles(t, hw.t_w, hw.p_c) for t, hw in zip(terms, hws)]
    return BlockPlan(cfg, layers, tuple(hws), terms, block_schedule(layers, counts, fills),
                     math.ceil(input_shape.height / cfg.t_h) *
                     math.ceil(input_shape.width / cfg.t_w) * math.ceil(chans[-1] / cfg.t_f))


def _buffer_caps(plan: BlockPlan, seqs: tuple[Seq, ...],
                 options: tuple[BufferOption, ...]) -> list[tuple[int, int, int]]:
    """(tokens, capacity_tokens, words) per intermediate buffer of ``plan``
    under ``seqs``.  ``intermediate_buffer_words`` raises
    ``InefficientConfig`` for an option too small for the sequences, so the
    capacity covers every token whenever the producer is channel-major or
    the consumer filter-major."""
    caps = []
    for i, (option, consumer) in enumerate(zip(options, plan.hws[1:])):
        words = intermediate_buffer_words(seqs[i], seqs[i + 1], consumer.tile,
                                          consumer.parallelism, option)
        cap = max(1, words // (consumer.p_c * consumer.t_h * consumer.t_w))
        caps.append((math.ceil(consumer.t_c / consumer.p_c), cap, words))
    return caps


class _BufferState:
    """One intermediate buffer's token times during a simulated pass."""

    __slots__ = ("tokens", "cap", "ready", "freed", "reserved", "all_ready")

    def __init__(self, tokens: int, cap: int):
        self.tokens, self.cap = tokens, cap
        self.ready, self.freed, self.reserved = [None] * tokens, [None] * tokens, [None] * tokens
        self.all_ready: int | None = None   # time the last token became ready


def _simulate_pass(plans: list[LayerSchedule], caps: list[tuple[int, int, int]],
                   collect_events: bool) -> tuple[int, list, list, list]:
    """One tile pass.  Returns (makespan, starts, finishes, (buffer states,
    events)), each event a (time, layer, unit, kind) tuple.

    A unit starts at the latest of engine-free, input-ready and slot-freed
    (see the module docstring), so start times do not depend on the order
    units are placed in.  Each sweep advances every layer, in order, while
    its next unit's dependencies are known; a sweep that places no unit
    raises ``SimDeadlock``.  Each buffer keeps the time its last token
    became ready, which is what a filter-major consumer waits for.
    """
    n = len(plans)
    bufs = [_BufferState(t, c) for (t, c, _) in caps]
    next_unit = [0] * n
    engine_free = [0] * n
    starts = [[None] * p.units for p in plans]
    finishes = [[None] * p.units for p in plans]
    events = []
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
                    # at unit 0; their capacity covers every token
                    # (``_buffer_caps``), so no wait
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
                    events.append((t, i, u, "start"))
                    events.append((finish, i, u, "finish"))
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
                            events.append((release, i, u, "release"))
                    else:
                        if u == 0:
                            outbuf.reserved = [t] * outbuf.tokens
                        if last:
                            outbuf.ready = [release] * outbuf.tokens
                            outbuf.all_ready = release
                            if collect_events:
                                events.append((release, i, u, "release"))
                u += 1
            placed += u - next_unit[i]
            next_unit[i] = u
        if not placed:
            raise SimDeadlock(f"no schedulable unit with {remaining} units remaining")
        remaining -= placed

    # intermediate fills already propagated through token release times;
    # the last layer's own fill extends the makespan
    makespan = max(max(f[-1] for f in finishes),
                   finishes[n - 1][-1] + plans[n - 1].fill)
    return makespan, starts, finishes, (bufs, events)


def _pass_bounds(choices, caps) -> list[int]:
    """A lower bound on ``_simulate_pass``'s makespan with buffers ``caps``
    for each schedule in ``itertools.product(*choices)``, in that order,
    exact when none of the buffers can make a streaming producer wait.

    Every layer's units run back to back from the earliest start its input
    allows.  When layer i streams out and layer i+1 streams in, unit u of
    i+1 takes token u, so i+1 starts after i's first token is ready and
    finishes no earlier than one unit after i's last token; otherwise every
    unit of i+1 waits for i's last token.  (A streaming producer releases
    one token per unit and a streaming consumer takes one per unit, as
    ``_buffer_caps`` sizes them.)  If i's buffer holds ``cap`` < tokens,
    i's unit u also waits for i+1 to finish unit u - cap, so each ``cap``
    units of i cost at least one round trip through i+1.  The last layer's
    fill ends the pass.  Each prefix's (start, finish) is found once.
    """
    states = [(0, p.units * p.cycles_per_unit, p) for p in choices[0]]
    for options, (tokens, cap, _) in zip(choices[1:], caps):
        grown = []
        for start, finish, prev in states:
            for plan in options:
                # i+1 starts once i's last token is ready (``end``), or streaming its first
                first = end = finish + prev.fill
                if prev.producer_stream and plan.consumer_stream:
                    if cap < tokens:
                        laps, rest = divmod(prev.units - 1, cap)
                        end = max(end, start + (rest + 1) * prev.cycles_per_unit + prev.fill
                            + laps * (prev.cycles_per_unit + prev.fill + plan.cycles_per_unit))
                    first = start + prev.cycles_per_unit + prev.fill
                grown.append((first, max(first + plan.units * plan.cycles_per_unit,
                                         end + plan.cycles_per_unit), plan))
        states = grown
    return [finish + plan.fill for _, finish, plan in states]


def _pass_lower_bound(plans: list[LayerSchedule]) -> int:
    """``_pass_bounds`` with every buffer holding all its tokens: a floor under any sizing."""
    return _pass_bounds(list(zip(plans)), itertools.repeat(_ALL_TOKENS))[0]


def simulate_fused(plan: BlockPlan, collect_events: bool = False) -> SimReport:
    """Simulate one fused launch of ``plan``'s design over its stage's input
    (its tile passes, one after another) with the config's own sequences and
    buffer options: ``inspection.simulate_report``, which no DSE run compiles."""
    from .inspection import simulate_report
    return simulate_report(plan, collect_events)


# ---------------------------------------------------------------------------
# Sequence enumeration

_OPTION_ORDER = (BufferOption.MATCH_PREV, BufferOption.MATCH_NEXT, BufferOption.DOUBLE)


class SeqCandidate(NamedTuple):
    seqs: tuple[Seq, ...]
    buffer_options: tuple[BufferOption, ...]
    total_cycles: int
    buffer_words: tuple[int, ...]   # words of each intermediate buffer

    @property
    def total_buffer_words(self) -> int:
        return sum(self.buffer_words)

    @property
    def label(self) -> str:
        return "".join("F" if s is Seq.FM else "C" for s in self.seqs)


def best_options(plan: BlockPlan, seqs: tuple[Seq, ...], fits=None) -> SeqCandidate:
    """The buffer options that run ``plan``'s design fastest under the
    sequences ``seqs``: the passes times the floor ``_pass_lower_bound`` in
    cycles, with the fewest buffer words, then the first in
    ``_OPTION_ORDER`` product order.

    First fit over the option sets that fit, in ascending (total words,
    product index) order.  A set with no buffer below its tokens never makes
    a producer wait, and ``intermediate_buffer_words`` accepts a full-tile
    set under every ``seqs``.  A smaller buffer sits only between a streaming
    filter-major producer and channel-major consumer; a set with one is
    taken when ``_pass_bounds`` and then ``_simulate_pass`` reach the floor.
    Before simulating, ``fits`` (if given) checks the first set, the fewest
    words at each boundary: if it does not fit, none does; it is returned.
    """
    plans = plan.schedule(seqs)
    floor = _pass_lower_bound(plans)
    sized = []
    for options in itertools.product(_OPTION_ORDER, repeat=len(seqs) - 1):
        try:
            caps = _buffer_caps(plan, seqs, options)
        except InefficientConfig:
            continue
        sized.append((sum(w for _, _, w in caps), options, caps))
    sized.sort(key=lambda s: s[0])  # stable: product order among equal words
    for _, options, caps in sized:
        if not all(cap >= tokens for tokens, cap, _ in caps):
            if _pass_bounds(list(zip(plans)), caps) != [floor]:
                continue
            if fits is not None and not fits(tuple(w for _, _, w in sized[0][2])):
                _, options, caps = sized[0]
            elif _simulate_pass(plans, caps, False)[0] != floor:
                continue
        return SeqCandidate(seqs, options, floor * plan.n_passes,
                            tuple(w for _, _, w in caps))
    raise AssertionError(f"no buffer option set reaches the floor under {seqs}")


def seq_assignments(n: int) -> list[tuple[Seq, ...]]:
    """The 2^n computation-sequence assignments of n layers in product
    order: FM before CM, lexicographic in the sequence string."""
    return list(itertools.product(_SEQ_ORDER, repeat=n))


def assignment_bounds(by_seq: tuple[tuple[LayerSchedule, ...], ...], n_passes: int) -> list[int]:
    """The bound of each of the 2^N sequence assignments of a plan's
    ``by_seq`` and ``n_passes`` in ``seq_assignments`` order: the passes
    times ``_pass_lower_bound``, which is ``best_options``' total_cycles."""
    return [n_passes * bound
            for bound in _pass_bounds(list(zip(*by_seq)), itertools.repeat(_ALL_TOKENS))]


def enumerate_sequences(plan: BlockPlan) -> list[SeqCandidate]:
    """``best_options`` for every computation-sequence assignment of a
    planned design (``seq_assignments``), sorted (stably) by total cycles,
    then total buffer words, then that product order."""
    results = [best_options(plan, seqs) for seqs in seq_assignments(plan.cfg.num_layers)]
    results.sort(key=lambda c: (c.total_cycles, c.total_buffer_words))
    return results


# ---------------------------------------------------------------------------
# Tiling overhead

def tiling_overhead(block: BlockSpec | LayerSpec, shapes: list[TensorShape],
                    tile: tuple[int, int]) -> int:
    """Extra input words that halo re-reads cost when ``block``'s output is
    tiled spatially by ``tile`` (T_h, T_w on the block input), with
    ``shapes`` its ``ir.layer_shapes``; a bare layer is a one-layer block.

    Output rows [a, b) of a layer (k, s, p) read its input rows
    [max(0, a·s - p), min(size, (b-1)·s + k - p)).  Walked back through
    the block, the low clips compose to one, max(0, a·scale - lo), as every
    padding is >= 0, and the high clips fold into one cap, so the tile reads
    block-input rows [max(0, a·scale - lo), min(cap, b·scale - hi)).  One
    backward pass gives scale, lo, hi and each axis's cap; the receptive
    field is scale + lo - hi.  Consecutive tiles share a boundary, so the
    rows read over all tiles are the last tile's end plus, over each inner
    boundary, its end less its start: two arithmetic series, clipped at
    cap and at 0.  Rows and columns grow back independently, so the pixels
    read are (rows read) x (columns read); the overhead is that less one
    full-map read, and zero when the tile covers the whole map.
    """
    input_shape, out = shapes[0], shapes[-1]
    scale, lo, hi, caps = 1, 0, 0, (out.height, out.width)
    for layer, shape in zip(reversed(block.layers), reversed(shapes[:-1])):
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        scale, lo, hi = scale * s, lo * s + p, hi * s + s - k + p
        caps = tuple(min(size, cap * s + k - p - s)
                     for size, cap in zip((shape.height, shape.width), caps))
    rf = scale + lo - hi
    if min(tile) < rf:
        raise InvalidTiling(f"tile {tile} smaller than the block receptive field {rf}")

    read = []  # block-input rows, then columns, read over all tiles
    for t, n, cap in zip(tile, (out.height, out.width), caps):
        step = max(1, -(-t // scale))  # output rows per tile
        m = -(-n // step) - 1  # inner boundaries, j·step for j = 1..m
        d = step * scale
        u = min(m, max(0, (cap + hi) // d))  # boundaries whose end is under cap
        z = min(m, max(0, lo // d))  # boundaries whose start clips to 0
        ends = d * u * (u + 1) // 2 - hi * u + (m - u) * cap
        starts = d * (m * (m + 1) - z * (z + 1)) // 2 - lo * (m - z)
        read.append(min(cap, n * scale - hi) + ends - starts)
    extra_px = read[0] * read[1] - input_shape.height * input_shape.width
    return max(0, extra_px) * input_shape.channels
