"""Resource estimation, roofline analysis, and hardware design-space search.

Resource usage is predicted by a linear model over module stream widths
(ALMs), multiplier counts (DSPs, one 16-bit multiplier per variable-
precision DSP block), and buffer word counts packed into M20K blocks
(BRAM), from closed forms (``hw.module_widths``, ``hw.layer_dsp``) and not
from module chains.  The ALM coefficients ship as calibration data with
documented placeholder values; they stand in for constants fitted to
synthesised designs and are not ground truth.

Roofline accounting (16-bit words, 2 bytes), summed only in ``roofline``:
  * fused designs move the first layer's input, the last layer's output,
    and each layer's weights once per full-map pass (plus halo reloads and
    output-slice re-reads for a (T_h, T_w, T_f) tile);
  * the layer-by-layer baseline moves every intermediate map off chip and
    back, plus weights.
The compute roof is DSPs x 2 ops x clock.

A stage with a hardware pipeline (a block, or a convolution or fully-connected
layer as a one-layer block) is searched by ``design_gen`` with ``best_first``;
a grid point waits as its floor, and its one record, a ``fusion.BlockPlan``,
is built only when the search expands it.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from collections import Counter
from collections.abc import Iterator
from operator import mul
from typing import NamedTuple, get_type_hints

from .errors import (CalibrationError, Infeasible, InvalidTiling,
                     UnsupportedConfig, reading, typed)
from .fusion import (BlockPlan, FusedDesignConfig, SeqCandidate,
                     assignment_bounds, best_options, block_schedule, enumerate_sequences,
                     layer_tiles, seq_assignments, tiling_overhead)
from .hw import (WINOGRAD_M, BufferOption, LayerHwConfig, ModuleKind, Seq, cycle_counts,
                 fill_cycles, layer_dsp, layer_terms, module_widths, winograd_eligible)
from .ir import (BlockSpec, LayerKind, LayerSpec, ModelSpec, TensorShape,
                 has_pipeline, layer_shapes)

WORD_BYTES = 2
M20K_BYTES = 2560  # one M20K block = 20 kbit
MIN_TILE = 14      # the DSE halves spatial tiles down to this size


class PlatformSpec(NamedTuple):
    bandwidth_gbps: float
    dsp_total: int
    bram_blocks: int
    alm_total: int
    clock_mhz: float

    @property
    def compute_roof_gops(self) -> float:
        """DSPs x 2 ops (one MAC) x clock."""
        return self.dsp_total * 2 * self.clock_mhz / 1e3

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, doc: dict) -> "PlatformSpec":
        """The platform in ``doc``, each constant checked with ``errors.typed``:
        the three counts are JSON integers and the two rates JSON numbers.  A
        constant <= 0 is an UnsupportedConfig."""
        spec = {name: typed(doc[name], kind, name)
                for name, kind in get_type_hints(cls).items()}
        for name, value in spec.items():
            if value <= 0:
                raise UnsupportedConfig(f"platform constant {name} must be positive, got {value!r}")
        return cls(**spec)


# Stratix-V 5SGSD8 on the evaluation node: 262.4K ALMs, 1963 variable-
# precision DSP blocks, 2567 M20K, 38 GB/s off-chip, 200 MHz designs.
STRATIX_V_5SGSD8 = PlatformSpec(bandwidth_gbps=38.0, dsp_total=1963,
                                bram_blocks=2567, alm_total=262400,
                                clock_mhz=200.0)


def load_platform(path: str | None) -> PlatformSpec:
    if path is None:
        return STRATIX_V_5SGSD8
    with reading(path), open(path) as fh:
        return PlatformSpec.from_json(json.load(fh))


class CalibrationTable(NamedTuple):
    """ALM linear-model coefficients per module kind: base + per_width * width."""

    alm: dict

    def coeff(self, kind: ModuleKind) -> tuple[float, float]:
        try:
            entry = self.alm[kind.value]
        except KeyError:
            raise CalibrationError(f"no ALM coefficient for module kind {kind.value}") from None
        return entry["base"], entry["per_width"]


def load_calibration(path: str | None = None) -> CalibrationTable:
    """The ALM table at ``path``, or the shipped one.  Each entry's ``base``
    and ``per_width`` are checked with ``errors.typed`` as JSON numbers and
    must be >= 0; a bad entry is a CalibrationError naming it."""
    if path is None:  # shipped as package data beside this module
        path = os.path.join(os.path.dirname(__file__), "data", "alm_coefficients.json")
    with reading(path), open(path) as fh:
        alm = json.load(fh)["alm"]
    if type(alm) is not dict:
        raise CalibrationError(f"the ALM table must map module kinds to coefficients, "
                               f"got {alm!r}")
    for kind, entry in alm.items():
        try:
            if min(typed(entry[k], float, k) for k in ("base", "per_width")) < 0:
                raise ValueError
        except (KeyError, TypeError, ValueError):
            raise CalibrationError(f"ALM entry {kind!r} needs numeric, non-negative "
                                   f"base and per_width, got {entry!r}") from None
    return CalibrationTable(alm)


class ResourceEstimate(NamedTuple):
    dsp_used: int
    bram_used: int
    alm_used: int

    def feasible(self, platform: PlatformSpec) -> bool:
        return (self.dsp_used <= platform.dsp_total
                and self.bram_used <= platform.bram_blocks
                and self.alm_used <= platform.alm_total)


def _bram_blocks(words: int) -> int:
    return math.ceil(words * WORD_BYTES / M20K_BYTES)


def _dsp_used(plan: BlockPlan) -> int:
    """DSPs of ``plan``'s design (``hw.layer_dsp`` of each layer's chain
    terms and parallelism): no sequence or buffer changes them."""
    return sum(layer_dsp(t, hw.p_c, 1 if layer.kind is LayerKind.DEPTHWISE_CONV else hw.p_f)
               for layer, t, hw in zip(plan.layers, plan.terms, plan.hws))


def _bram_used(plan: BlockPlan, seqs: tuple[Seq, ...], buffer_words: tuple[int, ...]) -> int:
    """M20K blocks of ``plan``'s design under ``seqs`` with intermediate
    ``buffer_words``: per layer its line-buffer rows and a double-buffered
    weight chunk, then the first input buffer (filter-major reuses the whole
    input tile) and the last output buffer (channel-major accumulates it)."""
    words = list(buffer_words)
    for layer, hw, terms in zip(plan.layers, plan.hws, plan.terms):
        lanes_f = 1 if layer.kind is LayerKind.DEPTHWISE_CONV else hw.p_f
        words += terms.rows * hw.t_w * hw.p_c, 2 * hw.p_c * lanes_f * layer.kernel_size ** 2
    first, last = plan.hws[0], plan.hws[-1]
    words.append((first.t_c if seqs[0] is Seq.FM else first.p_c) * first.t_h * first.t_w)
    out_shape = plan.layers[-1].output_shape(TensorShape(last.t_h, last.t_w, last.t_c))
    out_ch = last.t_f if seqs[-1] is Seq.CM else last.p_f
    words.append(out_ch * out_shape.height * out_shape.width)
    return sum(map(_bram_blocks, words))


def estimate_resources(plan: BlockPlan, seqs: tuple[Seq, ...],
                       buffer_words: tuple[int, ...],
                       coeffs: CalibrationTable) -> ResourceEstimate:
    """Linear resource prediction for ``plan``'s design run with the
    computation sequences ``seqs`` and intermediate ``buffer_words`` (as
    ``fusion.best_options`` sized them), with ALMs from ``hw.module_widths``."""
    alm = 0.0
    for layer, hw in zip(plan.layers, plan.hws):
        for kind, width, replication in module_widths(layer, hw):
            base, per_width = coeffs.coeff(kind)
            alm += (base + per_width * width) * replication
    if not math.isfinite(alm):
        raise CalibrationError(f"the ALM coefficients give a non-finite ALM total ({alm})")
    return ResourceEstimate(_dsp_used(plan), _bram_used(plan, seqs, buffer_words), round(alm))


# ---------------------------------------------------------------------------
# Roofline

class RooflinePoint(NamedTuple):
    arithmetic_intensity: float  # ops per off-chip byte
    compute_roof_gops: float
    bandwidth_gbps: float

    @property
    def attainable_gops(self) -> float:
        return min(self.compute_roof_gops,
                   self.arithmetic_intensity * self.bandwidth_gbps)


class RooflineComparison(NamedTuple):
    fused_bytes: int
    baseline_bytes: int
    fused: RooflinePoint
    baseline: RooflinePoint
    weight_model: str = "weights streamed once per full-map pass"


def roofline(block: BlockSpec, input_shape: TensorShape, platform: PlatformSpec,
             tile: tuple[int, int, int], shapes: list[TensorShape] | None = None,
             ops_weights: tuple[int, int] | None = None) -> RooflineComparison:
    """Fused vs layer-by-layer roofline points for one block run in
    (T_h, T_w, T_f) tiles: the one place a tile's off-chip bytes are
    summed, as the module docstring lists them.  The full-map tile adds no
    halo (``fusion.tiling_overhead``) and no re-read.  A many-tile caller
    may pass the block's ``layer_shapes`` and (ops, params) on ``input_shape``.
    """
    shapes = shapes or layer_shapes(block, input_shape)
    ops, weights = ops_weights or (block.ops(input_shape, shapes),
                                   block.params(input_shape, shapes))
    t_h, t_w, t_f = tile
    halo = 0
    if t_h < input_shape.height or t_w < input_shape.width:
        halo = tiling_overhead(block, shapes, (t_h, t_w))
    f_passes = math.ceil(shapes[-1].channels / t_f)
    fused_bytes = (f_passes * input_shape.volume() + shapes[-1].volume()
                   + weights + halo) * WORD_BYTES
    baseline_bytes = (weights + sum(a.volume() + b.volume()
                                    for a, b in zip(shapes, shapes[1:]))) * WORD_BYTES
    roof = platform.compute_roof_gops
    bw = platform.bandwidth_gbps
    return RooflineComparison(
        fused_bytes=fused_bytes, baseline_bytes=baseline_bytes,
        fused=RooflinePoint(ops / fused_bytes, roof, bw),
        baseline=RooflinePoint(ops / baseline_bytes, roof, bw),
    )


# ---------------------------------------------------------------------------
# Candidate evaluation and selection

class DesignCandidate(NamedTuple):
    cfg: FusedDesignConfig
    total_cycles: int
    resources: ResourceEstimate
    roofline: RooflinePoint

    def key(self) -> tuple:
        """Deterministic total order: best first.  It is flat, so that a
        unit key (``_unit_keys``), which stops at the sequences, is a prefix."""
        cfg = self.cfg
        return (-self.roofline.attainable_gops, self.total_cycles, self.resources.dsp_used,
                cfg[:8], _values(cfg.seqs), _values(cfg.buffer_options))


def _values(members) -> tuple:
    return tuple(m.value for m in members)


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


def _tile_options(size: int) -> list[int]:
    out = [size]
    while size % 2 == 0 and size // 2 >= MIN_TILE:
        size //= 2
        out.append(size)
    return out


def _parallelism_combos(mults: tuple[tuple[int, int, int, bool], ...],
                        grids: tuple[tuple[int, ...], ...], dsp_total: int,
                        grid_depth: int) -> list[tuple[int, ...]]:
    """(P_c^1, ..., P_c^N, P_f) combos, one entry from each of ``grids``,
    whose multipliers fit ``dsp_total``, largest product first (then
    smallest tuple), cut to ``grid_depth`` plus the all-ones combo as a
    floor: a function of its arguments alone (``_planned_points`` keeps it).
    With (a, b, c, depthwise) = ``mults[i]``, layer i's multipliers are
    a·P_c^i·L_f + b·P_c^i + c·L_f (``hw.layer_dsp``), with L_f the next
    entry of the combo, or 1 for a depthwise layer, which keeps its
    channels and so only takes P_c^{i+1} == P_c^i.  Every count is >= 0
    and non-decreasing in each P, so a prefix over ``dsp_total`` has no
    extension that fits.  The walk extends prefixes depth first, each grid
    largest first, carrying the product, with a min-heap of the
    ``grid_depth`` largest products found.  Once it is full, a prefix is
    dropped when its product times the largest entry of each remaining grid
    is strictly below the heap's minimum, as ``grid_depth`` combos then beat
    every extension; one that can only tie is kept, since the tuple breaks
    ties.  Since 1 is in every grid, whenever any combo fits, the all-ones
    combo fits and is the smallest.
    """
    # per entry: the multiplier terms of the layer whose L_f it is (none
    # for P_c^1) and whether that layer is depthwise
    mults = ((0, 0, 0, False), *mults)
    desc = [sorted(grid, reverse=True) for grid in grids]
    # reach[i]: the largest product of entries i.. (1 past the last)
    reach = [math.prod(grid[0] for grid in desc[i:]) for i in range(len(desc) + 1)]
    top: list[int] = []     # min-heap of the largest complete products so far
    kept = []

    def extend(ps: tuple[int, ...], used: int, prod: int) -> None:
        i = len(ps)         # the entry to choose
        if i == len(desc):
            kept.append((-prod, ps))
            (heapq.heappush if len(top) < grid_depth else heapq.heappushpop)(top, prod)
            return
        a, b, c, depthwise = mults[i]
        p_c = ps[-1] if ps else 0
        for p in desc[i]:
            if top and len(top) == grid_depth and prod * p * reach[i + 1] < top[0]:
                break
            if depthwise and p != p_c:
                continue
            dsp = used + (a * p_c + c) * (1 if depthwise else p) + b * p_c
            if dsp <= dsp_total:
                extend(ps + (p,), dsp, prod * p)

    extend((), 0, 1)
    del extend  # a recursive closure is a reference cycle: free the walk now
    combos = [ps for _, ps in heapq.nsmallest(grid_depth, kept)]
    floor = (1,) * len(grids)
    return combos + [floor] if kept and floor not in combos else combos


def _planned_points(block: BlockSpec | LayerSpec, input_shape: TensorShape,
                    shapes: list[TensorShape], platform: PlatformSpec, max_parallel: int,
                    grid_depth: int, walks: dict, ops_weights: tuple[int, int] | None = None
                    ) -> Iterator[tuple]:
    """The prefiltered grid of ``design_candidates`` in grid order, for a
    stage with ``shapes`` (``layer_shapes``) and ``ops_weights``, each point
    as (floor, group, combo) for ``_schedule`` and ``_plan``.  Chain terms,
    combos and channel trips are found once per spatial option, and a walk
    once per ``walks`` table; a group holds what one (tile, spatial option)'s
    points share, each layer's fill per P_c of the walk included.  A tile whose
    roofline raises is dropped, as is a (tile, spatial option) where a
    layer's tile (``fusion.layer_tiles``) does not divide by (P_h, P_w),
    which ``plan_block`` rejects.  The floor is (-attainable GOPS, passes ·
    (max_i busy_i + the last layer's fill)), busy_i being layer i's trip
    product, its time per pass under either sequence.  No pass is shorter,
    so it is at most each assignment's pair (``fusion.assignment_bounds``),
    equal on one layer; ``design_gen`` refines it to their least one."""
    layers = block.layers
    n = len(layers)
    chans = [s.channels for s in shapes]
    grids = tuple(tuple(_pow2_divisors(max_parallel, c)) for c in chans)
    tail = (Seq.FM,) * n, (BufferOption.DOUBLE,) * (n - 1)
    depthwise = [layer.kind is LayerKind.DEPTHWISE_CONV for layer in layers]

    eligible = tuple(winograd_eligible(l) for l in layers)
    spatial_opts = [(1, 1, (False,) * n)]
    if any(eligible):
        spatial_opts.append((WINOGRAD_M, WINOGRAD_M, eligible))
    # per spatial option: (P_h, P_w, flags), terms, [(combo, channel trips)], P_c's per layer
    options = []
    for p_h, p_w, wino in spatial_opts:
        terms = tuple(layer_terms(layer, p_h, p_w, w, WINOGRAD_M)
                      for layer, w in zip(layers, wino))
        key = (tuple((t.a, t.b, t.c, dw) for t, dw in zip(terms, depthwise)),
               grids, platform.dsp_total, grid_depth)
        if key not in walks:
            walks[key] = _parallelism_combos(*key)
        options.append(((p_h, p_w, wino), terms, [(ps, [
            -(-c // p) * (1 if dw else -(-f // q))
            for c, f, p, q, dw in zip(chans, chans[1:], ps, ps[1:], depthwise)])
            for ps in walks[key]], [{ps[i] for ps in walks[key]} for i in range(n)]))
    ops_weights = ops_weights or (block.ops(input_shape, shapes), block.params(input_shape, shapes))

    for t_h, t_w in zip(_tile_options(input_shape.height),
                        _tile_options(input_shape.width)):
        try:
            rl = roofline(block, input_shape, platform, (t_h, t_w, chans[-1]), shapes,
                          ops_weights).fused
        except InvalidTiling:
            continue
        gops = -rl.attainable_gops
        tiles = [(*tile, c, f) for tile, c, f in
                 zip(layer_tiles(layers, t_h, t_w), chans, chans[1:])]
        passes = math.ceil(input_shape.height / t_h) * math.ceil(input_shape.width / t_w)
        for (p_h, p_w, wino), terms, trips, p_cs in options:
            if any(th % p_h or tw % p_w for th, tw, *_ in tiles):
                continue
            spatial = [-(-th // p_h) * -(-tw // p_w) for th, tw, *_ in tiles]
            fills = [{p: fill_cycles(t, tile[1], p) for p in ps_i}
                     for t, tile, ps_i in zip(terms, tiles, p_cs)]
            group = (rl, (t_h, t_w, tuple(chans[:-1]), chans[-1], p_h, p_w), (*tail, wino),
                     terms, tiles, fills, passes)
            for ps, trip in trips:
                yield (gops, passes * (max(map(mul, spatial, trip)) + fills[-1][ps[-2]])), group, ps


def _schedule(layers, group: tuple, ps: tuple) -> tuple:
    """The ``fusion.block_schedule`` of a ``_planned_points`` item on ``layers``."""
    _, (*_, p_h, p_w), _, _, tiles, fills, _ = group
    return block_schedule(layers, [cycle_counts(l, t, (p_h, p_w, c, f)) for l, t, c, f in zip(
        layers, tiles, ps, ps[1:])], [f[p] for f, p in zip(fills, ps)])


def _plan(layers, group: tuple, ps: tuple, by_seq: tuple) -> BlockPlan:
    """The ``BlockPlan`` of a ``_planned_points`` item on ``layers`` with its
    ``_schedule``: what ``plan_block`` derives for its all-FM config."""
    _, head, (seqs, options, wino), terms, tiles, _, passes = group
    return BlockPlan(FusedDesignConfig(*head, ps[:-1], ps[-1], seqs, options, wino), layers,
                     tuple(LayerHwConfig(t, (*head[4:], c, f), w) for t, c, f, w
                           in zip(tiles, ps, ps[1:], wino)), terms, by_seq, passes)


def _candidate(plan: BlockPlan, sc: SeqCandidate, rl: RooflinePoint,
               coeffs: CalibrationTable) -> DesignCandidate:
    """The design candidate of one sequence/buffer choice of a grid point."""
    return DesignCandidate(
        plan.cfg._replace(seqs=sc.seqs, buffer_options=sc.buffer_options),
        sc.total_cycles, estimate_resources(plan, sc.seqs, sc.buffer_words, coeffs),
        rl)


def design_candidates(block: BlockSpec | LayerSpec, input_shape: TensorShape,
                      platform: PlatformSpec, coeffs: CalibrationTable,
                      grid_depth: int,
                      max_parallel: int = 64) -> list[DesignCandidate]:
    """Enumerate a bounded design grid for one block, each point planned once (``_plan``).

    The grid spans spatial tiles (full map halved down to ``MIN_TILE``),
    power-of-two channel/filter parallelism, the Winograd path
    (P_h = P_w = ``WINOGRAD_M``) for 3x3 stride-1 layers alongside the
    direct path (P_h = P_w = 1), and every computation-sequence assignment
    with its best buffer options (``fusion.enumerate_sequences``).
    Parallelism combos whose multiplier count exceeds the platform's DSPs
    are dropped before simulation; ``grid_depth`` then keeps only the
    ``grid_depth`` surviving combos of largest product (plus the smallest
    as a feasibility floor).  That cut is a search bound, not a dominance
    argument: a dropped combo can be faster.  An uncut grid picks a
    different design for 7 of ResNet-50's stages under the default depth 4,
    and its total cycles fall from 4,367,268 to 4,078,951.
    """
    layers, shapes = block.layers, layer_shapes(block, input_shape)
    return [_candidate(plan, sc, group[0], coeffs)
            for _, group, ps in _planned_points(block, input_shape, shapes, platform,
                                                max_parallel, grid_depth, {})
            for plan in [_plan(layers, group, ps, _schedule(layers, group, ps))]
            for sc in enumerate_sequences(plan)]


def _unit_keys(plan: BlockPlan, rl: RooflinePoint, bounds: list[int]) -> list[tuple]:
    """Per ``fusion.assignment_bounds``' bound, its candidate's key up to the
    buffer options, which change neither the DSPs nor the config."""
    gops, dsp, fields = -rl.attainable_gops, _dsp_used(plan), plan.cfg[:8]
    return [(gops, bound, dsp, fields, _values(seqs))
            for bound, seqs in zip(bounds, seq_assignments(len(plan.layers)))]


def best_first(floors: list, refine, expand, evaluate, funnel: Counter) -> list:
    """The candidates an exact best-first search (A* with partial expansion)
    evaluates.  Item j waits on a heap under ``floors[j]``; first at the top,
    ``refine(j)`` gives a tighter floor or None, and then ``expand(j)`` its
    (key, unit) pairs.  Units below the top floor and at most the best
    feasible key are evaluated in key order (``evaluate(unit)``: candidate,
    key, feasible) until a floor exceeds that key: exact when floors and
    unit keys are at most their candidates' keys (a prefix lies below).  At
    exact unit keys it evaluates the best and the infeasible units before
    it.  ``funnel`` counts items, refined and expanded items, and evaluated
    and infeasible units."""
    frontier = [(floor, j, False) for j, floor in enumerate(floors)]
    heapq.heapify(frontier)
    units, evaluated, best = [], [], (math.inf,)  # above every key: none feasible yet
    funnel["items"] += len(frontier)
    while True:
        floor, j, refined = heapq.heappop(frontier) if frontier else ((math.inf,), None, True)
        while units and units[0][0] < floor and units[0][0] <= best:
            candidate, key, feasible = evaluate(heapq.heappop(units)[-1])
            evaluated.append(candidate)
            funnel["evaluated"] += 1
            if feasible:
                best = min(best, key)
            else:
                funnel["infeasible"] += 1
        if j is None or floor > best:
            return evaluated
        if not refined:
            funnel["refined"] += 1
            if (tighter := refine(j)) is not None:
                heapq.heappush(frontier, (tighter, j, True))
                continue
        funnel["expanded"] += 1
        for k, (key, unit) in enumerate(expand(j)):
            heapq.heappush(units, (key, j, k, unit))


def design_gen(block: BlockSpec | LayerSpec, input_shape: TensorShape,
               platform: PlatformSpec, coeffs: CalibrationTable,
               grid_depth: int, max_parallel: int = 64, designs: dict | None = None,
               shapes: list[TensorShape] | None = None,
               ops_weights: tuple[int, int] | None = None) -> DesignCandidate:
    """What ``pick_best_design(design_candidates(...))`` selects, found by
    ``best_first`` over ``_planned_points``' floors.  A point is scheduled
    (``_schedule``) when refined, a multi-layer one to (-GOPS, its least
    assignment bound), and planned (``_plan``) when expanded.  A unit is a
    sequence assignment of a plan, keyed (``_unit_keys``) as its candidate
    (``fusion.best_options``) up to the buffer options, so one unit is
    evaluated (sized, estimated) when it fits.  ``designs``
    (``evaluate_model``'s table, whose ``"walks"`` and ``"funnel"`` it
    uses), ``shapes`` and ``ops_weights`` may come from the caller."""
    shapes = shapes or layer_shapes(block, input_shape)
    layers = block.layers
    designs = {} if designs is None else designs
    items = list(_planned_points(block, input_shape, shapes, platform, max_parallel,
                                 grid_depth, designs.setdefault("walks", {}), ops_weights))
    found = {}  # per refined item: its schedule and assignment bounds

    def refine(j):
        (gops, _), group, ps = items[j]
        by_seq = _schedule(layers, group, ps)
        found[j] = by_seq, assignment_bounds(by_seq, group[-1])
        return (gops, min(found[j][1])) if len(layers) > 1 else None

    def expand(j):
        _, group, ps = items[j]
        plan = _plan(layers, group, ps, found[j][0])
        return [(key, (plan, seqs, group[0])) for key, seqs
                in zip(_unit_keys(plan, group[0], found[j][1]), seq_assignments(len(layers)))]

    def evaluate(unit):
        plan, seqs, rl = unit
        sc = best_options(plan, seqs, lambda words: _bram_used(plan, seqs, words)
                          <= platform.bram_blocks)
        c = _candidate(plan, sc, rl, coeffs)
        return c, c.key(), c.resources.feasible(platform)

    return pick_best_design(best_first([item[0] for item in items], refine, expand, evaluate,
                                       designs.setdefault("funnel", Counter())), platform)


# ---------------------------------------------------------------------------
# Whole-model evaluation (shared-template DSE)

class StageDesign(NamedTuple):
    stage_index: int
    stage_name: str
    candidate: DesignCandidate | None  # None for zero-cost stages


class ModelDesign(NamedTuple):
    """A model's design on one reused template, as ``evaluate_model`` builds
    it: each stage's selected candidate, the latency summed over stages,
    the resources as the per-field maximum over stages (the template runs
    one stage at a time, so it must fit the largest) and the operations
    summed over stages (MAC = 2 ops), which ``gops`` divides by the latency."""

    stages: tuple[StageDesign, ...]
    total_cycles: int
    resources: ResourceEstimate
    ops: int

    def latency_ms(self, platform: PlatformSpec) -> float:
        return self.total_cycles / (platform.clock_mhz * 1e3)

    def gops(self, platform: PlatformSpec) -> float:
        seconds = self.total_cycles / (platform.clock_mhz * 1e6)
        return self.ops / seconds / 1e9 if seconds > 0 else 0.0


def evaluate_model(model: ModelSpec, platform: PlatformSpec,
                   coeffs: CalibrationTable, designs: dict,
                   max_parallel: int = 64, grid_depth: int = 4) -> ModelDesign:
    """Per-stage hardware DSE (``design_gen``) of every stage with a
    pipeline; a zero-cost stage gets no candidate and no operations.  The
    template is reused stage by stage, so the model's ``total_cycles`` is
    the sum of the candidates' cycles and its ``resources`` the per-field
    maximum of theirs (all zero when no stage has a pipeline).

    ``designs`` is one command's stage-design table: under ``"stages"`` a
    stage's candidate and operation count by ``(op, input_shape)``, under
    ``"walks"`` the parallelism walks its searches share and under
    ``"funnel"`` their summed funnel (``design_gen``).  Identical stages
    recur within a model and across replacement candidates, and each is
    searched and counted once per table.  Share a table only between calls
    with the same platform, calibration and search bounds."""
    rows, ops, stages = [], 0, designs.setdefault("stages", {})
    for i, stage in enumerate(model.stages):
        best = None
        if has_pipeline(stage.op):
            key = (stage.op, stage.input_shape)
            if (entry := stages.get(key)) is None:
                shapes = layer_shapes(stage.op, stage.input_shape)
                counts = (stage.op.ops(stage.input_shape, shapes),
                          stage.op.params(stage.input_shape, shapes))
                entry = stages[key] = (design_gen(stage.op, stage.input_shape, platform,
                                                  coeffs, grid_depth, max_parallel,
                                                  designs, shapes, counts), counts[0])
            best, stage_ops = entry
            ops += stage_ops
        rows.append(StageDesign(i, stage.name, best))
    chosen = [row.candidate for row in rows if row.candidate is not None]
    peak = ResourceEstimate(*map(max, zip((0, 0, 0), *(c.resources for c in chosen))))
    return ModelDesign(tuple(rows), sum(c.total_cycles for c in chosen), peak, ops)
