"""The inspection commands (``model show``, ``hw describe``, ``simulate``,
``winograd-check``) with their parsers, the parser of the config documents
two of them read, and the simulator's report (``simulate_report``).  Only
these commands, the full ``--help``, ``fusion.simulate_fused`` and the tests
import this module.  Traced functions are called through their modules
(``fusion.simulate_fused``), so a tracer installed after this import still
wraps each call.
"""

from __future__ import annotations

import io
import json
import math
from typing import NamedTuple

from . import fusion, hw, ir
from .cli import _emit, _int_at_least, _jsonify, _pipeline_stage, _write, make_manifest
from .errors import PortMismatch, reading, typed
from .explore import replacement_key
from .fusion import FusedDesignConfig, config_to_json
from .hw import WINOGRAD_M, BufferOption, Seq

CYCLE_MODEL = (
    "one cycle = one parallel step of the nested loops; per-tile compute "
    "cycles = ceil(T_c/P_c) * ceil(T_f/P_f) * ceil(T_h/P_h) * ceil(T_w/P_w), "
    "depthwise drops the T_f factor, Winograd layers process one m x m "
    "output tile per step (P_h = P_w = m); pipeline fill is a per-layer "
    "additive constant"
)


class LayerActivity(NamedTuple):
    index: int
    seq: Seq
    work_units: int
    cycles_per_unit: int
    busy_cycles: int
    stall_cycles: int
    first_start: int
    last_finish: int
    fill_cycles: int


class BufferActivity(NamedTuple):
    index: int              # buffer i sits between layer i and layer i+1
    option: BufferOption
    words: int
    tokens: int
    capacity_tokens: int
    peak_tokens: int


class SimEvent(NamedTuple):
    time: int
    layer: int
    unit: int
    event: str  # "start" | "finish" | "release"


class SimReport(NamedTuple):
    total_cycles: int
    per_pass_cycles: int
    n_passes: int
    fill_cycles: int
    layers: tuple[LayerActivity, ...]
    buffers: tuple[BufferActivity, ...]
    events: tuple[SimEvent, ...] = ()
    cycle_model: str = CYCLE_MODEL


def peak_tokens(buf) -> int:
    """Most tokens a simulated buffer (``fusion._BufferState``) held at once.
    Reserve and free times are each non-decreasing, so one merge counts
    them; a reservation at time t counts before a free at t."""
    held = [(r, f) for r, f in zip(buf.reserved, buf.freed) if r is not None]
    frees = [math.inf if f is None else f for _, f in held]
    cur = peak = j = 0
    for r, _ in held:
        while frees[j] < r:
            cur -= 1
            j += 1
        cur += 1
        peak = max(peak, cur)
    return peak


def simulate_report(plan: fusion.BlockPlan, collect_events: bool = False) -> SimReport:
    """``fusion.simulate_fused``'s report: one ``fusion._simulate_pass`` under
    ``plan``'s config, as each layer and buffer saw it, over all passes."""
    seqs, options = plan.cfg.seqs, plan.cfg.buffer_options
    plans = plan.schedule(seqs)
    caps = fusion._buffer_caps(plan, seqs, options)
    makespan, starts, finishes, (bufs, events) = fusion._simulate_pass(
        plans, caps, collect_events)

    layers = tuple(LayerActivity(  # stalls: first start to last finish, less busy cycles
        i, seqs[i], p.units, p.cycles_per_unit, p.units * p.cycles_per_unit,
        finishes[i][-1] - starts[i][0] - p.units * p.cycles_per_unit, starts[i][0],
        finishes[i][-1], p.fill) for i, p in enumerate(plans))
    buffers = tuple(BufferActivity(i, options[i], words, tokens, cap, peak_tokens(b))
                    for i, ((tokens, cap, words), b) in enumerate(zip(caps, bufs)))
    return SimReport(makespan * plan.n_passes, makespan, plan.n_passes,
                     sum(p.fill for p in plans), layers, buffers,
                     tuple(SimEvent(*e) for e in sorted(events, key=lambda e: e[:3])))


def _typed_list(values, kind: type, name: str, n: int) -> tuple:
    """``values``, a JSON list of ``n`` entries of type ``kind``, as a tuple."""
    if len(typed(values, list, name)) != n:
        raise PortMismatch(f"need {n} {name} entries, got {len(values)}")
    return tuple(typed(v, kind, f"{name}[{i}]") for i, v in enumerate(values))


def config_from_json(doc: dict, layers=()) -> FusedDesignConfig:
    """Parse a fused-design config document, the one place a config is
    checked and normalised.

    Accepts the flattened form (``tiles``/``parallelism`` with per-layer
    channel lists) or a per-layer list (``layers``), which is checked for
    port matching and flattened; given the stage's ``layers``, each layer's
    (T_h, T_w) must also be layer 0's through the earlier strides
    (``fusion.layer_tiles``).  ``errors.typed`` then checks both: JSON
    integers for tiles, parallelism and ``winograd_m``, booleans for Winograd
    flags, one entry per layer in each list, n - 1 buffers and valid names.
    In both forms a layer with no Winograd flag runs the direct path.
    A wrong type raises ``TypeError``, a huge integer ``ValueError``
    (``InvalidDocument`` under ``errors.reading``).
    """
    tile_of = ()
    if "layers" in doc:
        entries = doc["layers"]
        if not entries:
            raise PortMismatch("empty layer list")
        tile_of = [tuple(entry["tile"]) for entry in entries]
        par_of = [tuple(entry["parallelism"]) for entry in entries]
        # unpacking checks that each tile and parallelism has 4 entries
        for i, ((_, _, t_c, _), (p_h, p_w, p_c, _)) in enumerate(zip(tile_of, par_of)):
            if (p_h, p_w) != par_of[0][:2]:
                raise PortMismatch(f"layer {i}: spatial parallelism {(p_h, p_w)} "
                                   f"!= layer 0 {par_of[0][:2]}")
            if i and p_c != par_of[i - 1][3]:
                raise PortMismatch(f"layer {i}: P_c={p_c} != previous P_f={par_of[i - 1][3]}")
            if i and t_c != tile_of[i - 1][3]:
                raise PortMismatch(f"layer {i}: T_c={t_c} != previous T_f={tile_of[i - 1][3]}")
        doc = {**doc,
               "tiles": {"h": tile_of[0][0], "w": tile_of[0][1],
                         "c": [t[2] for t in tile_of], "f": tile_of[-1][3]},
               "parallelism": {"h": par_of[0][0], "w": par_of[0][1],
                               "c": [p[2] for p in par_of], "f": par_of[-1][3]},
               "seqs": [entry.get("seq", "FM") for entry in entries],
               "winograd": [entry.get("winograd", False) for entry in entries]}
    tiles, par = doc["tiles"], doc["parallelism"]
    n = len(typed(doc["seqs"], list, "seqs"))
    cfg = FusedDesignConfig(
        t_h=typed(tiles["h"], int, "tiles.h"), t_w=typed(tiles["w"], int, "tiles.w"),
        t_c=_typed_list(tiles["c"], int, "tiles.c", n), t_f=typed(tiles["f"], int, "tiles.f"),
        p_h=typed(par["h"], int, "parallelism.h"), p_w=typed(par["w"], int, "parallelism.w"),
        p_c=_typed_list(par["c"], int, "parallelism.c", n),
        p_f=typed(par["f"], int, "parallelism.f"),
        seqs=tuple(map(Seq, doc["seqs"])),
        buffer_options=tuple(map(BufferOption, _typed_list(
            doc.get("buffers", []), str, "buffers", max(0, n - 1)))),
        use_winograd=_typed_list(doc.get("winograd", [False] * n), bool, "winograd", n),
        winograd_m=typed(doc.get("winograd_m", WINOGRAD_M), int, "winograd_m"),
    )
    for i, (want, tile) in enumerate(zip(fusion.layer_tiles(layers, cfg.t_h, cfg.t_w), tile_of)):
        if tuple(typed(t, int, f"layers[{i}].tile") for t in tile[:2]) != want:
            raise PortMismatch(f"layer {i}: (T_h, T_w) = {tile[:2]} != {want}, "
                               "layer 0's through the earlier strides")
    return cfg


def _load_config(path: str, layers):
    with reading(path), open(path) as fh:
        return config_from_json(json.load(fh), layers)


def cmd_model_show(args) -> int:
    model = ir.load_model(args.file)
    report = ir.count_ops_params(model)
    rows = [r._asdict() for r in report.per_stage]
    if args.format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=ir.StageCount._fields)
        writer.writeheader()
        writer.writerows(rows)
        writer.writerow({"index": "", "name": "total", "category": "",
                         "ops": report.total_ops, "params": report.total_params})
        _write((buf.getvalue(), args.out))
        return 0
    doc = {
        "manifest": make_manifest(args, [args.file]),
        "model": {"base": model.base, "stages": len(model.stages),
                  "replaceable_positions": model.num_replaceable,
                  "replacement_vector": replacement_key(model)},
        "op_convention": "1 multiply-accumulate = 2 operations",
        "per_stage": rows,
        "total_ops": report.total_ops,
        "total_params": report.total_params,
        "total_gops": report.total_ops / 1e9,
        "total_params_m": report.total_params / 1e6,
    }
    _emit(doc, args.out)
    return 0


def cmd_hw_describe(args) -> int:
    model = ir.load_model(args.model)
    stage = _pipeline_stage(model, args.layer, "--layer")
    cfg = _load_config(args.config, stage.op.layers)
    chains = []
    plan = fusion.plan_block(stage.op, stage.input_shape, cfg)
    for i, pipeline in enumerate(map(hw.instantiate_layer, plan.layers, plan.hws)):
        pipeline.check_chain()
        chains.append({
            "layer_kind": pipeline.layer.kind.value,
            "seq": cfg.seqs[i].value,
            "winograd": pipeline.hw.use_winograd,
            "modules": [_jsonify(m) for m in pipeline.modules],
            "weight_path": [_jsonify(m) for m in pipeline.weight_path],
            "fill_latency": pipeline.fill_latency,
        })
    doc = {
        "manifest": make_manifest(args, [args.model, args.config]),
        "stage": {"index": args.layer, "name": stage.name},
        "config": config_to_json(cfg),
        "pipelines": chains,
    }
    _emit(doc, args.out)
    return 0


def cmd_simulate(args) -> int:
    model = ir.load_model(args.model)
    stage = _pipeline_stage(model, args.block, "--block")
    cfg = _load_config(args.config, stage.op.layers)

    doc = {
        "manifest": make_manifest(args, [args.model, args.config]),
        "stage": {"index": args.block, "name": stage.name,
                  "input_shape": list(stage.input_shape)},
        "config": config_to_json(cfg),
    }
    plan = fusion.plan_block(stage.op, stage.input_shape, cfg)
    if args.enumerate_seqs:
        entries = fusion.enumerate_sequences(plan)
        doc["sequences"] = [{
            "seqs": e.label,
            "buffer_options": [o.value for o in e.buffer_options],
            "total_cycles": e.total_cycles,
            "total_buffer_words": e.total_buffer_words,
        } for e in entries]
    report = fusion.simulate_fused(plan, collect_events=bool(args.trace))
    doc["report"] = _jsonify(report._replace(events=()))
    trace = ()
    if args.trace:
        events = [e._asdict() for e in report.events]
        trace = ((json.dumps(events, indent=2, sort_keys=True) + "\n", args.trace),)
    _emit(doc, args.out, *trace)
    return 0


def cmd_winograd_check(args) -> int:
    # numpy and the exact algebra load here, so no other command pays for them
    from .conv import max_winograd_deviation
    from .kernels import winograd_config

    cfg = winograd_config(args.m, args.r)
    max_dev = max_winograd_deviation(cfg, args.trials,
                                     args.seed if args.seed is not None else 0)
    doc = {
        "manifest": make_manifest(args, []),
        "config": {"m": args.m, "r": args.r},
        "trials": args.trials,
        "max_abs_deviation": max_dev,
        "multiplies_per_tile": cfg.multiplies_per_tile,
        "direct_multiplies_per_tile": cfg.direct_multiplies_per_tile,
        "speedup": cfg.speedup,
    }
    _emit(doc, args.out)
    return 0


def add_arguments(name: str, p, common) -> None:
    """Give an inspection command's subparser ``p`` its arguments
    (``cli.build_parser``); ``model`` and ``hw`` hold one subcommand each."""
    if name == "model":
        p = p.add_subparsers(dest="model_command", required=True).add_parser(
            "show", parents=[common], help="per-stage op/param table")
        p.add_argument("file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=cmd_model_show)
    elif name == "hw":
        p = p.add_subparsers(dest="hw_command", required=True).add_parser(
            "describe", parents=[common], help="module chain with widths")
        p.add_argument("model")
        p.add_argument("--layer", type=int, required=True)
        p.add_argument("--config", required=True)
        p.set_defaults(func=cmd_hw_describe)
    elif name == "simulate":
        p.add_argument("model")
        p.add_argument("--block", type=int, required=True)
        p.add_argument("--config", required=True)
        p.add_argument("--trace")
        p.add_argument("--enumerate-seqs", action="store_true")
        p.set_defaults(func=cmd_simulate)
    else:
        p.add_argument("--m", type=int, default=4)
        p.add_argument("--r", type=int, default=3)
        p.add_argument("--trials", type=_int_at_least(1), default=100)
        p.set_defaults(func=cmd_winograd_check)
    p.add_argument("--out")
