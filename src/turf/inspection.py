"""The inspection commands (``model show``, ``hw describe``, ``simulate``,
``winograd-check``) and the parser of the config documents two of them
read.  Only these commands and the full ``--help`` import this module.
Traced functions are called through their modules (``fusion.simulate_fused``),
so a tracer installed after this import still wraps each call.
"""

from __future__ import annotations

import io
import json

from . import fusion, hw, ir
from .cli import _emit, _jsonify, _pipeline_stage, _write, make_manifest
from .errors import PortMismatch, reading, typed
from .explore import replacement_key
from .fusion import FusedDesignConfig, config_to_json
from .hw import WINOGRAD_M, BufferOption, Seq


def _typed_list(values, kind: type, name: str, n: int) -> tuple:
    """``values``, a JSON list of ``n`` entries of type ``kind``, as a tuple."""
    if len(typed(values, list, name)) != n:
        raise PortMismatch(f"need {n} {name} entries, got {len(values)}")
    return tuple(typed(v, kind, f"{name}[{i}]") for i, v in enumerate(values))


def config_from_json(doc: dict) -> FusedDesignConfig:
    """Parse a fused-design config document, the one place a config is
    checked and normalised.

    Accepts the flattened form (``tiles``/``parallelism`` with per-layer
    channel lists) or a per-layer list (``layers``), which is checked for
    port matching and flattened.  ``errors.typed`` then checks both: JSON
    integers for tiles, parallelism and ``winograd_m``, booleans for Winograd
    flags, one entry per layer in each list, n - 1 buffers and valid names.
    In both forms a layer with no Winograd flag runs the direct path.
    A wrong type raises ``TypeError``, a huge integer ``ValueError``
    (``InvalidDocument`` under ``errors.reading``).
    """
    if "layers" in doc:
        layers = doc["layers"]
        if not layers:
            raise PortMismatch("empty layer list")
        tile_of = [tuple(entry["tile"]) for entry in layers]
        par_of = [tuple(entry["parallelism"]) for entry in layers]
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
               "seqs": [entry.get("seq", "FM") for entry in layers],
               "winograd": [entry.get("winograd", False) for entry in layers]}
    tiles, par = doc["tiles"], doc["parallelism"]
    n = len(typed(doc["seqs"], list, "seqs"))
    return FusedDesignConfig(
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


def _load_config(path: str):
    with reading(path), open(path) as fh:
        return config_from_json(json.load(fh))


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
    cfg = _load_config(args.config)
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
    cfg = _load_config(args.config)

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
