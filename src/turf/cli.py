"""Command-line entry point: model definition -> replacement search ->
hardware DSE -> reports.

Subcommands: model, hw, simulate, dse, explore, winograd-check.
Exit codes: 0 success, 1 domain error (error class name on stderr),
2 usage error.  Reports are JSON (CSV companions where tables map
naturally), embed a run manifest, and are byte-identical across runs with
the same inputs and seed; the TURF_SEED environment variable overrides
--seed, and SOURCE_DATE_EPOCH (when set) supplies the manifest timestamp.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import TurfError, UnsupportedConfig
from .explore import (ExternalOracle, Requirements, SyntheticOracle,
                      TableOracle, replacement_key, run_framework)
from .fusion import (config_from_json, config_to_json, enumerate_sequences,
                     simulate_fused)
from .ir import count_ops_params, load_model, model_to_json
from .kernels import (Filter4, Tensor3, conv_direct, conv_winograd,
                      winograd_config)
from .resources import (DesignCandidate, _as_block, design_candidates,
                        evaluate_model, load_calibration, load_platform,
                        pick_best_design, roofline)


def _jsonify(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonify(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def make_manifest(args: argparse.Namespace, inputs: list[str]) -> dict:
    return {
        "tool": "turf",
        "version": __version__,
        "command": list(getattr(args, "_argv", [])),
        "inputs": {p: _sha256(p) for p in inputs if p},
        "seed": args.seed,
        "timestamp": os.environ.get("SOURCE_DATE_EPOCH"),
    }


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stage_at(model, index: int, option: str):
    """The stage an index option names; an index outside the model is a
    domain error, not a Python-style index from the end."""
    if not 0 <= index < len(model.stages):
        raise UnsupportedConfig(
            f"{option} {index} is out of range: the model has stages "
            f"0..{len(model.stages) - 1}")
    return model.stages[index]


# ---------------------------------------------------------------------------
# model

def cmd_model_show(args) -> int:
    model = load_model(args.file)
    report = count_ops_params(model)
    rows = [{"index": r.index, "name": r.name, "category": r.category,
             "ops": r.ops, "params": r.params} for r in report.per_stage]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["index", "name", "category",
                                                 "ops", "params"])
        writer.writeheader()
        writer.writerows(rows)
        writer.writerow({"index": "", "name": "total", "category": "",
                         "ops": report.total_ops, "params": report.total_params})
        text = buf.getvalue()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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


# ---------------------------------------------------------------------------
# hw describe

def cmd_hw_describe(args) -> int:
    from .fusion import derive_layer_configs
    from .hw import instantiate_layer

    model = load_model(args.model)
    stage = _stage_at(model, args.layer, "--layer")
    block = _as_block(stage.op)
    if block is None:
        raise UnsupportedConfig(
            f"stage {args.layer} ({stage.name}) has no hardware pipeline")
    with open(args.config) as fh:
        cfg = config_from_json(json.load(fh))
    chains = []
    for layer, hw in zip(block.layers,
                         derive_layer_configs(block, stage.input_shape, cfg)):
        pipeline = instantiate_layer(layer, hw)
        pipeline.check_chain()
        chains.append({
            "layer_kind": layer.kind.value,
            "seq": hw.seq.value,
            "winograd": hw.use_winograd,
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


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    model = load_model(args.model)
    stage = _stage_at(model, args.block, "--block")
    block = _as_block(stage.op)
    if block is None:
        raise UnsupportedConfig(f"stage {args.block} ({stage.name}) is not simulatable")
    with open(args.config) as fh:
        cfg = config_from_json(json.load(fh))

    doc = {
        "manifest": make_manifest(args, [args.model, args.config]),
        "stage": {"index": args.block, "name": stage.name,
                  "input_shape": list(stage.input_shape.as_tuple())},
        "config": config_to_json(cfg),
    }
    if args.enumerate_seqs:
        entries = enumerate_sequences(block, stage.input_shape, cfg)
        doc["sequences"] = [{
            "seqs": e.label,
            "buffer_options": [o.value for o in e.buffer_options],
            "total_cycles": e.report.total_cycles,
            "total_buffer_words": e.report.total_buffer_words,
        } for e in entries]
    report = simulate_fused(block, stage.input_shape, cfg,
                            collect_events=bool(args.trace))
    doc["report"] = _jsonify(dataclasses.replace(report, events=()))
    if args.trace:
        trace = [{"time": e.time, "layer": e.layer, "unit": e.unit,
                  "event": e.event} for e in report.events]
        with open(args.trace, "w") as fh:
            json.dump(trace, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# dse

def _candidate_row(c: DesignCandidate, clock_mhz: float) -> dict:
    seconds = c.sim.total_cycles / (clock_mhz * 1e6)
    return {
        "config": config_to_json(c.cfg),
        "latency_cycles": c.sim.total_cycles,
        "latency_ms": seconds * 1e3,
        "arithmetic_intensity": c.roofline.arithmetic_intensity,
        "attainable_gops": c.roofline.attainable_gops,
        "compute_roof_gops": c.roofline.compute_roof_gops,
        "dsp": c.resources.dsp_used,
        "bram": c.resources.bram_used,
        "alm": c.resources.alm_used,
    }


def cmd_dse(args) -> int:
    model = load_model(args.model)
    platform = load_platform(args.platform)
    coeffs = load_calibration(args.calibration)

    doc = {"manifest": make_manifest(args, [p for p in (args.model, args.platform,
                                                        args.calibration) if p]),
           "platform": platform.to_json()}
    csv_rows = []
    if args.block is not None:
        stage = _stage_at(model, args.block, "--block")
        block = _as_block(stage.op)
        if block is None:
            raise UnsupportedConfig(f"stage {args.block} ({stage.name}) is not a block")
        cands = design_candidates(block, stage.input_shape, platform, coeffs,
                                  max_parallel=args.max_parallel,
                                  grid_depth=args.grid_depth)
        best = pick_best_design(cands, platform)
        rl = roofline(block, stage.input_shape, platform, best.cfg)
        doc["stage"] = {"index": args.block, "name": stage.name}
        doc["candidates"] = [_candidate_row(c, platform.clock_mhz) for c in cands]
        doc["selected"] = _candidate_row(best, platform.clock_mhz)
        doc["roofline"] = {
            "fused": _jsonify(rl.fused) | {"attainable_gops": rl.fused.attainable_gops},
            "baseline": _jsonify(rl.baseline) | {"attainable_gops": rl.baseline.attainable_gops},
            "weight_model": rl.weight_model,
        }
        for c in cands:
            csv_rows.append({"stage": stage.name,
                             "intensity": c.roofline.arithmetic_intensity,
                             "attainable_gops": c.roofline.attainable_gops,
                             "latency_cycles": c.sim.total_cycles,
                             "dsp": c.resources.dsp_used})
    else:
        design = evaluate_model(model, platform, coeffs,
                                max_parallel=args.max_parallel,
                                grid_depth=args.grid_depth)
        ops = count_ops_params(model).total_ops
        doc["stages"] = []
        for row in design.stages:
            entry = {"index": row.stage_index, "name": row.stage_name}
            if row.candidate is not None:
                entry["design"] = _candidate_row(row.candidate, platform.clock_mhz)
                csv_rows.append({
                    "stage": row.stage_name,
                    "intensity": row.candidate.roofline.arithmetic_intensity,
                    "attainable_gops": row.candidate.roofline.attainable_gops,
                    "latency_cycles": row.candidate.sim.total_cycles,
                    "dsp": row.candidate.resources.dsp_used})
            doc["stages"].append(entry)
        doc["selected"] = {
            "total_cycles": design.total_cycles,
            "latency_ms": design.latency_ms(platform),
            "gops": design.gops(ops, platform),
            "dsp": design.dsp_used, "bram": design.bram_used,
            "alm": design.alm_used,
        }
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["stage", "intensity",
                                                    "attainable_gops",
                                                    "latency_cycles", "dsp"])
            writer.writeheader()
            writer.writerows(csv_rows)
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# explore

def _make_oracle(spec: str, seed: int):
    if spec == "synthetic":
        return SyntheticOracle(seed=seed)
    if spec.startswith("table:"):
        return TableOracle.from_csv(spec.split(":", 1)[1])
    if spec.startswith("external:"):
        return ExternalOracle(spec.split(":", 1)[1])
    raise UnsupportedConfig(f"unknown oracle {spec!r}; use "
                            "synthetic | table:<csv> | external:<cmd>")


def cmd_explore(args) -> int:
    model = load_model(args.model)
    platform = load_platform(args.platform)
    coeffs = load_calibration(args.calibration)
    req = Requirements(min_accuracy=args.min_acc, min_gops=args.min_gops,
                       max_latency_ms=args.max_latency_ms)
    oracle = _make_oracle(args.oracle, args.seed or 0)

    inputs = [p for p in (args.model, args.platform, args.calibration) if p]
    if args.oracle.startswith("table:"):
        inputs.append(args.oracle.split(":", 1)[1])
    doc = {"manifest": make_manifest(args, inputs),
           "requirements": {"min_accuracy": req.min_accuracy,
                            "min_gops": req.min_gops,
                            "max_latency_ms": req.max_latency_ms},
           "oracle": args.oracle,
           "oracle_is_synthetic": args.oracle == "synthetic"}
    try:
        result = run_framework(req, platform, model, oracle,
                               exhaustive=args.exhaustive,
                               finetune_budget=args.finetune_budget,
                               coeffs=coeffs, max_parallel=args.max_parallel)
    except TurfError as exc:
        if hasattr(exc, "candidates"):
            doc["outcome"] = "NoSolution"
            doc["candidates"] = [_jsonify(c) for c in exc.candidates]
            _emit(doc, args.out)
        raise
    doc["outcome"] = "solution"
    doc["candidates"] = [_jsonify(c) for c in result.candidates]
    doc["best"] = {
        "replacement_vector": replacement_key(result.best_model),
        "gops": result.best_gops,
        "latency_ms": result.best_latency_ms,
        "performance": result.best_performance,
        "model": model_to_json(result.best_model),
        "resources": {"dsp": result.best_design.dsp_used,
                      "bram": result.best_design.bram_used,
                      "alm": result.best_design.alm_used},
    }
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# winograd-check

def cmd_winograd_check(args) -> int:
    cfg = winograd_config(args.m, args.r)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    max_dev = 0.0
    for _ in range(args.trials):
        h = int(rng.integers(args.r, 17))
        w = int(rng.integers(args.r, 17))
        c = int(rng.integers(1, 9))
        f = int(rng.integers(1, 9))
        inp = Tensor3.from_array(rng.standard_normal((c, h, w)))
        filt = Filter4(rng.standard_normal((f, c, args.r, args.r)))
        ref = conv_direct(inp, filt, padding=1)
        win = conv_winograd(inp, filt, cfg, padding=1)
        max_dev = max(max_dev, float(np.abs(ref.data - win.data).max()))
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


# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turf",
        description="CNN accelerator design-space exploration toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (TURF_SEED env var overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p_model = add_parser("model", help="model definition utilities")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_show = model_sub.add_parser("show", parents=[common], help="per-stage op/param table")
    p_show.add_argument("file")
    p_show.add_argument("--format", choices=("json", "csv"), default="json")
    p_show.add_argument("--out")
    p_show.set_defaults(func=cmd_model_show)

    p_hw = add_parser("hw", help="hardware template utilities")
    hw_sub = p_hw.add_subparsers(dest="hw_command", required=True)
    p_desc = hw_sub.add_parser("describe", parents=[common], help="module chain with widths")
    p_desc.add_argument("model")
    p_desc.add_argument("--layer", type=int, required=True)
    p_desc.add_argument("--config", required=True)
    p_desc.add_argument("--out")
    p_desc.set_defaults(func=cmd_hw_describe)

    p_sim = add_parser("simulate", help="cycle-accurate fused-block simulation")
    p_sim.add_argument("model")
    p_sim.add_argument("--block", type=int, required=True)
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--trace")
    p_sim.add_argument("--enumerate-seqs", action="store_true")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_dse = add_parser("dse", help="hardware design-space exploration")
    p_dse.add_argument("model")
    p_dse.add_argument("--platform")
    p_dse.add_argument("--calibration")
    p_dse.add_argument("--block", type=int)
    p_dse.add_argument("--max-parallel", type=_positive_int, default=64)
    p_dse.add_argument("--grid-depth", type=int, default=4)
    p_dse.add_argument("--csv")
    p_dse.add_argument("--out")
    p_dse.set_defaults(func=cmd_dse)

    p_exp = add_parser("explore", help="joint model/hardware search")
    p_exp.add_argument("--model", required=True)
    p_exp.add_argument("--platform")
    p_exp.add_argument("--calibration")
    p_exp.add_argument("--min-acc", type=float, required=True)
    p_exp.add_argument("--min-gops", type=float)
    p_exp.add_argument("--max-latency-ms", type=float)
    p_exp.add_argument("--oracle", default="synthetic")
    p_exp.add_argument("--exhaustive", action="store_true")
    p_exp.add_argument("--finetune-budget", type=int, default=1)
    p_exp.add_argument("--max-parallel", type=_positive_int, default=64)
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_explore)

    p_win = add_parser("winograd-check", help="randomized equivalence trials")
    p_win.add_argument("--m", type=int, default=4)
    p_win.add_argument("--r", type=int, default=3)
    p_win.add_argument("--trials", type=int, default=100)
    p_win.add_argument("--out")
    p_win.set_defaults(func=cmd_winograd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    if os.environ.get("TURF_SEED"):
        args.seed = int(os.environ["TURF_SEED"])
    try:
        return args.func(args)
    except TurfError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
