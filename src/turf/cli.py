"""Command-line entry point: model definition -> replacement search ->
hardware DSE -> reports.

Subcommands: model, hw, simulate, dse, explore, winograd-check.
Exit codes: 0 success, 1 domain error or unwritable output path (error
class name on stderr), 2 usage error.  Reports are JSON (CSV companions
where tables map naturally), embed a run manifest, and are byte-identical
across runs with the same inputs and seed; the TURF_SEED environment variable overrides
--seed, and SOURCE_DATE_EPOCH (when set) supplies the manifest timestamp.

The inspection commands, their parsers and the simulator's report live in
``turf.inspection``, imported only to build or run one of them or for the
full ``--help``; ``hw describe`` also loads the module chain (``turf.chain``)
and a ``table:`` or ``external:`` oracle ``turf.oracles``.  ``winograd-check``
alone imports numpy (``turf.conv``) and ``turf.kernels`` with ``fractions``,
inside the command; the others load only turf and the standard library.
None loads OpenSSL: the manifest hashes its inputs with CPython's builtin
SHA-256, as ``random`` does, since ``hashlib`` loads it.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import io
import json
import os
import sys
from pathlib import Path

try:  # _sha256 up to Python 3.11, _sha2 from 3.12; hashlib when neither is built
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import NoSolution, TurfError, UnsupportedConfig, typed
from .explore import Requirements, SyntheticOracle, run_framework
from .fusion import config_to_json
from .ir import has_pipeline, load_model, model_to_json
from .resources import (DesignCandidate, design_candidates, evaluate_model,
                        load_calibration, load_platform, pick_best_design, roofline)


def _jsonify(obj):
    """``obj`` as JSON values.  Records are ``typing.NamedTuple``s: tuples
    that compare equal to a plain tuple of their values, whose ``_replace``
    skips any constructor checks.  So each record becomes an object through
    ``_asdict()`` before the tuple branch turns the other tuples into lists."""
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        return {k: _jsonify(v) for k, v in obj._asdict().items()}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def make_manifest(args: argparse.Namespace, inputs: list[str]) -> dict:
    return {
        "tool": "turf",
        "version": __version__,
        "command": list(getattr(args, "_argv", [])),
        "inputs": {p: sha256(Path(p).read_bytes()).hexdigest() for p in inputs if p},
        "seed": args.seed,
        "timestamp": os.environ.get("SOURCE_DATE_EPOCH"),
    }


def _write(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) output, to stdout where the path is None.
    Two paths that name one file (one resolved path, or one existing file)
    raise UnsupportedConfig before any is opened.  Every file is opened,
    without truncation, before any is written, so a path that cannot be
    opened leaves existing files as they were and removes the files this
    call created."""
    paths = [path for _, path in outputs if path]
    for i, path in enumerate(paths):
        if any(os.path.realpath(path) == os.path.realpath(other) or os.path.exists(path)
               and os.path.exists(other) and os.path.samefile(path, other) for other in paths[:i]):
            raise UnsupportedConfig(f"two outputs name the same file, {path}")
    with contextlib.ExitStack() as files, contextlib.ExitStack() as created:
        handles = []
        for _, path in outputs:
            new = path and not os.path.exists(path)
            handles.append(files.enter_context(open(path, "a", newline="")) if path
                           else sys.stdout)
            if new:
                created.callback(os.remove, path)
        created.pop_all()  # every file is open: keep them
        for (text, path), fh in zip(outputs, handles):
            if path:
                fh.truncate(0)
            fh.write(text)


def _emit(doc: dict, out: str | None, *others: tuple[str, str]) -> None:
    """Write ``doc`` as JSON to ``out``, with the ``others`` (text, path)
    outputs (``_write``).  JSON has no infinity or NaN, so a report that
    holds one (from an extreme platform value) is an ``UnsupportedConfig``
    and nothing is written."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise UnsupportedConfig(f"the report has a non-finite number: {exc}") from None
    _write((text + "\n", out), *others)


def _pipeline_stage(model, index: int, option: str):
    """The stage an index option names.  An index outside the model (not a
    Python-style index from the end) and a stage with no hardware pipeline
    are domain errors."""
    if not 0 <= index < len(model.stages):
        raise UnsupportedConfig(
            f"{option} {index} is out of range: the model has stages "
            f"0..{len(model.stages) - 1}")
    stage = model.stages[index]
    if not has_pipeline(stage.op):
        raise UnsupportedConfig(
            f"stage {index} ({stage.name}) has no hardware pipeline")
    return stage


# ---------------------------------------------------------------------------
# dse

def _candidate_row(c: DesignCandidate, clock_mhz: float) -> dict:
    seconds = c.total_cycles / (clock_mhz * 1e6)
    return {
        "config": config_to_json(c.cfg),
        "latency_cycles": c.total_cycles,
        "latency_ms": seconds * 1e3,
        "arithmetic_intensity": c.roofline.arithmetic_intensity,
        "attainable_gops": c.roofline.attainable_gops,
        "compute_roof_gops": c.roofline.compute_roof_gops,
        "dsp": c.resources.dsp_used,
        "bram": c.resources.bram_used,
        "alm": c.resources.alm_used,
    }


def _csv_row(stage_name: str, c: DesignCandidate) -> dict:
    return {"stage": stage_name, "intensity": c.roofline.arithmetic_intensity,
            "attainable_gops": c.roofline.attainable_gops,
            "latency_cycles": c.total_cycles, "dsp": c.resources.dsp_used}


def cmd_dse(args) -> int:
    model = load_model(args.model)
    platform = load_platform(args.platform)
    coeffs = load_calibration(args.calibration)

    doc = {"manifest": make_manifest(args, [args.model, args.platform, args.calibration]),
           "platform": platform.to_json()}
    csv_rows = []
    if args.block is not None:
        stage = _pipeline_stage(model, args.block, "--block")
        cands = design_candidates(stage.op, stage.input_shape, platform, coeffs,
                                  args.grid_depth, args.max_parallel)
        best = pick_best_design(cands, platform)
        rl = roofline(stage.op, stage.input_shape, platform,
                      (best.cfg.t_h, best.cfg.t_w, best.cfg.t_f))
        doc["stage"] = {"index": args.block, "name": stage.name}
        doc["candidates"] = [_candidate_row(c, platform.clock_mhz) for c in cands]
        doc["selected"] = _candidate_row(best, platform.clock_mhz)
        doc["roofline"] = {
            "fused": _jsonify(rl.fused) | {"attainable_gops": rl.fused.attainable_gops},
            "baseline": _jsonify(rl.baseline) | {"attainable_gops": rl.baseline.attainable_gops},
            "weight_model": rl.weight_model,
        }
        csv_rows = [_csv_row(stage.name, c) for c in cands]
    else:
        design = evaluate_model(model, platform, coeffs, {},
                                max_parallel=args.max_parallel,
                                grid_depth=args.grid_depth)
        doc["stages"] = []
        for row in design.stages:
            entry = {"index": row.stage_index, "name": row.stage_name}
            if row.candidate is not None:
                entry["design"] = _candidate_row(row.candidate, platform.clock_mhz)
                csv_rows.append(_csv_row(row.stage_name, row.candidate))
            doc["stages"].append(entry)
        doc["selected"] = {
            "total_cycles": design.total_cycles,
            "latency_ms": design.latency_ms(platform),
            "gops": design.gops(platform),
            "dsp": design.resources.dsp_used, "bram": design.resources.bram_used,
            "alm": design.resources.alm_used,
        }
    table = ()
    if args.csv:
        import csv
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["stage", "intensity", "attainable_gops",
                                                 "latency_cycles", "dsp"])
        writer.writeheader()
        writer.writerows(csv_rows)
        table = ((buf.getvalue(), args.csv),)
    _emit(doc, args.out, *table)
    return 0


# ---------------------------------------------------------------------------
# explore

def _make_oracle(spec: str):
    if spec == "synthetic":
        return SyntheticOracle()
    if spec.startswith(("table:", "external:")):
        from .oracles import ExternalOracle, TableOracle  # only these specs load them
        kind, arg = spec.split(":", 1)
        return TableOracle.from_csv(arg) if kind == "table" else ExternalOracle(arg)
    raise UnsupportedConfig(f"unknown oracle {spec!r}; use "
                            "synthetic | table:<csv> | external:<cmd>")


def cmd_explore(args) -> int:
    model = load_model(args.model)
    platform = load_platform(args.platform)
    coeffs = load_calibration(args.calibration)
    req = Requirements(min_accuracy=args.min_acc, min_gops=args.min_gops,
                       max_latency_ms=args.max_latency_ms)
    oracle = _make_oracle(args.oracle)

    inputs = [args.model, args.platform, args.calibration]
    if args.oracle.startswith("table:"):
        inputs.append(args.oracle.split(":", 1)[1])
    doc = {"manifest": make_manifest(args, inputs),
           "requirements": req._asdict(),
           "oracle": args.oracle,
           "oracle_is_synthetic": args.oracle == "synthetic"}
    try:
        result = run_framework(req, platform, model, oracle,
                               exhaustive=args.exhaustive,
                               finetune_budget=args.finetune_budget,
                               coeffs=coeffs, max_parallel=args.max_parallel)
    except NoSolution as exc:
        doc["outcome"] = "NoSolution"
        doc["candidates"] = [_jsonify(c) for c in exc.candidates]
        _emit(doc, args.out)
        raise
    best = result.best
    doc["outcome"] = "solution"
    doc["candidates"] = [_jsonify(c) for c in result.candidates]
    doc["best"] = {
        "replacement_vector": best.replacement_vector,
        "gops": best.gops,
        "latency_ms": best.latency_ms,
        "performance": best.performance,
        "model": model_to_json(result.best_model),
        "resources": {"dsp": best.dsp_used, "bram": best.bram_used,
                      "alm": best.alm_used},
    }
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type for an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _finite(text: str) -> float:
    """argparse type for a requirement: a number a JSON report can hold."""
    try:
        return typed(float(text), float, "requirement")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _fraction(text: str) -> float:
    """argparse type for an accuracy: a number in [0, 1]."""
    value = _finite(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


COMMANDS = {"model": "model definition utilities", "hw": "hardware template utilities",
            "simulate": "cycle-accurate fused-block simulation",
            "dse": "hardware design-space exploration",
            "explore": "joint model/hardware search",
            "winograd-check": "randomized equivalence trials"}  # with their help, in help order


def _add_arguments(name: str, p: argparse.ArgumentParser, common) -> None:
    """Give ``dse``'s or ``explore``'s subparser ``p`` its arguments."""
    if name == "dse":
        p.add_argument("model")
        p.add_argument("--platform")
        p.add_argument("--calibration")
        p.add_argument("--block", type=int)
        p.add_argument("--max-parallel", type=_int_at_least(1), default=64)
        p.add_argument("--grid-depth", type=_int_at_least(1), default=4)
        p.add_argument("--csv")
        p.set_defaults(func=cmd_dse)
    else:
        p.add_argument("--model", required=True)
        p.add_argument("--platform")
        p.add_argument("--calibration")
        p.add_argument("--min-acc", type=_fraction, required=True)
        target = p.add_mutually_exclusive_group(required=True)
        target.add_argument("--min-gops", type=_finite)
        target.add_argument("--max-latency-ms", type=_finite)
        p.add_argument("--oracle", default="synthetic")
        p.add_argument("--exhaustive", action="store_true")
        p.add_argument("--finetune-budget", type=_int_at_least(0), default=1)
        p.add_argument("--max-parallel", type=_int_at_least(1), default=64)
        p.set_defaults(func=cmd_explore)
    p.add_argument("--out")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``turf`` parser, or with ``command``'s subparser alone, which
    prints the same help, usage and errors for that command."""
    parser = argparse.ArgumentParser(
        prog="turf",
        description="CNN accelerator design-space exploration toolkit")
    common = argparse.ArgumentParser(add_help=False)
    # numpy takes no negative seed
    common.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="RNG seed (TURF_SEED env var overrides)")
    # the full usage line; a metavar would rename the argument in errors
    usage = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=usage)

    if command not in ("dse", "explore"):
        from . import inspection
    for name in COMMANDS if command is None else (command,):
        add_arguments = _add_arguments if name in ("dse", "explore") else inspection.add_arguments
        add_arguments(name, sub.add_parser(name, parents=[common], help=COMMANDS[name]), common)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    args._argv = argv
    if seed := os.environ.get("TURF_SEED"):
        try:
            args.seed = _int_at_least(0)(seed)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"TURF_SEED: {exc}")
    try:
        return args.func(args)
    except (TurfError, OSError) as exc:  # inputs are read under errors.reading
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
