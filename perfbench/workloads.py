"""The benchmark's workloads and the checks on the reports they produce.

Every workload runs a shipped reference model through the ``turf`` CLI.
The models are fixed, so the workloads are deterministic: the benchmark's
seed only reaches ``turf --seed`` (recorded in the report manifest) and
does not change the work done.
"""

from __future__ import annotations

import collections
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    model: str      # reference model name for turf.models.build_reference_model
    command: tuple  # turf arguments; "{model}" and "{out}" are filled in
    schema: str     # shipped schema the report must validate against
    why: str

    def argv(self, model_path: str, out_path: str, seed: int) -> list[str]:
        args = [a.format(model=model_path, out=out_path) for a in self.command]
        return args + ["--seed", str(seed)]


_DETERMINISTIC = ". Deterministic: the seed only reaches turf --seed"

WORKLOADS = {w.name: w for w in (
    Workload(
        "dse-resnet50", "resnet50",
        ("dse", "{model}", "--out", "{out}"), "dse_report.schema.json",
        "3-layer bottlenecks load the fused-block simulator and the 4-D "
        "parallelism prefilter; 10 of 18 stage lookups miss" + _DETERMINISTIC),
    Workload(
        "dse-vgg16", "vgg16",
        ("dse", "{model}", "--out", "{out}"), "dse_report.schema.json",
        "single-layer stages bypass the simulator, so the DSP prefilter "
        "dominates; a simulator speed-up should not move it" + _DETERMINISTIC),
    Workload(
        "explore-resnet50", "resnet50",
        ("explore", "--model", "{model}", "--exhaustive", "--min-acc", "0",
         "--min-gops", "1", "--out", "{out}"), "explore_result.schema.json",
        "the paper's greedy top-down loop: 17 models, 306 stage lookups of "
        "which 18 miss, so stage-cache reuse and memory show" + _DETERMINISTIC),
)}


# ---------------------------------------------------------------------------
# Report checks

def load_schema(schemas_dir: Path, name: str):
    """A shipped schema with its cross-file ``$ref``s inlined."""

    def inline(node):
        if isinstance(node, dict):
            ref = node.get("$ref")
            if isinstance(ref, str) and ref.endswith(".schema.json"):
                body = json.loads((schemas_dir / ref).read_text())
                body.pop("$id", None)
                body.pop("$schema", None)
                return inline(body)
            return {k: inline(v) for k, v in node.items()}
        if isinstance(node, list):
            return [inline(v) for v in node]
        return node

    return inline(json.loads((schemas_dir / name).read_text()))


def report_digest(doc: dict) -> str:
    """sha256 of the report without its manifest, canonically serialised."""
    body = {k: v for k, v in doc.items() if k != "manifest"}
    text = json.dumps(body, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def design_outputs(workload: Workload, doc: dict) -> dict:
    """The modelled design a report selected, recorded beside the metrics."""
    if workload.command[0] == "dse":
        sel = doc["selected"]
        out = {k: sel[k] for k in ("total_cycles", "gops", "dsp", "bram", "alm")}
    else:
        best = doc["best"]
        out = {"replacement_vector": best["replacement_vector"],
               "gops": best["gops"], "latency_ms": best["latency_ms"],
               **best["resources"]}
    out["sha256_without_manifest"] = report_digest(doc)
    return out


def _semantic_problems(workload: Workload, doc: dict) -> list[str]:
    if workload.command[0] == "dse":
        if doc["selected"].get("total_cycles", 0) <= 0:
            return ["selected design has no cycles"]
        if not any("design" in s for s in doc.get("stages", ())):
            return ["no stage has a design"]
        return []
    if doc["outcome"] != "solution" or "best" not in doc:
        return [f"explore outcome {doc['outcome']!r}"]
    if not all(c["accuracy_passed"] and c.get("gops") for c in doc["candidates"]):
        return ["a candidate did not reach the hardware DSE"]
    return []


def check_run(workload: Workload, validator, rc: int, stderr: str,
              report_text: str | None) -> tuple[list[str], dict | None]:
    """Problems with one run of ``workload``, and its design outputs.

    A run fails when it exits non-zero, writes a traceback, leaves no
    report, or leaves one that is not JSON, fails its shipped schema or
    does not describe a selected design.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if report_text is None:
        return problems + ["no report written"], None
    try:
        doc = json.loads(report_text)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"], None
    error = next(validator.iter_errors(doc), None)
    if error is not None:
        return problems + [f"schema: {error.message}"], None
    problems += _semantic_problems(workload, doc)
    return problems, (None if problems else design_outputs(workload, doc))


def mark_disagreeing(runs: list[dict]) -> None:
    """Fail every checked run whose report digest differs from the most
    common digest among the runs of one workload."""
    digests = [r["design"]["sha256_without_manifest"] for r in runs
               if not r["problems"]]
    if not digests:
        return
    common = collections.Counter(digests).most_common(1)[0][0]
    for r in runs:
        if not r["problems"] and r["design"]["sha256_without_manifest"] != common:
            r["problems"].append("report differs from the other runs")


def make_validator(schemas_dir: Path, name: str):
    import jsonschema

    schema = load_schema(schemas_dir, name)
    return jsonschema.validators.validator_for(schema)(schema)
