"""Golden reports: DSE and simulate output stays byte-identical, manifest aside.

Each case runs ``turf.cli.main`` on a shipped reference model and compares
the report, without its ``manifest``, to the committed file under
``tests/golden/``.  A change that moves a reported number on purpose
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from turf.cli import main
from turf.ir import model_to_json
from turf.models import build_reference_model

GOLDEN = Path(__file__).resolve().parent / "golden"
SIM_CONFIG = GOLDEN / "resnet50_res2_1_config.json"

# golden file -> (reference model, turf arguments); "{model}" and "{trace}"
# are filled in, the report goes to --out
CASES = {
    "dse_vgg16.json": ("vgg16", ("dse", "{model}")),
    "dse_mobilenetv1.json": ("mobilenetv1", ("dse", "{model}")),
    "dse_mobilenetv2.json": ("mobilenetv2", ("dse", "{model}")),
    "dse_resnet50_res2_1.json": ("resnet50", ("dse", "{model}", "--block", "2")),
    "dse_resnet50_res3_1.json": ("resnet50", ("dse", "{model}", "--block", "5")),
    "simulate_resnet50_res2_1.json": (
        "resnet50", ("simulate", "{model}", "--block", "2", "--config",
                     str(SIM_CONFIG), "--enumerate-seqs", "--trace", "{trace}")),
}
# companion files a case writes besides its report
TRACES = {"simulate_resnet50_res2_1.json": "simulate_resnet50_res2_1_trace.json"}


def _without_manifest(text: str) -> str:
    doc = json.loads(text)
    doc.pop("manifest", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case; returns {golden file name: text it must equal}."""
    model_name, command = CASES[name]
    model_path = workdir / f"{model_name}.json"
    if not model_path.exists():
        model_path.write_text(json.dumps(model_to_json(build_reference_model(model_name))))
    out, trace = workdir / name, workdir / f"trace-{name}"
    argv = [a.format(model=model_path, trace=trace) for a in command]
    assert main(argv + ["--out", str(out)]) == 0
    texts = {name: _without_manifest(out.read_text())}
    if name in TRACES:
        texts[TRACES[name]] = trace.read_text()
    return texts


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    for golden, text in run_case(name, tmp_path).items():
        assert text == (GOLDEN / golden).read_text(), f"{golden} changed"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for golden, text in run_case(case, Path(tmp)).items():
                (GOLDEN / golden).write_text(text)
                print(f"wrote {GOLDEN / golden}", file=sys.stderr)
