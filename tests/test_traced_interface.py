"""The turf interface that the benchmark's span tracer reads.

``perfbench/spans.py`` wraps turf functions by name (``TRACED``) and takes
counts (``NOTES``) from their arguments and results, such as
``evaluate_model(...).stages[i].candidate``.  Renaming one of them leaves
every untraced test passing while every traced benchmark run fails.  So
these tests run the traced commands on a small model with the tracer
installed.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import dwsep_block, std_conv
from turf.cli import main
from turf.ir import (LayerKind, LayerSpec, ModelSpec, Replacement, Stage,
                     TensorShape, model_to_json)

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.fixture
def model_path(tmp_path):
    """A convolution, a depthwise-separable block (stage 1), a pooling stage
    with no pipeline and a fully-connected layer."""
    pool = LayerSpec(LayerKind.POOLING, kernel_size=2, stride=2)
    fc = LayerSpec(LayerKind.FULLY_CONNECTED, out_channels=10, has_bias=True)
    model = ModelSpec("Custom", (
        Stage(TensorShape(16, 16, 8), std_conv(16, bias=True), "c1"),
        Stage(TensorShape(16, 16, 16), dwsep_block(32), "dws"),
        Stage(TensorShape(16, 16, 32), pool, "pool"),
        Stage(TensorShape(8, 8, 32), fc, "fc"),
    ), ((0,),), (Replacement.ORIGIN,))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    return path


def test_every_traced_name_exists():
    for home, names in spans.TRACED.items():
        module = importlib.import_module(f"turf.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"turf.{home}.{name}"
    for home, methods in spans.TRACED_METHODS.items():
        module = importlib.import_module(f"turf.{home}")
        for cls_name, attr in methods:
            assert callable(getattr(getattr(module, cls_name), attr))


def test_traced_commands_record_no_error_and_every_note(model_path, tmp_path):
    """``dse``, ``dse --block``, ``simulate --enumerate-seqs`` and ``explore``
    run under the tracer: no span records an error, and every span of a
    function with a ``NOTES`` entry carries its note."""
    block = tmp_path / "block.json"
    cfg = tmp_path / "cfg.json"
    model = str(model_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["dse", model, "--out", str(tmp_path / "dse.json")]) == 0
        assert main(["dse", model, "--block", "1", "--out", str(block)]) == 0
        cfg.write_text(json.dumps(json.loads(block.read_text())["selected"]["config"]))
        assert main(["simulate", model, "--block", "1", "--config", str(cfg),
                     "--enumerate-seqs", "--out", str(tmp_path / "sim.json")]) == 0
        assert main(["explore", "--model", model, "--min-acc", "0", "--min-gops", "0",
                     "--max-parallel", "16", "--out", str(tmp_path / "explore.json")]) == 0
    finally:
        tracer.uninstall()
    recorded = tracer.spans
    assert [s for s in recorded if s[4] is not None] == []
    noted = [s for s in recorded if s[0] in spans.NOTES]
    assert {s[0] for s in noted} == set(spans.NOTES)
    assert all(s[5] is not None for s in noted)
    metrics = spans.layer_metrics(recorded)
    # c1, dws and fc per whole-model design: one dse, two explore models
    assert metrics["resources.stage_lookups"] == 9
    assert metrics["explore.models"] == 2


def test_a_command_run_before_the_tracer_is_installed_is_still_traced(model_path, tmp_path):
    """``simulate`` runs once untraced, which imports its command module, and
    then under the tracer: the ``fusion.simulate_fused`` and
    ``fusion.enumerate_sequences`` spans are recorded with their notes, so
    the command does not call a name bound before the tracer wrapped it."""
    block = tmp_path / "block.json"
    cfg = tmp_path / "cfg.json"
    model = str(model_path)
    assert main(["dse", model, "--block", "1", "--out", str(block)]) == 0
    cfg.write_text(json.dumps(json.loads(block.read_text())["selected"]["config"]))
    simulate = ["simulate", model, "--block", "1", "--config", str(cfg),
                "--enumerate-seqs", "--out", str(tmp_path / "sim.json")]
    assert main(simulate) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(simulate) == 0
    finally:
        tracer.uninstall()
    names = ("fusion.simulate_fused", "fusion.enumerate_sequences")
    noted = [s for s in tracer.spans if s[0] in names]
    assert sorted(s[0] for s in noted) == sorted(names)
    assert all(s[4] is None and s[5] is not None for s in noted)


def test_the_funnel_counts_the_candidates_the_tracer_notes(model_path):
    """The evaluated units of an ``evaluate_model``'s funnel are the
    candidates that the tracer's ``resources.pick_best_design`` notes count
    (``_feasible``'s second entry) over the calls ``design_gen`` makes."""
    import turf.resources
    from turf.ir import load_model

    model, table = load_model(str(model_path)), {}
    tracer = spans.Tracer()
    tracer.install()
    try:
        turf.resources.evaluate_model(model, turf.resources.STRATIX_V_5SGSD8,
                                      turf.resources.load_calibration(), table)
    finally:
        tracer.uninstall()
    recorded = tracer.spans
    noted = [s[5][1] for s in recorded if s[0] == "resources.pick_best_design"
             and recorded[s[1]][0] == "resources.design_gen"]
    assert len(noted) == 3 and table["funnel"]["evaluated"] == sum(noted)
