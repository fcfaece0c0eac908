"""CLI surface: subcommands, exit codes, schema-valid reports, determinism."""

import contextlib
import functools
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from importlib import resources as importlib_resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from conftest import layers_form
from turf import errors
from turf.cli import main
from turf.explore import model_gen, replacement_key
from turf.hw import ModuleKind
from turf.ir import model_to_json
from turf.models import build_reference_model
from turf.resources import STRATIX_V_5SGSD8, load_calibration

ROOT = Path(__file__).resolve().parents[1]

MODEL_DOC = {
    "base": "Custom",
    "stages": [
        {"name": "c1", "input": [16, 16, 8], "kind": "StandardConv",
         "kernel": 3, "stride": 1, "padding": 1, "out_channels": 16, "bias": True},
        {"name": "dws", "input": [16, 16, 16], "block": {
            "kind": "DepthwiseSeparable",
            "layers": [
                {"kind": "DepthwiseConv", "kernel": 3, "stride": 1, "padding": 1},
                {"kind": "PointwiseConv", "kernel": 1, "out_channels": 32}]}},
        {"name": "fc", "input": [16, 16, 32], "kind": "FullyConnected",
         "out_channels": 10, "bias": True},
    ],
    "groups": [[0]],
    "replacements": ["ORIGIN"],
}

CFG_DOC = {
    "tiles": {"h": 16, "w": 16, "c": [16, 16], "f": 32},
    "parallelism": {"h": 1, "w": 1, "c": [4, 4], "f": 8},
    "seqs": ["FM", "CM"],
    "buffers": ["Double"],
    "winograd": [False, False],
}

BAD_CFG_DOC = {
    "layers": [
        {"tile": [16, 16, 16, 16], "parallelism": [1, 1, 4, 4], "seq": "FM"},
        {"tile": [16, 16, 16, 32], "parallelism": [1, 1, 8, 8], "seq": "CM"},
    ],
    "buffers": ["Double"],
}


# a zero-cost stage: pooling has no hardware pipeline
POOL_MODEL_DOC = {
    "base": "Custom",
    "stages": [
        {"name": "c1", "input": [16, 16, 8], "kind": "StandardConv",
         "kernel": 3, "stride": 1, "padding": 1, "out_channels": 16},
        {"name": "pool", "input": [16, 16, 16], "kind": "Pooling",
         "kernel": 2, "stride": 2},
    ],
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(MODEL_DOC))
    (tmp_path / "cfg.json").write_text(json.dumps(CFG_DOC))
    (tmp_path / "bad.json").write_text(json.dumps(BAD_CFG_DOC))
    return tmp_path


def _load_schema(name):
    schemas = importlib_resources.files("turf.schemas")
    return json.loads(schemas.joinpath(name).read_text())


def _inline_file_refs(node):
    """Replace cross-file $ref entries with the referenced schema body
    (internal '#/...' refs are left for the validator)."""
    if isinstance(node, dict):
        ref = node.get("$ref")
        if isinstance(ref, str) and ref.endswith(".schema.json"):
            inlined = _load_schema(ref)
            inlined.pop("$id", None)
            inlined.pop("$schema", None)
            return _inline_file_refs(inlined)
        return {k: _inline_file_refs(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_inline_file_refs(v) for v in node]
    return node


@functools.cache
def _validator(schema_name):
    schema = _inline_file_refs(_load_schema(schema_name))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(doc, schema_name):
    _validator(schema_name).validate(doc)


class TestModelShow:
    def test_json_report_validates(self, workdir):
        out = workdir / "table.json"
        rc = main(["model", "show", str(workdir / "model.json"),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        _validate(doc, "model_table.schema.json")
        assert doc["total_ops"] == sum(r["ops"] for r in doc["per_stage"])

    def test_csv_format(self, workdir, capsys):
        rc = main(["model", "show", str(workdir / "model.json"),
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,name,category,ops,params"
        assert lines[-1].startswith(",total")

    def test_reference_shorthand_file(self, tmp_path):
        f = tmp_path / "ref.json"
        f.write_text(json.dumps({"base": "mobilenetv1"}))
        out = tmp_path / "t.json"
        assert main(["model", "show", str(f), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["total_gops"] == pytest.approx(1.14, rel=0.05)


class TestHwDescribe:
    def test_report_validates_and_chains(self, workdir):
        out = workdir / "hw.json"
        rc = main(["hw", "describe", str(workdir / "model.json"),
                   "--layer", "1", "--config", str(workdir / "cfg.json"),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        _validate(doc, "hw_describe.schema.json")
        chains = doc["pipelines"]
        assert len(chains) == 2
        # pointwise layer has no line buffer
        assert "LineBuffer" not in [m["kind"] for m in chains[1]["modules"]]


class TestSimulate:
    def test_report_and_trace_validate(self, workdir):
        out = workdir / "sim.json"
        trace = workdir / "trace.json"
        rc = main(["simulate", str(workdir / "model.json"), "--block", "1",
                   "--config", str(workdir / "cfg.json"),
                   "--trace", str(trace), "--enumerate-seqs",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        _validate(doc, "simulate_report.schema.json")
        assert len(doc["sequences"]) == 4  # 2 layers -> 4 combos
        trace_doc = json.loads(trace.read_text())
        _validate(trace_doc, "trace.schema.json")
        assert trace_doc == sorted(trace_doc,
                                   key=lambda e: (e["time"], e["layer"], e["unit"]))

    def test_plans_the_config_once(self, workdir, monkeypatch):
        """The enumeration and the simulation read one ``BlockPlan``.  The
        command calls ``plan_block`` through ``turf.fusion``, so patching it
        there counts every call."""
        import turf.fusion

        plans = []
        plan_block = turf.fusion.plan_block

        def counted(*args):
            plans.append(args)
            return plan_block(*args)

        monkeypatch.setattr(turf.fusion, "plan_block", counted)
        rc = main(["simulate", str(workdir / "model.json"), "--block", "1",
                   "--config", str(workdir / "cfg.json"),
                   "--enumerate-seqs", "--out", str(workdir / "sim.json")])
        assert rc == 0
        assert len(plans) == 1

    def test_port_mismatch_exits_one_with_name(self, workdir, capsys):
        rc = main(["simulate", str(workdir / "model.json"), "--block", "1",
                   "--config", str(workdir / "bad.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("PortMismatch")


GOLDEN_CONFIG = ROOT / "tests" / "golden" / "resnet50_res2_1_config.json"


def _edit(doc, **edits):
    """``doc`` with its sections updated: ``tiles={"h": 112}`` and the like;
    a top-level value replaces the entry."""
    doc = json.loads(json.dumps(doc))
    for key, value in edits.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


# (reference model, stage, config): each one the stage cannot run
REJECTED = {
    # res2_1 is 56x56x64 in, 256 out; a tile past the data inflated cycles
    "tile-past-map": ("resnet50", 2, {"tiles": {"h": 112, "w": 112}}),
    "tile-past-input-channels": ("resnet50", 2, {"tiles": {"c": [128, 64, 64]}}),
    "tile-past-output-channels": ("resnet50", 2, {"tiles": {"f": 512}}),
    # the Winograd checks the module pipeline used to make first
    "winograd-on-1x1": ("resnet50", 2, {"winograd": [True, False, False]}),
    "winograd-on-stride-2": ("mobilenetv1", 2, {
        "tiles": {"h": 56, "w": 56, "c": [64, 64], "f": 128},
        "parallelism": {"h": 1, "w": 1, "c": [8, 8], "f": 16},
        "seqs": ["FM", "FM"], "buffers": ["Double"], "winograd": [True, False]}),
    "winograd-p-not-m": ("resnet50", 2, {
        "parallelism": {"h": 2, "w": 2}, "winograd": [False, True, False]}),
    "winograd-no-such-m": ("resnet50", 2, {
        "parallelism": {"h": 7, "w": 7}, "winograd": [False, True, False],
        "winograd_m": 7}),
}


class TestRejectedConfigs:
    """A config the stage cannot run exits 1 naming ``UnsupportedConfig``,
    from ``simulate`` (which never builds a module pipeline) and from
    ``hw describe``, which builds them through ``turf.hw``."""

    @pytest.mark.parametrize("case", sorted(REJECTED))
    @pytest.mark.parametrize("command", ["simulate", "hw"])
    def test_exits_one(self, tmp_path, capsys, monkeypatch, command, case):
        import turf.hw

        model_name, stage, edits = REJECTED[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_edit(json.loads(GOLDEN_CONFIG.read_text()),
                                        **edits)))
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_json(build_reference_model(model_name))))
        if command == "simulate":
            def no_pipeline(*args):
                raise AssertionError("simulate built a module pipeline")
            monkeypatch.setattr(turf.hw, "instantiate_layer", no_pipeline)
            argv = ["simulate", str(model), "--block", str(stage)]
        else:
            argv = ["hw", "describe", str(model), "--layer", str(stage)]
        assert main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("UnsupportedConfig: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["simulate", "hw", "winograd-check"])
def test_an_unsupported_winograd_instance_exits_one_naming_the_supported(
        tmp_path, capsys, command):
    """F(3^2, 3^2) is rejected with one message, whether a config document
    asks for it or ``winograd-check`` does."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_edit(json.loads(GOLDEN_CONFIG.read_text()),
                                    tiles={"h": 15, "w": 15},
                                    parallelism={"h": 3, "w": 3},
                                    winograd=[False, True, False], winograd_m=3)))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_json(build_reference_model("resnet50"))))
    argv = {"simulate": ["simulate", str(model), "--block", "2", "--config", str(cfg)],
            "hw": ["hw", "describe", str(model), "--layer", "2", "--config", str(cfg)],
            "winograd-check": ["winograd-check", "--m", "3"]}[command]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == (
        "UnsupportedConfig: no Winograd instance F(3^2, 3^2); "
        "supported: F(2^2,3^2), F(4^2,3^2)\n")
    assert not (tmp_path / "out.json").exists()


# ResNet-50's first three stages, up to ``res2_1``
RES2_1_MODEL = {"base": "Custom",
                "stages": model_to_json(build_reference_model("resnet50"))["stages"][:3]}


@pytest.fixture(scope="module")
def res2_1_model(tmp_path_factory):
    """A model file of ``RES2_1_MODEL``."""
    path = tmp_path_factory.mktemp("res2_1") / "model.json"
    path.write_text(json.dumps(RES2_1_MODEL))
    return str(path)


def _config_argv(command, model):
    """``simulate`` or ``hw describe`` on stage 2 of ``model``."""
    if command == "simulate":
        return ["simulate", model, "--block", "2", "--enumerate-seqs"]
    return ["hw", "describe", model, "--layer", "2"]


# tile and parallelism entries that are no JSON integer, and wrongly typed
# Winograd fields
INVALID_DOCUMENTS = {
    "null-tile": {"tiles": {"h": None}},
    "string-tile": {"tiles": {"w": "14"}},
    "float-tile": {"tiles": {"h": 28.0}},
    "bool-parallelism": {"parallelism": {"h": True}},
    "string-winograd-m": {"winograd_m": "4"},
    "string-winograd-flag": {"winograd": ["yes", False, False]},
}


@pytest.mark.parametrize("form", ["flat", "layers"])
@pytest.mark.parametrize("command", ["simulate", "hw"])
def test_config_without_winograd_flags_runs_the_direct_path(tmp_path, res2_1_model,
                                                           command, form):
    """A config that names no Winograd flag, in either form, gives the report
    of the same config with every flag False."""
    doc = json.loads(GOLDEN_CONFIG.read_text())
    assert doc["winograd"] == [False, False, False]
    flagged = doc if form == "flat" else layers_form(doc)
    bare = json.loads(json.dumps(flagged))
    for entry in [bare] if form == "flat" else bare["layers"]:
        del entry["winograd"]
    reports = []
    for name, cfg_doc in (("flagged", flagged), ("bare", bare)):
        cfg, out = tmp_path / f"{name}_cfg.json", tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(cfg_doc))
        assert main(_config_argv(command, res2_1_model) + [
            "--config", str(cfg), "--out", str(out)]) == 0
        reports.append({k: v for k, v in json.loads(out.read_text()).items()
                        if k != "manifest"})
    assert reports[0] == reports[1]


def _res3_1_layers_config(tile_of):
    """``dse``'s res3_1 config (layer 0 has stride 2) in the ``layers`` form,
    with layer i's (T_h, T_w) ``tile_of(i)``."""
    flat = json.loads((ROOT / "tests" / "golden" / "dse_resnet50_res3_1.json").read_text()
                      )["selected"]["config"]
    doc = layers_form(flat)
    for i, entry in enumerate(doc["layers"]):
        entry["tile"][:2] = tile_of(i)
    return flat, doc


def test_layers_form_tiles_follow_the_strides(reference_models, tmp_path):
    """Behind a stride-2 layer, a ``layers`` config's later tiles are layer
    0's halved, and the config gives the flat form's ``simulate`` report."""
    flat, doc = _res3_1_layers_config(lambda i: [56, 56] if i == 0 else [28, 28])
    reports = []
    for name, cfg_doc in (("flat", flat), ("layers", doc)):
        cfg, out = tmp_path / f"{name}_cfg.json", tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(cfg_doc))
        assert main(["simulate", str(reference_models / "resnet50.json"), "--block", "5",
                     "--config", str(cfg), "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]


class TestInvalidConfigDocuments:
    """A config document with a value of the wrong JSON type exits 1 naming
    ``InvalidDocument``, in either form, from ``simulate`` and ``hw describe``."""

    @pytest.mark.parametrize("form", ["flat", "layers"])
    @pytest.mark.parametrize("case", sorted(INVALID_DOCUMENTS))
    @pytest.mark.parametrize("command", ["simulate", "hw"])
    def test_exits_one(self, tmp_path, capsys, res2_1_model, command, case, form):
        doc = _edit(json.loads(GOLDEN_CONFIG.read_text()), **INVALID_DOCUMENTS[case])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc if form == "flat" else layers_form(doc)))
        assert main(_config_argv(command, res2_1_model) + [
            "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("InvalidDocument: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


def _paths(node, path=()):
    """The path of ``node`` and of every entry inside it."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


def _put(doc, path, value):
    """``doc`` with the entry at ``path`` set to ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# integers JSON does not carry exactly (RFC 8259 section 6), which every
# document rejects at parse time; none below 2**53, as an accepted huge
# channel count makes ``dse`` simulate passes that grow with it
HUGE_INTEGERS = [2 ** 53, -2 ** 53, 10 ** 400]

# what a fuzzed field gets: no value, a wrong type, zero or a negative
# number, a huge integer, a plausible or a valid name, or a short list
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-64, 0), st.integers(1, 64),
    st.floats(-64, 64), st.integers(1, 64).map(float), st.sampled_from(HUGE_INTEGERS),
    st.sampled_from(["", "x", "FM", "CM", "Double", "MatchPrev", "MatchNext", "4"]),
    st.lists(st.integers(-1, 64), max_size=4))

# what a fuzzed platform or calibration number gets: zero, a negative, the
# smallest or a huge float, a huge integer, or a plausible value
FUZZ_NUMBERS = st.one_of(st.sampled_from([0, -1, 5e-324, 1e308, *HUGE_INTEGERS]),
                         st.integers(1, 4096))

TURF_ERRORS = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.TurfError)}

SCHEMAS = {"simulate": "simulate_report.schema.json", "hw": "hw_describe.schema.json",
           "model": "model_table.schema.json", "dse": "dse_report.schema.json",
           "explore": "explore_result.schema.json"}
FUZZ_DOCS = {"flat": json.loads(GOLDEN_CONFIG.read_text()),
             "model": {**RES2_1_MODEL, "groups": [[0], [2]]},
             "platform": STRATIX_V_5SGSD8.to_json(),
             "calibration": {"alm": load_calibration().alm}}
FUZZ_DOCS["layers"] = layers_form(FUZZ_DOCS["flat"])


def _not_json(constant):
    """``parse_constant`` hook: JSON has no ``NaN`` or ``Infinity``."""
    raise ValueError(f"{constant} is not JSON")


def _fuzz_run(data, form, workdir, argv_of, values=FUZZ_VALUES):
    """Replace one to three fields of ``FUZZ_DOCS[form]`` by ``values`` and
    run it as ``_run_document`` does."""
    doc = FUZZ_DOCS[form]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]), label="path")
        doc = _put(doc, path, data.draw(values, label="value"))
    _run_document(doc, workdir, argv_of)


def _run_document(doc, workdir, argv_of):
    """Write ``doc`` to ``workdir`` and run ``main(argv_of(path))`` with an
    ``--out`` report: exit 0 needs a report that validates against the
    command's schema, parsed strictly as JSON (no ``NaN`` or ``Infinity``),
    exit 1 a ``TurfError`` class name first on stderr, no traceback and no
    report.  Any other exception escapes ``main``."""
    fuzzed, out = os.path.join(workdir, "fuzzed.json"), os.path.join(workdir, "out.json")
    with open(fuzzed, "w") as fh:
        json.dump(doc, fh)
    if os.path.exists(out):
        os.remove(out)
    argv = argv_of(fuzzed)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main(argv + ["--out", out])
    err = stderr.getvalue()
    assert "Traceback" not in err
    if rc == 0:
        with open(out) as fh:
            _validate(json.load(fh, parse_constant=_not_json), SCHEMAS[argv[0]])
    else:
        assert rc == 1
        assert err.split(":")[0] in TURF_ERRORS, err
        assert not os.path.exists(out)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["simulate", "hw"]), form=st.sampled_from(["flat", "layers"]),
       data=st.data())
def test_fuzzed_config_documents_keep_the_contract(res2_1_model, command, form, data):
    """The golden res2_1 config, in either form, fuzzed as ``_fuzz_run``
    does, keeps the contract under ``simulate`` and ``hw describe``."""
    _fuzz_run(data, form, os.path.dirname(res2_1_model),
              lambda cfg: _config_argv(command, res2_1_model) + ["--config", cfg])


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from([("model", "show"), ("dse",), ("explore", "--model")]),
       data=st.data())
def test_fuzzed_model_documents_keep_the_contract(res2_1_model, command, data):
    """``RES2_1_MODEL``, with its first and last stages as replacement
    groups, fuzzed as ``_fuzz_run`` does keeps the contract under ``model
    show``, a whole-model ``dse`` and an ``explore`` that every candidate
    passes."""
    explore = ["--min-acc", "0", "--max-latency-ms", "1e9"] if command[0] == "explore" else []
    _fuzz_run(data, "model", os.path.dirname(res2_1_model),
              lambda model: [*command, model, *explore])


# ``groups`` entries around the stage count n of ``RES2_1_MODEL``: -1, 0,
# n - 1, n and n + 1
GROUP_ENTRIES = st.sampled_from([-1, 0, 2, 3, 4])


@settings(max_examples=100, deadline=None)
@given(groups=st.lists(st.lists(GROUP_ENTRIES, max_size=3), max_size=3))
def test_fuzzed_groups_keep_the_contract(res2_1_model, groups):
    """``RES2_1_MODEL`` with ``groups`` drawn around its stage count keeps
    the contract of ``_run_document`` under an ``explore`` that every
    candidate passes: each replaces a group, or the groups are rejected."""
    assert len(RES2_1_MODEL["stages"]) == 3
    _run_document({**RES2_1_MODEL, "groups": groups}, os.path.dirname(res2_1_model),
                  lambda model: ["explore", "--model", model, "--min-acc", "0",
                                 "--max-latency-ms", "1e9"])


@pytest.mark.parametrize("form", ["platform", "calibration"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_platform_and_calibration_documents_keep_the_contract(res2_1_model, form,
                                                                     data):
    """The default platform and calibration documents, with fields set to
    ``FUZZ_NUMBERS`` as ``_fuzz_run`` does, keep the contract under a
    whole-model ``dse`` of ``RES2_1_MODEL``."""
    _fuzz_run(data, form, os.path.dirname(res2_1_model),
              lambda doc: ["dse", res2_1_model, f"--{form}", doc], FUZZ_NUMBERS)


class TestDse:
    def test_block_report_validates(self, workdir):
        out = workdir / "dse.json"
        csv_out = workdir / "dse.csv"
        rc = main(["dse", str(workdir / "model.json"), "--block", "1",
                   "--out", str(out), "--csv", str(csv_out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        _validate(doc, "dse_report.schema.json")
        assert doc["selected"]["dsp"] <= doc["platform"]["dsp_total"]
        assert csv_out.read_text().startswith("stage,intensity")

    def test_unpadded_kernel_larger_than_eight(self, tmp_path):
        # an 11x11 stride-4 unpadded first layer, as in AlexNet
        doc = {"base": "Custom", "stages": [
            {"name": "conv1", "input": [35, 35, 3], "kind": "StandardConv",
             "kernel": 11, "stride": 4, "padding": 0, "out_channels": 8}]}
        (tmp_path / "model.json").write_text(json.dumps(doc))
        out = tmp_path / "dse.json"
        assert main(["dse", str(tmp_path / "model.json"), "--out", str(out)]) == 0
        _validate(json.loads(out.read_text()), "dse_report.schema.json")

    def test_huge_map(self, tmp_path):
        # the halo is summed in closed form, so a 2**24-wide map costs what
        # a small one does
        doc = {"base": "Custom", "stages": [
            {"name": "conv1", "input": [2 ** 24, 2 ** 24, 4], "kind": "StandardConv",
             "kernel": 3, "stride": 1, "padding": 1, "out_channels": 4}]}
        (tmp_path / "model.json").write_text(json.dumps(doc))
        out = tmp_path / "dse.json"
        assert main(["dse", str(tmp_path / "model.json"), "--out", str(out)]) == 0
        _validate(json.loads(out.read_text()), "dse_report.schema.json")

    def test_whole_model_report(self, workdir):
        out = workdir / "dse_model.json"
        rc = main(["dse", str(workdir / "model.json"),
                   "--grid-depth", "2", "--max-parallel", "16",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        _validate(doc, "dse_report.schema.json")
        assert doc["selected"]["dsp"] <= doc["platform"]["dsp_total"]


class TestExplore:
    def test_result_validates(self, workdir):
        out = workdir / "exp.json"
        rc = main(["explore", "--model", str(workdir / "model.json"),
                   "--min-acc", "0.9", "--max-latency-ms", "100",
                   "--max-parallel", "16", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        _validate(doc, "explore_result.schema.json")
        assert doc["outcome"] == "solution"
        assert doc["oracle_is_synthetic"] is True

    def test_no_solution_exit_code_and_log(self, workdir, capsys):
        out = workdir / "exp.json"
        rc = main(["explore", "--model", str(workdir / "model.json"),
                   "--min-acc", "0.999", "--max-latency-ms", "100",
                   "--max-parallel", "16", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("NoSolution")
        doc = json.loads(out.read_text())
        assert doc["outcome"] == "NoSolution"
        assert doc["candidates"]


class TestWinogradCheck:
    def test_report_validates(self, tmp_path, capsys):
        rc = main(["winograd-check", "--m", "4", "--r", "3",
                   "--trials", "10", "--seed", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        _validate(doc, "winograd_check.schema.json")
        assert doc["max_abs_deviation"] < 1e-9
        assert doc["speedup"] == 4.0


# Runs turf.cli.main(argv) in a fresh interpreter (pytest's own has numpy
# loaded) and prints, as its last line, the modules the run added.
_IMPORT_PROBE = """\
import sys
before = set(sys.modules)
from turf.cli import main
rc = main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(rc)
"""


def _fresh_run(argv: list[str], prelude: str = "") -> list[str]:
    """Modules a cold ``turf`` run imports after running the ``prelude``
    statements; the run must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", prelude + _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.fixture(scope="module")
def reference_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    for name in ("vgg16", "resnet50"):
        (root / f"{name}.json").write_text(
            json.dumps(model_to_json(build_reference_model(name))))
    return root


# the turf modules a ``dse`` or ``explore`` run loads
DSE_MODULES = {"turf", "turf.cli", "turf.errors", "turf.explore", "turf.fusion", "turf.hw",
               "turf.ir", "turf.resources"}


class TestImportFootprint:
    """Every command but winograd-check loads only turf and the standard
    library: no numpy on the DSE path, and no ``subprocess`` on a ``dse``
    or ``explore`` run (only an ``external:`` oracle needs it).  turf's
    records are NamedTuples, so no command loads ``dataclasses`` or the
    ``inspect`` it imports, and only a command that reads or writes CSV
    loads ``csv``.  The manifest hashes with CPython's builtin SHA-256, so
    no command loads OpenSSL (``_hashlib``), and a stage-list document needs
    no reference model, so none loads ``turf.models``.  A ``dse`` or
    ``explore`` run loads exactly ``DSE_MODULES`` of turf, and a ``table:``
    oracle ``turf.oracles`` too; the module chain (``turf.chain``) loads
    only for ``hw describe``."""

    @pytest.mark.parametrize("command", [
        ("model", "show", "{vgg16}"),
        ("hw", "describe", "{resnet50}", "--layer", "2", "--config", "{config}"),
        ("simulate", "{resnet50}", "--block", "2", "--config", "{config}",
         "--enumerate-seqs"),
        ("dse", "{vgg16}"),
        ("dse", "{resnet50}", "--block", "2"),
        ("explore", "--model", "{resnet50}", "--min-acc", "0", "--min-gops", "1"),
        ("explore", "--model", "{resnet50}", "--min-acc", "0.5", "--min-gops", "1",
         "--oracle", "table:{table}"),
    ], ids=lambda c: " ".join(w for w in c if "{" not in w))
    def test_loads_only_turf_and_stdlib(self, reference_models, tmp_path, command):
        # the first candidate passes, the second fails and ends the walk
        first = model_gen(build_reference_model("resnet50"))
        (tmp_path / "table.csv").write_text(
            f"replacement_vector,accuracy\n{replacement_key(first)},0.9\n"
            f"{replacement_key(model_gen(first, first))},0.1\n")
        paths = {"vgg16": reference_models / "vgg16.json",
                 "resnet50": reference_models / "resnet50.json",
                 "config": ROOT / "tests" / "golden" / "resnet50_res2_1_config.json",
                 "table": tmp_path / "table.csv"}
        argv = [w.format(**paths) for w in command]
        added = _fresh_run(argv + ["--out", str(tmp_path / "report.json")])
        foreign = [m for m in added if m != "turf" and not m.startswith("turf.")
                   and m.partition(".")[0] not in sys.stdlib_module_names]
        assert foreign == []
        assert {"dataclasses", "inspect"}.isdisjoint(added)
        assert ("csv" in added) == ("--oracle" in command)
        assert "_hashlib" not in added
        assert "turf.models" not in added
        turf = {m for m in added if m == "turf" or m.startswith("turf.")}
        if command[0] in ("dse", "explore"):
            assert "subprocess" not in added
            # neither the exact Winograd algebra nor the inspection commands
            assert {"fractions", "decimal"}.isdisjoint(added)
            assert turf == DSE_MODULES | ({"turf.oracles"} if "--oracle" in command else set())
        else:
            assert "turf.inspection" in turf
            assert ("turf.chain" in turf) == (command[0] == "hw")

    def test_winograd_check_loads_numpy_and_runs(self, tmp_path):
        out = tmp_path / "report.json"
        added = _fresh_run(["winograd-check", "--trials", "3", "--out", str(out)])
        assert {"numpy", "turf.conv", "turf.kernels", "turf.inspection"} <= set(added)
        assert json.loads(out.read_text())["max_abs_deviation"] < 1e-9


# Makes the builtin SHA-256 modules unimportable, as on a CPython built
# without them, so that ``turf.cli`` falls back to ``hashlib``.
_NO_BUILTIN_SHA256 = """\
import sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
"""


class TestManifestDigests:
    """Each ``manifest.inputs`` value is the SHA-256 of the file's bytes,
    whether ``cli`` hashes with CPython's builtin module or falls back to
    ``hashlib``, which loads OpenSSL."""

    @pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
    @pytest.mark.parametrize("command", ["dse", "explore"])
    def test_inputs_are_their_sha256(self, workdir, command, builtin):
        data = ROOT / "src" / "turf" / "data"
        inputs = [str(workdir / "model.json"), str(data / "stratixv_5sgsd8.json"),
                  str(data / "alm_coefficients.json")]
        model, platform, calibration = inputs
        argv = {"dse": ["dse", model, "--block", "1"],
                "explore": ["explore", "--model", model, "--min-acc", "0.9",
                            "--max-latency-ms", "100", "--max-parallel", "16"]}[command]
        out = workdir / "report.json"
        added = _fresh_run(argv + ["--platform", platform, "--calibration", calibration,
                                   "--out", str(out)],
                           "" if builtin else _NO_BUILTIN_SHA256)
        assert ("_hashlib" in added) is not builtin
        assert json.loads(out.read_text())["manifest"]["inputs"] == {
            p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}


class TestDeterminism:
    def test_dse_reports_byte_identical(self, workdir):
        out = workdir / "report.json"
        args = ["dse", str(workdir / "model.json"), "--block", "1",
                "--seed", "9", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_explore_reports_byte_identical(self, workdir):
        out = workdir / "report.json"
        args = ["explore", "--model", str(workdir / "model.json"),
                "--min-acc", "0.9", "--max-latency-ms", "100",
                "--max-parallel", "16", "--seed", "9", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_env_seed_overrides_flag(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("TURF_SEED", "123")
        rc = main(["winograd-check", "--trials", "2", "--seed", "7"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["seed"] == 123


class TestStageIndex:
    @pytest.mark.parametrize("index", ["3", "-1"])
    @pytest.mark.parametrize("command", [
        ["simulate", "{model}", "--config", "{cfg}", "--block"],
        ["dse", "{model}", "--block"],
        ["hw", "describe", "{model}", "--config", "{cfg}", "--layer"],
    ])
    def test_out_of_range_exits_one_naming_the_range(self, workdir, capsys,
                                                     command, index):
        # the model has three stages; -1 used to pick the last one silently
        argv = [a.format(model=workdir / "model.json", cfg=workdir / "cfg.json")
                for a in command]
        assert main(argv + [index]) == 1
        err = capsys.readouterr().err
        assert err.startswith("UnsupportedConfig")
        assert f"{command[-1]} {index} is out of range" in err
        assert "0..2" in err


    @pytest.mark.parametrize("command", [
        ["simulate", "{model}", "--config", "{cfg}", "--block", "1"],
        ["dse", "{model}", "--block", "1"],
        ["hw", "describe", "{model}", "--config", "{cfg}", "--layer", "1"],
    ])
    def test_zero_cost_stage_exits_one(self, workdir, capsys, command):
        (workdir / "pool.json").write_text(json.dumps(POOL_MODEL_DOC))
        argv = [a.format(model=workdir / "pool.json", cfg=workdir / "cfg.json")
                for a in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("UnsupportedConfig: stage 1 (pool) has no hardware pipeline")


def _shipped_alm():
    doc = json.loads(importlib_resources.files("turf.data")
                     .joinpath("alm_coefficients.json").read_text())
    return doc["alm"]


class TestBadCalibration:
    """A malformed ALM table is rejected at load, naming the entry."""

    @pytest.mark.parametrize("alm,named", [
        ([], "[]"),
        (5, "5"),
        ({**_shipped_alm(), "LineBuffer": {"base": 60}}, "'LineBuffer'"),
        ({**_shipped_alm(), "InputBuffer": {"base": "40", "per_width": 6}}, "'InputBuffer'"),
        ({**_shipped_alm(), "DotProductArray": {"base": 80, "per_width": -18}},
         "'DotProductArray'"),
        # an OverflowError traceback from math.isfinite
        ({**_shipped_alm(), "LineBuffer": {"base": 10 ** 400, "per_width": 6}},
         "'LineBuffer'"),
    ], ids=["list", "number", "no-per-width", "string", "negative", "huge"])
    def test_exits_one_naming_the_entry(self, workdir, capsys, alm, named):
        (workdir / "cal.json").write_text(json.dumps({"alm": alm}))
        assert main(["dse", str(workdir / "model.json"),
                     "--calibration", str(workdir / "cal.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("CalibrationError: ")
        assert named in err and "Traceback" not in err


class TestUnwritableOutputs:
    """An output path in a missing directory exits 1 naming the OSError,
    with no traceback."""

    @pytest.mark.parametrize("argv", [
        ["dse", "{model}", "--out", "{absent}"],
        ["dse", "{model}", "--block", "1", "--csv", "{absent}"],
        ["simulate", "{model}", "--block", "1", "--config", "{cfg}", "--trace", "{absent}"],
    ], ids=["dse-out", "dse-csv", "simulate-trace"])
    def test_missing_directory(self, workdir, capsys, argv):
        absent = workdir / "absent" / "out.json"
        argv = [a.format(model=workdir / "model.json", cfg=workdir / "cfg.json",
                         absent=absent) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("FileNotFoundError: ")
        assert str(absent) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["dse", "{model}", "--block", "1", "--out", "{written}", "--csv", "{absent}"],
        ["simulate", "{model}", "--block", "1", "--config", "{cfg}",
         "--trace", "{written}", "--out", "{absent}"],
    ], ids=["dse-out-then-csv", "simulate-trace-then-out"])
    @pytest.mark.parametrize("existing", [None, "earlier run\n"], ids=["new", "existing"])
    def test_second_output_leaves_the_first_as_it_was(self, workdir, capsys, argv,
                                                      existing):
        """A command with two outputs writes neither when one cannot be
        opened: the other is not created, or keeps what it held."""
        written = workdir / "written.json"
        if existing is not None:
            written.write_text(existing)
        argv = [a.format(model=workdir / "model.json", cfg=workdir / "cfg.json",
                         written=written, absent=workdir / "absent" / "out")
                for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("FileNotFoundError: ")
        if existing is None:
            assert not written.exists()
        else:
            assert written.read_text() == existing

    @pytest.mark.parametrize("argv", [
        ["dse", "{model}", "--block", "1", "--out", "{x}", "--csv", "{alias}"],
        ["simulate", "{model}", "--block", "1", "--config", "{cfg}",
         "--out", "{x}", "--trace", "{alias}"],
    ], ids=["dse-out-csv", "simulate-out-trace"])
    @pytest.mark.parametrize("alias, existing", [
        ("same", None), ("same", "earlier run\n"), ("relative", None),
        ("relative", "earlier run\n"), ("link", "earlier run\n"),
    ], ids=["same-new", "same-existing", "relative-new", "relative-existing", "link-existing"])
    def test_two_outputs_naming_one_file(self, workdir, capsys, monkeypatch, argv, alias,
                                         existing):
        """Two outputs that name one file, by the same path, another path
        to it or a hard link to it, exit 1 naming UnsupportedConfig: the
        file is not created, or keeps what it held."""
        x = workdir / "x.out"
        if existing is not None:
            x.write_text(existing)
        monkeypatch.chdir(workdir)
        (workdir / "sub").mkdir()
        other = {"same": x, "relative": "sub/../x.out", "link": workdir / "link.out"}[alias]
        if alias == "link":
            os.link(x, other)
        argv = [a.format(model=workdir / "model.json", cfg=workdir / "cfg.json", x=x,
                         alias=other) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("UnsupportedConfig: ") and "name the same file" in err
        assert "Traceback" not in err
        if existing is None:
            assert not x.exists()
        else:
            assert x.read_text() == existing


class TestBadDocuments:
    """Unreadable or malformed input documents exit 1 naming InvalidDocument,
    and documents whose values are out of range the error that rejects them."""

    def _run(self, capsys, argv, error="InvalidDocument"):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{error}: ")
        assert "Traceback" not in err
        return err

    def test_missing_model_file(self, workdir, capsys):
        path = workdir / "absent.json"
        err = self._run(capsys, ["dse", str(path)])
        assert f"cannot read {path}" in err

    def test_malformed_model_json(self, workdir, capsys):
        (workdir / "broken.json").write_text('{"base": "vgg16",')
        err = self._run(capsys, ["model", "show", str(workdir / "broken.json")])
        assert "JSONDecodeError" in err

    def test_model_document_that_is_a_list(self, workdir, capsys):
        (workdir / "list.json").write_text(json.dumps([MODEL_DOC]))
        self._run(capsys, ["dse", str(workdir / "list.json")])

    @pytest.mark.parametrize("argv", [["model", "show"], ["dse"]])
    @pytest.mark.parametrize("field, value", [
        ("out_channels", "16"),     # a traceback from the op count
        ("kernel", 3.0),            # float op counts
        ("input", [8.0, 8, 4]),
        ("stride", True),
        ("padding", -5),
        ("bias", 1),
        ("name", 5),
    ])
    def test_model_value_of_the_wrong_type(self, tmp_path, capsys, argv, field, value):
        stage = {"input": [8, 8, 4], "kind": "StandardConv", "kernel": 3, "stride": 1,
                 "padding": 1, "out_channels": 16, field: value}
        (tmp_path / "model.json").write_text(json.dumps({"stages": [stage]}))
        err = self._run(capsys, argv + [str(tmp_path / "model.json"),
                                        "--out", str(tmp_path / "out.json")])
        assert field in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("out_channels", 10 ** 400),        # OverflowError tracebacks from total_gops
        ("input", [10 ** 200, 10 ** 200, 4]),
    ], ids=["out_channels-10**400", "input-10**200"])
    def test_model_integer_json_does_not_carry_exactly(self, tmp_path, capsys, field, value):
        stage = {"input": [8, 8, 4], "kind": "StandardConv", "kernel": 3, "stride": 1,
                 "padding": 1, "out_channels": 16, field: value}
        (tmp_path / "model.json").write_text(json.dumps({"stages": [stage]}))
        err = self._run(capsys, ["model", "show", str(tmp_path / "model.json"),
                                 "--out", str(tmp_path / "out.json")])
        assert field in err
        assert not (tmp_path / "out.json").exists()

    def test_model_dimensions_just_below_the_json_limit(self, tmp_path):
        n = 2 ** 53 - 1
        stage = {"input": [n, n, n], "kind": "StandardConv", "kernel": 3, "stride": 1,
                 "padding": 1, "out_channels": n}
        (tmp_path / "model.json").write_text(json.dumps({"stages": [stage]}))
        assert main(["model", "show", str(tmp_path / "model.json"),
                     "--out", str(tmp_path / "out.json")]) == 0
        doc = json.loads((tmp_path / "out.json").read_text(), parse_constant=_not_json)
        _validate(doc, "model_table.schema.json")
        assert doc["per_stage"][0]["ops"] == 2 * 9 * n ** 4

    @pytest.mark.parametrize("groups", [
        [[5]], [[-7]],              # IndexError tracebacks from replace_layer
        [["a"]], [[1.0]],           # TypeError tracebacks
        [[0], [0]],                 # a stage in two groups
    ])
    def test_model_groups_not_stage_indices(self, tmp_path, capsys, groups):
        stage = {"input": [8, 8, 4], "kind": "StandardConv", "kernel": 3, "stride": 1,
                 "padding": 1, "out_channels": 16}
        (tmp_path / "model.json").write_text(json.dumps({"stages": [stage],
                                                         "groups": groups}))
        err = self._run(capsys, ["explore", "--model", str(tmp_path / "model.json"),
                                 "--min-acc", "0", "--max-latency-ms", "100",
                                 "--out", str(tmp_path / "out.json")])
        assert "groups" in err
        assert not (tmp_path / "out.json").exists()

    def test_platform_without_dsp_total(self, workdir, capsys):
        platform = {"bandwidth_gbps": 38.0, "bram_blocks": 2567,
                    "alm_total": 262400, "clock_mhz": 200.0}
        (workdir / "platform.json").write_text(json.dumps(platform))
        err = self._run(capsys, ["dse", str(workdir / "model.json"),
                                 "--platform", str(workdir / "platform.json")])
        assert "dsp_total" in err

    @pytest.mark.parametrize("field, value", [
        ("bandwidth_gbps", float("nan")),   # compares false with any bound
        ("bandwidth_gbps", float("inf")),
        ("bandwidth_gbps", True),           # a bool is an int to Python
        ("clock_mhz", "200"),
        ("dsp_total", 1963.7),
        ("dsp_total", float("nan")),
        ("bram_blocks", False),
        ("alm_total", None),
        # OverflowError tracebacks from compute_roof_gops
        pytest.param("dsp_total", 10 ** 400, id="dsp_total-10**400"),
        pytest.param("bandwidth_gbps", 10 ** 400, id="bandwidth_gbps-10**400"),
    ])
    def test_platform_constant_not_a_finite_number(self, workdir, capsys, field, value):
        platform = {"bandwidth_gbps": 38.0, "dsp_total": 1963, "bram_blocks": 2567,
                    "alm_total": 262400, "clock_mhz": 200.0, field: value}
        (workdir / "platform.json").write_text(json.dumps(platform))
        err = self._run(capsys, ["dse", str(workdir / "model.json"),
                                 "--platform", str(workdir / "platform.json")])
        assert field in err

    @pytest.mark.parametrize("option, doc, error", [
        # a report with "latency_ms": Infinity, which is not JSON
        ("platform", {**STRATIX_V_5SGSD8.to_json(), "clock_mhz": 5e-324},
         "UnsupportedConfig"),
        # "compute_roof_gops": Infinity
        ("platform", {**STRATIX_V_5SGSD8.to_json(), "clock_mhz": 1e308},
         "UnsupportedConfig"),
        # an OverflowError traceback from rounding the ALM total
        ("calibration", {"alm": {kind.value: {"base": 1e308, "per_width": 1e308}
                                 for kind in ModuleKind}}, "CalibrationError"),
    ])
    def test_values_that_overflow_the_report(self, workdir, capsys, option, doc, error):
        (workdir / "doc.json").write_text(json.dumps(doc))
        self._run(capsys, ["dse", str(workdir / "model.json"), f"--{option}",
                           str(workdir / "doc.json"), "--out", str(workdir / "out.json"),
                           "--csv", str(workdir / "out.csv")], error)
        assert not (workdir / "out.json").exists()
        assert not (workdir / "out.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "hw"])
    def test_later_layer_tile_that_is_not_layer_zeros(self, tmp_path, capsys, res2_1_model,
                                                      command):
        """A ``layers`` config whose layer 1 tile disagrees with layer 0's
        (which the stride-1 layers keep) is a PortMismatch; it used to be
        dropped, and ``simulate`` reported 214,128 cycles."""
        doc = layers_form(json.loads(GOLDEN_CONFIG.read_text()))
        doc["layers"][1]["tile"] = [99, 7, 64, 64]
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        err = self._run(capsys, _config_argv(command, res2_1_model) + [
            "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out.json")],
            "PortMismatch")
        assert "layer 1: (T_h, T_w) = (99, 7) != (14, 14)" in err
        assert not (tmp_path / "out.json").exists()

    def test_later_layer_tile_that_ignores_a_stride(self, reference_models, tmp_path,
                                                    capsys):
        """Behind res3_1's stride-2 layer 0, a later tile repeating layer 0's
        (56, 56) is a PortMismatch."""
        _, doc = _res3_1_layers_config(lambda i: [56, 56])
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        err = self._run(capsys, ["simulate", str(reference_models / "resnet50.json"),
                                 "--block", "5", "--config", str(tmp_path / "cfg.json")],
                        "PortMismatch")
        assert "layer 1: (T_h, T_w) = (56, 56) != (28, 28)" in err

    def test_oracle_table_without_accuracy_column(self, workdir, capsys):
        (workdir / "table.csv").write_text("replacement_vector,acc\nO,0.9\n")
        err = self._run(capsys, ["explore", "--model", str(workdir / "model.json"),
                                 "--min-acc", "0.9", "--max-latency-ms", "100",
                                 "--oracle", f"table:{workdir / 'table.csv'}"])
        assert "accuracy" in err


class TestOracleErrors:
    def test_external_oracle_failure_exits_one(self, workdir, capsys):
        # every oracle failure raises OracleError (tests/test_explore.py)
        command = shlex.join([sys.executable, "-c", "import sys; sys.exit(3)"])
        rc = main(["explore", "--model", str(workdir / "model.json"),
                   "--min-acc", "0.9", "--max-latency-ms", "100",
                   "--oracle", f"external:{command}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("OracleError: ")
        assert "Traceback" not in err and command in err

    @pytest.mark.parametrize("command", ["", "   "], ids=["empty", "blank"])
    def test_external_oracle_with_no_command_exits_one(self, workdir, capsys, command):
        # shell-style splitting gives no words, so there is nothing to run
        rc = main(["explore", "--model", str(workdir / "model.json"),
                   "--min-acc", "0", "--min-gops", "1",
                   "--oracle", f"external:{command}", "--out", str(workdir / "explore.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("OracleError: ") and "no words" in err
        assert "Traceback" not in err
        assert not (workdir / "explore.json").exists()


    @pytest.mark.parametrize("accuracy", ["nan", "1.5"])
    def test_table_accuracy_outside_unit_interval_exits_one(self, workdir, capsys,
                                                             accuracy):
        # a NaN would make the report invalid JSON, 1.5 break its schema
        (workdir / "table.csv").write_text(
            f"replacement_vector,accuracy\nO,0.9\nS,{accuracy}\n")
        rc = main(["explore", "--model", str(workdir / "model.json"),
                   "--min-acc", "0.5", "--max-latency-ms", "100",
                   "--oracle", f"table:{workdir / 'table.csv'}",
                   "--out", str(workdir / "explore.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("OracleError: ")
        assert "Traceback" not in err and "'S'" in err
        assert not (workdir / "explore.json").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("value", ["0", "-4", "x"])
    @pytest.mark.parametrize("command", [
        ["dse", "{model}"],
        ["explore", "--model", "{model}", "--min-acc", "0.9",
         "--max-latency-ms", "100"],
    ])
    def test_max_parallel_below_one_exits_two(self, workdir, capsys, command,
                                              value):
        argv = [a.format(model=workdir / "model.json") for a in command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--max-parallel={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-parallel" in err and "expected an integer >= 1" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("option, others", [
        ("--min-acc", ["--max-latency-ms", "100"]),
        ("--min-gops", ["--min-acc", "0.9"]),
        ("--max-latency-ms", ["--min-acc", "0.9"]),
    ], ids=["min-acc", "min-gops", "max-latency-ms"])
    def test_non_finite_requirement_exits_two(self, workdir, capsys, option, others,
                                              value):
        # a report holding the requirement could not be written as JSON
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--model", str(workdir / "model.json"), *others,
                  f"{option}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert option in err and "expected a finite number" in err

    @pytest.mark.parametrize("targets", [
        [], ["--min-gops", "1", "--max-latency-ms", "100"],
    ], ids=["neither", "both"])
    def test_not_exactly_one_performance_target_exits_two(self, workdir, capsys,
                                                          targets):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--model", str(workdir / "model.json"),
                  "--min-acc", "0.5", *targets])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--min-gops" in err and "--max-latency-ms" in err

    @pytest.mark.parametrize("value", ["-0.1", "1.5", "2"])
    def test_min_acc_outside_unit_interval_exits_two(self, workdir, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--model", str(workdir / "model.json"),
                  "--max-latency-ms", "100", f"--min-acc={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--min-acc" in err and "expected a number in [0, 1]" in err

    @pytest.mark.parametrize("value", ["-5", "x"])
    def test_finetune_budget_below_zero_exits_two(self, workdir, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--model", str(workdir / "model.json"),
                  "--min-acc", "0.5", "--max-latency-ms", "100",
                  f"--finetune-budget={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--finetune-budget" in err and "expected an integer >= 0" in err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_turf_seed_not_a_seed_exits_two(self, capsys, monkeypatch, value):
        # numpy takes no negative seed
        monkeypatch.setenv("TURF_SEED", value)
        with pytest.raises(SystemExit) as exc:
            main(["winograd-check", "--trials", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "TURF_SEED" in err and "expected an integer >= 0" in err

    def test_negative_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["winograd-check", "--trials", "2", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_grid_depth_below_one_exits_two(self, workdir, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["dse", str(workdir / "model.json"), f"--grid-depth={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--grid-depth" in err and "expected an integer >= 1" in err

    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    def test_trials_below_one_exits_two(self, capsys, value):
        # a check with no trial would pass with a deviation of 0.0
        with pytest.raises(SystemExit) as exc:
            main(["winograd-check", f"--trials={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--trials" in err and "expected an integer >= 1" in err

    def test_unknown_subcommand_exits_two(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "turf.cli", "nonsense"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_python_m_turf_prints_help(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "turf", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: turf ")

    def test_console_script_installed(self):
        """The declared ``turf`` script prints the tool's help and exits 0.

        The entry point is read from ``pyproject.toml`` and called the way
        the generated console-script wrapper calls it, so the check runs from
        a source tree too; an installed ``turf`` on PATH is checked as well.
        """
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["turf"]
        module, attr = target.split(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'turf'; sys.exit({attr}())")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        runs = [([sys.executable, "-c", wrapper, "--help"], env)]
        if installed := shutil.which("turf"):
            runs.append(([installed, "--help"], None))
        for command, run_env in runs:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  env=run_env)
            assert proc.returncode == 0, proc.stderr
            # argparse prints the usage block, then the parser's description;
            # the dse subcommand's help also says "design-space exploration".
            usage, _, rest = proc.stdout.partition("\n\n")
            assert usage.startswith("usage: turf ")
            assert "design-space exploration" in rest.partition("\n\n")[0]


class TestOneCommandParser:
    """``main`` builds only the parser of the command it runs.  That parser
    prints the same help and usage errors as the full one, with the same
    exit codes."""

    @staticmethod
    def _parse(parser, argv):
        """(exit code, stdout, stderr) of parsing ``argv``; the code is None
        when the arguments parse (``winograd-check`` requires none)."""
        out, err, code = io.StringIO(), io.StringIO(), None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                parser.parse_args(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["model"], ["model", "show"], ["hw"], ["hw", "describe"], ["simulate"],
        ["dse"], ["explore"], ["winograd-check"],
    ], ids=" ".join)
    @pytest.mark.parametrize("tail", [
        ["--help"], [], ["m.json", "--bogus"], ["--seed", "-1"],
    ], ids=["help", "missing", "unrecognized", "bad-seed"])
    def test_same_output_and_exit_code_as_the_full_parser(self, argv, tail):
        from turf.cli import build_parser
        full = self._parse(build_parser(), argv + tail)
        assert self._parse(build_parser(argv[0]), argv + tail) == full
        assert full[0] in (0, 2) and (full[1] or full[2]) or full == (None, "", "")

    def test_dse_builds_one_subparser(self, workdir, monkeypatch):
        import argparse
        built = []
        add_parser = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda self, name, **kw: built.append(name)
                            or add_parser(self, name, **kw))
        assert main(["dse", str(workdir / "model.json"), "--block", "1",
                     "--out", str(workdir / "dse.json")]) == 0
        assert built == ["dse"]
