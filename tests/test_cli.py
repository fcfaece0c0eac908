"""CLI surface: subcommands, exit codes, schema-valid reports, determinism."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources as importlib_resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from turf.cli import main

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


def _validate(doc, schema_name):
    jsonschema.validate(doc, _inline_file_refs(_load_schema(schema_name)))


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

    def test_port_mismatch_exits_one_with_name(self, workdir, capsys):
        rc = main(["simulate", str(workdir / "model.json"), "--block", "1",
                   "--config", str(workdir / "bad.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("PortMismatch")


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

    def test_unknown_subcommand_exits_two(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "turf.cli", "nonsense"],
            capture_output=True, text=True)
        assert proc.returncode == 2

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
