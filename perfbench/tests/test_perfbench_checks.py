"""Report checks: every bad run is counted as failed."""

import json
import sys
from pathlib import Path

import pytest

pytest.importorskip("jsonschema")
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench_run  # noqa: E402
import workloads as wls  # noqa: E402
from turf.cli import main as turf_main  # noqa: E402

SCHEMAS = Path(bench_run.__file__).resolve().parents[1] / "src" / "turf" / "schemas"
DSE = wls.WORKLOADS["dse-vgg16"]

SMALL_MODEL = {
    "base": "Custom",
    "stages": [
        {"name": "c1", "input": [16, 16, 8], "kind": "StandardConv",
         "kernel": 3, "stride": 1, "padding": 1, "out_channels": 16},
        {"name": "fc", "input": [16, 16, 16], "kind": "FullyConnected",
         "out_channels": 10, "bias": True},
    ],
    "groups": [[0]],
    "replacements": ["ORIGIN"],
}


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    """A real `turf dse` report on a small model."""
    d = tmp_path_factory.mktemp("report")
    (d / "model.json").write_text(json.dumps(SMALL_MODEL))
    assert turf_main(["dse", str(d / "model.json"), "--out", str(d / "r.json")]) == 0
    return (d / "r.json").read_text()


@pytest.fixture(scope="module")
def validator():
    return wls.make_validator(SCHEMAS, DSE.schema)


def test_valid_report_passes(report_text, validator):
    problems, design = wls.check_run(DSE, validator, 0, "", report_text)
    assert problems == []
    assert design["total_cycles"] > 0
    assert design["sha256_without_manifest"] == \
        wls.report_digest(json.loads(report_text))


def test_digest_ignores_manifest(report_text):
    doc = json.loads(report_text)
    other = dict(doc, manifest=dict(doc["manifest"], seed=99))
    assert wls.report_digest(doc) == wls.report_digest(other)
    other["selected"] = dict(doc["selected"], dsp=doc["selected"]["dsp"] + 1)
    assert wls.report_digest(doc) != wls.report_digest(other)


@pytest.mark.parametrize("rc, stderr, mutate, expect", [
    (1, "TurfError: boom\n", None, "exit code 1"),
    (0, "Traceback (most recent call last):\n", None, "traceback"),
    (0, "", lambda t: t[: len(t) // 2], "not JSON"),
    (0, "", lambda t: None, "no report"),
    (0, "", lambda t: json.dumps({k: v for k, v in json.loads(t).items()
                                  if k != "selected"}), "schema"),
    (0, "", lambda t: t.replace('"tool": "turf"', '"tool": "other"'), "schema"),
])
def test_bad_runs_have_problems(report_text, validator, rc, stderr, mutate, expect):
    text = mutate(report_text) if mutate else report_text
    problems, design = wls.check_run(DSE, validator, rc, stderr, text)
    assert any(expect in p for p in problems), problems


def test_disagreeing_report_is_marked(report_text, validator):
    runs = []
    for dsp_delta in (0, 0, 1):
        doc = json.loads(report_text)
        doc["selected"]["dsp"] += dsp_delta
        problems, design = wls.check_run(DSE, validator, 0, "", json.dumps(doc))
        runs.append({"problems": problems, "design": design})
    wls.mark_disagreeing(runs)
    assert [bool(r["problems"]) for r in runs] == [False, False, True]


class FakeChild:
    """Stands in for child.py: writes the given report for each turf run."""

    def __init__(self, reports, spans=None):
        self.reports = list(reports)
        self.spans = spans or [["cli.main", -1, 0.0, 1.0, None, None]]

    def __call__(self, args):
        if args[0] == "inputs":
            return 0, "", "", 0.1
        if args[0] == "setup":
            return 0, json.dumps({"setup_s": 0.25, "cal_s": 0.01}) + "\n", "", 0.4
        spans_path, argv = args[1], args[3:]
        text = self.reports.pop(0)
        if text is not None:
            Path(argv[argv.index("--out") + 1]).write_text(text)
        if spans_path != "-":
            Path(spans_path).write_text(json.dumps(self.spans))
        timing = {"rc": 0, "run_s": 0.5, "cal_s": 0.0025, "peak_rss_mib": 30.0}
        return 0, json.dumps(timing) + "\n", "", 0.6


@pytest.fixture
def fake_bench(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_run, "WORK", tmp_path)

    def install(child):
        monkeypatch.setattr(bench_run.Bench, "child", child)
    return install


def test_corrupted_report_counts_as_failed(fake_bench, report_text):
    fake_bench(FakeChild([report_text[:100]]))
    res = bench_run.bench("dse-vgg16", seed=1, seconds=0, trace=False)
    assert (res["attempted"], res["failed"], res["correct"]) == (1, 1, False)
    line = json.loads(bench_run.result_line(res))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["failed"] == 1


def test_schema_invalid_report_counts_as_failed(fake_bench, report_text):
    doc = json.loads(report_text)
    del doc["platform"]
    fake_bench(FakeChild([json.dumps(doc)]))
    res = bench_run.bench("dse-vgg16", seed=1, seconds=0, trace=False)
    assert (res["attempted"], res["failed"], res["correct"]) == (1, 1, False)


def test_valid_run_reports_end_to_end_metrics(fake_bench, report_text):
    fake_bench(FakeChild([report_text]))
    res = bench_run.bench("dse-vgg16", seed=1, seconds=0, trace=False)
    assert (res["attempted"], res["failed"], res["correct"]) == (1, 0, True)
    # times are rescaled to the reference host speed: a calibration loop
    # twice as slow as the reference halves them, twice as fast doubles them
    assert res["metrics"] == pytest.approx(
        {"setup_s": 0.125, "run_s": 1.0, "peak_rss_mib": 30.0})
    assert res["raw"] == pytest.approx(
        {"setup_wall_s": 0.25, "run_wall_s": 0.5, "cal_s": 0.0025})


def test_traced_report_must_match_untraced(fake_bench, report_text):
    doc = json.loads(report_text)
    doc["selected"]["alm"] += 1
    fake_bench(FakeChild([report_text, json.dumps(doc)]))
    res = bench_run.bench("dse-vgg16", seed=1, seconds=0, trace=True)
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, False)

    fake_bench(FakeChild([report_text, report_text]))
    res = bench_run.bench("dse-vgg16", seed=1, seconds=0, trace=True)
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 0, True)
    assert set(res["metrics"]) == set(bench_run.PER_LAYER)
    assert res["metrics"]["trace.overhead_ratio"] == pytest.approx(1.0)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    assert bench_run.main(["--workload", "dse-vgg16", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
