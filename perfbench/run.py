"""Benchmark of the turf CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload dse-resnet50 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 [--record out.json]

Each timed run is ``turf.cli.main(argv)`` in a fresh interpreter, one at a
time, because the DSE memoises stage designs in a process-wide cache that a
second in-process run would hit; every CLI user pays the cold cost.

``--trace 0`` reports the end-to-end metrics:
  run_s         median time of main(argv) (input loading, DSE/explore,
                report emission), over as many runs as fit in --seconds
  setup_s       median time a fresh interpreter takes to import turf.cli and
                load the workload's model, platform and calibration, over
                SETUP_REPEATS interpreters (after one warm-up that fills the
                bytecode cache)
  peak_rss_mib  median peak resident memory of the run process
Both times are in reference seconds: the wall time multiplied by
CAL_REF_S / cal_s, where cal_s is what one sample of a fixed reference
workload took in the same process, on average over samples taken before,
during and after the timed step (child.py).  The host is shared, and its
speed drifts by tens of percent within minutes; the rescaled times do not.
The raw wall times are printed beside them.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of spans.py, with the tracing overhead (traced over untraced run_s).

Every report is checked: exit code 0, no traceback, valid against its
shipped schema, a selected design, and the same bytes (manifest aside) as
the workload's other runs.  A run that fails a check counts in ``failed``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, layer_metrics, self_time_table
from workloads import WORKLOADS, check_run, make_validator, mark_disagreeing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SCHEMAS = ROOT / "src" / "turf" / "schemas"

SETUP_REPEATS = 5
CAL_REF_S = 0.005  # one reference-workload sample at the reference host speed
DEADLINE_S = 170.0  # a benchmark run ends within 180 s
SOURCE_DATE_EPOCH = "0"

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_ratio": "ratio",
             "host.cal_s": "s", "host.run_wall_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to turf failing a check)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TURF_SEED", None)
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Bench:
    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.began = time.perf_counter()
        self.env = _child_env()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.began)

    def child(self, args: list[str]) -> tuple[int, str, str, float]:
        """Run child.py to completion: (exit code, stdout, stderr, wall s)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:
            # subprocess.run has killed the child and waited for it
            return -9, "", f"timed out after {exc.timeout:.0f} s", \
                time.perf_counter() - start
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start

    def prepare(self) -> list[dict]:
        """Write the inputs and time set-up; returns the set-up samples."""
        WORK.mkdir(exist_ok=True)
        self.model_path = WORK / f"{self.wl.model}.json"
        rc, _, err, _ = self.child(["inputs", self.wl.model, str(self.model_path)])
        if rc != 0:
            raise BenchError(f"writing the {self.wl.model} model failed:\n{err}")
        try:
            self.validator = make_validator(SCHEMAS, self.wl.schema)
        except ImportError:
            raise BenchError("the jsonschema package is required") from None
        times = []
        for i in range(SETUP_REPEATS + 1):
            rc, out, err, _ = self.child(["setup", str(self.model_path)])
            if rc != 0:
                raise BenchError(f"set-up failed:\n{err}")
            if i:  # the first one fills the bytecode cache
                times.append(json.loads(out.splitlines()[-1]))
        return times

    def run(self, traced: bool) -> dict:
        """One turf run in a fresh interpreter, checked."""
        out = WORK / f"{self.wl.name}.report.json"
        spans_path = WORK / f"{self.wl.name}.spans.json"
        for p in (out, spans_path):
            p.unlink(missing_ok=True)
        argv = self.wl.argv(str(self.model_path), str(out), self.seed)
        rc, stdout, stderr, wall = self.child(
            ["run", str(spans_path) if traced else "-", "--", *argv])
        timing = None
        if rc == 0 and stdout.strip():
            timing = json.loads(stdout.splitlines()[-1])
        report = out.read_text() if out.exists() else None
        problems, design = check_run(self.wl, self.validator,
                                     timing["rc"] if timing else rc, stderr, report)
        if timing is None and rc == 0:
            problems, design = problems + ["no timing line from the child"], None
        run = {"problems": problems, "design": design, "wall": wall,
               "timing": timing, "stderr": stderr}
        if traced and timing:
            with open(spans_path) as fh:
                spans = json.load(fh)
            run["layers"] = layer_metrics(spans)
            run["table"] = self_time_table(spans)
        return run

    def fits(self, started: float, seconds: float, typical: float) -> bool:
        """Whether another step of ``typical`` seconds fits the run."""
        elapsed = time.perf_counter() - started
        return elapsed + typical <= seconds and typical * 1.5 < self.remaining()


def _median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r["timing"][key] for r in runs)


def _ref_s(samples: list[dict], key: str) -> float:
    """Median of ``key`` over the samples, each in reference seconds."""
    return statistics.median(s[key] * CAL_REF_S / s["cal_s"] for s in samples)


def _ok(runs: list[dict]) -> list[dict]:
    return [r for r in runs if not r["problems"]]


def bench_untraced(b: Bench, seconds: float) -> dict:
    setup = b.prepare()
    runs = []
    started = time.perf_counter()
    while True:
        runs.append(b.run(traced=False))
        if not b.fits(started, seconds, statistics.median(r["wall"] for r in runs)):
            break
    mark_disagreeing(runs)
    ok = _ok(runs)
    metrics = {"setup_s": _ref_s(setup, "setup_s")}
    raw = {"setup_wall_s": statistics.median(s["setup_s"] for s in setup)}
    if ok:
        timings = [r["timing"] for r in ok]
        metrics["run_s"] = _ref_s(timings, "run_s")
        metrics["peak_rss_mib"] = _median_of(ok, "peak_rss_mib")
        raw["run_wall_s"] = _median_of(ok, "run_s")
        raw["cal_s"] = _median_of(ok, "cal_s")
    return {"runs": runs, "metrics": metrics, "raw": raw,
            "samples": {"run_s": len(ok), "setup_s": len(setup),
                        "peak_rss_mib": len(ok)},
            "units": END_TO_END}


def bench_traced(b: Bench, seconds: float) -> dict:
    b.prepare()
    runs = []
    started = time.perf_counter()
    while True:
        for traced in (False, True):
            run = b.run(traced)
            run["traced"] = traced
            runs.append(run)
        pair_s = statistics.median(runs[i]["wall"] + runs[i + 1]["wall"]
                                   for i in range(0, len(runs), 2))
        if not b.fits(started, seconds, pair_s):
            break
    # the wrappers must not change any result: traced reports join the vote
    mark_disagreeing(runs)
    plain = [r for r in _ok(runs) if not r["traced"]]
    traced = [r for r in _ok(runs) if r["traced"]]
    metrics = {}
    if traced:
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in LAYER_METRICS}
        if plain:
            plain_t = [r["timing"] for r in plain]
            metrics["trace.overhead_ratio"] = (
                _ref_s([r["timing"] for r in traced], "run_s")
                / _ref_s(plain_t, "run_s"))
            metrics["host.cal_s"] = statistics.median(t["cal_s"] for t in plain_t)
            metrics["host.run_wall_s"] = statistics.median(t["run_s"] for t in plain_t)
    return {"runs": runs, "metrics": metrics, "raw": {},
            "samples": {k: len(traced) for k in metrics},
            "units": PER_LAYER, "table": traced[0]["table"] if traced else []}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    b = Bench(workload, seed)
    res = (bench_traced if trace else bench_untraced)(b, seconds)
    runs = res["runs"]
    failed = sum(1 for r in runs if r["problems"])
    expected = PER_LAYER if trace else END_TO_END
    res["correct"] = failed == 0 and set(res["metrics"]) == set(expected)
    res["attempted"] = len(runs)
    res["failed"] = failed
    res["design"] = next((r["design"] for r in runs if r["design"]), None)
    return res


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]}
                    for k, v in res["metrics"].items()}})


def describe(name: str, res: dict) -> list[str]:
    lines = [f"[{name}] attempted {res['attempted']}, failed {res['failed']} "
             f"(failed_frac {res['failed'] / res['attempted']:.3f})"]
    for r in res["runs"]:
        if r["problems"]:
            lines.append(f"  failed run: {'; '.join(r['problems'])}")
            lines += [f"    {l}" for l in r["stderr"].strip().splitlines()[-5:]]
    for k, v in res["metrics"].items():
        lines.append(f"  {k:<38} {v:>14.6g} {res['units'][k]:<6} "
                     f"median of {res['samples'][k]}")
    for k, v in res["raw"].items():
        lines.append(f"  {k:<38} {v:>14.6g} s      (raw, not rescaled)")
    if res.get("table"):
        total = res["metrics"].get("trace.run_s") or 1.0
        lines.append("  self time by span (first traced run):")
        for span, calls, self_s in res["table"]:
            lines.append(f"    {span:<40} {calls:>8} calls {self_s:>9.4f} s "
                         f"{100 * self_s / total:5.1f}%")
    if res["design"]:
        lines.append(f"  design: {json.dumps(res['design'], sort_keys=True)}")
    return lines


def run_all(seed: int, seconds: float, record: str | None) -> int:
    doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "seconds": seconds, "seed": seed, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (False, True):
            res = bench(name, seed, seconds, trace)
            print("\n".join(describe(f"{name} trace={int(trace)}", res)), flush=True)
            entry["trace" if trace else "end_to_end"] = {
                "correct": res["correct"], "attempted": res["attempted"],
                "failed_frac": res["failed"] / res["attempted"], "raw": res["raw"],
                "metrics": {k: {"median": v, "unit": res["units"][k],
                                "samples": res["samples"][k]}
                            for k, v in res["metrics"].items()}}
            entry["design"] = res["design"]
        doc["workloads"][name] = entry
    print(f"\n{'workload':<18} {'metric':<14} {'unit':<5} {'median':>12} samples")
    for name, entry in doc["workloads"].items():
        e2e = entry["end_to_end"]
        for k, m in e2e["metrics"].items():
            print(f"{name:<18} {k:<14} {m['unit']:<5} {m['median']:>12.6g} {m['samples']:>7}")
        print(f"{name:<18} {'failed_frac':<14} {'1':<5} {e2e['failed_frac']:>12.6g} "
              f"{e2e['attempted']:>7}")
    if record:
        with open(record, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(e[m]["correct"] for e in doc["workloads"].values()
                    for m in ("end_to_end", "trace")) else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="with --workload all: write the results here")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "turf" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no turf sources under {ROOT / 'src'}\n")
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.record)
        res = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print("\n".join(describe(args.workload, res)))
    print(result_line(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
