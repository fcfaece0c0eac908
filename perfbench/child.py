"""One benchmark step in a fresh interpreter; ``run.py`` starts it.

    child.py inputs <model-name> <path>     write a reference model as JSON
    child.py setup <model.json>             import turf.cli, load the inputs
    child.py run <spans|-> -- <turf args>   time turf.cli.main(args)

``setup`` prints the seconds the import and loads took; ``run`` prints
main's return code, its wall time and the process's peak resident memory
(``VmHWM``).  Given a spans path instead of ``-``, ``run`` traces the call
(see spans.py) and writes the spans there afterwards.

Both also print ``cal_s``, which measures how fast the shared host runs
while they do: the time one sample of a fixed reference workload takes at
the average speed seen by samples taken before, during (on a timer) and
after the timed step.  Time spent in samples during the step is left out of
its wall time.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time

PROBE_STEPS = 5_000    # one sample: about 5 ms on a quiet 2.1 GHz Xeon vCPU
PROBE_EDGE = 10        # samples taken before and after the timed step
PROBE_PERIOD_S = 0.2   # sampling period during the timed step


def _reference_work(steps: int) -> int:
    """A fixed pure-Python workload shaped like the DSE's inner loops: small
    tuples compared and stored, list slots tested for None, integer math."""
    ready = [None] * 64
    total = 0
    for step in range(steps):
        best = None
        for i in range(4):
            t = (step * 7 + i * 13) % 101
            if ready[(step + i) % 64] is None and (best is None or (t, i) < best):
                best = (t, i)
        ready[step % 64] = best
        if step % 3 == 0:
            ready[(step * 5) % 64] = None
        total += best[0] if best else 1
    return total


class SpeedProbe:
    """Times samples of the reference workload around and during a step."""

    def __init__(self):
        self.samples: list[float] = []
        self.during_s = 0.0  # time the step lost to samples taken during it

    def _sample(self) -> None:
        start = time.perf_counter()
        _reference_work(PROBE_STEPS)
        self.samples.append(time.perf_counter() - start)

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.during_s += time.perf_counter() - start

    def time(self, step, *args):
        """(step's result, its wall seconds less the sampling inside it)."""
        for _ in range(PROBE_EDGE):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = step(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(PROBE_EDGE):
            self._sample()
        return result, elapsed - self.during_s

    def cal_s(self) -> float:
        """One sample's duration at the mean speed over all samples."""
        return 1 / statistics.fmean(1 / s for s in self.samples)


def peak_rss_mib() -> float:
    """This process's peak resident memory.  getrusage's ru_maxrss is not
    used: it keeps the parent's peak across fork and exec, so it would read
    the benchmark driver's memory whenever that is the larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_inputs(model_name: str, path: str) -> None:
    from turf.ir import model_to_json
    from turf.models import build_reference_model

    with open(path, "w") as fh:
        json.dump(model_to_json(build_reference_model(model_name)), fh)


def _load(model_path: str) -> None:
    import turf.cli  # noqa: F401  (the import is part of what is timed)
    from turf.ir import load_model
    from turf.resources import load_calibration, load_platform

    load_model(model_path)
    load_platform(None)
    load_calibration(None)


def setup(model_path: str) -> None:
    probe = SpeedProbe()
    _, setup_s = probe.time(_load, model_path)
    print(json.dumps({"setup_s": setup_s, "cal_s": probe.cal_s()}))


def run(spans_path: str, argv: list[str]) -> None:
    import turf.cli

    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    rc, run_s = probe.time(turf.cli.main, argv)
    peak_mib = peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    print(json.dumps({"rc": rc, "run_s": run_s, "cal_s": probe.cal_s(),
                      "peak_rss_mib": peak_mib}))


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "inputs" and len(argv) == 3:
        write_inputs(argv[1], argv[2])
    elif mode == "setup" and len(argv) == 2:
        setup(argv[1])
    elif mode == "run" and len(argv) >= 3 and argv[2] == "--":
        run(argv[1], argv[3:])
    else:
        sys.stderr.write(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
