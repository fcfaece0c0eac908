"""The host-speed probe around a timed step."""

import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import child  # noqa: E402


def test_probe_samples_during_the_step_and_leaves_them_out():
    def step(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    probe = child.SpeedProbe()
    start = time.perf_counter()
    result, net = probe.time(step, 1.0)
    assert result == "done"
    during = len(probe.samples) - 2 * child.PROBE_EDGE
    assert during >= 3  # one sample per PROBE_PERIOD_S while the step ran
    assert probe.during_s > 0
    # the step ran for 1 s of wall time, samples taken during it included
    assert abs(net + probe.during_s - 1.0) < 0.05
    assert time.perf_counter() - start > net + probe.during_s
    assert min(probe.samples) <= probe.cal_s() <= max(probe.samples)


def test_peak_rss_is_this_process_not_its_parent():
    """A child of a process with a large heap reports its own, smaller peak."""
    script = (
        "import subprocess, sys\n"
        "heap = bytearray(96 * 1024 * 1024)\n"
        "heap[::4096] = b'x' * len(heap[::4096])\n"
        "code = 'import child; print(child.peak_rss_mib())'\n"
        "out = subprocess.run([sys.executable, '-c', code], capture_output=True,\n"
        "                     text=True, check=True).stdout\n"
        "print(out.strip())\n")
    here = str(Path(child.__file__).resolve().parent)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, cwd=here).stdout
    assert float(out) < 64
