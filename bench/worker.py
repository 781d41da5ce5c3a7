"""Run one ``wnc`` CLI call in this fresh interpreter and report it.

The parent writes a JSON spec to stdin: ``argv`` for ``wnc.cli.main``,
``mode`` (``plain``, ``trace`` or ``memory``) and, for classify calls,
``sample``: (a, b) pairs whose add and mul entries of the built ring are read
back after the clock stops.  This process prints one JSON line.  Set-up ends
when ``import wnc.cli`` returns; the parent measures it from spawn to
``ready`` on the shared monotonic clock.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import wnc.cli  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

from tracer import BuildPeak, Tracer  # noqa: E402


def _peak_rss_kb() -> int:
    """High-water resident set of this process (VmHWM, in kB)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    spec = json.loads(sys.stdin.read())
    report: dict = {"ready": READY}
    run = wnc.cli.main
    tracer = peak = None
    if spec["mode"] == "trace":
        tracer = Tracer()
        run = tracer.install()
    elif spec["mode"] == "memory":
        peak = BuildPeak()
        peak.install()
    built = []
    if spec.get("sample") is not None:
        build_text = wnc.cli.build_text

        def capture(text, budget=None):
            ring = build_text(text, budget)
            built.append(ring)
            return ring
        wnc.cli.build_text = capture

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            report["exit"] = run(spec["argv"])
    except Exception:  # an uncaught error is the outcome being measured
        report["exit"] = None
        err.write(traceback.format_exc())
    report["main_s"] = time.perf_counter() - start
    report["peak_rss_kb"] = _peak_rss_kb()
    report["stdout"] = out.getvalue()
    report["stderr"] = err.getvalue()

    if built:
        ring = built[-1]
        report["order"] = ring.order
        report["sample"] = [
            [int(ring.add[a, b]), int(ring.mul[a, b])] if max(a, b) < ring.order else None
            for a, b in spec["sample"]
        ]
    if tracer is not None:
        report["self_s"] = tracer.self_times()
        report["counts"] = dict(tracer.counts)
    if peak is not None:
        report["build_peak_bytes"] = peak.peak_bytes
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
