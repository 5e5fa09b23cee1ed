"""One benchmark process: a `chacon` command or a pass of library queries.

    python3 perfbench/child.py RESULT [--spans SPANS] cli ARG...
    python3 perfbench/child.py RESULT [--spans SPANS] probe QUERIES

`cli` runs `chaconlab.cli.main(ARG...)` exactly as the `chacon` entry point
does, printing to this process's stdout.  `probe` runs the library queries
listed in the QUERIES JSON file and times each one.  RESULT receives a JSON
object with the exit code, peak RSS, the median CPU-speed probe time,
per-query results and latencies, and, with --spans, the traced per-layer
summary; SPANS receives the raw spans.  Each process starts cold, as every
real invocation does.
"""

import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# CPU speed probe.  Every SPEED_PERIOD_S of this process's CPU time a signal
# handler times a fixed scrap of interpreted work, so the speed of the CPU
# is sampled throughout the run, interleaved with the work it is running.
SPEED_PERIOD_S = 0.005
_speed: list[float] = []


def _speed_probe(signum, frame) -> None:
    t0 = time.perf_counter()
    acc = 0
    for i in range(300):
        acc += i * i % 7
    _speed.append(time.perf_counter() - t0)


def start_speed_probe() -> None:
    signal.signal(signal.SIGPROF, _speed_probe)
    signal.setitimer(signal.ITIMER_PROF, SPEED_PERIOD_S, SPEED_PERIOD_S)


def run_cli(argv: list[str]) -> tuple[int, dict]:
    from chaconlab import cli
    rc = cli.main(argv)
    sys.stdout.flush()
    return rc, {}


def run_probe(path: str) -> tuple[int, dict]:
    from fractions import Fraction

    from chaconlab import correlation, tower
    from chaconlab.triadic import TriadicRational

    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    clock = time.perf_counter
    corr_vals, corr_ms = [], []
    for k, n in spec["corr"]:
        t0 = clock()
        c = correlation.autocorrelation(k, n)
        corr_ms.append((clock() - t0) * 1e3)
        corr_vals.append(str(c))
    cell_vals = []
    for k, cells_a, cells_b, n in spec["cells"]:
        cell_vals.append(str(correlation.cell_correlation(cells_a, cells_b, k, n)))
    point_vals, point_ms = [], []
    for num, den, m, k in spec["points"]:
        t0 = clock()
        x = TriadicRational.from_fraction(Fraction(num, den))
        y = tower.apply_T_power(x, m)
        back = tower.apply_T_power(y, -m)
        addr = tower.locate(x, k)
        point_ms.append((clock() - t0) * 1e3)
        point_vals.append([str(y), str(back), addr.level, str(addr.offset)])
    return 0, {"corr": corr_vals, "corr_ms": corr_ms, "cells": cell_vals,
               "points": point_vals, "point_ms": point_ms}


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  VmHWM starts afresh at
    exec; ru_maxrss would also count the parent's pages, which exec inherits
    as a high-water mark."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    start_speed_probe()
    args = sys.argv[1:]
    result_path = args.pop(0)
    spans_path = None
    if args[0] == "--spans":
        args.pop(0)
        spans_path = args.pop(0)
    mode = args.pop(0)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    rec = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer
        rec = tracer.install()
    result: dict = {}
    rc = 1
    try:
        if mode == "cli":
            rc, result = run_cli(args)
        elif mode == "probe":
            rc, result = run_probe(args[0])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if rec is not None:
            import gc
            gc.callbacks.remove(rec.on_gc)
            t0 = time.perf_counter()
            result["trace"] = rec.summary(tracer.support_entries(rec))
            rec.write_spans(spans_path)
            result["trace"]["write_s"] = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        result["speed_samples"] = len(_speed)
        result["speed_unit_s"] = sorted(_speed)[len(_speed) // 2] if _speed else None
        result["rc"] = rc
        result["maxrss_kb"] = peak_rss_kb()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
