"""chaconlab benchmark: seeded workloads, end-to-end timings, traced layers.

    python3 perfbench/run.py --workload series|probe|exceptional|verify|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ../src of this file.  The load
is closed-loop from this one client process: each command or query starts
only after the previous one returns, and at most one child process runs at
a time.

--trace 0 measures, with tracing off, `setup_s` (median cold start of a
trivial command: interpreter start, import, parser build), `pass_s` (median
time of one full pass of the workload) and `peak_rss_mb` (median over
passes of the largest peak RSS of a pass's processes).  Times are the CPU
time of the pass's processes rescaled to a reference CPU speed, which each
child samples while it runs (see SPEED_REF_S); the raw wall-time medians are
printed and recorded beside them.  The report also gives fail_frac and, for
probe, the query latency percentiles.

--trace 1 runs some passes untraced and then traced passes in which
perfbench/tracer.py wraps the package's public functions, and reports
per-layer counts and self times.  The whole program runs on one thread, so
no layer waits on another and there are no wait metrics.

Every output is checked after timing (perfbench/checks.py), every pass must
reproduce the first pass byte for byte, and the checkers' self-test must
catch its corrupted outputs.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A run record with the input
sizes, samples and environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from tracer import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_ARGV = ["dl", "--k", "1", "--l", "0"]
SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_UNTRACED_IN_TRACE = 2
UNTRACED_SHARE_IN_TRACE = 0.4
CHILD_TIMEOUT_S = 60
# The measuring loops start no pass expected to end past this, even short of
# the minimum pass count, so that a run of a much slower program still ends
# well within 180 s.
MEASURE_LIMIT_S = 100
# Children cache byte code, as an installed package does, so only the first
# start after a change compiles; the untimed warm-up start pays for it.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

# CPU speed reference.  The machine's speed drifts (co-tenants slow the same
# code by up to ~1.6x, in stretches from under a second to tens of seconds),
# so each child samples its own CPU speed while it runs (child.py) and its
# CPU time is rescaled to the speed at which the probe's scrap of work takes
# SPEED_REF_S.  CPU time rather than wall time, so that time-sharing the CPU
# with another process does not count either.
SPEED_REF_S = 20e-6


# ---------------------------------------------------------------------------
# child processes

def run_child(mode: str, args: list[str], workdir: str, spans: str | None = None):
    """Run one child to completion; return (Output, wall seconds, CPU seconds
    at reference speed)."""
    from workloads import Output
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path]
    if spans:
        cmd += ["--spans", spans]
    cmd += [mode] + args
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
                            env=CHILD_ENV)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime
    result: dict = {}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
    if proc.returncode != 0:
        sys.stderr.write(f"child {mode} {' '.join(args)} exited {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}\n")
    unit = result.get("speed_unit_s")
    scaled = cpu * SPEED_REF_S / unit if unit else cpu
    return Output(proc.returncode, out, result), wall, scaled


@dataclass
class Pass:
    """One run of every operation of a workload, in order."""

    outs: dict
    traced: bool
    op_wall: dict = field(default_factory=dict)      # seconds, as measured
    op_scaled: dict = field(default_factory=dict)    # seconds at reference speed

    @property
    def wall(self) -> float:
        return sum(self.op_wall.values())

    @property
    def scaled(self) -> float:
        return sum(self.op_scaled.values())


def run_pass(wl, workdir: str, traced: bool) -> Pass:
    p = Pass({}, traced)
    for op in wl.ops:
        spans = os.path.join(OUT_DIR, f"spans-{wl.name}-{op.name}.json") if traced else None
        p.outs[op.name], p.op_wall[op.name], p.op_scaled[op.name] = \
            run_child(op.mode, op.args, workdir, spans)
    return p


def digest(out) -> str:
    return hashlib.sha256(out.stdout).hexdigest()


def probe_values(out) -> list:
    r = out.result
    return r.get("corr", []) + r.get("cells", []) + r.get("points", [])


def failed_ops(wl, first: dict, outs: dict, bad: dict) -> int:
    """Failed operations of one pass: a nonzero exit, output that differs
    from the first pass, or output the checkers rejected."""
    failed = 0
    for op in wl.ops:
        out, ref = outs[op.name], first[op.name]
        if op.mode == "cli":
            failed += op.count if (out.rc != 0 or digest(out) != digest(ref)
                                   or bad[op.name]) else 0
            continue
        if out.rc != 0:
            failed += op.count
            continue
        got, want = probe_values(out), probe_values(ref)
        wrong = set(bad[op.name]) | {i for i in range(op.count)
                                     if i >= len(got) or i >= len(want) or got[i] != want[i]}
        failed += len(wrong)
    return failed


# ---------------------------------------------------------------------------
# statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(xs)[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def peak_rss_mb(outs: dict) -> float:
    return max(o.result.get("maxrss_kb", 0) for o in outs.values()) * 1024 / 1e6


# ---------------------------------------------------------------------------
# per-layer metrics

# metric -> (unit, kind, names); kind "self" sums self times of the names
# (a trailing '.' matches every name with that prefix), "calls" sums calls.
LAYER = {
    "correlation.compute_dl.calls": ("count", "calls", ["correlation.compute_dl"]),
    "correlation.compute_dl.self_s": ("s", "self", ["correlation.compute_dl"]),
    "correlation.autocorrelation.calls": ("count", "calls", ["correlation.autocorrelation"]),
    "correlation.autocorrelation.self_s": ("s", "self", ["correlation.autocorrelation"]),
    "correlation.find_Pn.calls": ("count", "calls", ["correlation.find_Pn"]),
    "correlation.find_Pn.self_s": ("s", "self", ["correlation.find_Pn"]),
    "correlation.profile.self_s": ("s", "self", ["correlation.profile_", "correlation.H_value",
                                                 "correlation.Profile."]),
    "exceptional.extract_exceptional.self_s": ("s", "self", ["exceptional.extract_exceptional"]),
    "exceptional.build_Jk.self_s": ("s", "self", ["exceptional.build_Jk"]),
    "exceptional.build_J.self_s": ("s", "self", ["exceptional.build_J"]),
    "exceptional.enumerate_Ek.self_s": ("s", "self", ["exceptional.enumerate_Ek"]),
    "exceptional.interval_sets_built": ("count", "calls",
                                        ["exceptional.IntegerIntervalSet.__init__"]),
    "exceptional.interval_count_calls": ("count", "calls",
                                         ["exceptional.IntegerIntervalSet.count"]),
    "oracle.brute_correlation.calls": ("count", "calls", ["oracle.brute_correlation"]),
    "oracle.brute_correlation.self_s": ("s", "self", ["oracle.brute_correlation"]),
    "oracle.brute_dl.calls": ("count", "calls", ["oracle.brute_dl"]),
    "oracle.brute_dl.self_s": ("s", "self", ["oracle.brute_dl"]),
    "oracle.pushforward_step.calls": ("count", "calls", ["oracle.pushforward_step"]),
    "oracle.pushforward_step.self_s": ("s", "self", ["oracle.pushforward_step"]),
    "oracle.smoothing.self_s": ("s", "self", ["oracle.phi_repr", "oracle.walk_poly",
                                              "oracle.precedes", "oracle.center_value",
                                              "oracle.lazy_walk", "oracle.PhiPolynomial.",
                                              "oracle.WalkDistribution."]),
    "constants.sweep.self_s": ("s", "self", ["constants.sweep_"]),
    "tower.apply_T.calls": ("count", "calls", ["tower.apply_T"]),
    "tower.apply_T.self_s": ("s", "self", ["tower.apply_T"]),
    "tower.apply_T_inverse.calls": ("count", "calls", ["tower.apply_T_inverse"]),
    "tower.locate.calls": ("count", "calls", ["tower.locate"]),
    "tower.locate.self_s": ("s", "self", ["tower.locate"]),
    "cli.main.self_s": ("s", "self", ["cli.main"]),
}
for _m in MODULES:
    LAYER[f"{_m}.self_s"] = ("s", "self", [f"{_m}."])
LAYER["python.gc_s"] = ("s", "self", ["python.gc"])
LAYER["python.gc_collections"] = ("count", "calls", ["python.gc"])

# computed from the whole pass rather than from named functions
DERIVED = {
    "correlation.dl_built": "count",
    "correlation.dl_hit_ratio": "ratio",
    "correlation.dl_mass_cells": "count",
    "correlation.support_entries": "count",
    "cli.rows_out": "count",
    "cli.bytes_out": "bytes",
    "trace.spans": "count",
    "trace.pass_s": "s",
    "trace.write_s": "s",
    "trace.outside_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _matches(pattern: str, name: str) -> bool:
    return name.startswith(pattern) if pattern.endswith((".", "_")) else name == pattern


def aggregate(p: Pass) -> dict:
    """Sum the traced summaries of one pass's processes, with each process's
    times rescaled to the reference speed like its wall time."""
    agg = {"calls": {}, "self_s": {}, "root_s": 0.0, "write_s": 0.0, "spans": 0, "dl_built": 0,
           "dl_mass_cells": 0, "support_entries": 0, "rows_out": 0, "bytes_out": 0}
    for op, out in p.outs.items():
        t = out.result.get("trace", {})
        scale = p.op_scaled[op] / p.op_wall[op]
        for name, v in t.get("calls", {}).items():
            agg["calls"][name] = agg["calls"].get(name, 0) + v
        for name, v in t.get("self_s", {}).items():
            agg["self_s"][name] = agg["self_s"].get(name, 0) + v * scale
        for key in ("root_s", "write_s"):
            agg[key] += t.get(key, 0) * scale
        for key in ("spans", "dl_built", "dl_mass_cells", "support_entries"):
            agg[key] += t.get(key, 0)
        text = out.stdout.decode("utf-8", errors="replace")
        if text.startswith("# "):
            agg["rows_out"] += max(text.count("\n") - 2, 0)
        agg["bytes_out"] += len(out.stdout)
    return agg


def layer_values(agg: dict, wall: float) -> tuple[dict, set]:
    """Per-layer values of one traced pass, and the metrics whose functions
    no longer exist under their traced names."""
    values, missing = {}, set()
    for metric, (unit, kind, patterns) in LAYER.items():
        table = agg["calls"] if kind == "calls" else agg["self_s"]
        names = [n for n in agg["calls"] if any(_matches(p, n) for p in patterns)]
        if not names and not metric.startswith("python."):
            missing.add(metric)
        values[metric] = sum(table.get(n, 0) for n in names)
    calls = agg["calls"].get("correlation.compute_dl", 0)
    if "correlation.compute_dl" not in agg["calls"]:
        missing |= {"correlation.dl_built", "correlation.dl_hit_ratio",
                    "correlation.dl_mass_cells"}
    if "correlation.support_index" not in agg["calls"]:
        missing.add("correlation.support_entries")
    values.update({
        "correlation.dl_built": agg["dl_built"],
        "correlation.dl_hit_ratio": 1 - agg["dl_built"] / calls if calls else 0.0,
        "correlation.dl_mass_cells": agg["dl_mass_cells"],
        "correlation.support_entries": agg["support_entries"],
        "cli.rows_out": agg["rows_out"],
        "cli.bytes_out": agg["bytes_out"],
        "trace.spans": agg["spans"],
        "trace.pass_s": wall,
        "trace.write_s": agg["write_s"],
        "trace.outside_s": wall - agg["root_s"] - agg["write_s"],
    })
    return values, missing


# ---------------------------------------------------------------------------
# one workload

def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import selftest
    import workloads

    wl = workloads.BUILDERS[name](seed, workdir)
    run_child("cli", SETUP_ARGV, workdir)          # untimed: byte-compiles, warms caches
    if trace:
        run_child("cli", SETUP_ARGV, workdir, os.path.join(workdir, "warm-spans.json"))
    t_begin = time.perf_counter()
    setup: list[tuple[float, float]] = []          # (wall, at reference speed)
    passes: list[Pass] = []
    untraced_budget = seconds * UNTRACED_SHARE_IN_TRACE if trace else seconds
    min_untraced = MIN_UNTRACED_IN_TRACE if trace else MIN_PASSES
    while True:
        # set-up samples interleave with the passes, so both see the same machine
        setup.append(run_child("cli", SETUP_ARGV, workdir)[1:])
        passes.append(run_pass(wl, workdir, traced=False))
        expected_end = time.perf_counter() - t_begin + median([p.wall for p in passes])
        if expected_end > MEASURE_LIMIT_S or \
                (len(passes) >= min_untraced and expected_end > untraced_budget):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child("cli", SETUP_ARGV, workdir)[1:])
    if trace:
        while True:
            passes.append(run_pass(wl, workdir, traced=True))
            if time.perf_counter() - t_begin \
                    + median([p.wall for p in passes if p.traced]) > min(seconds, MEASURE_LIMIT_S):
                break
    measured_s = time.perf_counter() - t_begin

    # checks, after all timing
    first = passes[0].outs
    crng = random.Random(f"check:{name}:{seed}")
    bad = wl.check(first, crng)
    attempted = sum(op.count for op in wl.ops) * len(passes)
    failed = sum(failed_ops(wl, first, p.outs, bad) for p in passes)
    st = selftest.run()
    st_ok = all(ok for _, ok in st)
    problems = {op: v for op, v in bad.items() if v}

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    pass_s = median([p.scaled for p in untraced])
    report = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
              "measured_s": measured_s, "passes": len(untraced), "traced_passes": len(traced),
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "selftest": st, "problems": problems,
              "sizes": wl.sizes,
              "pass_wall_median_s": median([p.wall for p in untraced]),
              "setup_wall_median_s": median([w for w, _ in setup]),
              "samples": {"setup": setup,
                          "passes": [{"traced": p.traced, "wall": p.op_wall,
                                      "scaled": p.op_scaled} for p in passes]}}
    metrics: dict = {}
    if not trace:
        metrics = {
            "setup_s": (median([s for _, s in setup]), "s", f"median of {len(setup)}"),
            "pass_s": (pass_s, "s", f"median of {len(untraced)}"),
            "peak_rss_mb": (median([peak_rss_mb(p.outs) for p in untraced]), "MB",
                            f"median of {len(untraced)} passes"),
        }
        if name == "probe":
            for kind in ("corr", "point"):
                lat = [x for p in untraced for x in p.outs["queries"].result.get(f"{kind}_ms", [])]
                report[f"{kind}_query_ms"] = {"n": len(lat), "p50": percentile(lat, 50),
                                              "p99": percentile(lat, 99)} if lat else {}
    else:
        per_pass = [layer_values(aggregate(p), p.scaled) for p in traced]
        missing = set().union(*(m for _, m in per_pass))
        firstv = per_pass[0][0]
        for metric, (unit, kind, _) in LAYER.items():
            v = firstv[metric] if kind == "calls" else median([pv[metric] for pv, _ in per_pass])
            metrics[metric] = (v, unit, "")
        for metric, unit in DERIVED.items():
            if unit == "s":
                v = median([pv[metric] for pv, _ in per_pass])
            elif metric == "trace.overhead_ratio":
                v = median([p.scaled for p in traced]) / pass_s
            else:
                v = firstv[metric]
            metrics[metric] = (v, unit, "")
        report["missing"] = sorted(missing)
        report["accounting"] = [
            {"pass_s": pv["trace.pass_s"], "outside_s": pv["trace.outside_s"],
             "write_s": pv["trace.write_s"],
             "gc_s": pv["python.gc_s"],
             "layers_s": {m: pv[f"{m}.self_s"] for m in MODULES}} for pv, _ in per_pass]
        report["counts_repeat"] = all(
            pv[m] == firstv[m] for pv, _ in per_pass for m, (_, kind, _) in LAYER.items()
            if kind == "calls")
    report["metrics"] = {m: {"value": v, "unit": u, "note": note}
                         for m, (v, u, note) in metrics.items()}
    report["correct"] = failed == 0 and st_ok
    return report


# ---------------------------------------------------------------------------
# report

def environment(seed: int) -> dict:
    rev = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            rev = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {"git_rev": rev or "unknown (not a git checkout)", "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "src_lines": lines}


def print_report(r: dict) -> None:
    print(f"== {r['workload']}  seed={r['seed']} trace={r['trace']}  "
          f"passes={r['passes']} traced={r['traced_passes']}  measured {r['measured_s']:.1f} s")
    print(f"   sizes: {json.dumps(r['sizes'], sort_keys=True)}")
    print(f"   wall as measured: pass {r['pass_wall_median_s']:.4g} s, "
          f"setup {r['setup_wall_median_s']:.4g} s (medians)")
    for m, v in r["metrics"].items():
        mark = "  MISSING" if m in r.get("missing", ()) else ""
        print(f"   {m:40s} {v['value']:14.6g} {v['unit']:6s} {v['note']}{mark}")
    print(f"   {'fail_frac':40s} {r['fail_frac']:14.6g} ratio  "
          f"({r['failed']} failed / {r['attempted']} attempted)")
    for kind in ("corr", "point"):
        lat = r.get(f"{kind}_query_ms")
        if lat:
            print(f"   {kind + '_query_p50_ms':40s} {lat['p50']:14.6g} ms     n={lat['n']}")
            print(f"   {kind + '_query_p99_ms':40s} {lat['p99']:14.6g} ms     n={lat['n']}")
    for acc in r.get("accounting", []):
        parts = " + ".join(f"{m} {v:.3f}" for m, v in acc["layers_s"].items())
        total = sum(acc["layers_s"].values()) + acc["gc_s"] + acc["outside_s"] + acc["write_s"]
        print(f"   traced pass {acc['pass_s']:.3f} s = {parts} + gc {acc['gc_s']:.3f}"
              f" + outside spans {acc['outside_s']:.3f} + span writing {acc['write_s']:.3f}"
              f" (sum {total:.3f})")
    if r["trace"]:
        print("   one thread, one process at a time: no layer waits on another, "
              "so no wait metrics are reported")
        print(f"   counts repeat across traced passes: {r['counts_repeat']}")
    st = ", ".join(f"{n} {'caught' if ok else 'MISSED'}" for n, ok in r["selftest"])
    print(f"   checker self-test: {st}")
    for op, probs in r["problems"].items():
        print(f"   CHECK FAILED {op}: {probs[:5]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["series", "probe", "exceptional", "verify", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "chaconlab", "cli.py")):
        print(f"perfbench: no chaconlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    names = ["series", "probe", "exceptional", "verify"] if args.workload == "all" \
        else [args.workload]
    env = environment(args.seed)
    reports = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        for name in names:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            r["environment"] = env
            reports.append(r)
            path = os.path.join(OUT_DIR, f"record-{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(r, fh, indent=1, sort_keys=True)
            print_report(r)
            print(f"   record: {os.path.relpath(path, ROOT)}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    prefix = len(reports) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + m: {"value": v["value"], "unit": v["unit"]}
               for r in reports for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
