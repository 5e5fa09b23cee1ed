"""The four workloads: seeded inputs, the operations of one pass, and the
checks on their outputs.

The program receives only what these generators make from the seed: argv,
a CSV series and a JSON list of library queries.  Sizes are fixed and the
seed moves positions, so a pass costs about the same on every seed.  Every
generated input stays inside the program's own caps, so no operation is
expected to fail.

    series       `corr`, `cesaro`, `dl` in fresh processes: dense contiguous
                 work through the shared d_l' memo; no exceptional or
                 oracle code.
    probe        one process of sparse library queries (autocorrelation,
                 cell_correlation, T^m / T^-m round trips, locate): little
                 shared work; the only workload that loads tower/triadic.
    exceptional  `extract`, `jset` (layer and global), `eset`: the
                 extractor, interval sets and support tables; never calls
                 compute_dl.
    verify       `verify --suite all`: the only workload where the oracles
                 and the constants sweeps do real work.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks


@dataclass
class Op:
    """One process of a pass: a `chacon` command or a batch of queries."""

    name: str
    mode: str                 # "cli" or "probe"
    args: list[str]
    count: int = 1            # operations it stands for


@dataclass
class Output:
    rc: int
    stdout: bytes
    result: dict


@dataclass
class Workload:
    name: str
    ops: list[Op]
    sizes: dict
    # check(first-pass outputs, rng) -> {op name: failed indices or problems}
    check: Callable[[dict[str, Output], random.Random], dict[str, list]]


def _text(out: Output) -> str:
    return out.stdout.decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------

def series(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"series:{seed}")
    k = 1
    start, width = rng.randrange(243), 2 * 3 ** 9  # window keeps n <= 500 checkable
    n_max = 10000 - rng.randrange(100)
    dl_k, dl_lo, dl_count = 2, 3 ** 7 + rng.randrange(3 ** 5), 3 ** 7
    ops = [
        Op("corr", "cli", ["corr", "--k", str(k), "--n", f"{start}..{start + width - 1}"]),
        Op("cesaro", "cli", ["cesaro", "--k", str(k), "--N-max", str(n_max)]),
        Op("dl", "cli", ["dl", "--k", str(dl_k), "--l", f"{dl_lo}..{dl_lo + dl_count - 1}"]),
    ]

    def check(outs, crng):
        values: dict[int, Fraction] = {}
        corr = checks.check_corr(_text(outs["corr"]), k, start, width, crng, values)
        return {
            "corr": corr,
            "cesaro": checks.check_cesaro(_text(outs["cesaro"]), k, n_max, values),
            "dl": checks.check_dl(_text(outs["dl"]), dl_k, dl_lo, dl_lo + dl_count - 1, crng),
        }

    sizes = {"corr": {"k": k, "start": start, "width": width},
             "cesaro": {"k": k, "N_max": n_max},
             "dl": {"k": dl_k, "l_start": dl_lo, "count": dl_count}}
    return Workload("series", ops, sizes, check)


# ---------------------------------------------------------------------------

PROBE_CORR = 4000
PROBE_CELLS = 6
PROBE_POINTS = 600


def probe(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"probe:{seed}")
    # n log-uniform up to 3^13: at k = 1 that needs l up to ~3^12, the cap
    corr = [[rng.choice((1, 2, 3)), int(3 ** rng.uniform(0, 13)) - 1]
            for _ in range(PROBE_CORR)]
    cells = []
    for _ in range(PROBE_CELLS):
        levels = rng.sample(range(13), 5)
        cells.append([2, sorted(levels[:2]), sorted(levels[2:]), rng.randint(1, 300)])
    # forward-then-back round trips never apply T^-1 to 0
    points = []
    for _ in range(PROBE_POINTS):
        e = rng.randint(1, 12)
        points.append([rng.randrange(3 ** e), 3 ** e, rng.randint(1, 40), rng.randint(1, 10)])
    path = os.path.join(workdir, "probe-queries.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"corr": corr, "cells": cells, "points": points}, fh)
    op = Op("queries", "probe", [path], count=len(corr) + len(cells) + len(points))

    def check(outs, crng):
        res = outs["queries"].result
        try:
            bad = checks.check_probe_corr(corr, res.get("corr", []), crng)
            bad += [len(corr) + i for i in checks.check_cells(cells, res.get("cells", []))]
            bad += [len(corr) + len(cells) + i
                    for i in checks.check_points(points, res.get("points", []))]
        except (ValueError, TypeError, IndexError, ZeroDivisionError):
            bad = list(range(op.count))          # malformed results: all fail
        return {"queries": bad}

    sizes = {"corr_queries": len(corr), "corr_k": [1, 2, 3], "corr_n_max": 3 ** 13 - 1,
             "cell_queries": len(cells), "point_queries": len(points),
             "point_exponent_max": 12, "point_power_max": 40, "locate_k_max": 10}
    return Workload("probe", [op], sizes, check)


# ---------------------------------------------------------------------------

EXTRACT_POINTS = 2 ** 13


def extract_series(rng: random.Random, n_points: int):
    """A deviation sequence and its rates for the extractor.

    a: zero except at n_points/16 seeded positions, which take the fixed
    values 1/d, d = 1..32, so every level set {a > 1/k} has a seed-free size.
    b: (sum_{j<n} a_j + 1) / n, which satisfies the Cesaro precondition.
    c: the exact rationals of the binary64 values 1/log(n + 2), decreasing.
    """
    a = [Fraction(0)] * n_points
    spikes = rng.sample(range(n_points), n_points // 16)
    for i, n in enumerate(spikes):
        a[n] = Fraction(1, 1 + i % 32)
    b, run = [Fraction(1)], Fraction(0)
    for n in range(1, n_points):
        run += a[n - 1]
        b.append((run + 1) / n)
    c = [Fraction(1 / math.log(n + 2)) for n in range(n_points)]
    return a, b, c


def exceptional(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"exceptional:{seed}")
    a, b, c = extract_series(rng, EXTRACT_POINTS)
    path = os.path.join(workdir, "extract-series.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,a,b,c\n")
        for n in range(len(a)):
            fh.write(f"{n},{a[n]},{b[n]},{c[n]}\n")
    # N-max moves inside one rung of build_Jk's layer ladder
    n1 = 3 ** 12 - rng.randrange(3 ** 10)
    n2 = 3 ** 11 - rng.randrange(3 ** 9)
    l_max = 3 ** 10 - rng.randrange(3 ** 6)
    ops = [
        Op("extract", "cli", ["extract", path]),
        Op("jset", "cli", ["jset", "--k", "1", "--N-max", str(n1)]),
        Op("jset-global", "cli", ["jset", "--k", "2", "--global", "--N-max", str(n2)]),
        Op("eset", "cli", ["eset", "--k", "1", "--l", str(l_max)]),
    ]

    def check(outs, crng):
        return {
            "extract": checks.check_extract(_text(outs["extract"]), a, b, c),
            "jset": checks.check_interval_rows(_text(outs["jset"]), "jset", n1),
            "jset-global": checks.check_interval_rows(_text(outs["jset-global"]), "jset", n2),
            "eset": checks.check_eset(_text(outs["eset"]), 1, crng),
        }

    sizes = {"extract": {"points": EXTRACT_POINTS, "spikes": EXTRACT_POINTS // 16},
             "jset": {"k": 1, "h": "linear", "N_max": n1},
             "jset_global": {"k_max": 2, "h": "linear", "N_max": n2},
             "eset": {"k": 1, "l": l_max}}
    return Workload("exceptional", ops, sizes, check)


# ---------------------------------------------------------------------------

def verify(seed: int, workdir: str) -> Workload:
    ops = [Op("verify", "cli", ["verify", "--suite", "all", "--seed", str(seed)])]

    def check(outs, crng):
        out = outs["verify"]
        return {"verify": checks.check_verify(_text(out), out.rc)}

    return Workload("verify", ops, {"suite": "all", "seed": seed}, check)


BUILDERS = {"series": series, "probe": probe, "exceptional": exceptional, "verify": verify}
