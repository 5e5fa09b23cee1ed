"""Checker self-test: every checker must pass a genuine output and reject a
corrupted one, so that `failed == 0` in a run is never vacuous.

    python3 perfbench/selftest.py

The genuine outputs come from the package itself on small inputs (the
verify report is a minimal stand-in); each corruption is one targeted
change (a mass, an interval, a point, a row).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def chacon(*argv: str) -> str:
    from chaconlab import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"chacon {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def replace_row(text: str, index: int, fields: list) -> str:
    lines = text.split("\n")
    lines[2 + index] = ",".join(str(f) for f in fields)
    return "\n".join(lines)


def set_meta(text: str, key: str, value) -> str:
    first, rest = text.split("\n", 1)
    items = [f"{key}={value}" if item.startswith(key + "=") else item
             for item in first.split(" ")]
    return " ".join(items) + "\n" + rest


def dec(q: Fraction) -> str:
    return "%.12g" % (q.numerator / q.denominator)


def _corr() -> tuple[bool, bool]:
    text = chacon("corr", "--k", "1", "--n", "0..40")
    rng = random.Random(0)
    good = checks.check_corr(text, 1, 0, 41, rng, {}, samples=41)
    # one value changed, its decimal kept consistent
    c = Fraction(1, 81)
    bad = checks.check_corr(replace_row(text, 17, [17, c.numerator, c.denominator, dec(c)]),
                            1, 0, 41, rng, {}, samples=41)
    return not good, bool(bad)


def _cesaro() -> tuple[bool, bool]:
    values: dict = {}
    checks.check_corr(chacon("corr", "--k", "1", "--n", "0..29"), 1, 0, 30,
                      random.Random(0), values, samples=0)
    text = chacon("cesaro", "--k", "1", "--N-max", "30")
    good = checks.check_cesaro(text, 1, 30, values)
    c = Fraction(1, 7)
    bad = checks.check_cesaro(replace_row(text, 11, [12, 1, 7, dec(c)]), 1, 30, values)
    return not good, bool(bad)


def _dl() -> tuple[bool, bool]:
    text = chacon("dl", "--k", "2", "--l", "10..20")
    rng = random.Random(0)
    good = checks.check_dl(text, 2, 10, 20, rng, samples=11)
    _, _, rows = checks.parse_csv(text)
    l, n, num, den, _ = rows[4]
    m = Fraction(int(num), int(den)) + Fraction(1, 9)       # one mass changed
    bad = checks.check_dl(replace_row(text, 4, [l, n, m.numerator, m.denominator, dec(m)]),
                          2, 10, 20, rng, samples=11)
    return not good, bool(bad)


def _extract() -> tuple[bool, bool]:
    a, b, c = workloads.extract_series(random.Random(0), 400)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,a,b,c\n")
            fh.writelines(f"{n},{a[n]},{b[n]},{c[n]}\n" for n in range(len(a)))
        text = chacon("extract", path)
    good = checks.check_extract(text, a, b, c)
    # one interval dropped, the count in the comment line adjusted to match
    lines = text.split("\n")
    i = max(j for j, line in enumerate(lines) if line.startswith("interval,"))
    _, lo, hi = lines[i].split(",")
    count = int(checks.parse_csv(text)[0]["count"]) - (int(hi) - int(lo) + 1)
    bad = checks.check_extract(set_meta("\n".join(lines[:i] + lines[i + 1:]), "count", count),
                               a, b, c)
    return not good, bool(bad)


def _jset() -> tuple[bool, bool]:
    text = chacon("jset", "--k", "1", "--N-max", "3000")
    good = checks.check_interval_rows(text, "jset", 3000)
    _, _, rows = checks.parse_csv(text)
    lo, hi, cum = (int(x) for x in rows[0])
    bad = checks.check_interval_rows(replace_row(text, 0, [lo, hi + 1, cum]), "jset", 3000)
    return not good, bool(bad)


def _eset() -> tuple[bool, bool]:
    text = chacon("eset", "--k", "1", "--l", "60")
    rng = random.Random(0)
    _, _, rows = checks.parse_csv(text)
    good = checks.check_eset(text, 1, rng, samples=len(rows), oracle_samples=len(rows))
    # a gap replaced by the support endpoint just below it (same size)
    lo, hi, cum = (int(x) for x in rows[3])
    bad = checks.check_eset(replace_row(text, 3, [lo - 1, hi - 1, cum]), 1, rng,
                            samples=len(rows), oracle_samples=len(rows))
    return not good, bool(bad)


def _verify() -> tuple[bool, bool]:
    text = '{"checks": [{"name": "a", "pass": true}], "pass": true}'
    good = checks.check_verify(text, 0)
    bad = checks.check_verify(text.replace('"pass": true}', '"pass": false}', 1), 0)
    return not good, bool(bad)


def _repeat() -> tuple[bool, bool]:
    import run
    ops = [workloads.Op("corr", "cli", []), workloads.Op("queries", "probe", [], count=3)]
    wl = workloads.Workload("stub", ops, {}, None)
    first = {"corr": workloads.Output(0, b"# x\n1\n", {}),
             "queries": workloads.Output(0, b"", {"corr": ["1/9", "0"], "points": [["a"]]})}
    again = {"corr": workloads.Output(0, b"# x\n2\n", {}),
             "queries": workloads.Output(0, b"", {"corr": ["1/9", "1"], "points": [["a"]]})}
    clean = {"corr": [], "queries": []}
    return run.failed_ops(wl, first, first, clean) == 0, \
        run.failed_ops(wl, first, again, clean) == 2


def _points() -> tuple[bool, bool]:
    from chaconlab import tower
    from chaconlab.triadic import TriadicRational
    queries = [[5, 27, 7, 3], [2, 9, 3, 2], [100, 243, 12, 4]]
    values = []
    for num, den, m, k in queries:
        x = TriadicRational.from_fraction(Fraction(num, den))
        y = tower.apply_T_power(x, m)
        addr = tower.locate(x, k)
        values.append([str(y), str(tower.apply_T_power(y, -m)), addr.level, str(addr.offset)])
    good = checks.check_points(queries, values)
    wrong = [list(v) for v in values]
    wrong[1][1] = "1/3^1"                          # wrong round-trip point
    bad = checks.check_points(queries, wrong)
    misplaced = [list(v) for v in values]
    misplaced[2][2] = (misplaced[2][2] or 0) + 1   # wrong level
    return not good, bad == [1] and checks.check_points(queries, misplaced) == [2]


def _probe_corr() -> tuple[bool, bool]:
    from chaconlab import correlation
    queries = [[1, 5], [2, 40], [3, 120], [1, 300]]
    values = [str(correlation.autocorrelation(k, n)) for k, n in queries]
    rng = random.Random(0)
    good = checks.check_probe_corr(queries, values, rng, samples=4)
    wrong = list(values)
    wrong[2] = str(Fraction(values[2]) + Fraction(1, 3 ** 9))
    return not good, checks.check_probe_corr(queries, wrong, rng, samples=4) == [2]


def _cells() -> tuple[bool, bool]:
    from chaconlab import correlation
    queries = [[2, [0, 3], [5, 7], 40], [2, [1], [2, 9], 100]]
    values = [str(correlation.cell_correlation(a, b, k, n)) for k, a, b, n in queries]
    good = checks.check_cells(queries, values)
    return not good, checks.check_cells(queries, [values[0], "1/3"]) == [1]


CASES = {"corr": _corr, "cesaro": _cesaro, "dl": _dl, "extract": _extract, "jset": _jset,
         "eset": _eset, "verify": _verify, "repeat": _repeat, "points": _points, "probe-corr": _probe_corr,
         "cells": _cells}


def run() -> list[tuple[str, bool]]:
    """(checker, passes its genuine output and catches its corruption)."""
    results = []
    for name, case in CASES.items():
        accepts, catches = case()
        results.append((name, accepts and catches))
    return results


if __name__ == "__main__":
    res = run()
    for name, ok in res:
        print(f"{name:12s} {'ok' if ok else 'FAILED'}")
    sys.exit(0 if all(ok for _, ok in res) else 1)
