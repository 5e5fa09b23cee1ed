"""Acceptance checks, one test per criterion, each printing a pass/fail line.

Two criteria are not attainable and are marked expected-failure rather than
weakened; each of those tests first pins the actually observed behavior as an
exact regression fixture, then reports FAIL for the criterion as stated:

* criterion 06: the two-sided index-count bound fails on its lower side
  (first counterexample at k=1, n=548, where the only contributing index has
  weight 7 but the count is 1);
* criterion 09: block maxima of the correlation deviation lock onto the
  limit value 4/81 from block 6 on, because the zero-correlation times never
  enter the excluded set, so neither the strict decrease nor the factor-3
  drop can occur.
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from chaconlab import checks, constants, exceptional as ex
from chaconlab.cli import main
from chaconlab.correlation import (
    compute_bl,
    dl_run,
    profile_gap,
    support,
    support_run,
    H_value,
)
from chaconlab.exceptional import HFunction
from chaconlab.tower import height


def chacon_env():
    """The environment of test_cli.chacon: the package's src/ first on
    PYTHONPATH, so a subprocess imports the package under test."""
    src = str(Path(ex.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_01_distribution_table(tmp_path):
    out = tmp_path / "dl.csv"
    code = main(["dl", "--k", "1", "--l", "0..3", "--out", str(out)])
    rows = {}
    for line in out.read_text(encoding="utf-8").splitlines()[2:]:
        l, n, num, den, _ = line.split(",")
        rows[(int(l), int(n))] = Fraction(int(num), int(den))
    expected = {(l, start + i): m for l, (start, masses) in checks.SMALL_DL_TABLE.items()
                for i, m in enumerate(masses)}
    ok = code == 0 and rows == expected
    assert report(1, "distribution-table", ok)


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    ok = checks.dl_matches_oracle((1, 2, 3), 200)
    ok &= checks.corr_matches_oracle((1, 2), 200)
    elapsed = time.time() - t0
    ok &= elapsed <= 120
    assert report(2, "oracle-equivalence", ok, f"{elapsed:.1f}s")


def test_criterion_03_normalization_and_shape():
    t0 = time.time()
    ok = checks.dl_normalized_unimodal(3 ** 7)
    elapsed = time.time() - t0
    ok &= elapsed <= 60
    assert report(3, "normalization-shape", ok, f"l<3^7, {elapsed:.1f}s")


def test_criterion_04_balanced_ternary():
    ok = checks.support_sizes(3 ** 5, 3 ** 8)
    assert report(4, "balanced-ternary", ok)


def test_criterion_05_counting_combinatorics():
    ok = True
    for big_n in range(1, 9):
        counts: dict[int, int] = {}
        for t in range(3 ** big_n, 3 ** (big_n + 1) + 1):
            b = compute_bl(t)
            counts[b] = counts.get(b, 0) + 1
        ok &= all(c < (big_n + 2) ** b for b, c in counts.items())
    for big_n in range(1, 11):
        ok &= max(compute_bl(t)
                  for t in range(3 ** big_n, 3 ** (big_n + 1) + 1)) == big_n + 3
    assert report(5, "counting-combinatorics", ok)


def test_criterion_06_pn_bounds():
    low_bad = up_bad = 0
    first = None
    for k in (1, 2):
        h = Fraction(height(k))
        for n in range(10 ** 5 + 1):
            pn = list(support_run(k, n, n))
            sz = len(pn)
            for m in pn:
                b = compute_bl(m)
                if not (b - 1) / (h + Fraction(3, 2)) < sz:
                    low_bad += 1
                    first = first or (k, n, m, b, sz)
                if not sz < b / (h - Fraction(1, 2)) + 1:
                    up_bad += 1
    ok = low_bad == 0 and up_bad == 0
    report(6, "index-count-bounds", ok,
           f"lower violations {low_bad}, upper violations {up_bad}, first {first}")
    if not ok:
        # regression fixture: upper side always holds, lower side fails first
        # at k=1, n=548 with a single 7-point index
        assert up_bad == 0
        assert first == (1, 548, 122, 7, 1)
        assert low_bad == 18_325
        pytest.xfail("the lower index-count bound is violated on the window; "
                     "see the counterexample pinned above")
    assert ok


def test_criterion_07_frozen_constants():
    fr = constants.FROZEN
    ok = checks.frozen_constants_reproduce()
    run = dl_run(0, 0, 3 ** 7)
    for l in range(3 ** 7):
        b = compute_bl(l)
        ok &= H_value(l, run) ** 2 * b <= fr.c1_sq
        ok &= profile_gap([(l + 1, 0), (l, 0)], run) ** 2 * b <= fr.c2_sq
    for l in range(3 ** 4):
        b = compute_bl(l)
        for p in range(1, 5):
            g = profile_gap([(l + j, i) for j in range(3) for i in range(-p, p + 1)], run)
            ok &= g * g * b <= fr.c3_sq * p * p
    assert report(7, "frozen-constants", ok)


def test_criterion_08_majorization():
    ok = checks.majorized(3 ** 5)
    assert report(8, "majorization", ok)


def test_criterion_09_convergence_off_excluded_set():
    devs = checks.block_maxima_off_Jk(1, HFunction.linear(), range(5, 10))
    decreasing = all(a is not None and b is not None and a > b
                     for a, b in zip(devs, devs[1:]))
    factor = devs[0] is not None and devs[-1] is not None and devs[0] >= 3 * devs[-1]
    ok = decreasing and factor
    report(9, "convergence-off-excluded-set", ok,
           "block maxima " + ", ".join(str(d) for d in devs))
    if not ok:
        # regression fixture: the maxima are exactly the limit deviation 4/81
        # from block 6 on (mu(A_1)^2 = 4/81, attained at zero-correlation
        # times, which the excluded set never contains)
        assert devs == [Fraction(16, 243), Fraction(4, 81), Fraction(4, 81),
                        Fraction(4, 81), Fraction(4, 81)]
        pytest.xfail("block maxima are pinned at 4/81 by zero-correlation "
                     "times outside the excluded set")
    assert ok


def test_criterion_10_global_count_bound():
    fr = constants.FROZEN
    grid = [3 ** e for e in range(5, 13)]
    ok = True
    flagged = []
    for name in ("linear", "log"):
        h = HFunction.parse(name)
        gj = ex.build_J(2, h, 3 ** 12)
        holds, overflow = checks.growth_bound_holds(gj.jset, fr.c_star, h, grid)
        ok &= holds
        if overflow:
            flagged.append(f"{name}: bound overflow")
        if gj.skipped:
            flagged.append(f"{name}: {len(gj.skipped)} layers below cutoff")
    assert report(10, "global-count-bound", ok, "; ".join(flagged))


def test_criterion_11_zero_correlation_structure():
    ok = checks.zero_correlation_times(200, random.Random(11), 100)
    pts = set(ex.enumerate_Ek(1, 200)[0].iter_points())
    ok &= {1, 2, 3} <= pts and {11, 12} <= pts and 8 not in pts
    for k in (1, 2, 3):
        hk = height(k)
        ok &= all(support(k, l + 1)[0] - support(k, l)[1] >= 2
                  for l in range(3 ** 6 + 1) if compute_bl(l) <= hk - 2)
    # the count lower bound at stage 3 is vacuous on the checkable range
    ek3, _ = ex.enumerate_Ek(3, 50)
    ok &= all(ek3.count(n) >= math.comb(n - 1, height(3) - 3)
              for n in range(3, 38))
    assert report(11, "zero-correlation-structure", ok)


def test_criterion_12_extractor_contract():
    ok = True

    n_max = 400
    a = ex.Column([0] * (n_max + 1), [1] * (n_max + 1))
    b = ex.Column([1] * (n_max + 1), list(range(1, n_max + 2)))     # 1/(n + 1)
    c = ex.Column([1] * (n_max + 1), list(range(2, n_max + 3)))     # 1/(n + 2)
    res = ex.extract_exceptional(a, b, c, n_max)
    ok &= len(res.exceptional) == 0 and all(lk == 0 for lk in res.thresholds)
    ok &= checks.contract_holds(res, a, b, c, n_max)

    n_max = 2 ** 16
    a, b, c = checks.power_of_two_series(n_max)
    res = ex.extract_exceptional(a, b, c, n_max)
    l2 = res.thresholds[1]
    ok &= all(2 ** e in res.exceptional for e in range(17) if 2 ** e >= l2)
    ok &= checks.contract_holds(res, a, b, c, n_max)

    # a_j = 1/(j + 1), b_n its running mean (b_0 = 1), c_n = 1/(n + 2)
    n_max = 1000
    a = ex.Column([1] * (n_max + 1), list(range(1, n_max + 2)))
    run, b = Fraction(0), ex.Column([1], [1])
    for n in range(1, n_max + 1):
        run += Fraction(1, n)
        b.num.append(run.numerator)
        b.den.append(run.denominator * n)
    c = ex.Column([1] * (n_max + 1), list(range(2, n_max + 3)))
    res = ex.extract_exceptional(a, b, c, n_max)
    ok &= all(set(res.level_sets[k - 1].iter_points()) == set(range(k - 1))
              for k in range(1, len(res.level_sets) + 1))
    ok &= checks.contract_holds(res, a, b, c, n_max)

    assert report(12, "extractor-contract", ok)


def test_criterion_13_deterministic_verification(tmp_path):
    outputs = []
    for i in (1, 2):
        out = tmp_path / f"verify{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "chaconlab.cli", "verify", "--suite", "all",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, env=chacon_env())
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and b'"pass": true' in outputs[0]
    assert report(13, "deterministic-verification", ok)
