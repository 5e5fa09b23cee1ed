"""Batch command-line front end.

Subcommands compute return-time distributions, correlations, Cesaro
averages, exceptional sets and zero-correlation times, run the generic
extractor on a CSV series, apply the transformation pointwise, and run the
deterministic verification suite.  Output is CSV (comma, header row, LF,
UTF-8, seed recorded in a leading comment line) or JSON with sorted keys;
identical config and seed give byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import constants, correlation, exceptional, tower
from .checks import SUITE
from .correlation import SizeError
from .exceptional import HFunction, InputError
from .oracle import FragmentationError
from .tower import DepthExceededError
from .triadic import DomainError, TriadicRational

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def dec12(x: Fraction) -> str:
    """12-significant-digit decimal for a rational."""
    return "%.12g" % (x.numerator / x.denominator)


def parse_range(text: str) -> range:
    """'A..B' (inclusive, B >= A) or a single integer."""
    if ".." in text:
        a, b = (int(v) for v in text.split("..", 1))
    else:
        a = b = int(text)
    if b < a:
        raise ValueError(f"reversed range {text!r}")
    return range(a, b + 1)


def parse_point(text: str) -> TriadicRational:
    try:
        return TriadicRational.parse(text)
    except (DomainError, ValueError):
        try:
            return TriadicRational.from_fraction(Fraction(text))
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in point {text!r}") from None


def _parse_value(text: str, lineno: int) -> Fraction:
    """An extract cell as an exact rational.  A plain decimal p or p/q is read
    by int, as Fraction reads it but without its regex; any other rational
    literal by Fraction; a decimal point or exponent as the binary64 value."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        # isdecimal admits only digits both read; int would also take the
        # signs, spaces and underscores that Fraction rejects beside the slash
        if num.isdecimal() and (den.isdecimal() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        if slash or ("." not in text and "e" not in text.lower()):
            return Fraction(text)
        return Fraction(float(text))
    except (ZeroDivisionError, OverflowError):
        # a zero denominator, or a float literal that overflows to infinity
        raise InputError(f"line {lineno}: {text!r} is not a finite rational") from None


class Output:
    """Collects rows and writes them as CSV or JSON, deterministically."""

    def __init__(self, fmt: str, out: str | None, seed: int):
        self.fmt = fmt
        self.out = out
        self.seed = seed

    def emit_rows(self, header: list[str], rows: list[list], meta: dict) -> None:
        if self.fmt == "csv":
            lines = ["# seed=%d %s" % (self.seed, " ".join(
                "%s=%s" % (k, meta[k]) for k in sorted(meta)))]
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(str(c) for c in row))
            text = "\n".join(lines) + "\n"
        else:
            payload = dict(meta)
            payload["seed"] = self.seed
            payload["columns"] = header
            payload["rows"] = rows
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        self._write(text)

    def emit_json(self, payload: dict) -> None:
        payload = dict(payload)
        payload["seed"] = self.seed
        self._write(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def _write(self, text: str) -> None:
        if self.out:
            with open(self.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_dl(args, out: Output) -> int:
    rows = []
    for l in parse_range(args.l):
        d = correlation.compute_dl(args.k, l, max_l=args.cap_l)
        for i, m in enumerate(d.masses):
            rows.append([l, d.start + i, m.numerator, m.denominator, dec12(m)])
    out.emit_rows(["l", "n", "num", "den", "decimal"], rows,
                  {"command": "dl", "k": args.k})
    return EXIT_OK


def cmd_corr(args, out: Output) -> int:
    ns = parse_range(args.n)
    # a cap error names the first row over the cap: this one, or else the
    # first n over it in the series below
    if abs(ns[0]) > args.cap_n:
        raise SizeError(f"n = {abs(ns[0])} exceeds cap {args.cap_n}")
    # c_k is even in n: one series over |n| covers the whole range
    lo = 0 if ns[0] <= 0 <= ns[-1] else min(abs(ns[0]), abs(ns[-1]))
    series = correlation.correlation_series(
        args.k, lo, max(abs(ns[0]), abs(ns[-1])), args.cap_n, args.cap_l)
    rows = []
    for n in ns:
        c = series[abs(n) - lo]
        rows.append([n, c.numerator, c.denominator, dec12(c)])
    out.emit_rows(["n", "num", "den", "decimal"], rows,
                  {"command": "corr", "k": args.k})
    return EXIT_OK


def cmd_cesaro(args, out: Output) -> int:
    averages = correlation.cesaro(args.k, args.n_max, max_n=args.cap_n, max_l=args.cap_l)
    rows = [[n, c.numerator, c.denominator, dec12(c)] for n, c in enumerate(averages, 1)]
    out.emit_rows(["N", "num", "den", "decimal"], rows,
                  {"command": "cesaro", "k": args.k})
    return EXIT_OK


def cmd_jset(args, out: Output) -> int:
    if args.n_max < 0:
        raise DomainError(f"N-max = {args.n_max} < 0")
    if args.n_max > args.cap_n:
        raise SizeError(f"n = {args.n_max} exceeds cap {args.cap_n}")
    h = HFunction.parse(args.h)
    meta: dict = {"command": "jset", "h": args.h, "n_max": args.n_max}
    if args.global_set:
        gj = exceptional.build_J(args.k, h, args.n_max)
        jset = gj.jset
        meta["mode"] = "global"
        meta["k_max"] = args.k
        meta["skipped"] = ";".join("%d:%s" % (k, r) for k, r in gj.skipped) or "none"
    else:
        jset = exceptional.build_Jk(args.k, h, args.n_max)
        meta["mode"] = "layer"
        meta["k"] = args.k
    rows = [[a, b, jset.count(b)] for a, b in jset.intervals]
    meta["count"] = jset.count(args.n_max)
    out.emit_rows(["lo", "hi", "count_cum"], rows, meta)
    return EXIT_OK


def cmd_eset(args, out: Output) -> int:
    l_max = max(parse_range(args.l))
    if l_max > args.cap_l:
        raise SizeError(f"l = {l_max} exceeds cap {args.cap_l}")
    ek, covered = exceptional.enumerate_Ek(args.k, l_max)
    rows = [[a, b, ek.count(b)] for a, b in ek.intervals]
    out.emit_rows(["lo", "hi", "count_cum"], rows,
                  {"command": "eset", "k": args.k, "l_max": l_max,
                   "covered": covered, "count": len(ek)})
    return EXIT_OK


def cmd_extract(args, out: Output) -> int:
    ns: dict[int, Fraction] = {}
    bs: dict[int, Fraction] = {}
    cs: dict[int, Fraction] = {}
    with open(args.series, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("n,"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise InputError(f"line {lineno}: expected columns n, a [, b [, c]]")
            n = int(parts[0])
            if n in ns:
                raise InputError(f"line {lineno}: repeated n = {n}")
            ns[n] = _parse_value(parts[1], lineno)
            if len(parts) > 2 and parts[2].strip():
                bs[n] = _parse_value(parts[2], lineno)
            if len(parts) > 3 and parts[3].strip():
                cs[n] = _parse_value(parts[3], lineno)
    if not ns:
        raise InputError(f"no data rows in {args.series}")
    n_max = max(ns)
    # the keys are distinct integers: this is ns == {0..n_max} without building it
    if min(ns) != 0 or len(ns) != n_max + 1:
        raise InputError("series must cover every n from 0 to its maximum")
    a = [ns[n] for n in range(n_max + 1)]
    if bs:
        if len(bs) != n_max + 1:
            raise InputError("b column must cover every n when present")
        b = [bs[n] for n in range(n_max + 1)]
    else:
        run = Fraction(0)
        b = [Fraction(0)]
        for n in range(1, n_max + 1):
            run += a[n - 1]
            b.append(run / n)
    if cs:
        if len(cs) != n_max + 1:
            raise InputError("c column must cover every n when present")
        c = [cs[n] for n in range(n_max + 1)]
    else:
        c = [Fraction(1 / math.log(n + 2)) for n in range(n_max + 1)]

    res = exceptional.extract_exceptional(a, b, c, n_max)
    rows = [["l_k", k + 1, lk] for k, lk in enumerate(res.thresholds)]
    rows += [["interval", lo, hi] for lo, hi in res.exceptional.intervals]
    out.emit_rows(["kind", "x", "y"], rows,
                  {"command": "extract", "n_max": n_max,
                   "count": len(res.exceptional)})
    return EXIT_OK


def cmd_apply_t(args, out: Output) -> int:
    x = parse_point(args.point)
    n = int(args.n) if args.n else 1
    if abs(n) > args.cap_n:
        raise SizeError(f"n = {n} exceeds cap {args.cap_n}")
    y = tower.apply_T_power(x, n)
    q = y.as_fraction()
    out.emit_rows(["n", "point", "image", "decimal"],
                  [[n, str(x), str(y), dec12(q)]],
                  {"command": "apply-t"})
    return EXIT_OK


def cmd_locate(args, out: Output) -> int:
    x = parse_point(args.point)
    addr = tower.locate(x, args.k)
    level = "" if addr.level is None else addr.level
    # a deep stage's numbers pass the int -> str limit; the stage loop costs more
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        out.emit_rows(["k", "level", "offset_num", "offset_den", "decimal"],
                      [[args.k, level, addr.offset.numerator, addr.offset.denominator,
                        dec12(addr.offset)]],
                      {"command": "locate",
                       "region": "spacer_remainder" if addr.level is None else "level"})
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_OK


def cmd_verify(args, out: Output) -> int:
    rng = random.Random(args.seed)
    checks = [{"name": name, "pass": bool(check(rng)), "detail": detail}
              for name, detail, check in SUITE]
    fr = constants.FROZEN
    report = {
        "suite": args.suite,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
        "constants": {
            "c1_sq": str(fr.c1_sq),
            "c2_sq": str(fr.c2_sq),
            "c3_sq": str(fr.c3_sq),
            "c_star": fr.c_star,
            "headroom_sq": str(fr.headroom_sq),
        },
    }
    out.emit_json(report)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chacon",
        description="Exact computations for a rank-one cutting-and-stacking map.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cap-l", type=int, default=correlation.DEFAULT_MAX_L)
        p.add_argument("--cap-n", type=int, default=correlation.DEFAULT_MAX_N)

    p = sub.add_parser("dl", help="return-time distribution masses")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", required=True, help="index or range A..B")
    common(p)
    p.set_defaults(fn=cmd_dl)

    p = sub.add_parser("corr", help="autocorrelation series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", required=True, help="time or range A..B")
    common(p)
    p.set_defaults(fn=cmd_corr)

    p = sub.add_parser("cesaro", help="running Cesaro averages of deviations")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N-max", dest="n_max", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_cesaro)

    p = sub.add_parser("jset", help="exceptional time sets")
    p.add_argument("--k", type=int, required=True,
                   help="stage (layer mode) or maximal stage (global mode)")
    p.add_argument("--h", default="linear")
    p.add_argument("--N-max", dest="n_max", type=int, required=True)
    p.add_argument("--global", dest="global_set", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_jset)

    p = sub.add_parser("eset", help="zero-correlation times")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", required=True, help="index bound or range")
    common(p)
    p.set_defaults(fn=cmd_eset)

    p = sub.add_parser("extract", help="generic exceptional-set extractor")
    p.add_argument("series", help="CSV with columns n, a_n [, b_n [, c_n]]")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("verify", help="deterministic verification suite")
    p.add_argument("--suite", choices=("all",), default="all")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("apply-t", help="apply the map at a triadic point")
    p.add_argument("point", help="p/3^m, 0.a1a2..., or a plain fraction")
    p.add_argument("--n", default="1", help="power (may be negative)")
    common(p)
    p.set_defaults(fn=cmd_apply_t)

    p = sub.add_parser("locate", help="tower address of a point")
    p.add_argument("point")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_locate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    out = Output(args.format, args.out, args.seed)
    try:
        return args.fn(args, out)
    except (SizeError, FragmentationError, DepthExceededError, OverflowError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, InputError, ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
