"""Batch command-line front end.

Subcommands compute return-time distributions, correlations, Cesaro
averages, exceptional sets and zero-correlation times, run the generic
extractor on a CSV series, apply the transformation pointwise, and run the
deterministic verification suite.  Rows stream, a chunk at a time, as CSV
(comma, header row, LF, UTF-8, seed in a leading comment line) or JSON with
sorted keys; verify writes one JSON report.  Identical config and seed give
byte-identical output.  Printed numbers are exact at any stage: Output lifts
the int -> str digit limit while it writes, so the limit guards only the
parsing of argv and of extract cells.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 resource
cap exceeded.

Every resource cap lives here, where outside input enters; the library takes
none.  A cap bounds only a value the command is given: --cap-l the index l
of dl and eset, and --cap-n the time n of corr, cesaro, jset and apply-t.
The indices that corr and cesaro build from their times are bounded through
--cap-n, since a time n needs no index above about 2n/(2h_k + 1) + 1.  The
stage k of dl, corr, cesaro, jset, eset and locate, and the m of a p/3^m
point, are bounded by triadic.MAX_STAGE.  Each check runs where the
computation would first meet its value, so the first error a command
reports is the one that computation would have raised.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

# only what dl, corr and cesaro run: every other command imports the rest of
# what it runs, once, as it starts
from . import correlation, tower
from .correlation import BLOCK
from .triadic import MAX_STAGE, DomainError, InputError, SizeError, TriadicRational

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

# the defaults of --cap-l and --cap-n
DEFAULT_MAX_L = 3 ** 12
DEFAULT_MAX_N = 3 ** 14

# the least positive normal float, about 2.2e-308
LEAST_NORMAL = sys.float_info.min


def _decimal(num: int, den: int) -> str:
    """num/den, den > 0, to 12 significant digits, as "%.12g" prints it.

    int / int is correctly rounded, so "%.12g" of the float is right wherever
    the float is normal.  Below LEAST_NORMAL a subnormal keeps fewer than 12
    significant digits, and 0 none.  There the digits are rounded from
    integers, half to even as printf rounds: the decimal exponent e of such a
    value is at most -308, so the layout is the exponent form d.ddddde-XXX
    with trailing zeros dropped.
    """
    x = num / den
    if abs(x) >= LEAST_NORMAL or not num:
        return "%.12g" % x
    sign, num = ("-", -num) if num < 0 else ("", num)
    # within one of e, then exact: 10^e <= num/den < 10^(e+1)
    e = math.floor(math.log10(num) - math.log10(den))
    while num * 10 ** -e < den:
        e -= 1
    while num * 10 ** (-e - 1) >= den:
        e += 1
    m, r = divmod(num * 10 ** (11 - e), den)
    if 2 * r > den or 2 * r == den and m % 2:
        m += 1
    if m == 10 ** 12:
        m, e = 10 ** 11, e + 1
    digits = str(m).rstrip("0")
    point = "." if len(digits) > 1 else ""
    return "%s%s%s%se%+03d" % (sign, digits[0], point, digits[1:], e)


def dec12(x: Fraction) -> str:
    """12-significant-digit decimal for a rational."""
    return _decimal(x.numerator, x.denominator)


def parse_range(text: str) -> range:
    """'A..B' (inclusive, B >= A) or a single integer."""
    if ".." in text:
        a, b = (int(v) for v in text.split("..", 1))
    else:
        a = b = int(text)
    if b < a:
        raise ValueError(f"reversed range {text!r}")
    return range(a, b + 1)


def _parse_value(text: str, lineno: int) -> tuple[int, int]:
    """An extract cell as an exact rational num/den, den > 0: the pair the
    extractor's integer columns hold.  A plain decimal p or p/q is read by int
    straight into the pair, as Fraction reads it but without its regex, and
    is not reduced: every test of the extractor gives the same answer on any
    pair of the same value, so reducing would cost a gcd and change nothing.
    Any other rational literal is read by Fraction, and a decimal point or
    exponent as the binary64 value, and gives that value's reduced pair."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        # isdecimal admits only digits both read; int would also take the
        # signs, spaces and underscores that Fraction rejects beside the slash
        if num.isdecimal() and (den.isdecimal() or not slash):
            p, q = int(num), int(den) if slash else 1
            if q:
                return p, q
            raise ZeroDivisionError     # as Fraction(p, 0) raises it
        if slash or ("." not in text and "e" not in text.lower()):
            x = Fraction(text)
        else:
            x = Fraction(float(text))
    except (ZeroDivisionError, OverflowError):
        # a zero denominator, or a float literal that overflows to infinity
        raise InputError(f"line {lineno}: {text!r} is not a finite rational") from None
    return x.numerator, x.denominator


def _ratio(num: int, den: int) -> str:
    """The cells num,den,decimal of num/den: the fraction in lowest terms, and
    its decimal as dec12 prints it."""
    g = math.gcd(num, den)
    x = num / den
    if abs(x) >= LEAST_NORMAL or not num:
        # _decimal's float path in the same format: cesaro runs this per row
        return "%d,%d,%.12g" % (num // g, den // g, x)
    return "%d,%d,%s" % (num // g, den // g, _decimal(num, den))


class _Cells(dict):
    """num -> _ratio(num, den) for one den, made at the first lookup of each
    num.  The numerators of a corr or dl block repeat, so each distinct one
    is reduced and formatted once, and kept as one string; the rows look
    their cells up as Output writes them.  A table holds at most about one
    block's values: `over` replaces it when the den changes or once it
    holds BLOCK entries."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, num: int) -> str:
        cells = self[num] = _ratio(num, self.den)
        return cells

    def over(self, den: int) -> _Cells:
        """The table for a block over den: this one, while it is over den and
        holds fewer than BLOCK values, else a new one."""
        return self if self.den == den and len(self) < BLOCK else _Cells(den)


def _json_value_row(row: Sequence) -> list:
    """A row of `Output.emit_values` with its value's cells read back."""
    *keys, value = row
    num, den, decimal = value.split(",")
    return [*keys, int(num), int(den), decimal]


class Output:
    """Writes rows as CSV or JSON, deterministically, a chunk of rows at a
    time as the rows are made: memory is set by the chunk and by what the
    command's rows hold, and every check of the command must come before the
    first row.  Every printed number is the program's own, so the int -> str
    digit limit is lifted while the rows are made and written, and the
    caller's limit restored after."""

    CSV_CHUNK = 4096   # rows formatted, joined and written at a time, in either format

    def __init__(self, fmt: str, out: str | None, seed: int):
        self.fmt = fmt
        self.out = out
        self.seed = seed

    def emit_rows(self, header: list[str], rows: Iterable[Sequence], meta: dict) -> None:
        """One cell per column, each printed as str prints it."""
        self._write(self._chunks(header, iter(rows), meta, len(header)))

    def emit_values(self, keys: list[str], rows: Iterable[Sequence], meta: dict) -> None:
        """Rows of key cells and one exact value, in the columns keys, num,
        den and decimal: each row's last cell is the value's `_ratio` text,
        which CSV writes as it is and JSON reads back into its cells."""
        rows = map(_json_value_row, rows) if self.fmt == "json" else iter(rows)
        self._write(self._chunks(keys + ["num", "den", "decimal"], rows, meta, len(keys) + 1))

    def emit_json(self, payload: dict) -> None:
        # map is lazy: the document is made once _write has lifted the limit
        self._write(map(self._document, [payload]))

    def _document(self, payload: dict) -> str:
        import json
        # default=str prints any other cell as str, as %s does in CSV
        return json.dumps(dict(payload, seed=self.seed), sort_keys=True, indent=2,
                          default=str) + "\n"

    def _chunks(self, header: list[str], rows: Iterator[Sequence], meta: dict,
                width: int) -> Iterator[str]:
        """The head, each chunk of rows, sep before all but the first, and the
        tail.  The head is made here, where _write has lifted the digit limit,
        and goes out with the first chunk."""
        if self.fmt == "csv":
            line = ",".join(["%s"] * width) + "\n"   # %s formats a cell as str does
            texts = iter(lambda: "".join(
                [line % tuple(row) for row in islice(rows, self.CSV_CHUNK)]), "")
            text = next(texts, "")
            head, sep, tail = "# seed=%d %s\n%s\n" % (self.seed, " ".join(
                "%s=%s" % (k, meta[k]) for k in sorted(meta)), ",".join(header)), "", ""
        else:
            import json
            dump = json.JSONEncoder(indent=2, default=str).encode
            # a chunk as one list, less "[\n  " and "\n]", one level in: as the document nests rows
            texts = iter(lambda: dump(list(islice(rows, self.CSV_CHUNK)))[4:-2]
                         .replace("\n", "\n  "), "")
            text = next(texts, "")
            # the document cut at its two rows "\0" (argv holds no NUL), or with none
            doc = self._document(dict(meta, columns=header, rows=["\0"] * 2 if text else []))
            head, sep, tail = doc.split(dump("\0")) if text else (doc, "", "")
        yield head + text
        del text   # no chunk's text is held while the next one is made
        yield from map(sep.__add__, texts)
        if tail:
            yield tail

    def _write(self, chunks: Iterator[str]) -> None:
        """The target is opened once the first chunk is made, so an error in
        making it leaves no output and no file."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            first = next(chunks)
            target = open(self.out, "w", encoding="utf-8", newline="\n") if self.out \
                else nullcontext(sys.stdout)
            with target as fh:
                fh.write(first)
                fh.writelines(chunks)
        finally:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# caps

def _cap(name: str, lo: int, hi: int, cap: int) -> None:
    """Refuse the run lo..hi if it passes cap, naming its first value over it."""
    if hi > cap:
        raise SizeError(f"{name} = {max(lo, cap + 1)} exceeds cap {cap}")


def _stage(k: int) -> int:
    """k, if it is within the stage bound.  A negative stage is left to the
    library, which refuses it where the computation first meets it."""
    if k > MAX_STAGE:
        raise SizeError(f"stage {k} exceeds cap {MAX_STAGE}")
    return k


# ---------------------------------------------------------------------------
# subcommands

def _blocks(window: range, size: int) -> Iterator[range]:
    """window in consecutive pieces of at most size values."""
    return (window[i:i + size] for i in range(0, len(window), size))


def _abs_span(ns: range) -> tuple[int, int]:
    """The least and greatest |n| over the nonempty range ns."""
    lo = 0 if ns[0] <= 0 <= ns[-1] else min(abs(ns[0]), abs(ns[-1]))
    return lo, max(-ns[0], ns[-1])


def cmd_dl(args, out: Output) -> int:
    ls = parse_range(args.l)
    # the first index's errors (l < 0, over the cap, a negative stage), then the
    # first index over the cap: what building the rows in order would meet
    if ls[0] < 0:
        raise DomainError(f"l = {ls[0]} < 0")
    _cap("l", ls[0], ls[0], args.cap_l)
    tower.height(_stage(args.k))
    _cap("l", ls[0], ls[-1], args.cap_l)

    def rows() -> Iterator[tuple]:
        cells = _Cells(0)
        # each d_l' of a block of indices is over its own 2 * 3^e, read here
        # over the block's largest e: one den per block
        for block in _blocks(ls, BLOCK // 27):
            run = correlation.dl_run(args.k, block[0], block[-1])
            e = max(d.e for d in run)
            cells = cells.over(2 * 3 ** e)
            for l, d in zip(block, run):
                scale = 3 ** (e - d.e)
                for n, m in enumerate(d.nums, d.start):
                    yield l, n, cells[m * scale]

    out.emit_values(["l", "n"], rows(), {"command": "dl", "k": args.k})
    return EXIT_OK


def cmd_corr(args, out: Output) -> int:
    ns = parse_range(args.n)
    # a cap error names the first row over the cap: this one, or else the
    # first n over it in the series below
    _cap("n", abs(ns[0]), abs(ns[0]), args.cap_n)
    _cap("n", *_abs_span(ns), args.cap_n)
    tower.height(_stage(args.k))

    def rows() -> Iterator[tuple]:
        cells = _Cells(0)
        # c_k is even in n: one series over |n| covers a block of rows
        for block in _blocks(ns, BLOCK):
            lo, hi = _abs_span(block)
            nums, p = correlation.series_numerators(args.k, lo, hi)
            cells = cells.over(3 ** p)
            yield from ((n, cells[nums[abs(n) - lo]]) for n in block)

    out.emit_values(["n"], rows(), {"command": "corr", "k": args.k})
    return EXIT_OK


def cmd_cesaro(args, out: Output) -> int:
    # the checks of cesaro_totals in its order: N, the stage, then the window
    if args.n_max < 1:
        raise DomainError(f"N = {args.n_max} < 1")
    correlation.mu_Ak(_stage(args.k))
    _cap("n", 0, args.n_max - 1, args.cap_n)
    totals, den = correlation.cesaro_totals(args.k, args.n_max)
    # a running mean rarely repeats: each row is reduced and formatted anew
    rows = ((n, _ratio(t, den * n)) for n, t in enumerate(totals, 1))
    out.emit_values(["N"], rows, {"command": "cesaro", "k": args.k})
    return EXIT_OK


def cmd_jset(args, out: Output) -> int:
    from . import exceptional
    if args.n_max < 0:
        raise DomainError(f"N-max = {args.n_max} < 0")
    _cap("n", args.n_max, args.n_max, args.cap_n)
    h = exceptional.HFunction.parse(args.h)
    _stage(args.k)
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
    meta["count"] = jset.count(args.n_max)
    out.emit_rows(["lo", "hi", "count_cum"], jset.counted(), meta)
    return EXIT_OK


def cmd_eset(args, out: Output) -> int:
    from . import exceptional
    l_max = parse_range(args.l)[-1]   # max() would walk the whole range
    _cap("l", l_max, l_max, args.cap_l)
    # enumerate_Ek's first check, then the stage
    if l_max < 0:
        raise DomainError(f"l = {l_max} < 0")
    ek, covered = exceptional.enumerate_Ek(_stage(args.k), l_max)
    out.emit_rows(["lo", "hi", "count_cum"], ek.counted(),
                  {"command": "eset", "k": args.k, "l_max": l_max,
                   "covered": covered, "count": ek.count(covered)})
    return EXIT_OK


def cmd_extract(args, out: Output) -> int:
    from . import exceptional
    # one integer column pair per series column, in file order; b and c get a
    # term only from the rows that fill them.  row holds each n in file order
    a, b, c = (exceptional.Column([], []) for _ in range(3))
    row: dict[int, None] = {}
    with open(args.series, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("n,"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise InputError(f"line {lineno}: expected columns n, a [, b [, c]]")
            n = int(parts[0])
            if n in row:
                raise InputError(f"line {lineno}: repeated n = {n}")
            row[n] = None
            for col, cell in zip((a, b, c), parts[1:4]):
                # an empty b or c cell leaves its column short, caught below
                if col is a or cell.strip():
                    num, den = _parse_value(cell, lineno)
                    col.num.append(num)
                    col.den.append(den)
    if not row:
        raise InputError(f"no data rows in {args.series}")
    n_max = max(row)
    # the keys are distinct integers: this is row == {0..n_max} without building it
    if min(row) != 0 or len(row) != n_max + 1:
        raise InputError("series must cover every n from 0 to its maximum")
    for name, col in (("b", b), ("c", c)):
        if col.num and len(col.num) != n_max + 1:
            raise InputError(f"{name} column must cover every n when present")
    if any(n != i for i, n in enumerate(row)):
        # the rows came out of order: put each column's terms in the order of n.
        # order is the argsort of the file's n's, a permutation's inverse
        order = [0] * (n_max + 1)
        for i, n in enumerate(row):
            order[n] = i
        for col in (a, b, c):
            if col.num:
                col.num[:] = [col.num[i] for i in order]
                col.den[:] = [col.den[i] for i in order]
    del row     # about 0.5 MB on a 2^13-row series: free it before the extractor runs
    if not b.num:
        # b_0 = 0 and b_n = (a_0 + ... + a_(n-1)) / n, over n times the sum's den
        run = Fraction(0)
        for n in range(n_max + 1):
            b.num.append(run.numerator)
            b.den.append(run.denominator * max(n, 1))
            if a.num[n]:
                run += Fraction(a.num[n], a.den[n])
    if not c.num:
        for n in range(n_max + 1):
            num, den = (1 / math.log(n + 2)).as_integer_ratio()
            c.num.append(num)
            c.den.append(den)

    res = exceptional.extract_exceptional(a, b, c, n_max)
    rows = [["l_k", k + 1, lk] for k, lk in enumerate(res.thresholds)]
    rows += [["interval", lo, hi] for lo, hi in res.exceptional.intervals]
    out.emit_rows(["kind", "x", "y"], rows,
                  {"command": "extract", "n_max": n_max,
                   "count": len(res.exceptional)})
    return EXIT_OK


def cmd_apply_t(args, out: Output) -> int:
    x = TriadicRational.parse(args.point)
    n = int(args.n)
    if abs(n) > args.cap_n:
        raise SizeError(f"n = {n} exceeds cap {args.cap_n}")
    y = tower.apply_T_power(x, n)
    q = y.as_fraction()
    out.emit_rows(["n", "point", "image", "decimal"],
                  [[n, x, y, dec12(q)]],
                  {"command": "apply-t"})
    return EXIT_OK


def cmd_locate(args, out: Output) -> int:
    x = TriadicRational.parse(args.point)
    addr = tower.locate(x, _stage(args.k))
    level = "" if addr.level is None else addr.level
    out.emit_rows(["k", "level", "offset_num", "offset_den", "decimal"],
                  [[args.k, level, addr.offset.numerator, addr.offset.denominator,
                    dec12(addr.offset)]],
                  {"command": "locate",
                   "region": "spacer_remainder" if addr.level is None else "level"})
    return EXIT_OK


def cmd_verify(args, out: Output) -> int:
    import random

    from . import constants
    from .checks import SUITE
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

    def common(p: argparse.ArgumentParser, cap_l: bool = False, cap_n: bool = False,
               fmt: bool = True) -> None:
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        if cap_l:
            p.add_argument("--cap-l", type=int, default=DEFAULT_MAX_L)
        if cap_n:
            p.add_argument("--cap-n", type=int, default=DEFAULT_MAX_N)

    p = sub.add_parser("dl", help="return-time distribution masses")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", required=True, help="index or range A..B")
    common(p, cap_l=True)
    p.set_defaults(fn=cmd_dl)

    p = sub.add_parser("corr", help="autocorrelation series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", required=True, help="time or range A..B")
    common(p, cap_n=True)
    p.set_defaults(fn=cmd_corr)

    p = sub.add_parser("cesaro", help="running Cesaro averages of deviations")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N-max", dest="n_max", type=int, required=True)
    common(p, cap_n=True)
    p.set_defaults(fn=cmd_cesaro)

    p = sub.add_parser("jset", help="exceptional time sets")
    p.add_argument("--k", type=int, required=True,
                   help="stage (layer mode) or maximal stage (global mode)")
    p.add_argument("--h", default="linear")
    p.add_argument("--N-max", dest="n_max", type=int, required=True)
    p.add_argument("--global", dest="global_set", action="store_true")
    common(p, cap_n=True)
    p.set_defaults(fn=cmd_jset)

    p = sub.add_parser("eset", help="zero-correlation times")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", required=True, help="index bound or range")
    common(p, cap_l=True)
    p.set_defaults(fn=cmd_eset)

    p = sub.add_parser("extract", help="generic exceptional-set extractor")
    p.add_argument("series", help="CSV with columns n, a_n [, b_n [, c_n]]")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("verify", help="deterministic verification suite")
    p.add_argument("--suite", choices=("all",), default="all")
    # the report is one JSON document: a default, not an option
    common(p, fmt=False)
    p.set_defaults(fn=cmd_verify, format="json")

    p = sub.add_parser("apply-t", help="apply the map at a triadic point")
    p.add_argument("point", help="p/3^m, 0.a1a2..., or a plain fraction")
    p.add_argument("--n", default="1", help="power (may be negative)")
    common(p, cap_n=True)
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
    except (SizeError, OverflowError) as exc:   # oracle.FragmentationError too
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:   # DomainError and InputError too
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
