import argparse
import hashlib
import inspect
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaconlab import checks, cli, constants, correlation, exceptional, oracle, tower, triadic
from chaconlab.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    Output,
    _parse_value,
    build_parser,
    dec12,
    main,
    parse_range,
)
from chaconlab.correlation import autocorrelation, correlation_series, dl_run, mu_Ak
from chaconlab.exceptional import HFunction, IntegerIntervalSet, build_Jk
from chaconlab.tower import apply_T_power, height, locate
from chaconlab.triadic import MAX_STAGE, SizeError, TriadicRational


def chacon_env():
    """The environment with the package's src/ first on PYTHONPATH."""
    src = str(Path(correlation.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def chacon(*argv, timeout):
    """Exit code, stdout and stderr of the command in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "chaconlab.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=chacon_env())


class TestLeanStart:
    # a command imports only what it runs: dataclasses would pull in inspect,
    # ast, dis and tokenize, and the verify stack is verify's alone

    def loaded_after(self, *argv):
        """The modules loaded once main has run argv in a fresh interpreter."""
        probe = ("import sys\nfrom chaconlab.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\nprint(*sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe, *argv, "--out", os.devnull],
                              capture_output=True, text=True, timeout=60, env=chacon_env())
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_dl_loads_no_verify_stack(self):
        loaded = self.loaded_after("dl", "--k", "1", "--l", "0")
        assert "chaconlab.correlation" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "chaconlab.exceptional",
                                  "chaconlab.checks", "chaconlab.oracle",
                                  "chaconlab.constants", "json"})

    def test_jset_loads_no_oracle(self):
        loaded = self.loaded_after("jset", "--k", "1", "--N-max", "1000")
        assert "chaconlab.exceptional" in loaded
        assert loaded.isdisjoint({"dataclasses", "chaconlab.oracle", "chaconlab.checks"})


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def csv_rows(text):
    lines = text.splitlines()
    assert lines[0].startswith("# seed=")
    return lines[0], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def decimal_12g(q):
    """q, below 1e-5 in size, to 12 significant digits by decimal at 60 digits,
    in the exponent layout of %.12g: trailing zeros and a bare point dropped."""
    with localcontext() as ctx:
        ctx.prec = 60
        text = format(Decimal(q.numerator) / Decimal(q.denominator), ".12g")
    mantissa, _, exponent = text.partition("e")
    return mantissa.rstrip("0").rstrip(".") + "e" + exponent


class TestHelpers:
    def test_parse_range(self):
        assert list(parse_range("3..6")) == [3, 4, 5, 6]
        assert list(parse_range("7")) == [7]
        with pytest.raises(ValueError):
            parse_range("5..3")

    def test_dec12_reparses_to_twelve_digits(self):
        for q in (Fraction(2, 3), Fraction(1, 7), Fraction(5, 9) ** 4):
            err = abs(Fraction(dec12(q)) - q)
            assert err <= abs(q) * Fraction(1, 10 ** 11)

    def test_dec12_below_the_least_normal_float(self):
        # subnormal floats and those that are 0 for a nonzero value, a tie
        # either way, a carry into the exponent, and both signs
        rng = random.Random(308)
        values = [Fraction(rng.randrange(1, 10 ** 20), 10 ** rng.randrange(20, 360))
                  for _ in range(300)] + [
            Fraction(2, 3 ** 701), Fraction(2, 3 ** 661), Fraction(1, 3 ** 700),
            Fraction(1234567890125, 10 ** 332), Fraction(1234567890135, 10 ** 332),
            Fraction(9999999999995, 10 ** 332), Fraction(1, 10 ** 320)]
        for q in values + [-q for q in values]:
            x = q.numerator / q.denominator
            if x == 0 or abs(x) < sys.float_info.min:
                assert dec12(q) == decimal_12g(q), q
            else:
                assert dec12(q) == "%.12g" % x, q


class TestDl:
    def test_small_table(self, tmp_path):
        code, text = run(tmp_path, "dl", "--k", "1", "--l", "0..3")
        assert code == EXIT_OK
        header_line, header, rows = csv_rows(text)
        assert header == ["l", "n", "num", "den", "decimal"]
        table = {(int(r[0]), int(r[1])): Fraction(int(r[2]), int(r[3])) for r in rows}
        assert table == {
            (0, 0): Fraction(1),
            (1, 4): Fraction(1, 2), (1, 5): Fraction(1, 2),
            (2, 8): Fraction(1, 6), (2, 9): Fraction(2, 3), (2, 10): Fraction(1, 6),
            (3, 13): Fraction(1, 2), (3, 14): Fraction(1, 2),
        }

    def test_decimal_column_reparses(self, tmp_path):
        _, text = run(tmp_path, "dl", "--k", "2", "--l", "0..20")
        _, _, rows = csv_rows(text)
        for r in rows:
            q = Fraction(int(r[2]), int(r[3]))
            assert abs(Fraction(r[4]) - q) <= q * Fraction(1, 10 ** 11)

    def test_seed_in_header(self, tmp_path):
        _, text = run(tmp_path, "dl", "--k", "1", "--l", "0", "--seed", "42")
        assert text.splitlines()[0].startswith("# seed=42 ")

    def test_json_format(self, tmp_path):
        code, text = run(tmp_path, "dl", "--k", "1", "--l", "0..1", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["columns"] == ["l", "n", "num", "den", "decimal"]
        assert payload["rows"][0][:4] == [0, 0, 1, 1]
        assert payload["seed"] == 0

    def test_byte_identical_repeats(self, tmp_path):
        _, first = run(tmp_path, "dl", "--k", "1", "--l", "0..30", "--seed", "9")
        _, second = run(tmp_path, "dl", "--k", "1", "--l", "0..30", "--seed", "9")
        assert first == second


class TestCorr:
    def test_single_value(self, tmp_path):
        code, text = run(tmp_path, "corr", "--k", "1", "--n", "0..0")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert rows == [["0", "2", "9", dec12(Fraction(2, 9))]]

    def test_cap_exceeded(self, tmp_path):
        code, _ = run(tmp_path, "corr", "--k", "1", "--n", "200", "--cap-n", "100")
        assert code == EXIT_RESOURCE

    def test_range_straddling_zero(self, tmp_path):
        code, text = run(tmp_path, "corr", "--k", "1", "--n=-300..400")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert [int(r[0]) for r in rows] == list(range(-300, 401))
        for n, num, den, _ in rows:
            assert Fraction(int(num), int(den)) == autocorrelation(1, abs(int(n)))

    def test_cap_names_first_row_over_it(self, tmp_path, capsys):
        code, text = run(tmp_path, "corr", "--k", "1", "--n=-600..10", "--cap-n", "500")
        assert (code, text) == (EXIT_RESOURCE, "")
        assert capsys.readouterr().err == "resource cap: n = 600 exceeds cap 500\n"

    def test_negative_stage_is_invalid(self, tmp_path):
        code, _ = run(tmp_path, "corr", "--k", "-2", "--n", "3")
        assert code == EXIT_INPUT

    def test_time_cap_alone_bounds_the_window(self, tmp_path):
        # n = 3000000 needs l = 666666, past 3^12, the default index cap of dl
        code, text = run(tmp_path, "corr", "--k", "1", "--n", "3000000",
                         "--cap-n", "3000000")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert [Fraction(int(rows[0][1]), int(rows[0][2]))] == correlation_series(
            1, 3_000_000, 3_000_000)

    @pytest.mark.parametrize("k", [0, 1])
    def test_top_of_default_window_runs(self, tmp_path, k):
        # the last times below the default --cap-n need l past 3^12 at stages
        # 0 and 1, as they do not at stage 2
        lo, hi = 3 ** 14 - 10, 3 ** 14 - 1
        code, text = run(tmp_path, "corr", "--k", str(k), "--n", f"{lo}..{hi}")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert [int(r[0]) for r in rows] == list(range(lo, hi + 1))
        assert [Fraction(int(r[1]), int(r[2])) for r in rows] == correlation_series(k, lo, hi)

    def test_far_window_renormalizes_to_next_stage(self, capsys):
        # a d_l' build that recursed once per ternary digit of l would pass the
        # recursion limit here; each row must satisfy the stage-renormalization
        # identity c_1(n) = sum of c_2(n + b - a) over a, b in {0, h_1, 2h_1 + 1}
        n0, cap = 3 ** 1000, str(10 ** 600)
        capsys.readouterr()
        assert main(["corr", "--k", "1", "--n", f"{n0}..{n0 + 20}",
                     "--cap-n", cap]) == EXIT_OK
        out, err = capsys.readouterr()
        rows = [ln.split(",") for ln in out.splitlines()[2:]]
        assert err == "" and len(rows) == 21
        assert sum(num != "0" for _, num, _, _ in rows) == 20
        h = height(1)
        shifts = [b - a for a in (0, h, 2 * h + 1) for b in (0, h, 2 * h + 1)]
        lo, hi = n0 + min(shifts), n0 + 20 + max(shifts)
        c2 = correlation_series(2, lo, hi)
        for i, (n, num, den, _) in enumerate(rows):
            assert int(n) == n0 + i
            assert Fraction(int(num), int(den)) == sum(c2[n0 + i + s - lo] for s in shifts)


class TestCesaro:
    def test_running_average(self, tmp_path):
        code, text = run(tmp_path, "cesaro", "--k", "1", "--N-max", "5")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert len(rows) == 5
        assert Fraction(int(rows[-1][1]), int(rows[-1][2])) == Fraction(31, 405)

    def test_empty_average_is_invalid(self, tmp_path):
        code, _ = run(tmp_path, "cesaro", "--k", "1", "--N-max", "0")
        assert code == EXIT_INPUT

    def test_cap_exceeded(self, tmp_path):
        code, _ = run(tmp_path, "cesaro", "--k", "1", "--N-max", "50", "--cap-n", "20")
        assert code == EXIT_RESOURCE

    def test_negative_stage_is_invalid(self, tmp_path):
        code, _ = run(tmp_path, "cesaro", "--k", "-2", "--N-max", "5")
        assert code == EXIT_INPUT


def test_series_output_pinned(capsys):
    # exit code, stdout and stderr of corr, cesaro and dl: ranges across 0,
    # both cap errors and dl ranges on three stages
    commands = [
        ["corr", "--k", "1", "--n=-40..60"],
        ["corr", "--k", "2", "--n=-7..3", "--format", "json"],
        ["corr", "--k", "3", "--n", "500..540"],
        ["corr", "--k", "1", "--n=-600..10", "--cap-n", "500"],
        ["cesaro", "--k", "1", "--N-max", "40"],
        ["cesaro", "--k", "2", "--N-max", "30", "--format", "json"],
        ["cesaro", "--k", "1", "--N-max", "50", "--cap-n", "20"],
        ["dl", "--k", "1", "--l", "0..40"],
        ["dl", "--k", "2", "--l", "100..110", "--seed", "3"],
        ["dl", "--k", "3", "--l", "5..7", "--format", "json"],
        ["dl", "--k", "1", "--l", "40..60", "--cap-l", "50"],
    ]
    capsys.readouterr()
    digest = hashlib.sha256()
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}{captured.err}".encode("utf-8"))
    # recorded at commit b44d646, the last one where corr and cesaro took --cap-l
    assert digest.hexdigest() == (
        "b4dc00aa4ce4614e0a0fc8f064cfadf9498cfdc7e8d87864c0f2d158c931bb49")


def test_blocked_series_output_pinned(capsys):
    # exit code, stdout and stderr, CSV and JSON, of windows that span several
    # blocks: corr across 0 and wholly below it, widths 3^8 - 1, 3^8 and
    # 3^8 + 1 (the block and either side of it), a cesaro window whose blocks
    # differ in p, and dl over many blocks of indices
    commands = [
        ["corr", "--k", "1", "--n=-20000..7000"],
        ["corr", "--k", "2", "--n=-9000..-7000"],
        ["corr", "--k", "1", "--n", "0..6559"],
        ["corr", "--k", "1", "--n", "0..6560"],
        ["corr", "--k", "1", "--n", "0..6561"],
        ["cesaro", "--k", "1", "--N-max", "30000"],
        ["dl", "--k", "1", "--l", "0..3000"],
        ["dl", "--k", "2", "--l", "2377..4563"],
    ]
    capsys.readouterr()
    digest = hashlib.sha256()
    for argv in commands:
        for fmt in ("csv", "json"):
            code = main(argv + ["--format", fmt])
            captured = capsys.readouterr()
            digest.update(f"{code}\n{captured.out}{captured.err}".encode("utf-8"))
    # recorded at commit cb036f8, which read each window whole
    assert digest.hexdigest() == (
        "60479a21e85584d4ed7de330c96e8d90d2e67a78acf4c218c04df522a9e221f7")


class TestBlocks:
    # corr, cesaro and dl read their windows a block at a time

    @pytest.mark.parametrize("command, flag, narrow, wide", [
        ("corr", "--n", f"0..{3 ** 9 - 1}", f"0..{3 ** 11 - 1}"),
        ("cesaro", "--N-max", str(3 ** 9), str(3 ** 11)),
        ("dl", "--l", f"0..{3 ** 7 - 1}", f"0..{3 ** 9 - 1}"),
    ])
    def test_heap_peak_is_set_by_the_block(self, tmp_path, command, flag, narrow, wide):
        # in either format, a window nine times wider may at most double the
        # traced heap peak
        path = str(tmp_path / "out.txt")

        def peak(window, fmt):
            argv = [command, "--k", "1", flag, window, "--format", fmt, "--out", path]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for fmt in ("csv", "json"):
            peak(narrow, fmt)   # any one-time allocation lands here, not in the runs compared
            assert peak(wide, fmt) <= 2 * peak(narrow, fmt), fmt

    def test_failing_window_prints_nothing(self, tmp_path, capsys, monkeypatch):
        # every check runs before the first block is built
        calls = []
        for name in ("series_numerators", "deviation_blocks"):
            build = getattr(correlation, name)
            monkeypatch.setattr(correlation, name,
                                lambda *a, build=build: calls.append(a) or build(*a))
        path = tmp_path / "out.txt"
        cases = [(["corr", "--k", "1", "--n", "0..20000", "--cap-n", "100"],
                  "resource cap: n = 101 exceeds cap 100\n"),
                 (["corr", "--k", "1", "--n=-20000..100", "--cap-n", "19999"],
                  "resource cap: n = 20000 exceeds cap 19999\n"),
                 (["cesaro", "--k", "1", "--N-max", "20000", "--cap-n", "100"],
                  "resource cap: n = 101 exceeds cap 100\n")]
        for argv, err in cases:
            for extra in ([], ["--out", str(path)]):
                capsys.readouterr()
                assert main(argv + extra) == EXIT_RESOURCE
                assert capsys.readouterr() == ("", err)
                assert not path.exists()
                assert calls == [], argv


def readme_commands(tmp_path):
    """The argv of each `chacon ...` line of the README's command-line block,
    with its series.csv written to tmp_path."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    series = tmp_path / "series.csv"
    a, b, c = checks.power_of_two_series(300)
    series.write_text("n,a,b,c\n" + "".join(
        f"{n}," + ",".join(f"{col.num[n]}/{col.den[n]}" for col in (a, b, c)) + "\n"
        for n in range(301)), encoding="utf-8")
    return [[str(series) if arg == "series.csv" else arg
             for arg in shlex.split(line, comments=True)[1:]]
            for line in block.splitlines() if line.startswith("chacon ")]


def test_readme_commands_run(tmp_path, capsys):
    # every `chacon ...` line of the README's command-line block answers
    commands = readme_commands(tmp_path)
    assert len(commands) == 10
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        assert capsys.readouterr().out, argv


# the public functions that no command and no verify check reaches, each with
# the reason it stays
UNREACHED = {
    "exceptional.IntegerIntervalSet.count":
        "criteria 10 and 11 read counts at points of a grid; jset and eset count their streams",
    "correlation.autocorrelation":
        "perfbench's probe workload calls it (child.py); it goes with the benchmark's next change",
    "correlation.cell_correlation":
        "perfbench's probe workload calls it (child.py); it goes with the benchmark's next change",
}


def public_functions():
    """'module.name' or 'module.Class.name' -> code object, for every public
    function and method of the library modules that run commands.  Names
    with a leading underscore are skipped: private helpers, and the dunders
    that serve a type's contract with the interpreter.  So are the methods
    that NamedTuple generates, whose module is collections."""
    found = {}
    for module in (correlation, exceptional, oracle, tower, triadic, constants, cli):
        short = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{short}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else \
                        getattr(member, "__func__", member)
                    if (not attr.startswith("_") and inspect.isfunction(fn)
                            and fn.__module__ == module.__name__):
                        found[f"{short}.{name}.{attr}"] = fn.__code__
    return found


def test_every_public_function_is_reached(tmp_path, capsys):
    # the README's commands, jset under each growth family, a backward
    # apply-t and JSON corr, profiled in this process: each public function
    # runs in one of them, or UNREACHED says why it stays
    table = tmp_path / "h.csv"
    table.write_text("x,y\n1,1\n4,2\n8,3\n", encoding="utf-8")
    runs = readme_commands(tmp_path) + [
        ["jset", "--k", "2", "--h", h, "--N-max", "10000", *mode]
        for h in ("log", "loglog", "power:0.5", f"table:{table}") for mode in ([], ["--global"])
    ] + [["apply-t", "1/3^2", "--n=-3"], ["corr", "--k", "1", "--n", "0..20", "--format", "json"]]
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [EXIT_OK] * len(runs)
    missed = {name for name, code in public_functions().items() if code not in reached}
    assert missed == set(UNREACHED)


CHUNK = Output.CSV_CHUNK


def stdout_rows(capsys, argv):
    """The data rows main prints for argv, as lists of cells."""
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    return [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]


def value_row(*key, value):
    return [*key, value.numerator, value.denominator, dec12(value)]


def fraction_row(*key, value):
    return [str(c) for c in value_row(*key, value=value)]


class TestRowsFromNumerators:
    # each window crosses the CSV chunk size at least twice

    def test_corr_matches_fractions(self, capsys):
        # a window through 0, where values repeat often, and a far one, where
        # they hardly repeat
        lo, hi = -CHUNK - 50, 2 * CHUNK + 50
        series = correlation_series(1, 0, hi)
        assert 0 in series
        expected = [fraction_row(n, value=series[abs(n)]) for n in range(lo, hi + 1)]
        assert stdout_rows(capsys, ["corr", "--k", "1", f"--n={lo}..{hi}"]) == expected
        lo, hi, cap = 3 ** 30, 3 ** 30 + 20000, str(3 ** 31)
        series = correlation_series(1, lo, hi)
        assert len(set(series)) > len(series) * 9 // 10
        expected = [fraction_row(n, value=c) for n, c in enumerate(series, lo)]
        assert stdout_rows(capsys, ["corr", "--k", "1", f"--n={lo}..{hi}",
                                    "--cap-n", cap]) == expected

    def test_cesaro_matches_fractions(self, capsys):
        big_n = 2 * CHUNK + 100
        target = mu_Ak(1) ** 2
        total, expected = Fraction(0), []
        for m, c in enumerate(correlation_series(1, 0, big_n - 1), 1):
            total += abs(c - target)
            expected.append(fraction_row(m, value=total / m))
        assert stdout_rows(capsys, ["cesaro", "--k", "1", "--N-max", str(big_n)]) == expected

    def test_dl_matches_fractions(self, capsys):
        expected = []
        for l, d in enumerate(dl_run(2, 0, 2000)):
            expected += [fraction_row(l, n, value=m) for n, m in enumerate(d.masses, d.start)]
        assert len(expected) > 2 * CHUNK
        assert stdout_rows(capsys, ["dl", "--k", "2", "--l", "0..2000"]) == expected

    def test_csv_is_written_a_chunk_at_a_time(self, monkeypatch):
        made, writes = [], []

        def rows():
            for i in range(3 * CHUNK + 5):
                made.append(i)
                yield i, i * i

        class Sink:
            # records how many rows were made at each write
            def write(self, text):
                writes.append((len(made), text))

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        Output("csv", None, 4).emit_rows(["a", "b"], rows(), {"command": "t"})
        assert [n for n, _ in writes] == [CHUNK, 2 * CHUNK, 3 * CHUNK, 3 * CHUNK + 5]
        assert "".join(text for _, text in writes) == "# seed=4 command=t\na,b\n" + "".join(
            f"{i},{i * i}\n" for i in range(3 * CHUNK + 5))


class TestOutFile:
    def test_out_gets_the_bytes_of_stdout(self, tmp_path, capsys):
        commands = [["corr", "--k", "1", f"--n=-100..{2 * CHUNK}"],
                    ["cesaro", "--k", "2", "--N-max", str(CHUNK + 1)],
                    ["dl", "--k", "1", "--l", "0..1500"],
                    ["jset", "--k", "1", "--N-max", "200000"]]
        path = tmp_path / "out.txt"
        for argv in commands:
            for fmt in ("csv", "json"):
                full = argv + ["--format", fmt, "--seed", "11"]
                capsys.readouterr()
                assert main(full) == EXIT_OK
                printed = capsys.readouterr().out
                assert main(full + ["--out", str(path)]) == EXIT_OK
                assert capsys.readouterr().out == ""
                assert path.read_bytes() == printed.encode("utf-8"), full

    def test_failing_dl_prints_nothing(self, tmp_path, capsys, monkeypatch):
        calls = []
        build = correlation.dl_run
        monkeypatch.setattr(correlation, "dl_run",
                            lambda *a, **kw: calls.append(a) or build(*a, **kw))
        path = tmp_path / "out.txt"
        cases = [(["dl", "--k", "1", "--l", "0..60001", "--cap-l", "60000"],
                  EXIT_RESOURCE, "resource cap: l = 60001 exceeds cap 60000\n"),
                 (["dl", "--k", "1", "--l", "70000..70001", "--cap-l", "60000"],
                  EXIT_RESOURCE, "resource cap: l = 70000 exceeds cap 60000\n"),
                 (["dl", "--k", "1", "--l=-3..5"], EXIT_INPUT, "invalid input: l = -3 < 0\n"),
                 (["dl", "--k", "-1", "--l", "0..70000", "--cap-l", "60000"],
                  EXIT_INPUT, "invalid input: stage -1 < 0\n")]
        for argv, code, err in cases:
            for extra in ([], ["--out", str(path)]):
                calls.clear()
                capsys.readouterr()
                assert main(argv + extra) == code
                assert capsys.readouterr() == ("", err)
                assert not path.exists()
                # the whole range is checked before its run is built
                assert calls == [], argv
        capsys.readouterr()
        assert main(["dl", "--k", "1", "--l", "0..3"]) == EXIT_OK
        assert calls == [(1, 0, 3)]

    def test_row_past_digit_limit_prints(self, tmp_path, capsys):
        # at stage 1334 the n column passes 640 digits at l = 2209, more than
        # a chunk of rows after l = 1000
        expected = []
        for l, d in enumerate(dl_run(1334, 1000, 2209), 1000):
            expected += [fraction_row(l, n, value=m) for n, m in enumerate(d.masses, d.start)]
        assert len(expected) > CHUNK and len(expected[-1][1]) > 640
        argv = ["dl", "--k", "1334", "--l", "1000..2209"]
        path = tmp_path / "out.txt"
        with int_digit_limit(640):
            capsys.readouterr()
            assert main(argv) == EXIT_OK
            printed = capsys.readouterr().out
            assert main(argv + ["--out", str(path)]) == EXIT_OK
            assert capsys.readouterr().out == ""
            assert sys.get_int_max_str_digits() == 640
        assert path.read_text(encoding="utf-8") == printed
        assert [ln.split(",") for ln in printed.splitlines()[2:]] == expected

    def test_digit_limit_is_restored(self, tmp_path, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        assert main(["dl", "--k", "1", "--l", "0..3"]) == EXIT_OK
        assert main(["dl", "--k", "1", "--l", "0..3", "--out",
                     str(tmp_path / "missing" / "out.txt")]) == EXIT_INPUT
        assert main(["dl", "--k", "1", "--l", "0..60001", "--cap-l", "60000"]) == EXIT_RESOURCE
        # a cap error raised while the rows are written: dl reads its range as one run
        calls = []

        def dl_run_failing(*a, **kw):
            calls.append(a)
            raise SizeError("cap")

        monkeypatch.setattr(correlation, "dl_run", dl_run_failing)
        assert main(["dl", "--k", "1", "--l", "0..3"]) == EXIT_RESOURCE
        assert calls == [(1, 0, 3)]
        assert sys.get_int_max_str_digits() == limit


@contextmanager
def int_digit_limit(digits):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestDeepStage:
    # every cell below is exact past the default 4300-digit int -> str limit,
    # which still holds while main runs

    def expect(self, capsys, argv, expected):
        for fmt in ("csv", "json"):
            capsys.readouterr()
            assert main(argv + ["--format", fmt]) == EXIT_OK
            text = capsys.readouterr().out
            with int_digit_limit(0):
                if fmt == "csv":
                    assert [ln.split(",") for ln in text.splitlines()[2:]] == [
                        [str(c) for c in row] for row in expected]
                else:
                    assert json.loads(text)["rows"] == expected
                assert max(len(str(c)) for row in expected for c in row) > 4300

    def test_dl(self, capsys):
        d = dl_run(9100, 0, 1)
        self.expect(capsys, ["dl", "--k", "9100", "--l", "0..1"],
                    [value_row(l, n, value=m) for l in (0, 1)
                     for n, m in enumerate(d[l].masses, d[l].start)])

    def test_corr(self, capsys):
        self.expect(capsys, ["corr", "--k", "9100", "--n", "0..2"],
                    [value_row(n, value=c)
                     for n, c in enumerate(correlation_series(9100, 0, 2))])

    def test_cesaro(self, capsys):
        totals, den = correlation.cesaro_totals(4600, 3)
        self.expect(capsys, ["cesaro", "--k", "4600", "--N-max", "3"],
                    [value_row(m, value=Fraction(t, den * m))
                     for m, t in enumerate(totals, 1)])

    def test_decimals_below_the_least_normal_float(self, capsys):
        # c_k(0) = mu(A_k) = 2/3^(k+1) is subnormal at k = 660 and below the
        # least subnormal at k = 700; the points are 1/3^700
        cases = [(["corr", "--k", "660", "--n", "0..0"], Fraction(2, 3 ** 661),
                  "8.39229276812e-316"),
                 (["corr", "--k", "700", "--n", "0..0"], Fraction(2, 3 ** 701),
                  "6.90288180439e-335"),
                 (["locate", "1/3^700", "--k", "1"], Fraction(1, 3 ** 700),
                  "1.03543227066e-334"),
                 (["apply-t", "1/3^700", "--n", "0"], Fraction(1, 3 ** 700),
                  "1.03543227066e-334")]
        for argv, value, decimal in cases:
            capsys.readouterr()
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out.splitlines()[2].rsplit(",", 1)[1] == decimal
            assert decimal_12g(value) == decimal

    def test_apply_t(self, capsys):
        x = TriadicRational.parse("1/3^9100")
        y = apply_T_power(x, -2)
        with int_digit_limit(0):
            expected = [[-2, str(x), str(y), dec12(y.as_fraction())]]
        self.expect(capsys, ["apply-t", "1/3^9100", "--n=-2"], expected)


class TestJsetEset:
    @pytest.mark.parametrize("argv, flag, narrow, wide", [
        (["jset", "--k", "2"], "--N-max", 3 ** 10, 3 ** 12),
        (["eset", "--k", "2"], "--l", 3 ** 8, 3 ** 10),
    ])
    def test_heap_peak_is_set_by_the_chunk(self, tmp_path, argv, flag, narrow, wide):
        # the sets stream their pieces: a window nine times wider may at most
        # double the traced heap peak
        path = str(tmp_path / "out.txt")

        def peak(window):
            tracemalloc.start()
            try:
                assert main(argv + [flag, str(window), "--out", path]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(narrow)   # any one-time allocation lands here, not in the runs compared
        assert peak(wide) <= 2 * peak(narrow)

    def test_power_exponent_that_is_not_a_number_is_named(self, tmp_path, capsys):
        for spec in ("power:abc", "power:1/2", "power:"):
            code, text = run(tmp_path, "jset", "--k", "1", "--h", spec, "--N-max", "10")
            assert (code, text) == (EXIT_INPUT, "")
            assert capsys.readouterr().err == (
                f"invalid input: growth function {spec!r}: exponent is not a number\n")

    def test_layer_mode(self, tmp_path):
        code, text = run(tmp_path, "jset", "--k", "1", "--h", "linear",
                         "--N-max", "2000")
        assert code == EXIT_OK
        _, header, rows = csv_rows(text)
        assert header == ["lo", "hi", "count_cum"]
        prev_hi = -1
        for lo, hi, cum in ((int(a), int(b), int(c)) for a, b, c in rows):
            assert prev_hi < lo <= hi <= 2000
            prev_hi = hi

    def test_non_finite_power_is_invalid(self, tmp_path):
        for h in ("power:nan", "power:inf"):
            code, _ = run(tmp_path, "jset", "--k", "1", "--h", h, "--N-max", "100")
            assert code == EXIT_INPUT

    def test_caps_checked_before_building(self, tmp_path):
        code, _ = run(tmp_path, "eset", "--k", "1", "--l", "1000", "--cap-l", "100")
        assert code == EXIT_RESOURCE
        for extra in ([], ["--global"]):
            code, _ = run(tmp_path, "jset", "--k", "1", "--N-max", "1000",
                          "--cap-n", "100", *extra)
            assert code == EXIT_RESOURCE

    def test_wide_index_range_exits_at_once(self):
        # the top of the range is read, not found by a walk over 10^12 indices
        proc = chacon("eset", "--k", "1", "--l", "0..1000000000000", timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_RESOURCE, "", "resource cap: l = 1000000000000 exceeds cap 531441\n")

    def test_negative_bounds_are_invalid(self, tmp_path, capsys):
        for argv in (["eset", "--k", "1", "--l=-5"], ["eset", "--k", "1", "--l=-1"],
                     ["jset", "--k", "1", "--N-max=-5"],
                     ["jset", "--k", "1", "--N-max=-5", "--global"]):
            code, text = run(tmp_path, *argv)
            assert code == EXIT_INPUT and text == ""
            assert "invalid input" in capsys.readouterr().err

    def test_table_with_bad_rows_is_invalid(self, tmp_path):
        path = tmp_path / "h.csv"
        for body in ("1,1\n1,2\n", "1,nan\n2,3\n"):
            path.write_text(body, encoding="utf-8")
            for extra in ([], ["--global"]):
                code, _ = run(tmp_path, "jset", "--k", "1", "--h", f"table:{path}",
                              "--N-max", "1000", *extra)
                assert code == EXIT_INPUT

    def test_malformed_table_row_names_its_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        for body in ("x,y\n1\n4,2\n", "1,1\n4,two\n"):
            path.write_text(body, encoding="utf-8")
            code, text = run(tmp_path, "jset", "--k", "1", "--h", f"table:{path}",
                             "--N-max", "1000")
            assert (code, text) == (EXIT_INPUT, "")
            assert capsys.readouterr().err == (
                f"invalid input: {path} line 2: expected columns x, y\n")

    def test_global_mode_with_log_growth_is_empty(self, tmp_path):
        code, text = run(tmp_path, "jset", "--k", "2", "--h", "log",
                         "--N-max", "10000", "--global", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["rows"] == []
        assert "skipped" in payload and payload["skipped"] != "none"

    def test_output_pinned(self, capsys):
        # exit code, stdout and stderr of layer jset on stages 1-3 for four
        # growth functions, a global run with a skipped stage, JSON, a cap
        # error, and eset on stages 1 and 3
        commands = [["jset", "--k", str(k), "--h", h, "--N-max", str(n_max)]
                    for k, n_max in ((1, 20000), (2, 40000), (3, 120000))
                    for h in ("linear", "log", "loglog", "power:0.5")]
        commands += [
            ["jset", "--k", "4", "--N-max", "20000", "--global"],
            ["jset", "--k", "2", "--h", "power:0.5", "--N-max", "5000", "--format", "json"],
            ["jset", "--k", "1", "--N-max", "1000", "--cap-n", "100"],
            ["eset", "--k", "1", "--l", "3000"],
            ["eset", "--k", "3", "--l", "10..729", "--seed", "5"],
        ]
        capsys.readouterr()
        digest = hashlib.sha256()
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            digest.update(f"{code}\n{captured.out}{captured.err}".encode("utf-8"))
        # recorded at commit 885c9bd, before build_Jk merged supports in one pass
        assert digest.hexdigest() == (
            "1f35fcc4e9f71e195449f487a1b4b8ecfe113ac5bafcdd80869a1df32b1b730f")

    @pytest.mark.parametrize("argv, expected", [
        ("jset --k 3 --global --N-max 4782969",
         "2d9276bffe04e694fac1e9b4c7a074ee4e3c5271862dd942c41ad4ec8e6ac12b"),
        ("jset --k 1 --N-max 4782969 --h loglog",
         "3c88dbe4da89d06d55f10d3ceebde9b4a864708aca3ad3677abc36d74c652867"),
        ("eset --k 1 --l 531441",
         "0d225217ff943d8e6f0d50bd51e14dba3d4d740a1ecc857bd33514c0aeff2e58"),
        ("jset --k 3 --global --N-max 129140163 --cap-n 129140163",
         "6f652f1e9912d2e88a2df75164b035190d1250cb754e67683bf8b2292cb4428b"),
        ("jset --k 2 --h power:0.5 --N-max 4782969",
         "7de12a5d5d87d2275cc61f0979701d5f8980b05859ee744cee66bc3cbe780445"),
        ("eset --k 2 --l 531441",
         "51ebbbb630bb208b6fc55533091b608ce7daa42cb5c7e2e4f5fc366dcccb97eb"),
    ])
    def test_large_window_pinned(self, capsys, argv, expected):
        # sha256 of stdout at the default seed: the first three recorded at
        # commit 7834188, when the producers still stepped once per index,
        # the last three at bb2359f, when they still read a table of weights
        capsys.readouterr()
        assert main(argv.split()) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == expected

    @pytest.mark.parametrize("power, expected", [
        (100, "a3d964bb1cd7bf9fd46b7825097787134fe66ccc1f4b75a9d7bfae79d1c8057b"),
        (300, "970303f2b530c4d340474b429a9157561303d31ce66e772886fb6398e85b1f96"),
    ])
    def test_far_window_pinned(self, capsys, power, expected):
        # self-recorded: no commit before the digit walk reaches these windows,
        # since its table of weights took about 5 bytes per index.  J holds
        # five pieces, the last [346, n], so n - 288 points; the header reads
        # count(), because len() overflows past 2^63 points
        n = 3 ** power
        capsys.readouterr()
        assert main(["jset", "--k", "3", "--global", "--N-max", str(n),
                     "--cap-n", str(n)]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected
        assert f" count={n - 288} " in out.splitlines()[0]
        assert out.splitlines()[-1] == f"346,{n},{n - 288}"

    def test_eset_count_past_index_size(self, tmp_path):
        for fmt in ("csv", "json"):
            code, text = run(tmp_path, "eset", "--k", "45", "--l", "3", "--format", fmt)
            assert code == EXIT_OK
            if fmt == "json":
                payload = json.loads(text)
                assert payload["count"] == payload["rows"][-1][2] > sys.maxsize
            else:
                header_line, _, rows = csv_rows(text)
                assert f" count={rows[-1][2]} " in header_line

    def test_overflowing_power_is_infinite(self, tmp_path):
        code, text = run(tmp_path, "jset", "--k", "1", "--h", "power:1e308", "--N-max", "100")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        infinite = IntegerIntervalSet(build_Jk(1, HFunction("inf", lambda x: math.inf), 100))
        assert [(int(a), int(b)) for a, b, _ in rows] == list(infinite.intervals) != []
        code, text = run(tmp_path, "jset", "--global", "--k", "3", "--h", "power:1e308",
                         "--N-max", "100")
        assert code == EXIT_OK
        assert " skipped=none" in csv_rows(text)[0]

    def test_eset(self, tmp_path):
        code, text = run(tmp_path, "eset", "--k", "1", "--l", "30")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        points = set()
        for lo, hi, _ in ((int(a), int(b), c) for a, b, c in rows):
            points.update(range(lo, hi + 1))
        assert {1, 2, 3, 11, 12} <= points
        assert 8 not in points


# extract cells that int and Fraction could read differently: spaces, signs
# and underscores beside the slash, zero denominators, digits outside ASCII
# (decimal or not), empty parts, and a numerator past the int str-digit limit
CELL_CORPUS = ["0", "007/010", "1 /3", "1/ 3", "1/-3", "1/+3", "-1/3", "+1/3", "1_0/3",
               "1/3_0", "1/0", "0/0", "1/00", "x/3", "1/3/4", "\u0663/4", "\uff11/\uff13",
               "\u00b2/3", "/3", "3/", "7" * 5000]


def extract_one_row(path, cell, capsys):
    """Exit code, stdout and stderr of extract on the series a_0 = cell."""
    path.write_text(f"n,a\n0,{cell}\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["extract", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pinned_series(n_points):
    """The series of TestExtract.test_output_pinned on n_points points."""
    rng = random.Random("extract-pinned")
    a = [Fraction(0)] * n_points
    for i, n in enumerate(rng.sample(range(n_points), n_points // 16)):
        a[n] = Fraction(1, 1 + i % 32)
    b, total = [Fraction(1)], Fraction(0)
    for n in range(1, n_points):
        total += a[n - 1]
        b.append((total + 1) / n)
    c = [Fraction(1 / math.log(n + 2)) for n in range(n_points)]
    return a, b, c


def extract_text(path, text, capsys):
    """Exit code, stdout sha256 and stderr of extract on the series text."""
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(["extract", str(path)])
    captured = capsys.readouterr()
    return code, hashlib.sha256(captured.out.encode("utf-8")).hexdigest(), captured.err


class TestExtract:
    def test_cells_read_as_fraction_reads_them(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        for cell in CELL_CORPUS:
            try:
                value = Fraction(cell)
            except ZeroDivisionError:
                expected = (EXIT_INPUT, "",
                            f"invalid input: line 2: {cell!r} is not a finite rational\n")
            except ValueError as exc:
                expected = (EXIT_INPUT, "", f"invalid input: {exc}\n")
            else:
                got = _parse_value(cell, 2)
                assert got[1] > 0 and Fraction(*got) == value, cell
                # a signed p/q is never plain decimal, so only Fraction reads it
                expected = extract_one_row(
                    series, f"{value.numerator:+d}/{value.denominator}", capsys)
            assert extract_one_row(series, cell, capsys) == expected, cell[:20]
        # the last cell is past the int str-digit limit
        assert expected[0] == EXIT_INPUT and "4300" in expected[2]

    def test_spike_series(self, tmp_path):
        series = tmp_path / "series.csv"
        n_max = 256
        lines = ["n,a"]
        for n in range(n_max + 1):
            val = 1 if n and n & (n - 1) == 0 else 0
            lines.append(f"{n},{val}")
        series.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, text = run(tmp_path, "extract", str(series))
        assert code == EXIT_OK
        _, header, rows = csv_rows(text)
        assert header == ["kind", "x", "y"]
        kinds = {r[0] for r in rows}
        assert "l_k" in kinds and "interval" in kinds

    def test_gap_in_series_is_invalid(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("n,a\n0,0\n2,0\n", encoding="utf-8")
        code, _ = run(tmp_path, "extract", str(series))
        assert code == EXIT_INPUT

    def test_short_row_is_invalid(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("n,a\n0,0\n1\n", encoding="utf-8")
        code, _ = run(tmp_path, "extract", str(series))
        assert code == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    def test_zero_denominator_is_invalid(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        for row in ("1/0", "0/0", "0,1/0", "0,1,0/0"):
            series.write_text(f"n,a,b,c\n0,0,1,1\n1,{row}\n", encoding="utf-8")
            code, _ = run(tmp_path, "extract", str(series))
            assert code == EXIT_INPUT
            assert "line 3" in capsys.readouterr().err

    def test_non_finite_value_is_invalid(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("n,a\n0,0\n1,1e999\n", encoding="utf-8")
        code, _ = run(tmp_path, "extract", str(series))
        assert code == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    def test_huge_sparse_index_is_rejected_without_allocating(self, tmp_path):
        series = tmp_path / "series.csv"
        for rows in ("1000000000000,1", "0,0\n1000000000000,1"):
            series.write_text(f"n,a\n{rows}\n", encoding="utf-8")
            code, _ = run(tmp_path, "extract", str(series))
            assert code == EXIT_INPUT

    def test_missing_file_is_invalid(self, tmp_path):
        code, _ = run(tmp_path, "extract", str(tmp_path / "absent.csv"))
        assert code == EXIT_INPUT

    def test_repeated_index_is_invalid(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        for rows, line in (("0,0\n1,1\n1,0\n2,0", 4), ("0,0\n1,0\n2,0\n1,1", 5)):
            series.write_text(f"n,a\n{rows}\n", encoding="utf-8")
            code, _ = run(tmp_path, "extract", str(series))
            assert code == EXIT_INPUT
            err = capsys.readouterr().err
            assert f"line {line}" in err and "repeated n = 1" in err

    def test_output_pinned(self, tmp_path, capsys):
        # the extractor input form of the exceptional benchmark, on 2^11 points:
        # a is zero but at n/16 seeded spikes 1/d, d = 1..32; b = (sum_{j<n} a_j + 1)/n;
        # c = the binary64 values of 1/log(n + 2)
        rng = random.Random("extract-pinned")
        n_points = 2 ** 11
        a = [Fraction(0)] * n_points
        for i, n in enumerate(rng.sample(range(n_points), n_points // 16)):
            a[n] = Fraction(1, 1 + i % 32)
        b, total = [Fraction(1)], Fraction(0)
        for n in range(1, n_points):
            total += a[n - 1]
            b.append((total + 1) / n)
        lines = ["n,a,b,c"] + [f"{n},{a[n]},{b[n]},{Fraction(1 / math.log(n + 2))}"
                               for n in range(n_points)]
        series = tmp_path / "series.csv"
        series.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["extract", str(series)]) == EXIT_OK
        out = capsys.readouterr().out
        # recorded at commit 28b6eb4, the last one with the Fraction extractor
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "4698535898a5527ece2724deeaa392edc2672846282761405daf482d5d90824d")

    def test_column_forms_output_pinned(self, tmp_path, capsys):
        # recorded at commit c1357ca, whose extractor read every cell as a Fraction
        series = tmp_path / "series.csv"
        a, b, c = pinned_series(2 ** 11)
        n_points = len(a)
        # default b (the running means) and default c
        text = "n,a\n" + "".join(f"{n},{a[n]}\n" for n in range(n_points))
        assert extract_text(series, text, capsys) == (
            EXIT_OK, "253d2a89d2e52e06bf207a09d08c304a2e6e530084b4f659f7168692630ae826", "")
        # default c only: the same output as test_output_pinned
        text = "n,a,b\n" + "".join(f"{n},{a[n]},{b[n]}\n" for n in range(n_points))
        pinned = (EXIT_OK, "4698535898a5527ece2724deeaa392edc2672846282761405daf482d5d90824d", "")
        assert extract_text(series, text, capsys) == pinned

        # the test_output_pinned series with its rows shuffled and a third of
        # its cells unreduced and zero-padded: the same output again
        def cell(x, n):
            if x == Fraction(1, 2):
                return "2/4"
            return f"{2 * x.numerator:03d}/{2 * x.denominator:03d}" if n % 3 == 0 else str(x)

        rows = [f"{n},{cell(a[n], n)},{cell(b[n], n + 1)},{cell(c[n], n + 2)}\n"
                for n in range(n_points)]
        random.Random("extract-shuffled").shuffle(rows)
        text = "n,a,b,c\n" + "".join(rows)
        assert ",2/4," in text and ",000/002," in text and ",002/044," in text
        assert extract_text(series, text, capsys) == pinned

    def test_column_errors_pinned(self, tmp_path, capsys):
        # recorded at commit c1357ca; the Cesaro error prints reduced fractions
        series = tmp_path / "series.csv"
        no_output = hashlib.sha256(b"").hexdigest()
        cases = [("n,a,b\n0,0,1\n1,0,\n2,0,1\n", "b column must cover every n when present"),
                 ("n,a,b,c\n0,0,1,1\n1,0,,1\n2,0,1,1\n",
                  "b column must cover every n when present"),
                 ("n,a,b,c\n0,0,1,1\n1,0,1,\n2,0,1,1\n", "c column must cover every n when present"),
                 ("n,a,b\n0,2/4,2/2\n1,006/004,2/4\n2,0,003/009\n3,0,1\n",
                  "Cesaro bound violated at n=2: mean 1 > 1/3"),
                 ("n,a,b,c\n0,0,1,004/008\n1,0,1,2/6\n2,0,1,010/030\n3,0,1,3/6\n",
                  "c is not decreasing at n=3")]
        for text, err in cases:
            assert extract_text(series, text, capsys) == (
                EXIT_INPUT, no_output, f"invalid input: {err}\n"), text

    def test_heap_peak_of_bench_series(self, tmp_path):
        # the traced heap peak of extract on a 2^13-row series shaped like the
        # exceptional benchmark's: 4.31 MB when every cell was a Fraction kept
        # in an n-keyed dict (commit c1357ca), 2.27 MB from integer columns
        a, b, c = pinned_series(2 ** 13)
        series = tmp_path / "series.csv"
        series.write_text("n,a,b,c\n" + "".join(
            f"{n},{a[n]},{b[n]},{c[n]}\n" for n in range(len(a))), encoding="utf-8")
        argv = ["extract", str(series), "--out", str(tmp_path / "out.txt")]
        assert main(argv) == EXIT_OK    # any one-time allocation lands here
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.3e6, peak

    def test_error_precedence_pinned(self, tmp_path, capsys):
        # exit code and stderr recorded at commit a9f27d3, which read the whole
        # file before the extractor checked a term: an error of the file
        # itself wins over a rule the terms break, at any line
        series = tmp_path / "series.csv"
        no_output = hashlib.sha256(b"").hexdigest()
        cases = [("n,a,b\n0,2,1\n1,2,1\n2,0,1\n3,x,1\n",
                  "Invalid literal for Fraction: 'x'"),
                 ("n,a,b\n0,2,1\n1,2,1\n2,0,1\n2,0,1\n", "line 5: repeated n = 2"),
                 ("n,a,b,c\n0,0,1,1/2\n1,0,1,1\n2,0,,1\n",
                  "b column must cover every n when present"),
                 ("n,a,b\n0,2,1\n1,2,1\n2,-1,1\n3,0,1\n",
                  "deviation sequence has a negative entry"),
                 ("n,a,b\n2,0,1\n0,2,1\n3,0,1\n1,2,1\n",
                  "Cesaro bound violated at n=1: mean 2 > 1"),
                 ("n,a,b\n0,2,1\n1,2,1\n3,0,1\n",
                  "series must cover every n from 0 to its maximum"),
                 ("n,a,b,c\n0,0,1,1/2\n1,0,1,1\n2,5,1,1/3\n3,0,1,1/4\n4,0,1,1/5\n",
                  "Cesaro bound violated at n=3: mean 5/3 > 1"),
                 ("n,a,b,c\n1,0,1,1/2\n0,0,1,1\n2,0,1,\n",
                  "c column must cover every n when present"),
                 # below the rows read in order, only a negative n is no repeat
                 ("n,a\n0,0\n1,0\n-1,0\n", "series must cover every n from 0 to its maximum"),
                 ("n,a\n0,0\n-1,0\n-1,0\n", "line 4: repeated n = -1")]
        for text, err in cases:
            assert extract_text(series, text, capsys) == (
                EXIT_INPUT, no_output, f"invalid input: {err}\n"), text

    @pytest.mark.parametrize("order, bound", [("in-order", 0.8e6), ("shuffled", 3.3e6)])
    def test_heap_peak_of_streamed_series(self, tmp_path, order, bound):
        # the series of test_heap_peak_of_bench_series streams row by row in
        # n order (0.28 MB traced, one cap per term); shuffled, its rows wait
        # in an n-keyed map (2.18 MB)
        a, b, c = pinned_series(2 ** 13)
        rows = [f"{n},{a[n]},{b[n]},{c[n]}\n" for n in range(len(a))]
        if order == "shuffled":
            random.Random("extract-shuffled").shuffle(rows)
        series = tmp_path / "series.csv"
        series.write_text("n,a,b,c\n" + "".join(rows), encoding="utf-8")
        argv = ["extract", str(series), "--out", str(tmp_path / "out.txt")]
        assert main(argv) == EXIT_OK    # any one-time allocation lands here
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak


class TestPointwise:
    def test_apply_t(self, tmp_path):
        code, text = run(tmp_path, "apply-t", "1/3^1")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert rows[0][1:3] == ["1/3^1", "7/3^2"]

    def test_apply_t_power_and_word_form(self, tmp_path):
        code, text = run(tmp_path, "apply-t", "0", "--n", "4")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert rows[0][2] == "2/3^3"

    def test_locate(self, tmp_path):
        code, text = run(tmp_path, "locate", "1/3^1", "--k", "1")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert rows[0][:4] == ["1", "1", "1", "9"]

    def test_locate_deep_stage(self, tmp_path):
        code, text = run(tmp_path, "locate", "0.1", "--k", "3000")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        offset = Fraction(int(rows[0][2]), int(rows[0][3]))
        assert 0 <= offset < Fraction(2, 3 ** 3001)

    def test_locate_past_int_digit_limit(self, tmp_path):
        # the level and the offset at k = 20000 have about 9,500 digits
        code, text = run(tmp_path, "locate", "0.1", "--k", "20000")
        assert code == EXIT_OK
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            _, _, rows = csv_rows(text)
            addr = locate(TriadicRational.parse("0.1"), 20000)
            assert rows[0][1:4] == [str(addr.level), str(addr.offset.numerator),
                                    str(addr.offset.denominator)]
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(rows[0][1]) > limit

    def test_bad_point_is_invalid(self, tmp_path):
        code, _ = run(tmp_path, "locate", "zebra", "--k", "1")
        assert code == EXIT_INPUT

    def test_zero_denominator_point_is_invalid(self, tmp_path):
        for point in ("1/0", "0/0"):
            assert run(tmp_path, "apply-t", point)[0] == EXIT_INPUT
            assert run(tmp_path, "locate", point, "--k", "2")[0] == EXIT_INPUT

    def test_bad_point_messages(self, tmp_path, capsys):
        # a p/3^m literal out of [0,1) is reported as such, not re-read as a
        # plain fraction; only text of no triadic form falls back to Fraction
        for point, message in (
                ("1/3^0", "value 1/3^0 is not in [0,1)"),
                ("3/3^1", "value 3/3^1 is not in [0,1)"),
                ("zebra", "Invalid literal for Fraction: 'zebra'"),
                ("1/0", "zero denominator in point '1/0'"),
                ("0/0", "zero denominator in point '0/0'"),
                ("1/2", "1/2 does not have a power-of-3 denominator")):
            for argv in (["apply-t", point], ["locate", point, "--k", "1"]):
                assert run(tmp_path, *argv) == (EXIT_INPUT, "")
                assert capsys.readouterr().err == f"invalid input: {message}\n"

    def test_decimal_exponent_points_exit_at_once(self):
        # Fraction would build 10^e before the point is rejected: 10.4 s for
        # locate 1e10000000, past 20 s for apply-t 1e100000000
        for argv in (["locate", "--k", "1", "1e10000000"], ["apply-t", "1e100000000"]):
            proc = chacon(*argv, timeout=10)
            assert (proc.returncode, proc.stdout) == (EXIT_INPUT, ""), argv
            assert proc.stderr == (f"invalid input: decimal-exponent point {argv[-1]!r} "
                                   "is not 0, the only such point of [0,1)\n")
        proc = chacon("apply-t", "0e100000000", timeout=10)
        assert (proc.returncode, proc.stdout.splitlines()[2]) == (
            EXIT_OK, "1,0/3^0,2/3^2,0.222222222222")

    def test_apply_t_past_old_depth_cap(self, tmp_path):
        # 1 - 3^-70 is the start of the stage-70 spacer piece; T lifts it onto
        # the right copy's bottom level, 4/3^71
        x = "2503155504993241601315571986085848/3^70"
        code, text = run(tmp_path, "apply-t", x)
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert rows[0][1:3] == ["2503155504993241601315571986085848/3^70", "4/3^71"]
        code, text = run(tmp_path, "apply-t", "4/3^71", "--n=-1")
        assert code == EXIT_OK
        _, _, rows = csv_rows(text)
        assert rows[0][2] == x

    def test_inverse_of_zero_is_invalid_input(self, tmp_path, capsys):
        # T(0) = 2/3^2, so going back two steps from 2/3^2 fails at 0 as well;
        # no stage defines T^-1(0), so no larger cap could answer
        for argv in (["0", "--n=-1"], ["2/3^2", "--n=-2"]):
            assert run(tmp_path, "apply-t", *argv)[0] == EXIT_INPUT
            assert capsys.readouterr().err == "invalid input: T^-1(0/3^0) undefined at every stage\n"

    def test_large_power_is_one_walk(self):
        # inside the default cap of 3^14; 3,000,000 single steps would run for
        # many seconds, where one walk stops at stage 14
        def apply_t(point, n):
            proc = chacon("apply-t", point, f"--n={n}", timeout=10)
            assert proc.returncode == EXIT_OK, proc.stderr
            return proc.stdout.splitlines()[2].split(",")[2]

        assert apply_t("1/3^1", 3_000_000) == "7081793/3^15"
        assert apply_t("7081793/3^15", -3_000_000) == "1/3^1"

    def test_empty_power_is_invalid(self, tmp_path, capsys):
        assert run(tmp_path, "apply-t", "1/3^1", "--n", "") == (EXIT_INPUT, "")
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_output_pinned(self, capsys):
        # 1 - 3^-30 = 205891132094648/3^30; 0.21012 and 1/3^30 keep off 0 going back
        commands = [
            ["apply-t", "1/3^1"],
            ["apply-t", "1/3^1", "--n=-1"],
            ["apply-t", "5/3^4", "--n", "7"],
            ["apply-t", "5/3^4", "--n=-7"],
            ["apply-t", "0.1201", "--n", "40"],
            ["apply-t", "0.21012", "--n=-40"],
            ["apply-t", "0", "--n", "7"],
            ["apply-t", "205891132094648/3^30"],
            ["apply-t", "205891132094648/3^30", "--n=-1"],
            ["apply-t", "1/3^30", "--n=-40"],
            ["apply-t", "0.22", "--n", "40", "--format", "json"],
            ["locate", "0.1", "--k", "3000"],
            ["locate", "205891132094648/3^30", "--k", "30"],
            ["locate", "0.21", "--k", "1"],
            ["locate", "1/3^30", "--k", "40"],
        ]
        capsys.readouterr()
        for argv in commands:
            assert main(argv) == EXIT_OK, argv
        out = capsys.readouterr().out
        # recorded at commit 619d84d, the last one with the Fraction stage step,
        # then with one cell changed: the decimal of locate 0.1 --k 3000, whose
        # offset is below the least float, reads 1.4424958962e-1432, not 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "bcad58ae2c5fc7ca5061c5203261726d3a616df58f9abdc100a2236fc4c1b196")

    def test_apply_t_power_cap(self, tmp_path):
        assert run(tmp_path, "apply-t", "1/3^1", "--n", "600", "--cap-n", "500")[0] == EXIT_RESOURCE
        assert run(tmp_path, "apply-t", "1/3^1", "--n=-600", "--cap-n", "500")[0] == EXIT_RESOURCE
        assert run(tmp_path, "apply-t", "1/3^1", "--n", "500", "--cap-n", "500")[0] == EXIT_OK

    def test_unknown_command_is_invalid(self, tmp_path):
        assert main(["frobnicate"]) == EXIT_INPUT


class TestStageBound:
    # with no stage bound each of these, and apply-t 1/3^100000000, ran past a
    # 10 s timeout: dl, corr, cesaro, eset and layer jset build 3^(k+1), global
    # jset and locate walk k stages, and apply-t builds 3^m
    PAST = [["dl", "--k", "100000000", "--l", "1"],
            ["corr", "--k", "100000000", "--n", "5"],
            ["cesaro", "--k", "100000000", "--N-max", "3"],
            ["jset", "--k", "100000000", "--N-max", "10"],
            ["jset", "--k", "100000000", "--N-max", "10", "--global"],
            ["eset", "--k", "100000000", "--l", "3"],
            ["locate", "0.1", "--k", "100000000"]]

    def test_unbounded_runs_exit_at_once(self):
        for argv in self.PAST:
            proc = chacon(*argv, timeout=10)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                EXIT_RESOURCE, "", f"resource cap: stage 100000000 exceeds cap {MAX_STAGE}\n"), argv
        proc = chacon("apply-t", "1/3^100000000", timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_RESOURCE, "", f"resource cap: m = 100000000 exceeds cap {MAX_STAGE}\n")

    def test_bound_is_inclusive(self, capsys):
        past = MAX_STAGE + 1
        cases = [([str(past) if a == "100000000" else a for a in argv], f"stage {past}")
                 for argv in self.PAST]
        cases += [(["apply-t", f"1/3^{past}"], f"m = {past}"),
                  (["locate", f"1/3^{past}", "--k", "1"], f"m = {past}")]
        for argv, name in cases:
            capsys.readouterr()
            assert main(argv) == EXIT_RESOURCE, argv
            assert capsys.readouterr() == ("", f"resource cap: {name} exceeds cap {MAX_STAGE}\n")
        # every command answers at the bound with a small window; jset
        # --global computes a cutoff for each of the k layers, from a power
        # of 3 that stops growing at the first to overflow a float
        bound = str(MAX_STAGE)
        for argv in (["dl", "--k", bound, "--l", "0..3"],
                     ["corr", "--k", bound, "--n", "0..30"],
                     ["cesaro", "--k", bound, "--N-max", "30"],
                     ["jset", "--k", bound, "--N-max", "10"],
                     ["jset", "--k", bound, "--N-max", "10", "--global"],
                     ["eset", "--k", bound, "--l", "30"],
                     ["locate", "0.1", "--k", bound],
                     ["locate", f"1/3^{bound}", "--k", "3"],
                     ["apply-t", f"1/3^{bound}", "--n=-5"]):
            proc = chacon(*argv, timeout=20)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), argv


class TestCapOptions:
    # --cap-l and --cap-n are declared only where a command reads them
    DECLARED = {"dl": "l", "corr": "n", "cesaro": "n", "jset": "n", "eset": "l",
                "apply-t": "n", "extract": "", "verify": "", "locate": ""}

    def test_each_cap_only_where_read(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("n,a\n0,0\n1,1\n", encoding="utf-8")
        valid = {"dl": ["dl", "--k", "1", "--l", "0..3"],
                 "corr": ["corr", "--k", "1", "--n", "0..30"],
                 "cesaro": ["cesaro", "--k", "1", "--N-max", "30"],
                 "jset": ["jset", "--k", "1", "--N-max", "30"],
                 "eset": ["eset", "--k", "1", "--l", "30"],
                 "apply-t": ["apply-t", "1/3^1"],
                 "extract": ["extract", str(series)],
                 "verify": ["verify", "--suite", "all"],
                 "locate": ["locate", "0.1", "--k", "1"]}
        assert valid.keys() == self.DECLARED.keys()
        for command, argv in valid.items():
            for cap in "ln":
                capsys.readouterr()
                code = main(argv + [f"--cap-{cap}", "1000"])
                out, err = capsys.readouterr()
                if cap in self.DECLARED[command]:
                    assert (code, err) == (EXIT_OK, ""), (command, cap)
                else:
                    # refused while parsing, before verify would run its suite
                    assert (code, out) == (EXIT_INPUT, ""), (command, cap)
                    assert err.endswith(f"error: unrecognized arguments: --cap-{cap} 1000\n")

    def test_readme_table_matches_parser(self):
        # each --cap-* row of the README's cap table names the subcommands
        # that declare that option
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = {}
        for line in readme.splitlines():
            if line.startswith("| `--cap-"):
                cells = line.split("|")
                table[cells[1].split("`")[1]] = set(cells[3].split("`")[1::2])
        subparsers, = (a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        declared = {opt: {name for name, p in subparsers.choices.items()
                          if opt in p._option_string_actions}
                    for opt in ("--cap-l", "--cap-n")}
        assert table == declared


class TestVerify:
    def test_suite_passes_and_is_deterministic(self, tmp_path):
        code, first = run(tmp_path, "verify", "--suite", "all", "--seed", "7")
        assert code == EXIT_OK
        payload = json.loads(first)
        assert payload["pass"] is True
        assert all(c["pass"] for c in payload["checks"])
        code, second = run(tmp_path, "verify", "--suite", "all", "--seed", "7")
        assert code == EXIT_OK
        assert first == second

    def test_suite_output_is_pinned(self):
        proc = chacon("verify", "--suite", "all", "--seed", "7", timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        # recorded at commit 4b97af2, the last one with Fraction overlaps in the oracle
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
            "3231edecd3cf589c1389e1d4e13264715e9c4e16c21d8ab9133f6a9a5de328b8")

    def test_format_is_not_an_option(self, capsys):
        # the report is one JSON document: --format is refused while parsing,
        # as an undeclared cap is, before the suite would run
        code = main(["verify", "--suite", "all", "--format", "csv"])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_INPUT, "")
        assert err.endswith("error: unrecognized arguments: --format csv\n")

    def test_unknown_suite_is_invalid(self, tmp_path):
        code, _ = run(tmp_path, "verify", "--suite", "bogus")
        assert code == EXIT_INPUT

    def test_oracle_budget_is_a_resource_cap(self, capsys, monkeypatch):
        # an oracle past its fragment budget exits 3, and the report is not written
        def check(rng):
            raise oracle.FragmentationError("12 fragments in one step")

        monkeypatch.setattr(checks, "SUITE", [("budget", "an oracle past its budget", check)])
        capsys.readouterr()
        assert main(["verify", "--suite", "all"]) == EXIT_RESOURCE
        assert capsys.readouterr() == ("", "resource cap: 12 fragments in one step\n")


# ---------------------------------------------------------------------------
# any argv ends in output or in a clean exit 2 or 3; every window is small,
# or else past a cap or the stage bound, so that no case starts large work

# the valid values are drawn more often, so that most cases reach the engine
PAST = st.sampled_from([MAX_STAGE + 1, 10 ** 8])
STAGES = st.one_of(st.integers(1, 4), st.integers(0, 4), st.integers(-3, -1), PAST).map(str)
VALUES = st.one_of(st.integers(0, 60), st.integers(0, 60), st.integers(-5, -1),
                   st.just(10 ** 8))
WINDOWS = st.one_of(
    VALUES.map(str),
    st.tuples(VALUES, VALUES).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    st.tuples(VALUES, VALUES).map(lambda ab: f"{min(ab)}..{max(ab)}"),
    st.sampled_from(["", "x", "3..", "..3", "1..2..3", "2.5", "-"]))
POINTS = st.one_of(
    st.builds("{}/3^{}".format, st.integers(0, 800), st.one_of(st.integers(0, 6), PAST)),
    st.text("012", min_size=1, max_size=8).map("0.{}".format),
    st.sampled_from(["0", "1", "2/9", "1/2", "1/0", "0/0", "1/3^", "0.3", "zebra", ""]))
GROWTH = st.sampled_from(["linear", "log", "loglog", "power:0.5", "power:nan", "bogus"])


@st.composite
def argvs(draw, series):
    command = draw(st.sampled_from(sorted(TestCapOptions.DECLARED)))
    argv = {
        "dl": lambda: ["--k", draw(STAGES), "--l", draw(WINDOWS)],
        "corr": lambda: ["--k", draw(STAGES), f"--n={draw(WINDOWS)}"],
        "cesaro": lambda: ["--k", draw(STAGES), f"--N-max={draw(VALUES)}"],
        "jset": lambda: ["--k", draw(STAGES), f"--N-max={draw(VALUES)}", "--h", draw(GROWTH)]
        + draw(st.sampled_from([[], ["--global"]])),
        "eset": lambda: ["--k", draw(STAGES), f"--l={draw(WINDOWS)}"],
        "extract": lambda: [draw(st.sampled_from(series))],
        # never a valid argv, so that no case runs the whole suite
        "verify": lambda: ["--suite", draw(st.sampled_from(["bogus", "", "ALL"]))],
        "apply-t": lambda: [draw(POINTS), f"--n={draw(VALUES)}"],
        "locate": lambda: [draw(POINTS), "--k", draw(STAGES)],
    }[command]()
    for cap in "ln":
        # also on the commands that do not read it, which refuse it
        if draw(st.booleans()):
            argv.append(f"--cap-{cap}={draw(st.integers(-2, 60))}")
    return [command, *argv, "--format", draw(st.sampled_from(["csv", "json"]))]


def test_any_argv_exits_cleanly(tmp_path):
    series = []
    for name, body in (("ok", "n,a\n0,0\n1,1/3\n2,0\n"), ("gap", "n,a\n0,0\n2,1\n"),
                       ("bad", "n,a\n0,1/0\n")):
        series.append(str(tmp_path / f"{name}.csv"))
        Path(series[-1]).write_text(body, encoding="utf-8")
    series += [str(tmp_path / "absent.csv"), str(tmp_path)]

    @settings(max_examples=400, deadline=None)
    @given(argvs(series))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_RESOURCE)
        if code != EXIT_OK:
            assert out.getvalue() == "" and err.getvalue() != ""
        if code == EXIT_RESOURCE:
            assert err.getvalue().startswith("resource cap: ")

    check()
