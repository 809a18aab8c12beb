import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overmex import cli, combinat, qfactory, verify


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestTable:
    def test_both_methods_match(self, capsys):
        code, out, _ = run(
            ["table", "--variant", "overlined", "--max-n", "10", "--method", "both"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "series", "oracle", "match"]
        row3 = rows[3]
        assert row3 == ["3", "12", "12", "match"]
        assert all(r[3] == "match" for r in rows)

    def test_oracle_only(self, capsys):
        code, out, _ = run(
            ["table", "--variant", "all", "--max-n", "4", "--method", "oracle"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[4][:2] == ["4", "28"]

    def test_zero_row(self, capsys):
        code, out, _ = run(["table", "--variant", "all", "--max-n", "0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["0", "1", "series"]]

    def test_csv_json_same_content(self, capsys):
        args = ["table", "--variant", "nonoverlined", "--max-n", "8"]
        _, out_csv, _ = run(args + ["--format", "csv"], capsys)
        _, out_json, _ = run(args + ["--format", "json"], capsys)
        header, rows = parse_csv(out_csv)
        objs = json.loads(out_json)
        assert [list(map(str, o.values())) for o in objs] == rows
        assert list(objs[0].keys()) == ["n", "value", "method"]

    def test_oracle_limit_refused(self, capsys):
        code, _, err = run(
            ["table", "--max-n", "60", "--method", "oracle"], capsys
        )
        assert code == 2
        assert "oracle limit" in err

    @pytest.mark.parametrize("argv", [
        ["--max-n", "100000000000000000000"],
    ], ids=["max_n"])
    def test_order_above_cap_refused(self, argv, capsys):
        code, out, err = run(["table"] + argv, capsys)
        assert code == 2
        assert out == ""
        assert "exceeds the largest order" in err
        assert "Traceback" not in err

    def test_oracle_limit_override(self, capsys):
        argv = ["table", "--method", "oracle", "--max-n", "6", "--oracle-limit"]
        code, out, _ = run(argv + ["6"], capsys)
        assert code == 0
        assert parse_csv(out)[1][6] == ["6", "60", "oracle"]
        code, out, err = run(argv + ["5"], capsys)
        assert code == 2
        assert out == ""
        assert "oracle limit" in err

    def test_order_flag_gone(self, capsys):
        # The printed coefficients do not depend on a truncation order.
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--max-n", "5", "--order", "7"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, _ = run(
            ["table", "--max-n", "3", "--out", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("n,value,method")


class TestVerify:
    def test_single_check(self, capsys):
        code, out, err = run(
            ["verify", "--only", "euler", "--order", "200"], capsys
        )
        assert code == 0
        report = json.loads(out.strip())
        assert report["check_name"] == "euler_identity"
        assert report["status"] == "PASS"
        assert "[PASS]" in err

    def test_unknown_check_usage_error(self, capsys):
        code, _, err = run(["verify", "--only", "bogus"], capsys)
        assert code == 2
        assert "unknown check" in err

    def test_unknown_check_keeps_out_file(self, tmp_path, capsys):
        path = tmp_path / "keep.jsonl"
        path.write_bytes(b'{"kept": true}\n')
        code, _, err = run(["verify", "--only", "bogus", "--out", str(path)], capsys)
        assert code == 2
        assert "unknown check" in err
        assert path.read_bytes() == b'{"kept": true}\n'

    def test_out_to_device(self, capsys):
        code, out, err = run(
            ["verify", "--only", "sigma_taylor", "--out", os.devnull], capsys
        )
        assert code == 0
        assert out == ""
        assert err.startswith("[PASS] sigma_taylor (")
        assert err.count("\n") == 1

    def test_out_file_replaces_old_contents(self, tmp_path, capsys):
        path = tmp_path / "reports.jsonl"
        path.write_text("stale\n" * 100)
        code, _, _ = run(
            ["verify", "--only", "euler", "--order", "50", "--out", str(path)], capsys
        )
        assert code == 0
        [line] = path.read_text().splitlines()
        assert json.loads(line)["check_name"] == "euler_identity"

    def test_max_n_above_oracle_limit_refused(self, capsys):
        code, out, err = run(
            ["verify", "--only", "gf_vs_oracle:all", "--max-n", "6",
             "--oracle-limit", "5"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "oracle limit" in err

    def test_order_above_cap_refused(self, capsys):
        code, out, err = run(
            ["verify", "--order", "100000000000000000000", "--only", "euler"], capsys
        )
        assert code == 2
        assert out == ""
        assert "exceeds the largest order" in err
        assert "Traceback" not in err

    def test_format_not_accepted(self, capsys):
        # verify always writes JSON lines; --format belongs to table and enum.
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--only", "euler", "--format", "csv"])
        assert exc.value.code == 2

    def test_reports_streamed_as_checks_finish(self, monkeypatch):
        # When the fourth check starts, the three before it are on stdout,
        # each with its progress line on stderr.
        class Stop(Exception):
            pass

        stdout, stderr = io.StringIO(), io.StringIO()
        written = []

        def euler(N):
            written.append((stdout.getvalue(), stderr.getvalue()))
            raise Stop

        monkeypatch.setattr(verify, "check_euler_identity", euler)
        with redirect_stdout(stdout), redirect_stderr(stderr), pytest.raises(Stop):
            cli.main(["verify", "--max-n", "5"])
        [(out, err)] = written
        names = [f"gf_vs_oracle:{v}" for v in ("nonoverlined", "overlined", "all")]
        assert [json.loads(line)["check_name"] for line in out.splitlines()] == names
        assert err.splitlines() == [
            f"[PASS] {name} (sigma n <= 5, counts n <= 5)" for name in names
        ]

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "reports.jsonl"
        code, out, _ = run(
            ["verify", "--only", "euler", "--order", "50", "--out", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        _, expected, _ = run(["verify", "--only", "euler", "--order", "50"], capsys)
        assert path.read_text() == expected

    def test_parity_checks(self, capsys):
        for name in ("parity_all_even", "parity_density", "triangular_parity"):
            code, out, _ = run(["verify", "--only", name], capsys)
            assert code == 0, name
            assert json.loads(out.strip())["status"] == "PASS"


class TestEnum:
    def test_n3_table(self, capsys):
        code, out, _ = run(["enum", "--max-n", "3"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "overpartition", "mex_nonoverlined", "mex_overlined", "mex_all",
        ]
        assert [r[0] for r in rows] == [
            "3", "3~", "2+1", "2~+1", "2+1~", "2~+1~", "1+1+1", "1~+1+1",
        ]
        assert [r[2] for r in rows] == ["1", "1", "1", "1", "2", "3", "1", "2"]
        assert [r[3] for r in rows] == ["1", "1", "3", "3", "3", "3", "2", "2"]

    def test_n0(self, capsys):
        code, out, _ = run(["enum", "--max-n", "0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["(empty)", "1", "1", "1"]]

    def test_by_class_n4(self, capsys):
        code, out, _ = run(["enum", "--max-n", "4", "--by-class"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [
            ["4", "2", "1"],
            ["3+1", "4", "2"],
            ["2+2", "2", "1"],
            ["2+1+1", "4", "3"],
            ["1+1+1+1", "2", "2"],
        ]

    def test_limit_guard(self, capsys):
        code, _, err = run(["enum", "--max-n", "100"], capsys)
        assert code == 2
        assert "limit" in err

    def test_json_uses_boolean_overlines(self, capsys):
        code, out, _ = run(["enum", "--max-n", "3", "--format", "json"], capsys)
        assert code == 0
        objs = json.loads(out)
        assert len(objs) == 8
        # Same numeric content as the CSV columns.
        assert [o["mex_overlined"] for o in objs] == [1, 1, 1, 1, 2, 3, 1, 2]
        assert [o["mex_all"] for o in objs] == [1, 1, 3, 3, 3, 3, 2, 2]
        # 3~ is the second row: one group, overlined flag set.
        assert objs[1]["groups"] == [{"part": 3, "count": 1, "overlined": True}]


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_streamed_as_enumerated(self, fmt, monkeypatch, capsys):
        # When the 20th overpartition is about to be yielded, the 19 before
        # it are already written: no listing of all of them is held.
        _, expected, _ = run(["enum", "--max-n", "6", "--format", fmt], capsys)
        stdout = io.StringIO()
        enumerate_all = combinat.enumerate_overpartitions
        rows = {"csv": lambda: stdout.getvalue().count("\n") - 1,
                "json": lambda: stdout.getvalue().count('"mex_all"')}[fmt]

        def watched(n):
            for k, pi in enumerate(enumerate_all(n), 1):
                if k == 20:
                    assert rows() == 19
                yield pi

        monkeypatch.setattr(combinat, "enumerate_overpartitions", watched)
        with redirect_stdout(stdout):
            assert cli.main(["enum", "--max-n", "6", "--format", fmt]) == 0
        assert stdout.getvalue() == expected


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_bad_variant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--variant", "weird", "--max-n", "3"])
        assert exc.value.code == 2


class TestClosedPipe:
    def test_closed_stdout_exits_quietly(self):
        # The reader takes one row and goes away, as `| head -n 1` does.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.Popen(
            [sys.executable, "-m", "overmex.cli", "enum", "--max-n", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"overpartition,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""


class TestImportFootprint:
    # Modules that cost start-up time and that no overmex code calls.
    HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")

    @staticmethod
    def added_modules(module):
        # A site-less interpreter (-I -S), so that no site-packages .pth file
        # can load one of these modules first and hide a regression.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            f"import {module}; print(*sorted(set(sys.modules) - before))"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code, src],
            capture_output=True, text=True, check=True, timeout=60,
        )
        return set(proc.stdout.split())

    def test_package(self):
        added = self.added_modules("overmex")
        assert "overmex.series" in added
        assert added.isdisjoint(self.HEAVY + ("argparse", "json", "csv"))

    def test_cli(self):
        added = self.added_modules("overmex.cli")
        assert "overmex.verify" in added
        assert added.isdisjoint(self.HEAVY)


class TestRefusals:
    @pytest.mark.parametrize("argv, message", [
        (["table", "--method", "oracle", "--max-n", "46"], "oracle limit"),
        (["table", "--method", "both", "--max-n", "46"], "oracle limit"),
        (["verify", "--max-n", "46"], "oracle limit"),
        (["enum", "--max-n", "46"], "oracle limit"),
        (["enum", "--max-n", "46", "--by-class"], "oracle limit"),
        (["table", "--max-n", "100001"], "exceeds the largest order"),
        (["verify", "--order", "100001"], "exceeds the largest order"),
        (["verify", "--order", "0"], "--order 0 is below the smallest order"),
        (["verify", "--only", "identities", "--order", "0"],
         "--order 0 is below the smallest order"),
        (["verify", "--only", "euler", "--order", "-1"],
         "--order -1 is below the smallest order"),
        (["verify", "--only", "sigma_taylor", "--out", "/nonexistent/x.jsonl"],
         "No such file or directory"),
        (["table", "--max-n", "3", "--out", "/nonexistent/x.csv"],
         "No such file or directory"),
        (["enum", "--max-n", "2", "--out", "/"], "Is a directory"),
        (["verify", "--only", "bogus"], "unknown check 'bogus'"),
    ], ids=["table_oracle", "table_both", "verify", "enum", "enum_by_class",
            "table_order", "verify_order", "verify_order_zero",
            "identities_order_zero", "euler_order_negative", "verify_out",
            "table_out", "enum_out", "verify_only"])
    def test_refused_before_any_work(self, argv, message, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in ((combinat, "_classes"), (combinat, "mex_histograms"),
                             (qfactory, "sigma_mex_gf"), (verify, "run_all")):
            monkeypatch.setattr(module, name, never)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert message in err
        assert err.count("\n") == 1


_CHECKS = (
    "gf_vs_oracle:nonoverlined", "gf_vs_oracle:overlined", "gf_vs_oracle:all",
    "euler", "identities", "parity_all_even", "parity_density",
    "triangular_parity", "asym_ratio", "sigma_taylor", "ingham_scaling",
)
# Each subcommand's options, plus --order for table, which table does not
# accept.  Every accepted run is small: a --max-n above 8 is refused before
# work, except that a series-only table builds its series at 46.
_FLAGS = {
    "table": ("--variant", "--method", "--format", "--max-n", "--oracle-limit",
              "--order"),
    "verify": ("--only", "--order", "--max-n", "--oracle-limit"),
    "enum": ("--format", "--max-n", "--oracle-limit", "--by-class"),
}
_VALUES = {
    "--variant": ("nonoverlined", "overlined", "all"),
    "--method": ("series", "oracle", "both"),
    "--format": ("csv", "json"),
    "--only": _CHECKS + ("bogus",),
    "--order": (-1, 0, 1, 50, 300, 100001, 10**20),
    "--max-n": (-1, 0, 3, 8, 46, 10**20),
    "--oracle-limit": (-1, 5, 45),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag in _FLAGS[command]:
        if not draw(st.booleans()):
            continue
        argv.append(flag)
        if flag in _VALUES:
            argv.append(str(draw(st.sampled_from(_VALUES[flag]))))
    return argv


class TestFuzz:
    @settings(max_examples=50, deadline=None)
    @given(argvs())
    def test_exit_code_or_usage_error(self, argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
                assert code == 2, argv
        assert code in (0, 1, 2), argv
