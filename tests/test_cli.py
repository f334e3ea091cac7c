from __future__ import annotations

import csv
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import evinet
from evinet.cli import ENV_MAX_PLACES, main
from evinet import serialize_net
from _nets import alternating_net, cycle_net, net_from_transitions


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, **kwargs)


def combined_output(result) -> str:
    try:
        stderr = result.stderr
    except (ValueError, AttributeError):
        stderr = ""
    return result.output + stderr


# Run in a fresh interpreter, where numpy cannot be imported: this one has
# imported numpy already, and the tests use it.
IMPORT_CHECK = """
import io, sys
sys.modules["numpy"] = None
import evinet, evinet.cli
assert "evinet.table" not in sys.modules, "importing the CLI loaded evinet.table"
assert "evinet.minimize" not in sys.modules, "importing the CLI loaded evinet.minimize"
assert all(hasattr(evinet, name) for name in evinet.__all__)
from evinet import build_transfer_table, emit_equations, invert_table, parse_net, write_table_csv
with open(sys.argv[1], encoding="utf-8") as handle:
    table = build_transfer_table(parse_net(handle.read()))
assert write_table_csv(table, io.StringIO()) == 56
assert len(emit_equations(table, minimize=True)) == 7
assert len(invert_table(table, {0})) == 10
"""


def test_importing_the_cli_does_not_import_numpy(data_dir):
    src = str(Path(evinet.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK, str(data_dir / "fig1.evinet")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


class TestValidate:
    def test_fig1_ok(self, runner, data_dir):
        result = invoke(runner, ["validate", "--net", str(data_dir / "fig1.evinet")])
        assert result.exit_code == 0
        assert "ok" in result.output
        assert "no conflicts" in result.output

    def test_fig2_reports_conflict(self, runner, data_dir):
        result = invoke(runner, ["validate", "--net", str(data_dir / "fig2.evinet")])
        assert result.exit_code == 0
        assert "conflict: P1 -> {t1, t2}" in result.output

    def test_broken_net_fails_with_column_report(self, runner, data_dir):
        result = invoke(runner, ["validate", "--net", str(data_dir / "broken.evinet")])
        assert result.exit_code == 1
        assert "column 1 of post - pre sums to -1" in combined_output(result)

    def test_missing_file(self, runner, tmp_path):
        result = invoke(runner, ["validate", "--net", str(tmp_path / "nope.evinet")])
        assert result.exit_code == 1

    def test_syntax_error_reports_line(self, runner, tmp_path):
        path = tmp_path / "bad.evinet"
        path.write_text("net x\nwat\n")
        result = invoke(runner, ["validate", "--net", str(path)])
        assert result.exit_code == 1
        assert "line 2" in combined_output(result)


@pytest.mark.parametrize(
    "command",
    [["validate"], ["conflicts"], ["run", "--input", "-"], ["table", "--output", "t.csv"],
     ["equations"]],
    ids=lambda command: command[0],
)
def test_an_empty_places_line_is_one_error_line(runner, tmp_path, command):
    path = tmp_path / "empty.evinet"
    path.write_text("net a\nplaces:\ntransitions: t1\n")
    extra = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in command[1:]]
    result = invoke(runner, [command[0], "--net", str(path), *extra], input="1\n")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {path}: line 2: a net needs at least one place\n"
    assert not (tmp_path / "t.csv").exists()


class TestConflicts:
    def test_fig2(self, runner, data_dir):
        result = invoke(runner, ["conflicts", "--net", str(data_dir / "fig2.evinet")])
        assert result.exit_code == 0
        assert result.output == "conflict: P1 -> {t1, t2}\n"

    def test_fig1(self, runner, data_dir):
        result = invoke(runner, ["conflicts", "--net", str(data_dir / "fig1.evinet")])
        assert result.output == "no conflicts\n"


class TestRun:
    def test_worked_sequence_dense(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig1.evinet"), "--format", "dense",
             "--input", "-"],
            input="0 1 0\n",
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "step=0 r=- mass=[0,0,0,0,0,0,1]",
            "step=1 r=010 mass=[0,0,0,0,1,0,0]",
        ]

    def test_empty_input_emits_initial_record_only(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig1.evinet"), "--input", "-"],
            input="",
        )
        assert result.exit_code == 0
        assert result.output == "step=0 r=- mass={P1,P2,P3}:1\n"

    def test_explicit_initial_mass_on_conflict_net(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig2.evinet"),
             "--initial", "{P1,P2}:1", "--input", "-"],
            input="0 1 0 0\n",
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "step=1 r=0100 mass={P2,P3}:1"

    def test_conflicting_line_halts_with_diagnostic(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig2.evinet"), "--input", "-"],
            input="0 1 0 0\n1 1 0 0\n",
        )
        assert result.exit_code == 1
        # the record before the bad line was already streamed
        assert "step=1" in result.output
        err = combined_output(result)
        assert "line 2" in err
        assert "P1" in err and "t1" in err and "t2" in err

    def test_conflict_diagnostic_and_prior_records_are_pinned(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig2.evinet"), "--format", "log"],
            input="0 1 0 0\n# note\n\n1 0 0 0\n1 1 0 0\n0 0 0 0\n",
        )
        assert result.exit_code == 1
        assert result.stdout == (
            "step=0 r=- mass={P1,P2,P3}:1 dense=[0,0,0,0,0,0,1]\n"
            "step=1 r=0100 mass={P2,P3}:1 dense=[0,0,0,0,0,1,0]\n"
            "step=2 r=1000 mass={P2,P3}:1 dense=[0,0,0,0,0,1,0]\n"
        )
        assert result.stderr == (
            "error: line 5: receptivity 1100 enables conflicting transitions"
            " at P1 with t1, t2\n"
        )

    def test_every_violated_conflict_set_is_named(self, runner, tmp_path):
        # P1 and P3 are both conflict places
        net = net_from_transitions(4, [(0, 1), (0, 2), (2, 3), (2, 0), (1, 2), (3, 0)])
        path = tmp_path / "two.evinet"
        path.write_text(serialize_net(net))
        result = invoke(
            runner,
            ["run", "--net", str(path)],
            input="0 0 0 0 1 0\n1 1 1 1 0 0\n",
        )
        assert result.exit_code == 1
        assert result.stdout == (
            "step=0 r=- mass={P1,P2,P3,P4}:1\nstep=1 r=000010 mass={P1,P3,P4}:1\n"
        )
        assert result.stderr == (
            "error: line 2: receptivity 111100 enables conflicting transitions"
            " at P1 with t1, t2; P3 with t3, t4\n"
        )

    def test_malformed_line_reports_number(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig1.evinet"), "--input", "-"],
            input="0 1 0\n0 2 0\n",
        )
        assert result.exit_code == 1
        assert "line 2" in combined_output(result)

    def test_file_and_stdin_agree(self, runner, data_dir, tmp_path):
        stream = "0 1 0\n# comment\n1 0 0\n"
        path = tmp_path / "input.txt"
        path.write_text(stream)
        args = ["run", "--net", str(data_dir / "fig1.evinet"), "--format", "log"]
        from_file = invoke(runner, args + ["--input", str(path)])
        from_stdin = invoke(runner, args + ["--input", "-"], input=stream)
        assert from_file.exit_code == from_stdin.exit_code == 0
        assert from_file.output == from_stdin.output

    @pytest.mark.parametrize(
        "stream",
        [
            b"0 1 0 0\r\n0 0 1 1\r\n# note\r\n\r\n1 0 0 0\r\n0 0 0 1\r\n",
            b"0 1 0 0\n0 0 1 1\n1 0 0 0\n0 0 0 1",
            b"0,1,0,0\n0, 0, 1, 1\n1,0 ,0,0\n,0,0,0,1,\n",
            b"0\t1\t0\t0\n\t0\t0\t1\t1\t\r\n1\t0,0\t0\n0 0\t0 1",
        ],
        ids=["crlf", "no-final-newline", "commas", "tabs"],
    )
    def test_separators_and_line_ends_give_the_spaced_records(self, data_dir, stream):
        src = str(Path(evinet.__file__).resolve().parent.parent)

        def run(data: bytes):
            return subprocess.run(
                [sys.executable, "-m", "evinet.cli", "run", "--net",
                 str(data_dir / "fig2.evinet"), "--initial", "{P1}:0.25 {P2,P3}:0.75",
                 "--format", "log", "--input", "-"],
                env={**os.environ, "PYTHONPATH": src},
                input=data,
                capture_output=True,
            )

        spaced = run(b"0 1 0 0\n0 0 1 1\n1 0 0 0\n0 0 0 1\n")
        result = run(stream)
        assert spaced.returncode == result.returncode == 0
        assert result.stderr == b""
        assert result.stdout == spaced.stdout
        assert result.stdout.count(b"\n") == 5

    def test_closed_stdin_is_one_error_line(self, data_dir):
        # with file descriptor 0 closed, Python starts with sys.stdin None
        src = str(Path(evinet.__file__).resolve().parent.parent)
        command = [sys.executable, "-m", "evinet.cli", "run", "--net",
                   str(data_dir / "fig1.evinet"), "--input", "-"]
        result = subprocess.run(
            ["/bin/sh", "-c", 'exec "$@" <&-', "sh", *command],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: cannot read standard input: it is closed\n"

    def test_runs_are_deterministic(self, runner, data_dir):
        args = ["run", "--net", str(data_dir / "fig2.evinet"), "--initial",
                "{P1}:0.25 {P2,P3}:0.75", "--input", "-"]
        first = invoke(runner, args, input="0 1 0 0\n0 0 1 1\n")
        second = invoke(runner, args, input="0 1 0 0\n0 0 1 1\n")
        assert first.output == second.output

    def test_log_format_carries_both_renderings(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig1.evinet"), "--format", "log",
             "--input", "-"],
            input="0 1 0\n",
        )
        assert result.output.splitlines()[1] == (
            "step=1 r=010 mass={P1,P3}:1 dense=[0,0,0,0,1,0,0]"
        )

    def test_dense_rejected_beyond_place_limit(self, runner, tmp_path):
        path = tmp_path / "big.evinet"
        path.write_text(serialize_net(cycle_net(11)))
        result = invoke(
            runner,
            ["run", "--net", str(path), "--format", "dense", "--input", "-"],
            input="",
        )
        assert result.exit_code == 1
        assert "dense" in combined_output(result)
        assert "limited to 10 places, got 11" in combined_output(result)

    def test_cycle_wider_than_a_machine_word(self, runner, tmp_path):
        path = tmp_path / "cycle34.evinet"
        path.write_text(serialize_net(cycle_net(34)))
        last_only = " ".join(["0"] * 33 + ["1"])
        result = invoke(
            runner,
            ["run", "--net", str(path), "--initial", "{P33,P34}:0.5 {P34}:0.5",
             "--format", "sparse", "--input", "-"],
            input=f"{last_only}\n{' '.join(['1'] * 34)}\n",
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "step=0 r=- mass={P34}:0.5 {P33,P34}:0.5",
            f"step=1 r={'0' * 33}1 mass={{P1}}:0.5 {{P1,P33}}:0.5",
            f"step=2 r={'1' * 34} mass={{P2}}:0.5 {{P2,P34}}:0.5",
        ]

    def test_bad_initial_record(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig1.evinet"),
             "--initial", "{P1}:0.5", "--input", "-"],
            input="",
        )
        assert result.exit_code == 1

    def test_duplicate_focal_set_in_initial_record(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig1.evinet"),
             "--initial", "{P1}:0.5 {P1}:0.5", "--input", "-"],
            input="",
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: --initial: line 1: focal set {P1} is named twice\n"

    def test_a_merged_mass_above_one_runs_to_the_end(self, runner, data_dir):
        # the two masses sum to 1 + 2**-52, inside the normalization tolerance,
        # and t1 merges them on {P2} into that sum, which the constructor bounded
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig1.evinet"), "--input", "-",
             "--initial", "{P1}:0.13436424411240122 {P2}:0.865635755887599"],
            input="1 0 0\n0 1 0\n",
        )
        assert result.exit_code == 0
        assert result.stdout == (
            "step=0 r=- mass={P1}:0.13436424411240122 {P2}:0.865635755887599\n"
            "step=1 r=100 mass={P2}:1.0000000000000002\n"
            "step=2 r=010 mass={P3}:1.0000000000000002\n"
        )
        assert result.stderr == ""

    def test_a_missing_input_file_is_one_error_line(self, runner, data_dir, tmp_path):
        missing = tmp_path / "absent.txt"
        result = invoke(
            runner, ["run", "--net", str(data_dir / "fig1.evinet"), "--input", str(missing)]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: cannot read {missing}: No such file or directory\n"


class TestTable:
    def test_fig1_row_count_and_cells(self, runner, data_dir, tmp_path):
        out = tmp_path / "fig1.csv"
        result = invoke(
            runner,
            ["table", "--net", str(data_dir / "fig1.evinet"), "--output", str(out)],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "56 rows"
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["subset", "receptivity_bits", "result_subset"]
        assert len(rows) == 57
        assert ["{P1,P3}", "101", "{P1,P2}"] in rows

    def test_fig2_row_count(self, runner, data_dir, tmp_path):
        out = tmp_path / "fig2.csv"
        result = invoke(
            runner,
            ["table", "--net", str(data_dir / "fig2.evinet"), "--output", str(out)],
        )
        assert result.output.strip() == "84 rows"

    def test_cap_error(self, runner, tmp_path):
        path = tmp_path / "big.evinet"
        path.write_text(serialize_net(cycle_net(17)))
        result = invoke(
            runner,
            ["table", "--net", str(path), "--output", str(tmp_path / "t.csv")],
        )
        assert result.exit_code == 1
        # 2**17 admissible combinations, one cell per subset mask each
        assert str((1 << 17) << 17) in combined_output(result)

    def test_more_places_than_mask_bits(self, runner, tmp_path):
        path = tmp_path / "wide.evinet"
        path.write_text(serialize_net(cycle_net(33)))
        result = invoke(
            runner,
            ["table", "--net", str(path), "--output", str(tmp_path / "t.csv"),
             "--max-places", "40"],
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: net has 33 places;")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_mask_array_over_the_cell_limit(self, runner, tmp_path):
        path = tmp_path / "ring.evinet"
        path.write_text(serialize_net(cycle_net(16)))
        result = invoke(
            runner, ["table", "--net", str(path), "--output", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: net has 16 places and 65536 admissible")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_env_var_cap(self, runner, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("EVINET_MAX_PLACES", "2")
        result = invoke(
            runner,
            ["table", "--net", str(data_dir / "fig1.evinet"),
             "--output", str(tmp_path / "t.csv")],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("command", ["table", "equations"])
    def test_negative_flag_cap_is_rejected(self, runner, data_dir, tmp_path, command):
        out = tmp_path / "t.csv"
        args = [command, "--net", str(data_dir / "fig1.evinet"), "--max-places", "-1"]
        if command == "table":
            args += ["--output", str(out)]
        result = invoke(runner, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: --max-places must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["table", "equations"])
    def test_negative_env_cap_is_rejected(
        self, runner, data_dir, tmp_path, monkeypatch, command
    ):
        monkeypatch.setenv("EVINET_MAX_PLACES", "-3")
        out = tmp_path / "t.csv"
        args = [command, "--net", str(data_dir / "fig1.evinet")]
        if command == "table":
            args += ["--output", str(out)]
        result = invoke(runner, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: EVINET_MAX_PLACES must be a non-negative integer, got '-3'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["table", "equations"])
    def test_non_integer_env_cap_is_rejected(
        self, runner, data_dir, tmp_path, monkeypatch, command
    ):
        monkeypatch.setenv("EVINET_MAX_PLACES", "abc")
        out = tmp_path / "t.csv"
        args = [command, "--net", str(data_dir / "fig1.evinet")]
        if command == "table":
            args += ["--output", str(out)]
        result = invoke(runner, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: EVINET_MAX_PLACES must be an integer, got 'abc'\n"
        assert not out.exists()

    def test_output_into_a_missing_directory(self, runner, data_dir, tmp_path):
        out = tmp_path / "absent" / "t.csv"
        result = invoke(
            runner, ["table", "--net", str(data_dir / "fig1.evinet"), "--output", str(out)]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: cannot write {out}: No such file or directory\n"

    def test_zero_cap_is_a_cap_not_an_error_of_its_own(self, runner, data_dir, tmp_path):
        result = invoke(
            runner,
            ["table", "--net", str(data_dir / "fig1.evinet"),
             "--output", str(tmp_path / "t.csv"), "--max-places", "0"],
        )
        assert result.exit_code == 1
        assert "over the cap of 0 places" in result.stderr

    def test_flag_overrides_env(self, runner, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("EVINET_MAX_PLACES", "2")
        result = invoke(
            runner,
            ["table", "--net", str(data_dir / "fig1.evinet"),
             "--output", str(tmp_path / "t.csv"), "--max-places", "16"],
        )
        assert result.exit_code == 0


class TestEquations:
    def test_fig1_minimized(self, runner, data_dir):
        result = invoke(
            runner,
            ["equations", "--net", str(data_dir / "fig1.evinet"), "--minimize"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "# evinet equations v1"
        assert len(lines) == 8
        assert lines[1] == "M{1}(k+1) = !r1*M{1} + r3*M{3} + !r1*r3*M{1,3}"

    def test_fig1_raw_full_set_minterms(self, runner, data_dir):
        result = invoke(runner, ["equations", "--net", str(data_dir / "fig1.evinet")])
        last = result.output.splitlines()[-1]
        assert last == "M{1,2,3}(k+1) = (!r1*!r2*!r3 + r1*r2*r3)*M{1,2,3}"

    def test_minimize_past_the_width_limit(self, runner, tmp_path):
        path = tmp_path / "alternating.evinet"
        path.write_text(serialize_net(alternating_net(26)))
        args = ["--net", str(path), "--max-places", "30"]
        result = invoke(runner, ["equations", "--minimize", *args])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: cannot minimize over 26 transitions; the limit is 24\n"
        )
        raw = invoke(runner, ["equations", *args])
        assert raw.exit_code == 0
        assert len(raw.output.splitlines()) == 4  # header + three targets
        out = tmp_path / "t.csv"
        table = invoke(runner, ["table", *args, "--output", str(out)])
        assert table.exit_code == 0
        assert table.output == "588 rows\n"
        assert len(out.read_text().splitlines()) == 589

    def test_emission_over_the_cell_limit(self, runner, tmp_path):
        path = tmp_path / "cycle12.evinet"
        path.write_text(serialize_net(cycle_net(12)))
        for extra in ([], ["--minimize"]):
            result = invoke(runner, ["equations", "--net", str(path), *extra])
            assert result.exit_code == 1
            assert result.stdout == ""
            assert result.stderr == (
                "error: table has 16773120 defined cells;"
                " equations are limited to 4194304 cells\n"
            )

    def test_two_place_cycle(self, runner, tmp_path):
        path = tmp_path / "loop.evinet"
        path.write_text(serialize_net(cycle_net(2)))
        result = invoke(runner, ["equations", "--net", str(path), "--minimize"])
        lines = result.output.splitlines()
        assert len(lines) == 4  # header + two singleton targets + the pair target


class TestUndecodableBytes:
    """A byte that is not UTF-8 ends in one ``error:`` line: the parser's own
    diagnostic when it comes from a file, read as standard input is."""

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["conflicts"], ["run"], ["table", "--output"], ["equations"]],
        ids=lambda command: command[0],
    )
    def test_net_file(self, runner, tmp_path, command):
        path = tmp_path / "bad.evinet"
        path.write_bytes(b"net bad\nplaces: P1, P\xff2\ntransitions: t1\n")
        if command[-1] == "--output":
            command = command + [str(tmp_path / "table.csv")]
        result = invoke(runner, [*command, "--net", str(path)], input="")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == f"error: {path}: line 2: invalid place name 'P\\udcff2'\n"

    def test_run_input_file_keeps_the_records_before_the_bad_line(
        self, runner, data_dir, tmp_path
    ):
        path = tmp_path / "stream.txt"
        path.write_bytes(b"0 1 0\n0 \xff 0\n1 0 0\n")
        args = ["run", "--net", str(data_dir / "fig1.evinet"), "--input", str(path)]
        result = invoke(runner, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == "step=0 r=- mass={P1,P2,P3}:1\nstep=1 r=010 mass={P1,P3}:1\n"
        assert result.stderr == "error: line 2: non-binary token '\\udcff'\n"

    def test_a_stdin_that_decodes_strictly(self, runner, data_dir):
        # the test runner's stdin raises on the byte, as a strict locale's
        # does; its bytes are read as a file's, so the output is the file's
        args = ["run", "--net", str(data_dir / "fig1.evinet"), "--input", "-"]
        result = invoke(runner, args, input=b"0 1 0\n0 \xff 0\n")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == "step=0 r=- mass={P1,P2,P3}:1\nstep=1 r=010 mass={P1,P3}:1\n"
        assert result.stderr == "error: line 2: non-binary token '\\udcff'\n"


class _FailingStdout(io.StringIO):
    """A standard output whose every write fails with ``code``."""

    def __init__(self, code: int):
        super().__init__()
        self.code = code

    def write(self, text: str) -> int:
        raise OSError(self.code, os.strerror(self.code))


class TestStdoutWriteFailures:
    """A write to a full standard output ends in one ``error:`` line and status
    1; a broken pipe (``| head``) keeps click's silent status 1."""

    COMMANDS = {
        "run": ["run", "--net", "fig1.evinet", "--input", "-"],
        "equations": ["equations", "--net", "fig1.evinet"],
        "validate": ["validate", "--net", "fig1.evinet"],
        "conflicts": ["conflicts", "--net", "fig2.evinet"],
        "table": ["table", "--net", "fig1.evinet", "--output", "table.csv"],
    }

    def _args(self, tmp_path, data_dir, name):
        return [
            str(data_dir / arg) if arg.endswith(".evinet") else
            str(tmp_path / arg) if arg.endswith(".csv") else arg
            for arg in self.COMMANDS[name]
        ]

    def _invoke(self, monkeypatch, tmp_path, data_dir, name, code):
        args = self._args(tmp_path, data_dir, name)
        monkeypatch.setattr(sys, "stdin", io.StringIO("0 1 0\n"))
        monkeypatch.setattr(sys, "stdout", _FailingStdout(code))
        with pytest.raises(SystemExit) as exit_:
            main.main(args=args, prog_name="evinet")
        return exit_.value.code

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_a_full_device_is_one_error_line(self, monkeypatch, tmp_path, data_dir, capsys, name):
        code = self._invoke(monkeypatch, tmp_path, data_dir, name, errno.ENOSPC)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
        )

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_a_broken_pipe_is_silent(self, monkeypatch, tmp_path, data_dir, capsys, name):
        code = self._invoke(monkeypatch, tmp_path, data_dir, name, errno.EPIPE)
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_a_failing_read_is_not_blamed_on_standard_output(self, monkeypatch, data_dir, capsys):
        class FailingStdin:
            def readline(self):
                raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(sys, "stdin", FailingStdin())
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        with pytest.raises(SystemExit) as exit_:
            main.main(args=["run", "--net", str(data_dir / "fig1.evinet")], prog_name="evinet")
        assert exit_.value.code == 1
        assert sys.stdout.getvalue() == "step=0 r=- mass={P1,P2,P3}:1\n"
        assert capsys.readouterr().err == (
            f"error: cannot read standard input: {os.strerror(errno.EIO)}\n"
        )

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_a_closed_stdout_is_one_error_line(self, tmp_path, data_dir, name):
        # with file descriptor 1 closed, Python starts with sys.stdout None,
        # and print and click.echo would drop every line without an error
        args = self._args(tmp_path, data_dir, name)
        src = str(Path(evinet.__file__).resolve().parent.parent)
        result = subprocess.run(
            ["/bin/sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "evinet.cli", *args],
            env={**os.environ, "PYTHONPATH": src},
            input="0 1 0\n",
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr == "error: cannot write standard output: it is closed\n"
        assert not (tmp_path / "table.csv").exists()  # ended before any work


class TestLibraryErrorBoundary:
    """A library error that no command adds context to ends at the command
    group in one ``error:`` line and status 1; any other exception is a bug
    and escapes with its traceback."""

    @staticmethod
    def _args(data_dir, tmp_path, command):
        net = ["--net", str(data_dir / "fig1.evinet")]
        if command == "table":
            return ["table", *net, "--output", str(tmp_path / "t.csv")]
        return ["equations", *net]

    @pytest.mark.parametrize(
        "command, target",
        [("table", "build_transfer_table"), ("equations", "build_transfer_table"),
         ("equations", "emit_equations")],
    )
    def test_a_library_error_is_one_error_line(
        self, runner, data_dir, tmp_path, monkeypatch, command, target
    ):
        from evinet import table as table_module

        def fail(*args, **kwargs):
            raise evinet.DimensionError("x")

        monkeypatch.setattr(table_module, target, fail)
        result = invoke(runner, self._args(data_dir, tmp_path, command))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: x\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "command, target",
        [("table", "build_transfer_table"), ("equations", "emit_equations")],
    )
    def test_a_bug_keeps_its_traceback(
        self, runner, data_dir, tmp_path, monkeypatch, command, target
    ):
        from evinet import table as table_module

        bug = RuntimeError("a bug")

        def fail(*args, **kwargs):
            raise bug

        monkeypatch.setattr(table_module, target, fail)
        result = invoke(runner, self._args(data_dir, tmp_path, command))
        assert result.exception is bug
        assert "error:" not in result.stderr


# "Never a traceback", by search: every command on mutated documents, streams,
# --initial records and caps ends in status 0, or in status 1 with a diagnostic.
_DATA = Path(__file__).parent / "data"
_DOCUMENTS = {
    name: (_DATA / f"{name}.evinet").read_bytes().splitlines(keepends=True)
    for name in ("fig1", "fig2", "broken")
}
_JUNK_LINES = [
    b"arc: P1 -> t9\n", b"arc: P9 -> t1\n", b"arc: t1 -> t2\n", b"arc P1 t1\n",
    b"places: P1, P1\n", b"places:\n", b"transitions:\n", b"net\n", b"# note\n", b"\n",
]
_JUNK_TOKENS = [b"->", b"P1", b"t1", b",", b":", b"{", b"\xff", b"\xc3", b"\xed\xa0\x80"]
_STREAMS = {
    "fig1": [b"0 0 0\n", b"1 0 0\n", b"0 1 0\n", b"0,0,1\n", b"1 1 1\n"],
    "fig2": [b"0 0 0 0\n", b"1 0 0 0\n", b"0 1 0 1\n", b"1,0,1,1\n", b"0 0 1 1\n"],
    "broken": [b"0 0\n", b"1 0\n"],
}
_JUNK_STREAM_LINES = [
    b"1 1 0 0\n", b"1\t0\t0\r\n", b"# note\n", b"\n", b"2 0 0\n", b"1 0\n", b"x y z\n",
    b"\xff 0 0\n", b"0.5 0 0\n", b"0 0 0 0 0\n",
]
_MASS_TOKENS = [
    "{P1}:1", "{P1,P2}:1", "{P1}:0.5", "{P2}:0.5", "{P3}:0.5", "{P9}:1", "{}:1", "{P1}:x",
    "P1=1", "{P1}:1.5", "{P1}:-0.1", "{P1}:nan", "{P1}:inf", "{P1}:1.000000001",
    "{P1}:0.5000000005", "{P1}:0.500000001", "{P1}:0.499999999",
    "{P1}:0.13436424411240122", "{P2}:0.865635755887599",
]


@st.composite
def _mutated_lines(draw, lines, junk):
    """``lines`` joined, most often as they are, else after up to four edits: a
    line dropped, duplicated, swapped or inserted from ``junk``, or a junk token
    appended to one."""
    lines = list(lines)
    count = draw(st.sampled_from((0, 0, 0, 1, 1, 2, 4)))
    edits = st.sampled_from(["drop", "dup", "swap", "line", "token"])
    for op in draw(st.lists(edits, min_size=count, max_size=count)):
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "line" or not lines:
            lines.insert(at, draw(st.sampled_from(junk)))
        elif op == "drop":
            del lines[at]
        elif op == "dup":
            lines.insert(at, lines[at])
        elif op == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        else:
            lines[at] = lines[at].rstrip(b"\n") + b" " + draw(st.sampled_from(_JUNK_TOKENS)) + b"\n"
    return b"".join(lines)


@st.composite
def _invocations(draw, folder: Path):
    """Arguments, standard input and environment of one CLI call."""
    name = draw(st.sampled_from(["fig1", "fig2", "fig1", "fig2", "broken"]))
    (folder / "net.evinet").write_bytes(draw(_mutated_lines(_DOCUMENTS[name], _JUNK_LINES)))
    command = draw(st.sampled_from(["validate", "conflicts", "run", "table", "equations"]))
    args, stdin = [command, "--net", str(folder / "net.evinet")], None
    if command == "run":
        lines = draw(st.lists(st.sampled_from(_STREAMS[name]), max_size=8))
        stream = draw(_mutated_lines(lines, _JUNK_STREAM_LINES))
        tokens = draw(st.lists(st.sampled_from(_MASS_TOKENS), max_size=3))
        initial = draw(st.sampled_from(["ignorance", " ".join(tokens)]))
        form = draw(st.sampled_from(["sparse", "dense", "log"]))
        args += ["--initial", initial, "--format", form]
        if draw(st.booleans()):
            stdin = stream
        else:
            (folder / "stream.txt").write_bytes(stream)
            args += ["--input", str(folder / "stream.txt")]
    if command == "table":
        args += ["--output", str(folder / "table.csv")]
    if command == "equations" and draw(st.booleans()):
        args.append("--minimize")
    if command in ("table", "equations") and draw(st.booleans()):
        args.append(f"--max-places={draw(st.integers())}")
    # values an environment can hold: no NUL, no lone surrogate
    text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"))
    env = {ENV_MAX_PLACES: draw(st.none() | text | st.integers().map(str))}
    return args, stdin, env


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_no_input_ends_in_a_traceback(fuzz_dir, data):
    args, stdin, env = data.draw(_invocations(fuzz_dir))
    result = CliRunner(env=env).invoke(main, args, input=stdin)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code in (0, 1)
    if result.exit_code == 1:
        assert result.stderr
