from __future__ import annotations

import csv
import io

import pytest
from click.testing import CliRunner

from evinet.cli import main
from evinet import serialize_net
from _nets import cycle_net, net_from_transitions


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

    def test_bad_initial_record(self, runner, data_dir):
        result = invoke(
            runner,
            ["run", "--net", str(data_dir / "fig1.evinet"),
             "--initial", "{P1}:0.5", "--input", "-"],
            input="",
        )
        assert result.exit_code == 1


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
        assert str(((1 << 17) - 1) * (1 << 17)) in combined_output(result)

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

    def test_two_place_cycle(self, runner, tmp_path):
        path = tmp_path / "loop.evinet"
        path.write_text(serialize_net(cycle_net(2)))
        result = invoke(runner, ["equations", "--net", str(path), "--minimize"])
        lines = result.output.splitlines()
        assert len(lines) == 4  # header + two singleton targets + the pair target
