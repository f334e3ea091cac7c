"""The README's examples, run as they are written.

The ``evinet run`` example's records are compared byte for byte, the rows of
the CSV example must be rows of ``evinet table`` on fig1, and the
``## Library`` block is executed and its mass checked against its comment.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import evinet
from evinet.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_the_run_example_prints_its_records(monkeypatch):
    example = re.search(r"```sh\n\$ printf '([^']*)' \| evinet ([^\n]*)\n(.*?)```", README, re.S)
    assert example, "no `printf ... | evinet run` block in the README"
    stream, command, records = example.groups()
    monkeypatch.chdir(ROOT)  # the example names its net relative to the root
    result = CliRunner().invoke(main, shlex.split(command), input=stream.replace("\\n", "\n"))
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == records.encode()


def test_the_csv_example_rows_are_written_by_table(monkeypatch, tmp_path):
    example = re.search(r"`table` exports CSV columns.*?```\n(.*?)```", README, re.S)
    assert example, "no CSV block after the `table` exports CSV columns paragraph"
    header, *rows = [line for line in example.group(1).splitlines() if line != "..."]
    assert rows == ["{P1},000,{P1}", '"{P1,P3}",101,"{P1,P2}"']
    monkeypatch.chdir(ROOT)
    out = tmp_path / "fig1.csv"
    command = ["table", "--net", "tests/data/fig1.evinet", "--output", str(out)]
    result = CliRunner().invoke(main, command)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == b"56 rows\n"
    header_line, *written = out.read_bytes().decode("utf-8").splitlines()
    assert header_line == header
    assert written[0] == rows[0]
    assert rows[1] in written


def test_the_library_example_runs(monkeypatch, capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S)
    assert block, "no python block under ## Library in the README"
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert "-> mass 1 on {P1, P3}" in block.group(1)
    assert evinet.serialize_mass(namespace["mass"], namespace["net"].places) == "{P1,P3}:1"
    assert capsys.readouterr().out.startswith("# evinet equations v1\n")
