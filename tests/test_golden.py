"""Byte-stability digests of the CLI outputs on the benchmark inputs.

``tests/data/golden.json`` holds, for seeds 1-3 of each benchmark workload,
the sha256 and byte length of stdout and stderr, and the exit status, of:

- ``run`` on ``stream`` in sparse, dense and log;
- ``run`` on ``wide`` in sparse, log and dense (dense refuses 12 places);
- ``table``, its CSV file included;
- ``equations``, raw and ``--minimize``.

The inputs come from ``evibench/gen.py``, loaded unchanged. A digest changes
only with a declared change of an output format. To rewrite the file:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from evinet import cli
from _nets import benchmark_generator

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SEEDS = (1, 2, 3)


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _commands(workload: str, files: dict[str, Path], out: Path):
    """(name, argv, stdin) of each command run on one workload's inputs."""
    net = ["--net", str(files["net"])]
    if workload in ("stream", "wide"):
        stdin = files["stream"].read_text(encoding="utf-8")
        initial = []
        if "initial" in files:
            initial = ["--initial", files["initial"].read_text(encoding="utf-8").strip()]
        forms = ("sparse", "dense", "log") if workload == "stream" else ("sparse", "log", "dense")
        for form in forms:
            yield form, ["run", *net, *initial, "--format", form, "--input", "-"], stdin
    elif workload == "table":
        yield "csv", ["table", *net, "--output", str(out / "table.csv")], None
    else:
        yield "raw", ["equations", *net], None
        yield "minimize", ["equations", *net, "--minimize"], None


def digests(workload: str, seed: int) -> dict[str, dict]:
    """The digests of every command on one workload and seed, keyed by command."""
    runner = CliRunner()
    found = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as scratch:
        out = Path(scratch)
        files = benchmark_generator().generate(workload, seed, out / "inputs")
        for name, argv, stdin in _commands(workload, files, out):
            result = runner.invoke(cli.main, argv, input=stdin)
            entry = {
                "stdout": _digest(result.stdout_bytes),
                "stderr": _digest(result.stderr_bytes),
                "exit": result.exit_code,
            }
            if workload == "table":
                entry["csv"] = _digest((out / "table.csv").read_bytes())
            found[name] = entry
    return found


def generate() -> dict[str, dict]:
    workloads = benchmark_generator().WORKLOADS
    return {
        f"{workload}:{seed}": digests(workload, seed) for workload in workloads for seed in SEEDS
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_benchmark_output_is_pinned(golden):
    assert sorted(golden) == sorted(
        f"{workload}:{seed}" for workload in benchmark_generator().WORKLOADS for seed in SEEDS
    )
    # wide's dense run is the one refused command: an error line and status 1
    for seed in SEEDS:
        assert golden[f"wide:{seed}"]["dense"]["exit"] == 1
        assert golden[f"wide:{seed}"]["dense"]["stdout"]["bytes"] == 0
    assert all(
        entry["exit"] == 0 and entry["stderr"]["bytes"] == 0
        for key, outputs in golden.items()
        for name, entry in outputs.items()
        if (key.split(":")[0], name) != ("wide", "dense")
    )


@pytest.mark.parametrize("workload", ["stream", "wide", "table", "equations"])
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_their_digests(golden, workload, seed):
    assert digests(workload, seed) == golden[f"{workload}:{seed}"]


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
