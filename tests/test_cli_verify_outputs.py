"""The cli_verify workload's expected outputs, checked in process.

perfbench/workloads.py states what each command of the cli_verify
workload must print and exit with: the builtin commands against the
files in perfbench/goldens/, the verdict lines of enumerate, and the
build, verify and structured report of its seeded surgery scenarios,
whose outputs it works out by its own bookkeeping.  A benchmark run
shows a change there only as an incorrect output; these tests make the
same comparisons in every test run, on the scenarios of seeds 1 to 3.
The module is read and run, never changed.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from orbkit import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEEDS = (1, 2, 3)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
# golden name -> (argv, exit code)
BUILTIN_COMMANDS = {name: (argv, code)
                    for name, argv, code in workloads.builtin_commands()}


def _run(argv, capsys):
    """(exit code, stdout) of one orbkit command."""
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", BUILTIN_COMMANDS)
def test_builtin_command_matches_its_golden(name, capsys):
    argv, code = BUILTIN_COMMANDS[name]
    want = (workloads.GOLDENS / f"{name}.out").read_text(encoding="utf-8")
    assert _run(argv, capsys) == (code, want)


def test_enumerate_prints_its_verdict_lines(capsys):
    argv, code, lines = workloads.ENUMERATE
    rc, out = _run(argv, capsys)
    assert rc == code
    assert [ln for ln in lines if ln not in out.splitlines()] == []


@pytest.mark.parametrize("seed", SEEDS)
def test_scripted_scenarios_match_their_bookkeeping(seed, tmp_path, capsys):
    # the scenarios of one benchmark run: its op list draws them first,
    # in this order, from a generator seeded as here
    rng = random.Random(f"cli_verify:{seed}")
    for k in range(workloads.SCENARIOS_PER_RUN):
        cfg = workloads.scripted_config(rng)
        path = tmp_path / f"scenario{k}.scn"
        path.write_text(cfg.text(), encoding="utf-8")
        for argv, want in (
                (["build", str(path)], cfg.build_output()),
                (["verify", str(path)], cfg.verify_output()),
                (["report", str(path), "--format", "structured"],
                 cfg.report_output())):
            assert _run(argv, capsys) == (cli.EXIT_OK, want), (k, argv[0])
