"""The benchmark's tracer installs on orbkit and sees every layer.

perfbench/tracer.py binds orbkit's layer functions by name and fails on
a binding it cannot rebind, such as a layer function held in a tuple.
So a renamed function or such a binding would otherwise show only in a
traced benchmark run.  This runs `verify --builtin glued_Z --prime 3`,
`verify` of an explicit scenario with a [script] and `verify --builtin
glued_Z --prime 3 --spin-target spin` untraced and then under the
tracer, in one fresh process, as the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# prints the exit codes of each run, untraced and traced, and every
# (span name, parent span name) pair of the traced runs
TRACED_VERIFY = """
import contextlib, io, json, sys
import orbkit.cli
import tracer
runs = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    untraced = [orbkit.cli.main(argv) for argv in runs]
t = tracer.Tracer()
tracer.install(t)
with contextlib.redirect_stdout(io.StringIO()):
    traced = [t.root("verify", orbkit.cli.main, argv) for argv in runs]
names = {span[1]: span[3] for span in t.spans}
print(json.dumps({"untraced": untraced, "traced": traced,
                  "spans": sorted({(span[3], names.get(span[2]))
                                   for span in t.spans}, key=str)}))
"""

SCRIPT_TEXT = """\
scenario v1

[config]
b1 = 0
b2 = 1
euler = 3

[surface C]
genus = 1
self = 9

[script]
blow_up through=C id=E
blow_up through=E id=F
blow_down sphere=E
"""


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    scenario = tmp_path_factory.mktemp("tracer") / "script.scn"
    scenario.write_text(SCRIPT_TEXT)
    runs = [["verify", "--builtin", "glued_Z", "--prime", "3"],
            ["verify", str(scenario)],
            ["verify", "--builtin", "glued_Z", "--prime", "3",
             "--spin-target", "spin"]]
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, json.dumps(runs)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    return out["untraced"], out["traced"], {tuple(p) for p in out["spans"]}


def test_tracer_installs_and_records_each_decision(traced):
    untraced, codes, spans = traced
    assert codes == untraced == [0, 0, 0]
    assert {"fpgroup.coset_enumerate", "seifert.h1_zero_decision",
            "spin.spin_decision"} <= {name for name, _ in spans}


def test_the_class_walk_asks_the_spin_decision(traced):
    # with a spin target, the report's test of whether a class serves an
    # assignment runs inside the walk, through the rebound spin_decision
    _, _, spans = traced
    assert ("spin.spin_decision", "seifert.search_background_class") in spans


def test_script_moves_run_under_the_parse(traced):
    # the parser runs each [script] line's move, through the bindings the
    # tracer rebinds, and the pipeline reads the configuration it built
    _, _, spans = traced
    moves = {"surgery.blow_up", "surgery.blow_down_minus2"}
    assert moves <= {name for name, up in spans
                     if up == "scenario.parse_scenario"}
    assert not moves & {name for name, up in spans
                        if up == "report.run_pipeline"}
