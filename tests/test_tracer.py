"""The benchmark's tracer installs on orbkit and sees every layer.

perfbench/tracer.py binds orbkit's layer functions by name and fails on
a binding it cannot rebind, such as a layer function held in a tuple.
So a renamed function or such a binding would otherwise show only in a
traced benchmark run.  This runs `verify --builtin glued_Z --prime 3`
untraced and then under the tracer, in a fresh process, as the benchmark
does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_VERIFY = """
import contextlib, io, json
import orbkit.cli
import tracer
argv = ["verify", "--builtin", "glued_Z", "--prime", "3"]
with contextlib.redirect_stdout(io.StringIO()):
    untraced = orbkit.cli.main(argv)
t = tracer.Tracer()
tracer.install(t)
with contextlib.redirect_stdout(io.StringIO()):
    traced = t.root("verify", orbkit.cli.main, argv)
print(json.dumps({"untraced": untraced, "traced": traced,
                  "spans": sorted({span[3] for span in t.spans})}))
"""


def test_tracer_installs_and_records_each_decision():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY], capture_output=True,
        text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["traced"] == out["untraced"] == 0
    assert {"fpgroup.coset_enumerate", "seifert.h1_zero_decision",
            "spin.spin_decision"} <= set(out["spans"])
